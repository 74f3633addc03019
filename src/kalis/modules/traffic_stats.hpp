// Traffic Statistics Collection sensing module (paper §V).
//
// Maintains packets-per-unit-of-time for every traffic type — globally and
// per monitored device — over a configurable unit (paper default: 5 s), and
// publishes them as multilevel knowggets:
//
//   TrafficFrequency.TCPSYN          = 0.037      (global rate, pkts/s)
//   TrafficFrequency.TCPSYN@0x0005   = 0.2        (per-device rate)
//
// It also publishes protocol-presence knowggets (Protocols.TCP = true, ...)
// which drive the activation of protocol-specific detection modules.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"
#include "util/sliding_window.hpp"

namespace kalis::ids {

class TrafficStatsModule final : public SensingModule {
 public:
  TrafficStatsModule();

  std::string name() const override { return "TrafficStatsModule"; }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  /// Programmatic access for tests and anomaly modules.
  double globalRate(net::PacketType type, SimTime now);
  double deviceRate(net::PacketType type, const std::string& entity, SimTime now);

  std::uint32_t workUnitsPerPacket() const override { return 1; }
  std::size_t memoryBytes() const override;

 private:
  static const char* protocolOf(const net::Dissection& dis);

  /// A target's traffic over window_, and the window count behind the rate
  /// this module last put for it (0: none yet).
  struct DeviceCounter {
    SlidingTimes times;
    std::size_t publishedCount = 0;
  };

  Duration window_ = seconds(5);
  std::array<std::unique_ptr<SlidingCounter>, net::kNumPacketTypes> global_;
  /// Window count behind each global rate last put (0: none yet).
  std::array<std::size_t, net::kNumPacketTypes> globalPublished_{};
  // Per-device counters: one entity-keyed map per traffic type, created on
  // demand. Iterating type-major then label-ascending reproduces the old
  // std::map<std::pair<int, std::string>, ...> publication order exactly.
  std::array<EntityKeyedMap<DeviceCounter>, net::kNumPacketTypes> perDevice_;
  std::map<std::string, bool, std::less<>> protocolsSeen_;
  SimTime lastNow_ = 0;
};

}  // namespace kalis::ids
