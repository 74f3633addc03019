// Selective forwarding and blackhole detection modules (paper §IV-B4 names
// them as the canonical pair of attacks with similar symptoms but different
// severity: a blackhole drops everything, selective forwarding drops a
// fraction to stay stealthy).
//
// Both run the forwarding watchdog over overheard multi-hop traffic and
// classify relays by their windowed drop ratio:
//     selective forwarding:  lowThresh <= ratio < highThresh
//     blackhole:             ratio >= highThresh
//
// Blackhole additionally publishes the dropped packets' fingerprints as a
// collective knowgget (Wormhole.Drops@<entity>) — the evidence a peer Kalis
// node needs to upgrade the diagnosis to a wormhole (§VI-D).
#pragma once

#include <map>
#include <string>

#include "kalis/module.hpp"
#include "kalis/modules/forwarding_watchdog.hpp"

namespace kalis::ids {

class SelectiveForwardingModule final : public DetectionModule {
 public:
  std::string name() const override { return "SelectiveForwardingModule"; }
  AttackType attack() const override {
    return AttackType::kSelectiveForwarding;
  }

  bool required(const KnowledgeBase& kb) const override {
    // Impossible on single-hop networks (Fig. 3).
    return kb.local<bool>(labels::kMultihopWpan).value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Multihop*"};
  }

  void configure(const std::map<std::string, std::string>& params) override;
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 3; }
  std::size_t memoryBytes() const override {
    return sizeof(*this) - ForwardingWatchdog::sizeofExcess() +
           watchdog_.memoryBytes() + alertStateBytes();
  }

 private:
  double lowThresh_ = 0.15;
  double highThresh_ = 0.85;
  std::size_t minSamples_ = 5;
  Duration cooldown_ = seconds(15);
  ForwardingWatchdog watchdog_;
};

class BlackholeModule final : public DetectionModule {
 public:
  std::string name() const override { return "BlackholeModule"; }
  AttackType attack() const override { return AttackType::kBlackhole; }

  bool required(const KnowledgeBase& kb) const override {
    return kb.local<bool>(labels::kMultihopWpan).value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Multihop*"};
  }

  void configure(const std::map<std::string, std::string>& params) override;
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 3; }
  std::size_t memoryBytes() const override {
    return sizeof(*this) - ForwardingWatchdog::sizeofExcess() +
           watchdog_.memoryBytes() + alertStateBytes();
  }

 private:
  double highThresh_ = 0.85;
  std::size_t minSamples_ = 5;
  Duration cooldown_ = seconds(15);
  ForwardingWatchdog watchdog_;
};

}  // namespace kalis::ids
