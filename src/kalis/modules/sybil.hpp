// Sybil attack detection — one physical device fabricating many identities.
//
// Fig. 3 circles Sybil: the right technique depends on the topology.
//
// Single-hop (SybilSinglehopModule): every node is in direct range, so each
// legitimate identity has a distinct RSSI fingerprint at the IDS (position +
// per-link shadowing). Several identities sharing one tight RSSI fingerprint
// expose a single radio (RSSI-based Sybil detection, paper ref [42]).
//
// Multi-hop (SybilMultihopModule): distant legitimate nodes all arrive weak
// and clustered, so RSSI grouping false-positives; instead flag bursts of
// "ghost" identities that inject data but never participate in routing
// (no beacons, no forwarding, no parent adoption).
#pragma once

#include <map>
#include <set>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"
#include "util/stats.hpp"

namespace kalis::ids {

class SybilSinglehopModule final : public DetectionModule {
 public:
  std::string name() const override { return "SybilSinglehopModule"; }
  AttackType attack() const override { return AttackType::kSybil; }

  bool required(const KnowledgeBase& kb) const override {
    auto mh = kb.local<bool>(labels::kMultihopWpan);
    return mh.has_value() && !*mh;
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Multihop*"};
  }

  void configure(const std::map<std::string, std::string>& params) override;
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  struct IdentityState {
    Ewma rssi{0.3};
    std::size_t packets = 0;
    SimTime firstSeen = 0;
    SimTime lastSeen = 0;
  };

  double clusterEpsilonDb_ = 2.0;
  std::size_t minIdentities_ = 4;
  std::size_t minPackets_ = 3;
  Duration window_ = seconds(20);
  Duration cooldown_ = seconds(20);
  std::map<std::string, IdentityState> identities_;
};

class SybilMultihopModule final : public DetectionModule {
 public:
  std::string name() const override { return "SybilMultihopModule"; }
  AttackType attack() const override { return AttackType::kSybil; }

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

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  struct IdentityState {
    SimTime firstSeen = 0;
    SimTime lastSeen = 0;
    bool routedEver = false;  ///< beaconed, relayed, or was adopted as parent
    std::size_t dataPackets = 0;
  };

  std::size_t minGhosts_ = 4;
  Duration window_ = seconds(20);
  Duration cooldown_ = seconds(20);
  EntityKeyedMap<IdentityState> identities_;
};

}  // namespace kalis::ids
