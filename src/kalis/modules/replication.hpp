// Replication (node clone) attack detection — the paper's §VI-B2 scenario.
//
// "Many detection techniques exist for this attack; however each one is
// specific to a network with certain characteristics, e.g. mobility [25]."
// Accordingly there are two modules; the Knowledge Base's Mobility knowgget
// (from the Mobility Awareness sensing module, or static configuration)
// selects which one runs. Loading the wrong one misses attacks — exactly
// the failure mode the traditional-IDS baseline exhibits in the paper.
//
// Static networks (ReplicationStaticModule): each node's RSSI at the IDS is
// stationary, so one identity showing a *bimodal* RSSI distribution (two
// tight clusters far apart) reveals two physical transmitters. Mobile nodes
// smear the distribution and break this technique.
//
// Mobile networks (ReplicationMobileModule): positions change, so RSSI
// clustering is useless; instead, two transmissions under one identity
// almost simultaneously but with wildly different RSSI imply a physically
// impossible movement speed. Legitimate mobility is bounded (~1.5 m/s), so
// the implied path-loss change over a sub-second gap stays small.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"

namespace kalis::ids {

class ReplicationStaticModule final : public DetectionModule {
 public:
  std::string name() const override { return "ReplicationStaticModule"; }
  AttackType attack() const override { return AttackType::kReplication; }

  bool required(const KnowledgeBase& kb) const override {
    // Requires the network to be known static.
    auto mobility = kb.local<bool>(labels::kMobility);
    return mobility.has_value() && !*mobility;
  }
  std::vector<std::string> watchedLabels() const override {
    return {labels::kMobility};
  }

  void configure(const std::map<std::string, std::string>& params) override;
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  struct Sample {
    SimTime time;
    double rssi;
  };

  double clusterGapDb_ = 8.0;   ///< separation identifying two transmitters
  double clusterTightDb_ = 3.0; ///< max spread within each cluster
  std::size_t minPerCluster_ = 3;
  Duration window_ = seconds(20);
  Duration cooldown_ = seconds(15);
  EntityKeyedMap<std::deque<Sample>> samples_;  ///< by entity
};

class ReplicationMobileModule final : public DetectionModule {
 public:
  std::string name() const override { return "ReplicationMobileModule"; }
  AttackType attack() const override { return AttackType::kReplication; }

  bool required(const KnowledgeBase& kb) const override {
    return kb.local<bool>(labels::kMobility).value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {labels::kMobility};
  }

  void configure(const std::map<std::string, std::string>& params) override;
  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::uint32_t workUnitsPerPacket() const override { return 2; }
  std::size_t memoryBytes() const override;

 private:
  struct LastSeen {
    SimTime time = 0;
    double rssi = 0.0;
    bool valid = false;
  };

  Duration maxGap_ = milliseconds(1000);  ///< "simultaneous" capture window
  double impossibleDeltaDb_ = 14.0;       ///< RSSI jump no bounded speed allows
  std::size_t minEvents_ = 2;
  Duration window_ = seconds(20);
  Duration cooldown_ = seconds(15);
  std::map<std::string, LastSeen> lastSeen_;
  std::map<std::string, std::deque<SimTime>> events_;  ///< impossible moves
};

}  // namespace kalis::ids
