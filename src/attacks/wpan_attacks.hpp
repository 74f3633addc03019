// 802.15.4-side attack injectors: replication (node clones), sybil identity
// fabrication, sinkhole route luring, and hello flood.
#pragma once

#include <vector>

#include "metrics/ground_truth.hpp"
#include "sim/world.hpp"

namespace kalis::attacks {

/// A replica device: transmits ZigBee report frames under a cloned link
/// identity (paper §VI-B2: "sending data packets from nodes that are
/// replicas of legitimate nodes"). The scenario must also call
/// World::setMac16(replicaNode, clonedId).
class ReplicaDevice final : public sim::Behavior {
 public:
  struct Config {
    net::Mac16 clonedId{};
    net::Mac16 reportTo{0x0000};      ///< the hub/coordinator
    SimTime startAt = seconds(10);
    Duration interval = seconds(3);
    std::size_t packetCount = 10;
    Duration phaseOffset = 0;         ///< shift vs the legitimate node
    metrics::GroundTruth* truth = nullptr;
    bool recordTruth = true;          ///< one instance at first transmission
  };

  explicit ReplicaDevice(Config config) : config_(config) {}
  void start(sim::NodeHandle& node) override;

 private:
  void transmit(sim::NodeHandle& node, std::size_t i);

  Config config_;
  std::uint8_t seq_ = 0x40;  ///< own counter, desynchronized from the original
};

/// Sybil attacker. Single-hop flavor: ZigBee reports under `identityCount`
/// fabricated link identities (all from one radio: one RSSI fingerprint).
/// Multi-hop flavor: CTP data frames with fabricated origins that never
/// participate in routing.
class SybilAttacker final : public sim::Behavior {
 public:
  enum class Flavor { kSinglehopZigbee, kMultihopCtp };

  struct Config {
    Flavor flavor = Flavor::kSinglehopZigbee;
    std::size_t identityCount = 6;
    std::uint16_t identityBase = 0x0900;  ///< fabricated ids 0x0900..
    net::Mac16 target{0x0000};
    SimTime startAt = seconds(10);
    Duration interval = milliseconds(700);
    std::size_t rounds = 12;  ///< each round cycles all identities
    metrics::GroundTruth* truth = nullptr;
  };

  explicit SybilAttacker(Config config) : config_(config) {}
  void start(sim::NodeHandle& node) override;

 private:
  void round(sim::NodeHandle& node);

  Config config_;
  std::uint8_t seq_ = 0;
};

/// Sinkhole attacker: advertises an irresistible route (CTP ETX 0) so
/// neighbors adopt it as parent.
class SinkholeAttacker final : public sim::Behavior {
 public:
  struct Config {
    SimTime startAt = seconds(10);
    Duration beaconInterval = seconds(2);
    std::size_t beaconCount = 20;
    std::uint16_t advertisedEtx = 0;
    std::uint16_t panId = 0x22;
    metrics::GroundTruth* truth = nullptr;
    std::size_t maxInstances = 50;
  };

  explicit SinkholeAttacker(Config config) : config_(config) {}
  void start(sim::NodeHandle& node) override;

 private:
  void beacon(sim::NodeHandle& node);

  Config config_;
  std::uint8_t seq_ = 0;
};

/// Hello flood: routing beacons far beyond the protocol's natural cadence.
class HelloFloodAttacker final : public sim::Behavior {
 public:
  struct Config {
    SimTime startAt = seconds(10);
    Duration spacing = milliseconds(100);  ///< 10 beacons/s
    Duration burstLength = seconds(4);
    std::size_t burstCount = 5;
    Duration burstInterval = seconds(12);
    std::uint16_t panId = 0x22;
    metrics::GroundTruth* truth = nullptr;
  };

  explicit HelloFloodAttacker(Config config) : config_(config) {}
  void start(sim::NodeHandle& node) override;

 private:
  void burst(sim::NodeHandle& node);

  Config config_;
  std::uint8_t seq_ = 0;
};

}  // namespace kalis::attacks
