// Attacks on the 6LoWPAN/RPL side: the multi-hop Smurf (ICMPv6 echo
// requests forged in the victim's name to its neighbors) and the RPL rank
// sinkhole.
#pragma once

#include <vector>

#include "metrics/ground_truth.hpp"
#include "net/ipv6.hpp"
#include "sim/world.hpp"

namespace kalis::attacks {

/// Smurf over 6LoWPAN: requires a multi-hop network (neighbors' replies are
/// routed to the victim), matching Fig. 2's right-hand side.
class SmurfAttacker6lw final : public sim::Behavior {
 public:
  struct Config {
    net::Mac16 victim{};
    std::vector<net::Mac16> neighbors;
    std::size_t requestsPerNeighbor = 6;
    Duration requestSpacing = milliseconds(30);
    SimTime firstBurstAt = seconds(12);
    Duration burstInterval = seconds(12);
    std::size_t burstCount = 5;
    std::uint16_t panId = 0x6c0a;
    metrics::GroundTruth* truth = nullptr;
  };

  explicit SmurfAttacker6lw(Config config) : config_(std::move(config)) {}
  void start(sim::NodeHandle& node) override;

 private:
  void burst(sim::NodeHandle& node);

  Config config_;
  std::uint8_t linkSeq_ = 0;
  std::uint16_t echoSeq_ = 0;
};

/// RPL sinkhole: a non-root node advertising the root's rank in DIOs.
class RplSinkholeAttacker final : public sim::Behavior {
 public:
  struct Config {
    std::uint16_t advertisedRank = 256;  ///< the root's rank
    net::Mac16 dodagRoot{0x0001};
    SimTime startAt = seconds(10);
    Duration dioInterval = seconds(2);
    std::size_t dioCount = 20;
    std::uint16_t panId = 0x6c0a;
    metrics::GroundTruth* truth = nullptr;
    std::size_t maxInstances = 50;
  };

  explicit RplSinkholeAttacker(Config config) : config_(config) {}
  void start(sim::NodeHandle& node) override;

 private:
  void dio(sim::NodeHandle& node);

  Config config_;
  std::uint8_t linkSeq_ = 0;
};

}  // namespace kalis::attacks
