// DoS-style attack injectors on the WiFi/IP side: ICMP flood, Smurf,
// SYN flood, deauth flood. Each is a sim::Behavior installed on an attacker
// node; every injected symptom burst is recorded in the GroundTruth so the
// evaluation can score detection (paper §VI-A: 50 symptom instances per
// scenario).
#pragma once

#include <string>
#include <vector>

#include "metrics/ground_truth.hpp"
#include "sim/ip_host.hpp"
#include "sim/world.hpp"

namespace kalis::attacks {

/// ICMP Flood (paper §III-A1): bursts of ICMP Echo *Replies* at the victim,
/// each under a different forged source identity.
class IcmpFloodAttacker final : public sim::Behavior {
 public:
  struct Config {
    net::Ipv4Addr victimIp{};
    net::Mac48 victimMac{};
    net::Mac48 bssid{};
    std::size_t repliesPerBurst = 60;
    Duration replySpacing = milliseconds(15);
    std::size_t spoofPool = 12;       ///< forged source identities
    SimTime firstBurstAt = seconds(10);
    Duration burstInterval = seconds(12);
    std::size_t burstCount = 5;
    metrics::GroundTruth* truth = nullptr;
  };

  explicit IcmpFloodAttacker(Config config) : config_(std::move(config)) {}
  void start(sim::NodeHandle& node) override;

 private:
  void burst(sim::NodeHandle& node);
  void sendReply(sim::NodeHandle& node, std::size_t i);

  Config config_;
  std::uint16_t ident_ = 1;
  std::uint16_t seqCtl_ = 0;
};

/// Smurf (paper §III-A1): Echo Requests to the victim's neighbors with the
/// victim's identity as source; the neighbors' replies converge on it.
class SmurfAttacker final : public sim::Behavior {
 public:
  struct Neighbor {
    net::Ipv4Addr ip{};
    net::Mac48 mac{};
  };
  struct Config {
    net::Ipv4Addr victimIp{};
    net::Mac48 bssid{};
    std::vector<Neighbor> neighbors;
    std::size_t requestsPerNeighbor = 8;
    Duration requestSpacing = milliseconds(20);
    SimTime firstBurstAt = seconds(10);
    Duration burstInterval = seconds(12);
    std::size_t burstCount = 5;
    metrics::GroundTruth* truth = nullptr;
  };

  explicit SmurfAttacker(Config config) : config_(std::move(config)) {}
  void start(sim::NodeHandle& node) override;

 private:
  void burst(sim::NodeHandle& node);

  Config config_;
  std::uint16_t ident_ = 1;
  std::uint16_t seqCtl_ = 0;
  std::uint16_t icmpSeq_ = 0;
};

/// SYN flood: half-open connection bursts from forged sources.
class SynFloodAttacker final : public sim::Behavior {
 public:
  struct Config {
    net::Ipv4Addr victimIp{};
    net::Mac48 victimMac{};
    net::Mac48 bssid{};
    std::uint16_t victimPort = 80;
    std::size_t synsPerBurst = 120;
    Duration synSpacing = milliseconds(8);
    std::size_t spoofPool = 24;
    SimTime firstBurstAt = seconds(10);
    Duration burstInterval = seconds(12);
    std::size_t burstCount = 5;
    metrics::GroundTruth* truth = nullptr;
  };

  explicit SynFloodAttacker(Config config) : config_(std::move(config)) {}
  void start(sim::NodeHandle& node) override;

 private:
  void burst(sim::NodeHandle& node);

  Config config_;
  std::uint16_t ident_ = 1;
  std::uint16_t seqCtl_ = 0;
};

/// 802.11 deauthentication flood against one station.
class DeauthAttacker final : public sim::Behavior {
 public:
  struct Config {
    net::Mac48 victimMac{};
    net::Mac48 apMac{};
    std::size_t framesPerBurst = 30;
    Duration frameSpacing = milliseconds(50);
    SimTime firstBurstAt = seconds(10);
    Duration burstInterval = seconds(12);
    std::size_t burstCount = 5;
    metrics::GroundTruth* truth = nullptr;
  };

  explicit DeauthAttacker(Config config) : config_(std::move(config)) {}
  void start(sim::NodeHandle& node) override;

 private:
  void burst(sim::NodeHandle& node);

  Config config_;
  std::uint16_t seqCtl_ = 0;
};

}  // namespace kalis::attacks
