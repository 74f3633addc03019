// Mobility Awareness sensing module (paper §V): "detects mobility when any
// node's signal strength changes more than a certain threshold".
//
// Per monitored entity it keeps a fast and a slow RSSI EWMA; a sustained gap
// between them is movement. Publishes:
//   Mobility                       = true/false  (collective)
//   SignalStrength@<entity>        = <dBm>       (collective; the paper's
//                                     example of knowledge worth sharing)
#pragma once

#include <map>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"
#include "util/stats.hpp"

namespace kalis::ids {

class MobilityAwarenessModule final : public SensingModule {
 public:
  std::string name() const override { return "MobilityAwarenessModule"; }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;
  void onTick(ModuleContext& ctx) override;

  std::size_t memoryBytes() const override;

 private:
  struct EntityState {
    Ewma fast{0.30};
    Ewma slow{0.03};
    std::size_t samples = 0;
    double lastPublished = 1e9;  ///< last SignalStrength value written
    SimTime lastEvidence = 0;    ///< last time this entity looked mobile
    bool sawEvidence = false;
  };

  double thresholdDb_ = 6.0;        ///< fast-vs-slow gap meaning "moved"
  std::size_t minSamples_ = 10;
  Duration holdTime_ = seconds(10); ///< Mobility stays true this long after
                                    ///< the last movement evidence
  /// Network mobility needs movement evidence from at least this many
  /// distinct entities: one identity with two RSSI fingerprints is a
  /// replication symptom, not a mobile network.
  std::size_t minMobileEntities_ = 2;
  EntityKeyedMap<EntityState> entities_;
  bool published_ = false;
  bool publishedValue_ = false;
};

}  // namespace kalis::ids
