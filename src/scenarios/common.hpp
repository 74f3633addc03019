// Shared scenario infrastructure: the three systems under test (Kalis, the
// traditional-IDS baseline, Snort), result records, and the resource model
// constants (DESIGN.md §1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/snort_engine.hpp"
#include "kalis/kalis_node.hpp"
#include "metrics/evaluation.hpp"
#include "sim/world.hpp"

namespace kalis::chaos {
struct FaultPlan;
}

namespace kalis::attacks::evasion {
struct EvasionPlan;
}

namespace kalis::scenarios {

enum class SystemKind : std::uint8_t { kKalis, kTraditionalIds, kSnort };

const char* systemName(SystemKind kind);

/// RAM model (calibrated against Table II; see EXPERIMENTS.md):
/// process baseline + fixed per-active-unit footprint + live state.
inline constexpr double kKalisRuntimeBaseMb = 9.5;   // JamVM-class runtime
inline constexpr double kPerActiveModuleMb = 0.55;   // loaded module footprint
inline constexpr double kSnortRuntimeBaseMb = 95.0;  // Snort process baseline
inline constexpr double kPerRuleKb = 64.0;           // compiled rule footprint

struct ScenarioResult {
  std::string scenario;
  SystemKind system = SystemKind::kKalis;
  metrics::EvaluationResult eval;
  metrics::CountermeasureResult counter;
  std::size_t totalAttackers = 0;
  double cpuPercent = 0.0;
  double ramMb = 0.0;
  std::uint64_t packetsSniffed = 0;
  Duration simulated = 0;
  std::size_t truthSize = 0;
  std::vector<ids::Alert> alerts;
  /// kalis::obs snapshot of the run (JSON; empty for Snort, whose engine is
  /// not obs-instrumented). Bench binaries write this as the CI artifact.
  std::string metricsJson;
  /// True when the scenario could not be run by this system at all
  /// (Snort on ZigBee-only traffic).
  bool notApplicable = false;

  double detectionRate() const {
    return notApplicable ? 0.0 : eval.detectionRate();
  }
  double accuracy() const {
    return notApplicable ? 0.0 : eval.classificationAccuracy();
  }
};

/// One system under test, wired into a World as a sniffer.
class IdsHarness {
 public:
  struct Options {
    SystemKind kind = SystemKind::kKalis;
    std::string id = "K1";
    /// Modules to EXCLUDE from the library (the traditional baseline's
    /// static random module choice in §VI-B2).
    std::vector<std::string> excludeModules;
    /// Extra static config text (Fig. 6 syntax), applied when non-empty.
    std::string configText;
  };

  IdsHarness(sim::Simulator& sim, Options options);

  void attach(sim::World& world, NodeId nodeId,
              std::initializer_list<net::Medium> media);
  void start();

  std::vector<ids::Alert> alerts() const;
  double cpuPercentOver(Duration simulated) const;
  double ramMb() const;
  std::uint64_t packetsSeen() const;

  ids::KalisNode* kalis() { return kalisNode_.get(); }
  baseline::SnortEngine* snort() { return snortEngine_.get(); }
  SystemKind kind() const { return options_.kind; }

 private:
  Options options_;
  std::unique_ptr<ids::KalisNode> kalisNode_;
  std::unique_ptr<baseline::SnortEngine> snortEngine_;
  std::uint64_t snortPacketsSeen_ = 0;
};

/// Fills the harness-derived fields of a result (resources, alerts, scoring).
ScenarioResult finishResult(std::string scenario, IdsHarness& harness,
                            const metrics::GroundTruth& truth,
                            Duration simulated);

/// The shared tail of every Fig. 8 run, once the environment and attacker
/// are in place: builds the system under test, attaches it at `idsNode` on
/// `media`, installs the optional fault and evasion plans, starts the world
/// and the system, runs for `simulated` and scores the run. A Snort run
/// that parsed no traffic is marked not-applicable.
ScenarioResult runOnWorld(std::string scenario, sim::World& world,
                          IdsHarness::Options options, NodeId idsNode,
                          std::initializer_list<net::Medium> media,
                          const metrics::GroundTruth& truth,
                          Duration simulated, const chaos::FaultPlan* faults,
                          const attacks::evasion::EvasionPlan* evasion);

}  // namespace kalis::scenarios
