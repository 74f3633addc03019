// The paper's experiments as callable scenarios. Each function builds the
// environment, injects the attack with ground truth, runs one system under
// test over the same deterministic traffic, and returns the scored result.
//
// Experiment map (see DESIGN.md §3):
//   runIcmpFlood            — §VI-B1 (single-hop WiFi; Kalis/Trad/Snort)
//   runReplication          — §VI-B2 (static<->mobile ZigBee; Snort N/A)
//   runSmurf, runSynFlood, runSelectiveForwarding, runBlackhole,
//   runSybil, runSinkhole   — the remaining Fig. 8 breadth scenarios
//   runWormhole             — §VI-D (two Kalis nodes, collective knowledge)
//   runReactivity           — §VI-C (cold-start dynamic module activation)
#pragma once

#include "metrics/ground_truth.hpp"
#include "scenarios/common.hpp"

namespace kalis::scenarios {

// Every Fig. 8 runner optionally takes a chaos::FaultPlan (DESIGN.md §9):
// when non-null, a chaos::LinkChaos injector is installed on the World for
// the whole run, so any scenario can be replayed under any fault plan. A
// null plan (the default) leaves the run byte-for-byte unchanged.
//
// Each runner also optionally takes an attacks::evasion::EvasionPlan
// (DESIGN.md §13): when non-null, an EvasionChaos injector wraps the fault
// seam and applies budgeted adversarial perturbations to the attacker's
// traffic only (the forwarding-family scenarios instead scale the malicious
// relay's drop probability). A null or zero-budget plan leaves the run
// byte-for-byte unchanged.
ScenarioResult runIcmpFlood(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
ScenarioResult runSmurf(SystemKind system, std::uint64_t seed,
                        const chaos::FaultPlan* faults = nullptr,
                        const attacks::evasion::EvasionPlan* evasion = nullptr);
ScenarioResult runSynFlood(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
ScenarioResult runSelectiveForwarding(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
ScenarioResult runBlackhole(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
ScenarioResult runSybil(SystemKind system, std::uint64_t seed,
                        const chaos::FaultPlan* faults = nullptr,
                        const attacks::evasion::EvasionPlan* evasion = nullptr);
ScenarioResult runSinkhole(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

/// §VI-B2. One run = one random static/mobile schedule with 3 replicas; the
/// traditional baseline is configured with one randomly chosen replication
/// module ("closely simulating a static module library configuration").
ScenarioResult runReplication(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

/// §VI-D. Runs only Kalis (two nodes); `collaborative` toggles collective
/// knowledge (the paper's mechanism) on and off (the ablation).
struct WormholeResult {
  ScenarioResult combined;      ///< alerts of both Kalis nodes merged
  bool wormholeClassified = false;
  bool blackholeOnly = false;   ///< what happens without collaboration
  std::size_t collectiveExchanged = 0;
};
WormholeResult runWormhole(std::uint64_t seed, bool collaborative,
                           const chaos::FaultPlan* faults = nullptr);

/// §VI-C. Kalis starts with no detection module active and no a-priori
/// knowledge; measures whether dynamic activation still catches everything.
struct ReactivityResult {
  std::size_t detectionModulesActiveAtStart = 0;
  bool selectiveForwardingActivated = false;
  SimTime activationTime = kSimTimeMax;
  SimTime firstAlertTime = kSimTimeMax;
  double detectionRate = 0.0;
  std::size_t truthSize = 0;
};
ReactivityResult runReactivity(std::uint64_t seed);

/// Live countermeasure experiment (§VI-B metric iii, measured in-network):
/// a diamond WSN (two parallel relays) with a blackholing relay; the IDS's
/// alerts drive automatic revocation, and network health is the legitimate
/// delivery ratio after the response settles. Kalis revokes only the
/// attacker (the tree heals through the honest relay); the traditional
/// baseline also revokes the base station and collapses the network.
struct LiveCountermeasureResult {
  double deliveryNoResponse = 0.0;  ///< attack unmitigated
  double deliveryKalis = 0.0;       ///< Kalis-driven revocation
  double deliveryTraditional = 0.0; ///< traditional-IDS-driven revocation
  std::vector<std::string> kalisRevoked;
  std::vector<std::string> tradRevoked;
};
LiveCountermeasureResult runLiveCountermeasure(std::uint64_t seed);

/// All eight Fig. 8 scenarios for one system (all under the same optional
/// fault and evasion plans).
std::vector<ScenarioResult> runAllScenarios(
    SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

/// Names of the eight Fig. 8 scenarios, in runAllScenarios order.
const std::vector<std::string>& scenarioNames();

/// Runs one Fig. 8 scenario by its scenarioNames() entry; nullopt for an
/// unknown name. The dispatch the evasion sweep and trace_replay use.
std::optional<ScenarioResult> runScenarioByName(
    const std::string& name, SystemKind system, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

}  // namespace kalis::scenarios
