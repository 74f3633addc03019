#include "scenarios/common.hpp"

#include <set>

#include "attacks/evasion.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/config.hpp"
#include "metrics/metrics_export.hpp"

namespace kalis::scenarios {

const char* systemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kKalis: return "Kalis";
    case SystemKind::kTraditionalIds: return "Trad. IDS";
    case SystemKind::kSnort: return "Snort";
  }
  return "?";
}

IdsHarness::IdsHarness(sim::Simulator& sim, Options options)
    : options_(std::move(options)) {
  if (options_.kind == SystemKind::kSnort) {
    snortEngine_ = std::make_unique<baseline::SnortEngine>();
    snortEngine_->loadRules(baseline::communityRuleset());
    return;
  }
  ids::KalisNode::Options nodeOptions;
  nodeOptions.id = options_.id;
  kalisNode_ = std::make_unique<ids::KalisNode>(sim, nodeOptions);
  const std::set<std::string> excluded(options_.excludeModules.begin(),
                                       options_.excludeModules.end());
  for (const std::string& name : ids::ModuleRegistry::global().names()) {
    if (!excluded.contains(name)) kalisNode_->addModuleByName(name);
  }
  if (!options_.configText.empty()) {
    const auto parsed = ids::parseConfig(options_.configText);
    if (parsed.ok) kalisNode_->applyConfig(parsed.config);
  }
  if (options_.kind == SystemKind::kTraditionalIds) {
    kalisNode_->emulateTraditionalIds();
  }
}

void IdsHarness::attach(sim::World& world, NodeId nodeId,
                        std::initializer_list<net::Medium> media) {
  if (kalisNode_) {
    kalisNode_->attach(world, nodeId, media);
    return;
  }
  for (net::Medium medium : media) {
    world.enableRadio(nodeId, medium);
    world.addSniffer(nodeId, medium,
                     [this](const net::CapturedPacket& pkt,
                            const net::Dissection& dis) {
                       ++snortPacketsSeen_;
                       snortEngine_->onPacket(pkt, dis);
                     });
  }
}

void IdsHarness::start() {
  if (kalisNode_) kalisNode_->start();
}

std::vector<ids::Alert> IdsHarness::alerts() const {
  if (kalisNode_) return kalisNode_->alerts();
  return snortEngine_->alerts();
}

double IdsHarness::cpuPercentOver(Duration simulated) const {
  const std::uint64_t workUnits = kalisNode_
                                      ? kalisNode_->modules().totalWorkUnits()
                                      : snortEngine_->workUnits();
  return metrics::cpuPercent(workUnits, simulated);
}

double IdsHarness::ramMb() const {
  if (kalisNode_) {
    const double stateMb =
        static_cast<double>(kalisNode_->memoryBytes()) / (1024.0 * 1024.0);
    return kKalisRuntimeBaseMb +
           kPerActiveModuleMb *
               static_cast<double>(kalisNode_->modules().activeCount()) +
           stateMb;
  }
  const double stateMb =
      static_cast<double>(snortEngine_->memoryBytes()) / (1024.0 * 1024.0);
  return kSnortRuntimeBaseMb +
         kPerRuleKb * static_cast<double>(snortEngine_->ruleCount()) / 1024.0 +
         stateMb;
}

std::uint64_t IdsHarness::packetsSeen() const {
  if (kalisNode_) return kalisNode_->modules().packetsProcessed();
  return snortPacketsSeen_;
}

ScenarioResult finishResult(std::string scenario, IdsHarness& harness,
                            const metrics::GroundTruth& truth,
                            Duration simulated) {
  ScenarioResult result;
  result.scenario = std::move(scenario);
  result.system = harness.kind();
  result.alerts = harness.alerts();
  result.eval = metrics::evaluate(truth, result.alerts);
  result.counter = metrics::assessCountermeasures(truth, result.alerts);
  std::set<std::string> attackers;
  for (const auto& instance : truth.instances()) {
    if (!instance.suspectEntity.empty()) attackers.insert(instance.suspectEntity);
  }
  result.totalAttackers = attackers.size();
  result.cpuPercent = harness.cpuPercentOver(simulated);
  result.ramMb = harness.ramMb();
  result.packetsSniffed = harness.packetsSeen();
  result.simulated = simulated;
  result.truthSize = truth.size();
  if (ids::KalisNode* node = harness.kalis()) {
    result.metricsJson =
        metrics::collectMetrics(*node, node->sim(), result.scenario).toJson();
  }
  return result;
}

ScenarioResult runOnWorld(std::string scenario, sim::World& world,
                          IdsHarness::Options options, NodeId idsNode,
                          std::initializer_list<net::Medium> media,
                          const metrics::GroundTruth& truth,
                          Duration simulated, const chaos::FaultPlan* faults,
                          const attacks::evasion::EvasionPlan* evasion) {
  IdsHarness harness(world.sim(), std::move(options));
  harness.attach(world, idsNode, media);
  const auto chaosGuard = chaos::installFaultPlan(world, faults);
  const auto evasionGuard = attacks::evasion::installEvasionPlan(world, evasion);
  world.start();
  harness.start();
  world.sim().runUntil(simulated);

  ScenarioResult result =
      finishResult(std::move(scenario), harness, truth, simulated);
  if (harness.kind() == SystemKind::kSnort &&
      harness.snort()->packetsProcessed() == 0) {
    result.notApplicable = true;
  }
  return result;
}

}  // namespace kalis::scenarios
