#include "scenarios/chaos_workload.hpp"

#include <memory>
#include <utility>

#include "attacks/dos_attacks.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "pipeline/kalis_engine.hpp"
#include "scenarios/environments.hpp"
#include "trace/trace_file.hpp"

namespace kalis::scenarios {

trace::Trace captureTrace(std::uint64_t seed, bool withAttack,
                          metrics::GroundTruth* truth,
                          const chaos::FaultPlan* plan,
                          chaos::LinkChaos::Stats* faultTally) {
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  HomeWifi home = buildHomeWifi(world, cloud, seed);

  if (withAttack) {
    const NodeId attacker =
        world.addNode("attacker", sim::NodeRole::kGeneric, {18, 16});
    world.enableRadio(attacker, net::Medium::kWifi);
    attacks::IcmpFloodAttacker::Config attack;
    attack.victimIp = world.ipv4Of(home.thermostat);
    attack.victimMac = world.mac48Of(home.thermostat);
    attack.bssid = world.mac48Of(home.router);
    attack.firstBurstAt = seconds(20);
    attack.burstCount = 4;
    attack.truth = truth;
    world.setBehavior(attacker,
                      std::make_unique<attacks::IcmpFloodAttacker>(attack));
  }

  trace::Trace captured;
  world.addSniffer(home.ids, net::Medium::kWifi,
                   [&](const net::CapturedPacket& pkt,
                       const net::Dissection& /*dis*/) {
                     captured.push_back(pkt);
                   });
  const auto chaosGuard = chaos::installFaultPlan(world, plan);
  world.start();
  simulator.runUntil(seconds(70));
  if (chaosGuard && faultTally) {
    const chaos::LinkChaos::Stats& s = chaosGuard->stats();
    faultTally->rxDropped += s.rxDropped;
    faultTally->corrupted += s.corrupted;
    faultTally->duplicated += s.duplicated;
    faultTally->delayed += s.delayed;
    faultTally->crashes += s.crashes;
  }
  return captured;
}

chaos::RunOutput runTraceReplayWorkload(std::uint64_t seed,
                                        const chaos::FaultPlan* plan,
                                        std::size_t workers) {
  chaos::RunOutput out;
  out.label = (plan ? "faulted" : "clean");
  out.label += workers == 0 ? "/deterministic"
                            : "/" + std::to_string(workers) + " workers";

  chaos::LinkChaos::Stats faultTally;
  const trace::Trace benign =
      captureTrace(seed, false, nullptr, plan, &faultTally);
  metrics::GroundTruth truth;
  const trace::Trace withAttack =
      captureTrace(seed + 1, true, &truth, plan, &faultTally);
  const trace::Trace merged = trace::mergeTraces(benign, withAttack);

  // KTRC round trip, as the Data Store's log/replay path would do it.
  const Bytes fileBytes = trace::serializeTrace(merged);
  const auto reloaded = trace::readTrace(BytesView(fileBytes));

  pipeline::Options popts;
  popts.deterministic = workers == 0;
  popts.workers = workers == 0 ? 1 : workers;
  popts.policy = pipeline::Backpressure::kBlock;
  if (plan) popts.faults = plan->ingestFaults();
  pipeline::KalisEngineOptions eopts;
  eopts.seedBase = 99;
  eopts.drainUntil = seconds(80);
  eopts.configure = [](ids::KalisNode& node) { node.useStandardLibrary(); };
  pipeline::Pipeline pipe(popts, pipeline::makeKalisEngineFactory(eopts));
  pipe.start();
  for (const net::CapturedPacket& pkt : reloaded.packets) pipe.enqueue(pkt);
  pipe.stop();

  out.packetsFed = reloaded.packets.size();
  out.alerts = pipe.alerts();
  out.siemLines.reserve(out.alerts.size());
  for (const ids::Alert& alert : out.alerts) {
    out.siemLines.push_back(ids::toSiemJson(alert));
  }
  out.pipelineStats = pipe.stats();
  out.linkRxDropped = faultTally.rxDropped;
  out.linkCorrupted = faultTally.corrupted;
  out.linkDuplicated = faultTally.duplicated;
  out.linkDelayed = faultTally.delayed;
  out.crashes = faultTally.crashes;
  return out;
}

chaos::DiffRunner::Workload traceReplayWorkload(std::uint64_t seed) {
  return [seed](const chaos::FaultPlan* plan, std::size_t workers) {
    return runTraceReplayWorkload(seed, plan, workers);
  };
}

}  // namespace kalis::scenarios
