// Record-and-replay, the paper's evaluation methodology (§VI-A): record a
// benign trace from the live network via the Data Store's disk log, record
// an attack separately, splice them together, and replay the merged trace
// through a fresh Kalis instance "as if operating on live traffic".
//
// With --pipeline the replay is pushed through the kalis::pipeline
// ingestion engine instead of a directly-fed node: packets are hash-routed
// by link-layer source to N worker shards, each running a private Kalis
// stack, and alerts come out of the timestamp-ordered merge stage.
// --workers 0 selects deterministic (single-shard, caller-thread) mode,
// which reproduces the direct path byte-for-byte.
//
// --kb-sync MS additionally turns on the cross-shard collective knowledge
// exchange (DESIGN.md §8) with the given sync interval in virtual
// milliseconds, so shard engines share collective knowggets just as peered
// Kalis nodes do over one-way channels.
//
// --chaos PLAN runs the whole exercise under a kalis::chaos fault plan
// (DESIGN.md §9): the capture worlds get link-level faults (burst loss,
// duplication, reordering, corruption, crashes) and the pipeline workers get
// ingestion stalls. PLAN is "key=value,..." or a preset (light/heavy), e.g.
// --chaos "light" or --chaos "loss=0.05,burst=3,stall-batches=8,stall-us=500".
//
// --chaos-diff PLAN instead runs chaos::DiffRunner differential
// verification: baseline vs faulted vs multi-worker, classifies every SIEM
// divergence (accounted loss / reordering-tolerant / regression), writes
// chaos_divergence.json, and exits nonzero on any regression.
//
// --fleet N switches to fleet-replay mode (DESIGN.md §11): instead of one
// replayed trace, N statistical home simulations run over the kalis::fleet
// worker pool with hierarchical collective knowledge, and the run prints a
// cross-home detection-propagation latency summary — how long a signature
// learned in one home takes to reach every other region. --regions R and
// --seed S shape the fleet (the positional seed is shared with the replay
// modes).
//
// --pcap FILE replays a recorded pcap capture (written by a real sniffer or
// by --dump-pcap) instead of simulating: the frames flow through the exact
// same KalisNode / Pipeline engines via the unified PacketSource seam, so a
// dumped trace replays byte-identically to the in-memory run that produced
// it. --dump-pcap FILE writes the replayed trace as a mixed-medium pcap
// (DLT_USER0 + Kalis pseudo-header, lossless RxMeta).
//
// Run `trace_replay --help` for the full flag reference.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "chaos/diff_runner.hpp"
#include "fleet/fleet.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/kalis_node.hpp"
#include "metrics/evaluation.hpp"
#include "metrics/metrics_export.hpp"
#include "net/packet_source.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "scenarios/chaos_workload.hpp"
#include "scenarios/evasion_sweep.hpp"
#include "util/strings.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_file.hpp"

using namespace kalis;

namespace {

constexpr const char* kUsage =
    R"(usage: trace_replay [seed] [options]

Record-and-replay driver (paper §VI-A). By default records a benign run and
an attack run in the simulator, splices them by timestamp, round-trips the
merged trace through the KTRC on-disk format, and replays it through a
fresh Kalis instance "as if operating on live traffic".

  [seed]             positional RNG seed for the recorded runs (default 21)
  --seed S           same as the positional seed
  --pipeline         replay through the kalis::pipeline ingestion engine
  --workers N        pipeline worker shards; 0 = deterministic single-shard
                     caller-thread mode (default 4)
  --kb-sync MS       enable the cross-shard collective knowledge exchange
                     with a sync interval of MS virtual milliseconds
  --chaos PLAN       record+replay under a kalis::chaos fault plan; PLAN is
                     "light", "heavy" or "key=value,..."
  --chaos-diff PLAN  differential verification instead: baseline vs faulted
                     vs multi-worker, nonzero exit on unexplained divergence
  --fleet N          fleet-replay mode: N statistical homes over the worker
                     pool with hierarchical collective knowledge
  --regions R        fleet regions (default 16)
  --pcap FILE        replay a recorded pcap capture instead of simulating
                     (file DLT 195 / 105 / 251 or Kalis mixed 147); honors
                     --pipeline and --workers
  --dump-pcap FILE   after recording, dump the replayed trace as a
                     mixed-medium pcap for later --pcap replay
  --evasion SPEC     adversarial-evasion sweep (DESIGN.md §13): replay the
                     Fig. 8 scenarios across a budget grid under the evasion
                     plan SPEC ("full", "timing", "dilute", "split", "mimic",
                     "none" or "key=value,..."), print the detection-rate
                     table, write EVASION_curves.json, and diff the evaded
                     alert stream through the DiffRunner evasion lane;
                     --seed selects the scenario seed (default 100 here)
  --scenario NAME    restrict the evasion sweep to one Fig. 8 scenario
  --budgets CSV      evasion budget grid (default 0,0.25,0.5,0.75,1)
  --help             show this text
)";

/// Parsed command line; one field per flag, defaults = historical behavior.
struct ReplayOptions {
  std::uint64_t seed = 21;
  bool usePipeline = false;
  std::size_t workers = 4;
  std::size_t fleetHomes = 0;
  std::size_t fleetRegions = 16;
  bool kbSync = false;
  std::uint64_t kbSyncMs = 10;
  std::optional<chaos::FaultPlan> chaosPlan;
  bool chaosDiff = false;
  std::optional<attacks::evasion::EvasionPlan> evasionPlan;
  std::string evasionScenario;            ///< --scenario: empty = all eight
  std::vector<double> evasionBudgets;     ///< --budgets: empty = default grid
  bool seedGiven = false;
  std::string pcapIn;   ///< --pcap FILE: replay this capture
  std::string pcapOut;  ///< --dump-pcap FILE: write the replayed trace
  bool help = false;
};

/// Parses argv into ReplayOptions. Returns nullopt (after printing a
/// diagnostic) on an unknown flag, a missing value or a bad fault plan.
std::optional<ReplayOptions> parseReplayOptions(int argc, char** argv) {
  ReplayOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Flags taking a value consume argv[i+1]; nullptr = value missing.
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto missing = [&]() -> std::optional<ReplayOptions> {
      std::fprintf(stderr, "trace_replay: missing value for %s\n%s",
                   argv[i], kUsage);
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--pipeline") {
      opt.usePipeline = true;
    } else if (arg == "--workers") {
      const char* v = value();
      if (!v) return missing();
      opt.workers = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--kb-sync") {
      const char* v = value();
      if (!v) return missing();
      opt.kbSync = true;
      opt.kbSyncMs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--fleet") {
      const char* v = value();
      if (!v) return missing();
      opt.fleetHomes = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--regions") {
      const char* v = value();
      if (!v) return missing();
      opt.fleetRegions =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return missing();
      opt.seed = std::strtoull(v, nullptr, 10);
      opt.seedGiven = true;
    } else if (arg == "--evasion") {
      const char* v = value();
      if (!v) return missing();
      std::string error;
      opt.evasionPlan = attacks::evasion::EvasionPlan::parse(v, &error);
      if (!opt.evasionPlan) {
        std::fprintf(stderr, "bad evasion plan: %s\n", error.c_str());
        return std::nullopt;
      }
    } else if (arg == "--scenario") {
      const char* v = value();
      if (!v) return missing();
      opt.evasionScenario = v;
    } else if (arg == "--budgets") {
      const char* v = value();
      if (!v) return missing();
      for (const std::string& part : split(v, ',')) {
        const std::optional<double> budget = parseDouble(trim(part));
        if (!budget || *budget < 0.0 || *budget > 1.0) {
          std::fprintf(stderr, "trace_replay: bad budget '%s' in --budgets\n",
                       part.c_str());
          return std::nullopt;
        }
        opt.evasionBudgets.push_back(*budget);
      }
    } else if (arg == "--pcap") {
      const char* v = value();
      if (!v) return missing();
      opt.pcapIn = v;
    } else if (arg == "--dump-pcap") {
      const char* v = value();
      if (!v) return missing();
      opt.pcapOut = v;
    } else if (arg == "--chaos" || arg == "--chaos-diff") {
      opt.chaosDiff = arg == "--chaos-diff";
      const char* v = value();
      if (!v) return missing();
      std::string error;
      opt.chaosPlan = chaos::FaultPlan::parse(v, &error);
      if (!opt.chaosPlan) {
        std::fprintf(stderr, "bad fault plan: %s\n", error.c_str());
        return std::nullopt;
      }
    } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::fprintf(stderr, "trace_replay: unknown flag %s\n%s", argv[i],
                   kUsage);
      return std::nullopt;
    } else {
      opt.seed = std::strtoull(argv[i], nullptr, 10);
      opt.seedGiven = true;
    }
  }
  return opt;
}

/// --chaos-diff: differential verification over the packaged trace_replay
/// workload; writes the divergence report for the CI artifact.
int runChaosDiff(std::uint64_t seed, const chaos::FaultPlan& plan,
                 std::size_t workers) {
  std::printf("Differential verification under plan [%s], %zu workers\n",
              plan.describe().c_str(), workers);
  chaos::DiffRunner runner(scenarios::traceReplayWorkload(seed));
  const chaos::DiffRunner::Report report = runner.run(plan, workers);

  const auto printDiff = [](const char* name, const chaos::DiffResult& d) {
    std::printf(
        "%s: %zu vs %zu alerts — %s (%zu accounted-loss, %zu "
        "reordering-tolerant, %zu evasion, %zu regressions)\n",
        name, d.baselineAlerts, d.subjectAlerts,
        d.identical ? "identical" : "diverged",
        d.count(chaos::DivergenceKind::kAccountedLoss),
        d.count(chaos::DivergenceKind::kReorderingTolerant),
        d.count(chaos::DivergenceKind::kEvasion),
        d.count(chaos::DivergenceKind::kRegression));
  };
  printDiff("faulted vs baseline      ", report.faultedVsBaseline);
  printDiff("workers vs deterministic ", report.workersVsDeterministic);

  const char* path = "chaos_divergence.json";
  std::ofstream out(path, std::ios::trunc);
  out << report.toJson();
  std::printf("Divergence report written to %s\n", out ? path : "<failed>");
  if (report.hasRegression()) {
    std::printf("REGRESSION: divergences not explained by injected faults\n");
    return 1;
  }
  return 0;
}

/// --evasion: detection-rate-vs-budget sweep over the Fig. 8 scenarios for
/// all three systems, plus the DiffRunner evasion lane on the Kalis stream
/// at the maximum budget. Writes EVASION_curves.json; exits nonzero when a
/// zero-budget run is not byte-identical to the unperturbed scenario, when
/// any perturbed frame violates serialize(dissect(x)) == x, or when the
/// evasion diff surfaces an unexplained regression.
int runEvasionSweep(const ReplayOptions& opt) {
  namespace ev = attacks::evasion;
  ev::SweepOptions sweep;
  sweep.plan = *opt.evasionPlan;
  // The default replay seed (21) is the trace seed; the sweep aligns with
  // the bench_fig8 scenario seeds instead unless one was given explicitly.
  sweep.scenarioSeed = opt.seedGiven ? opt.seed : 100;
  if (!opt.evasionScenario.empty()) {
    bool known = false;
    for (const std::string& name : scenarios::scenarioNames()) {
      known = known || name == opt.evasionScenario;
    }
    if (!known) {
      std::fprintf(stderr, "trace_replay: unknown scenario '%s'\n",
                   opt.evasionScenario.c_str());
      return 2;
    }
    sweep.scenarios = {opt.evasionScenario};
  }
  if (!opt.evasionBudgets.empty()) sweep.budgets = opt.evasionBudgets;

  std::printf("Evasion sweep: plan [%s], scenario seed %llu, %zu budgets\n",
              sweep.plan.describe().c_str(),
              static_cast<unsigned long long>(sweep.scenarioSeed),
              sweep.budgets.size());
  const ev::SweepResult result = ev::runSweep(sweep);
  std::printf("\n%s\n", result.toTable().c_str());

  const char* path = "EVASION_curves.json";
  std::ofstream out(path, std::ios::trunc);
  out << result.toJson() << "\n";
  std::printf("Evasion curves written to %s\n", out ? path : "<failed>");

  // DiffRunner evasion lane on the Kalis alert stream at the max budget.
  ev::EvasionPlan maxPlan = sweep.plan;
  for (double b : sweep.budgets) maxPlan.budget = std::max(maxPlan.budget, b);
  bool diffRegression = false;
  const std::vector<std::string>& diffScenarios =
      sweep.scenarios.empty() ? scenarios::scenarioNames() : sweep.scenarios;
  std::printf("\nDiffRunner evasion lane (kalis, budget %s):\n",
              formatDouble(maxPlan.budget).c_str());
  for (const std::string& scenario : diffScenarios) {
    const chaos::DiffResult d = ev::evasionDiff(
        scenario, scenarios::SystemKind::kKalis, sweep.scenarioSeed, maxPlan);
    std::printf(
        "  %-22s %zu vs %zu alerts — %s (%zu evasion, %zu reordering-"
        "tolerant, %zu regressions)\n",
        scenario.c_str(), d.baselineAlerts, d.subjectAlerts,
        d.identical ? "identical" : "diverged",
        d.count(chaos::DivergenceKind::kEvasion),
        d.count(chaos::DivergenceKind::kReorderingTolerant),
        d.count(chaos::DivergenceKind::kRegression));
    diffRegression = diffRegression || d.hasRegression();
  }
  if (diffRegression) {
    std::printf("note: evasion-lane regressions above mean the perturbation "
                "changed alert semantics (reported, not gated)\n");
  }

  if (!result.allZeroBudgetIdentical) {
    std::printf("FAIL: a zero-budget run diverged from the unperturbed "
                "scenario\n");
    return 1;
  }
  if (result.roundtripViolations > 0) {
    std::printf("FAIL: %llu perturbed frames violated "
                "serialize(dissect(x)) == x\n",
                static_cast<unsigned long long>(result.roundtripViolations));
    return 1;
  }
  return 0;
}

/// --fleet: N simulated homes over the bounded worker pool, with the
/// home→region→global knowledge hierarchy; prints the propagation-latency
/// summary of the fleet-learned signature.
int runFleetReplay(std::size_t homes, std::size_t regions, std::size_t workers,
                   std::uint64_t seed) {
  fleet::Fleet::Options opts;
  opts.homes = homes;
  opts.regions = regions;
  opts.workers = workers == 0 ? 1 : workers;
  opts.seed = seed;
  fleet::Fleet f(opts);
  std::printf("Fleet replay: %zu homes in %zu regions over %zu workers "
              "(seed %llu)\n",
              f.options().homes, f.options().regions, f.options().workers,
              static_cast<unsigned long long>(seed));
  f.run();

  const fleet::Fleet::Stats stats = f.stats();
  const auto& prop = stats.propagation;
  std::printf("Processed %llu packet events, %llu alerts, %llu attack "
              "packets missed pre-propagation\n",
              static_cast<unsigned long long>(stats.packetsProcessed),
              static_cast<unsigned long long>(stats.alertsRaised),
              static_cast<unsigned long long>(stats.attackPacketsMissed));
  if (!prop.activated) {
    std::printf("Signature never activated (fleet too small or too few "
                "rounds for the origin to accumulate evidence)\n");
    return 1;
  }
  std::printf("\nCross-home detection propagation\n");
  std::printf("  origin home            H%u (region %zu), activated round %u\n",
              prop.originHome, f.regionOfHome(prop.originHome),
              prop.activationRound);
  std::printf("  homes reached          %zu / %zu\n", prop.homesObserved,
              prop.homesTotal);
  std::printf("  propagation latency    mean %.2f rounds, max %u rounds "
              "(%llu virtual us)\n",
              prop.meanLagRounds, prop.maxLagRounds,
              static_cast<unsigned long long>(prop.maxLagVirtual));
  std::printf("  staleness bound        %u rounds (%llu virtual us) — %s\n",
              f.stalenessBoundRounds(),
              static_cast<unsigned long long>(f.stalenessBoundVirtual()),
              prop.maxLagRounds <= f.stalenessBoundRounds() ? "held"
                                                            : "VIOLATED");
  std::printf("  knowledge memory       %.0f bytes/home (CoW overlays + "
              "shared baselines)\n",
              static_cast<double>(stats.homeHeapBytes + stats.baselineBytes) /
                  f.options().homes);
  const bool converged = prop.homesObserved == prop.homesTotal &&
                         prop.maxLagRounds <= f.stalenessBoundRounds();
  return converged ? 0 : 1;
}

/// Replay through the kalis::pipeline ingestion engine: the source drains
/// into worker shards via the unified seam, alerts emerge from the ordered
/// merge stage. `truth` is null for --pcap replays (no ground truth on a
/// recorded capture), which also disables the detection-rate exit gate.
int replayPipeline(net::PacketSource& source, const ReplayOptions& opt,
                   const chaos::FaultPlan* plan,
                   const metrics::GroundTruth* truth) {
  pipeline::Options popts;
  popts.deterministic = opt.workers == 0;
  popts.workers = opt.workers == 0 ? 1 : opt.workers;
  popts.policy = pipeline::Backpressure::kBlock;
  popts.knowledgeExchange = opt.kbSync;
  popts.knowledgeSyncInterval = milliseconds(opt.kbSyncMs);
  if (plan) popts.faults = plan->ingestFaults();
  pipeline::KalisEngineOptions eopts;
  eopts.seedBase = 99;
  eopts.drainUntil = seconds(80);
  eopts.configure = [](ids::KalisNode& node) { node.useStandardLibrary(); };
  pipeline::Pipeline pipe(popts, pipeline::makeKalisEngineFactory(eopts));
  pipe.setAlertSink([](const ids::Alert& alert) {
    std::printf("REPLAY ALERT  %s\n", ids::toString(alert).c_str());
  });
  std::printf("Replaying through kalis::pipeline (%s, %zu shard%s%s)\n",
              popts.deterministic ? "deterministic" : "threaded",
              pipe.shardCount(), pipe.shardCount() == 1 ? "" : "s",
              opt.kbSync ? ", knowledge exchange on" : "");
  pipe.start();
  // Unified ingestion seam: enqueueFrom drains the source through the
  // batched producer path in 1024-packet chunks (deterministic mode
  // processes inline, bit-identical to per-packet enqueue).
  pipe.enqueueFrom(source);
  pipe.stop();

  double rate = 0.0;
  if (truth) {
    const auto eval = metrics::evaluate(*truth, pipe.alerts());
    rate = eval.detectionRate();
    std::printf("\nOffline detection rate over the replayed trace: %.0f%%\n",
                rate * 100.0);
  }
  const pipeline::Pipeline::Stats stats = pipe.stats();
  std::printf("Pipeline: %llu enqueued, %llu processed, %llu dropped\n",
              static_cast<unsigned long long>(stats.enqueued),
              static_cast<unsigned long long>(stats.processed),
              static_cast<unsigned long long>(stats.dropped()));
  if (opt.kbSync) {
    std::printf("Knowledge exchange: %llu published, %llu applied, "
                "%llu rejected, %llu dropped in flight\n",
                static_cast<unsigned long long>(stats.knowledgePublished),
                static_cast<unsigned long long>(stats.knowledgeApplied),
                static_cast<unsigned long long>(stats.knowledgeRejected),
                static_cast<unsigned long long>(stats.knowledgeDroppedInFlight));
  }

  obs::Registry reg;
  pipe.collectMetrics(reg, "pipeline");
  const std::string metricsPath =
      metrics::metricsOutputPath("trace_replay.metrics.json");
  std::ofstream outFile(metricsPath, std::ios::trunc);
  outFile << reg.toJson();
  std::printf("Replay metrics written to %s\n",
              outFile ? metricsPath.c_str() : "<failed>");
  if (!truth) return 0;
  // Under an active fault plan detection may legitimately degrade; the
  // run reports, it does not gate.
  return plan ? 0 : (rate > 0.99 ? 0 : 1);
}

/// Replay through a directly-fed Kalis node: a *fresh* node on a fresh
/// virtual clock consumes the source packet by packet — the same replayFeed
/// step the pipeline shard engines use, so alerts match the pipeline's
/// deterministic mode byte for byte. `truth` as in replayPipeline.
int replayDirect(net::PacketSource& source, const chaos::FaultPlan* plan,
                 const metrics::GroundTruth* truth) {
  sim::Simulator replaySim(99);
  ids::KalisNode kalisBox(replaySim);
  kalisBox.useStandardLibrary();
  kalisBox.setAlertSink([](const ids::Alert& alert) {
    std::printf("REPLAY ALERT  %s\n", ids::toString(alert).c_str());
  });
  kalisBox.start();
  kalisBox.consume(source);
  replaySim.runUntil(seconds(80));

  double rate = 0.0;
  if (truth) {
    const auto eval = metrics::evaluate(*truth, kalisBox.alerts());
    rate = eval.detectionRate();
    std::printf("\nOffline detection rate over the replayed trace: %.0f%%\n",
                rate * 100.0);
  }

  // Dump the kalis::obs snapshot of the replay run ($KALIS_METRICS_OUT
  // overrides the path) — the same artifact the bench binaries emit.
  const std::string metricsPath = metrics::exportMetricsJson(
      kalisBox, replaySim, "trace_replay", "trace_replay.metrics.json");
  std::printf("Replay metrics written to %s\n",
              metricsPath.empty() ? "<failed>" : metricsPath.c_str());
  if (!truth) return 0;
  return plan ? 0 : (rate > 0.99 ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<ReplayOptions> parsed = parseReplayOptions(argc, argv);
  if (!parsed) return 2;
  const ReplayOptions& opt = *parsed;
  if (opt.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  if (opt.evasionPlan) return runEvasionSweep(opt);
  if (opt.fleetHomes > 0) {
    return runFleetReplay(opt.fleetHomes, opt.fleetRegions, opt.workers,
                          opt.seed);
  }
  if (opt.chaosDiff) return runChaosDiff(opt.seed, *opt.chaosPlan, opt.workers);

  const chaos::FaultPlan* plan = opt.chaosPlan ? &*opt.chaosPlan : nullptr;

  // --pcap: skip the simulator entirely and replay a recorded capture file
  // through the very same engines. A file written by --dump-pcap preserves
  // RxMeta losslessly, so this run's SIEM stream is byte-identical to the
  // in-memory replay that produced the dump.
  if (!opt.pcapIn.empty()) {
    auto source = trace::openPcapSource(opt.pcapIn);
    if (!source) {
      std::fprintf(stderr, "trace_replay: cannot read pcap file %s\n",
                   opt.pcapIn.c_str());
      return 2;
    }
    std::printf("Replaying %zu packets from %s\n", source->remaining(),
                opt.pcapIn.c_str());
    return opt.usePipeline ? replayPipeline(*source, opt, plan, nullptr)
                           : replayDirect(*source, plan, nullptr);
  }

  chaos::LinkChaos::Stats chaosTally;
  if (plan) {
    std::printf("Chaos plan active: %s\n", plan->describe().c_str());
  }

  // 1. Record benign traffic and, separately, an attack run.
  const trace::Trace benign =
      scenarios::captureTrace(opt.seed, false, nullptr, plan, &chaosTally);
  metrics::GroundTruth truth;
  const trace::Trace withAttack =
      scenarios::captureTrace(opt.seed + 1, true, &truth, plan, &chaosTally);
  std::printf("Recorded %zu benign packets and %zu attack-run packets\n",
              benign.size(), withAttack.size());
  if (plan) {
    std::printf(
        "Injected link faults: %llu dropped, %llu corrupted, %llu "
        "duplicated, %llu delayed, %llu crashes\n",
        static_cast<unsigned long long>(chaosTally.rxDropped),
        static_cast<unsigned long long>(chaosTally.corrupted),
        static_cast<unsigned long long>(chaosTally.duplicated),
        static_cast<unsigned long long>(chaosTally.delayed),
        static_cast<unsigned long long>(chaosTally.crashes));
  }

  // 2. Persist the merged trace in the KTRC on-disk format and reload it —
  //    exactly what the Data Store's log/replay path does.
  const trace::Trace merged = trace::mergeTraces(benign, withAttack);
  const Bytes fileBytes = trace::serializeTrace(merged);
  auto reloaded = trace::readTrace(BytesView(fileBytes));
  std::printf("KTRC round trip: %zu packets (%zu bytes on disk)%s\n",
              reloaded.packets.size(), fileBytes.size(),
              reloaded.truncated ? " [TRUNCATED]" : "");

  // 2b. --dump-pcap: write the exact packet sequence the replay below will
  //     consume (post-KTRC-roundtrip) as a mixed-medium pcap, so a later
  //     --pcap run reproduces this run's SIEM stream byte for byte.
  if (!opt.pcapOut.empty()) {
    trace::PcapWriter writer(net::kDltKalisMixed);
    for (const net::CapturedPacket& pkt : reloaded.packets) writer.append(pkt);
    const bool ok = writer.writeFile(opt.pcapOut);
    std::printf("Pcap dump: %zu packets (%zu bytes) written to %s\n",
                reloaded.packets.size(), writer.buffer().size(),
                ok ? opt.pcapOut.c_str() : "<failed>");
    if (!ok) return 2;
  }

  // 3. Replay the trace "as if operating on live traffic", via the unified
  //    PacketSource seam — the same path a pcap or KTRC file takes.
  net::VectorPacketSource source(std::move(reloaded.packets));
  return opt.usePipeline ? replayPipeline(source, opt, plan, &truth)
                         : replayDirect(source, plan, &truth);
}
