// Kalis benchmark program: replays seeded, generated packet traces through the
// real ingestion entry points and prints one JSON result line.
//
//   kalis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   kalis_perfbench --self-check --seed <n>
//   kalis_perfbench --record --workload <name> --seed <n>
//
// --trace 0 measures the end-to-end metrics with tracing and allocation
// counting off. --trace 1 is the separate traced run: it splits
// KalisNode::replayFeed into the public calls it is made of (net::dissect,
// Simulator::runUntil, KalisNode::feed), times each from here, and reports a
// per-layer breakdown whose rows plus `unattributed` sum to the traced total.
// Nothing inside src/ is instrumented by this program.
//
// --seed selects one of kRecordedSeeds traces per workload (seed modulo
// kRecordedSeeds), and perfbench/expected.txt holds the recorded output of
// every one of them: its SIEM digest and per-attack-type alert counts. Every
// run checks its output against that fixed expectation, not against another
// replay of the same code, and against the ground truth the trace generator
// injected: every injected attack must be detected, and attack_mix must reach
// its alert floor. Alerts that name nothing injected (false positives) are
// reported, not gated, because the recorded output already fixes them; the
// strict check runs in --self-check and --record. Every further replay in
// the run must reproduce the first one's SIEM stream. The traced run also
// drives the pipeline (Pipeline::enqueueBatch/stop) with one worker over the
// trace; that pass must drop nothing and reproduce the same SIEM stream.
// --record prints the expected.txt line of one replay. The result line is
// the last line of standard output; a fingerprint line and a detail line
// precede it.
#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "baseline/snort_engine.hpp"
#include "baseline/snort_rule.hpp"
#include "chaos/diff_runner.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/module_registry.hpp"
#include "kalis/siem_export.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "traces.hpp"

using namespace kalis;

namespace {

// --- clocks and process probes ------------------------------------------------

std::uint64_t wallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Resident set size from /proc/self/statm (second field, in pages).
std::size_t rssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- SIEM digest ----------------------------------------------------------------

/// FNV-1a over the SIEM lines, each terminated by '\n'.
std::uint64_t siemDigest(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (unsigned char c : line) h = (h ^ c) * 1099511628211ull;
    h = (h ^ '\n') * 1099511628211ull;
  }
  return h;
}

// --- workloads ------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  perfbench::TraceKind trace;
  std::size_t packets;     ///< trace length replayed per repetition
  std::size_t alertFloor;  ///< minimum alerts per replay (0 = none)
};

constexpr WorkloadSpec kWorkloads[] = {
    {"benign_home", perfbench::TraceKind::kBenign, 200'000, 0},
    {"attack_mix", perfbench::TraceKind::kAttackMix, 300'000, 1000},
    {"entity_churn", perfbench::TraceKind::kEntityChurn, 100'000, 0},
};

/// Untimed repetitions before measuring (caches, allocator).
constexpr int kWarmupReps = 1;
/// Timed repetitions per run at least, however short --seconds is.
constexpr int kMinReps = 3;
/// Latency samples per block for the block-median p99 of the detail line.
constexpr std::size_t kLatencyBlock = 1000;
/// Packets handed to Pipeline::enqueueBatch per call.
constexpr std::size_t kProducerChunk = 1024;
constexpr const char* kNodeId = "K1";
/// Traces per workload: --seed selects one, modulo this count, and
/// perfbench/expected.txt records the output of each.
constexpr std::uint64_t kRecordedSeeds = 1024;

/// Worker threads of the traced run's pipeline pass. One worker keeps every
/// shard's state together, so its output must equal the synchronous replay's.
constexpr std::size_t kTracedPipelineWorkers = 1;

/// Worker threads of the self-check's multi-worker pipeline pass: with the
/// producer, never more threads than CPUs.
std::size_t pipelineWorkers() {
  const std::size_t n = nproc();
  return std::max<std::size_t>(1, std::min<std::size_t>(n - 1, 3));
}

void configureNode(ids::KalisNode& node) { node.useStandardLibrary(); }

/// A configured Kalis node on its own simulator, as every synchronous replay
/// here builds it. Callers attach sinks or listeners, then call start().
struct Node {
  explicit Node(std::uint64_t seed) : sim(seed), node(sim, options()) {
    configureNode(node);
  }
  static ids::KalisNode::Options options() {
    ids::KalisNode::Options o;
    o.id = kNodeId;
    return o;
  }
  sim::Simulator sim;
  ids::KalisNode node;
};

// --- output checks ------------------------------------------------------------------

/// The entity an alert names: the victim of a flood, or the single suspect
/// of a forwarding attack.
std::string alertEntity(const ids::Alert& alert) {
  if (!alert.victimEntity.empty()) return alert.victimEntity;
  return alert.suspectEntities.size() == 1 ? alert.suspectEntities.front() : "";
}

/// One replay's alerts against the generator's ground truth.
struct GroundTruth {
  std::size_t falseAlerts = 0;  ///< alerts that name no injected (type, entity) pair
  std::size_t missed = 0;       ///< injected pairs that no alert names
};

GroundTruth compareGroundTruth(const perfbench::GeneratedTrace& t,
                               const std::vector<ids::Alert>& alerts) {
  GroundTruth g;
  std::set<std::pair<ids::AttackType, std::string>> injected, named;
  for (const perfbench::Injected& i : t.injected) injected.insert({i.type, i.entity});
  for (const ids::Alert& alert : alerts) {
    const auto pair = std::make_pair(alert.type, alertEntity(alert));
    if (injected.count(pair) != 0) {
      named.insert(pair);
      continue;
    }
    if (g.falseAlerts++ == 0) {
      std::fprintf(stderr, "false positive, nothing injected explains: %s\n",
                   ids::toString(alert).c_str());
    }
  }
  for (const auto& [type, entity] : injected) {
    if (named.count({type, entity}) != 0) continue;
    ++g.missed;
    std::fprintf(stderr, "FAIL: injected %s on %s raised no alert\n",
                 ids::attackName(type), entity.c_str());
  }
  if (g.falseAlerts != 0) {
    std::fprintf(stderr, "%zu false positive alert(s) in the replay\n", g.falseAlerts);
  }
  return g;
}

/// One line of perfbench/expected.txt: workload, seed, SIEM digest, alert
/// count, then the count of each attack type that occurs.
std::string expectedLine(const WorkloadSpec& spec, std::uint64_t seed,
                         const std::vector<ids::Alert>& alerts, std::uint64_t digest) {
  std::size_t perType[ids::kNumAttackTypes] = {};
  for (const ids::Alert& alert : alerts) ++perType[static_cast<std::size_t>(alert.type)];
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  std::string line = std::string(spec.name) + " " + std::to_string(seed) + " " + hex +
                     " " + std::to_string(alerts.size());
  for (std::size_t i = 0; i < ids::kNumAttackTypes; ++i) {
    if (perType[i] == 0) continue;
    line += " " + std::string(ids::attackName(static_cast<ids::AttackType>(i))) + "=" +
            std::to_string(perType[i]);
  }
  return line;
}

/// Recorded outputs, keyed by "<workload> <seed>". Written by --record (see
/// README.md); a replay whose workload and seed have an entry must reproduce
/// it exactly.
std::optional<std::map<std::string, std::string>> loadExpected() {
  std::ifstream in(PERFBENCH_EXPECTED_FILE);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read %s\n", PERFBENCH_EXPECTED_FILE);
    return std::nullopt;
  }
  std::map<std::string, std::string> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto second = line.find(' ', line.find(' ') + 1);
    table[line.substr(0, second)] = line;
  }
  return table;
}

struct OutputCheck {
  bool ok = true;
  std::size_t falseAlerts = 0;
};

/// The gated check of one replay: the recorded entry of the workload and
/// seed must exist and be reproduced exactly, every injected attack must be
/// detected, and the replay must reach the workload's alert floor. False
/// positives are counted; the recorded entry fixes how many there are.
OutputCheck checkOutput(const WorkloadSpec& spec, std::uint64_t seed,
                        const perfbench::GeneratedTrace& t,
                        const std::vector<ids::Alert>& alerts, std::uint64_t digest) {
  static const auto expected = loadExpected();
  const GroundTruth truth = compareGroundTruth(t, alerts);
  OutputCheck c;
  c.falseAlerts = truth.falseAlerts;
  c.ok = expected.has_value() && truth.missed == 0;
  if (alerts.size() < spec.alertFloor) {
    std::fprintf(stderr, "FAIL: %zu alerts, below the floor of %zu\n", alerts.size(),
                 spec.alertFloor);
    c.ok = false;
  }
  if (!expected) return c;
  const std::string line = expectedLine(spec, seed, alerts, digest);
  const auto it = expected->find(std::string(spec.name) + " " + std::to_string(seed));
  if (it == expected->end()) {
    std::fprintf(stderr, "FAIL: %s has no recorded entry for seed %llu\n", spec.name,
                 static_cast<unsigned long long>(seed));
    c.ok = false;
  } else if (it->second != line) {
    std::fprintf(stderr, "FAIL: output differs from the recorded one\n  recorded: %s\n"
                 "  measured: %s\n", it->second.c_str(), line.c_str());
    c.ok = false;
  }
  return c;
}

// --- pipeline replay ----------------------------------------------------------------

/// Kalis shard engines for the workload's node configuration.
pipeline::EngineFactory engineFactory(std::uint64_t seed, SimTime drainUntil) {
  pipeline::KalisEngineOptions eopts;
  eopts.seedBase = seed;
  eopts.node.id = kNodeId;
  eopts.drainUntil = drainUntil;
  eopts.configure = configureNode;
  return pipeline::makeKalisEngineFactory(eopts);
}

struct PipelineRun {
  std::uint64_t enqueueNs = 0;  ///< producer time inside enqueueBatch
  std::uint64_t stopNs = 0;
  std::vector<std::string> siem;
  std::vector<ids::Alert> alerts;
  pipeline::Pipeline::Stats stats{};
  obs::Registry registry;
  std::size_t shards = 0;
};

/// Replays the trace through a pipeline under the block policy with the
/// knowledge exchange on; `workers` == 0 selects deterministic single-shard
/// mode. Closed loop: one producer hands chunks to enqueueBatch as fast as
/// the rings admit them, then stop() drains and joins.
PipelineRun runPipeline(const perfbench::GeneratedTrace& t, std::uint64_t seed,
                        std::size_t workers) {
  PipelineRun r;
  const trace::Trace& pkts = t.packets;
  pipeline::Options opts;
  opts.deterministic = workers == 0;
  opts.workers = std::max<std::size_t>(1, workers);
  opts.policy = pipeline::Backpressure::kBlock;
  opts.knowledgeExchange = true;
  pipeline::Pipeline pipe(opts, engineFactory(seed, t.drainUntil));
  // Serialized under the merge lock; read here only after stop() joined.
  pipe.setAlertSink(
      [&r](const ids::Alert& alert) { r.siem.push_back(ids::toSiemJson(alert)); });
  pipe.start();
  for (std::size_t first = 0; first < pkts.size(); first += kProducerChunk) {
    const std::size_t n = std::min(kProducerChunk, pkts.size() - first);
    const std::uint64_t e0 = wallNs();
    pipe.enqueueBatch(pkts.data() + first, n);
    r.enqueueNs += wallNs() - e0;
  }
  const std::uint64_t s0 = wallNs();
  pipe.stop();
  r.stopNs = wallNs() - s0;
  r.alerts = pipe.alerts();
  r.stats = pipe.stats();
  r.shards = pipe.shardCount();
  pipe.collectMetrics(r.registry, "pipeline");
  return r;
}

chaos::RunOutput asRunOutput(std::string label, PipelineRun&& run, std::uint64_t packets) {
  chaos::RunOutput out;
  out.label = std::move(label);
  out.alerts = std::move(run.alerts);
  out.siemLines = std::move(run.siem);
  out.pipelineStats = run.stats;
  out.packetsFed = packets;
  return out;
}

// --- one synchronous replay --------------------------------------------------------

/// Packet indices at which a replay reads the wall clock for latency. With
/// the alerts of an earlier replay of the same trace: for alert j, the first
/// packet whose timestamp is >= its time (alert latency). A workload that
/// injects no attack has no alert latency, whatever false positives it
/// raises; there every kVerdictEvery-th packet is timed from hand-over until
/// replayFeed returns (verdict latency: the earliest an alert on that packet
/// could have reached the sink).
struct LatencyMarks {
  std::vector<std::size_t> packets;  ///< sorted, unique packet indices
  std::vector<std::ptrdiff_t> slot;  ///< per alert; -1 = after the trace
  bool verdict = false;
};

constexpr std::size_t kVerdictEvery = 16;

/// A node emits alerts in nondecreasing time order, so the marked packet
/// indices come out sorted.
LatencyMarks latencyMarks(const perfbench::GeneratedTrace& t,
                          const std::vector<ids::Alert>& alerts) {
  const trace::Trace& pkts = t.packets;
  LatencyMarks m;
  if (t.injected.empty()) {
    m.verdict = true;
    for (std::size_t i = 0; i < pkts.size(); i += kVerdictEvery) m.packets.push_back(i);
    return m;
  }
  for (const ids::Alert& alert : alerts) {
    const auto it = std::lower_bound(
        pkts.begin(), pkts.end(), alert.time,
        [](const net::CapturedPacket& p, SimTime v) { return p.meta.timestamp < v; });
    if (it == pkts.end()) {
      m.slot.push_back(-1);
      continue;
    }
    const auto idx = static_cast<std::size_t>(it - pkts.begin());
    if (m.packets.empty() || m.packets.back() != idx) m.packets.push_back(idx);
    m.slot.push_back(static_cast<std::ptrdiff_t>(m.packets.size() - 1));
  }
  return m;
}

struct SyncRun {
  std::uint64_t buildNs = 0;  ///< constructing, configuring and starting the node
  std::uint64_t wallNs = 0;
  std::uint64_t cpuNs = 0;
  std::vector<ids::Alert> alerts;
  std::vector<std::string> siem;
  std::vector<double> latencyUs;
  std::size_t stateBytes = 0;
  double rssGrowthMb = 0;
};

/// Builds and starts a node, then KalisNode::replayFeed over the whole
/// trace, then the clock runs to drainUntil; alerts go through a
/// SIEM-formatting sink. Pass no marks to skip latency.
SyncRun runSync(const perfbench::GeneratedTrace& t, std::uint64_t seed,
                const LatencyMarks& marks = {}) {
  SyncRun r;
  const trace::Trace& pkts = t.packets;
  std::vector<std::uint64_t> markNs(marks.packets.size());
  if (marks.verdict) r.latencyUs.reserve(marks.packets.size());
  std::vector<std::uint64_t> sinkNs;
  sinkNs.reserve(marks.slot.size() + 64);
  r.siem.reserve(marks.slot.size() + 64);
  r.alerts.reserve(marks.slot.size() + 64);

  malloc_trim(0);
  const std::uint64_t b0 = wallNs();
  Node n(seed);
  n.node.setAlertSink([&](const ids::Alert& alert) {
    r.siem.push_back(ids::toSiemJson(alert));
    sinkNs.push_back(wallNs());
    r.alerts.push_back(alert);
  });
  n.node.start();
  r.buildNs = wallNs() - b0;
  const std::size_t rss0 = rssBytes();

  std::size_t m = 0;
  std::size_t nextMark =
      marks.packets.empty() ? pkts.size() : marks.packets.front();
  const std::uint64_t c0 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t w0 = wallNs();
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i != nextMark) {
      n.node.replayFeed(pkts[i]);
      continue;
    }
    markNs[m] = wallNs();
    n.node.replayFeed(pkts[i]);
    if (marks.verdict) r.latencyUs.push_back(static_cast<double>(wallNs() - markNs[m]) * 1e-3);
    ++m;
    nextMark = m < marks.packets.size() ? marks.packets[m] : pkts.size();
  }
  n.sim.runUntil(t.drainUntil);
  r.wallNs = wallNs() - w0;
  r.cpuNs = cpuNs(CLOCK_PROCESS_CPUTIME_ID) - c0;
  r.stateBytes = n.node.memoryBytes();
  // Freed heap goes back to the OS before both readings, so the growth is
  // what the replay still holds, not where the heap's free top happened to
  // end.
  malloc_trim(0);
  r.rssGrowthMb = (static_cast<double>(rssBytes()) - static_cast<double>(rss0)) /
                  (1024.0 * 1024.0);

  if (!marks.verdict && sinkNs.size() == marks.slot.size()) {
    for (std::size_t j = 0; j < sinkNs.size(); ++j) {
      if (marks.slot[j] < 0) continue;
      r.latencyUs.push_back(
          static_cast<double>(sinkNs[j] - markNs[static_cast<std::size_t>(marks.slot[j])]) *
          1e-3);
    }
  }
  return r;
}

// --- output ------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quote(const std::string& s) { return "\"" + ids::jsonEscape(s) + "\""; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i ? ", " : "") + quote(m.name) + ": {\"value\": " + num(m.value) +
            ", \"unit\": " + quote(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void printHuman(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-44s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

// --- set-up --------------------------------------------------------------------------

struct Generated {
  perfbench::GeneratedTrace trace;
  std::uint64_t ns = 0;  ///< generation time
};

Generated generate(const WorkloadSpec& spec, std::uint64_t seed) {
  Generated g;
  const std::uint64_t t0 = wallNs();
  g.trace = perfbench::generateTrace(spec.trace, seed, spec.packets);
  g.ns = wallNs() - t0;
  return g;
}

/// Spoofed frames (MAC prefix 06:) must each carry their own MAC and IPv4
/// source.
bool churnSourcesDistinct(const perfbench::GeneratedTrace& t) {
  std::set<std::string> macs, ips;
  std::size_t spoofed = 0;
  for (const net::CapturedPacket& pkt : t.packets) {
    const net::Dissection dis = net::dissect(pkt);
    const std::string mac = dis.linkSource();
    if (mac.rfind("06:", 0) != 0) continue;
    ++spoofed;
    macs.insert(mac);
    ips.insert(dis.networkSource().value_or(""));
  }
  return spoofed == t.spoofed && macs.size() == spoofed && ips.size() == spoofed;
}

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t givenSeed = 1;  ///< --seed as given
  std::uint64_t seed = 1;       ///< the trace seed: givenSeed % kRecordedSeeds
  double seconds = 10;
  bool traced = false;
  bool selfCheck = false;
  bool record = false;
};

void printFingerprint(const Args& args, const perfbench::GeneratedTrace& t) {
  const bool traced = args.traced;
  std::string f = "{\"fingerprint\": {";
  f += "\"nproc\": " + std::to_string(nproc());
  f += ", \"cpu_model\": " + quote(cpuModel());
  f += ", \"compiler\": " + quote(std::string("gcc ") + __VERSION__);
  f += ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE);
  f += ", \"cxx_flags\": " + quote(PERFBENCH_CXX_FLAGS);
  f += ", \"kalis_metrics\": " + quote(PERFBENCH_KALIS_METRICS);
  f += ", \"google_benchmark\": \"not linked\"";
  f += ", \"workload\": " + quote(args.workload->name);
  f += ", \"seed\": " + std::to_string(args.givenSeed);
  f += ", \"trace_seed\": " + std::to_string(args.seed);
  f += ", \"trace\": " + std::string(traced ? "1" : "0");
  std::size_t bytes = 0;
  for (const net::CapturedPacket& pkt : t.packets) bytes += pkt.raw.size();
  f += ", \"trace_packets\": " + std::to_string(t.packets.size());
  f += ", \"trace_frame_bytes\": " + std::to_string(bytes);
  f += ", \"pipeline_workers\": " + std::to_string(traced ? kTracedPipelineWorkers : 0);
  f += "}}";
  std::printf("%s\n", f.c_str());
  std::fprintf(stderr, "%s\n", f.c_str());
}

// --- end-to-end run (--trace 0) --------------------------------------------------------


int runEndToEnd(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  const Generated first = generate(spec, args.seed);
  printFingerprint(args, first.trace);
  const std::size_t n = first.trace.packets.size();
  const Bytes traceBytes = trace::serializeTrace(first.trace.packets);

  bool ok = true;
  if (spec.trace == perfbench::TraceKind::kEntityChurn &&
      !churnSourcesDistinct(first.trace)) {
    std::fprintf(stderr, "FAIL: spoofed frames reuse a source\n");
    ok = false;
  }

  // The warm-up replay is checked against the ground truth and the recorded
  // output; every later replay must reproduce its SIEM stream exactly. Its
  // alerts also place the latency marks.
  const SyncRun warm = runSync(first.trace, args.seed);
  const std::uint64_t digest = siemDigest(warm.siem);
  const OutputCheck check = checkOutput(spec, args.seed, first.trace, warm.alerts, digest);
  ok = ok && check.ok;
  const LatencyMarks marks = latencyMarks(first.trace, warm.alerts);
  std::vector<double> setupS{static_cast<double>(first.ns + warm.buildNs) * 1e-9};

  // Throughput and CPU are totals over the timed repetitions, so slow and
  // fast phases of a shared host average out. Latency percentiles are taken
  // over the samples of all repetitions pooled. The other metrics are
  // medians over repetitions.
  std::uint64_t timedPackets = 0;
  double timedWallNs = 0, timedCpuNs = 0;
  std::vector<double> rss, state, latency;
  std::uint64_t attempted = n, failed = 0;
  int reps = kWarmupReps;
  const std::uint64_t start = wallNs();
  while (reps < kWarmupReps + kMinReps ||
         static_cast<double>(wallNs() - start) * 1e-9 < args.seconds) {
    ++reps;
    attempted += n;
    // Each repetition sets up afresh: it regenerates the trace, which must
    // be byte-identical, and replays that copy on a new node.
    const Generated again = generate(spec, args.seed);
    bool repOk = trace::serializeTrace(again.trace.packets) == traceBytes;
    if (!repOk) std::fprintf(stderr, "FAIL: rep %d: regenerated trace differs\n", reps);
    const SyncRun r = runSync(again.trace, args.seed, marks);
    setupS.push_back(static_cast<double>(again.ns + r.buildNs) * 1e-9);
    if (siemDigest(r.siem) != digest) {
      std::fprintf(stderr, "FAIL: rep %d: SIEM stream differs from the warm-up's\n", reps);
      repOk = false;
    }
    if (!repOk) {
      ok = false;
      failed += n;
      continue;
    }
    const double wall = static_cast<double>(r.wallNs);
    const double cpuTime = static_cast<double>(r.cpuNs);
    std::fprintf(stderr,
                 "  rep %2d: %12.0f pkt/s %10.1f cpu ns/pkt %8.3f MiB rss %8.3f us p50\n",
                 reps, static_cast<double>(n) / (wall * 1e-9),
                 cpuTime / static_cast<double>(n), r.rssGrowthMb, quantile(r.latencyUs, 0.5));
    timedPackets += n;
    timedWallNs += wall;
    timedCpuNs += cpuTime;
    rss.push_back(r.rssGrowthMb);
    state.push_back(static_cast<double>(r.stateBytes) / 1024.0);
    latency.insert(latency.end(), r.latencyUs.begin(), r.latencyUs.end());
  }

  // Detail only: the median over kLatencyBlock-sample blocks of each
  // block's p99, which host stalls move less than the pooled p99.
  std::vector<double> blockP99;
  for (std::size_t b = 0; b + kLatencyBlock <= latency.size(); b += kLatencyBlock) {
    blockP99.push_back(quantile(
        std::vector<double>(latency.begin() + static_cast<std::ptrdiff_t>(b),
                            latency.begin() + static_cast<std::ptrdiff_t>(b + kLatencyBlock)),
        0.99));
  }

  if (!ok) failed = attempted;
  const std::vector<Metric> metrics = {
      {"throughput_pps", static_cast<double>(timedPackets) / (timedWallNs * 1e-9), "pkt/s"},
      {"cpu_ns_per_pkt", timedCpuNs / static_cast<double>(timedPackets), "ns/pkt"},
      {"alert_latency_p50_us", quantile(latency, 0.50), "us"},
      {"alert_latency_p99_us", quantile(latency, 0.99), "us"},
      {"state_kb", median(state), "KiB"},
      {"rss_growth_mb", median(rss), "MiB"},
      {"setup_s", median(setupS), "s"},
  };
  std::fprintf(stderr,
               "%s seed %llu: %d reps (%d warm-up) of %zu packets, %zu alerts per replay "
               "(%zu false positive), %zu latency samples, output check %s\n",
               spec.name, static_cast<unsigned long long>(args.seed), reps, kWarmupReps,
               n, warm.alerts.size(), check.falseAlerts, latency.size(),
               check.ok ? "passed" : "FAILED");
  printHuman(metrics);
  std::printf("{\"detail\": {\"reps\": %d, \"packets_per_rep\": %zu, "
              "\"alerts_per_rep\": %zu, \"false_alerts_per_rep\": %zu, \"latency\": \"%s\", "
              "\"latency_samples\": %zu, \"latency_p99_block_median_us\": %s}}\n",
              reps, n, warm.alerts.size(), check.falseAlerts,
              marks.verdict ? "verdict" : "alert", latency.size(),
              num(median(blockP99)).c_str());
  printResult(ok, attempted, failed, metrics);
  return ok ? 0 : 1;
}

// --- traced run (--trace 1) -----------------------------------------------------------

/// One traced synchronous replay: replayFeed split into dissect, runUntil
/// and feed, each span timed (and its allocations counted) from here.
struct TracedPass {
  std::uint64_t totalNs = 0, dissectNs = 0, runUntilNs = 0, feedNs = 0;
  std::uint64_t dissectAllocs = 0, feedAllocs = 0;
  std::uint64_t siemNs = 0, siemAllocs = 0;
  std::vector<std::string> siem;
  double activeSum = 0;
  std::uint64_t kbChanges = 0;
  std::size_t kbBytes = 0, dataStoreBytes = 0, moduleBytes = 0;
  double moduleCalls = 0;
  std::map<std::string, double> moduleP50;
};

TracedPass tracedPass(const perfbench::GeneratedTrace& t, std::uint64_t seed) {
  TracedPass p;
  const trace::Trace& pkts = t.packets;
  p.siem.reserve(8192);
  Node n(seed);
  ids::KalisNode& node = n.node;
  node.kb().subscribe("*", [&p](const ids::Knowgget&) { ++p.kbChanges; });
  node.setAlertSink([&p](const ids::Alert& alert) {
    const std::uint64_t a0 = perfbench::allocs::count();
    const std::uint64_t s0 = wallNs();
    std::string line = ids::toSiemJson(alert);
    p.siemNs += wallNs() - s0;
    p.siemAllocs += perfbench::allocs::count() - a0;
    p.siem.push_back(std::move(line));
  });
  node.start();

  perfbench::allocs::setCounting(true);
  const std::uint64_t start = wallNs();
  for (const net::CapturedPacket& pkt : pkts) {
    p.activeSum += static_cast<double>(node.modules().activeCount());
    const std::uint64_t a0 = perfbench::allocs::count();
    const std::uint64_t t0 = wallNs();
    const net::Dissection dis = net::dissect(pkt);
    const std::uint64_t t1 = wallNs();
    const std::uint64_t a1 = perfbench::allocs::count();
    if (pkt.meta.timestamp > node.sim().now()) node.sim().runUntil(pkt.meta.timestamp);
    const std::uint64_t a2 = perfbench::allocs::count();
    const std::uint64_t t2 = wallNs();
    node.feed(pkt, dis);
    const std::uint64_t t3 = wallNs();
    p.feedAllocs += perfbench::allocs::count() - a2;
    p.dissectAllocs += a1 - a0;
    p.dissectNs += t1 - t0;
    p.runUntilNs += t2 - t1;
    p.feedNs += t3 - t2;
  }
  const std::uint64_t d0 = wallNs();
  n.sim.runUntil(t.drainUntil);
  const std::uint64_t end = wallNs();
  perfbench::allocs::setCounting(false);
  p.runUntilNs += end - d0;
  p.totalNs = end - start;

  p.kbBytes = node.kb().memoryBytes();
  p.dataStoreBytes = node.dataStore().memoryBytes();
  p.moduleBytes = node.modules().moduleMemoryBytes();
  for (const std::string& name : node.modules().allModuleNames()) {
    const ids::ModuleManager::ModuleStats* stats = node.modules().statsFor(name);
    p.moduleCalls += static_cast<double>(stats->packets.value());
    p.moduleP50[name] = static_cast<double>(stats->onPacketNs.quantile(0.5));
  }
  return p;
}

/// Thread CPU time per packet of one engine over the trace, with the
/// dissection done outside the timed region in chunks.
template <class Step, class Tail>
double engineCpuNsPerPkt(const trace::Trace& pkts, Step step, Tail tail) {
  constexpr std::size_t kChunk = 4096;
  std::vector<net::Dissection> dis;
  dis.reserve(kChunk);
  std::uint64_t cpu = 0;
  for (std::size_t first = 0; first < pkts.size(); first += kChunk) {
    const std::size_t last = std::min(pkts.size(), first + kChunk);
    dis.clear();
    for (std::size_t i = first; i < last; ++i) dis.push_back(net::dissect(pkts[i]));
    const std::uint64_t c0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
    for (std::size_t i = first; i < last; ++i) step(pkts[i], dis[i - first]);
    cpu += cpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
  }
  const std::uint64_t c0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
  tail();
  cpu += cpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
  return static_cast<double>(cpu) / static_cast<double>(std::max<std::size_t>(1, pkts.size()));
}

/// Table II reference: a Kalis node in one of its two modes.
double kalisCpuNsPerPkt(const perfbench::GeneratedTrace& t, std::uint64_t seed,
                        bool traditional) {
  Node n(seed);
  if (traditional) n.node.emulateTraditionalIds();
  n.node.start();
  return engineCpuNsPerPkt(
      t.packets,
      [&](const net::CapturedPacket& pkt, const net::Dissection& dis) {
        n.node.replayFeed(pkt, dis);
      },
      [&] { n.sim.runUntil(t.drainUntil); });
}

double snortCpuNsPerPkt(const perfbench::GeneratedTrace& t) {
  baseline::SnortEngine snort;
  snort.loadRules(baseline::communityRuleset());
  return engineCpuNsPerPkt(
      t.packets,
      [&](const net::CapturedPacket& pkt, const net::Dissection& dis) {
        snort.onPacket(pkt, dis);
      },
      [] {});
}

/// Quantile over the per-shard ring queue-wait histograms, bucket-merged.
double ringWaitQuantile(const obs::Registry& reg, std::size_t shards, double q) {
  std::vector<std::uint64_t> buckets(obs::Histogram::kBuckets, 0);
  std::uint64_t total = 0, maxSeen = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const obs::Histogram* h = reg.findHistogram(
        "pipeline.shard." + std::to_string(s) + ".ring.queue_wait_ns");
    if (h == nullptr) continue;
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += h->bucketCount(b);
    total += h->count();
    maxSeen = std::max(maxSeen, h->max());
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target) {
      return static_cast<double>(std::min(obs::Histogram::bucketUpperBound(b), maxSeen));
    }
  }
  return static_cast<double>(maxSeen);
}

int runTraced(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  const perfbench::GeneratedTrace t =
      perfbench::generateTrace(spec.trace, args.seed, spec.packets);
  printFingerprint(args, t);
  const std::size_t n = t.packets.size();
  const double pkts = static_cast<double>(n);

  // Untraced and traced replays alternate until the time is used; rows are
  // summed over all traced passes so they add up to the traced total. The
  // first untraced replay is checked against the recorded output and the
  // ground truth; every replay after it must reproduce its SIEM stream.
  bool ok = true;
  TracedPass sum;
  std::uint64_t digest = 0;
  std::size_t falseAlerts = 0;
  std::uint64_t untracedNs = 0;
  std::uint64_t attempted = 0;
  int pairs = 0;
  const std::uint64_t start = wallNs();
  do {
    ++pairs;
    const SyncRun plain = runSync(t, args.seed);
    untracedNs += plain.wallNs;
    if (pairs == 1) {
      digest = siemDigest(plain.siem);
      const OutputCheck check = checkOutput(spec, args.seed, t, plain.alerts, digest);
      ok = check.ok && ok;
      falseAlerts = check.falseAlerts;
    }
    TracedPass p = tracedPass(t, args.seed);
    attempted += 2 * n;
    if (siemDigest(plain.siem) != digest || siemDigest(p.siem) != digest) {
      std::fprintf(stderr, "FAIL: pair %d: traced and untraced SIEM streams differ\n",
                   pairs);
      ok = false;
    }
    sum.totalNs += p.totalNs;
    sum.dissectNs += p.dissectNs;
    sum.runUntilNs += p.runUntilNs;
    sum.feedNs += p.feedNs;
    sum.dissectAllocs += p.dissectAllocs;
    sum.feedAllocs += p.feedAllocs;
    sum.siemNs += p.siemNs;
    sum.siemAllocs += p.siemAllocs;
    sum.activeSum += p.activeSum;
    sum.moduleCalls += p.moduleCalls;
    // Deterministic per pass: the last pass's values stand for all.
    sum.siem = std::move(p.siem);
    sum.kbChanges = p.kbChanges;
    sum.kbBytes = p.kbBytes;
    sum.dataStoreBytes = p.dataStoreBytes;
    sum.moduleBytes = p.moduleBytes;
    sum.moduleP50 = std::move(p.moduleP50);
  } while (static_cast<double>(wallNs() - start) * 1e-9 < args.seconds);

  const double passes = static_cast<double>(pairs);
  const double replayed = pkts * passes;
  const double alerts = static_cast<double>(sum.siem.size());
  const double rows = static_cast<double>(sum.dissectNs + sum.runUntilNs + sum.feedNs);
  const double unattributedNs = static_cast<double>(sum.totalNs) - rows;
  if (unattributedNs < 0) {
    std::fprintf(stderr, "FAIL: layer rows exceed the traced total\n");
    ok = false;
  }

  // Standalone Data Store over the same packets.
  ids::DataStore store;
  const std::uint64_t ds0 = wallNs();
  for (const net::CapturedPacket& pkt : t.packets) store.onPacket(pkt);
  const double dataStoreNs = static_cast<double>(wallNs() - ds0);

  const double kalisCpu = kalisCpuNsPerPkt(t, args.seed, false);
  const double traditionalCpu = kalisCpuNsPerPkt(t, args.seed, true);
  const double snortCpu = snortCpuNsPerPkt(t);
  attempted += 3 * n;

  // The pipeline pass runs one worker thread behind the ring, so the
  // hand-off, the shard engine and the merge stage are timed on a run whose
  // output must equal the synchronous replay's. With more workers the output
  // is wrong today (README.md, findings), which --self-check reports.
  const PipelineRun pipe = runPipeline(t, args.seed, kTracedPipelineWorkers);
  attempted += n;
  if (siemDigest(pipe.siem) != digest || pipe.stats.dropped() != 0 ||
      pipe.stats.processed != n) {
    std::fprintf(stderr,
                 "FAIL: pipeline pass: SIEM stream %s the synchronous replay's, %llu "
                 "dropped, %llu of %zu processed\n",
                 siemDigest(pipe.siem) == digest ? "equals" : "differs from",
                 static_cast<unsigned long long>(pipe.stats.dropped()),
                 static_cast<unsigned long long>(pipe.stats.processed), n);
    ok = false;
  }

  const double tracedPerPkt = static_cast<double>(sum.totalNs) / replayed;
  const double untracedPerPkt = static_cast<double>(untracedNs) / replayed;
  std::vector<Metric> metrics = {
      {"net.dissect.ns_per_pkt", static_cast<double>(sum.dissectNs) / replayed, "ns/pkt"},
      {"net.dissect.allocs_per_pkt", static_cast<double>(sum.dissectAllocs) / replayed,
       "allocs/pkt"},
      {"sim.run_until.ns_per_pkt", static_cast<double>(sum.runUntilNs) / replayed, "ns/pkt"},
      {"kalis.feed.ns_per_pkt", static_cast<double>(sum.feedNs) / replayed, "ns/pkt"},
      {"kalis.feed.allocs_per_pkt", static_cast<double>(sum.feedAllocs) / replayed,
       "allocs/pkt"},
      {"unattributed.ns_per_pkt", unattributedNs / replayed, "ns/pkt"},
      {"trace.traced_ns_per_pkt", tracedPerPkt, "ns/pkt"},
      {"trace.untraced_ns_per_pkt", untracedPerPkt, "ns/pkt"},
      {"trace.overhead_ns_per_pkt", tracedPerPkt - untracedPerPkt, "ns/pkt"},
      {"kalis.data_store.ns_per_pkt", dataStoreNs / pkts, "ns/pkt"},
      {"kalis.modules.active_mean", sum.activeSum / replayed, "modules"},
      {"kalis.modules.calls_per_pkt", sum.moduleCalls / replayed, "calls/pkt"},
  };
  for (const auto& [name, p50] : sum.moduleP50) {
    metrics.push_back({"kalis.module." + name + ".onpacket_ns_p50", p50, "ns"});
  }
  const double alertsTotal = alerts * passes;
  metrics.insert(metrics.end(), {
      {"kalis.kb.changes", static_cast<double>(sum.kbChanges), "count"},
      {"kalis.alerts", alerts, "count"},
      {"kalis.false_alerts", static_cast<double>(falseAlerts), "count"},
      {"kalis.siem.ns_per_alert",
       alertsTotal > 0 ? static_cast<double>(sum.siemNs) / alertsTotal : 0.0, "ns/alert"},
      {"kalis.siem.allocs_per_alert",
       alertsTotal > 0 ? static_cast<double>(sum.siemAllocs) / alertsTotal : 0.0,
       "allocs/alert"},
      {"kalis.state.kb_bytes", static_cast<double>(sum.kbBytes), "B"},
      {"kalis.state.data_store_bytes", static_cast<double>(sum.dataStoreBytes), "B"},
      {"kalis.state.module_bytes", static_cast<double>(sum.moduleBytes), "B"},
      {"pipeline.enqueue.ns_per_pkt", static_cast<double>(pipe.enqueueNs) / pkts, "ns/pkt"},
      {"pipeline.blocked_pushes", static_cast<double>(pipe.stats.blockedPushes), "count"},
      {"pipeline.stop.ms", static_cast<double>(pipe.stopNs) * 1e-6, "ms"},
      {"pipeline.ring_wait_ns_p50", ringWaitQuantile(pipe.registry, pipe.shards, 0.50), "ns"},
      {"pipeline.ring_wait_ns_p99", ringWaitQuantile(pipe.registry, pipe.shards, 0.99), "ns"},
      {"baseline.kalis.cpu_ns_per_pkt", kalisCpu, "ns/pkt"},
      {"baseline.traditional.cpu_ns_per_pkt", traditionalCpu, "ns/pkt"},
      {"baseline.snort.cpu_ns_per_pkt", snortCpu, "ns/pkt"},
  });

  std::fprintf(stderr, "%s seed %llu traced: %d traced passes of %zu packets\n",
               spec.name, static_cast<unsigned long long>(args.seed), pairs, n);
  std::fprintf(stderr, "  breakdown (ns/pkt): dissect %.1f + run_until %.1f + feed %.1f"
               " + unattributed %.1f = traced %.1f (untraced %.1f)\n",
               static_cast<double>(sum.dissectNs) / replayed,
               static_cast<double>(sum.runUntilNs) / replayed,
               static_cast<double>(sum.feedNs) / replayed, unattributedNs / replayed,
               tracedPerPkt, untracedPerPkt);
  printHuman(metrics);
  if (!ok) std::fprintf(stderr, "FAIL: traced run output check\n");
  printResult(ok, attempted, ok ? 0 : attempted, metrics);
  return ok ? 0 : 1;
}

// --- self-check ----------------------------------------------------------------------

/// Checks the benchmark itself: trace determinism per seed, seed
/// sensitivity, one source per spoofed frame, each workload's output against
/// its ground truth (the attack_mix alert floor included) and its recorded
/// entry, and that the traced rows sum to the traced total.
int runSelfCheck(std::uint64_t seed) {
  int failures = 0;
  auto check = [&](bool cond, const std::string& what) {
    std::fprintf(stderr, "%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
    if (!cond) ++failures;
  };
  constexpr std::size_t kPackets = 40'000;
  for (const WorkloadSpec& spec : kWorkloads) {
    const auto a = perfbench::generateTrace(spec.trace, seed, kPackets);
    const auto b = perfbench::generateTrace(spec.trace, seed, kPackets);
    const auto c = perfbench::generateTrace(spec.trace, seed + 1, kPackets);
    const Bytes bytesA = trace::serializeTrace(a.packets);
    check(a.packets.size() == kPackets, std::string(spec.name) + ": trace has the requested length");
    check(bytesA == trace::serializeTrace(b.packets),
          std::string(spec.name) + ": same seed gives a byte-identical trace");
    check(bytesA != trace::serializeTrace(c.packets),
          std::string(spec.name) + ": another seed gives another trace");
    if (spec.trace == perfbench::TraceKind::kEntityChurn) {
      check(churnSourcesDistinct(a), "entity_churn: one MAC and IPv4 source per spoofed frame");
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    const auto t = perfbench::generateTrace(spec.trace, seed, spec.packets);
    const SyncRun plain = runSync(t, seed);
    const OutputCheck c = checkOutput(spec, seed, t, plain.alerts, siemDigest(plain.siem));
    check(c.ok, std::string(spec.name) + ": " + std::to_string(plain.alerts.size()) +
                    " alerts match the recorded entry and detect every injected attack");
    check(c.falseAlerts == 0, std::string(spec.name) + ": " + std::to_string(c.falseAlerts) +
                                  " false positive alerts (strict ground truth)");
  }
  {
    const auto t = perfbench::generateTrace(perfbench::TraceKind::kAttackMix, seed, kPackets);
    const TracedPass p = tracedPass(t, seed);
    const std::uint64_t rows = p.dissectNs + p.runUntilNs + p.feedNs;
    check(rows <= p.totalNs, "traced rows plus unattributed equal the traced total");
    const SyncRun plain = runSync(t, seed);
    check(siemDigest(p.siem) == siemDigest(plain.siem), "traced digest equals the untraced digest");
  }
  {
    // The sharded pipeline against its own deterministic single-shard run.
    const auto t = perfbench::generateTrace(perfbench::TraceKind::kAttackMix, seed, kPackets);
    PipelineRun single = runPipeline(t, seed, 0);
    PipelineRun multi = runPipeline(t, seed, pipelineWorkers());
    const bool complete = multi.stats.dropped() == 0 && multi.stats.processed == kPackets;
    const chaos::DiffResult diff =
        chaos::diffAlertStreams(asRunOutput("deterministic", std::move(single), kPackets),
                                asRunOutput("workers", std::move(multi), kPackets));
    const std::size_t regressions = diff.count(chaos::DivergenceKind::kRegression);
    check(complete && regressions == 0,
          "attack_mix through the pipeline with " + std::to_string(pipelineWorkers()) +
              " workers: nothing dropped, " + std::to_string(regressions) +
              " regression divergences from the single-shard run");
  }
  std::fprintf(stderr, "self-check: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

/// Prints the perfbench/expected.txt line of one replay of the workload.
int runRecord(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  const auto t = perfbench::generateTrace(spec.trace, args.seed, spec.packets);
  const SyncRun r = runSync(t, args.seed);
  const GroundTruth truth = compareGroundTruth(t, r.alerts);
  std::printf("%s\n", expectedLine(spec, args.seed, r.alerts, siemDigest(r.siem)).c_str());
  const bool ok = truth.missed == 0 && truth.falseAlerts == 0 && r.alerts.size() >= spec.alertFloor;
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: kalis_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       kalis_perfbench --self-check [--seed <n>]\n"
               "       kalis_perfbench --record --workload <name> --seed <n>\n"
               "workloads:");
  for (const WorkloadSpec& spec : kWorkloads) std::fprintf(stderr, " %s", spec.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check" || flag == "--record") {
      (flag == "--record" ? args.record : args.selfCheck) = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) args.workload = &spec;
      }
      if (args.workload == nullptr) return usage();
    } else if (flag == "--seed") {
      args.givenSeed = std::strtoull(value.c_str(), nullptr, 10);
      args.seed = args.givenSeed % kRecordedSeeds;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.traced = value == "1";
    } else {
      return usage();
    }
  }
  if (args.selfCheck) return runSelfCheck(args.seed);
  if (args.workload == nullptr) return usage();
  if (args.record) return runRecord(args);
  return args.traced ? runTraced(args) : runEndToEnd(args);
}
