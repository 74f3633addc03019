// Golden SIEM-trace regression tests (DESIGN.md §9): the committed files in
// tests/golden/ hold the exact SIEM JSON stream of every Fig. 8 scenario
// under every system and of both wormhole runs (each followed by a summary
// line pinning the resource proxies), one pipeline trace-replay run, plus
// the full Knowledge Base, SIEM stream and RAM proxy of a forwarding-attack
// WSN replay. Any byte of drift — alert content, ordering, JSON shape,
// timestamping, work units — fails the test.
//
// Regenerating after an INTENDED output change:
//
//   KALIS_REGEN_GOLDEN=1 ./build/tests/kalis_tests --gtest_filter='Golden*'
//
// then review the diff of tests/golden/ like any other code change.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/forwarding_attacks.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "scenarios/chaos_workload.hpp"
#include "scenarios/environments.hpp"
#include "scenarios/scenarios.hpp"
#include "util/strings.hpp"

namespace kalis {
namespace {

bool regenRequested() {
  const char* env = std::getenv("KALIS_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::filesystem::path goldenPath(const std::string& name) {
  return std::filesystem::path(KALIS_TEST_GOLDEN_DIR) / name;
}

/// Compares the produced lines against the committed golden file byte for
/// byte — or rewrites the file when KALIS_REGEN_GOLDEN is set.
void checkGolden(const std::string& name,
                 const std::vector<std::string>& lines) {
  std::ostringstream produced;
  for (const std::string& line : lines) produced << line << '\n';

  const std::filesystem::path path = goldenPath(name);
  if (regenRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced.str();
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with KALIS_REGEN_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), produced.str())
      << "SIEM output drifted from " << path
      << "\nIf the change is intended, regenerate with KALIS_REGEN_GOLDEN=1 "
         "and review the diff.";
}

TEST(GoldenTrace, IcmpFloodScenarioSiemStream) {
  const scenarios::ScenarioResult result =
      scenarios::runIcmpFlood(scenarios::SystemKind::kKalis, 42);
  std::vector<std::string> lines;
  lines.reserve(result.alerts.size());
  for (const ids::Alert& alert : result.alerts) {
    lines.push_back(ids::toSiemJson(alert));
  }
  ASSERT_FALSE(lines.empty());
  checkGolden("icmp_flood_kalis_seed42.siem.jsonl", lines);
}

TEST(GoldenTrace, PipelineTraceReplaySiemStream) {
  const chaos::RunOutput out =
      scenarios::runTraceReplayWorkload(21, nullptr, 0);
  ASSERT_FALSE(out.siemLines.empty());
  checkGolden("trace_replay_pipeline_seed21.siem.jsonl", out.siemLines);
}

/// The SIEM stream of one scenario run, then one JSON summary line pinning
/// the packet count, the ground truth, applicability and the CPU and RAM
/// proxies.
std::vector<std::string> scenarioLines(const scenarios::ScenarioResult& r) {
  std::vector<std::string> lines;
  for (const ids::Alert& alert : r.alerts) {
    lines.push_back(ids::toSiemJson(alert));
  }
  lines.push_back("{\"packetsSniffed\":" + std::to_string(r.packetsSniffed) +
                  ",\"truthSize\":" + std::to_string(r.truthSize) +
                  ",\"notApplicable\":" +
                  (r.notApplicable ? "true" : "false") +
                  ",\"cpuPercent\":" + formatDouble(r.cpuPercent) +
                  ",\"ramMb\":" + formatDouble(r.ramMb) + "}");
  return lines;
}

/// "ICMP Flood" -> "icmp_flood".
std::string slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += c == ' ' ? '_' : static_cast<char>(std::tolower(
                                static_cast<unsigned char>(c)));
  }
  return out;
}

struct Fig8Case {
  std::string scenario;
  scenarios::SystemKind system;
};

std::string systemSlug(scenarios::SystemKind kind) {
  switch (kind) {
    case scenarios::SystemKind::kKalis: return "kalis";
    case scenarios::SystemKind::kTraditionalIds: return "traditional";
    case scenarios::SystemKind::kSnort: return "snort";
  }
  return "unknown";
}

std::vector<Fig8Case> fig8Cases() {
  std::vector<Fig8Case> cases;
  for (const std::string& name : scenarios::scenarioNames()) {
    for (scenarios::SystemKind kind :
         {scenarios::SystemKind::kKalis,
          scenarios::SystemKind::kTraditionalIds,
          scenarios::SystemKind::kSnort}) {
      cases.push_back({name, kind});
    }
  }
  return cases;
}

// Keeps the test names ctest prints stable across builds (the default
// printer dumps the struct's bytes, pointers included).
void PrintTo(const Fig8Case& c, std::ostream* os) {
  *os << '"' << slug(c.scenario) << '_' << systemSlug(c.system) << '"';
}

class Fig8Scenario : public ::testing::TestWithParam<Fig8Case> {};

// Every Fig. 8 scenario x system at seed 42: SIEM stream plus summary.
TEST_P(Fig8Scenario, SiemStreamAndSummary) {
  const Fig8Case& c = GetParam();
  const auto result = scenarios::runScenarioByName(c.scenario, c.system, 42);
  ASSERT_TRUE(result.has_value());
  checkGolden("fig8_" + slug(c.scenario) + "_" + systemSlug(c.system) +
                  "_seed42.siem.jsonl",
              scenarioLines(*result));
}

INSTANTIATE_TEST_SUITE_P(
    Golden, Fig8Scenario, ::testing::ValuesIn(fig8Cases()),
    [](const ::testing::TestParamInfo<Fig8Case>& info) {
      return slug(info.param.scenario) + "_" + systemSlug(info.param.system);
    });

TEST(GoldenTrace, WormholeCollaborativeSiemStream) {
  const scenarios::WormholeResult result = scenarios::runWormhole(42, true);
  checkGolden("wormhole_collaborative_seed42.siem.jsonl",
              scenarioLines(result.combined));
}

TEST(GoldenTrace, WormholeIsolatedSiemStream) {
  const scenarios::WormholeResult result = scenarios::runWormhole(42, false);
  checkGolden("wormhole_isolated_seed42.siem.jsonl",
              scenarioLines(result.combined));
}

/// CTP capture at the IDS mote of a five-mote chain. The two-hop relay
/// drops half of what it forwards for the first minute (selective
/// forwarding) and everything after (blackhole); the three-hop relay
/// rewrites every payload it forwards (data alteration).
std::vector<net::CapturedPacket> captureWatchdogWsn(std::uint64_t seed) {
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  const scenarios::Wsn wsn = scenarios::buildWsn(world, 5, seconds(3));
  sim::CtpAgent* dropper = wsn.moteAgents[1];
  dropper->setForwardPolicy(std::make_shared<attacks::SelectiveForwardPolicy>(
      0.5, ids::AttackType::kSelectiveForwarding, nullptr));
  simulator.at(seconds(60), [dropper] {
    dropper->setForwardPolicy(std::make_shared<attacks::SelectiveForwardPolicy>(
        1.0, ids::AttackType::kBlackhole, nullptr));
  });
  wsn.moteAgents[2]->setForwardPolicy(
      std::make_shared<attacks::AlteringForwardPolicy>(nullptr));
  std::vector<net::CapturedPacket> captured;
  world.addSniffer(wsn.ids, net::Medium::kIeee802154,
                   [&](const net::CapturedPacket& pkt, const net::Dissection&) {
                     captured.push_back(pkt);
                   });
  world.start();
  simulator.runUntil(seconds(120));
  return captured;
}

// Pins the forwarding watchdog's observable state end to end: every
// knowgget (Wormhole.Drops carries the dropped units' fingerprints in
// verdict order), the SIEM stream and the RAM proxy.
TEST(GoldenTrace, WsnWatchdogKnowledgeDump) {
  const std::vector<net::CapturedPacket> capture = captureWatchdogWsn(7);
  ASSERT_FALSE(capture.empty());
  sim::Simulator simulator(7);
  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.start();
  for (const net::CapturedPacket& pkt : capture) node.replayFeed(pkt);

  std::vector<std::string> lines;
  for (const ids::Knowgget& k : node.kb().all()) {
    lines.push_back(ids::encodeKey(k.creator, k.label, k.entity) + "=" +
                    k.value);
  }
  for (const ids::Alert& alert : node.alerts()) {
    lines.push_back(ids::toSiemJson(alert));
  }
  lines.push_back("memoryBytes=" + std::to_string(node.memoryBytes()));
  checkGolden("wsn_watchdog_kb_seed7.txt", lines);
}

}  // namespace
}  // namespace kalis
