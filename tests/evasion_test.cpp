// attacks::evasion regression harness (DESIGN.md §13).
//
// Covers the four contracts the evasion subsystem makes:
//   identity      a zero-budget plan reproduces the unperturbed scenario
//                 byte-for-byte (SIEM-stream equality), alone and composed
//                 with a chaos::FaultPlan;
//   determinism   the same (scenario, spec, seed, budget) replays to the
//                 same curves, and a point's recorded spec alone re-creates
//                 its run;
//   monotonicity  detection at budget 0 is never worse than at the maximum
//                 budget, for every Fig. 8 scenario;
//   codec safety  every perturbed frame still satisfies
//                 serialize(dissect(x)) == x, including the committed
//                 evasion-mutated RPL/BLE corpus frames.
//
// Golden files (tests/golden/evasion_*.siem.jsonl) pin one representative
// evaded run per attack family; regenerate intended changes with
// KALIS_REGEN_GOLDEN=1 (same flow as golden_trace_test.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/evasion.hpp"
#include "chaos/diff_runner.hpp"
#include "chaos/fault_plan.hpp"
#include "kalis/siem_export.hpp"
#include "net/ble.hpp"
#include "net/codec.hpp"
#include "net/ieee802154.hpp"
#include "net/ipv6.hpp"
#include "scenarios/evasion_sweep.hpp"
#include "scenarios/scenarios.hpp"

namespace kalis {
namespace {

namespace ev = attacks::evasion;
using scenarios::SystemKind;

std::vector<std::string> siemOf(const scenarios::ScenarioResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.alerts.size());
  for (const ids::Alert& alert : result.alerts) {
    lines.push_back(ids::toSiemJson(alert));
  }
  return lines;
}

bool regenRequested() {
  const char* env = std::getenv("KALIS_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Byte-exact golden comparison, same flow as golden_trace_test.cpp.
void checkGolden(const std::string& name,
                 const std::vector<std::string>& lines) {
  std::ostringstream produced;
  for (const std::string& line : lines) produced << line << '\n';

  const std::filesystem::path path =
      std::filesystem::path(KALIS_TEST_GOLDEN_DIR) / name;
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

// --- spec parser -------------------------------------------------------------

TEST(EvasionSpec, DescribeParseRoundTrips) {
  ev::EvasionPlan plan;
  plan.budget = 0.35;
  plan.seed = 77;
  plan.mimic = false;
  plan.gapStretchMs = 120.0;
  plan.splitSources = 4;
  plan.forwardRelief = 0.5;
  std::string error;
  const auto reparsed = ev::EvasionPlan::parse(plan.describe(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->describe(), plan.describe());
  EXPECT_EQ(reparsed->budget, plan.budget);
  EXPECT_EQ(reparsed->seed, plan.seed);
  EXPECT_EQ(reparsed->mimic, false);
  EXPECT_EQ(reparsed->gapStretchMs, 120.0);
  EXPECT_EQ(reparsed->splitSources, 4);
  EXPECT_EQ(reparsed->forwardRelief, 0.5);
}

TEST(EvasionSpec, PresetsNarrowTechniques) {
  const auto timing = ev::EvasionPlan::parse("timing,budget=0.5");
  ASSERT_TRUE(timing.has_value());
  EXPECT_TRUE(timing->timing);
  EXPECT_FALSE(timing->dilute);
  EXPECT_FALSE(timing->split);
  EXPECT_FALSE(timing->mimic);
  EXPECT_FALSE(timing->zero());

  const auto none = ev::EvasionPlan::parse("none,budget=1");
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->zero());

  const auto full = ev::EvasionPlan::parse("full,budget=1");
  ASSERT_TRUE(full.has_value());
  EXPECT_TRUE(full->timing && full->dilute && full->split && full->mimic);
}

TEST(EvasionSpec, RejectsMalformedSpecs) {
  const std::pair<const char*, const char*> cases[] = {
      {"budget=2", "bad value for 'budget': 2"},
      {"budget=-0.1", "bad value for 'budget': -0.1"},
      {"budget=", "bad value for 'budget': "},
      {"nope=1", "unknown evasion-plan key: nope"},
      {"bogus", "expected key=value, got: bogus"},
      {"full,split-sources=0", "bad value for 'split-sources': 0"},
      {"dilute-max=1.5", "bad value for 'dilute-max': 1.5"},
      {"budget=0.5,seed=abc", "bad value for 'seed': abc"},
  };
  for (const auto& [bad, expected] : cases) {
    std::string error;
    EXPECT_FALSE(ev::EvasionPlan::parse(bad, &error).has_value()) << bad;
    EXPECT_EQ(error, expected) << bad;
  }
}

TEST(EvasionSpec, ZeroPlanForms) {
  EXPECT_TRUE(ev::EvasionPlan{}.zero());  // default budget 0
  ev::EvasionPlan allOff;
  allOff.budget = 1.0;
  allOff.timing = allOff.dilute = allOff.split = allOff.mimic = false;
  EXPECT_TRUE(allOff.zero());
  ev::EvasionPlan armed;
  armed.budget = 0.2;
  EXPECT_FALSE(armed.zero());
}

// --- zero-budget identity ----------------------------------------------------

TEST(EvasionIdentity, ZeroBudgetRunIsByteIdentical) {
  ev::resetGlobalTally();
  ev::EvasionPlan zero;  // budget 0
  const auto bare = scenarios::runIcmpFlood(SystemKind::kKalis, 7);
  const auto wrapped =
      scenarios::runIcmpFlood(SystemKind::kKalis, 7, nullptr, &zero);
  ASSERT_FALSE(bare.alerts.empty());
  EXPECT_EQ(siemOf(bare), siemOf(wrapped));
  EXPECT_EQ(ev::globalTally().perturbed(), 0u);
}

TEST(EvasionIdentity, ZeroBudgetComposesWithChaosPlan) {
  const auto faults = chaos::FaultPlan::parse("light");
  ASSERT_TRUE(faults.has_value());
  ev::EvasionPlan zero;
  const auto chaosOnly =
      scenarios::runIcmpFlood(SystemKind::kKalis, 7, &*faults);
  const auto both =
      scenarios::runIcmpFlood(SystemKind::kKalis, 7, &*faults, &zero);
  EXPECT_EQ(siemOf(chaosOnly), siemOf(both));
}

// --- sweep determinism and monotonicity --------------------------------------

TEST(EvasionSweep, SameSeedAndBudgetReplayIdentically) {
  ev::SweepOptions opts;
  opts.plan = *ev::EvasionPlan::parse("full,seed=42");
  opts.budgets = {0.0, 0.6};
  opts.scenarioSeed = 5;
  opts.scenarios = {"ICMP Flood"};
  opts.systems = {SystemKind::kKalis};
  const ev::SweepResult first = ev::runSweep(opts);
  const ev::SweepResult second = ev::runSweep(opts);
  EXPECT_EQ(first.toJson(), second.toJson());
  EXPECT_TRUE(first.allZeroBudgetIdentical);
  EXPECT_EQ(first.roundtripViolations, 0u);
}

TEST(EvasionSweep, PointSpecAloneRecreatesTheRun) {
  ev::SweepOptions opts;
  opts.plan = *ev::EvasionPlan::parse("full,seed=42");
  opts.budgets = {0.6};
  opts.scenarioSeed = 5;
  opts.scenarios = {"ICMP Flood"};
  opts.systems = {SystemKind::kKalis};
  opts.checkZeroBudgetIdentity = false;
  const ev::SweepResult sweep = ev::runSweep(opts);
  ASSERT_EQ(sweep.curves.size(), 1u);
  const ev::SweepPoint& point = sweep.curves[0].points[0];

  // Everything needed to replay the point is (scenario, spec, seed).
  const auto replanned = ev::EvasionPlan::parse(point.spec);
  ASSERT_TRUE(replanned.has_value()) << point.spec;
  const auto rerun = scenarios::runScenarioByName(
      "ICMP Flood", SystemKind::kKalis, 5, nullptr, &*replanned);
  ASSERT_TRUE(rerun.has_value());
  EXPECT_EQ(rerun->detectionRate(), point.detectionRate);
  EXPECT_EQ(rerun->alerts.size(), point.alerts);
}

TEST(EvasionSweep, DetectionNeverImprovesAtMaxBudget) {
  ev::SweepOptions opts;
  opts.plan = *ev::EvasionPlan::parse("full");
  opts.budgets = {0.0, 1.0};
  opts.scenarioSeed = 100;
  opts.systems = {SystemKind::kKalis};
  opts.checkZeroBudgetIdentity = false;
  const ev::SweepResult sweep = ev::runSweep(opts);
  ASSERT_EQ(sweep.curves.size(), scenarios::scenarioNames().size());
  for (const ev::SweepCurve& curve : sweep.curves) {
    ASSERT_EQ(curve.points.size(), 2u);
    EXPECT_GE(curve.points[0].detectionRate + 1e-9,
              curve.points[1].detectionRate)
        << curve.scenario << ": budget-1 evasion must not help detection";
  }
  // Effectiveness floor: the flood scenarios are fully evadable at budget 1.
  EXPECT_LE(sweep.curves[0].points[1].detectionRate, 0.25)
      << "ICMP Flood at budget 1 should evade nearly all detection";
  EXPECT_EQ(sweep.roundtripViolations, 0u);
}

// --- codec safety of perturbed frames ----------------------------------------

TEST(EvasionRoundtrip, EveryPerturbedFrameSurvivesTheCodec) {
  std::size_t tapped = 0;
  ev::setPerturbedFrameTap([&](net::Medium medium, const Bytes& frame) {
    ++tapped;
    net::CapturedPacket pkt;
    pkt.medium = medium;
    pkt.raw = frame;
    EXPECT_EQ(net::serialize(net::dissect(pkt)), frame);
  });
  ev::resetGlobalTally();
  ev::EvasionPlan plan = *ev::EvasionPlan::parse("full,budget=1");
  scenarios::runIcmpFlood(SystemKind::kKalis, 100, nullptr, &plan);
  scenarios::runSybil(SystemKind::kKalis, 100, nullptr, &plan);
  ev::setPerturbedFrameTap(nullptr);
  EXPECT_GT(tapped, 0u);
  EXPECT_GT(ev::globalTally().perturbed(), 0u);
  EXPECT_EQ(ev::globalTally().roundtripViolations, 0u);
}

// --- frame mutators and the committed corpus ---------------------------------

Bytes buildRplDioWpanFrame() {
  net::RplDio dio;
  dio.instanceId = 1;
  dio.versionNumber = 2;
  dio.rank = 256;
  dio.dtsn = 5;
  dio.dodagId = net::Ipv6Addr::linkLocalFromShort(net::Mac16{0x0001});
  net::Icmpv6Message msg;
  msg.type = net::Icmpv6Type::kRplControl;
  msg.code = net::kRplCodeDio;
  msg.body = dio.encodeBody();

  net::Ipv6Header ip;
  ip.src = net::Ipv6Addr::linkLocalFromShort(net::Mac16{0x0007});
  ip.dst = net::Ipv6Addr::allNodesMulticast();
  ip.hopLimit = 255;

  net::Ieee802154Frame frame;
  frame.seq = 9;
  frame.panId = 0x2100;
  frame.dst = net::Mac16{net::Mac16::kBroadcast};
  frame.src = net::Mac16{0x0007};
  frame.payload.push_back(net::kDispatchIpv6Uncompressed);
  const Bytes inner = ip.encode(msg.encode(ip.src, ip.dst));
  frame.payload.insert(frame.payload.end(), inner.begin(), inner.end());
  return frame.encode();
}

Bytes buildBleAdvFrame() {
  net::BleAdvPdu pdu;
  pdu.type = net::BlePduType::kAdvInd;
  pdu.advAddr = net::Mac48{{0x5c, 0xf3, 0x70, 0x01, 0x02, 0x03}};
  pdu.advData = {0x02, 0x01, 0x06, 0x03, 0x03, 0x0d, 0x18};
  return pdu.encode();
}

void expectRoundtrip(net::Medium medium, const Bytes& frame) {
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = frame;
  EXPECT_EQ(net::serialize(net::dissect(pkt)), frame);
}

TEST(EvasionMutators, RewriteAndPadPreserveCodecInvariants) {
  const Bytes dioFrame = buildRplDioWpanFrame();
  const Bytes bleFrame = buildBleAdvFrame();

  const auto spoofedDio =
      ev::rewriteLinkSource(net::Medium::kIeee802154, dioFrame, 3);
  ASSERT_TRUE(spoofedDio.has_value());
  EXPECT_NE(*spoofedDio, dioFrame);
  expectRoundtrip(net::Medium::kIeee802154, *spoofedDio);

  const auto paddedDio = ev::padFrame(net::Medium::kIeee802154, dioFrame, 16);
  ASSERT_TRUE(paddedDio.has_value());
  EXPECT_EQ(paddedDio->size(), dioFrame.size() + 16);
  expectRoundtrip(net::Medium::kIeee802154, *paddedDio);

  const auto spoofedBle =
      ev::rewriteLinkSource(net::Medium::kBluetooth, bleFrame, 3);
  ASSERT_TRUE(spoofedBle.has_value());
  EXPECT_NE(*spoofedBle, bleFrame);
  expectRoundtrip(net::Medium::kBluetooth, *spoofedBle);

  // BLE advertising PDUs carry no IP layer: mimicry padding must refuse.
  EXPECT_FALSE(ev::padFrame(net::Medium::kBluetooth, bleFrame, 16).has_value());
}

/// Renders one corpus file in the tests/corpus format (medium token, hex,
/// '#' comments) and pins it byte-exactly, with the golden regen flow. The
/// committed files are also replayed by FuzzCorpus.CommittedRegressionInputs.
void checkCorpus(const std::string& name, const std::string& comment,
                 const char* mediumToken, const Bytes& frame) {
  std::ostringstream produced;
  produced << "# " << comment << "\n" << mediumToken << "\n";
  for (std::size_t i = 0; i < frame.size(); ++i) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x", frame[i]);
    produced << buf << ((i + 1) % 16 == 0 || i + 1 == frame.size() ? "\n"
                                                                   : " ");
  }
  const std::filesystem::path path =
      std::filesystem::path(KALIS_TEST_CORPUS_DIR) / name;
  if (regenRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing corpus file " << path
                  << " — run with KALIS_REGEN_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), produced.str()) << "corpus drifted: " << path;
}

TEST(EvasionCorpus, CommittedMutatedFramesAreStable) {
  const Bytes dioFrame = buildRplDioWpanFrame();
  const Bytes bleFrame = buildBleAdvFrame();
  const Bytes spoofedDio =
      *ev::rewriteLinkSource(net::Medium::kIeee802154, dioFrame, 3);
  const Bytes paddedDio = *ev::padFrame(net::Medium::kIeee802154, dioFrame, 16);
  const Bytes spoofedPaddedDio =
      *ev::padFrame(net::Medium::kIeee802154, spoofedDio, 24);
  const Bytes spoofedBle =
      *ev::rewriteLinkSource(net::Medium::kBluetooth, bleFrame, 9);
  checkCorpus("evasion_rpl_dio_spoofed_src.hex",
              "RPL DIO, link source spoofed (rewriteLinkSource identity 3)",
              "wpan", spoofedDio);
  checkCorpus("evasion_rpl_dio_padded.hex",
              "RPL DIO, 16 bytes of mimicry trailer padding (padFrame)",
              "wpan", paddedDio);
  checkCorpus("evasion_rpl_dio_spoofed_padded.hex",
              "RPL DIO, spoofed source + 24 bytes mimicry padding", "wpan",
              spoofedPaddedDio);
  checkCorpus("evasion_ble_adv_spoofed_adva.hex",
              "BLE ADV_IND, AdvA spoofed (rewriteLinkSource identity 9)",
              "ble", spoofedBle);
}

// --- DiffRunner evasion lane -------------------------------------------------

ids::Alert makeAlert(ids::AttackType type, const std::string& suspect) {
  ids::Alert alert;
  alert.type = type;
  alert.time = seconds(30);
  alert.moduleName = "IcmpFloodModule";
  alert.victimEntity = "thermostat";
  alert.suspectEntities = {suspect};
  return alert;
}

chaos::RunOutput outputOf(const std::string& label,
                          const std::vector<ids::Alert>& alerts,
                          std::uint64_t perturbed) {
  chaos::RunOutput out;
  out.label = label;
  out.alerts = alerts;
  for (const ids::Alert& alert : alerts) {
    out.siemLines.push_back(ids::toSiemJson(alert));
  }
  out.evasionPerturbed = perturbed;
  return out;
}

TEST(EvasionDiffLane, SuppressedAlertClassifiesAsEvasion) {
  const auto alert = makeAlert(ids::AttackType::kIcmpFlood, "attacker");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {alert}, 0), outputOf("evaded", {}, 40));
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, chaos::DivergenceKind::kEvasion);
  EXPECT_FALSE(diff.hasRegression());
}

TEST(EvasionDiffLane, AttributionShiftWithinTypeClassifiesAsEvasion) {
  const auto base = makeAlert(ids::AttackType::kIcmpFlood, "attacker");
  const auto shifted = makeAlert(ids::AttackType::kIcmpFlood, "spoof-12");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {base}, 0), outputOf("evaded", {shifted}, 40));
  ASSERT_EQ(diff.divergences.size(), 2u);
  for (const chaos::Divergence& d : diff.divergences) {
    EXPECT_EQ(d.kind, chaos::DivergenceKind::kEvasion) << d.detail;
  }
  EXPECT_FALSE(diff.hasRegression());
}

TEST(EvasionDiffLane, SemanticTypeChangeIsARegression) {
  const auto base = makeAlert(ids::AttackType::kBlackhole, "relay");
  const auto changed =
      makeAlert(ids::AttackType::kSelectiveForwarding, "relay");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {base}, 0), outputOf("evaded", {changed}, 40));
  // The perturbed run raised an attack type the baseline never did: the
  // suppression is evasion, the new-type alert is a semantics regression.
  EXPECT_EQ(diff.count(chaos::DivergenceKind::kEvasion), 1u);
  EXPECT_EQ(diff.count(chaos::DivergenceKind::kRegression), 1u);
  EXPECT_TRUE(diff.hasRegression());
}

TEST(EvasionDiffLane, WithoutPerturbationTalliesNothingIsExcused) {
  const auto alert = makeAlert(ids::AttackType::kIcmpFlood, "attacker");
  const chaos::DiffResult diff = chaos::diffAlertStreams(
      outputOf("base", {alert}, 0), outputOf("subject", {}, 0));
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, chaos::DivergenceKind::kRegression);
}

// --- golden evaded runs, one per attack family -------------------------------

std::vector<std::string> evadedSiem(const std::string& scenario,
                                    const std::string& spec) {
  const auto plan = ev::EvasionPlan::parse(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  const auto result = scenarios::runScenarioByName(
      scenario, SystemKind::kKalis, 100, nullptr, &*plan);
  EXPECT_TRUE(result.has_value()) << scenario;
  return siemOf(*result);
}

TEST(EvasionGolden, IcmpFloodFamilyEvadedStream) {
  const auto lines = evadedSiem("ICMP Flood", "full,budget=0.25");
  ASSERT_FALSE(lines.empty());
  checkGolden("evasion_icmp_flood_b25.siem.jsonl", lines);
}

TEST(EvasionGolden, SmurfFamilyEvadedStream) {
  const auto lines = evadedSiem("Smurf", "full,budget=0.5");
  ASSERT_FALSE(lines.empty());
  checkGolden("evasion_smurf_b50.siem.jsonl", lines);
}

TEST(EvasionGolden, ForwardingFamilyEvadedStream) {
  const auto lines = evadedSiem("Blackhole", "full,budget=1");
  ASSERT_FALSE(lines.empty());
  checkGolden("evasion_blackhole_b100.siem.jsonl", lines);
}

TEST(EvasionGolden, WpanFamilyEvadedStream) {
  const auto lines = evadedSiem("Sybil", "full,budget=0.75");
  ASSERT_FALSE(lines.empty());
  checkGolden("evasion_sybil_b75.siem.jsonl", lines);
}

}  // namespace
}  // namespace kalis
