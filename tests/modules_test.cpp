// Per-module unit tests driving each sensing and detection module with
// synthetic captured packets — no simulator involved, so each test pins one
// behavioral contract.
#include <gtest/gtest.h>

#include "kalis/module_registry.hpp"
#include "kalis/modules/forwarding_watchdog.hpp"
#include "kalis/modules/icmp_flood.hpp"
#include "kalis/modules/replication.hpp"
#include "kalis/modules/selective_forwarding.hpp"
#include "kalis/modules/smurf.hpp"
#include "kalis/modules/syn_flood.hpp"
#include "kalis/modules/topology_discovery.hpp"
#include "kalis/modules/traffic_stats.hpp"

namespace kalis::ids {
namespace {

// --- test harness ------------------------------------------------------------------

struct ModuleHarness {
  KnowledgeBase kb{"K1"};
  DataStore store;
  std::vector<Alert> alerts;

  ModuleContext ctx(SimTime now) {
    return ModuleContext{kb, store, now,
                         [this](Alert a) { alerts.push_back(std::move(a)); }};
  }

  void feed(Module& module, const net::CapturedPacket& pkt) {
    auto context = ctx(pkt.meta.timestamp);
    module.onPacket(pkt, net::dissect(pkt), context);
  }
  void tick(Module& module, SimTime now) {
    auto context = ctx(now);
    module.onTick(context);
  }
};

net::CapturedPacket wpanPacket(net::Mac16 src, net::Mac16 dst, Bytes payload,
                               SimTime t, double rssi = -60.0) {
  net::Ieee802154Frame frame;
  frame.src = src;
  frame.dst = dst;
  frame.payload = std::move(payload);
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kIeee802154;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  pkt.meta.rssiDbm = rssi;
  return pkt;
}

net::CapturedPacket ctpDataPacket(net::Mac16 linkSrc, net::Mac16 linkDst,
                                  net::Mac16 origin, std::uint8_t seqno,
                                  std::uint8_t thl, SimTime t,
                                  double rssi = -60.0,
                                  Bytes payload = bytesOf("pp")) {
  net::CtpData data;
  data.origin = origin;
  data.seqno = seqno;
  data.thl = thl;
  data.payload = std::move(payload);
  return wpanPacket(linkSrc, linkDst,
                    net::wrapTinyosAm(net::kAmCtpData, BytesView(data.encode())),
                    t, rssi);
}

net::CapturedPacket ctpBeaconPacket(net::Mac16 src, std::uint16_t etx,
                                    SimTime t) {
  net::CtpRoutingBeacon beacon;
  beacon.parent = src;
  beacon.etx = etx;
  return wpanPacket(
      src, net::Mac16{net::Mac16::kBroadcast},
      net::wrapTinyosAm(net::kAmCtpRouting, BytesView(beacon.encode())), t);
}

net::CapturedPacket icmpPacket(net::Mac48 linkSrc, net::Ipv4Addr src,
                               net::Ipv4Addr dst, net::IcmpType type,
                               SimTime t, double rssi = -55.0) {
  net::IcmpMessage msg;
  msg.type = type;
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = net::IpProto::kIcmp;
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.src = linkSrc;
  frame.dst = net::Mac48{{2, 0, 0, 0, 0, 99}};
  frame.body = net::llcSnapWrap(net::kEthertypeIpv4,
                                BytesView(ip.encode(msg.encode())));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  pkt.meta.rssiDbm = rssi;
  return pkt;
}

constexpr net::Mac48 kAttackerMac{{2, 0, 0, 0, 0, 7}};
constexpr net::Mac48 kVictimMac{{2, 0, 0, 0, 0, 2}};
constexpr net::Ipv4Addr kVictimIp{0x0a000002};

// --- TopologyDiscoveryModule --------------------------------------------------------

TEST(TopologyDiscovery, ThlAboveZeroMeansMultihop) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  h.feed(module, ctpDataPacket(net::Mac16{3}, net::Mac16{2}, net::Mac16{4}, 1,
                               /*thl=*/1, seconds(1)));
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihopWpan), true);
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihop), true);
}

TEST(TopologyDiscovery, SettlesToSinglehopAfterQuietEvidence) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  module.configure({{"settlePackets", "10"}});
  for (int i = 0; i < 12; ++i) {
    h.feed(module, ctpDataPacket(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                                 static_cast<std::uint8_t>(i), /*thl=*/0,
                                 seconds(i)));
  }
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihopWpan), false);
}

TEST(TopologyDiscovery, SameOriginSeqFromTwoSendersMeansMultihop) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  h.feed(module, ctpDataPacket(net::Mac16{4}, net::Mac16{3}, net::Mac16{4}, 9,
                               0, seconds(1)));
  h.feed(module, ctpDataPacket(net::Mac16{3}, net::Mac16{2}, net::Mac16{4}, 9,
                               0, seconds(1) + milliseconds(10)));
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihopWpan), true);
}

TEST(TopologyDiscovery, FirstRootWinsAgainstLaterEtxZero) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  h.feed(module, ctpBeaconPacket(net::Mac16{1}, 0, seconds(1)));
  EXPECT_EQ(h.kb.local(labels::kCtpRoot), "0x0001");
  // A sinkhole later advertising ETX 0 must not steal root status.
  h.feed(module, ctpBeaconPacket(net::Mac16{8}, 0, seconds(5)));
  EXPECT_EQ(h.kb.local(labels::kCtpRoot), "0x0001");
}

TEST(TopologyDiscovery, CountsMonitoredNodes) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  for (std::uint16_t i = 1; i <= 5; ++i) {
    h.feed(module, ctpBeaconPacket(net::Mac16{i}, 20, seconds(i)));
  }
  EXPECT_EQ(h.kb.local<long long>(labels::kMonitoredNodes), 5);
}

// --- TrafficStatsModule ----------------------------------------------------------------

TEST(TrafficStats, PublishesProtocolPresence) {
  ModuleHarness h;
  TrafficStatsModule module;
  h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, kVictimIp,
                            net::IcmpType::kEchoReply, seconds(1)));
  EXPECT_EQ(h.kb.local<bool>("Protocols.ICMP"), true);
  EXPECT_EQ(h.kb.local<bool>("Protocols.TCP"), std::nullopt);
  h.feed(module, ctpDataPacket(net::Mac16{2}, net::Mac16{1}, net::Mac16{2}, 0,
                               0, seconds(2)));
  EXPECT_EQ(h.kb.local<bool>("Protocols.CTP"), true);
}

TEST(TrafficStats, PublishesGlobalAndPerDeviceRates) {
  ModuleHarness h;
  TrafficStatsModule module;
  for (int i = 0; i < 10; ++i) {
    h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, kVictimIp,
                              net::IcmpType::kEchoReply,
                              seconds(4) + i * milliseconds(100)));
  }
  h.tick(module, seconds(5));
  const auto global = h.kb.local<double>("TrafficFrequency.ICMPEchoRep");
  ASSERT_TRUE(global.has_value());
  EXPECT_NEAR(*global, 2.0, 0.01);  // 10 packets / 5 s window
  const auto perVictim =
      h.kb.local<double>("TrafficFrequency.ICMPEchoRep", "10.0.0.2");
  ASSERT_TRUE(perVictim.has_value());
  EXPECT_NEAR(*perVictim, 2.0, 0.01);
}

TEST(TrafficStats, PublishedRateNeverStale) {
  // After every tick, each nonzero rate's knowgget holds the counter's
  // current rate — also after the window changes, when equal counts give
  // different rates.
  ModuleHarness h;
  TrafficStatsModule module;
  const auto checkPublished = [&](SimTime now) {
    for (std::size_t i = 0; i < net::kNumPacketTypes; ++i) {
      const auto type = static_cast<net::PacketType>(i);
      const std::string label =
          std::string(labels::kTrafficFrequency) + "." + net::packetTypeName(type);
      const double global = module.globalRate(type, now);
      if (global > 0.0) {
        EXPECT_EQ(h.kb.local(label), formatDouble(global)) << label;
      }
      for (const char* entity : {"10.0.0.2", "10.0.0.3"}) {
        const double device = module.deviceRate(type, entity, now);
        if (device > 0.0) {
          EXPECT_EQ(h.kb.local(label, entity), formatDouble(device))
              << label << "@" << entity;
        }
      }
    }
  };
  const auto burst = [&](SimTime start, int packets) {
    for (int i = 0; i < packets; ++i) {
      const net::Ipv4Addr victim{i % 3 == 0 ? 0x0a000003u : 0x0a000002u};
      h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, victim,
                                net::IcmpType::kEchoRequest,
                                start + i * milliseconds(100)));
    }
  };
  SimTime now = 0;
  for (int round = 0; round < 3; ++round) {
    // A burst, then ticks while it ages out of the 5 s window: counts rise,
    // hold steady, fall and return to values already published.
    burst(now, 6 + 2 * round);
    for (int t = 0; t < 7; ++t) {
      now += seconds(1);
      h.tick(module, now);
      checkPublished(now);
    }
  }
  // Six packets publish 6 / 5 s; after the window shrinks to 2 s, the same
  // count must republish as 6 / 2 s.
  burst(now, 6);
  now += seconds(1);
  h.tick(module, now);
  checkPublished(now);
  EXPECT_NEAR(*h.kb.local<double>("TrafficFrequency.ICMPEchoReq"), 1.2, 0.01);
  module.configure({{"windowSeconds", "2"}});
  burst(now, 6);
  now += seconds(1);
  h.tick(module, now);
  checkPublished(now);
  EXPECT_NEAR(*h.kb.local<double>("TrafficFrequency.ICMPEchoReq"), 3.0, 0.01);
  // A put the KB ignored is not published: once writes resume, the same
  // ten packets are put.
  h.kb.setWritesEnabled(false);
  burst(now, 4);
  h.tick(module, now + milliseconds(500));
  h.kb.setWritesEnabled(true);
  now += milliseconds(600);
  h.tick(module, now);
  checkPublished(now);
  EXPECT_NEAR(*h.kb.local<double>("TrafficFrequency.ICMPEchoReq"), 5.0, 0.01);
}

TEST(TrafficStats, RatesQueryable) {
  ModuleHarness h;
  TrafficStatsModule module;
  for (int i = 0; i < 5; ++i) {
    h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, kVictimIp,
                              net::IcmpType::kEchoRequest,
                              seconds(1) + i * milliseconds(200)));
  }
  EXPECT_NEAR(module.globalRate(net::PacketType::kIcmpEchoReq, seconds(2)),
              1.0, 0.01);
  EXPECT_DOUBLE_EQ(module.globalRate(net::PacketType::kTcpSyn, seconds(2)),
                   0.0);
}

// --- IcmpFloodModule ------------------------------------------------------------------------

net::CapturedPacket floodReply(int i, SimTime t) {
  const net::Ipv4Addr spoofed{0xac100700u + static_cast<std::uint32_t>(i % 12)};
  return icmpPacket(kAttackerMac, spoofed, kVictimIp,
                    net::IcmpType::kEchoReply, t);
}

TEST(IcmpFlood, DetectsReplyStormOnKnownSinglehop) {
  ModuleHarness h;
  h.kb.put(labels::kMultihopWifi, false);
  IcmpFloodModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kIcmpFlood);
  EXPECT_EQ(h.alerts[0].victimEntity, "10.0.0.2");
  ASSERT_EQ(h.alerts[0].suspectEntities.size(), 1u);
  EXPECT_EQ(h.alerts[0].suspectEntities[0], net::toString(kAttackerMac));
}

TEST(IcmpFlood, StaysQuietBelowThreshold) {
  ModuleHarness h;
  h.kb.put(labels::kMultihopWifi, false);
  IcmpFloodModule module;
  for (int i = 0; i < 20; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(400)));
  }
  h.tick(module, seconds(14));
  EXPECT_TRUE(h.alerts.empty());  // 2.5 replies/s << threshold
}

TEST(IcmpFlood, WaitsWhileTopologyUnknown) {
  ModuleHarness h;  // no Multihop knowgget at all
  IcmpFloodModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_TRUE(h.alerts.empty());  // conservative until knowledge arrives
}

TEST(IcmpFlood, DefersToSmurfOnMultihopWithTrigger) {
  ModuleHarness h;
  h.kb.put(labels::kMultihopWifi, true);
  IcmpFloodModule module;
  // Victim's own traffic binds its identity first.
  h.feed(module, icmpPacket(kVictimMac, kVictimIp, net::Ipv4Addr{9},
                            net::IcmpType::kEchoRequest, seconds(1)));
  // Spoofed requests in the victim's name (different radio): Smurf trigger.
  h.feed(module, icmpPacket(kAttackerMac, kVictimIp, net::Ipv4Addr{5},
                            net::IcmpType::kEchoRequest, seconds(9)));
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_TRUE(h.alerts.empty());  // the Smurf module owns this incident
}

TEST(IcmpFlood, AlertsOnRawSymptomWithoutKnowledgeBase) {
  ModuleHarness h;
  h.kb.setWritesEnabled(false);  // traditional-IDS emulation
  IcmpFloodModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_EQ(h.alerts.size(), 1u);
}

TEST(IcmpFlood, RequiredFollowsIcmpPresence) {
  KnowledgeBase kb("K1");
  IcmpFloodModule module;
  EXPECT_FALSE(module.required(kb));
  kb.put("Protocols.ICMP", true);
  EXPECT_TRUE(module.required(kb));
}

// --- SmurfModule ------------------------------------------------------------------------------

TEST(Smurf, DetectsWithSpoofTriggerAndNamesSpoofers) {
  ModuleHarness h;
  SmurfModule module;
  h.feed(module, icmpPacket(kVictimMac, kVictimIp, net::Ipv4Addr{9},
                            net::IcmpType::kEchoRequest, seconds(1)));
  h.feed(module, icmpPacket(kAttackerMac, kVictimIp, net::Ipv4Addr{5},
                            net::IcmpType::kEchoRequest, seconds(9)));
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kSmurf);
  ASSERT_EQ(h.alerts[0].suspectEntities.size(), 1u);
  EXPECT_EQ(h.alerts[0].suspectEntities[0], net::toString(kAttackerMac));
}

TEST(Smurf, SilentWithoutTriggerWhenKnowledgeTrusted) {
  ModuleHarness h;
  SmurfModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_TRUE(h.alerts.empty());
}

TEST(Smurf, FallbackTwoHopSuspectIsVictimOnStarTopology) {
  ModuleHarness h;
  h.kb.setWritesEnabled(false);  // traditional mode
  SmurfModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kSmurf);
  // The paper's §VI-B1 story: the 2-hop heuristic lands on the victim.
  ASSERT_EQ(h.alerts[0].suspectEntities.size(), 1u);
  EXPECT_EQ(h.alerts[0].suspectEntities[0], "10.0.0.2");
}

TEST(Smurf, RequiredNeedsMultihop) {
  KnowledgeBase kb("K1");
  SmurfModule module;
  kb.put("Protocols.ICMP", true);
  EXPECT_FALSE(module.required(kb));
  kb.put(labels::kMultihopWifi, true);
  EXPECT_TRUE(module.required(kb));
  kb.put(labels::kMultihopWifi, false);
  EXPECT_FALSE(module.required(kb));
}

// --- SynFloodModule ------------------------------------------------------------------------------

net::CapturedPacket tcpPacket(net::Mac48 linkSrc, net::Ipv4Addr src,
                              net::Ipv4Addr dst, net::TcpFlags flags,
                              std::uint32_t seq, SimTime t) {
  net::TcpSegment segment;
  segment.srcPort = 40000;
  segment.dstPort = 80;
  segment.seq = seq;
  segment.flags = flags;
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = net::IpProto::kTcp;
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.src = linkSrc;
  frame.dst = kVictimMac;
  frame.body = net::llcSnapWrap(
      net::kEthertypeIpv4, BytesView(ip.encode(segment.encode(src, dst))));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  return pkt;
}

TEST(SynFlood, DetectsHalfOpenStorm) {
  ModuleHarness h;
  SynFloodModule module;
  net::TcpFlags syn;
  syn.syn = true;
  for (int i = 0; i < 120; ++i) {
    h.feed(module,
           tcpPacket(kAttackerMac,
                     net::Ipv4Addr{0xac100700u + static_cast<std::uint32_t>(i % 24)},
                     kVictimIp, syn, static_cast<std::uint32_t>(i),
                     seconds(10) + i * milliseconds(8)));
  }
  h.tick(module, seconds(13));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kSynFlood);
  EXPECT_EQ(h.alerts[0].victimEntity, "10.0.0.2");
  EXPECT_EQ(h.alerts[0].suspectEntities[0], net::toString(kAttackerMac));
}

TEST(SynFlood, BenignHandshakesDontAlert) {
  ModuleHarness h;
  SynFloodModule module;
  net::TcpFlags syn;
  syn.syn = true;
  net::TcpFlags ack;
  ack.ack = true;
  for (int i = 0; i < 40; ++i) {
    const net::Ipv4Addr client{0x0a000020u + static_cast<std::uint32_t>(i % 6)};
    const auto seq = static_cast<std::uint32_t>(1000 + i);
    const SimTime t = seconds(5) + i * milliseconds(100);
    h.feed(module, tcpPacket(kVictimMac, client, kVictimIp, syn, seq, t));
    // The completing ACK carries seq = isn + 1.
    h.feed(module, tcpPacket(kVictimMac, client, kVictimIp, ack, seq + 1,
                             t + milliseconds(30)));
  }
  h.tick(module, seconds(11));
  EXPECT_TRUE(h.alerts.empty());
}

// --- ForwardingWatchdog -----------------------------------------------------------------------------

constexpr net::EntityRef kRoot = net::EntityRef::of(net::Mac16{1});
constexpr net::EntityRef kRelay3 = net::EntityRef::of(net::Mac16{3});

TEST(Watchdog, ForwardedPacketsResolveCleanly) {
  ForwardingWatchdog watchdog;
  // 4 -> 3 (handoff), then 3 -> 2 (forward with THL+1).
  const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                     net::Mac16{4}, 1, 0, seconds(1));
  watchdog.observe(handoff, net::dissect(handoff), kRoot);
  const auto forward = ctpDataPacket(net::Mac16{3}, net::Mac16{2},
                                     net::Mac16{4}, 1, 1,
                                     seconds(1) + milliseconds(50));
  watchdog.observe(forward, net::dissect(forward), kRoot);
  watchdog.expire(seconds(3));
  EXPECT_EQ(watchdog.samples(kRelay3, seconds(3)), 1u);
  EXPECT_DOUBLE_EQ(watchdog.dropRatio(kRelay3, seconds(3)), 0.0);
}

TEST(Watchdog, TimeoutBecomesDrop) {
  ForwardingWatchdog watchdog;
  const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                     net::Mac16{4}, 1, 0, seconds(1));
  watchdog.observe(handoff, net::dissect(handoff), kRoot);
  watchdog.expire(seconds(3));
  EXPECT_EQ(watchdog.samples(kRelay3, seconds(3)), 1u);
  EXPECT_DOUBLE_EQ(watchdog.dropRatio(kRelay3, seconds(3)), 1.0);
  EXPECT_EQ(watchdog.droppedFingerprints(kRelay3, seconds(3)).size(), 1u);
}

TEST(Watchdog, RootIsNeverExpectedToForward) {
  ForwardingWatchdog watchdog;
  const auto toRoot = ctpDataPacket(net::Mac16{2}, net::Mac16{1},
                                    net::Mac16{4}, 1, 2, seconds(1));
  watchdog.observe(toRoot, net::dissect(toRoot), kRoot);
  watchdog.expire(seconds(5));
  EXPECT_EQ(watchdog.samples(kRoot, seconds(5)), 0u);
}

TEST(Watchdog, CtpRootReadsOnlyTheLabelForm) {
  // Only a string that equals some receiver's label can name the root.
  KnowledgeBase kb("K1");
  EXPECT_EQ(ForwardingWatchdog::ctpRoot(kb), net::EntityRef::none());
  kb.put(labels::kCtpRoot, "0x00ab");
  EXPECT_EQ(ForwardingWatchdog::ctpRoot(kb),
            net::EntityRef::of(net::Mac16{0x00ab}));
  for (const char* other : {"0x00AB", "0X00ab", "00ab", "0xab", " 0x00ab"}) {
    kb.put(labels::kCtpRoot, other);
    EXPECT_EQ(ForwardingWatchdog::ctpRoot(kb), net::EntityRef::none()) << other;
  }
}

TEST(Watchdog, PayloadTamperingCaught) {
  ForwardingWatchdog watchdog;
  const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                     net::Mac16{4}, 1, 0, seconds(1),
                                     -60.0, bytesOf("orig"));
  watchdog.observe(handoff, net::dissect(handoff), kRoot);
  const auto tampered = ctpDataPacket(net::Mac16{3}, net::Mac16{2},
                                      net::Mac16{4}, 1, 1,
                                      seconds(1) + milliseconds(50), -60.0,
                                      bytesOf("evil"));
  watchdog.observe(tampered, net::dissect(tampered), kRoot);
  const auto alterations = watchdog.drainAlterations();
  ASSERT_EQ(alterations.size(), 1u);
  EXPECT_EQ(alterations[0].entity, "0x0003");
  EXPECT_EQ(alterations[0].originEntity, "0x0004");
  EXPECT_TRUE(watchdog.drainAlterations().empty());  // drained
}

TEST(Watchdog, SimultaneousExpiryKeepsLegacyOrder) {
  // Five units handed to relay 3 at once and dropped: they time out in one
  // expire() call, which records them in the order of the watchdog's
  // original "C<origin>:<seq>" / "Z<src>:<seq>" string keys — "C10:10" <
  // "C10:9" < "C9:10" < "C9:9" < "Z9:9" — not in numeric or arrival order.
  ForwardingWatchdog watchdog;
  const Bytes payload = bytesOf("pp");
  net::ZigbeeNwkFrame nwk;
  nwk.src = net::Mac16{9};
  nwk.dst = net::Mac16{1};
  nwk.seq = 9;
  nwk.payload = bytesOf("zz");
  const auto zigbee = wpanPacket(net::Mac16{4}, net::Mac16{3}, nwk.encode(),
                                 seconds(1));
  watchdog.observe(zigbee, net::dissect(zigbee), kRoot);
  for (std::uint16_t origin : {9, 10}) {
    for (std::uint8_t seq : {9, 10}) {
      const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                         net::Mac16{origin}, seq, 0,
                                         seconds(1));
      watchdog.observe(handoff, net::dissect(handoff), kRoot);
    }
  }
  watchdog.expire(seconds(3));
  const auto fp = [&](std::uint16_t origin, std::uint8_t seq) {
    return ForwardingWatchdog::fingerprint(origin, seq, BytesView(payload));
  };
  EXPECT_EQ(watchdog.droppedFingerprints(kRelay3, seconds(3)),
            (std::vector<std::uint64_t>{fp(10, 10), fp(10, 9), fp(9, 10),
                                        fp(9, 9),
                                        ForwardingWatchdog::fingerprint(
                                            9, 9, BytesView(nwk.payload))}));
}

TEST(Watchdog, FingerprintStableAcrossSides) {
  const Bytes payload = bytesOf("tunnel-me");
  EXPECT_EQ(ForwardingWatchdog::fingerprint(5, 9, BytesView(payload)),
            ForwardingWatchdog::fingerprint(5, 9, BytesView(payload)));
  EXPECT_NE(ForwardingWatchdog::fingerprint(5, 9, BytesView(payload)),
            ForwardingWatchdog::fingerprint(5, 10, BytesView(payload)));
}

// --- SelectiveForwarding / Blackhole classification bands ---------------------------------------------

class DropRatioBands : public ::testing::TestWithParam<double> {};

TEST_P(DropRatioBands, ModulesSplitTheRatioSpectrum) {
  const double dropRatio = GetParam();
  ModuleHarness h;
  h.kb.put(labels::kMultihopWpan, true);
  h.kb.put(labels::kCtpRoot, "0x0001");
  SelectiveForwardingModule selective;
  BlackholeModule blackhole;

  // Feed N handoffs to relay 3; forward (1 - dropRatio) of them.
  const int total = 40;
  int forwarded = 0;
  for (int i = 0; i < total; ++i) {
    const SimTime t = seconds(1) + i * milliseconds(400);
    const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                       net::Mac16{4},
                                       static_cast<std::uint8_t>(i), 0, t);
    h.feed(selective, handoff);
    h.feed(blackhole, handoff);
    const bool forward =
        static_cast<double>(forwarded) < (1.0 - dropRatio) * (i + 1);
    if (forward) {
      ++forwarded;
      // Forward toward the root so the chain of expectations terminates.
      const auto fwd = ctpDataPacket(net::Mac16{3}, net::Mac16{1},
                                     net::Mac16{4},
                                     static_cast<std::uint8_t>(i), 1,
                                     t + milliseconds(30));
      h.feed(selective, fwd);
      h.feed(blackhole, fwd);
    }
  }
  h.tick(selective, seconds(20));
  h.tick(blackhole, seconds(20));

  bool sawSelective = false;
  bool sawBlackhole = false;
  for (const Alert& alert : h.alerts) {
    if (alert.type == AttackType::kSelectiveForwarding) sawSelective = true;
    if (alert.type == AttackType::kBlackhole) sawBlackhole = true;
  }
  if (dropRatio == 0.0) {
    EXPECT_FALSE(sawSelective);
    EXPECT_FALSE(sawBlackhole);
  } else if (dropRatio <= 0.6) {
    EXPECT_TRUE(sawSelective);
    EXPECT_FALSE(sawBlackhole);
  } else {
    EXPECT_TRUE(sawBlackhole);
    EXPECT_FALSE(sawSelective);
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, DropRatioBands,
                         ::testing::Values(0.0, 0.3, 0.5, 1.0));

// --- Replication modules -----------------------------------------------------------------------------

net::CapturedPacket zigbeeReport(net::Mac16 src, std::uint8_t seq, SimTime t,
                                 double rssi) {
  net::ZigbeeNwkFrame nwk;
  nwk.src = src;
  nwk.dst = net::Mac16{0x0001};
  nwk.seq = seq;
  nwk.payload = {net::kZigbeeAppReport, 0, 0};
  return wpanPacket(src, net::Mac16{0x0001}, nwk.encode(), t, rssi);
}

TEST(ReplicationStatic, BimodalRssiFlagsClone) {
  ModuleHarness h;
  ReplicationStaticModule module;
  // Interleaved transmissions: legit at -60, replica at -85.
  for (int i = 0; i < 10; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + 2 * i), -60.0 + (i % 3) * 0.5));
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(2 + 2 * i), -85.0 - (i % 3) * 0.5));
  }
  h.tick(module, seconds(21));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kReplication);
  EXPECT_EQ(h.alerts[0].victimEntity, "0x0005");
}

TEST(ReplicationStatic, SingleTransmitterStaysClean) {
  ModuleHarness h;
  ReplicationStaticModule module;
  for (int i = 0; i < 20; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + i), -60.0 + (i % 4) * 0.6));
  }
  h.tick(module, seconds(22));
  EXPECT_TRUE(h.alerts.empty());
}

TEST(ReplicationMobile, ImpossibleMovesFlagClone) {
  ModuleHarness h;
  ReplicationMobileModule module;
  // Near-simultaneous captures 25 dB apart, repeatedly.
  for (int i = 0; i < 4; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + 3 * i), -55.0));
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + 3 * i) + milliseconds(300), -80.0));
  }
  h.tick(module, seconds(11));
  ASSERT_GE(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kReplication);
}

TEST(ReplicationMobile, GradualMovementTolerated) {
  ModuleHarness h;
  ReplicationMobileModule module;
  // RSSI drifting smoothly as a node walks: no alert.
  double rssi = -50.0;
  for (int i = 0; i < 40; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1) + i * milliseconds(600), rssi));
    rssi -= 0.7;
  }
  h.tick(module, seconds(26));
  EXPECT_TRUE(h.alerts.empty());
}

TEST(ReplicationModules, RequiredAreMutuallyExclusiveOnMobility) {
  KnowledgeBase kb("K1");
  ReplicationStaticModule staticModule;
  ReplicationMobileModule mobileModule;
  // Unknown mobility: neither activates (no basis to pick a technique).
  EXPECT_FALSE(staticModule.required(kb));
  EXPECT_FALSE(mobileModule.required(kb));
  kb.put(labels::kMobility, false);
  EXPECT_TRUE(staticModule.required(kb));
  EXPECT_FALSE(mobileModule.required(kb));
  kb.put(labels::kMobility, true);
  EXPECT_FALSE(staticModule.required(kb));
  EXPECT_TRUE(mobileModule.required(kb));
}

}  // namespace
}  // namespace kalis::ids
