// Packet-stack tests: addresses, per-protocol encode/decode round trips,
// checksum/FCS validation, the dissector's classification, and robustness
// against truncated/corrupted frames (an IDS's daily diet).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "net/packet.hpp"
#include "util/rng.hpp"

namespace kalis::net {
namespace {

// --- addresses -----------------------------------------------------------------

TEST(Addr, Mac16Format) {
  EXPECT_EQ(toString(Mac16{0x0003}), "0x0003");
  EXPECT_EQ(toString(Mac16{Mac16::kBroadcast}), "0xffff");
  EXPECT_TRUE(Mac16{0xffff}.isBroadcast());
}

TEST(Addr, Mac16Parse) {
  EXPECT_EQ(parseMac16("0x0003")->value, 0x0003);
  EXPECT_EQ(parseMac16("ffff")->value, 0xffff);
  EXPECT_EQ(parseMac16("0x12345"), std::nullopt);
  EXPECT_EQ(parseMac16("xyz"), std::nullopt);
}

TEST(Addr, Mac48RoundTrip) {
  const Mac48 mac{{0x02, 0x4b, 0x41, 0x00, 0x12, 0xfe}};
  EXPECT_EQ(toString(mac), "02:4b:41:00:12:fe");
  EXPECT_EQ(parseMac48("02:4b:41:00:12:fe"), mac);
  EXPECT_EQ(parseMac48("02:4b:41:00:12"), std::nullopt);
  EXPECT_TRUE(Mac48::broadcast().isBroadcast());
  EXPECT_FALSE(mac.isBroadcast());
}

TEST(Addr, Ipv4RoundTrip) {
  const Ipv4Addr addr{0x0a000207};
  EXPECT_EQ(toString(addr), "10.0.2.7");
  EXPECT_EQ(parseIpv4("10.0.2.7"), addr);
  EXPECT_EQ(parseIpv4("10.0.2.999"), std::nullopt);
  EXPECT_EQ(parseIpv4("10.0.2"), std::nullopt);
}

TEST(Addr, FormatsMatchPrintf) {
  const auto printed = [](const char* fmt, auto... args) {
    char buf[32];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return std::string(buf);
  };
  for (std::uint32_t v = 0; v <= 0xffff; ++v) {
    ASSERT_EQ(toString(Mac16{static_cast<std::uint16_t>(v)}),
              printed("0x%04x", v));
  }
  Rng rng(0x4d4143);
  for (int trial = 0; trial < 100000; ++trial) {
    Mac48 mac;
    for (auto& byte : mac.bytes) byte = static_cast<std::uint8_t>(rng.nextBelow(256));
    const auto& b = mac.bytes;
    ASSERT_EQ(toString(mac),
              printed("%02x:%02x:%02x:%02x:%02x:%02x", b[0], b[1], b[2], b[3],
                      b[4], b[5]));
    const Ipv4Addr ip{static_cast<std::uint32_t>(rng.next())};
    ASSERT_EQ(toString(ip),
              printed("%u.%u.%u.%u", (ip.value >> 24) & 0xff,
                      (ip.value >> 16) & 0xff, (ip.value >> 8) & 0xff,
                      ip.value & 0xff));
    Ipv6Addr ip6;
    for (auto& byte : ip6.bytes) byte = static_cast<std::uint8_t>(rng.nextBelow(256));
    std::string expected;
    for (std::size_t i = 0; i < ip6.bytes.size(); i += 2) {
      expected += printed(i ? ":%02x%02x" : "%02x%02x", ip6.bytes[i],
                          ip6.bytes[i + 1]);
    }
    ASSERT_EQ(toString(ip6), expected);
  }
}

TEST(Addr, Ipv6LinkLocalEmbedsShortAddress) {
  const Ipv6Addr addr = Ipv6Addr::linkLocalFromShort(Mac16{0x1234});
  EXPECT_EQ(addr.embeddedShort(), Mac16{0x1234});
  EXPECT_FALSE(addr.isMulticast());
  EXPECT_TRUE(Ipv6Addr::allNodesMulticast().isMulticast());
  EXPECT_EQ(Ipv6Addr{}.embeddedShort(), std::nullopt);
}

// --- IEEE 802.15.4 -----------------------------------------------------------------

TEST(Ieee802154, EncodeDecodeRoundTrip) {
  Ieee802154Frame frame;
  frame.type = WpanFrameType::kData;
  frame.securityEnabled = true;
  frame.ackRequest = true;
  frame.seq = 0x42;
  frame.panId = 0x22;
  frame.dst = Mac16{0x0001};
  frame.src = Mac16{0x0005};
  frame.payload = bytesOf("hello");

  const Bytes raw = frame.encode();
  auto decoded = decodeIeee802154(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->fcsValid);
  EXPECT_EQ(decoded->frame.type, WpanFrameType::kData);
  EXPECT_TRUE(decoded->frame.securityEnabled);
  EXPECT_TRUE(decoded->frame.ackRequest);
  EXPECT_EQ(decoded->frame.seq, 0x42);
  EXPECT_EQ(decoded->frame.panId, 0x22);
  EXPECT_EQ(decoded->frame.dst, Mac16{0x0001});
  EXPECT_EQ(decoded->frame.src, Mac16{0x0005});
  EXPECT_EQ(toBytes(decoded->frame.payload), bytesOf("hello"));
}

TEST(Ieee802154, CorruptedFcsStillDecodesButFlagged) {
  Ieee802154Frame frame;
  frame.src = Mac16{0x0009};
  frame.payload = bytesOf("data");
  Bytes raw = frame.encode();
  raw[raw.size() - 1] ^= 0xff;
  auto decoded = decodeIeee802154(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->fcsValid);
  EXPECT_EQ(decoded->frame.src, Mac16{0x0009});
}

TEST(Ieee802154, TruncatedFrameRejected) {
  Ieee802154Frame frame;
  const Bytes raw = frame.encode();
  for (std::size_t cut = 0; cut < 9; ++cut) {
    EXPECT_EQ(decodeIeee802154(BytesView(raw).subspan(0, cut)), std::nullopt)
        << "prefix length " << cut;
  }
}

// --- CTP -----------------------------------------------------------------------------

TEST(Ctp, DataRoundTrip) {
  CtpData data;
  data.options = 0x01;
  data.thl = 3;
  data.etx = 40;
  data.origin = Mac16{0x0006};
  data.seqno = 77;
  data.collectId = 0x20;
  data.payload = bytesOf("\x0b\x86\x01\x00");
  const Bytes raw = data.encode();
  auto decoded = decodeCtpData(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->thl, 3);
  EXPECT_EQ(decoded->etx, 40);
  EXPECT_EQ(decoded->origin, Mac16{0x0006});
  EXPECT_EQ(decoded->seqno, 77);
  EXPECT_EQ(toBytes(decoded->payload), data.payload);
}

TEST(Ctp, BeaconRoundTrip) {
  CtpRoutingBeacon beacon;
  beacon.parent = Mac16{0x0002};
  beacon.etx = 20;
  auto decoded = decodeCtpBeacon(BytesView(beacon.encode()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->parent, Mac16{0x0002});
  EXPECT_EQ(decoded->etx, 20);
}

TEST(Ctp, TruncatedDataRejected) {
  EXPECT_EQ(decodeCtpData(BytesView(bytesOf("\x01\x02\x03"))), std::nullopt);
}

// --- ZigBee -----------------------------------------------------------------------------

TEST(Zigbee, NwkRoundTrip) {
  ZigbeeNwkFrame frame;
  frame.type = ZigbeeFrameType::kData;
  frame.securityEnabled = true;
  frame.dst = Mac16{0x0000};
  frame.src = Mac16{0x0014};
  frame.radius = 5;
  frame.seq = 99;
  frame.payload = {kZigbeeAppReport, 0x12, 0x34};
  const Bytes raw = frame.encode();
  auto decoded = decodeZigbeeNwk(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->securityEnabled);
  EXPECT_EQ(decoded->src, Mac16{0x0014});
  EXPECT_EQ(decoded->radius, 5);
  EXPECT_EQ(toBytes(decoded->payload), frame.payload);
}

TEST(Zigbee, CommandId) {
  ZigbeeNwkFrame frame;
  frame.type = ZigbeeFrameType::kCommand;
  frame.payload = {static_cast<std::uint8_t>(ZigbeeCommand::kRouteRequest)};
  EXPECT_EQ(frame.command(), ZigbeeCommand::kRouteRequest);
  frame.payload.clear();
  EXPECT_EQ(frame.command(), std::nullopt);
}

TEST(Zigbee, WrongDispatchRejected) {
  Bytes raw = {0x99, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(decodeZigbeeNwk(BytesView(raw)), std::nullopt);
}

// --- IPv4 / transport ----------------------------------------------------------------------

TEST(Ipv4, HeaderRoundTripWithValidChecksum) {
  Ipv4Header ip;
  ip.tos = 0x10;
  ip.identification = 0x4242;
  ip.ttl = 17;
  ip.protocol = IpProto::kUdp;
  ip.src = *parseIpv4("10.0.0.5");
  ip.dst = *parseIpv4("198.51.100.1");
  const Bytes payload = bytesOf("payload!");
  const Bytes raw = ip.encode(payload);
  auto decoded = decodeIpv4(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->checksumValid);
  EXPECT_EQ(decoded->header.ttl, 17);
  EXPECT_EQ(decoded->header.protocol, IpProto::kUdp);
  EXPECT_EQ(toString(decoded->header.src), "10.0.0.5");
  EXPECT_EQ(toBytes(decoded->payload), payload);
}

TEST(Ipv4, CorruptedHeaderChecksumDetected) {
  Ipv4Header ip;
  ip.src = Ipv4Addr{1};
  ip.dst = Ipv4Addr{2};
  Bytes raw = ip.encode(BytesView());
  raw[8] ^= 0x01;  // TTL flip
  auto decoded = decodeIpv4(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->checksumValid);
}

TEST(Ipv4, PseudoHeaderLayout) {
  const auto pseudo = ipv4PseudoHeader(*parseIpv4("10.0.0.2"),
                                       *parseIpv4("192.168.1.9"),
                                       IpProto::kUdp, 0x1234);
  const Bytes expected = {10, 0, 0, 2, 192, 168, 1, 9, 0, 17, 0x12, 0x34};
  EXPECT_EQ(Bytes(pseudo.begin(), pseudo.end()), expected);
}

TEST(Tcp, SegmentRoundTripWithPseudoHeaderChecksum) {
  const Ipv4Addr src = *parseIpv4("10.0.0.2");
  const Ipv4Addr dst = *parseIpv4("10.0.0.9");
  TcpSegment seg;
  seg.srcPort = 40001;
  seg.dstPort = 443;
  seg.seq = 0x10203040;
  seg.ackNo = 0x50607080;
  seg.flags.syn = true;
  seg.window = 1024;
  seg.payload = bytesOf("GET /");
  const Bytes raw = seg.encode(src, dst);
  auto decoded = decodeTcp(BytesView(raw), src, dst);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->checksumValid);
  EXPECT_EQ(decoded->segment.srcPort, 40001);
  EXPECT_TRUE(decoded->segment.flags.isSynOnly());
  EXPECT_EQ(toBytes(decoded->segment.payload), bytesOf("GET /"));
}

TEST(Tcp, ChecksumFailsUnderSpoofedAddresses) {
  const Ipv4Addr src = *parseIpv4("10.0.0.2");
  const Ipv4Addr dst = *parseIpv4("10.0.0.9");
  TcpSegment seg;
  seg.flags.ack = true;
  const Bytes raw = seg.encode(src, dst);
  auto decoded = decodeTcp(BytesView(raw), *parseIpv4("10.0.0.3"), dst);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->checksumValid);
}

TEST(Tcp, FlagClassification) {
  TcpFlags syn = TcpFlags::decode(0x02);
  EXPECT_TRUE(syn.isSynOnly());
  TcpFlags synAck = TcpFlags::decode(0x12);
  EXPECT_TRUE(synAck.isSynAck());
  EXPECT_FALSE(synAck.isSynOnly());
  EXPECT_EQ(TcpFlags::decode(0x19).encode(), 0x19);
}

TEST(Udp, DatagramRoundTrip) {
  const Ipv4Addr src = *parseIpv4("10.0.0.4");
  const Ipv4Addr dst = *parseIpv4("10.0.0.5");
  UdpDatagram dg;
  dg.srcPort = 5353;
  dg.dstPort = 5888;
  dg.payload = bytesOf("knowgget-sync");
  const Bytes raw = dg.encode(src, dst);
  auto decoded = decodeUdp(BytesView(raw), src, dst);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->checksumValid);
  EXPECT_EQ(decoded->datagram.dstPort, 5888);
  EXPECT_EQ(toBytes(decoded->datagram.payload), dg.payload);
}

TEST(Icmp, EchoRoundTrip) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.identifier = 0x1234;
  msg.sequence = 7;
  msg.payload = bytesOf("ping");
  const Bytes raw = msg.encode();
  auto decoded = decodeIcmp(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->checksumValid);
  EXPECT_EQ(decoded->message.type, IcmpType::kEchoRequest);
  EXPECT_EQ(decoded->message.identifier, 0x1234);
  EXPECT_EQ(toBytes(decoded->message.payload), bytesOf("ping"));
}

// --- IPv6 / ICMPv6 / RPL ----------------------------------------------------------------------

TEST(Ipv6, HeaderRoundTrip) {
  Ipv6Header ip;
  ip.hopLimit = 3;
  ip.src = Ipv6Addr::linkLocalFromShort(Mac16{0x0002});
  ip.dst = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  const Bytes payload = bytesOf("sixlowpan");
  const Bytes raw = ip.encode(payload);
  auto decoded = decodeIpv6(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.hopLimit, 3);
  EXPECT_EQ(decoded->header.src.embeddedShort(), Mac16{0x0002});
  EXPECT_EQ(toBytes(decoded->payload), payload);
}

TEST(Ipv6, PseudoHeaderLayout) {
  const Ipv6Addr src = Ipv6Addr::linkLocalFromShort(Mac16{0x0002});
  const Ipv6Addr dst = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  const auto pseudo = ipv6PseudoHeader(src, dst, 0x01020304, 58);
  Bytes expected(src.bytes.begin(), src.bytes.end());
  expected.insert(expected.end(), dst.bytes.begin(), dst.bytes.end());
  for (int b : {1, 2, 3, 4, 0, 0, 0, 58}) {
    expected.push_back(static_cast<std::uint8_t>(b));
  }
  EXPECT_EQ(Bytes(pseudo.begin(), pseudo.end()), expected);
}

TEST(Icmpv6, ChecksumOverPseudoHeader) {
  const Ipv6Addr src = Ipv6Addr::linkLocalFromShort(Mac16{0x0002});
  const Ipv6Addr dst = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kEchoRequest;
  msg.body = bytesOf("abcd");
  const Bytes raw = msg.encode(src, dst);
  auto ok = decodeIcmpv6(BytesView(raw), src, dst);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->checksumValid);
  // Same bytes, different claimed source: checksum must fail.
  auto spoofed =
      decodeIcmpv6(BytesView(raw), Ipv6Addr::linkLocalFromShort(Mac16{0x0009}), dst);
  ASSERT_TRUE(spoofed.has_value());
  EXPECT_FALSE(spoofed->checksumValid);
}

TEST(Rpl, DioRoundTrip) {
  RplDio dio;
  dio.instanceId = 1;
  dio.versionNumber = 3;
  dio.rank = 512;
  dio.dtsn = 9;
  dio.dodagId = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  auto decoded = decodeRplDio(BytesView(dio.encodeBody()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rank, 512);
  EXPECT_EQ(decoded->dodagId.embeddedShort(), Mac16{0x0001});
}

TEST(Rpl, DaoRoundTrip) {
  RplDao dao;
  dao.instanceId = 1;
  dao.daoSequence = 4;
  dao.dodagId = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  dao.target = Ipv6Addr::linkLocalFromShort(Mac16{0x0007});
  auto decoded = decodeRplDao(BytesView(dao.encodeBody()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->daoSequence, 4);
  EXPECT_EQ(decoded->target.embeddedShort(), Mac16{0x0007});
}

// --- 802.11 ------------------------------------------------------------------------------------

TEST(Wifi, DataFrameRoundTripAllDirections) {
  for (const auto& [toDs, fromDs] : {std::pair{false, false},
                                     std::pair{true, false},
                                     std::pair{false, true}}) {
    WifiFrame frame;
    frame.kind = WifiFrameKind::kData;
    frame.toDs = toDs;
    frame.fromDs = fromDs;
    frame.dst = Mac48{{2, 0, 0, 0, 0, 1}};
    frame.src = Mac48{{2, 0, 0, 0, 0, 2}};
    frame.bssid = Mac48{{2, 0, 0, 0, 0, 3}};
    frame.seqCtl = 0x0123;
    frame.body = bytesOf("body");
    const Bytes raw = frame.encode();
    auto decoded = decodeWifi(BytesView(raw));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->fcsValid);
    EXPECT_EQ(decoded->frame.dst, frame.dst) << toDs << fromDs;
    EXPECT_EQ(decoded->frame.src, frame.src);
    EXPECT_EQ(decoded->frame.bssid, frame.bssid);
    EXPECT_EQ(toBytes(decoded->frame.body), frame.body);
  }
}

TEST(Wifi, BeaconCarriesSsid) {
  WifiFrame beacon;
  beacon.kind = WifiFrameKind::kBeacon;
  beacon.body = beaconBody("kalis-home");
  const Bytes raw = beacon.encode();
  auto decoded = decodeWifi(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->frame.kind, WifiFrameKind::kBeacon);
  EXPECT_EQ(beaconSsid(BytesView(decoded->frame.body)), "kalis-home");
}

TEST(Wifi, LlcSnapRoundTrip) {
  const Bytes payload = bytesOf("ip-bytes");
  const Bytes wrapped = llcSnapWrap(kEthertypeIpv4, BytesView(payload));
  auto unwrapped = llcSnapUnwrap(BytesView(wrapped));
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(unwrapped->ethertype, kEthertypeIpv4);
  EXPECT_EQ(Bytes(unwrapped->payload.begin(), unwrapped->payload.end()), payload);
}

TEST(Wifi, CorruptFcsFlagged) {
  WifiFrame frame;
  frame.kind = WifiFrameKind::kData;
  frame.body = bytesOf("x");
  Bytes raw = frame.encode();
  raw[raw.size() - 2] ^= 0x40;
  auto decoded = decodeWifi(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->fcsValid);
}

// --- BLE ------------------------------------------------------------------------------------------

TEST(Ble, AdvRoundTrip) {
  BleAdvPdu adv;
  adv.type = BlePduType::kAdvInd;
  adv.advAddr = Mac48{{0xc0, 1, 2, 3, 4, 5}};
  adv.advData = bytesOf("AUGUST");
  const Bytes raw = adv.encode();
  auto decoded = decodeBleAdv(BytesView(raw));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->advAddr, adv.advAddr);
  EXPECT_EQ(toBytes(decoded->advData), adv.advData);
}

// --- dissector classification (parameterized) -----------------------------------------------------

struct ClassifyCase {
  const char* name;
  CapturedPacket (*make)();
  PacketType expected;
};

// Without a printer gtest dumps the struct's raw bytes, pointers included, and
// those bytes become part of the ctest test names, which then change from one
// build to the next.
void PrintTo(const ClassifyCase& c, std::ostream* os) {
  *os << '"' << c.name << '"';
}

CapturedPacket wrapWpan(Bytes payload) {
  Ieee802154Frame frame;
  frame.dst = Mac16{0x0001};
  frame.src = Mac16{0x0005};
  frame.payload = std::move(payload);
  return CapturedPacket{Medium::kIeee802154, frame.encode(), {}};
}

CapturedPacket wrapWifiIp(IpProto proto, Bytes l4) {
  Ipv4Header ip;
  ip.src = Ipv4Addr{0x0a000001};
  ip.dst = Ipv4Addr{0x0a000002};
  ip.protocol = proto;
  WifiFrame frame;
  frame.kind = WifiFrameKind::kData;
  frame.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(l4)));
  return CapturedPacket{Medium::kWifi, frame.encode(), {}};
}

const ClassifyCase kCases[] = {
    {"CtpData",
     [] {
       CtpData d;
       d.origin = Mac16{0x0004};
       return wrapWpan(wrapTinyosAm(kAmCtpData, BytesView(d.encode())));
     },
     PacketType::kCtpData},
    {"CtpRouting",
     [] {
       CtpRoutingBeacon b;
       return wrapWpan(wrapTinyosAm(kAmCtpRouting, BytesView(b.encode())));
     },
     PacketType::kCtpRouting},
    {"ZigbeeData",
     [] {
       ZigbeeNwkFrame z;
       z.src = Mac16{0x0005};
       z.payload = {kZigbeeAppReport};
       return wrapWpan(z.encode());
     },
     PacketType::kZigbeeData},
    {"ZigbeeRouting",
     [] {
       ZigbeeNwkFrame z;
       z.type = ZigbeeFrameType::kCommand;
       z.payload = {static_cast<std::uint8_t>(ZigbeeCommand::kLinkStatus)};
       return wrapWpan(z.encode());
     },
     PacketType::kZigbeeRouting},
    {"RplDio",
     [] {
       RplDio dio;
       dio.rank = 256;
       Icmpv6Message m;
       m.type = Icmpv6Type::kRplControl;
       m.code = kRplCodeDio;
       m.body = dio.encodeBody();
       Ipv6Header ip;
       ip.src = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
       ip.dst = Ipv6Addr::allNodesMulticast();
       Bytes payload;
       payload.push_back(kDispatchIpv6Uncompressed);
       const Bytes packet = ip.encode(m.encode(ip.src, ip.dst));
       payload.insert(payload.end(), packet.begin(), packet.end());
       return wrapWpan(std::move(payload));
     },
     PacketType::kRplDio},
    {"TcpSyn",
     [] {
       TcpSegment t;
       t.flags.syn = true;
       return wrapWifiIp(IpProto::kTcp,
                         t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kTcpSyn},
    {"TcpSynAck",
     [] {
       TcpSegment t;
       t.flags.syn = true;
       t.flags.ack = true;
       return wrapWifiIp(IpProto::kTcp,
                         t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kTcpSynAck},
    {"TcpData",
     [] {
       TcpSegment t;
       t.flags.ack = true;
       t.flags.psh = true;
       t.payload = bytesOf("x");
       return wrapWifiIp(IpProto::kTcp,
                         t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kTcpData},
    {"Udp",
     [] {
       UdpDatagram u;
       return wrapWifiIp(IpProto::kUdp,
                         u.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kUdp},
    {"IcmpEchoReq",
     [] {
       IcmpMessage m;
       m.type = IcmpType::kEchoRequest;
       return wrapWifiIp(IpProto::kIcmp, m.encode());
     },
     PacketType::kIcmpEchoReq},
    {"IcmpEchoRep",
     [] {
       IcmpMessage m;
       m.type = IcmpType::kEchoReply;
       return wrapWifiIp(IpProto::kIcmp, m.encode());
     },
     PacketType::kIcmpEchoRep},
    {"WifiBeacon",
     [] {
       WifiFrame f;
       f.kind = WifiFrameKind::kBeacon;
       f.body = beaconBody("x");
       return CapturedPacket{Medium::kWifi, f.encode(), {}};
     },
     PacketType::kWifiBeacon},
    {"WifiDeauth",
     [] {
       WifiFrame f;
       f.kind = WifiFrameKind::kDeauth;
       return CapturedPacket{Medium::kWifi, f.encode(), {}};
     },
     PacketType::kWifiDeauth},
    {"BleAdv",
     [] {
       BleAdvPdu adv;
       return CapturedPacket{Medium::kBluetooth, adv.encode(), {}};
     },
     PacketType::kBleAdv},
};

class DissectClassify : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(DissectClassify, ClassifiesCorrectly) {
  const ClassifyCase& test = GetParam();
  const Dissection d = dissect(test.make());
  EXPECT_EQ(d.type, test.expected) << packetTypeName(d.type);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, DissectClassify, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ClassifyCase>& info) {
      return info.param.name;
    });

TEST(Dissect, LinkAndNetworkEntities) {
  TcpSegment t;
  t.flags.syn = true;
  const Dissection d = dissect(wrapWifiIp(
      IpProto::kTcp, t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002})));
  EXPECT_EQ(d.networkSource(), "10.0.0.1");
  EXPECT_EQ(d.networkDest(), "10.0.0.2");
  EXPECT_EQ(d.linkSource(), "00:00:00:00:00:00");
}

TEST(Dissect, BroadcastDetection) {
  Ieee802154Frame frame;
  frame.dst = Mac16{Mac16::kBroadcast};
  const Dissection d =
      dissect(CapturedPacket{Medium::kIeee802154, frame.encode(), {}});
  EXPECT_TRUE(d.isBroadcastDest());
}

// Robustness property: the dissector must never crash or misbehave on
// truncated prefixes or bit-flipped mutations of valid frames.
class DissectFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DissectFuzz, SurvivesTruncationAndMutation) {
  Rng rng(GetParam());
  for (const ClassifyCase& test : kCases) {
    const CapturedPacket original = test.make();
    // All truncations.
    for (std::size_t len = 0; len <= original.raw.size(); ++len) {
      CapturedPacket cut = original;
      cut.raw.resize(len);
      const Dissection d = dissect(cut);
      (void)d.linkSource();
      (void)d.isBroadcastDest();
    }
    // Random mutations.
    for (int i = 0; i < 20; ++i) {
      CapturedPacket mutated = original;
      if (mutated.raw.empty()) break;
      const std::size_t pos = rng.pickIndex(mutated.raw.size());
      mutated.raw[pos] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
      const Dissection d = dissect(mutated);
      (void)d.networkSource();
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DissectFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace kalis::net
