// Frozen pre-refactor dissector (see header). The decode helpers below are
// verbatim copies of the old net/ codec decoders, with the single difference
// that they populate the owning (Bytes-storage) struct variants the old
// Dissection carried. Kept self-contained so changes to the live decoders
// can never silently leak into the reference behavior.
#include "net/dissect_legacy.hpp"

#include <algorithm>

#include "util/checksum.hpp"

namespace kalis::net::legacy {

namespace {

// --- 802.15.4 (old decodeIeee802154) ----------------------------------------

constexpr std::uint16_t kFrameTypeMask = 0x0007;
constexpr std::uint16_t kSecurityBit = 0x0008;
constexpr std::uint16_t kAckRequestBit = 0x0020;

struct LegacyWpanDecoded {
  Ieee802154Frame frame;
  bool fcsValid = false;
};

std::optional<LegacyWpanDecoded> legacyDecodeIeee802154(BytesView raw) {
  ByteReader r(raw);
  auto fcf = r.u16le();
  auto seq = r.u8();
  auto pan = r.u16le();
  auto dst = r.u16le();
  auto src = r.u16le();
  if (!fcf || !seq || !pan || !dst || !src) return std::nullopt;
  if (r.remaining() < 2) return std::nullopt;  // room for the FCS

  LegacyWpanDecoded d;
  d.frame.type = static_cast<WpanFrameType>(*fcf & kFrameTypeMask);
  d.frame.securityEnabled = (*fcf & kSecurityBit) != 0;
  d.frame.ackRequest = (*fcf & kAckRequestBit) != 0;
  d.frame.seq = *seq;
  d.frame.panId = *pan;
  d.frame.dst = Mac16{*dst};
  d.frame.src = Mac16{*src};

  const std::size_t payloadLen = r.remaining() - 2;
  auto payload = r.take(payloadLen);
  auto fcs = r.u16le();
  d.frame.payload.assign(payload->begin(), payload->end());
  d.fcsValid = (*fcs == crc16Ccitt(raw.subspan(0, raw.size() - 2)));
  return d;
}

// --- 802.11 (old decodeWifi) -------------------------------------------------

Mac48 legacyReadMac(ByteReader& r) {
  Mac48 a;
  auto bytes = r.take(6);
  if (bytes) std::copy(bytes->begin(), bytes->end(), a.bytes.begin());
  return a;
}

struct LegacyWifiDecoded {
  WifiFrame frame;
  bool fcsValid = false;
};

std::optional<LegacyWifiDecoded> legacyDecodeWifi(BytesView raw) {
  if (raw.size() < 24 + 4) return std::nullopt;
  ByteReader r(raw);
  auto fc0 = *r.u8();
  auto fc1 = *r.u8();
  r.u16le();  // duration
  if ((fc0 & 0x03) != 0) return std::nullopt;  // protocol version must be 0

  LegacyWifiDecoded d;
  const std::uint8_t type = (fc0 >> 2) & 0x3;
  const std::uint8_t subtype = (fc0 >> 4) & 0xf;
  if (type == 2) {
    d.frame.kind = WifiFrameKind::kData;
  } else if (type == 0 && subtype == 8) {
    d.frame.kind = WifiFrameKind::kBeacon;
  } else if (type == 0 && subtype == 4) {
    d.frame.kind = WifiFrameKind::kProbeRequest;
  } else if (type == 0 && subtype == 12) {
    d.frame.kind = WifiFrameKind::kDeauth;
  } else {
    return std::nullopt;
  }
  d.frame.toDs = fc1 & 0x01;
  d.frame.fromDs = fc1 & 0x02;
  d.frame.protectedFrame = fc1 & 0x40;

  const Mac48 a1 = legacyReadMac(r);
  const Mac48 a2 = legacyReadMac(r);
  const Mac48 a3 = legacyReadMac(r);
  if (d.frame.toDs && !d.frame.fromDs) {
    d.frame.bssid = a1;
    d.frame.src = a2;
    d.frame.dst = a3;
  } else if (!d.frame.toDs && d.frame.fromDs) {
    d.frame.dst = a1;
    d.frame.bssid = a2;
    d.frame.src = a3;
  } else {
    d.frame.dst = a1;
    d.frame.src = a2;
    d.frame.bssid = a3;
  }
  d.frame.seqCtl = *r.u16le();

  const std::size_t bodyLen = r.remaining() - 4;
  auto body = *r.take(bodyLen);
  d.frame.body.assign(body.begin(), body.end());
  auto fcs = *r.u32le();
  d.fcsValid = (fcs == crc32(raw.subspan(0, raw.size() - 4)));
  return d;
}

// --- ZigBee NWK (old decodeZigbeeNwk) ----------------------------------------

constexpr std::uint16_t kZbTypeMask = 0x0003;
constexpr std::uint16_t kZbSecurityBit = 0x0200;

std::optional<ZigbeeNwkFrame> legacyDecodeZigbeeNwk(BytesView raw) {
  ByteReader r(raw);
  auto dispatch = r.u8();
  if (!dispatch || *dispatch != kDispatchZigbeeNwk) return std::nullopt;
  auto fc = r.u16le();
  auto dst = r.u16le();
  auto src = r.u16le();
  auto radius = r.u8();
  auto seq = r.u8();
  if (!fc || !dst || !src || !radius || !seq) return std::nullopt;
  ZigbeeNwkFrame f;
  f.type = static_cast<ZigbeeFrameType>(*fc & kZbTypeMask);
  f.securityEnabled = (*fc & kZbSecurityBit) != 0;
  f.dst = Mac16{*dst};
  f.src = Mac16{*src};
  f.radius = *radius;
  f.seq = *seq;
  auto rest = r.rest();
  f.payload.assign(rest.begin(), rest.end());
  return f;
}

// --- CTP (old decodeCtpData / decodeCtpBeacon) -------------------------------

std::optional<CtpData> legacyDecodeCtpData(BytesView raw) {
  ByteReader r(raw);
  CtpData d;
  auto options = r.u8();
  auto thl = r.u8();
  auto etx = r.u16be();
  auto origin = r.u16be();
  auto seqno = r.u8();
  auto collectId = r.u8();
  if (!options || !thl || !etx || !origin || !seqno || !collectId) {
    return std::nullopt;
  }
  d.options = *options;
  d.thl = *thl;
  d.etx = *etx;
  d.origin = Mac16{*origin};
  d.seqno = *seqno;
  d.collectId = *collectId;
  auto rest = r.rest();
  d.payload.assign(rest.begin(), rest.end());
  return d;
}

std::optional<CtpRoutingBeacon> legacyDecodeCtpBeacon(BytesView raw) {
  ByteReader r(raw);
  CtpRoutingBeacon b;
  auto options = r.u8();
  auto parent = r.u16be();
  auto etx = r.u16be();
  if (!options || !parent || !etx) return std::nullopt;
  b.options = *options;
  b.parent = Mac16{*parent};
  b.etx = *etx;
  return b;
}

// --- IPv4 (old decodeIpv4) ---------------------------------------------------

struct LegacyIpv4Decoded {
  Ipv4Header header;
  bool checksumValid = false;
  Bytes payload;
};

std::optional<LegacyIpv4Decoded> legacyDecodeIpv4(BytesView raw) {
  if (raw.size() < 20) return std::nullopt;
  ByteReader r(raw);
  auto verIhl = r.u8();
  if ((*verIhl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = (*verIhl & 0x0f) * 4u;
  if (ihl < 20 || raw.size() < ihl) return std::nullopt;
  auto tos = r.u8();
  auto totalLen = r.u16be();
  auto ident = r.u16be();
  r.u16be();  // flags/fragment
  auto ttl = r.u8();
  auto proto = r.u8();
  r.u16be();  // checksum (validated over the whole header below)
  auto src = r.u32be();
  auto dst = r.u32be();
  if (!dst) return std::nullopt;
  r.skip(ihl - 20);

  LegacyIpv4Decoded d;
  d.header.tos = *tos;
  d.header.identification = *ident;
  d.header.ttl = *ttl;
  d.header.protocol = static_cast<IpProto>(*proto);
  d.header.src = Ipv4Addr{*src};
  d.header.dst = Ipv4Addr{*dst};
  d.checksumValid = internetChecksum(raw.subspan(0, ihl)) == 0;

  std::size_t payloadLen = *totalLen >= ihl ? *totalLen - ihl : 0;
  if (payloadLen > raw.size() - ihl) payloadLen = raw.size() - ihl;
  auto payload = raw.subspan(ihl, payloadLen);
  d.payload.assign(payload.begin(), payload.end());
  return d;
}

// --- IPv6 / ICMPv6 / RPL (old decoders) --------------------------------------

struct LegacyIpv6Decoded {
  Ipv6Header header;
  Bytes payload;
};

std::optional<LegacyIpv6Decoded> legacyDecodeIpv6(BytesView raw) {
  if (raw.size() < 40) return std::nullopt;
  ByteReader r(raw);
  auto vtf = *r.u32be();
  if ((vtf >> 28) != 6) return std::nullopt;
  LegacyIpv6Decoded d;
  d.header.trafficClass = static_cast<std::uint8_t>((vtf >> 20) & 0xff);
  d.header.flowLabel = vtf & 0xfffff;
  auto payloadLen = *r.u16be();
  d.header.nextHeader = *r.u8();
  d.header.hopLimit = *r.u8();
  auto srcBytes = *r.take(16);
  auto dstBytes = *r.take(16);
  std::copy(srcBytes.begin(), srcBytes.end(), d.header.src.bytes.begin());
  std::copy(dstBytes.begin(), dstBytes.end(), d.header.dst.bytes.begin());
  std::size_t len = payloadLen;
  if (len > r.remaining()) len = r.remaining();
  auto payload = *r.take(len);
  d.payload.assign(payload.begin(), payload.end());
  return d;
}

struct LegacyIcmpv6Decoded {
  Icmpv6Message message;
  bool checksumValid = false;
};

std::optional<LegacyIcmpv6Decoded> legacyDecodeIcmpv6(BytesView raw,
                                                      const Ipv6Addr& src,
                                                      const Ipv6Addr& dst) {
  if (raw.size() < 4) return std::nullopt;
  ByteReader r(raw);
  LegacyIcmpv6Decoded d;
  d.message.type = static_cast<Icmpv6Type>(*r.u8());
  d.message.code = *r.u8();
  r.u16be();  // checksum
  auto body = r.rest();
  d.message.body.assign(body.begin(), body.end());
  const auto pseudo =
      ipv6PseudoHeader(src, dst, static_cast<std::uint32_t>(raw.size()),
                       static_cast<std::uint8_t>(IpProto::kIcmpv6));
  d.checksumValid = internetChecksum2(pseudo, raw) == 0;
  return d;
}

std::optional<RplDio> legacyDecodeRplDio(BytesView body) {
  if (body.size() < 24) return std::nullopt;
  ByteReader r(body);
  RplDio d;
  d.instanceId = *r.u8();
  d.versionNumber = *r.u8();
  d.rank = *r.u16be();
  r.u8();
  d.dtsn = *r.u8();
  r.u8();
  r.u8();
  auto id = *r.take(16);
  std::copy(id.begin(), id.end(), d.dodagId.bytes.begin());
  return d;
}

std::optional<RplDao> legacyDecodeRplDao(BytesView body) {
  if (body.size() < 36) return std::nullopt;
  ByteReader r(body);
  RplDao d;
  d.instanceId = *r.u8();
  r.u8();
  r.u8();
  d.daoSequence = *r.u8();
  auto id = *r.take(16);
  std::copy(id.begin(), id.end(), d.dodagId.bytes.begin());
  auto target = *r.take(16);
  std::copy(target.begin(), target.end(), d.target.bytes.begin());
  return d;
}

// --- Transport (old decodeTcp / decodeUdp / decodeIcmp) ----------------------

struct LegacyTcpDecoded {
  TcpSegment segment;
  bool checksumValid = false;
};

std::optional<LegacyTcpDecoded> legacyDecodeTcp(BytesView raw, Ipv4Addr src,
                                                Ipv4Addr dst) {
  if (raw.size() < 20) return std::nullopt;
  ByteReader r(raw);
  LegacyTcpDecoded d;
  d.segment.srcPort = *r.u16be();
  d.segment.dstPort = *r.u16be();
  d.segment.seq = *r.u32be();
  d.segment.ackNo = *r.u32be();
  auto offsetByte = *r.u8();
  const std::size_t headerLen = (offsetByte >> 4) * 4u;
  if (headerLen < 20 || headerLen > raw.size()) return std::nullopt;
  d.segment.flags = TcpFlags::decode(*r.u8());
  d.segment.window = *r.u16be();
  r.u16be();  // checksum
  r.u16be();  // urgent
  r.skip(headerLen - 20);
  auto payload = r.rest();
  d.segment.payload.assign(payload.begin(), payload.end());
  const auto pseudo = ipv4PseudoHeader(src, dst, IpProto::kTcp,
                                        static_cast<std::uint16_t>(raw.size()));
  d.checksumValid = internetChecksum2(pseudo, raw) == 0;
  return d;
}

struct LegacyUdpDecoded {
  UdpDatagram datagram;
  bool checksumValid = false;
};

std::optional<LegacyUdpDecoded> legacyDecodeUdp(BytesView raw, Ipv4Addr src,
                                                Ipv4Addr dst) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  LegacyUdpDecoded d;
  d.datagram.srcPort = *r.u16be();
  d.datagram.dstPort = *r.u16be();
  auto len = *r.u16be();
  r.u16be();  // checksum
  if (len < 8 || len > raw.size()) return std::nullopt;
  auto payload = raw.subspan(8, len - 8);
  d.datagram.payload.assign(payload.begin(), payload.end());
  const auto pseudo =
      ipv4PseudoHeader(src, dst, IpProto::kUdp, static_cast<std::uint16_t>(len));
  d.checksumValid = internetChecksum2(pseudo, raw.subspan(0, len)) == 0;
  return d;
}

struct LegacyIcmpDecoded {
  IcmpMessage message;
  bool checksumValid = false;
};

std::optional<LegacyIcmpDecoded> legacyDecodeIcmp(BytesView raw) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  LegacyIcmpDecoded d;
  d.message.type = static_cast<IcmpType>(*r.u8());
  d.message.code = *r.u8();
  r.u16be();  // checksum
  d.message.identifier = *r.u16be();
  d.message.sequence = *r.u16be();
  auto payload = r.rest();
  d.message.payload.assign(payload.begin(), payload.end());
  d.checksumValid = internetChecksum(raw) == 0;
  return d;
}

// --- BLE (old decodeBleAdv) --------------------------------------------------

std::optional<BleAdvPdu> legacyDecodeBleAdv(BytesView raw) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  BleAdvPdu p;
  p.type = static_cast<BlePduType>(*r.u8() & 0x0f);
  const std::uint8_t len = *r.u8();
  if (len < 6 || raw.size() < 2u + len) return std::nullopt;
  auto addr = *r.take(6);
  for (std::size_t i = 0; i < 6; ++i) p.advAddr.bytes[i] = addr[5 - i];
  auto data = *r.take(len - 6u);
  p.advData.assign(data.begin(), data.end());
  return p;
}

// --- Old dissect() logic -----------------------------------------------------

void classifyTcp(LegacyDissection& d) {
  const TcpFlags& f = d.tcp->flags;
  if (f.isSynOnly()) {
    d.type = PacketType::kTcpSyn;
  } else if (f.isSynAck()) {
    d.type = PacketType::kTcpSynAck;
  } else if (f.rst) {
    d.type = PacketType::kTcpRst;
  } else if (f.fin) {
    d.type = PacketType::kTcpFin;
  } else if (!d.tcp->payload.empty()) {
    d.type = PacketType::kTcpData;
  } else if (f.ack) {
    d.type = PacketType::kTcpAck;
  } else {
    d.type = PacketType::kTcpData;
  }
}

void dissectIpv4Payload(LegacyDissection& d, const LegacyIpv4Decoded& ip) {
  d.ipv4 = ip.header;
  switch (ip.header.protocol) {
    case IpProto::kTcp: {
      if (auto t = legacyDecodeTcp(BytesView(ip.payload), ip.header.src,
                                   ip.header.dst)) {
        d.tcp = t->segment;
        d.appPayload = t->segment.payload;
        classifyTcp(d);
      } else {
        d.type = PacketType::kMalformed;
      }
      break;
    }
    case IpProto::kUdp: {
      if (auto u = legacyDecodeUdp(BytesView(ip.payload), ip.header.src,
                                   ip.header.dst)) {
        d.udp = u->datagram;
        d.appPayload = u->datagram.payload;
        d.type = PacketType::kUdp;
      } else {
        d.type = PacketType::kMalformed;
      }
      break;
    }
    case IpProto::kIcmp: {
      if (auto m = legacyDecodeIcmp(BytesView(ip.payload))) {
        d.icmp = m->message;
        d.appPayload = m->message.payload;
        switch (m->message.type) {
          case IcmpType::kEchoRequest: d.type = PacketType::kIcmpEchoReq; break;
          case IcmpType::kEchoReply: d.type = PacketType::kIcmpEchoRep; break;
          default: d.type = PacketType::kIcmpOther; break;
        }
      } else {
        d.type = PacketType::kMalformed;
      }
      break;
    }
    default:
      d.type = PacketType::kIpOther;
      break;
  }
}

void dissectIpv6Payload(LegacyDissection& d, const LegacyIpv6Decoded& ip) {
  d.ipv6 = ip.header;
  if (ip.header.nextHeader != static_cast<std::uint8_t>(IpProto::kIcmpv6)) {
    d.type = PacketType::kSixlowpanOther;
    d.appPayload = ip.payload;
    return;
  }
  auto m = legacyDecodeIcmpv6(BytesView(ip.payload), ip.header.src, ip.header.dst);
  if (!m) {
    d.type = PacketType::kMalformed;
    return;
  }
  d.icmpv6 = m->message;
  switch (m->message.type) {
    case Icmpv6Type::kEchoRequest:
      d.type = PacketType::kIcmpv6EchoReq;
      break;
    case Icmpv6Type::kEchoReply:
      d.type = PacketType::kIcmpv6EchoRep;
      break;
    case Icmpv6Type::kRplControl:
      if (m->message.code == kRplCodeDio) {
        d.rplDio = legacyDecodeRplDio(BytesView(m->message.body));
        d.type = d.rplDio ? PacketType::kRplDio : PacketType::kMalformed;
      } else if (m->message.code == kRplCodeDao) {
        d.rplDao = legacyDecodeRplDao(BytesView(m->message.body));
        d.type = d.rplDao ? PacketType::kRplDao : PacketType::kMalformed;
      } else {
        d.type = PacketType::kSixlowpanOther;
      }
      break;
  }
}

void dissectWpan(LegacyDissection& d, BytesView raw) {
  auto decoded = legacyDecodeIeee802154(raw);
  if (!decoded) {
    d.type = PacketType::kMalformed;
    return;
  }
  d.wpan = decoded->frame;
  d.wpanFcsValid = decoded->fcsValid;
  const Bytes& payload = d.wpan->payload;

  if (d.wpan->type == WpanFrameType::kAck) {
    d.type = PacketType::kWpanAck;
    return;
  }
  if (d.wpan->type == WpanFrameType::kBeacon) {
    d.type = PacketType::kWpanBeacon;
    return;
  }
  if (payload.empty()) {
    d.type = PacketType::kUnknown;
    return;
  }

  const std::uint8_t dispatch = payload[0];
  const BytesView inner = BytesView(payload).subspan(1);
  if (dispatch == kDispatchTinyosAm) {
    if (inner.empty()) {
      d.type = PacketType::kMalformed;
      return;
    }
    const std::uint8_t amId = inner[0];
    const BytesView amPayload = inner.subspan(1);
    if (amId == kAmCtpData) {
      d.ctpData = legacyDecodeCtpData(amPayload);
      if (d.ctpData) {
        d.appPayload = d.ctpData->payload;
        d.type = PacketType::kCtpData;
      } else {
        d.type = PacketType::kMalformed;
      }
    } else if (amId == kAmCtpRouting) {
      d.ctpBeacon = legacyDecodeCtpBeacon(amPayload);
      d.type = d.ctpBeacon ? PacketType::kCtpRouting : PacketType::kMalformed;
    } else {
      d.appPayload.assign(amPayload.begin(), amPayload.end());
      d.type = PacketType::kUnknown;
    }
  } else if (dispatch == kDispatchZigbeeNwk) {
    d.zigbee = legacyDecodeZigbeeNwk(BytesView(payload));
    if (!d.zigbee) {
      d.type = PacketType::kMalformed;
      return;
    }
    d.appPayload = d.zigbee->payload;
    d.type = d.zigbee->type == ZigbeeFrameType::kCommand
                 ? PacketType::kZigbeeRouting
                 : PacketType::kZigbeeData;
  } else if (dispatch == kDispatchIpv6Uncompressed) {
    auto ip = legacyDecodeIpv6(inner);
    if (!ip) {
      d.type = PacketType::kMalformed;
      return;
    }
    dissectIpv6Payload(d, *ip);
  } else {
    d.appPayload = payload;
    d.type = PacketType::kUnknown;
  }
}

void dissectWifi(LegacyDissection& d, BytesView raw) {
  auto decoded = legacyDecodeWifi(raw);
  if (!decoded) {
    d.type = PacketType::kMalformed;
    return;
  }
  d.wifi = decoded->frame;
  d.wifiFcsValid = decoded->fcsValid;
  switch (d.wifi->kind) {
    case WifiFrameKind::kBeacon:
      d.type = PacketType::kWifiBeacon;
      return;
    case WifiFrameKind::kProbeRequest:
      d.type = PacketType::kWifiProbe;
      return;
    case WifiFrameKind::kDeauth:
      d.type = PacketType::kWifiDeauth;
      return;
    case WifiFrameKind::kData:
      break;
  }
  auto llc = llcSnapUnwrap(BytesView(d.wifi->body));
  if (!llc) {
    d.type = PacketType::kUnknown;
    return;
  }
  if (llc->ethertype == kEthertypeIpv4) {
    auto ip = legacyDecodeIpv4(llc->payload);
    if (!ip) {
      d.type = PacketType::kMalformed;
      return;
    }
    dissectIpv4Payload(d, *ip);
  } else if (llc->ethertype == kEthertypeIpv6) {
    auto ip = legacyDecodeIpv6(llc->payload);
    if (!ip) {
      d.type = PacketType::kMalformed;
      return;
    }
    dissectIpv6Payload(d, *ip);
  } else {
    d.type = PacketType::kUnknown;
  }
}

void dissectBle(LegacyDissection& d, BytesView raw) {
  d.ble = legacyDecodeBleAdv(raw);
  if (!d.ble) {
    d.type = PacketType::kMalformed;
    return;
  }
  d.appPayload = d.ble->advData;
  d.type = (d.ble->type == BlePduType::kScanReq ||
            d.ble->type == BlePduType::kScanRsp)
               ? PacketType::kBleScan
               : PacketType::kBleAdv;
}

}  // namespace

std::string LegacyDissection::linkSource() const {
  if (wpan) return toString(wpan->src);
  if (wifi) return toString(wifi->src);
  if (ble) return toString(ble->advAddr);
  return "?";
}

std::string LegacyDissection::linkDest() const {
  if (wpan) return toString(wpan->dst);
  if (wifi) return toString(wifi->dst);
  if (ble) return "broadcast";
  return "?";
}

std::optional<std::string> LegacyDissection::networkSource() const {
  if (ipv4) return toString(ipv4->src);
  if (ipv6) return toString(ipv6->src);
  return std::nullopt;
}

std::optional<std::string> LegacyDissection::networkDest() const {
  if (ipv4) return toString(ipv4->dst);
  if (ipv6) return toString(ipv6->dst);
  return std::nullopt;
}

bool LegacyDissection::isBroadcastDest() const {
  if (wpan) return wpan->dst.isBroadcast();
  if (wifi) return wifi->dst.isBroadcast();
  if (ble) return true;
  return false;
}

LegacyDissection dissectLegacy(const CapturedPacket& pkt) {
  LegacyDissection d;
  d.medium = pkt.medium;
  switch (pkt.medium) {
    case Medium::kIeee802154:
      dissectWpan(d, BytesView(pkt.raw));
      break;
    case Medium::kWifi:
      dissectWifi(d, BytesView(pkt.raw));
      break;
    case Medium::kBluetooth:
      dissectBle(d, BytesView(pkt.raw));
      break;
  }
  return d;
}

}  // namespace kalis::net::legacy
