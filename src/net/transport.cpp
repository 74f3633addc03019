#include "net/transport.hpp"

#include "util/checksum.hpp"

namespace kalis::net {

std::uint8_t TcpFlags::encode() const {
  std::uint8_t bits = extra;
  if (fin) bits |= 0x01;
  if (syn) bits |= 0x02;
  if (rst) bits |= 0x04;
  if (psh) bits |= 0x08;
  if (ack) bits |= 0x10;
  return bits;
}

TcpFlags TcpFlags::decode(std::uint8_t bits) {
  TcpFlags f;
  f.fin = bits & 0x01;
  f.syn = bits & 0x02;
  f.rst = bits & 0x04;
  f.psh = bits & 0x08;
  f.ack = bits & 0x10;
  f.extra = bits & 0xE0;
  return f;
}

template <class Storage>
Bytes TcpSegmentT<Storage>::encode(Ipv4Addr src, Ipv4Addr dst) const {
  Bytes out;
  ByteWriter w(out);
  w.u16be(srcPort);
  w.u16be(dstPort);
  w.u32be(seq);
  w.u32be(ackNo);
  const std::size_t offsetWords = 5 + options.size() / 4;
  w.u8(static_cast<std::uint8_t>((offsetWords << 4) | offsetReserved));
  w.u8(flags.encode());
  w.u16be(window);
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.u16be(urgent);
  w.raw(BytesView(options));
  w.raw(payload);
  if (wireChecksum) {
    w.patchU16be(checksumOffset, *wireChecksum);
  } else {
    const auto pseudo = ipv4PseudoHeader(
        src, dst, IpProto::kTcp, static_cast<std::uint16_t>(out.size()));
    w.patchU16be(checksumOffset, internetChecksum2(pseudo, BytesView(out)));
  }
  return out;
}

std::optional<TcpDecoded> decodeTcp(BytesView raw, Ipv4Addr src, Ipv4Addr dst) {
  if (raw.size() < 20) return std::nullopt;
  ByteReader r(raw);
  TcpDecoded d;
  d.segment.srcPort = *r.u16be();
  d.segment.dstPort = *r.u16be();
  d.segment.seq = *r.u32be();
  d.segment.ackNo = *r.u32be();
  auto offsetByte = *r.u8();
  const std::size_t headerLen = (offsetByte >> 4) * 4u;
  if (headerLen < 20 || headerLen > raw.size()) return std::nullopt;
  d.segment.flags = TcpFlags::decode(*r.u8());
  d.segment.window = *r.u16be();
  d.segment.wireChecksum = *r.u16be();
  d.segment.urgent = *r.u16be();
  d.segment.offsetReserved = offsetByte & 0x0f;
  d.segment.options = *r.take(headerLen - 20);  // aliases `raw`
  d.segment.payload = r.rest();                 // ditto
  const auto pseudo = ipv4PseudoHeader(src, dst, IpProto::kTcp,
                                        static_cast<std::uint16_t>(raw.size()));
  d.checksumValid = internetChecksum2(pseudo, raw) == 0;
  return d;
}

template struct TcpSegmentT<Bytes>;
template struct TcpSegmentT<BytesView>;

template <class Storage>
Bytes UdpDatagramT<Storage>::encode(Ipv4Addr src, Ipv4Addr dst) const {
  Bytes out;
  ByteWriter w(out);
  w.u16be(srcPort);
  w.u16be(dstPort);
  w.u16be(static_cast<std::uint16_t>(8 + payload.size()));
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.raw(payload);
  if (wireChecksum) {
    w.patchU16be(checksumOffset, *wireChecksum);
  } else {
    const auto pseudo = ipv4PseudoHeader(
        src, dst, IpProto::kUdp, static_cast<std::uint16_t>(out.size()));
    std::uint16_t csum = internetChecksum2(pseudo, BytesView(out));
    if (csum == 0) csum = 0xffff;  // RFC 768: transmitted 0 = "no checksum"
    w.patchU16be(checksumOffset, csum);
  }
  return out;
}

std::optional<UdpDecoded> decodeUdp(BytesView raw, Ipv4Addr src, Ipv4Addr dst) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  UdpDecoded d;
  d.datagram.srcPort = *r.u16be();
  d.datagram.dstPort = *r.u16be();
  auto len = *r.u16be();
  d.datagram.wireChecksum = *r.u16be();
  if (len < 8 || len > raw.size()) return std::nullopt;
  d.datagram.payload = raw.subspan(8, len - 8);  // aliases `raw`
  const auto pseudo =
      ipv4PseudoHeader(src, dst, IpProto::kUdp, static_cast<std::uint16_t>(len));
  d.checksumValid = internetChecksum2(pseudo, raw.subspan(0, len)) == 0;
  return d;
}

template struct UdpDatagramT<Bytes>;
template struct UdpDatagramT<BytesView>;

template <class Storage>
Bytes IcmpMessageT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(code);
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.u16be(identifier);
  w.u16be(sequence);
  w.raw(payload);
  w.patchU16be(checksumOffset,
               wireChecksum ? *wireChecksum : internetChecksum(BytesView(out)));
  return out;
}

template struct IcmpMessageT<Bytes>;
template struct IcmpMessageT<BytesView>;

std::optional<IcmpDecoded> decodeIcmp(BytesView raw) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  IcmpDecoded d;
  d.message.type = static_cast<IcmpType>(*r.u8());
  d.message.code = *r.u8();
  d.message.wireChecksum = *r.u16be();
  d.message.identifier = *r.u16be();
  d.message.sequence = *r.u16be();
  d.message.payload = r.rest();  // aliases `raw`
  d.checksumValid = internetChecksum(raw) == 0;
  return d;
}

}  // namespace kalis::net
