#include "net/ipv4.hpp"

#include "util/checksum.hpp"

namespace kalis::net {

Bytes Ipv4Header::encode(BytesView payload) const {
  Bytes out;
  ByteWriter w(out);
  const std::size_t ihl = 20 + options.size();
  w.u8(static_cast<std::uint8_t>(0x40 | (ihl / 4)));
  w.u8(tos);
  w.u16be(wireTotalLen ? *wireTotalLen
                       : static_cast<std::uint16_t>(ihl + payload.size()));
  w.u16be(identification);
  w.u16be(flagsFrag);
  w.u8(ttl);
  w.u8(static_cast<std::uint8_t>(protocol));
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.u32be(src.value);
  w.u32be(dst.value);
  w.raw(options);
  w.patchU16be(checksumOffset,
               wireChecksum ? *wireChecksum : internetChecksum(BytesView(out)));
  w.raw(payload);
  return out;
}

std::optional<Ipv4Decoded> decodeIpv4(BytesView raw) {
  if (raw.size() < 20) return std::nullopt;
  ByteReader r(raw);
  auto verIhl = r.u8();
  if ((*verIhl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = (*verIhl & 0x0f) * 4u;
  if (ihl < 20 || raw.size() < ihl) return std::nullopt;
  auto tos = r.u8();
  auto totalLen = r.u16be();
  auto ident = r.u16be();
  auto flagsFrag = r.u16be();
  auto ttl = r.u8();
  auto proto = r.u8();
  auto checksum = r.u16be();  // validated over the whole header below
  auto src = r.u32be();
  auto dst = r.u32be();
  if (!dst) return std::nullopt;
  auto options = r.take(ihl - 20);

  Ipv4Decoded d;
  d.header.tos = *tos;
  d.header.identification = *ident;
  d.header.ttl = *ttl;
  d.header.protocol = static_cast<IpProto>(*proto);
  d.header.src = Ipv4Addr{*src};
  d.header.dst = Ipv4Addr{*dst};
  d.header.options = *options;  // aliases `raw`
  d.header.flagsFrag = *flagsFrag;
  d.header.wireChecksum = *checksum;
  d.header.wireTotalLen = *totalLen;
  d.checksumValid = internetChecksum(raw.subspan(0, ihl)) == 0;

  std::size_t payloadLen = *totalLen >= ihl ? *totalLen - ihl : 0;
  if (payloadLen > raw.size() - ihl) payloadLen = raw.size() - ihl;
  d.payload = raw.subspan(ihl, payloadLen);   // aliases `raw`
  d.trailer = raw.subspan(ihl + payloadLen);  // totalLength slack, ditto
  return d;
}

Ipv4PseudoHeader ipv4PseudoHeader(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                                  std::uint16_t length) {
  const auto byte = [](std::uint32_t v, int shift) {
    return static_cast<std::uint8_t>((v >> shift) & 0xff);
  };
  return {byte(src.value, 24), byte(src.value, 16),
          byte(src.value, 8),  byte(src.value, 0),
          byte(dst.value, 24), byte(dst.value, 16),
          byte(dst.value, 8),  byte(dst.value, 0),
          0, static_cast<std::uint8_t>(proto),
          byte(length, 8), byte(length, 0)};
}

}  // namespace kalis::net
