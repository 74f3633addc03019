// IPv4 header (RFC 791). Builders emit the standard 20-byte options-free
// header; the parser additionally preserves options, flags/fragment bits and
// the on-wire checksum/length so the codec can re-emit frames verbatim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kIcmpv6 = 58,
};

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  IpProto protocol = IpProto::kTcp;
  Ipv4Addr src{};
  Ipv4Addr dst{};
  // Wire-preservation fields (packetlib discipline). Builders leave the
  // defaults, which reproduce the historical 20-byte options-free header
  // byte-for-byte; the parser fills them in so encode(decode(x)) == x.
  /// IHL beyond 20 bytes, verbatim. A view aliasing the decoded buffer
  /// (keeps the header trivially destructible for BatchArena storage);
  /// builders leave it empty.
  BytesView options{};
  std::uint16_t flagsFrag = 0x4000;   ///< flags + fragment offset (DF default)
  /// Checksum / total length as seen on the wire; parsers always set them
  /// (even when wrong), builders leave them unset and get computed values.
  std::optional<std::uint16_t> wireChecksum{};
  std::optional<std::uint16_t> wireTotalLen{};

  /// Serializes header + payload with correct totalLength and checksum
  /// (or the verbatim wire values when set).
  Bytes encode(BytesView payload) const;
};

struct Ipv4Decoded {
  Ipv4Header header;
  bool checksumValid = false;
  BytesView payload;  ///< aliases the decoded buffer
  /// Bytes past totalLength (link-layer padding / slack), aliases the buffer.
  BytesView trailer;
};

std::optional<Ipv4Decoded> decodeIpv4(BytesView raw);

/// The 12-byte IPv4 pseudo-header used by TCP/UDP checksums, built on the
/// stack: every TCP/UDP checksum check on the dissect path needs one.
using Ipv4PseudoHeader = std::array<std::uint8_t, 12>;
Ipv4PseudoHeader ipv4PseudoHeader(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                                  std::uint16_t length);

}  // namespace kalis::net
