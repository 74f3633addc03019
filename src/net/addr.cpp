#include "net/addr.hpp"

#include "util/strings.hpp"

namespace kalis::net {

// Address labels are knowgget entities and alert fields, formatted often
// enough that a printf parse per call shows in profiles. These writers emit
// exactly what "%02x" / "%04x" / "%u" would.
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

char* putHex8(char* out, std::uint8_t v) {
  *out++ = kHexDigits[v >> 4];
  *out++ = kHexDigits[v & 0xf];
  return out;
}

char* putDecimal8(char* out, std::uint8_t v) {
  if (v >= 100) *out++ = static_cast<char>('0' + v / 100);
  if (v >= 10) *out++ = static_cast<char>('0' + v / 10 % 10);
  *out++ = static_cast<char>('0' + v % 10);
  return out;
}

}  // namespace

std::string toString(Mac16 a) {
  char buf[6] = {'0', 'x'};
  putHex8(putHex8(buf + 2, static_cast<std::uint8_t>(a.value >> 8)),
          static_cast<std::uint8_t>(a.value & 0xff));
  return std::string(buf, sizeof buf);
}

std::optional<Mac16> parseMac16(std::string_view s) {
  s = trim(s);
  if (startsWith(s, "0x") || startsWith(s, "0X")) s.remove_prefix(2);
  if (s.empty() || s.size() > 4) return std::nullopt;
  std::uint16_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return std::nullopt;
    v = static_cast<std::uint16_t>((v << 4) | d);
  }
  return Mac16{v};
}

Mac48 Mac48::broadcast() {
  Mac48 a;
  a.bytes.fill(0xff);
  return a;
}

bool Mac48::isBroadcast() const {
  for (auto b : bytes) {
    if (b != 0xff) return false;
  }
  return true;
}

std::string toString(const Mac48& a) {
  char buf[17];
  char* p = buf;
  for (std::size_t i = 0; i < a.bytes.size(); ++i) {
    if (i) *p++ = ':';
    p = putHex8(p, a.bytes[i]);
  }
  return std::string(buf, sizeof buf);
}

std::optional<Mac48> parseMac48(std::string_view s) {
  auto parts = split(trim(s), ':');
  if (parts.size() != 6) return std::nullopt;
  Mac48 a;
  for (std::size_t i = 0; i < 6; ++i) {
    if (parts[i].size() != 2) return std::nullopt;
    int hi, lo;
    auto hexVal = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    hi = hexVal(parts[i][0]);
    lo = hexVal(parts[i][1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    a.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return a;
}

std::string toString(Ipv4Addr a) {
  char buf[15];
  char* p = buf;
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) *p++ = '.';
    p = putDecimal8(p, static_cast<std::uint8_t>(a.value >> shift));
  }
  return std::string(buf, p);
}

std::optional<Ipv4Addr> parseIpv4(std::string_view s) {
  auto parts = split(trim(s), '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t v = 0;
  for (const auto& p : parts) {
    auto octet = parseInt(p);
    if (!octet || *octet < 0 || *octet > 255) return std::nullopt;
    v = (v << 8) | static_cast<std::uint32_t>(*octet);
  }
  return Ipv4Addr{v};
}

Ipv6Addr Ipv6Addr::linkLocalFromShort(Mac16 shortAddr) {
  Ipv6Addr a;
  a.bytes[0] = 0xfe;
  a.bytes[1] = 0x80;
  // RFC 4944 short-address IID: 0000:00ff:fe00:XXXX.
  a.bytes[11] = 0xff;
  a.bytes[12] = 0xfe;
  a.bytes[14] = static_cast<std::uint8_t>(shortAddr.value >> 8);
  a.bytes[15] = static_cast<std::uint8_t>(shortAddr.value & 0xff);
  return a;
}

Ipv6Addr Ipv6Addr::allNodesMulticast() {
  Ipv6Addr a;
  a.bytes[0] = 0xff;
  a.bytes[1] = 0x02;
  a.bytes[15] = 0x01;
  return a;
}

std::optional<Mac16> Ipv6Addr::embeddedShort() const {
  if (bytes[0] != 0xfe || bytes[1] != 0x80) return std::nullopt;
  if (bytes[11] != 0xff || bytes[12] != 0xfe) return std::nullopt;
  return Mac16{static_cast<std::uint16_t>((bytes[14] << 8) | bytes[15])};
}

std::string toString(const Ipv6Addr& a) {
  char buf[39];
  char* p = buf;
  for (std::size_t i = 0; i < a.bytes.size(); i += 2) {
    if (i) *p++ = ':';
    p = putHex8(putHex8(p, a.bytes[i]), a.bytes[i + 1]);
  }
  return std::string(buf, sizeof buf);
}

}  // namespace kalis::net
