#include "util/checksum.hpp"

#include <array>

namespace kalis {

namespace {

std::uint32_t sumOnes(BytesView data, std::uint32_t acc, bool& oddOffset) {
  std::size_t i = 0;
  if (oddOffset && !data.empty()) {
    acc += data[0];
    i = 1;
    oddOffset = false;
  }
  for (; i + 1 < data.size(); i += 2) {
    acc += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    acc += static_cast<std::uint32_t>(data[i]) << 8;
    oddOffset = true;
  }
  return acc;
}

std::uint16_t foldOnes(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

// MSB-first CRC-16/CCITT: entry i is the CRC of byte i with a zero
// register, so one lookup replaces the eight shift/xor steps per byte.
std::array<std::uint16_t, 256> makeCrc16Table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t c = static_cast<std::uint16_t>(i << 8);
    for (int k = 0; k < 8; ++k) {
      c = (c & 0x8000) ? static_cast<std::uint16_t>((c << 1) ^ 0x1021)
                       : static_cast<std::uint16_t>(c << 1);
    }
    table[i] = c;
  }
  return table;
}

// Slice-by-8 tables for the reflected IEEE CRC-32: table[0][i] is the CRC
// of byte i with a zero register, and table[k][i] that of byte i followed
// by k zero bytes, so eight lookups advance the register by eight bytes.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables makeCrc32Tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

std::uint32_t loadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint16_t internetChecksum(BytesView data) {
  bool odd = false;
  return foldOnes(sumOnes(data, 0, odd));
}

std::uint16_t internetChecksum2(BytesView a, BytesView b) {
  // Note: correctness requires 'a' (the pseudo-header) to be even-length,
  // which holds for both the IPv4 and IPv6 pseudo-headers.
  bool odd = false;
  std::uint32_t acc = sumOnes(a, 0, odd);
  acc = sumOnes(b, acc, odd);
  return foldOnes(acc);
}

std::uint16_t crc16Ccitt(BytesView data) {
  static const auto table = makeCrc16Table();
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ table[(crc >> 8) ^ byte]);
  }
  return crc;
}

std::uint32_t crc32(BytesView data) {
  static const Crc32Tables t = makeCrc32Tables();
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ loadLe32(p);
    const std::uint32_t hi = loadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint64_t fnv1a64(BytesView data, std::uint64_t h) {
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace kalis
