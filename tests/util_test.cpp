#include <gtest/gtest.h>

#include <set>

#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/sliding_window.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace kalis {
namespace {

// --- ByteWriter / ByteReader -------------------------------------------------

TEST(Bytes, WriteReadRoundTripBigEndian) {
  Bytes buffer;
  ByteWriter w(buffer);
  w.u8(0xab);
  w.u16be(0x1234);
  w.u32be(0xdeadbeef);
  w.u64be(0x0123456789abcdefull);
  ByteReader r{BytesView(buffer)};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xdeadbeefu);
  EXPECT_EQ(r.u64be(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, WriteReadRoundTripLittleEndian) {
  Bytes buffer;
  ByteWriter w(buffer);
  w.u16le(0x1234);
  w.u32le(0xdeadbeef);
  w.u64le(0x0123456789abcdefull);
  ByteReader r{BytesView(buffer)};
  EXPECT_EQ(r.u16le(), 0x1234);
  EXPECT_EQ(r.u32le(), 0xdeadbeefu);
  EXPECT_EQ(r.u64le(), 0x0123456789abcdefull);
}

TEST(Bytes, EndiannessOnTheWire) {
  Bytes buffer;
  ByteWriter w(buffer);
  w.u16be(0x1234);
  w.u16le(0x1234);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0], 0x12);
  EXPECT_EQ(buffer[1], 0x34);
  EXPECT_EQ(buffer[2], 0x34);
  EXPECT_EQ(buffer[3], 0x12);
}

TEST(Bytes, ReaderReturnsNulloptPastEnd) {
  Bytes buffer = {0x01};
  ByteReader r{BytesView(buffer)};
  EXPECT_EQ(r.u16be(), std::nullopt);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u8(), std::nullopt);
  EXPECT_EQ(r.take(1), std::nullopt);
}

TEST(Bytes, TakeAndRest) {
  Bytes buffer = {1, 2, 3, 4, 5};
  ByteReader r{BytesView(buffer)};
  auto head = r.take(2);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ((*head)[0], 1);
  auto rest = r.rest();
  EXPECT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 3);
  EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, PatchU16be) {
  Bytes buffer;
  ByteWriter w(buffer);
  w.u16be(0);
  w.u8(0x55);
  w.patchU16be(0, 0xbeef);
  EXPECT_EQ(buffer[0], 0xbe);
  EXPECT_EQ(buffer[1], 0xef);
  EXPECT_EQ(buffer[2], 0x55);
}

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x7f, 0xff, 0x42};
  EXPECT_EQ(toHex(BytesView(data)), "007fff42");
  auto back = fromHex("007fff42");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_EQ(fromHex("abc"), std::nullopt);    // odd length
  EXPECT_EQ(fromHex("zz"), std::nullopt);     // non-hex
  EXPECT_EQ(fromHex(""), std::make_optional(Bytes{}));
}

// --- checksums -----------------------------------------------------------------

TEST(Checksum, InternetChecksumKnownVector) {
  // RFC 1071 example bytes.
  const Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internetChecksum(BytesView(data)), 0x220d);
}

TEST(Checksum, InternetChecksumValidatesToZero) {
  Bytes data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x40,
                0x00, 0x40, 0x06, 0x00, 0x00, 0x0a, 0x00,
                0x00, 0x01, 0x0a, 0x00, 0x00, 0x02};
  const std::uint16_t checksum = internetChecksum(BytesView(data));
  data[10] = static_cast<std::uint8_t>(checksum >> 8);
  data[11] = static_cast<std::uint8_t>(checksum & 0xff);
  EXPECT_EQ(internetChecksum(BytesView(data)), 0);
}

TEST(Checksum, InternetChecksum2MatchesConcatenation) {
  const Bytes a = {0x12, 0x34, 0x56, 0x78};
  const Bytes b = {0x9a, 0xbc, 0xde};
  Bytes joined = a;
  joined.insert(joined.end(), b.begin(), b.end());
  EXPECT_EQ(internetChecksum2(BytesView(a), BytesView(b)),
            internetChecksum(BytesView(joined)));
}

TEST(Checksum, Crc32KnownVector) {
  const Bytes data = bytesOf("123456789");
  EXPECT_EQ(crc32(BytesView(data)), 0xcbf43926u);
}

TEST(Checksum, Crc32MatchesBytewiseReference) {
  // The reflected IEEE definition, one byte (eight bits) at a time; crc32
  // must agree on any length and at any start alignment.
  const auto reference = [](BytesView data) {
    std::uint32_t c = 0xffffffffu;
    for (std::uint8_t byte : data) {
      c ^= byte;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    return c ^ 0xffffffffu;
  };
  Rng rng(0x80211);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t offset = rng.nextBelow(8);
    Bytes buffer(offset + rng.nextBelow(2001));
    for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.nextBelow(256));
    const BytesView data = BytesView(buffer).subspan(offset);
    ASSERT_EQ(crc32(data), reference(data))
        << "length " << data.size() << ", offset " << offset;
  }
}

TEST(Checksum, Crc16CcittKnownVector) {
  // CRC-16/XMODEM check value: polynomial 0x1021, init 0, no reflection.
  const Bytes data = bytesOf("123456789");
  EXPECT_EQ(crc16Ccitt(BytesView(data)), 0x31c3);
}

TEST(Checksum, Crc16CcittMatchesBitwiseReference) {
  // The definition, one bit at a time; crc16Ccitt must agree on any input.
  const auto reference = [](BytesView data) {
    std::uint16_t crc = 0x0000;
    for (std::uint8_t byte : data) {
      crc ^= static_cast<std::uint16_t>(byte) << 8;
      for (int i = 0; i < 8; ++i) {
        crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                             : static_cast<std::uint16_t>(crc << 1);
      }
    }
    return crc;
  };
  Rng rng(0x802154);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes data(rng.nextBelow(301));
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.nextBelow(256));
    ASSERT_EQ(crc16Ccitt(BytesView(data)), reference(BytesView(data)))
        << "length " << data.size();
  }
}

TEST(Checksum, Crc16CcittDiffersOnSingleBitFlip) {
  Bytes data = bytesOf("hello 802.15.4");
  const std::uint16_t original = crc16Ccitt(BytesView(data));
  data[3] ^= 0x01;
  EXPECT_NE(crc16Ccitt(BytesView(data)), original);
}

TEST(Checksum, Fnv1aStableAndSensitive) {
  EXPECT_EQ(fnv1a64(BytesView(bytesOf("abc"))),
            fnv1a64(BytesView(bytesOf("abc"))));
  EXPECT_NE(fnv1a64(BytesView(bytesOf("abc"))),
            fnv1a64(BytesView(bytesOf("abd"))));
}

TEST(Checksum, Fnv1aStreamsAcrossSpans) {
  const Bytes head = bytesOf("src+seq");
  const Bytes tail = bytesOf("payload");
  Bytes joined = head;
  joined.insert(joined.end(), tail.begin(), tail.end());
  EXPECT_EQ(fnv1a64(BytesView(tail), fnv1a64(BytesView(head))),
            fnv1a64(BytesView(joined)));
}

// --- Rng -------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBelow(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.nextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.nextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.nextExponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.2);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream must not replay the parent's subsequent outputs.
  EXPECT_NE(child.next(), parent.next());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// --- strings ----------------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, '.'), "x.y.z");
  EXPECT_EQ(split("x.y.z", '.'), parts);
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  abc\t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(startsWith("K1$Multihop", "K1$"));
  EXPECT_FALSE(startsWith("K", "K1$"));
  EXPECT_TRUE(endsWith("K1$SignalStrength@SensorA", "@SensorA"));
  EXPECT_FALSE(endsWith("abc", "abcd"));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_EQ(parseInt(" 13 "), 13);
  EXPECT_EQ(parseInt("12x"), std::nullopt);
  EXPECT_EQ(parseInt(""), std::nullopt);
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*parseDouble("0.037"), 0.037);
  EXPECT_DOUBLE_EQ(*parseDouble("-67"), -67.0);
  EXPECT_EQ(parseDouble("1.2.3"), std::nullopt);
}

TEST(Strings, ParseBoolVariants) {
  EXPECT_EQ(parseBool("true"), true);
  EXPECT_EQ(parseBool("FALSE"), false);
  EXPECT_EQ(parseBool("1"), true);
  EXPECT_EQ(parseBool("0"), false);
  EXPECT_EQ(parseBool("yes"), std::nullopt);
}

TEST(Strings, FormatDoubleCompact) {
  EXPECT_EQ(formatDouble(12.0), "12");
  EXPECT_EQ(formatDouble(-67.0), "-67");
  EXPECT_EQ(formatDouble(0.037), "0.037");
}

// --- sliding windows -----------------------------------------------------------------

TEST(SlidingCounter, EvictsOutsideWindow) {
  SlidingCounter counter(seconds(5));
  counter.record(seconds(1));
  counter.record(seconds(2));
  counter.record(seconds(6));
  // The window is the half-open interval (now - 5s, now].
  EXPECT_EQ(counter.count(seconds(6)), 2u);   // t=1 sits exactly on the edge
  EXPECT_EQ(counter.count(seconds(7)), 1u);   // t=2 evicted too
  EXPECT_EQ(counter.count(seconds(12)), 0u);
}

TEST(SlidingCounter, RateIsPerSecond) {
  SlidingCounter counter(seconds(5));
  for (int i = 0; i < 10; ++i) counter.record(seconds(4));
  EXPECT_DOUBLE_EQ(counter.rate(seconds(4)), 2.0);
}

TEST(RingWindow, DropsOldestBeyondCapacity) {
  RingWindow<int> window(3);
  for (int i = 1; i <= 5; ++i) window.push(i);
  EXPECT_EQ(window.size(), 3u);
  EXPECT_EQ(window.at(0), 3);
  EXPECT_EQ(window.newest(), 5);
}

// --- stats -----------------------------------------------------------------------------

TEST(Ewma, ConvergesTowardSignal) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.initialized());
  ewma.add(0.0);
  for (int i = 0; i < 20; ++i) ewma.add(10.0);
  EXPECT_NEAR(ewma.value(), 10.0, 0.01);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Entropy, UniformBytesNearEight) {
  Bytes data;
  for (int i = 0; i < 4096; ++i) data.push_back(static_cast<std::uint8_t>(i));
  EXPECT_GT(byteEntropy(BytesView(data)), 7.99);
}

TEST(Entropy, ConstantBytesZero) {
  const Bytes data(256, 0x41);
  EXPECT_DOUBLE_EQ(byteEntropy(BytesView(data)), 0.0);
}

TEST(Entropy, EnglishTextWellBelowEncrypted) {
  const Bytes text = bytesOf(
      "the quick brown fox jumps over the lazy dog and keeps going through "
      "the meadow toward the river bank where it finally rests");
  EXPECT_LT(byteEntropy(BytesView(text)), 5.0);
}

// Property sweep: counter count never exceeds records within window.
class SlidingCounterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlidingCounterSweep, CountMatchesManualFilter) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  SlidingCounter counter(seconds(3));
  std::vector<SimTime> times;
  SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t += rng.nextBelow(milliseconds(500));
    times.push_back(t);
    counter.record(t);
  }
  const SimTime now = t;
  std::size_t expected = 0;
  for (SimTime ts : times) {
    if (ts > now - seconds(3)) ++expected;
  }
  EXPECT_EQ(counter.count(now), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlidingCounterSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace kalis
