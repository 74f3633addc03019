// Unit tests for the zero-copy packet memory model primitives
// (DESIGN.md §10): PacketView pull/trim cursors, BatchArena lifetime and
// chunk reuse, EntityRef identity/format parity, and the EntityKeyedMap
// label-order iteration contract the golden SIEM streams depend on.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "kalis/entity_map.hpp"
#include "net/batch_arena.hpp"
#include "net/entity_ref.hpp"
#include "net/packet_view.hpp"

namespace kalis::net {
namespace {

// --- PacketView --------------------------------------------------------------

TEST(PacketView, PullAndTrimDiscipline) {
  const Bytes frame = {1, 2, 3, 4, 5, 6, 7, 8};
  PacketView view{BytesView(frame)};
  EXPECT_EQ(view.remaining(), 8u);
  EXPECT_EQ(view.peek(), 1);
  ASSERT_TRUE(view.pull(2));
  EXPECT_EQ(view.offset(), 2u);
  ASSERT_TRUE(view.trimEnd(2));  // drop the "FCS"
  EXPECT_EQ(view.remaining(), 4u);
  EXPECT_EQ(view.data().front(), 3);
  EXPECT_EQ(view.data().back(), 6);
  // Views alias the frame, no copies.
  EXPECT_EQ(view.data().data(), frame.data() + 2);
  EXPECT_EQ(view.pullByte(), 3);
  // Over-pulls fail and leave the cursor untouched.
  EXPECT_FALSE(view.pull(10));
  EXPECT_EQ(view.remaining(), 3u);
  EXPECT_FALSE(view.trimEnd(10));
}

TEST(PacketView, EmptyFrame) {
  PacketView view{BytesView{}};
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.peek(), std::nullopt);
  EXPECT_EQ(view.pullByte(), std::nullopt);
  EXPECT_TRUE(view.pull(0));
  EXPECT_FALSE(view.pull(1));
}

// --- BatchArena --------------------------------------------------------------

TEST(BatchArena, ResetReusesChunks) {
  BatchArena arena(256);
  void* first = arena.allocate(64, 8);
  ASSERT_NE(first, nullptr);
  arena.reset();
  // After a reset the same chunk is handed out again — no new allocation.
  void* second = arena.allocate(64, 8);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.stats().resets, 1u);
}

TEST(BatchArena, GrowsBeyondOneChunk) {
  BatchArena arena(64);
  std::vector<void*> ptrs;
  for (int i = 0; i < 32; ++i) ptrs.push_back(arena.allocate(48, 8));
  for (void* p : ptrs) EXPECT_NE(p, nullptr);
  EXPECT_GE(arena.stats().highWater, 32u * 48u);
}

TEST(BatchArena, CopyDetachesSlice) {
  BatchArena arena;
  Bytes src = {9, 8, 7};
  const BytesView copy = arena.copy(BytesView(src));
  src.assign({0, 0, 0});  // mutate the original
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0], 9);
  EXPECT_EQ(copy[2], 7);
  EXPECT_TRUE(arena.copy(BytesView{}).empty());
}

TEST(BatchArena, AlignedTypedAllocation) {
  BatchArena arena;
  arena.allocate(1, 1);  // misalign the cursor
  auto* v = arena.create<std::uint64_t>(0x1122334455667788ull);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v) % alignof(std::uint64_t), 0u);
  EXPECT_EQ(*v, 0x1122334455667788ull);
  auto* arr = arena.allocateArray<std::uint32_t>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr) % alignof(std::uint32_t), 0u);
}

// --- EntityRef ---------------------------------------------------------------

TEST(EntityRef, StringFormatParity) {
  EXPECT_EQ(EntityRef::none().toString(), "?");
  EXPECT_EQ(EntityRef::broadcastLabel().toString(), "broadcast");
  EXPECT_EQ(EntityRef::of(Mac16{0x0003}).toString(), "0x0003");
  EXPECT_EQ(EntityRef::of(Mac48{{0x02, 0x4b, 0x41, 0x00, 0x12, 0xfe}}).toString(),
            "02:4b:41:00:12:fe");
  EXPECT_EQ(EntityRef::of(Ipv4Addr{0x0a000207}).toString(), "10.0.2.7");
  const Ipv6Addr v6 = Ipv6Addr::linkLocalFromShort(Mac16{0x0042});
  EXPECT_EQ(EntityRef::of(v6).toString(), toString(v6));
}

TEST(EntityRef, RoundTripsAddresses) {
  EXPECT_EQ(EntityRef::of(Mac16{0xbeef}).asMac16(), Mac16{0xbeef});
  const Mac48 mac{{1, 2, 3, 4, 5, 6}};
  EXPECT_EQ(EntityRef::of(mac).asMac48(), mac);
  EXPECT_EQ(EntityRef::of(Ipv4Addr{0x7f000001}).asIpv4(), Ipv4Addr{0x7f000001});
}

TEST(EntityRef, IdentityAndHashing) {
  const EntityRef a = EntityRef::of(Mac16{0x0003});
  const EntityRef b = EntityRef::of(Mac16{0x0003});
  const EntityRef c = EntityRef::of(Mac16{0x0004});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  // Same bytes under a different kind are a different identity.
  EXPECT_NE(EntityRef::of(Mac16{0x0a00}).key(),
            EntityRef::of(Ipv4Addr{0x0a000000}).key());
  EXPECT_FALSE(EntityRef::none().valid());
  EXPECT_TRUE(EntityRef::broadcastLabel().valid());
  std::set<EntityRef> uniq{a, b, c};
  EXPECT_EQ(uniq.size(), 2u);
}

// --- EntityKeyedMap ----------------------------------------------------------

TEST(EntityKeyedMap, OrderedIterationMatchesLegacyStringMap) {
  ids::EntityKeyedMap<int> byEntity;
  std::map<std::string, int> legacy;
  const EntityRef refs[] = {
      EntityRef::of(Mac16{0x00ff}), EntityRef::of(Mac16{0x0001}),
      EntityRef::of(Ipv4Addr{0x0a000007}), EntityRef::of(Mac48{{2, 0, 0, 0, 0, 9}}),
      EntityRef::broadcastLabel()};
  int v = 0;
  for (const EntityRef& r : refs) {
    byEntity.tryEmplace(r, v);
    legacy.emplace(r.toString(), v);
    ++v;
  }
  // Re-inserting does not duplicate or reorder.
  auto [entry, inserted] = byEntity.tryEmplace(refs[0], 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(entry->value, 0);

  std::vector<std::string> order;
  byEntity.forEachOrdered(
      [&](ids::EntityKeyedMap<int>::Entry& e) { order.push_back(e.label); });
  std::vector<std::string> expected;
  for (const auto& [label, unused] : legacy) expected.push_back(label);
  EXPECT_EQ(order, expected);

  EXPECT_EQ(byEntity.findByLabel("0x0001")->value, 1);
  EXPECT_EQ(byEntity.find(refs[2])->value, 2);
  EXPECT_EQ(byEntity.findByLabel("nope"), nullptr);
}

/// Counts every construction of a value, copies and moves included.
struct CountedValue {
  static inline int constructions = 0;
  explicit CountedValue(int v) : value(v) { ++constructions; }
  CountedValue(const CountedValue& other) : value(other.value) { ++constructions; }
  CountedValue(CountedValue&& other) noexcept : value(other.value) {
    ++constructions;
  }
  int value;
};

TEST(EntityKeyedMap, TryEmplaceConstructsValueOnlyForNewKeys) {
  CountedValue::constructions = 0;
  ids::EntityKeyedMap<CountedValue> byEntity;
  const EntityRef refs[] = {EntityRef::of(Mac16{0x0003}),
                            EntityRef::of(Mac48{{2, 0, 0, 0, 0, 7}}),
                            EntityRef::of(Ipv4Addr{0x0a000002})};
  for (int i = 0; i < 3; ++i) {
    auto [entry, inserted] = byEntity.tryEmplace(refs[i], i);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(entry->label, refs[i].toString());
  }
  EXPECT_EQ(CountedValue::constructions, 3);

  for (int round = 0; round < 10; ++round) {
    for (const EntityRef& ref : refs) {
      auto [entry, inserted] = byEntity.tryEmplace(ref, -1);
      EXPECT_FALSE(inserted);
      EXPECT_EQ(entry, byEntity.find(ref));
      EXPECT_EQ(entry->label, ref.toString());  // cached at insertion
    }
  }
  EXPECT_EQ(CountedValue::constructions, 3);  // a hit builds nothing
  EXPECT_EQ(byEntity.find(refs[1])->value.value, 1);
}

TEST(EntityKeyedMap, DominantEntityTieBreaksOnLabel) {
  std::map<EntityRef, std::size_t> counts;
  counts[EntityRef::of(Mac16{0x0009})] = 3;
  counts[EntityRef::of(Mac16{0x0002})] = 3;  // tie: smaller label wins
  counts[EntityRef::of(Mac16{0x0001})] = 1;
  EXPECT_EQ(ids::dominantEntity(counts).toString(), "0x0002");
  counts[EntityRef::of(Mac16{0x0009})] = 4;  // strict max wins over label
  EXPECT_EQ(ids::dominantEntity(counts).toString(), "0x0009");

  const std::set<EntityRef> entities{EntityRef::of(Mac16{0x0004}),
                                     EntityRef::of(Mac16{0x0001})};
  const std::vector<std::string> labels = ids::sortedLabels(entities);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], "0x0001");
  EXPECT_EQ(labels[1], "0x0004");
}

}  // namespace
}  // namespace kalis::net
