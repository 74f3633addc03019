// Steady-state allocation guard for synchronous ingestion.
//
// Counts heap allocations through a replaced global operator new, so it is
// built as its own executable: nothing else may run while it counts. It
// warms a KalisNode on captured HomeWifi + WSN traffic, then counts
// operator new calls over a second window of net::dissect +
// KalisNode::replayFeed (the node's ticks included) and fails when the
// average exceeds kMaxAllocsPerPacket. A per-packet std::string, a temporary
// KB key or a value built on every map hit shows up here as a jump of
// several allocations per packet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "kalis/kalis_node.hpp"
#include "scenarios/environments.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_file.hpp"

namespace {

bool gCounting = false;
std::uint64_t gAllocations = 0;

void* countedAlloc(std::size_t size) noexcept {
  if (gCounting) ++gAllocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every non-aligned form is replaced, so each new is matched by a free()
// here whichever form the library (or a sanitizer runtime) picks.
// Over-aligned allocations are not counted.
void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace kalis {
namespace {

constexpr double kMaxAllocsPerPacket = 1.0;
// Long enough that the warm-up half fills the DataStore's packet window
// (4,096 frames) and runs through every CTP sequence number, after which
// the window recycles its slots and every (origin, seqno) key exists.
constexpr Duration kCaptureLength = seconds(1800);
constexpr std::uint64_t kSeed = 7;

/// The home WiFi (WiFi + BLE) and WSN (802.15.4) captures at their IDS
/// spots, merged by capture time.
trace::Trace captureHomeAndWsn() {
  trace::Trace out;
  const auto sniff = [&](const net::CapturedPacket& pkt, const net::Dissection&) {
    out.push_back(pkt);
  };
  {
    sim::Simulator simulator(kSeed);
    sim::World world(simulator);
    sim::InternetCloud cloud;
    const scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, kSeed);
    world.addSniffer(home.ids, net::Medium::kWifi, sniff);
    world.addSniffer(home.ids, net::Medium::kBluetooth, sniff);
    world.start();
    simulator.runUntil(kCaptureLength);
  }
  {
    sim::Simulator simulator(kSeed);
    sim::World world(simulator);
    const scenarios::Wsn wsn = scenarios::buildWsn(world, 5, seconds(3));
    world.addSniffer(wsn.ids, net::Medium::kIeee802154, sniff);
    world.start();
    simulator.runUntil(kCaptureLength);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.meta.timestamp < b.meta.timestamp;
  });
  return out;
}

TEST(AllocGuard, SteadyStateIngestionStaysAllocationLight) {
  const trace::Trace pkts = captureHomeAndWsn();
  ASSERT_GT(pkts.size(), 2 * ids::DataStore::Config{}.windowCapacity);

  sim::Simulator simulator(kSeed);
  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.start();
  const auto replay = [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      const net::Dissection dis = net::dissect(pkts[i]);
      node.replayFeed(pkts[i], dis);
    }
  };

  const std::size_t half = pkts.size() / 2;
  replay(0, half);  // warm-up: every entity, window and map node is in place
  gAllocations = 0;
  gCounting = true;
  replay(half, pkts.size());
  gCounting = false;

  const double packets = static_cast<double>(pkts.size() - half);
  const double perPacket = static_cast<double>(gAllocations) / packets;
  RecordProperty("allocs_per_packet", std::to_string(perPacket));
  EXPECT_LE(perPacket, kMaxAllocsPerPacket)
      << gAllocations << " allocations over " << packets << " packets";
}

}  // namespace
}  // namespace kalis
