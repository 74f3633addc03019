// Cross-shard collective knowledge exchange (DESIGN.md §8, paper §IV-B3/§V).
//
// PR 3 confined every shard's KnowledgeBase to its worker thread, which
// made collective knowledge — the paper's headline capability — stop at the
// shard boundary. KnowledgeExchange is the thread-safe bridge that carries
// collective knowggets between shard engines without breaking the
// lock-free-KB design:
//
//   shard i KB ──CollectiveSink──▶ engine buffer ──publish()──▶ every other
//   shard's bounded inbox ring ──drain() at batch boundaries──▶ putRemote
//   on the receiving shard's KB (one-way rule enforced there)
//
// The KBs themselves stay single-threaded: only *copies* of knowggets cross
// threads, inside BoundedRing<RemoteKnowgget> inboxes (one per shard, any
// producer / one consumer). Inboxes use the drop-oldest policy so a slow
// shard can never block or deadlock a fast one; evictions are counted as
// droppedInFlight and repaired by the shutdown reconciliation below.
//
// Staleness: each in-flight knowgget carries the publisher's shard clock
// (`publishedAt`); drain() records the high-water mark applied into each
// shard (`appliedWatermark`). The pipeline drains at every batch boundary
// whose virtual-time advance exceeds Options::knowledgeSyncInterval — the
// multi-worker mirror of the paper's `peerSyncLatency` — so application lag
// is bounded by (interval + one batch span).
//
// Shutdown reconciliation: when a shard finishes its stream it deposits its
// final *own* collective knowggets via finishShard(). Workers rendezvous on
// allFinished(), drain remaining in-flight items, then apply every other
// shard's final set in shard order (applyFinalFrom) — so all shards
// converge to the same collective view regardless of thread interleaving
// or in-flight evictions.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kalis/knowledge.hpp"
#include "pipeline/ring_buffer.hpp"
#include "util/metrics.hpp"
#include "util/types.hpp"

namespace kalis::pipeline {

/// A collective knowgget in flight between knowledge domains. `fromShard`
/// is the publishing child's index in whatever topology carries the item —
/// a shard of the flat cross-shard exchange, or a home/region of the
/// hierarchical fleet exchange (src/fleet).
struct RemoteKnowgget {
  ids::Knowgget knowgget;
  std::size_t fromShard = 0;
  SimTime publishedAt = 0;  ///< publisher's clock at publish time
};

/// One bounded drop-oldest inbox of in-flight knowggets plus its applied
/// watermark — the tier primitive shared by the flat cross-shard
/// KnowledgeExchange below and the hierarchical fleet exchange
/// (src/fleet/hier_exchange.hpp). deliver() never blocks (any thread);
/// drain() is single-consumer and advances the watermark to the highest
/// publisher clock it handed out, giving every tier the same
/// bounded-staleness accounting.
class KnowledgeInbox {
 public:
  enum class Deliver : std::uint8_t {
    kOk,            ///< accepted, ring had room
    kDroppedOldest, ///< accepted, the oldest queued item was evicted
    kClosed,        ///< rejected: the ring is closed
  };

  explicit KnowledgeInbox(std::size_t capacity) : ring_(capacity) {}

  /// Non-blocking enqueue under the drop-oldest discipline: a stalled
  /// consumer costs an eviction (repaired by the owning exchange's shutdown
  /// reconciliation), never a deadlock. Callable from any thread.
  Deliver deliver(const RemoteKnowgget& item) {
    switch (ring_.push(item, Backpressure::kDropOldest)) {
      case Ring::PushResult::kDroppedOldest:
        return Deliver::kDroppedOldest;
      case Ring::PushResult::kClosed:
        return Deliver::kClosed;
      default:
        return Deliver::kOk;
    }
  }

  /// Drains every queued item into `fn` (single consumer), then publishes
  /// the new applied watermark. Returns the number of items drained.
  std::size_t drain(const std::function<void(const RemoteKnowgget&)>& fn) {
    std::size_t drained = 0;
    SimTime watermark = watermark_.load(std::memory_order_relaxed);
    while (ring_.tryPopBatch(scratch_, kDrainBatch) > 0) {
      for (Ring::Item& item : scratch_) {
        fn(item.value);
        if (item.value.publishedAt > watermark) {
          watermark = item.value.publishedAt;
        }
      }
      drained += scratch_.size();
      scratch_.clear();
    }
    if (drained > 0) watermark_.store(watermark, std::memory_order_release);
    return drained;
  }

  /// Highest publisher clock drained so far — the bounded-staleness
  /// watermark of this inbox's receiving domain.
  SimTime appliedWatermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return ring_.capacity(); }

  /// Per-ring event tallies and kalis::obs instrumentation.
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const {
    ring_.collectMetrics(reg, prefix);
  }

  static constexpr std::size_t kDrainBatch = 64;

 private:
  using Ring = BoundedRing<RemoteKnowgget>;

  Ring ring_;
  std::atomic<SimTime> watermark_{0};
  std::vector<Ring::Item> scratch_;  ///< consumer-thread-only drain buffer
};

/// The shutdown deposit shared by both exchanges: each child (a shard of
/// the flat exchange, a home of the fleet) deposits its final own
/// collective knowggets exactly once, and the exchange folds every deposit
/// in, in child order, to repair what the drop-oldest inboxes evicted.
/// Any thread.
class FinalDeposit {
 public:
  explicit FinalDeposit(std::size_t children) : finals_(children) {}

  /// Stores `child`'s final set and wakes every waiter.
  void deposit(std::size_t child, std::vector<ids::Knowgget> finalOwn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finals_[child] = std::move(finalOwn);
      ++deposited_;
    }
    cv_.notify_all();
  }

  bool complete() const {
    std::lock_guard<std::mutex> lock(mu_);
    return completeLocked();
  }

  /// One predicate wait until every child deposited, no polling.
  void wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return completeLocked(); });
  }

  /// Bounded variant: waits up to `timeout`, returns complete().
  bool waitFor(std::chrono::milliseconds timeout) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return completeLocked(); });
  }

  /// Every deposit in child order, copied under the lock so the caller can
  /// apply it to a KB without holding exchange-internal locks.
  std::vector<std::vector<ids::Knowgget>> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finals_;
  }

 private:
  bool completeLocked() const { return deposited_ >= finals_.size(); }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::vector<ids::Knowgget>> finals_;
  std::size_t deposited_ = 0;
};

class KnowledgeExchange {
 public:
  struct Options {
    std::size_t shards = 1;
    std::size_t inboxCapacity = 1024;  ///< ring slots per shard inbox
  };

  /// Exact always-on tallies (atomics: every shard updates concurrently).
  struct Stats {
    std::uint64_t published = 0;   ///< knowggets handed to the exchange
    std::uint64_t deliveries = 0;  ///< per-peer inbox insertions
    std::uint64_t applied = 0;     ///< putRemote accepted on a receiver
    std::uint64_t rejected = 0;    ///< one-way rule / impersonation refusals
    std::uint64_t droppedInFlight = 0;  ///< evicted by inbox overflow
    /// waitAllFinished calls (both flavors). The shutdown rendezvous is a
    /// single predicate wait per worker, so this stays <= shard count — a
    /// regression here means somebody reintroduced a finish-poll loop.
    std::uint64_t finishWaits = 0;
  };

  explicit KnowledgeExchange(Options options);

  std::size_t shardCount() const { return inboxes_.size(); }

  /// Fans one changed collective knowgget out to every other shard's inbox.
  /// `at` is the publisher's shard clock. Callable from any shard thread;
  /// never blocks (drop-oldest inboxes).
  void publish(std::size_t fromShard, const ids::Knowgget& k, SimTime at);

  /// Drains `shard`'s inbox, handing each in-flight knowgget to `apply`
  /// (which returns whether the receiving KB accepted it — the one-way rule
  /// lives in KnowledgeBase::putRemote). Only the owning worker may drain
  /// its shard. Returns the number of items drained.
  std::size_t drain(std::size_t shard,
                    const std::function<bool(const RemoteKnowgget&)>& apply);

  /// Highest publisher timestamp applied into `shard` so far — the
  /// bounded-staleness watermark.
  SimTime appliedWatermark(std::size_t shard) const {
    return inboxes_[shard]->appliedWatermark();
  }

  // --- shutdown reconciliation ----------------------------------------------

  /// Deposits the shard's final own collective knowggets and marks it
  /// finished. Call exactly once per shard, after its engine's finish().
  void finishShard(std::size_t shard, std::vector<ids::Knowgget> finalOwn) {
    finals_.deposit(shard, std::move(finalOwn));
  }

  bool allFinished() const { return finals_.complete(); }
  /// Blocks until every shard has called finishShard() — one predicate wait
  /// on the finish condvar, no polling. Safe because publish() never blocks
  /// (drop-oldest inboxes): a late publisher cannot deadlock against parked
  /// waiters, and anything its publishes evict in the meantime is repaired
  /// by applyFinalFrom().
  void waitAllFinished() const;
  /// Bounded variant for tests/diagnostics: waits up to `timeout`, returns
  /// allFinished(). Production shutdown uses the untimed overload above.
  bool waitAllFinished(std::chrono::milliseconds timeout) const;

  /// Applies every *other* shard's final collective set to `shard`, in
  /// shard order (deterministic across receivers). Requires allFinished().
  /// Returns the number of knowggets offered.
  std::size_t applyFinalFrom(
      std::size_t shard, const std::function<bool(const ids::Knowgget&)>& apply);

  Stats stats() const;

  /// Appends exchange counters + per-inbox ring metrics under `prefix`
  /// (e.g. "pipeline.exchange"). Call while quiescent.
  void collectMetrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  void countApply(bool accepted);

  std::vector<std::unique_ptr<KnowledgeInbox>> inboxes_;

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> droppedInFlight_{0};
  mutable std::atomic<std::uint64_t> finishWaits_{0};

  FinalDeposit finals_;
};

}  // namespace kalis::pipeline
