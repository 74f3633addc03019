#include "pipeline/kalis_engine.hpp"

#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "net/batch_arena.hpp"
#include "sim/simulator.hpp"

namespace kalis::pipeline {

namespace {

class KalisShardEngine : public PacketEngine {
 public:
  KalisShardEngine(const KalisEngineOptions& options, std::size_t shard)
      : sim_(options.seedBase + shard),
        node_(sim_, nodeOptions(options, shard)),
        drainUntil_(options.drainUntil) {
    if (options.configure) options.configure(node_);
    node_.setAlertSink([this](const ids::Alert& alert) {
      fresh_.push_back(alert);
    });
    // Buffer this node's collective changes for the cross-shard exchange.
    // Registered before start() so a-priori collective knowggets are seen.
    node_.kb().addCollectiveSink(&collectiveBuffer_);
    node_.start();
  }

  void onPacket(const net::CapturedPacket& pkt) override {
    node_.replayFeed(pkt);
  }

  void onBatch(const net::CapturedPacket* const* pkts,
               std::size_t count) override {
    static_assert(std::is_trivially_destructible_v<net::Dissection>,
                  "batch dissections live in the arena across reset()");
    // Dissect the whole dequeue once, in place, into the shard arena; the
    // views alias the ring Items, which outlive this call. The arena is
    // rewound (not freed) per batch, so the steady-state packet path does
    // no heap allocation for dissection state.
    arena_.reset();
    net::Dissection* dis = arena_.allocateArray<net::Dissection>(count);
    for (std::size_t i = 0; i < count; ++i) {
      ::new (&dis[i]) net::Dissection(net::dissect(*pkts[i]));
    }
    for (std::size_t i = 0; i < count; ++i) {
      node_.replayFeed(*pkts[i], dis[i]);
    }
  }

  void drainAlerts(std::vector<ids::Alert>& out) override {
    for (ids::Alert& a : fresh_) out.push_back(std::move(a));
    fresh_.clear();  // keeps capacity: the alert buffer is pooled
  }

  SimTime watermark() const override { return sim_.now(); }

  void finish() override {
    if (drainUntil_ > sim_.now()) sim_.runUntil(drainUntil_);
  }

  std::vector<ids::Knowgget> takeCollectiveUpdates() override {
    return std::exchange(collectiveBuffer_.pending, {});
  }

  bool applyRemoteKnowledge(const ids::Knowgget& k) override {
    return node_.kb().putRemote(k);
  }

  std::vector<ids::Knowgget> collectiveKnowledge(bool ownedOnly) const override {
    std::vector<ids::Knowgget> out;
    for (ids::Knowgget& k : node_.kb().all()) {
      if (!k.collective) continue;
      if (ownedOnly && k.creator != node_.id()) continue;
      out.push_back(std::move(k));
    }
    return out;
  }

 private:
  /// CollectiveSink buffering changed collective knowggets until the
  /// Pipeline drains them at the next batch boundary. Same-key re-changes
  /// are appended, not coalesced: putRemote applies them in order, so the
  /// receiver converges on the last value.
  struct BufferSink final : ids::CollectiveSink {
    void onCollective(const ids::Knowgget& k) override { pending.push_back(k); }
    std::vector<ids::Knowgget> pending;
  };

  static ids::KalisNode::Options nodeOptions(const KalisEngineOptions& options,
                                             std::size_t shard) {
    ids::KalisNode::Options node = options.node;
    if (shard > 0) node.id += "-s" + std::to_string(shard);
    return node;
  }

  sim::Simulator sim_;
  ids::KalisNode node_;
  net::BatchArena arena_;
  SimTime drainUntil_;
  std::vector<ids::Alert> fresh_;
  BufferSink collectiveBuffer_;
};

}  // namespace

EngineFactory makeKalisEngineFactory(KalisEngineOptions options) {
  return [options = std::move(options)](std::size_t shard) {
    return std::make_unique<KalisShardEngine>(options, shard);
  };
}

}  // namespace kalis::pipeline
