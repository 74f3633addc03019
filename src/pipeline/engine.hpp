// The detection-engine seam of kalis::pipeline.
//
// A PacketEngine is a shard-confined detection backend: the Pipeline
// constructs one per shard *on the worker thread that will own it* (via the
// EngineFactory), routes that shard's packets into it in enqueue order, and
// periodically collects its alerts for the ordered merge stage. Engines
// never see packets from other shards and are never called from two
// threads, so implementations need no locking.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "kalis/alert.hpp"
#include "kalis/knowledge.hpp"
#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::pipeline {

class PacketEngine {
 public:
  virtual ~PacketEngine() = default;

  /// Processes one packet. Packets arrive in per-source capture order.
  virtual void onPacket(const net::CapturedPacket& pkt) = 0;

  /// Processes one dequeued batch. The pointed-to packets stay alive (and
  /// unmoved) for the whole call, so an engine may dissect them in place and
  /// keep batch-scoped views — e.g. against an arena it resets here. The
  /// default simply loops onPacket; override to amortize per-batch work.
  virtual void onBatch(const net::CapturedPacket* const* pkts,
                       std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) onPacket(*pkts[i]);
  }

  /// Appends the alerts raised since the previous call to `out`, in
  /// nondecreasing Alert::time order, and clears them from the engine. The
  /// Pipeline drains into a per-shard scratch vector, so an engine that
  /// clears its buffer while keeping the capacity stops allocating on the
  /// alert path. Together with the watermark() promise below this makes the
  /// shard's alert stream sorted *across* calls too — each drain continues a
  /// single nondecreasing run — which the pipeline's merge stage relies on
  /// to treat per-shard buffers as pre-sorted runs instead of re-heapifying
  /// every alert.
  virtual void drainAlerts(std::vector<ids::Alert>& out) = 0;

  /// Completeness promise for the merge stage: no alert appended by a
  /// *future* drainAlerts() will carry time < watermark().
  virtual SimTime watermark() const = 0;

  /// End-of-stream, called exactly once after the last onPacket (e.g. to
  /// run out tick-driven detection windows).
  virtual void finish() {}

  // --- collective knowledge (optional; defaults model a knowledge-less
  // engine so non-Kalis backends and tests need not care) --------------------

  /// Returns (and clears) the collective knowggets this engine changed since
  /// the previous call. The Pipeline drains this at every batch boundary and
  /// hands the updates to the KnowledgeExchange (or discards them when the
  /// exchange is off, keeping the buffer bounded either way).
  virtual std::vector<ids::Knowgget> takeCollectiveUpdates() { return {}; }

  /// Offers one remote shard's knowgget to this engine's knowledge base.
  /// Returns whether it was accepted — implementations must enforce the
  /// one-way update rule (KnowledgeBase::putRemote). Called only from the
  /// owning worker thread.
  virtual bool applyRemoteKnowledge(const ids::Knowgget& k) {
    (void)k;
    return false;
  }

  /// Snapshot of the engine's collective knowggets: only those this engine
  /// created (`ownedOnly`, for the shutdown reconciliation deposit) or its
  /// full collective view including applied remote entries (for convergence
  /// checks).
  virtual std::vector<ids::Knowgget> collectiveKnowledge(bool ownedOnly) const {
    (void)ownedOnly;
    return {};
  }
};

/// Builds the engine for `shard`; invoked on the owning worker thread (or
/// the caller thread in deterministic mode).
using EngineFactory =
    std::function<std::unique_ptr<PacketEngine>(std::size_t shard)>;

}  // namespace kalis::pipeline
