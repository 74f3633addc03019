#include "pipeline/knowledge_exchange.hpp"

namespace kalis::pipeline {

KnowledgeExchange::KnowledgeExchange(Options options)
    : finals_(options.shards == 0 ? 1 : options.shards) {
  const std::size_t shards = options.shards == 0 ? 1 : options.shards;
  inboxes_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    inboxes_.push_back(std::make_unique<KnowledgeInbox>(options.inboxCapacity));
  }
}

void KnowledgeExchange::publish(std::size_t fromShard, const ids::Knowgget& k,
                                SimTime at) {
  published_.fetch_add(1, std::memory_order_relaxed);
  if (inboxes_.size() < 2) return;  // single shard: nothing to exchange
  RemoteKnowgget item;
  item.knowgget = k;
  item.fromShard = fromShard;
  item.publishedAt = at;
  for (std::size_t shard = 0; shard < inboxes_.size(); ++shard) {
    if (shard == fromShard) continue;
    // The inbox's drop-oldest discipline keeps publish non-blocking: a
    // stalled consumer costs an eviction (repaired by shutdown
    // reconciliation), never a deadlock.
    const auto result = inboxes_[shard]->deliver(item);
    if (result == KnowledgeInbox::Deliver::kDroppedOldest) {
      droppedInFlight_.fetch_add(1, std::memory_order_relaxed);
    }
    if (result != KnowledgeInbox::Deliver::kClosed) {
      deliveries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t KnowledgeExchange::drain(
    std::size_t shard, const std::function<bool(const RemoteKnowgget&)>& apply) {
  return inboxes_[shard]->drain(
      [&](const RemoteKnowgget& item) { countApply(apply(item)); });
}

void KnowledgeExchange::countApply(bool accepted) {
  if (accepted) {
    applied_.fetch_add(1, std::memory_order_relaxed);
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
}

void KnowledgeExchange::waitAllFinished() const {
  finishWaits_.fetch_add(1, std::memory_order_relaxed);
  finals_.wait();
}

bool KnowledgeExchange::waitAllFinished(std::chrono::milliseconds timeout) const {
  finishWaits_.fetch_add(1, std::memory_order_relaxed);
  return finals_.waitFor(timeout);
}

std::size_t KnowledgeExchange::applyFinalFrom(
    std::size_t shard, const std::function<bool(const ids::Knowgget&)>& apply) {
  const std::vector<std::vector<ids::Knowgget>> finals = finals_.snapshot();
  std::size_t offered = 0;
  for (std::size_t from = 0; from < finals.size(); ++from) {
    if (from == shard) continue;
    for (const ids::Knowgget& k : finals[from]) {
      countApply(apply(k));
      ++offered;
    }
  }
  return offered;
}

KnowledgeExchange::Stats KnowledgeExchange::stats() const {
  Stats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.deliveries = deliveries_.load(std::memory_order_relaxed);
  s.applied = applied_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.droppedInFlight = droppedInFlight_.load(std::memory_order_relaxed);
  s.finishWaits = finishWaits_.load(std::memory_order_relaxed);
  return s;
}

void KnowledgeExchange::collectMetrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  const Stats s = stats();
  reg.counter(prefix + ".published", s.published);
  reg.counter(prefix + ".deliveries", s.deliveries);
  reg.counter(prefix + ".applied", s.applied);
  reg.counter(prefix + ".rejected", s.rejected);
  reg.counter(prefix + ".dropped_in_flight", s.droppedInFlight);
  reg.counter(prefix + ".finish_waits", s.finishWaits);
  for (std::size_t i = 0; i < inboxes_.size(); ++i) {
    inboxes_[i]->collectMetrics(reg, prefix + ".inbox." + std::to_string(i));
  }
}

}  // namespace kalis::pipeline
