#include "fleet/hier_exchange.hpp"

namespace kalis::fleet {

TierTable::Apply TierTable::apply(const ids::Knowgget& k) {
  const std::string key = ids::encodeKey(k.creator, k.label, k.entity);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.creator != k.creator) return Apply::kRejected;  // one-way
    if (it->second.value == k.value) return Apply::kUnchanged;
    it->second = k;
    return Apply::kAccepted;
  }
  entries_.emplace(std::move(key), k);
  return Apply::kAccepted;
}

HierarchicalExchange::HierarchicalExchange(Options options)
    : globalInbox_(options.globalInboxCapacity),
      globalLog_(options.globalLogCapacity),
      finals_(options.homes) {
  const std::size_t regions = options.regions == 0 ? 1 : options.regions;
  regions_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    regions_.push_back(std::make_unique<Region>(options.regionInboxCapacity,
                                                options.regionLogCapacity));
  }
}

void HierarchicalExchange::publishFromHome(std::size_t home, std::size_t region,
                                           const ids::Knowgget& k, SimTime at) {
  published_.fetch_add(1, std::memory_order_relaxed);
  RemoteKnowgget item;
  item.knowgget = k;
  item.fromShard = home;
  item.publishedAt = at;
  if (regions_[region]->inbox.deliver(item) ==
      KnowledgeInbox::Deliver::kDroppedOldest) {
    regionDropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

TierTable::Apply HierarchicalExchange::applyToRegion(std::size_t r,
                                                     const RemoteKnowgget& item,
                                                     bool forwardUp) {
  Region& region = *regions_[r];
  const TierTable::Apply verdict = region.table.apply(item.knowgget);
  switch (verdict) {
    case TierTable::Apply::kAccepted:
      regionAccepted_.fetch_add(1, std::memory_order_relaxed);
      // Changed entries fan down to the region's homes, and (on the upward
      // path only) up toward the global tier. Unchanged entries stop here —
      // that is what keeps the up/down circulation loop-free.
      region.log.append(item);
      if (forwardUp) {
        globalForwarded_.fetch_add(1, std::memory_order_relaxed);
        if (globalInbox_.deliver(item) ==
            KnowledgeInbox::Deliver::kDroppedOldest) {
          globalDropped_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      break;
    case TierTable::Apply::kRejected:
      regionRejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case TierTable::Apply::kUnchanged:
      break;
  }
  return verdict;
}

std::size_t HierarchicalExchange::syncRegion(std::size_t r) {
  const std::size_t drained =
      regions_[r]->inbox.drain([&](const RemoteKnowgget& item) {
        applyToRegion(r, item, /*forwardUp=*/true);
      });
  if (drained > 0) regionDrained_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

std::size_t HierarchicalExchange::syncGlobal() {
  const std::size_t drained = globalInbox_.drain([&](const RemoteKnowgget& item) {
    switch (globalTable_.apply(item.knowgget)) {
      case TierTable::Apply::kAccepted:
        ++globalAccepted_;
        globalLog_.append(item);
        break;
      case TierTable::Apply::kRejected:
        ++globalRejected_;
        break;
      case TierTable::Apply::kUnchanged:
        break;
    }
  });
  if (drained > 0) globalDrained_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

std::size_t HierarchicalExchange::pullGlobalIntoRegion(std::size_t r) {
  Region& region = *regions_[r];
  // Downward only: entries from the global tier must not bounce back up
  // through the global inbox. Cursor overruns stay in the cursor's missed
  // tally; reconcile() sums them while quiescent.
  return globalLog_.poll(region.globalCursor, [&](const RemoteKnowgget& item) {
    applyToRegion(r, item, /*forwardUp=*/false);
  });
}

void HierarchicalExchange::reconcile() {
  // Pending upward traffic first: region inboxes feed the global inbox, so
  // the order region → global empties everything in one pass.
  for (std::size_t r = 0; r < regions_.size(); ++r) syncRegion(r);
  syncGlobal();
  // Fold every home's deposited finals into the global view, in home order
  // (deterministic). This repairs anything the drop-oldest rings evicted.
  for (const auto& finalOwn : finals_.snapshot()) {
    for (const ids::Knowgget& k : finalOwn) {
      switch (globalTable_.apply(k)) {
        case TierTable::Apply::kAccepted:
          ++globalAccepted_;
          break;
        case TierTable::Apply::kRejected:
          ++globalRejected_;
          break;
        case TierTable::Apply::kUnchanged:
          break;
      }
    }
  }
  // Sum the region cursors' missed tallies while quiescent — the exact
  // count of global-log entries that overran a region reader.
  globalLogMissed_ = 0;
  for (const auto& region : regions_) {
    globalLogMissed_ += region->globalCursor.missed;
  }
}

HierarchicalExchange::Stats HierarchicalExchange::stats() const {
  Stats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.regionDrained = regionDrained_.load(std::memory_order_relaxed);
  s.regionDropped = regionDropped_.load(std::memory_order_relaxed);
  s.globalForwarded = globalForwarded_.load(std::memory_order_relaxed);
  s.globalDrained = globalDrained_.load(std::memory_order_relaxed);
  s.globalDropped = globalDropped_.load(std::memory_order_relaxed);
  s.regionAccepted = regionAccepted_.load(std::memory_order_relaxed);
  s.regionRejected = regionRejected_.load(std::memory_order_relaxed);
  s.globalAccepted = globalAccepted_;
  s.globalRejected = globalRejected_;
  s.regionLogMissed = regionLogMissed_.load(std::memory_order_relaxed);
  s.globalLogMissed = globalLogMissed_;
  return s;
}

void HierarchicalExchange::collectMetrics(obs::Registry& reg,
                                          const std::string& prefix) const {
  const Stats s = stats();
  reg.counter(prefix + ".published", s.published);
  reg.counter(prefix + ".region_drained", s.regionDrained);
  reg.counter(prefix + ".region_dropped", s.regionDropped);
  reg.counter(prefix + ".global_forwarded", s.globalForwarded);
  reg.counter(prefix + ".global_drained", s.globalDrained);
  reg.counter(prefix + ".global_dropped", s.globalDropped);
  reg.counter(prefix + ".region_accepted", s.regionAccepted);
  reg.counter(prefix + ".region_rejected", s.regionRejected);
  reg.counter(prefix + ".global_accepted", s.globalAccepted);
  reg.counter(prefix + ".global_rejected", s.globalRejected);
  reg.counter(prefix + ".region_log_missed", s.regionLogMissed);
  reg.counter(prefix + ".global_log_missed", s.globalLogMissed);
  globalInbox_.collectMetrics(reg, prefix + ".global_inbox");
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    regions_[r]->inbox.collectMetrics(reg,
                                      prefix + ".region_inbox." + std::to_string(r));
  }
}

}  // namespace kalis::fleet
