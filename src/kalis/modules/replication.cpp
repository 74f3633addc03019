#include "kalis/modules/replication.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace kalis::ids {

namespace {
bool isWpanSender(const net::Dissection& dis) {
  return dis.wpan.has_value();
}
}  // namespace

// --- ReplicationStaticModule ----------------------------------------------------

void ReplicationStaticModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("clusterGapDb"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) clusterGapDb_ = *v;
  }
  if (auto it = params.find("minPerCluster"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minPerCluster_ = static_cast<std::size_t>(*v);
    }
  }
}

void ReplicationStaticModule::onPacket(const net::CapturedPacket& pkt,
                                       const net::Dissection& dis,
                                       ModuleContext& ctx) {
  (void)ctx;
  if (!isWpanSender(dis)) return;
  auto& queue = samples_.tryEmplace(dis.linkSourceRef()).first->value;
  queue.push_back(Sample{pkt.meta.timestamp, pkt.meta.rssiDbm});
  const SimTime cutoff =
      pkt.meta.timestamp > window_ ? pkt.meta.timestamp - window_ : 0;
  while (!queue.empty() && queue.front().time <= cutoff) queue.pop_front();
}

void ReplicationStaticModule::onTick(ModuleContext& ctx) {
  // Sort buffer reused across ticks and entities. It lives outside the
  // module so that it does not add to the module's accounted state.
  thread_local std::vector<double> values;
  samples_.forEachOrdered([&](auto& entry) {
    const std::string& entity = entry.label;
    auto& queue = entry.value;
    const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
    while (!queue.empty() && queue.front().time <= cutoff) queue.pop_front();
    if (queue.size() < 2 * minPerCluster_) return;

    // No gap between sorted values exceeds the full range: a range below
    // the cluster gap rules the entity out without sorting.
    const auto [lo, hi] = std::minmax_element(
        queue.begin(), queue.end(),
        [](const Sample& a, const Sample& b) { return a.rssi < b.rssi; });
    if (hi->rssi - lo->rssi < clusterGapDb_) return;

    // Split the sorted RSSI values at the largest gap; two tight, populated,
    // well-separated clusters mean two radios under one identity.
    values.clear();
    for (const Sample& s : queue) values.push_back(s.rssi);
    std::sort(values.begin(), values.end());
    std::size_t gapAt = 0;
    double gap = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i) {
      const double g = values[i] - values[i - 1];
      if (g > gap) {
        gap = g;
        gapAt = i;
      }
    }
    if (gap < clusterGapDb_) return;
    const std::size_t lowCount = gapAt;
    const std::size_t highCount = values.size() - gapAt;
    if (lowCount < minPerCluster_ || highCount < minPerCluster_) return;
    const double lowSpread = values[gapAt - 1] - values.front();
    const double highSpread = values.back() - values[gapAt];
    if (lowSpread > clusterTightDb_ || highSpread > clusterTightDb_) return;

    if (!shouldAlert(entity, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kReplication;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entity;  // the cloned identity
    alert.suspectEntities.push_back(entity);
    alert.detail = "bimodal RSSI: clusters at " +
                   formatDouble(values.front()) + ".." +
                   formatDouble(values[gapAt - 1]) + " and " +
                   formatDouble(values[gapAt]) + ".." +
                   formatDouble(values.back()) + " dBm";
    ctx.raiseAlert(std::move(alert));
  });
}

std::size_t ReplicationStaticModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) - kEntityMapSizeofExcess + alertStateBytes();
  samples_.forEachUnordered([&](const auto& entry) {
    bytes += entry.label.size() + entry.value.size() * sizeof(Sample) + 32;
  });
  return bytes;
}

// --- ReplicationMobileModule ----------------------------------------------------

void ReplicationMobileModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("impossibleDeltaDb"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) impossibleDeltaDb_ = *v;
  }
  if (auto it = params.find("maxGapMs"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      maxGap_ = milliseconds(static_cast<std::uint64_t>(*v));
    }
  }
  if (auto it = params.find("minEvents"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minEvents_ = static_cast<std::size_t>(*v);
    }
  }
}

void ReplicationMobileModule::onPacket(const net::CapturedPacket& pkt,
                                       const net::Dissection& dis,
                                       ModuleContext& ctx) {
  (void)ctx;
  if (!isWpanSender(dis)) return;
  const std::string entity = dis.linkSource();
  LastSeen& last = lastSeen_[entity];
  if (last.valid && pkt.meta.timestamp >= last.time &&
      pkt.meta.timestamp - last.time <= maxGap_ &&
      std::fabs(pkt.meta.rssiDbm - last.rssi) >= impossibleDeltaDb_) {
    auto& queue = events_[entity];
    queue.push_back(pkt.meta.timestamp);
    const SimTime cutoff =
        pkt.meta.timestamp > window_ ? pkt.meta.timestamp - window_ : 0;
    while (!queue.empty() && queue.front() <= cutoff) queue.pop_front();
  }
  last.time = pkt.meta.timestamp;
  last.rssi = pkt.meta.rssiDbm;
  last.valid = true;
}

void ReplicationMobileModule::onTick(ModuleContext& ctx) {
  for (auto& [entity, queue] : events_) {
    const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
    while (!queue.empty() && queue.front() <= cutoff) queue.pop_front();
    if (queue.size() < minEvents_) continue;
    if (!shouldAlert(entity, ctx.now, cooldown_)) continue;
    Alert alert;
    alert.type = AttackType::kReplication;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = entity;
    alert.suspectEntities.push_back(entity);
    alert.detail = std::to_string(queue.size()) +
                   " physically impossible moves for one identity";
    ctx.raiseAlert(std::move(alert));
  }
}

std::size_t ReplicationMobileModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes();
  for (const auto& [entity, last] : lastSeen_) bytes += entity.size() + 32;
  for (const auto& [entity, queue] : events_) {
    bytes += entity.size() + queue.size() * sizeof(SimTime) + 32;
  }
  return bytes;
}

}  // namespace kalis::ids
