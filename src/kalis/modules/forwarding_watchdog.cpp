#include "kalis/modules/forwarding_watchdog.hpp"

#include "util/checksum.hpp"

namespace kalis::ids {

namespace {

std::string ctpKey(std::uint16_t origin, std::uint8_t seqno) {
  return "C" + std::to_string(origin) + ":" + std::to_string(seqno);
}

std::string zigbeeKey(std::uint16_t src, std::uint8_t seq) {
  return "Z" + std::to_string(src) + ":" + std::to_string(seq);
}

constexpr std::size_t kSpareNodes = 64;

}  // namespace

// Resolved and expired expectations leave their map nodes here for the next
// expectation, so a steady stream of forwarded units allocates nothing. One
// pool per thread, shared by the watchdogs confined to it.
std::vector<ForwardingWatchdog::PendingMap::node_type>&
ForwardingWatchdog::spareNodes() {
  thread_local std::vector<PendingMap::node_type> spare;
  return spare;
}

void ForwardingWatchdog::expect(const std::string& key, Pending p) {
  auto& spare = spareNodes();
  if (spare.empty()) {
    pending_[key] = std::move(p);
    return;
  }
  PendingMap::node_type node = std::move(spare.back());
  spare.pop_back();
  node.key() = key;
  node.mapped() = std::move(p);
  auto result = pending_.insert(std::move(node));
  if (!result.inserted) {  // a newer copy of a unit already expected
    result.position->second = std::move(result.node.mapped());
    spare.push_back(std::move(result.node));
  }
}

ForwardingWatchdog::PendingMap::iterator ForwardingWatchdog::retire(
    PendingMap::iterator it) {
  const auto next = std::next(it);
  auto& spare = spareNodes();
  if (spare.size() < kSpareNodes) {
    spare.push_back(pending_.extract(it));
  } else {
    pending_.erase(it);
  }
  return next;
}

std::uint64_t ForwardingWatchdog::fingerprint(std::uint16_t src,
                                              std::uint8_t seq,
                                              BytesView payload) {
  const std::uint8_t head[3] = {static_cast<std::uint8_t>(src >> 8),
                                static_cast<std::uint8_t>(src & 0xff), seq};
  return fnv1a64(payload, fnv1a64(BytesView(head)));
}

void ForwardingWatchdog::observe(const net::CapturedPacket& pkt,
                                 const net::Dissection& dis,
                                 const std::string& ctpRoot) {
  const SimTime now = pkt.meta.timestamp;
  if (dis.ctpData && dis.wpan) {
    const net::CtpDataView& data = *dis.ctpData;
    const std::string key = ctpKey(data.origin.value, data.seqno);
    const std::uint64_t payloadHash = fnv1a64(BytesView(data.payload));

    // First: does this transmission resolve a pending expectation?
    resolve(key, dis.linkSourceRef(), payloadHash, now);

    // Then: does it create a new expectation? The receiver must forward,
    // unless it is the collection root or a broadcast.
    if (dis.wpan->dst.isBroadcast() || pending_.size() >= config_.maxPending) {
      return;
    }
    std::string receiver = dis.linkDest();
    if (receiver == ctpRoot) return;
    Pending p;
    p.seen = now;
    p.forwarder = std::move(receiver);
    p.payloadHash = payloadHash;
    p.fp = fingerprint(data.origin.value, data.seqno, BytesView(data.payload));
    p.originEntity = net::toString(data.origin);
    expect(key, std::move(p));
    return;
  }

  if (dis.zigbee && dis.wpan) {
    const net::ZigbeeNwkFrameView& nwk = *dis.zigbee;
    const std::string key = zigbeeKey(nwk.src.value, nwk.seq);
    const std::uint64_t payloadHash = fnv1a64(BytesView(nwk.payload));

    resolve(key, dis.linkSourceRef(), payloadHash, now);

    // Forwarding expected when the link receiver is not the NWK destination.
    if (!dis.wpan->dst.isBroadcast() && !nwk.dst.isBroadcast() &&
        dis.wpan->dst != nwk.dst && pending_.size() < config_.maxPending) {
      Pending p;
      p.seen = now;
      p.forwarder = dis.linkDest();
      p.payloadHash = payloadHash;
      p.fp = fingerprint(nwk.src.value, nwk.seq, BytesView(nwk.payload));
      p.originEntity = net::toString(nwk.src);
      expect(key, std::move(p));
    }
  }
}

void ForwardingWatchdog::resolve(const std::string& key,
                                 const net::EntityRef& sender,
                                 std::uint64_t newPayloadHash, SimTime now) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  std::string bySender = sender.toString();
  if (it->second.forwarder != bySender) return;  // someone else's copy
  if (newPayloadHash != it->second.payloadHash) {
    alterations_.push_back(AlterationEvent{bySender, now,
                                           it->second.originEntity,
                                           it->second.payloadHash,
                                           newPayloadHash});
  }
  addVerdict(bySender, Verdict{now, false, it->second.fp});
  retire(it);
}

void ForwardingWatchdog::expire(SimTime now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now >= it->second.seen + config_.timeout) {
      addVerdict(it->second.forwarder, Verdict{now, true, it->second.fp});
      it = retire(it);
    } else {
      ++it;
    }
  }
}

void ForwardingWatchdog::addVerdict(const std::string& entity, Verdict v) {
  auto& deque = verdicts_[entity];
  deque.push_back(v);
  evict(deque, v.time);
}

void ForwardingWatchdog::evict(std::deque<Verdict>& verdicts,
                               SimTime now) const {
  const SimTime cutoff = now > config_.window ? now - config_.window : 0;
  while (!verdicts.empty() && verdicts.front().time <= cutoff) {
    verdicts.pop_front();
  }
}

std::size_t ForwardingWatchdog::samples(const std::string& entity,
                                        SimTime now) {
  auto it = verdicts_.find(entity);
  if (it == verdicts_.end()) return 0;
  evict(it->second, now);
  return it->second.size();
}

double ForwardingWatchdog::dropRatio(const std::string& entity, SimTime now) {
  auto it = verdicts_.find(entity);
  if (it == verdicts_.end()) return 0.0;
  evict(it->second, now);
  if (it->second.empty()) return 0.0;
  std::size_t dropped = 0;
  for (const Verdict& v : it->second) {
    if (v.dropped) ++dropped;
  }
  return static_cast<double>(dropped) / static_cast<double>(it->second.size());
}

std::vector<std::uint64_t> ForwardingWatchdog::droppedFingerprints(
    const std::string& entity, SimTime now) {
  std::vector<std::uint64_t> fps;
  auto it = verdicts_.find(entity);
  if (it == verdicts_.end()) return fps;
  evict(it->second, now);
  for (const Verdict& v : it->second) {
    if (v.dropped) fps.push_back(v.fp);
  }
  return fps;
}

std::vector<ForwardingWatchdog::AlterationEvent>
ForwardingWatchdog::drainAlterations() {
  std::vector<AlterationEvent> out;
  out.swap(alterations_);
  return out;
}

std::size_t ForwardingWatchdog::memoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& [key, p] : pending_) {
    bytes += key.size() + sizeof(Pending) + p.forwarder.size();
  }
  for (const auto& [entity, deque] : verdicts_) {
    bytes += entity.size() + deque.size() * sizeof(Verdict) + 32;
  }
  return bytes;
}

}  // namespace kalis::ids
