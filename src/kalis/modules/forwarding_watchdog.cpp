#include "kalis/modules/forwarding_watchdog.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "kalis/knowledge.hpp"
#include "util/checksum.hpp"

namespace kalis::ids {

namespace {

constexpr std::uint32_t kCtpFamily = 0;
constexpr std::uint32_t kZigbeeFamily = 1;

constexpr std::uint32_t unitKey(std::uint32_t family, std::uint16_t source,
                                std::uint8_t seq) {
  return (family << 24) | (static_cast<std::uint32_t>(source) << 8) | seq;
}

/// Longest string key: "Z65535:255".
constexpr std::size_t kMaxKeyText = 10;

/// The unit's key in the watchdog's original string form, "C<origin>:<seq>"
/// or "Z<src>:<seq>", written to `out`. Simultaneous timeouts are recorded
/// in this order, which droppedFingerprints() — and with it the
/// Wormhole.Drops knowgget — exposes.
std::string_view keyText(std::uint32_t key, char (&out)[kMaxKeyText]) {
  char* p = out;
  *p++ = (key >> 24) == kZigbeeFamily ? 'Z' : 'C';
  p = std::to_chars(p, std::end(out), (key >> 8) & 0xffff).ptr;
  *p++ = ':';
  p = std::to_chars(p, std::end(out), key & 0xff).ptr;
  return std::string_view(out, static_cast<std::size_t>(p - out));
}

bool keyTextLess(std::uint32_t a, std::uint32_t b) {
  char textA[kMaxKeyText];
  char textB[kMaxKeyText];
  return keyText(a, textA) < keyText(b, textB);
}

constexpr std::size_t kSpareNodes = 64;

}  // namespace

net::EntityRef ForwardingWatchdog::ctpRoot(const KnowledgeBase& kb) {
  // TopologyDiscovery publishes the root's short address as its label, "0x"
  // and four lowercase hex digits. No other string names an 802.15.4
  // receiver, so anything else leaves every receiver expected to forward.
  const std::string_view root = kb.localView(labels::kCtpRoot).value_or("");
  const bool label = root.size() == 6 && root.starts_with("0x") &&
                     std::none_of(root.begin(), root.end(),
                                  [](char c) { return c >= 'A' && c <= 'F'; });
  const std::optional<net::Mac16> mac =
      label ? net::parseMac16(root) : std::nullopt;
  return mac ? net::EntityRef::of(*mac) : net::EntityRef::none();
}

// Resolved and expired expectations leave their map nodes here for the next
// expectation, so a steady stream of forwarded units allocates nothing. One
// pool per thread, shared by the watchdogs confined to it.
std::vector<ForwardingWatchdog::PendingMap::node_type>&
ForwardingWatchdog::spareNodes() {
  thread_local std::vector<PendingMap::node_type> spare;
  return spare;
}

// Units timed out by one expire() call wait here to be recorded in key-text
// order; per thread, like the spare nodes, so its capacity outlives the
// watchdogs.
std::vector<ForwardingWatchdog::Due>& ForwardingWatchdog::dueScratch() {
  thread_local std::vector<Due> due;
  return due;
}

void ForwardingWatchdog::expect(std::uint32_t key, const Pending& p) {
  earliestDeadline_ = std::min(earliestDeadline_, p.seen + config_.timeout);
  auto& spare = spareNodes();
  if (spare.empty()) {
    pending_.insert_or_assign(key, p);
    return;
  }
  PendingMap::node_type node = std::move(spare.back());
  spare.pop_back();
  node.key() = key;
  node.mapped() = p;
  auto result = pending_.insert(std::move(node));
  if (!result.inserted) {  // a newer copy of a unit already expected
    result.position->second = p;
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
                                 const net::EntityRef& ctpRoot) {
  const SimTime now = pkt.meta.timestamp;
  if (dis.ctpData && dis.wpan) {
    const net::CtpDataView& data = *dis.ctpData;
    const std::uint32_t key = unitKey(kCtpFamily, data.origin.value, data.seqno);
    const std::uint64_t payloadHash = fnv1a64(BytesView(data.payload));

    // First: does this transmission resolve a pending expectation?
    resolve(key, dis.linkSourceRef(), payloadHash, now);

    // Then: does it create a new expectation? The receiver must forward,
    // unless it is the collection root or a broadcast.
    if (dis.wpan->dst.isBroadcast() || pending_.size() >= config_.maxPending) {
      return;
    }
    const net::EntityRef receiver = dis.linkDestRef();
    if (receiver == ctpRoot) return;
    expect(key, Pending{now, receiver, data.origin, payloadHash,
                        fingerprint(data.origin.value, data.seqno,
                                    BytesView(data.payload))});
    return;
  }

  if (dis.zigbee && dis.wpan) {
    const net::ZigbeeNwkFrameView& nwk = *dis.zigbee;
    const std::uint32_t key = unitKey(kZigbeeFamily, nwk.src.value, nwk.seq);
    const std::uint64_t payloadHash = fnv1a64(BytesView(nwk.payload));

    resolve(key, dis.linkSourceRef(), payloadHash, now);

    // Forwarding expected when the link receiver is not the NWK destination.
    if (!dis.wpan->dst.isBroadcast() && !nwk.dst.isBroadcast() &&
        dis.wpan->dst != nwk.dst && pending_.size() < config_.maxPending) {
      expect(key, Pending{now, dis.linkDestRef(), nwk.src, payloadHash,
                          fingerprint(nwk.src.value, nwk.seq,
                                      BytesView(nwk.payload))});
    }
  }
}

void ForwardingWatchdog::resolve(std::uint32_t key,
                                 const net::EntityRef& sender,
                                 std::uint64_t newPayloadHash, SimTime now) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  const Pending& p = it->second;
  if (p.forwarder != sender) return;  // someone else's copy
  if (newPayloadHash != p.payloadHash) {
    alterations_.push_back(AlterationEvent{sender.toString(), now,
                                           net::toString(p.origin),
                                           p.payloadHash, newPayloadHash});
  }
  addVerdict(sender, Verdict{now, false, p.fp});
  retire(it);
}

void ForwardingWatchdog::expire(SimTime now) {
  if (now < earliestDeadline_) return;
  auto& due = dueScratch();
  SimTime earliest = kSimTimeMax;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const SimTime deadline = it->second.seen + config_.timeout;
    if (now >= deadline) {
      due.push_back(Due{it->first, it->second.forwarder, it->second.fp});
      it = retire(it);
    } else {
      earliest = std::min(earliest, deadline);
      ++it;
    }
  }
  earliestDeadline_ = earliest;
  if (due.size() > 1) {
    std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
      return keyTextLess(a.key, b.key);
    });
  }
  for (const Due& d : due) addVerdict(d.forwarder, Verdict{now, true, d.fp});
  due.clear();
}

void ForwardingWatchdog::addVerdict(const net::EntityRef& entity, Verdict v) {
  VerdictRing& verdicts = verdicts_.tryEmplace(entity).first->value;
  verdicts.pushBack(v);
  evict(verdicts, v.time);
}

void ForwardingWatchdog::evict(VerdictRing& verdicts, SimTime now) const {
  const SimTime cutoff = now > config_.window ? now - config_.window : 0;
  while (!verdicts.empty() && verdicts[0].time <= cutoff) verdicts.popFront();
}

std::size_t ForwardingWatchdog::samples(const net::EntityRef& entity,
                                        SimTime now) {
  auto* entry = verdicts_.find(entity);
  if (entry == nullptr) return 0;
  evict(entry->value, now);
  return entry->value.size();
}

double ForwardingWatchdog::dropRatio(const net::EntityRef& entity,
                                     SimTime now) {
  auto* entry = verdicts_.find(entity);
  if (entry == nullptr) return 0.0;
  const VerdictRing& verdicts = entry->value;
  evict(entry->value, now);
  if (verdicts.empty()) return 0.0;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].dropped) ++dropped;
  }
  return static_cast<double>(dropped) / static_cast<double>(verdicts.size());
}

std::vector<std::uint64_t> ForwardingWatchdog::droppedFingerprints(
    const net::EntityRef& entity, SimTime now) {
  std::vector<std::uint64_t> fps;
  auto* entry = verdicts_.find(entity);
  if (entry == nullptr) return fps;
  const VerdictRing& verdicts = entry->value;
  evict(entry->value, now);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].dropped) fps.push_back(verdicts[i].fp);
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
  std::size_t bytes = sizeof(*this) - sizeofExcess();
  char text[kMaxKeyText];
  for (const auto& [key, p] : pending_) {
    bytes += keyText(key, text).size() + sizeof(StringKeyedPending) +
             p.forwarder.toString().size();
  }
  verdicts_.forEachUnordered([&](const VerdictMap::Entry& entry) {
    bytes += entry.label.size() + entry.value.size() * sizeof(Verdict) + 32;
  });
  return bytes;
}

}  // namespace kalis::ids
