// Promiscuous forwarding watchdog (Marti et al.-style watchdog mechanism,
// paper refs [13], [29]): by overhearing both the packet handed to a relay
// and the relay's retransmission, an external observer can tell whether a
// node forwards faithfully, drops, or alters traffic.
//
// Works for both WSN/CTP frames (forwarding expected toward the collection
// root, THL increments per hop) and ZigBee NWK frames (forwarding expected
// while the NWK destination differs from the link receiver, radius
// decrements per hop).
//
// Embedded privately by SelectiveForwarding / Blackhole / DataAlteration;
// each keeps its own instance and no state is shared between them. Modules
// are independent by design, the work-unit proxy charges each module's
// watchdog on its own, and the duplicated state is precisely the overhead
// Kalis's knowledge-driven module selection avoids paying when a technique
// is not needed. An instance judges only the frames its node is fed: under
// the pipeline's link-source sharding (DESIGN.md §7) a relay's handoff and
// its retransmission reach different shards, so no shard's watchdog sees
// the whole exchange.
//
// Per-packet work is integer-keyed: a forwarding unit is one packed 32-bit
// key, relays are net::EntityRefs, and entity strings are built only for a
// new relay's verdict history and for alteration events.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "kalis/entity_map.hpp"
#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::ids {

class KnowledgeBase;

class ForwardingWatchdog {
 public:
  struct Config {
    Duration timeout = milliseconds(500);  ///< grace to retransmit
    Duration window = seconds(30);         ///< verdict history retained
    std::size_t maxPending = 4096;
  };

  ForwardingWatchdog() : config_(Config{}) {}
  explicit ForwardingWatchdog(Config config) : config_(config) {}

  /// The frames observe() follows: CTP data and ZigBee NWK over 802.15.4.
  /// Callers skip observe(), and looking up the root, for all others.
  static bool follows(const net::Dissection& dis) {
    return dis.wpan && (dis.ctpData || dis.zigbee);
  }

  /// The collection root's link entity as published in the Knowledge Base
  /// (labels::kCtpRoot), read in place; none() when unknown.
  static net::EntityRef ctpRoot(const KnowledgeBase& kb);

  /// Feeds one overheard packet. `ctpRoot` is the collection root's link
  /// entity (forwarding is not expected of it); none() if unknown.
  void observe(const net::CapturedPacket& pkt, const net::Dissection& dis,
               const net::EntityRef& ctpRoot);

  /// Times out pending forwards, turning them into drop verdicts. A single
  /// compare when no expectation is due yet.
  void expire(SimTime now);

  // --- per-entity verdict queries (over the trailing window) -----------------
  std::size_t samples(const net::EntityRef& entity, SimTime now);
  double dropRatio(const net::EntityRef& entity, SimTime now);
  /// Fingerprints of recently dropped packets (for wormhole correlation).
  std::vector<std::uint64_t> droppedFingerprints(const net::EntityRef& entity,
                                                 SimTime now);
  /// Visits every entity with at least one verdict in the window, in
  /// ascending label order, as fn(entity, label). `fn` may call the
  /// per-entity queries above.
  template <class Fn>
  void forEachForwarder(SimTime now, Fn&& fn) {
    verdicts_.forEachOrdered([&](VerdictMap::Entry& entry) {
      evict(entry.value, now);
      if (!entry.value.empty()) fn(entry.key, entry.label);
    });
  }

  struct AlterationEvent {
    std::string entity;
    SimTime time;
    std::string originEntity;
    std::uint64_t originalHash;
    std::uint64_t alteredHash;
  };
  /// Alteration events detected since the last drain.
  std::vector<AlterationEvent> drainAlterations();

  std::size_t memoryBytes() const;

  /// Stable fingerprint of a forwarded unit (used on both sides of a
  /// wormhole to match dropped vs re-injected traffic): 64-bit FNV-1a over
  /// src (big-endian), seq and the payload, hashed in place without
  /// copying them into one buffer.
  static std::uint64_t fingerprint(std::uint16_t src, std::uint8_t seq,
                                   BytesView payload);

 private:
  struct Pending {
    SimTime seen;
    net::EntityRef forwarder;  ///< entity expected to retransmit
    net::Mac16 origin;         ///< CTP origin or NWK source
    std::uint64_t payloadHash;
    std::uint64_t fp;
  };
  struct Verdict {
    SimTime time;
    bool dropped;
    std::uint64_t fp;
  };
  /// One forwarder's verdicts, oldest first, in a ring buffer that doubles
  /// when full: a steady verdict rate reuses the ring instead of allocating.
  class VerdictRing {
   public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Verdict& operator[](std::size_t i) const {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    void popFront() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }
    void pushBack(const Verdict& v) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & (slots_.size() - 1)] = v;
      ++size_;
    }

   private:
    void grow() {
      std::vector<Verdict> bigger(slots_.empty() ? 8 : 2 * slots_.size());
      for (std::size_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
      slots_.swap(bigger);
      head_ = 0;
    }

    std::vector<Verdict> slots_;  ///< power-of-two size
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  /// A unit timed out by expire(), held until the call records its verdict.
  struct Due {
    std::uint32_t key;
    net::EntityRef forwarder;
    std::uint64_t fp;
  };

  /// Pending units by packed key: family (CTP 0, ZigBee 1) << 24, then the
  /// 16-bit origin or NWK source << 8, then the 8-bit sequence number.
  using PendingMap = std::map<std::uint32_t, Pending>;
  using VerdictMap = EntityKeyedMap<VerdictRing>;

  void resolve(std::uint32_t key, const net::EntityRef& sender,
               std::uint64_t newPayloadHash, SimTime now);
  /// Inserts, or replaces, the expectation under `key`, in a retired map
  /// node when one is spare.
  void expect(std::uint32_t key, const Pending& p);
  /// Erases an expectation and keeps its map node for the next one.
  PendingMap::iterator retire(PendingMap::iterator it);
  static std::vector<PendingMap::node_type>& spareNodes();
  static std::vector<Due>& dueScratch();
  void addVerdict(const net::EntityRef& entity, Verdict v);
  void evict(VerdictRing& verdicts, SimTime now) const;

  // The RAM proxy (DESIGN.md §1) keeps charging the string-keyed layout this
  // watchdog replaced, per-unit key strings and forwarder labels included,
  // so memoryBytes() and every recorded state size are unchanged by the
  // switch to integer keys.
  struct StringKeyedPending {
    SimTime seen;
    std::string forwarder;
    std::uint64_t payloadHash;
    std::uint64_t fp;
    std::string originEntity;
  };
  struct StringKeyedLayout {
    Config config;
    std::map<std::string, StringKeyedPending> pending;
    std::map<std::string, std::deque<Verdict>> verdicts;
    std::vector<AlterationEvent> alterations;
  };

 public:
  /// How much larger this class is than the string-keyed layout; an owner
  /// that embeds a watchdog subtracts it once from its own sizeof.
  static constexpr std::size_t sizeofExcess() {
    return sizeof(ForwardingWatchdog) - sizeof(StringKeyedLayout);
  }

 private:
  Config config_;
  PendingMap pending_;
  /// No pending deadline is earlier (a lower bound, exact after expire()).
  SimTime earliestDeadline_ = kSimTimeMax;
  VerdictMap verdicts_;  ///< by forwarder
  std::vector<AlterationEvent> alterations_;
};

}  // namespace kalis::ids
