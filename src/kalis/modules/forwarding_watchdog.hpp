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
// each keeps its own instance — modules are independent by design, and the
// duplicated state is precisely the overhead Kalis's knowledge-driven module
// selection avoids paying when a technique is not needed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace kalis::ids {

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

  /// Feeds one overheard packet. `ctpRoot` is the collection root's link
  /// entity (forwarding is not expected of it); empty if unknown.
  void observe(const net::CapturedPacket& pkt, const net::Dissection& dis,
               const std::string& ctpRoot);

  /// Times out pending forwards, turning them into drop verdicts.
  void expire(SimTime now);

  // --- per-entity verdict queries (over the trailing window) -----------------
  std::size_t samples(const std::string& entity, SimTime now);
  double dropRatio(const std::string& entity, SimTime now);
  /// Fingerprints of recently dropped packets (for wormhole correlation).
  std::vector<std::uint64_t> droppedFingerprints(const std::string& entity,
                                                 SimTime now);
  /// Visits every entity with at least one verdict in the window, in
  /// ascending entity order. `fn` may call the per-entity queries above.
  template <class Fn>
  void forEachForwarder(SimTime now, Fn&& fn) {
    for (auto& [entity, deque] : verdicts_) {
      evict(deque, now);
      if (!deque.empty()) fn(entity);
    }
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
    std::string forwarder;   ///< entity expected to retransmit
    std::uint64_t payloadHash;
    std::uint64_t fp;
    std::string originEntity;
  };
  struct Verdict {
    SimTime time;
    bool dropped;
    std::uint64_t fp;
  };

  using PendingMap = std::map<std::string, Pending>;

  void resolve(const std::string& key, const net::EntityRef& sender,
               std::uint64_t newPayloadHash, SimTime now);
  /// Inserts, or replaces, the expectation under `key`, in a retired map
  /// node when one is spare.
  void expect(const std::string& key, Pending p);
  /// Erases an expectation and keeps its map node for the next one.
  PendingMap::iterator retire(PendingMap::iterator it);
  static std::vector<PendingMap::node_type>& spareNodes();
  void addVerdict(const std::string& entity, Verdict v);
  void evict(std::deque<Verdict>& verdicts, SimTime now) const;

  Config config_;
  PendingMap pending_;                                ///< by unit key
  std::map<std::string, std::deque<Verdict>> verdicts_;  ///< by forwarder
  std::vector<AlterationEvent> alterations_;
};

}  // namespace kalis::ids
