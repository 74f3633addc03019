#include "kalis/modules/sybil.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace kalis::ids {

// --- SybilSinglehopModule -------------------------------------------------------

void SybilSinglehopModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("clusterEpsilonDb"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) clusterEpsilonDb_ = *v;
  }
  if (auto it = params.find("minIdentities"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minIdentities_ = static_cast<std::size_t>(*v);
    }
  }
}

void SybilSinglehopModule::onPacket(const net::CapturedPacket& pkt,
                                    const net::Dissection& dis,
                                    ModuleContext& ctx) {
  (void)ctx;
  if (!dis.wpan) return;
  IdentityState& s = identities_[dis.linkSource()];
  if (s.packets == 0) s.firstSeen = pkt.meta.timestamp;
  s.rssi.add(pkt.meta.rssiDbm);
  s.lastSeen = pkt.meta.timestamp;
  ++s.packets;
}

void SybilSinglehopModule::onTick(ModuleContext& ctx) {
  // Collect recently active identities with a settled fingerprint.
  struct Candidate {
    const std::string* entity;
    double rssi;
    SimTime firstSeen;
  };
  std::vector<Candidate> active;
  const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
  for (const auto& [entity, s] : identities_) {
    if (s.lastSeen > cutoff && s.packets >= minPackets_) {
      active.push_back(Candidate{&entity, s.rssi.value(), s.firstSeen});
    }
  }
  if (active.size() < minIdentities_) return;
  std::sort(active.begin(), active.end(),
            [](const Candidate& a, const Candidate& b) { return a.rssi < b.rssi; });

  // Sliding group over the sorted fingerprints: identities within epsilon of
  // each other form one physical-transmitter cluster.
  std::size_t begin = 0;
  for (std::size_t end = 0; end <= active.size(); ++end) {
    const bool boundary =
        end == active.size() ||
        (end > begin && active[end].rssi - active[end - 1].rssi > clusterEpsilonDb_);
    if (!boundary) continue;
    const std::size_t count = end - begin;
    if (count >= minIdentities_ &&
        active[end - 1].rssi - active[begin].rssi <= 2 * clusterEpsilonDb_) {
      // Require the cluster to be "new" in aggregate: a set of long-lived
      // legitimate identities won't all have appeared recently.
      std::size_t recent = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (active[i].firstSeen > cutoff) ++recent;
      }
      if (recent * 2 >= count) {
        const std::string clusterKey =
            "cluster@" + formatDouble(std::round(active[begin].rssi));
        if (shouldAlert(clusterKey, ctx.now, cooldown_)) {
          Alert alert;
          alert.type = AttackType::kSybil;
          alert.time = ctx.now;
          alert.moduleName = name();
          for (std::size_t i = begin; i < end; ++i) {
            alert.suspectEntities.push_back(*active[i].entity);
          }
          alert.detail = std::to_string(count) +
                         " identities sharing one RSSI fingerprint (" +
                         formatDouble(active[begin].rssi) + " dBm)";
          ctx.raiseAlert(std::move(alert));
        }
      }
    }
    begin = end;
  }
}

std::size_t SybilSinglehopModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) + alertStateBytes();
  for (const auto& [entity, s] : identities_) {
    bytes += entity.size() + sizeof(IdentityState) + 32;
  }
  return bytes;
}

// --- SybilMultihopModule --------------------------------------------------------

void SybilMultihopModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("minGhosts"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minGhosts_ = static_cast<std::size_t>(*v);
    }
  }
}

void SybilMultihopModule::onPacket(const net::CapturedPacket& pkt,
                                   const net::Dissection& dis,
                                   ModuleContext& ctx) {
  (void)ctx;
  if (!dis.wpan) return;
  const net::EntityRef sender = dis.linkSourceRef();
  IdentityState& s = identities_.tryEmplace(sender).first->value;
  if (s.lastSeen == 0) s.firstSeen = pkt.meta.timestamp;
  s.lastSeen = pkt.meta.timestamp;

  if (dis.ctpBeacon || dis.type == net::PacketType::kZigbeeRouting ||
      dis.type == net::PacketType::kRplDio) {
    s.routedEver = true;  // participates in routing: not a ghost
  }
  if (dis.ctpData) {
    ++s.dataPackets;
    // A forwarding node (THL>0 under its link id) is routing.
    const net::EntityRef origin = net::EntityRef::of(dis.ctpData->origin);
    if (dis.ctpData->thl > 0 && origin != sender) {
      s.routedEver = true;
    }
    // The *origin* identity inside a forwarded frame is also being claimed:
    // track it so fabricated origins count as identities.
    IdentityState& o = identities_.tryEmplace(origin).first->value;
    if (o.lastSeen == 0) o.firstSeen = pkt.meta.timestamp;
    o.lastSeen = pkt.meta.timestamp;
    ++o.dataPackets;
  }
}

void SybilMultihopModule::onTick(ModuleContext& ctx) {
  const SimTime cutoff = ctx.now > window_ ? ctx.now - window_ : 0;
  std::vector<std::string> ghosts;
  identities_.forEachOrdered([&](const auto& entry) {
    const IdentityState& s = entry.value;
    if (s.lastSeen > cutoff && s.firstSeen > cutoff && !s.routedEver &&
        s.dataPackets >= 1) {
      ghosts.push_back(entry.label);
    }
  });
  if (ghosts.size() < minGhosts_) return;
  if (!shouldAlert("ghost-burst", ctx.now, cooldown_)) return;
  Alert alert;
  alert.type = AttackType::kSybil;
  alert.time = ctx.now;
  alert.moduleName = name();
  alert.suspectEntities = ghosts;
  alert.detail = std::to_string(ghosts.size()) +
                 " fresh identities injecting data without ever routing";
  ctx.raiseAlert(std::move(alert));
}

std::size_t SybilMultihopModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) - kEntityMapSizeofExcess + alertStateBytes();
  identities_.forEachUnordered([&](const auto& entry) {
    bytes += entry.label.size() + sizeof(IdentityState) + 32;
  });
  return bytes;
}

}  // namespace kalis::ids
