#include "kalis/modules/topology_discovery.hpp"

namespace kalis::ids {

void TopologyDiscoveryModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("settlePackets"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      settlePackets_ = static_cast<std::uint64_t>(*v);
    }
  }
}

const char* TopologyDiscoveryModule::mediumLabel(net::Medium medium) {
  switch (medium) {
    case net::Medium::kIeee802154: return labels::kMultihopWpan;
    case net::Medium::kWifi: return labels::kMultihopWifi;
    case net::Medium::kBluetooth: return "Multihop.Bluetooth";
  }
  return labels::kMultihop;
}

void TopologyDiscoveryModule::noteMultihop(net::Medium medium,
                                           ModuleContext& ctx) {
  MediumState& state = medium_[static_cast<std::size_t>(medium)];
  if (state.multihop && state.settled) return;
  state.multihop = true;
  state.settled = true;
  ctx.kb.put(mediumLabel(medium), true);
  publishGlobal(ctx);
}

void TopologyDiscoveryModule::maybeSettle(net::Medium medium,
                                          ModuleContext& ctx) {
  MediumState& state = medium_[static_cast<std::size_t>(medium)];
  if (state.settled || state.multihop) return;
  if (state.packets < settlePackets_) return;
  state.settled = true;
  ctx.kb.put(mediumLabel(medium), false);
  publishGlobal(ctx);
}

void TopologyDiscoveryModule::publishGlobal(ModuleContext& ctx) {
  bool anyTrue = false;
  bool anyUnsettled = false;
  for (const MediumState& state : medium_) {
    if (state.packets == 0) continue;  // medium not in use: irrelevant
    if (state.multihop) anyTrue = true;
    if (!state.settled) anyUnsettled = true;
  }
  if (anyTrue) {
    ctx.kb.put(labels::kMultihop, true);
  } else if (!anyUnsettled) {
    ctx.kb.put(labels::kMultihop, false);
  }
  // Otherwise: still learning; publish nothing rather than guess.
}

void TopologyDiscoveryModule::onPacket(const net::CapturedPacket& pkt,
                                       const net::Dissection& dis,
                                       ModuleContext& ctx) {
  MediumState& state = medium_[static_cast<std::size_t>(pkt.medium)];
  ++state.packets;

  const net::EntityRef sender = dis.linkSourceRef();
  if (entities_.tryEmplace(sender).second) {
    ctx.kb.put(labels::kMonitoredNodes,
                  static_cast<long long>(entities_.size()));
  }

  if (dis.ctpData) {
    if (dis.ctpData->thl >= 1) noteMultihop(pkt.medium, ctx);
    // Same (origin, seqno) heard from two different link senders: forwarding.
    const std::uint32_t key =
        (static_cast<std::uint32_t>(dis.ctpData->origin.value) << 8) |
        dis.ctpData->seqno;
    auto [it, inserted] = originSender_.try_emplace(key, sender);
    if (!inserted && it->second != sender) noteMultihop(pkt.medium, ctx);
    if (originSender_.size() > 4096) originSender_.clear();  // bound state
  }

  if (dis.ctpBeacon) {
    // First ETX-0 advertiser wins: a sinkhole later claiming root-grade cost
    // must not overwrite established root knowledge.
    if (dis.ctpBeacon->etx == 0 && ctpRoot_.empty()) {
      ctpRoot_ = sender.toString();
      ctx.kb.put(labels::kCtpRoot, ctpRoot_);
    }
    // A beacon advertising a route of 2+ hops implies a multi-hop tree.
    if (dis.ctpBeacon->etx != 0xffff && dis.ctpBeacon->etx > 10) {
      noteMultihop(pkt.medium, ctx);
    }
  }

  if (dis.zigbee) {
    if (net::EntityRef::of(dis.zigbee->src) != sender) {
      noteMultihop(pkt.medium, ctx);  // relayed frame
    }
    // A unicast NWK frame handed to a link receiver that is not its NWK
    // destination is a routing hop in progress: the network is multi-hop
    // even if we never see the relay's retransmission.
    if (!dis.zigbee->dst.isBroadcast() && !dis.isBroadcastDest() &&
        dis.linkDestRef() != net::EntityRef::of(dis.zigbee->dst)) {
      noteMultihop(pkt.medium, ctx);
    }
  }

  if (dis.rplDio && dis.rplDio->rank > 256) noteMultihop(pkt.medium, ctx);

  maybeSettle(pkt.medium, ctx);
}

std::size_t TopologyDiscoveryModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) - kEntityMapSizeofExcess;
  entities_.forEachUnordered(
      [&](const auto& entry) { bytes += entry.label.size() + 16; });
  bytes += originSender_.size() * 48;
  return bytes;
}

}  // namespace kalis::ids
