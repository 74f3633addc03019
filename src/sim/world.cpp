#include "sim/world.hpp"

#include <cassert>

#include "util/log.hpp"

namespace kalis::sim {

const char* roleName(NodeRole r) {
  switch (r) {
    case NodeRole::kHub: return "hub";
    case NodeRole::kSub: return "sub";
    case NodeRole::kRouter: return "router";
    case NodeRole::kInternetHost: return "internet";
    case NodeRole::kIdsBox: return "ids";
    case NodeRole::kGeneric: return "node";
  }
  return "?";
}

// --- NodeHandle --------------------------------------------------------------

const std::string& NodeHandle::name() const { return world_->nameOf(id_); }
net::Mac16 NodeHandle::mac16() const { return world_->mac16Of(id_); }
net::Mac48 NodeHandle::mac48() const { return world_->mac48Of(id_); }
net::Ipv4Addr NodeHandle::ipv4() const { return world_->ipv4Of(id_); }
net::Ipv6Addr NodeHandle::ipv6() const { return world_->ipv6Of(id_); }
SimTime NodeHandle::now() const { return world_->sim().now(); }
Rng& NodeHandle::rng() { return world_->sim().rng(); }
Vec2 NodeHandle::position() const { return world_->positionOf(id_); }

void NodeHandle::send(net::Medium medium, Bytes frame) {
  world_->send(id_, medium, std::move(frame));
}

// --- World -------------------------------------------------------------------

World::World(Simulator& sim) : sim_(sim), fadingRng_(sim.rng().fork()) {}

NodeId World::addNode(std::string name, NodeRole role, Vec2 pos) {
  NodeState state;
  state.name = std::move(name);
  state.role = role;
  state.position = pos;
  state.mac16 = net::Mac16{static_cast<std::uint16_t>(nodes_.size() + 1)};
  nodes_.push_back(std::move(state));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void World::enableRadio(NodeId id, net::Medium medium,
                        std::optional<RadioConfig> config) {
  auto& radio = nodes_.at(id).radios[mindex(medium)];
  if (config) {
    radio.config = *config;
  } else if (!radio.enabled) {
    // Keep a previously installed configuration; only fill defaults when the
    // radio was never configured.
    const RadioDefaults d = defaultsForMedium(static_cast<int>(medium));
    radio.config = RadioConfig{d.txPowerDbm, d.sensitivityDbm, 0};
  }
  radio.enabled = true;
}

void World::setBehavior(NodeId id, std::unique_ptr<Behavior> behavior) {
  nodes_.at(id).behavior = std::move(behavior);
}

void World::addSniffer(NodeId id, net::Medium medium, SnifferCallback cb) {
  nodes_.at(id).sniffers[mindex(medium)].push_back(
      SnifferState{std::move(cb), 0});
}

void World::setMobility(NodeId id, std::unique_ptr<MobilityModel> model) {
  nodes_.at(id).mobility = std::move(model);
}

net::Mac16 World::mac16Of(NodeId id) const { return nodes_.at(id).mac16; }

void World::setMac16(NodeId id, net::Mac16 mac) { nodes_.at(id).mac16 = mac; }

net::Mac48 World::mac48Of(NodeId id) const {
  // Locally administered address embedding the node id.
  net::Mac48 a;
  a.bytes = {0x02, 0x4b, 0x41,  // "KA"
             static_cast<std::uint8_t>((id >> 16) & 0xff),
             static_cast<std::uint8_t>((id >> 8) & 0xff),
             static_cast<std::uint8_t>(id & 0xff)};
  return a;
}

net::Ipv4Addr World::ipv4Of(NodeId id) const {
  // 10.0.x.y with y != 0; internet hosts get 198.51.100.x (TEST-NET-2).
  if (nodes_.at(id).role == NodeRole::kInternetHost) {
    return net::Ipv4Addr{(198u << 24) | (51u << 16) | (100u << 8) |
                         ((id % 254) + 1)};
  }
  return net::Ipv4Addr{(10u << 24) | (((id >> 8) & 0xff) << 8) |
                       ((id & 0xff) + 1)};
}

net::Ipv6Addr World::ipv6Of(NodeId id) const {
  return net::Ipv6Addr::linkLocalFromShort(nodes_.at(id).mac16);
}

std::optional<NodeId> World::nodeByMac16(net::Mac16 mac) const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].mac16 == mac) return i;
  }
  return std::nullopt;
}

const std::string& World::nameOf(NodeId id) const { return nodes_.at(id).name; }
NodeRole World::roleOf(NodeId id) const { return nodes_.at(id).role; }
Vec2 World::positionOf(NodeId id) const { return nodes_.at(id).position; }

PropagationModel& World::propagation(net::Medium medium) {
  return propagation_[mindex(medium)];
}

void World::setLossProbability(net::Medium medium, double p) {
  lossProbability_[mindex(medium)] = p;
}

void World::revoke(NodeId id, Duration period) {
  nodes_.at(id).revokedUntil = sim_.now() + period;
  KALIS_INFO("world", "revoked " << nameOf(id) << " until "
                                 << toSeconds(nodes_.at(id).revokedUntil) << "s");
}

bool World::isRevoked(NodeId id) const {
  return nodes_.at(id).revokedUntil > sim_.now();
}

void World::setDownFor(NodeId id, Duration period) {
  nodes_.at(id).downUntil = sim_.now() + period;
  KALIS_DEBUG("world", nameOf(id) << " down (injected crash) until "
                                  << toSeconds(nodes_.at(id).downUntil) << "s");
}

bool World::isDown(NodeId id) const {
  return nodes_.at(id).downUntil > sim_.now();
}

void World::start() {
  assert(!started_);
  started_ = true;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].behavior) {
      // Defer so every behavior observes a fully constructed world.
      sim_.schedule(0, [this, id] {
        NodeHandle h(this, id);
        nodes_[id].behavior->start(h);
      });
    }
  }
  sim_.schedule(kMobilityTick, [this] { mobilityTickFn(); });
}

void World::mobilityTickFn() {
  for (auto& node : nodes_) {
    if (node.mobility) node.position = node.mobility->positionAt(sim_.now());
  }
  sim_.schedule(kMobilityTick, [this] { mobilityTickFn(); });
}

Duration txDuration(net::Medium medium, std::size_t frameBytes) {
  // bits / (bits per microsecond)
  const double bits = static_cast<double>(frameBytes) * 8.0;
  switch (medium) {
    case net::Medium::kIeee802154: return static_cast<Duration>(bits / 0.25);
    case net::Medium::kWifi: return static_cast<Duration>(bits / 24.0);
    case net::Medium::kBluetooth: return static_cast<Duration>(bits / 1.0);
  }
  return 0;
}

void World::send(NodeId from, net::Medium medium, Bytes frame) {
  const auto& sender = nodes_.at(from);
  if (!sender.radios[mindex(medium)].enabled) {
    KALIS_WARN("world", nameOf(from) << " tried to send on a disabled radio");
    return;
  }
  if (isRevoked(from) || isDown(from)) return;
  ++counters_.framesSent;
  Duration airtime = txDuration(medium, frame.size());
  if (faults_) {
    LinkFaultInjector::TxFault tx =
        faults_->onTransmit(from, medium, frame, sim_.now());
    if (tx.drop) return;
    if (tx.corrupted) frame = std::move(*tx.corrupted);
    airtime += tx.extraDelay;
    // Duplicates arrive back-to-back after the original, as a retransmitting
    // radio would produce them.
    for (unsigned i = 1; i <= tx.duplicates; ++i) {
      sim_.schedule(airtime + airtime * i, [this, from, medium, frame] {
        deliver(from, medium, frame);
      });
    }
  }
  sim_.schedule(airtime, [this, from, medium, frame = std::move(frame)] {
    deliver(from, medium, frame);
  });
}

void World::deliver(NodeId from, net::Medium medium, const Bytes& frame) {
  const auto& sender = nodes_.at(from);
  const double txPower = sender.radios[mindex(medium)].config.txPowerDbm;
  const int channel = sender.radios[mindex(medium)].config.channel;
  const PropagationModel& prop = propagation_[mindex(medium)];

  // One capture buffer and one dissection per transmission, shared by every
  // sniffer and accepting behavior; only the receive metadata varies per
  // receiver. The dissection's views alias pkt.raw, which is never touched
  // again after this point.
  net::CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = frame;
  const net::Dissection dis = net::dissect(pkt);

  for (NodeId to = 0; to < nodes_.size(); ++to) {
    if (to == from) continue;
    auto& receiver = nodes_[to];
    const RadioState& radio = receiver.radios[mindex(medium)];
    if (!radio.enabled || radio.config.channel != channel) continue;
    if (isRevoked(to) || isDown(to)) continue;

    const double dist = distance(sender.position, receiver.position);
    double rssi = prop.rssiDbm(txPower, dist, from, to, fadingRng_);
    if (faults_) {
      const LinkFaultInjector::RxFault rx =
          faults_->onReceive(from, to, medium, sim_.now());
      if (rx.drop) continue;
      rssi += rx.rssiOffsetDb;
    }
    if (rssi < radio.config.sensitivityDbm) continue;
    if (lossProbability_[mindex(medium)] > 0.0 &&
        fadingRng_.nextBool(lossProbability_[mindex(medium)])) {
      continue;
    }

    pkt.meta.timestamp = sim_.now();
    pkt.meta.rssiDbm = rssi;
    pkt.meta.channel = channel;
    pkt.meta.capturedBy = to;

    // Promiscuous sniffers see every decodable transmission.
    for (auto& sniffer : receiver.sniffers[mindex(medium)]) {
      pkt.meta.captureSeq = sniffer.captureSeq++;
      ++counters_.framesSniffed;
      sniffer.callback(pkt, dis);
    }

    // Behaviors get only frames their radio would accept: addressed to this
    // node's current link-layer identity, or broadcast.
    if (receiver.behavior) {
      bool accepted = dis.isBroadcastDest();
      if (!accepted) {
        if (dis.wpan) {
          accepted = dis.wpan->dst == receiver.mac16;
        } else if (dis.wifi) {
          accepted = dis.wifi->dst == mac48Of(to);
        }
      }
      if (accepted) {
        ++counters_.framesDelivered;
        NodeHandle h(this, to);
        receiver.behavior->onFrame(h, pkt, dis);
      }
    }
  }
}

}  // namespace kalis::sim
