#include "attacks/wpan_attacks.hpp"

#include "attacks/burst_schedule.hpp"
#include "net/ctp.hpp"
#include "net/ieee802154.hpp"
#include "net/zigbee.hpp"

namespace kalis::attacks {

// --- ReplicaDevice ---------------------------------------------------------------

void ReplicaDevice::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.startAt + config_.phaseOffset,
                 config_.interval, config_.packetCount,
                 [this](sim::NodeHandle& h, std::size_t i) { transmit(h, i); });
}

void ReplicaDevice::transmit(sim::NodeHandle& node, std::size_t i) {
  if (i == 0 && config_.recordTruth && config_.truth) {
    config_.truth->add(node.now(), ids::AttackType::kReplication,
                       net::toString(config_.clonedId),
                       net::toString(config_.clonedId));
  }
  net::ZigbeeNwkFrame nwk;
  nwk.type = net::ZigbeeFrameType::kData;
  nwk.dst = config_.reportTo;
  nwk.src = config_.clonedId;
  nwk.radius = 4;
  nwk.seq = seq_++;
  Bytes payload;
  ByteWriter w(payload);
  w.u8(net::kZigbeeAppReport);
  w.u16be(static_cast<std::uint16_t>(node.rng().nextBelow(0x10000)));
  nwk.payload = payload;

  net::Ieee802154Frame frame;
  frame.type = net::WpanFrameType::kData;
  frame.seq = seq_;
  frame.panId = 0x1aabu;
  frame.dst = config_.reportTo;
  frame.src = config_.clonedId;  // the cloned identity on the air
  frame.payload = nwk.encode();
  node.send(net::Medium::kIeee802154, frame.encode());
}

// --- SybilAttacker ----------------------------------------------------------------

void SybilAttacker::start(sim::NodeHandle& node) {
  if (config_.truth) {
    for (std::size_t k = 0; k < config_.identityCount; ++k) {
      config_.truth->add(
          config_.startAt, ids::AttackType::kSybil, "",
          net::toString(net::Mac16{
              static_cast<std::uint16_t>(config_.identityBase + k)}));
    }
  }
  scheduleBursts(node, config_.startAt, config_.interval, config_.rounds,
                 [this](sim::NodeHandle& h, std::size_t) { round(h); });
}

void SybilAttacker::round(sim::NodeHandle& node) {
  for (std::size_t k = 0; k < config_.identityCount; ++k) {
    const net::Mac16 fake{
        static_cast<std::uint16_t>(config_.identityBase + k)};
    net::Ieee802154Frame frame;
    frame.type = net::WpanFrameType::kData;
    frame.seq = seq_++;
    frame.dst = config_.target;
    // Single-hop flavor forges the link identity itself; the multi-hop
    // flavor poses as an honest relay (own link id) forwarding data that
    // fabricated *origins* supposedly produced.
    frame.src =
        config_.flavor == Flavor::kSinglehopZigbee ? fake : node.mac16();

    if (config_.flavor == Flavor::kSinglehopZigbee) {
      frame.panId = 0x1aabu;
      net::ZigbeeNwkFrame nwk;
      nwk.type = net::ZigbeeFrameType::kData;
      nwk.dst = config_.target;
      nwk.src = fake;
      nwk.radius = 1;
      nwk.seq = seq_;
      Bytes payload;
      ByteWriter w(payload);
      w.u8(net::kZigbeeAppReport);
      w.u16be(static_cast<std::uint16_t>(node.rng().nextBelow(0x10000)));
      nwk.payload = payload;
      frame.payload = nwk.encode();
    } else {
      frame.panId = 0x22;
      net::CtpData data;
      data.thl = 1;  // "already forwarded once": relay pose
      data.etx = 30;
      data.origin = fake;
      data.seqno = seq_;
      data.collectId = 0x20;
      Bytes payload;
      ByteWriter w(payload);
      w.u16be(static_cast<std::uint16_t>(node.rng().nextBelow(0x10000)));
      data.payload = payload;
      frame.payload = net::wrapTinyosAm(net::kAmCtpData, BytesView(data.encode()));
    }
    node.send(net::Medium::kIeee802154, frame.encode());
  }
}

// --- SinkholeAttacker --------------------------------------------------------------

void SinkholeAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.startAt, config_.beaconInterval,
                 config_.beaconCount,
                 [this](sim::NodeHandle& h, std::size_t) { beacon(h); });
}

void SinkholeAttacker::beacon(sim::NodeHandle& node) {
  if (config_.truth && config_.truth->size() < config_.maxInstances) {
    config_.truth->add(node.now(), ids::AttackType::kSinkhole, "",
                       net::toString(node.mac16()));
  }
  net::CtpRoutingBeacon beacon;
  beacon.parent = node.mac16();
  beacon.etx = config_.advertisedEtx;  // "I am as good as the root"

  net::Ieee802154Frame frame;
  frame.type = net::WpanFrameType::kData;
  frame.seq = seq_++;
  frame.panId = config_.panId;
  frame.dst = net::Mac16{net::Mac16::kBroadcast};
  frame.src = node.mac16();
  frame.payload =
      net::wrapTinyosAm(net::kAmCtpRouting, BytesView(beacon.encode()));
  node.send(net::Medium::kIeee802154, frame.encode());
}

// --- HelloFloodAttacker -------------------------------------------------------------

void HelloFloodAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.startAt, config_.burstInterval,
                 config_.burstCount,
                 [this](sim::NodeHandle& h, std::size_t) { burst(h); });
}

void HelloFloodAttacker::burst(sim::NodeHandle& node) {
  if (config_.truth) {
    config_.truth->add(node.now(), ids::AttackType::kHelloFlood, "",
                       net::toString(node.mac16()));
  }
  sim::World& world = node.world();
  const NodeId id = node.id();
  const std::size_t frames =
      static_cast<std::size_t>(config_.burstLength / config_.spacing);
  for (std::size_t i = 0; i < frames; ++i) {
    world.sim().schedule(i * config_.spacing, [this, &world, id] {
      sim::NodeHandle h = world.handle(id);
      net::CtpRoutingBeacon beacon;
      beacon.parent = h.mac16();
      beacon.etx = 20;
      net::Ieee802154Frame frame;
      frame.type = net::WpanFrameType::kData;
      frame.seq = seq_++;
      frame.panId = config_.panId;
      frame.dst = net::Mac16{net::Mac16::kBroadcast};
      frame.src = h.mac16();
      frame.payload =
          net::wrapTinyosAm(net::kAmCtpRouting, BytesView(beacon.encode()));
      h.send(net::Medium::kIeee802154, frame.encode());
    });
  }
}

}  // namespace kalis::attacks
