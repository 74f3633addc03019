#include "attacks/dos_attacks.hpp"

#include "attacks/burst_schedule.hpp"
#include "net/transport.hpp"

namespace kalis::attacks {

namespace {

/// Forged source pool: 172.16.7.x — plausible but foreign addresses.
net::Ipv4Addr spoofAddr(std::size_t i) {
  return net::Ipv4Addr{(172u << 24) | (16u << 16) | (7u << 8) |
                       static_cast<std::uint32_t>((i % 250) + 1)};
}

}  // namespace

// --- IcmpFloodAttacker -----------------------------------------------------------

void IcmpFloodAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.firstBurstAt, config_.burstInterval,
                 config_.burstCount,
                 [this](sim::NodeHandle& h, std::size_t) { burst(h); });
}

void IcmpFloodAttacker::burst(sim::NodeHandle& node) {
  if (config_.truth) {
    config_.truth->add(node.now(), ids::AttackType::kIcmpFlood,
                       net::toString(config_.victimIp),
                       net::toString(node.mac48()));
  }
  sim::World& world = node.world();
  const NodeId id = node.id();
  for (std::size_t i = 0; i < config_.repliesPerBurst; ++i) {
    world.sim().schedule(i * config_.replySpacing, [this, &world, id, i] {
      sim::NodeHandle h = world.handle(id);
      sendReply(h, i);
    });
  }
}

void IcmpFloodAttacker::sendReply(sim::NodeHandle& node, std::size_t i) {
  net::Ipv4Header ip;
  ip.src = spoofAddr(i % config_.spoofPool);
  ip.dst = config_.victimIp;
  ip.protocol = net::IpProto::kIcmp;
  ip.identification = ident_++;
  net::IcmpMessage reply;
  reply.type = net::IcmpType::kEchoReply;
  reply.identifier = static_cast<std::uint16_t>(0x4100 + i);
  reply.sequence = static_cast<std::uint16_t>(i);
  reply.payload = bytesOf("flood-padding-flood-padding");
  sim::sendIpv4OverWifi(node, config_.victimMac, config_.bssid,
                        /*toDs=*/false, /*fromDs=*/false, ip,
                        BytesView(reply.encode()), seqCtl_++);
}

// --- SmurfAttacker -----------------------------------------------------------------

void SmurfAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.firstBurstAt, config_.burstInterval,
                 config_.burstCount,
                 [this](sim::NodeHandle& h, std::size_t) { burst(h); });
}

void SmurfAttacker::burst(sim::NodeHandle& node) {
  if (config_.truth) {
    config_.truth->add(node.now(), ids::AttackType::kSmurf,
                       net::toString(config_.victimIp),
                       net::toString(node.mac48()));
  }
  sim::World& world = node.world();
  const NodeId id = node.id();
  std::size_t k = 0;
  for (std::size_t r = 0; r < config_.requestsPerNeighbor; ++r) {
    for (const Neighbor& neighbor : config_.neighbors) {
      world.sim().schedule(
          k++ * config_.requestSpacing, [this, &world, id, neighbor] {
            sim::NodeHandle h = world.handle(id);
            net::Ipv4Header ip;
            ip.src = config_.victimIp;  // the forgery at the heart of Smurf
            ip.dst = neighbor.ip;
            ip.protocol = net::IpProto::kIcmp;
            ip.identification = ident_++;
            net::IcmpMessage request;
            request.type = net::IcmpType::kEchoRequest;
            request.identifier = 0x534d;  // "SM"
            request.sequence = icmpSeq_++;
            sim::sendIpv4OverWifi(h, neighbor.mac, config_.bssid,
                                  /*toDs=*/false, /*fromDs=*/false, ip,
                                  BytesView(request.encode()), seqCtl_++);
          });
    }
  }
}

// --- SynFloodAttacker ----------------------------------------------------------------

void SynFloodAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.firstBurstAt, config_.burstInterval,
                 config_.burstCount,
                 [this](sim::NodeHandle& h, std::size_t) { burst(h); });
}

void SynFloodAttacker::burst(sim::NodeHandle& node) {
  if (config_.truth) {
    config_.truth->add(node.now(), ids::AttackType::kSynFlood,
                       net::toString(config_.victimIp),
                       net::toString(node.mac48()));
  }
  sim::World& world = node.world();
  const NodeId id = node.id();
  for (std::size_t i = 0; i < config_.synsPerBurst; ++i) {
    world.sim().schedule(i * config_.synSpacing, [this, &world, id, i] {
      sim::NodeHandle h = world.handle(id);
      net::Ipv4Header ip;
      ip.src = spoofAddr(i % config_.spoofPool);
      ip.dst = config_.victimIp;
      ip.protocol = net::IpProto::kTcp;
      ip.identification = ident_++;
      net::TcpSegment syn;
      syn.srcPort = static_cast<std::uint16_t>(1024 + (i * 7919) % 60000);
      syn.dstPort = config_.victimPort;
      syn.seq = static_cast<std::uint32_t>(h.rng().next());
      syn.flags.syn = true;
      sim::sendIpv4OverWifi(h, config_.victimMac, config_.bssid,
                            /*toDs=*/false, /*fromDs=*/false, ip,
                            BytesView(syn.encode(ip.src, ip.dst)), seqCtl_++);
    });
  }
}

// --- DeauthAttacker ------------------------------------------------------------------

void DeauthAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.firstBurstAt, config_.burstInterval,
                 config_.burstCount,
                 [this](sim::NodeHandle& h, std::size_t) { burst(h); });
}

void DeauthAttacker::burst(sim::NodeHandle& node) {
  if (config_.truth) {
    config_.truth->add(node.now(), ids::AttackType::kDeauthFlood,
                       net::toString(config_.victimMac),
                       net::toString(node.mac48()));
  }
  sim::World& world = node.world();
  const NodeId id = node.id();
  for (std::size_t i = 0; i < config_.framesPerBurst; ++i) {
    world.sim().schedule(i * config_.frameSpacing, [this, &world, id] {
      sim::NodeHandle h = world.handle(id);
      net::WifiFrame deauth;
      deauth.kind = net::WifiFrameKind::kDeauth;
      deauth.dst = config_.victimMac;
      deauth.src = config_.apMac;  // forged: pretends to be the AP
      deauth.bssid = config_.apMac;
      deauth.seqCtl = seqCtl_++;
      h.send(net::Medium::kWifi, deauth.encode());
    });
  }
}

}  // namespace kalis::attacks
