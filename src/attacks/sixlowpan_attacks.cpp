#include "attacks/sixlowpan_attacks.hpp"

#include "attacks/burst_schedule.hpp"
#include "net/ieee802154.hpp"

namespace kalis::attacks {

namespace {

void transmitIpv6(sim::NodeHandle& node, std::uint16_t panId,
                  std::uint8_t& linkSeq, net::Mac16 linkDst,
                  BytesView ipv6Packet) {
  net::Ieee802154Frame frame;
  frame.type = net::WpanFrameType::kData;
  frame.seq = linkSeq++;
  frame.panId = panId;
  frame.dst = linkDst;
  frame.src = node.mac16();
  Bytes payload;
  payload.reserve(ipv6Packet.size() + 1);
  payload.push_back(net::kDispatchIpv6Uncompressed);
  payload.insert(payload.end(), ipv6Packet.begin(), ipv6Packet.end());
  frame.payload = std::move(payload);
  node.send(net::Medium::kIeee802154, frame.encode());
}

}  // namespace

void SmurfAttacker6lw::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.firstBurstAt, config_.burstInterval,
                 config_.burstCount,
                 [this](sim::NodeHandle& h, std::size_t) { burst(h); });
}

void SmurfAttacker6lw::burst(sim::NodeHandle& node) {
  if (config_.truth) {
    config_.truth->add(
        node.now(), ids::AttackType::kSmurf,
        net::toString(net::Ipv6Addr::linkLocalFromShort(config_.victim)),
        net::toString(node.mac16()));
  }
  sim::World& world = node.world();
  const NodeId id = node.id();
  std::size_t k = 0;
  const net::Ipv6Addr victimIp =
      net::Ipv6Addr::linkLocalFromShort(config_.victim);
  for (std::size_t r = 0; r < config_.requestsPerNeighbor; ++r) {
    for (const net::Mac16 neighbor : config_.neighbors) {
      world.sim().schedule(
          k++ * config_.requestSpacing, [this, &world, id, neighbor, victimIp] {
            sim::NodeHandle h = world.handle(id);
            const net::Ipv6Addr dst =
                net::Ipv6Addr::linkLocalFromShort(neighbor);
            net::Icmpv6Message echo;
            echo.type = net::Icmpv6Type::kEchoRequest;
            Bytes body;
            ByteWriter w(body);
            w.u16be(0x5566);
            w.u16be(echoSeq_++);
            echo.body = body;
            net::Ipv6Header ip;
            ip.src = victimIp;  // the forged victim source
            ip.dst = dst;
            ip.hopLimit = 64;
            transmitIpv6(h, config_.panId, linkSeq_, neighbor,
                         BytesView(ip.encode(echo.encode(victimIp, dst))));
          });
    }
  }
}

void RplSinkholeAttacker::start(sim::NodeHandle& node) {
  scheduleBursts(node, config_.startAt, config_.dioInterval, config_.dioCount,
                 [this](sim::NodeHandle& h, std::size_t) { dio(h); });
}

void RplSinkholeAttacker::dio(sim::NodeHandle& node) {
  if (config_.truth && config_.truth->size() < config_.maxInstances) {
    config_.truth->add(node.now(), ids::AttackType::kSinkhole, "",
                       net::toString(node.mac16()));
  }
  net::RplDio dioMsg;
  dioMsg.instanceId = 1;
  dioMsg.versionNumber = 2;  // pretend a newer DODAG version
  dioMsg.rank = config_.advertisedRank;
  dioMsg.dodagId = net::Ipv6Addr::linkLocalFromShort(config_.dodagRoot);
  net::Icmpv6Message msg;
  msg.type = net::Icmpv6Type::kRplControl;
  msg.code = net::kRplCodeDio;
  msg.body = dioMsg.encodeBody();

  const net::Ipv6Addr src = node.ipv6();
  const net::Ipv6Addr dst = net::Ipv6Addr::allNodesMulticast();
  net::Ipv6Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.hopLimit = 1;
  transmitIpv6(node, config_.panId, linkSeq_,
               net::Mac16{net::Mac16::kBroadcast},
               BytesView(ip.encode(msg.encode(src, dst))));
}

}  // namespace kalis::attacks
