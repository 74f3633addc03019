#include "sim/ip_host.hpp"

#include "util/log.hpp"

namespace kalis::sim {

void sendIpv4OverWifi(NodeHandle& node, net::Mac48 dstMac, net::Mac48 bssid,
                      bool toDs, bool fromDs, const net::Ipv4Header& ip,
                      BytesView l4, std::uint16_t seqCtl) {
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.toDs = toDs;
  frame.fromDs = fromDs;
  frame.dst = dstMac;
  frame.src = node.mac48();
  frame.bssid = bssid;
  frame.seqCtl = seqCtl;
  frame.body = net::llcSnapWrap(net::kEthertypeIpv4, BytesView(ip.encode(l4)));
  node.send(net::Medium::kWifi, frame.encode());
}

net::Mac48 resolveWifiMac(World& world, net::Ipv4Addr dst,
                          net::Mac48 routerMac) {
  for (NodeId id = 0; id < world.nodeCount(); ++id) {
    if (world.ipv4Of(id) == dst && world.roleOf(id) != NodeRole::kInternetHost) {
      return world.mac48Of(id);
    }
  }
  return routerMac;
}

// --- InternetCloud -----------------------------------------------------------

net::Ipv4Addr InternetCloud::addHost(std::string name, ServiceHandler handler) {
  const net::Ipv4Addr addr{(198u << 24) | (51u << 16) | (100u << 8) |
                           nextHostOctet_++};
  hosts_.push_back(Host{std::move(name), addr, std::move(handler)});
  return addr;
}

void InternetCloud::deliverFromLocal(const net::Ipv4Header& ip, BytesView l4) {
  for (auto& host : hosts_) {
    if (host.addr != ip.dst || !host.handler) continue;
    // Parse transport for the handler's convenience.
    std::optional<net::TcpDecoded> tcp;
    std::optional<net::UdpDecoded> udp;
    std::optional<net::IcmpDecoded> icmp;
    switch (ip.protocol) {
      case net::IpProto::kTcp: tcp = net::decodeTcp(l4, ip.src, ip.dst); break;
      case net::IpProto::kUdp: udp = net::decodeUdp(l4, ip.src, ip.dst); break;
      case net::IpProto::kIcmp: icmp = net::decodeIcmp(l4); break;
      default: break;
    }
    // The handler runs after the WAN latency, at the "cloud".
    net::Ipv4Header ipCopy = ip;
    auto handler = host.handler;
    auto tcpSeg = tcp ? std::optional(net::toOwned(tcp->segment))
                      : std::nullopt;
    auto udpDg =
        udp ? std::optional(net::toOwned(udp->datagram)) : std::nullopt;
    auto icmpMsg =
        icmp ? std::optional(net::toOwned(icmp->message)) : std::nullopt;
    world_->sim().schedule(kLatency, [handler, ipCopy, tcpSeg, udpDg, icmpMsg] {
      handler(ipCopy, tcpSeg ? &*tcpSeg : nullptr, udpDg ? &*udpDg : nullptr,
              icmpMsg ? &*icmpMsg : nullptr);
    });
    return;
  }
}

void InternetCloud::sendToLocal(const net::Ipv4Header& ip, Bytes l4) {
  if (!router_ || !world_) return;
  world_->sim().schedule(kLatency, [this, ip, l4 = std::move(l4)] {
    NodeHandle h = world_->handle(routerNode_);
    router_->injectInbound(h, ip, BytesView(l4));
  });
}

InternetCloud::ServiceHandler makeEchoService(InternetCloud& cloud,
                                              std::size_t responseBytes,
                                              bool encrypted,
                                              std::uint64_t seed) {
  // Stateless TCP responder: SYN -> SYN-ACK, data -> response data + FIN-ACK
  // handshake pieces. Captures an Rng by value in a shared state block.
  struct State {
    Rng rng;
    std::uint16_t ident = 1;
  };
  auto state = std::make_shared<State>(State{Rng(seed), 1});
  return [&cloud, responseBytes, encrypted, state](
             const net::Ipv4Header& ip, const net::TcpSegment* tcp,
             const net::UdpDatagram* udp, const net::IcmpMessage* icmp) {
    (void)udp;
    net::Ipv4Header reply;
    reply.src = ip.dst;
    reply.dst = ip.src;
    reply.identification = state->ident++;
    if (icmp && icmp->type == net::IcmpType::kEchoRequest) {
      reply.protocol = net::IpProto::kIcmp;
      net::IcmpMessage pong;
      pong.type = net::IcmpType::kEchoReply;
      pong.identifier = icmp->identifier;
      pong.sequence = icmp->sequence;
      pong.payload = icmp->payload;
      cloud.sendToLocal(reply, pong.encode());
      return;
    }
    if (!tcp) return;
    reply.protocol = net::IpProto::kTcp;
    net::TcpSegment out;
    out.srcPort = tcp->dstPort;
    out.dstPort = tcp->srcPort;
    if (tcp->flags.isSynOnly()) {
      out.flags.syn = true;
      out.flags.ack = true;
      out.seq = state->rng.next() & 0xffffffff;
      out.ackNo = tcp->seq + 1;
    } else if (!tcp->payload.empty()) {
      out.flags.ack = true;
      out.flags.psh = true;
      out.seq = tcp->ackNo;
      out.ackNo = tcp->seq + static_cast<std::uint32_t>(tcp->payload.size());
      out.payload.reserve(responseBytes);
      for (std::size_t i = 0; i < responseBytes; ++i) {
        out.payload.push_back(
            encrypted ? static_cast<std::uint8_t>(state->rng.next() & 0xff)
                      : static_cast<std::uint8_t>('A' + (i % 26)));
      }
    } else if (tcp->flags.fin) {
      out.flags.ack = true;
      out.seq = tcp->ackNo;
      out.ackNo = tcp->seq + 1;
    } else {
      return;  // bare ACKs need no response
    }
    cloud.sendToLocal(reply, out.encode(reply.src, reply.dst));
  };
}

// --- RouterAgent --------------------------------------------------------------

void RouterAgent::start(NodeHandle& node) {
  World& world = node.world();
  const NodeId id = node.id();
  world.sim().schedule(node.rng().nextBelow(milliseconds(100)),
                       [this, &world, id] {
                         NodeHandle h = world.handle(id);
                         beaconLoop(h);
                       });
}

void RouterAgent::beaconLoop(NodeHandle& node) {
  net::WifiFrame beacon;
  beacon.kind = net::WifiFrameKind::kBeacon;
  beacon.dst = net::Mac48::broadcast();
  beacon.src = node.mac48();
  beacon.bssid = node.mac48();
  beacon.seqCtl = seqCtl_++;
  beacon.body = net::beaconBody(config_.ssid);
  node.send(net::Medium::kWifi, beacon.encode());
  ++stats_.beaconsSent;

  World& world = node.world();
  const NodeId id = node.id();
  world.sim().schedule(config_.beaconInterval, [this, &world, id] {
    NodeHandle h = world.handle(id);
    beaconLoop(h);
  });
}

void RouterAgent::onFrame(NodeHandle& node, const net::CapturedPacket& pkt,
                          const net::Dissection& dissection) {
  (void)node;
  (void)pkt;
  // Outbound: a local station addressed us at the link layer with a
  // non-local IP destination.
  if (!dissection.ipv4) return;
  if (isLocal(dissection.ipv4->dst)) return;
  // Re-extract the L4 bytes: the dissector splits them, so rebuild from the
  // parsed layers' encodings. Using the original payload keeps byte fidelity.
  Bytes l4;
  if (dissection.tcp) {
    l4 = dissection.tcp->encode(dissection.ipv4->src, dissection.ipv4->dst);
  } else if (dissection.udp) {
    l4 = dissection.udp->encode(dissection.ipv4->src, dissection.ipv4->dst);
  } else if (dissection.icmp) {
    l4 = dissection.icmp->encode();
  } else {
    return;
  }
  ++stats_.outboundForwarded;
  cloud_.deliverFromLocal(*dissection.ipv4, BytesView(l4));
}

void RouterAgent::injectInbound(NodeHandle& node, const net::Ipv4Header& ip,
                                BytesView l4) {
  if (tap_) {
    // Reconstruct the frame the packet would ride on so the tap sees the
    // same bytes a radio capture would.
    net::WifiFrame frame;
    frame.kind = net::WifiFrameKind::kData;
    frame.fromDs = true;
    frame.dst = resolveWifiMac(node.world(), ip.dst, node.mac48());
    frame.src = node.mac48();
    frame.bssid = node.mac48();
    frame.seqCtl = seqCtl_;
    frame.body = net::llcSnapWrap(net::kEthertypeIpv4, BytesView(ip.encode(l4)));
    net::CapturedPacket pkt;
    pkt.medium = net::Medium::kWifi;
    pkt.raw = frame.encode();
    pkt.meta.timestamp = node.now();
    pkt.meta.rssiDbm = 0.0;  // wire-side observation
    pkt.meta.capturedBy = node.id();
    tap_(pkt);
  }
  if (firewall_ && !firewall_(ip, l4)) {
    ++stats_.inboundBlocked;
    return;
  }
  const net::Mac48 dstMac = resolveWifiMac(node.world(), ip.dst, node.mac48());
  sendIpv4OverWifi(node, dstMac, node.mac48(), /*toDs=*/false, /*fromDs=*/true,
                   ip, l4, seqCtl_++);
  ++stats_.inboundInjected;
}

// --- IpHostAgent ---------------------------------------------------------------

void IpHostAgent::start(NodeHandle& node) {
  World& world = node.world();
  const NodeId id = node.id();
  for (std::size_t i = 0; i < config_.flows.size(); ++i) {
    const Duration jitter =
        config_.startJitterMax > 0 ? node.rng().nextBelow(config_.startJitterMax)
                                   : 0;
    world.sim().schedule(jitter, [this, &world, id, i] {
      NodeHandle h = world.handle(id);
      flowLoop(h, i);
    });
  }
}

Bytes IpHostAgent::makePayload(NodeHandle& node, std::size_t size,
                               bool encrypted) const {
  Bytes payload;
  payload.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload.push_back(encrypted
                          ? static_cast<std::uint8_t>(node.rng().next() & 0xff)
                          : static_cast<std::uint8_t>('a' + (i % 26)));
  }
  return payload;
}

void IpHostAgent::transmitIp(NodeHandle& node, const net::Ipv4Header& ip,
                             BytesView l4) {
  const net::Mac48 dstMac =
      resolveWifiMac(node.world(), ip.dst, config_.bssid);
  const bool external = (ip.dst.value >> 24) != 10;
  sendIpv4OverWifi(node, dstMac, config_.bssid, /*toDs=*/external,
                   /*fromDs=*/false, ip, l4, seqCtl_++);
}

void IpHostAgent::flowLoop(NodeHandle& node, std::size_t flowIndex) {
  const FlowSpec& spec = config_.flows[flowIndex];
  // Open a new client session: allocate an ephemeral port, send SYN.
  const std::uint16_t port = nextEphemeralPort_++;
  if (nextEphemeralPort_ < 40000) nextEphemeralPort_ = 40000;
  ClientSession session;
  session.peer = spec.dst;
  session.peerPort = spec.dstPort;
  session.spec = &spec;
  session.nextSeq = static_cast<std::uint32_t>(node.rng().next());
  net::TcpSegment syn;
  syn.srcPort = port;
  syn.dstPort = spec.dstPort;
  syn.seq = session.nextSeq;
  syn.flags.syn = true;
  session.nextSeq += 1;
  sessions_[port] = session;
  ++stats_.sessionsStarted;

  net::Ipv4Header ip;
  ip.src = node.ipv4();
  ip.dst = spec.dst;
  ip.protocol = net::IpProto::kTcp;
  ip.identification = ipIdent_++;
  transmitIp(node, ip, BytesView(syn.encode(ip.src, ip.dst)));

  World& world = node.world();
  const NodeId id = node.id();
  world.sim().schedule(spec.interval, [this, &world, id, flowIndex] {
    NodeHandle h = world.handle(id);
    flowLoop(h, flowIndex);
  });
}

void IpHostAgent::onFrame(NodeHandle& node, const net::CapturedPacket& pkt,
                          const net::Dissection& dissection) {
  (void)pkt;
  if (!dissection.ipv4) return;
  if (dissection.ipv4->dst != node.ipv4()) return;
  const net::Ipv4Header& ip = *dissection.ipv4;

  // ICMP echo service.
  if (dissection.icmp && config_.respondToPing &&
      dissection.icmp->type == net::IcmpType::kEchoRequest) {
    net::Ipv4Header reply;
    reply.src = node.ipv4();
    reply.dst = ip.src;
    reply.protocol = net::IpProto::kIcmp;
    reply.identification = ipIdent_++;
    net::IcmpMessage pong;
    pong.type = net::IcmpType::kEchoReply;
    pong.identifier = dissection.icmp->identifier;
    pong.sequence = dissection.icmp->sequence;
    pong.payload = toBytes(dissection.icmp->payload);
    transmitIp(node, reply, BytesView(pong.encode()));
    ++stats_.pingsAnswered;
    return;
  }

  if (!dissection.tcp) return;
  const net::TcpSegmentView& seg = *dissection.tcp;

  // Server side: open ports answer SYNs.
  if (seg.flags.isSynOnly()) {
    for (std::uint16_t p : config_.openPorts) {
      if (p != seg.dstPort) continue;
      net::Ipv4Header reply;
      reply.src = node.ipv4();
      reply.dst = ip.src;
      reply.protocol = net::IpProto::kTcp;
      reply.identification = ipIdent_++;
      net::TcpSegment synAck;
      synAck.srcPort = seg.dstPort;
      synAck.dstPort = seg.srcPort;
      synAck.seq = static_cast<std::uint32_t>(node.rng().next());
      synAck.ackNo = seg.seq + 1;
      synAck.flags.syn = true;
      synAck.flags.ack = true;
      transmitIp(node, reply, BytesView(synAck.encode(reply.src, reply.dst)));
      ++stats_.synAcksSent;
      return;
    }
    return;
  }

  // Client side: continue an open session.
  auto it = sessions_.find(seg.dstPort);
  if (it == sessions_.end()) return;
  ClientSession& s = it->second;
  if (ip.src != s.peer) return;

  net::Ipv4Header out;
  out.src = node.ipv4();
  out.dst = s.peer;
  out.protocol = net::IpProto::kTcp;
  out.identification = ipIdent_++;

  if (s.state == ClientSession::State::kSynSent && seg.flags.isSynAck()) {
    // ACK the handshake, then push the request.
    net::TcpSegment ack;
    ack.srcPort = seg.dstPort;
    ack.dstPort = s.peerPort;
    ack.seq = s.nextSeq;
    ack.ackNo = seg.seq + 1;
    ack.flags.ack = true;
    transmitIp(node, out, BytesView(ack.encode(out.src, out.dst)));

    net::TcpSegment data = ack;
    data.flags.psh = true;
    data.payload = makePayload(node, s.spec->requestBytes, s.spec->encrypted);
    out.identification = ipIdent_++;
    transmitIp(node, out, BytesView(data.encode(out.src, out.dst)));
    s.nextSeq += static_cast<std::uint32_t>(data.payload.size());
    s.state = ClientSession::State::kEstablished;
    ++stats_.dataSegmentsSent;
    return;
  }

  if (s.state == ClientSession::State::kEstablished && !seg.payload.empty()) {
    // Got the response; close politely.
    net::TcpSegment fin;
    fin.srcPort = seg.dstPort;
    fin.dstPort = s.peerPort;
    fin.seq = s.nextSeq;
    fin.ackNo = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
    fin.flags.fin = true;
    fin.flags.ack = true;
    transmitIp(node, out, BytesView(fin.encode(out.src, out.dst)));
    s.state = ClientSession::State::kFinSent;
    return;
  }

  if (s.state == ClientSession::State::kFinSent && seg.flags.ack) {
    sessions_.erase(it);
    ++stats_.sessionsCompleted;
  }
}

}  // namespace kalis::sim
