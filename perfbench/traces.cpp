#include "traces.hpp"

#include <iterator>
#include <memory>
#include <string>

#include "attacks/dos_attacks.hpp"
#include "attacks/forwarding_attacks.hpp"
#include "net/ieee80211.hpp"
#include "net/ipv4.hpp"
#include "net/transport.hpp"
#include "scenarios/environments.hpp"

namespace perfbench {

using namespace kalis;

namespace {

/// Virtual length of one captured tile; tiles repeat back to back.
constexpr Duration kTilePeriod = seconds(60);

/// Home WiFi capture at the IDS box (WiFi + BLE radios). With attacks, every
/// WiFi station is the victim of both an ICMP flood and a SYN flood, and the
/// bulb of a smurf attack too; each attacker bursts every 8 s, staggered.
/// Alerts are rate-limited per victim, so more victims (not more bursts)
/// is what raises the alert rate.
trace::Trace captureHome(std::uint64_t seed, bool withAttacks,
                         std::vector<Injected>& injected) {
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  const scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);
  const net::Mac48 bssid = world.mac48Of(home.router);

  if (withAttacks) {
    auto addAttacker = [&](const std::string& name, sim::Vec2 pos,
                           std::unique_ptr<sim::Behavior> behavior) {
      const NodeId id = world.addNode(name, sim::NodeRole::kGeneric, pos);
      world.enableRadio(id, net::Medium::kWifi);
      world.setBehavior(id, std::move(behavior));
    };
    const NodeId victims[] = {home.thermostat, home.bulb, home.camera, home.dashButton};
    for (std::size_t v = 0; v < std::size(victims); ++v) {
      const auto offset = static_cast<double>(v);
      const std::string victim = net::toString(world.ipv4Of(victims[v]));
      injected.push_back({ids::AttackType::kIcmpFlood, victim});
      injected.push_back({ids::AttackType::kSynFlood, victim});
      attacks::IcmpFloodAttacker::Config flood;
      flood.victimIp = world.ipv4Of(victims[v]);
      flood.victimMac = world.mac48Of(victims[v]);
      flood.bssid = bssid;
      flood.firstBurstAt = seconds(2 + v);
      flood.burstInterval = seconds(8);
      flood.burstCount = 7;
      addAttacker("icmp-attacker-" + std::to_string(v), {17 + offset, 16},
                  std::make_unique<attacks::IcmpFloodAttacker>(flood));

      attacks::SynFloodAttacker::Config syn;
      syn.victimIp = world.ipv4Of(victims[v]);
      syn.victimMac = world.mac48Of(victims[v]);
      syn.bssid = bssid;
      syn.victimPort = 554;
      syn.firstBurstAt = seconds(5 + v) + milliseconds(500);
      syn.burstInterval = seconds(8);
      syn.burstCount = 6;
      addAttacker("syn-attacker-" + std::to_string(v), {17 + offset, 18},
                  std::make_unique<attacks::SynFloodAttacker>(syn));
    }
    attacks::SmurfAttacker::Config smurf;
    smurf.victimIp = world.ipv4Of(home.bulb);
    // The home WiFi is single-hop, where Kalis keeps the Smurf module off
    // and reports the reply storm as an ICMP flood on the victim
    // (kalis/modules/smurf.hpp).
    injected.push_back({ids::AttackType::kIcmpFlood, net::toString(smurf.victimIp)});
    smurf.bssid = bssid;
    for (NodeId n : {home.thermostat, home.camera, home.dashButton}) {
      smurf.neighbors.push_back({world.ipv4Of(n), world.mac48Of(n)});
    }
    smurf.firstBurstAt = seconds(6);
    smurf.burstInterval = seconds(8);
    smurf.burstCount = 7;
    addAttacker("smurf-attacker", {19, 13},
                std::make_unique<attacks::SmurfAttacker>(smurf));
  }

  trace::Trace captured;
  auto sniff = [&](const net::CapturedPacket& pkt, const net::Dissection&) {
    captured.push_back(pkt);
  };
  world.addSniffer(home.ids, net::Medium::kWifi, sniff);
  world.addSniffer(home.ids, net::Medium::kBluetooth, sniff);
  world.start();
  simulator.runUntil(kTilePeriod);
  return captured;
}

/// CTP sensor network capture at the IDS mote. With attacks, the two-hop
/// relay drops half of what it forwards (selective forwarding) for the first
/// half of the tile and everything (blackhole) for the second half.
trace::Trace captureWsn(std::uint64_t seed, bool withAttacks,
                        std::vector<Injected>& injected) {
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  const scenarios::Wsn wsn = scenarios::buildWsn(world, 5, seconds(3));
  if (withAttacks) {
    sim::CtpAgent* relay = wsn.moteAgents[1];
    const std::string relayEntity = net::toString(world.mac16Of(wsn.motes[1]));
    injected.push_back({ids::AttackType::kSelectiveForwarding, relayEntity});
    injected.push_back({ids::AttackType::kBlackhole, relayEntity});
    relay->setForwardPolicy(std::make_shared<attacks::SelectiveForwardPolicy>(
        0.5, ids::AttackType::kSelectiveForwarding, nullptr));
    simulator.at(kTilePeriod / 2, [relay] {
      relay->setForwardPolicy(std::make_shared<attacks::SelectiveForwardPolicy>(
          1.0, ids::AttackType::kBlackhole, nullptr));
    });
  }
  trace::Trace captured;
  world.addSniffer(wsn.ids, net::Medium::kIeee802154,
                   [&](const net::CapturedPacket& pkt, const net::Dissection&) {
                     captured.push_back(pkt);
                   });
  world.start();
  simulator.runUntil(kTilePeriod);
  return captured;
}

/// Repeats `tile` every kTilePeriod of virtual time until `packets` frames
/// are collected, renumbering the capture sequence.
trace::Trace tileTo(const trace::Trace& tile, std::size_t packets) {
  trace::Trace out;
  out.reserve(packets);
  for (std::size_t round = 0; out.size() < packets && !tile.empty(); ++round) {
    for (const net::CapturedPacket& pkt : tile) {
      if (out.size() == packets) break;
      out.push_back(pkt);
      out.back().meta.timestamp += static_cast<SimTime>(round) * kTilePeriod;
      out.back().meta.captureSeq = out.size() - 1;
    }
  }
  return out;
}

/// One UDP telemetry frame to the router from a never-seen station: the
/// source MAC and IPv4 address are both derived from `index`, so every
/// frame carries a fresh link and network identity.
net::CapturedPacket spoofedFrame(std::uint64_t seed, std::uint32_t index,
                                 SimTime at) {
  const net::Mac48 router{{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}};
  net::Ipv4Header ip;
  ip.protocol = net::IpProto::kUdp;
  ip.src = net::Ipv4Addr{0x0a800000u | (index & 0x007fffffu)};
  ip.dst = net::Ipv4Addr{0x0a000001u};
  ip.identification = static_cast<std::uint16_t>(index);
  net::UdpDatagram udp;
  udp.srcPort = static_cast<std::uint16_t>(1024 + (index % 60000));
  udp.dstPort = 5683;
  udp.payload = {0x40, 0x01, static_cast<std::uint8_t>(index),
                 static_cast<std::uint8_t>(seed)};

  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.toDs = true;
  frame.src = net::Mac48{{0x06, static_cast<std::uint8_t>(seed),
                          static_cast<std::uint8_t>(index >> 24),
                          static_cast<std::uint8_t>(index >> 16),
                          static_cast<std::uint8_t>(index >> 8),
                          static_cast<std::uint8_t>(index)}};
  frame.dst = router;
  frame.bssid = router;
  frame.seqCtl = static_cast<std::uint16_t>(index << 4);
  frame.body = net::llcSnapWrap(
      net::kEthertypeIpv4, BytesView(ip.encode(udp.encode(ip.src, ip.dst))));

  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = at;
  pkt.meta.rssiDbm = -60.0;
  return pkt;
}

}  // namespace

GeneratedTrace generateTrace(TraceKind kind, std::uint64_t seed,
                             std::size_t packets) {
  const bool attacks = kind == TraceKind::kAttackMix;
  GeneratedTrace out;
  const trace::Trace tile =
      trace::mergeTraces(captureHome(seed, attacks, out.injected),
                         captureWsn(seed + 1, attacks, out.injected));
  if (kind != TraceKind::kEntityChurn) {
    out.packets = tileTo(tile, packets);
  } else {
    // A spoofing flood: one frame from a fresh source every millisecond,
    // spliced into the benign background over the same span.
    constexpr Duration kSpoofSpacing = milliseconds(1);
    const std::size_t perTile = static_cast<std::size_t>(kTilePeriod / kSpoofSpacing);
    const double backgroundShare =
        static_cast<double>(tile.size()) / static_cast<double>(tile.size() + perTile);
    const auto background = static_cast<std::size_t>(
        static_cast<double>(packets) * backgroundShare);
    out.spoofed = packets - background;
    trace::Trace spoofed;
    spoofed.reserve(out.spoofed);
    for (std::size_t i = 0; i < out.spoofed; ++i) {
      spoofed.push_back(spoofedFrame(seed, static_cast<std::uint32_t>(i),
                                     (i + 1) * kSpoofSpacing));
    }
    out.packets = trace::mergeTraces(tileTo(tile, background), spoofed);
    for (std::size_t i = 0; i < out.packets.size(); ++i) {
      out.packets[i].meta.captureSeq = i;
    }
  }
  out.drainUntil =
      (out.packets.empty() ? 0 : out.packets.back().meta.timestamp) + seconds(2);
  return out;
}

}  // namespace perfbench
