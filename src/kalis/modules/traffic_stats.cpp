#include "kalis/modules/traffic_stats.hpp"

namespace kalis::ids {

namespace {

/// "TrafficFrequency.<type>" for every packet type, built once per process.
const std::string& frequencyLabel(std::size_t typeIdx) {
  static const auto table = [] {
    std::array<std::string, net::kNumPacketTypes> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::string(labels::kTrafficFrequency) + "." +
               net::packetTypeName(static_cast<net::PacketType>(i));
    }
    return out;
  }();
  return table[typeIdx];
}

}  // namespace

TrafficStatsModule::TrafficStatsModule() {
  for (auto& counter : global_) {
    counter = std::make_unique<SlidingCounter>(window_);
  }
}

void TrafficStatsModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("windowSeconds"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) {
      window_ = static_cast<Duration>(*v * 1e6);
      for (auto& counter : global_) {
        counter = std::make_unique<SlidingCounter>(window_);
      }
      for (auto& m : perDevice_) m.clear();
    }
  }
}

const char* TrafficStatsModule::protocolOf(const net::Dissection& dis) {
  using net::PacketType;
  switch (dis.type) {
    case PacketType::kTcpSyn:
    case PacketType::kTcpSynAck:
    case PacketType::kTcpAck:
    case PacketType::kTcpRst:
    case PacketType::kTcpFin:
    case PacketType::kTcpData:
      return "TCP";
    case PacketType::kUdp:
      return "UDP";
    case PacketType::kIcmpEchoReq:
    case PacketType::kIcmpEchoRep:
    case PacketType::kIcmpOther:
    case PacketType::kIcmpv6EchoReq:
    case PacketType::kIcmpv6EchoRep:
      return "ICMP";
    case PacketType::kCtpData:
    case PacketType::kCtpRouting:
      return "CTP";
    case PacketType::kZigbeeData:
    case PacketType::kZigbeeRouting:
      return "ZigBee";
    case PacketType::kRplDio:
    case PacketType::kRplDao:
      return "RPL";
    case PacketType::kWifiBeacon:
    case PacketType::kWifiProbe:
    case PacketType::kWifiDeauth:
      return "WiFi";
    case PacketType::kBleAdv:
    case PacketType::kBleScan:
      return "BLE";
    default:
      return nullptr;
  }
}

void TrafficStatsModule::onPacket(const net::CapturedPacket& pkt,
                                  const net::Dissection& dis,
                                  ModuleContext& ctx) {
  (void)pkt;
  lastNow_ = ctx.now;
  const auto typeIdx = static_cast<std::size_t>(dis.type);
  global_[typeIdx]->record(ctx.now);

  // Per-device accounting against the traffic's *target* — the entity a
  // DoS-style attack would be aimed at. Allocation-free on the hit path:
  // tryEmplace builds a counter only for a target not seen before.
  net::EntityRef target = dis.networkDestRef();
  if (!target.valid()) target = dis.linkDestRef();
  auto [entry, inserted] = perDevice_[typeIdx].tryEmplace(target, window_);
  entry->value.record(ctx.now);

  if (const char* proto = protocolOf(dis)) {
    if (protocolsSeen_.find(std::string_view(proto)) == protocolsSeen_.end()) {
      protocolsSeen_.emplace(proto, true);
      ctx.kb.put(std::string(labels::kProtocols) + "." + proto, true);
    }
  }
}

void TrafficStatsModule::onTick(ModuleContext& ctx) {
  lastNow_ = ctx.now;
  for (std::size_t i = 0; i < global_.size(); ++i) {
    const double rate = global_[i]->rate(ctx.now);
    if (rate > 0.0) ctx.kb.put(frequencyLabel(i), rate);
  }
  for (std::size_t i = 0; i < perDevice_.size(); ++i) {
    perDevice_[i].forEachOrdered(
        [&](EntityKeyedMap<SlidingCounter>::Entry& entry) {
          const double rate = entry.value.rate(ctx.now);
          if (rate > 0.0) ctx.kb.put(frequencyLabel(i), rate, entry.label);
        });
  }
}

double TrafficStatsModule::globalRate(net::PacketType type, SimTime now) {
  return global_[static_cast<std::size_t>(type)]->rate(now);
}

double TrafficStatsModule::deviceRate(net::PacketType type,
                                      const std::string& entity, SimTime now) {
  auto* entry = const_cast<EntityKeyedMap<SlidingCounter>::Entry*>(
      perDevice_[static_cast<std::size_t>(type)].findByLabel(entity));
  if (!entry) return 0.0;
  return entry->value.rate(now);
}

std::size_t TrafficStatsModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& counter : global_) bytes += counter->memoryBytes();
  for (const auto& m : perDevice_) {
    bytes += m.entryOverheadBytes();
    m.forEachUnordered([&](const EntityKeyedMap<SlidingCounter>::Entry& e) {
      bytes += e.value.memoryBytes() + 32;
    });
  }
  return bytes;
}

}  // namespace kalis::ids
