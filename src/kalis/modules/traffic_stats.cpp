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

/// Puts `rate` unless `count`, the window count behind it, equals the count
/// behind the rate last put: an equal count gives the same double, hence
/// the same knowgget value, and that put would change nothing. A put while
/// the KB ignores writes is not counted as published.
void publishRate(KnowledgeBase& kb, const std::string& label,
                 std::string_view entity, std::size_t count, double rate,
                 std::size_t& publishedCount) {
  if (count == publishedCount || rate <= 0.0) return;
  kb.put(label, rate, entity);
  if (kb.writesEnabled()) publishedCount = count;
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
      globalPublished_.fill(0);
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
  auto [entry, inserted] = perDevice_[typeIdx].tryEmplace(target);
  entry->value.times.record(ctx.now, window_);

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
    SlidingCounter& counter = *global_[i];
    publishRate(ctx.kb, frequencyLabel(i), {}, counter.count(ctx.now),
                counter.rate(ctx.now), globalPublished_[i]);
  }
  for (std::size_t i = 0; i < perDevice_.size(); ++i) {
    perDevice_[i].forEachOrdered(
        [&](EntityKeyedMap<DeviceCounter>::Entry& entry) {
          SlidingTimes& times = entry.value.times;
          publishRate(ctx.kb, frequencyLabel(i), entry.label,
                      times.count(ctx.now, window_),
                      times.rate(ctx.now, window_), entry.value.publishedCount);
        });
  }
}

double TrafficStatsModule::globalRate(net::PacketType type, SimTime now) {
  return global_[static_cast<std::size_t>(type)]->rate(now);
}

double TrafficStatsModule::deviceRate(net::PacketType type,
                                      const std::string& entity, SimTime now) {
  auto* entry = const_cast<EntityKeyedMap<DeviceCounter>::Entry*>(
      perDevice_[static_cast<std::size_t>(type)].findByLabel(entity));
  if (!entry) return 0.0;
  return entry->value.times.rate(now, window_);
}

std::size_t TrafficStatsModule::memoryBytes() const {
  // The published counts only mirror what the KB already holds; the RAM
  // proxy leaves them out, so recorded state sizes do not move with them.
  // A DeviceCounter takes no more room than the SlidingCounter it replaced.
  static_assert(sizeof(DeviceCounter) == sizeof(SlidingCounter));
  std::size_t bytes = sizeof(*this) - sizeof(globalPublished_);
  for (const auto& counter : global_) bytes += counter->memoryBytes();
  for (const auto& m : perDevice_) {
    bytes += m.entryOverheadBytes();
    m.forEachUnordered([&](const EntityKeyedMap<DeviceCounter>::Entry& e) {
      bytes += e.value.times.memoryBytes() + 32;
    });
  }
  return bytes;
}

}  // namespace kalis::ids
