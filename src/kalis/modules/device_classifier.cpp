#include "kalis/modules/device_classifier.hpp"

#include "net/zigbee.hpp"

namespace kalis::ids {

void DeviceClassifierModule::onPacket(const net::CapturedPacket& pkt,
                                      const net::Dissection& dis,
                                      ModuleContext& ctx) {
  (void)pkt;
  (void)ctx;
  const net::EntityRef sender = dis.linkSourceRef();
  if (!sender.valid()) return;
  EntityState& s = state_.tryEmplace(sender).first->value;

  if (dis.wifi && dis.wifi->kind == net::WifiFrameKind::kBeacon &&
      dis.wifi->src == dis.wifi->bssid) {
    s.isApBeaconer = true;
  }
  if (dis.ctpBeacon && dis.ctpBeacon->etx == 0) s.isCtpRoot = true;

  if (dis.zigbee && net::EntityRef::of(dis.zigbee->src) == sender &&
      !dis.zigbee->payload.empty()) {
    const std::uint8_t tag = dis.zigbee->payload[0];
    if (tag == net::kZigbeeAppCommand) {
      s.commandTargets.insert(net::EntityRef::of(dis.zigbee->dst));
    } else if (tag == net::kZigbeeAppReport) {
      s.sendsReports = true;
    }
  }
}

void DeviceClassifierModule::onTick(ModuleContext& ctx) {
  state_.forEachOrdered([&](auto& entry) {
    EntityState& s = entry.value;
    std::string role;
    if (s.isApBeaconer) {
      role = "router";
    } else if (s.isCtpRoot || s.commandTargets.size() >= 2) {
      role = "hub";
    } else if (s.sendsReports || !s.commandTargets.empty()) {
      role = "sub";
    }
    if (!role.empty() && role != s.publishedRole) {
      s.publishedRole = role;
      ctx.kb.put(labels::kRole, role, entry.label);
    }
  });
}

}  // namespace kalis::ids
