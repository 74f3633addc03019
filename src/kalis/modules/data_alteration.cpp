#include "kalis/modules/data_alteration.hpp"

namespace kalis::ids {

void DataAlterationModule::onPacket(const net::CapturedPacket& pkt,
                                    const net::Dissection& dis,
                                    ModuleContext& ctx) {
  if (ForwardingWatchdog::follows(dis)) {
    watchdog_.observe(pkt, dis, ForwardingWatchdog::ctpRoot(ctx.kb));
  }
  watchdog_.expire(ctx.now);
}

void DataAlterationModule::onTick(ModuleContext& ctx) {
  watchdog_.expire(ctx.now);
  for (const auto& event : watchdog_.drainAlterations()) {
    if (!shouldAlert(event.entity, ctx.now, cooldown_)) continue;
    Alert alert;
    alert.type = AttackType::kDataAlteration;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.victimEntity = event.originEntity;
    alert.suspectEntities.push_back(event.entity);
    alert.detail = "forwarded payload hash mismatch";
    ctx.raiseAlert(std::move(alert));
  }
}

}  // namespace kalis::ids
