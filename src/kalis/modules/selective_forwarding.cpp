#include "kalis/modules/selective_forwarding.hpp"

#include <sstream>

namespace kalis::ids {

// --- SelectiveForwardingModule -------------------------------------------------

void SelectiveForwardingModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("lowThresh"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) lowThresh_ = *v;
  }
  if (auto it = params.find("highThresh"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) highThresh_ = *v;
  }
  if (auto it = params.find("minSamples"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minSamples_ = static_cast<std::size_t>(*v);
    }
  }
}

void SelectiveForwardingModule::onPacket(const net::CapturedPacket& pkt,
                                         const net::Dissection& dis,
                                         ModuleContext& ctx) {
  if (ForwardingWatchdog::follows(dis)) {
    watchdog_.observe(pkt, dis, ForwardingWatchdog::ctpRoot(ctx.kb));
  }
  watchdog_.expire(ctx.now);
}

void SelectiveForwardingModule::onTick(ModuleContext& ctx) {
  watchdog_.expire(ctx.now);
  watchdog_.forEachForwarder(ctx.now, [&](const net::EntityRef& entity,
                                          const std::string& label) {
    const std::size_t n = watchdog_.samples(entity, ctx.now);
    if (n < minSamples_) return;
    const double ratio = watchdog_.dropRatio(entity, ctx.now);
    if (ratio < lowThresh_ || ratio >= highThresh_) return;
    if (!shouldAlert(label, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kSelectiveForwarding;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.suspectEntities.push_back(label);
    alert.detail = "drop ratio " + formatDouble(ratio) + " over " +
                   std::to_string(n) + " forwarding opportunities";
    ctx.raiseAlert(std::move(alert));
  });
}

// --- BlackholeModule -----------------------------------------------------------

void BlackholeModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("highThresh"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) highThresh_ = *v;
  }
  if (auto it = params.find("minSamples"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minSamples_ = static_cast<std::size_t>(*v);
    }
  }
}

void BlackholeModule::onPacket(const net::CapturedPacket& pkt,
                               const net::Dissection& dis, ModuleContext& ctx) {
  if (ForwardingWatchdog::follows(dis)) {
    watchdog_.observe(pkt, dis, ForwardingWatchdog::ctpRoot(ctx.kb));
  }
  watchdog_.expire(ctx.now);
}

void BlackholeModule::onTick(ModuleContext& ctx) {
  watchdog_.expire(ctx.now);
  watchdog_.forEachForwarder(ctx.now, [&](const net::EntityRef& entity,
                                          const std::string& label) {
    const std::size_t n = watchdog_.samples(entity, ctx.now);
    if (n < minSamples_) return;
    const double ratio = watchdog_.dropRatio(entity, ctx.now);
    if (ratio < highThresh_) return;

    // Share the dropped-traffic fingerprints with peer Kalis nodes: if one
    // of them sees this very traffic reappear somewhere else, the attack is
    // a wormhole, not a blackhole.
    const auto fps = watchdog_.droppedFingerprints(entity, ctx.now);
    std::ostringstream csv;
    for (std::size_t i = 0; i < fps.size() && i < 64; ++i) {
      if (i) csv << ",";
      csv << std::hex << fps[i];
    }
    ctx.kb.put(labels::kWormholeDrops, csv.str(), label, /*collective=*/true);

    if (!shouldAlert(label, ctx.now, cooldown_)) return;
    Alert alert;
    alert.type = AttackType::kBlackhole;
    alert.time = ctx.now;
    alert.moduleName = name();
    alert.suspectEntities.push_back(label);
    alert.detail = "drop ratio " + formatDouble(ratio) + " over " +
                   std::to_string(n) + " forwarding opportunities";
    ctx.raiseAlert(std::move(alert));
  });
}

}  // namespace kalis::ids
