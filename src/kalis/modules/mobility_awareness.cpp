#include "kalis/modules/mobility_awareness.hpp"

#include <cmath>

namespace kalis::ids {

void MobilityAwarenessModule::configure(
    const std::map<std::string, std::string>& params) {
  if (auto it = params.find("thresholdDb"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) thresholdDb_ = *v;
  }
  if (auto it = params.find("minSamples"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minSamples_ = static_cast<std::size_t>(*v);
    }
  }
  if (auto it = params.find("holdSeconds"); it != params.end()) {
    if (auto v = parseDouble(it->second); v && *v > 0) {
      holdTime_ = static_cast<Duration>(*v * 1e6);
    }
  }
  if (auto it = params.find("minMobileEntities"); it != params.end()) {
    if (auto v = parseInt(it->second); v && *v > 0) {
      minMobileEntities_ = static_cast<std::size_t>(*v);
    }
  }
}

void MobilityAwarenessModule::onPacket(const net::CapturedPacket& pkt,
                                       const net::Dissection& dis,
                                       ModuleContext& ctx) {
  (void)ctx;
  // Only link-layer senders we can identify contribute RSSI fingerprints.
  const net::EntityRef entity = dis.linkSourceRef();
  if (!entity.valid()) return;
  EntityState& state = entities_.tryEmplace(entity).first->value;
  state.fast.add(pkt.meta.rssiDbm);
  state.slow.add(pkt.meta.rssiDbm);
  ++state.samples;
  if (state.samples >= minSamples_ &&
      std::fabs(state.fast.value() - state.slow.value()) > thresholdDb_) {
    state.lastEvidence = pkt.meta.timestamp;
    state.sawEvidence = true;
  }
}

void MobilityAwarenessModule::onTick(ModuleContext& ctx) {
  // Publish per-entity signal strength when it moved >= 2 dB since the last
  // write (collective: peers correlate these to confirm network mobility).
  bool haveBasis = false;
  std::size_t mobileEntities = 0;
  entities_.forEachOrdered([&](auto& entry) {
    EntityState& state = entry.value;
    haveBasis = haveBasis || state.samples >= minSamples_;
    if (state.sawEvidence && ctx.now <= state.lastEvidence + holdTime_) {
      ++mobileEntities;
    }
    if (state.samples < 3) return;
    const double current = state.fast.value();
    if (std::fabs(current - state.lastPublished) >= 2.0) {
      state.lastPublished = current;
      ctx.kb.put(labels::kSignalStrength,
                    static_cast<long long>(std::lround(current)), entry.label,
                    /*collective=*/true);
    }
  });

  // Publish the network-wide mobility verdict once we have a basis for it.
  if (!haveBasis) return;

  const bool mobileNow = mobileEntities >= minMobileEntities_;
  if (!published_ || publishedValue_ != mobileNow) {
    published_ = true;
    publishedValue_ = mobileNow;
    ctx.kb.put(labels::kMobility, mobileNow, "", /*collective=*/true);
  }
}

std::size_t MobilityAwarenessModule::memoryBytes() const {
  std::size_t bytes = sizeof(*this) - kEntityMapSizeofExcess;
  entities_.forEachUnordered([&](const auto& entry) {
    bytes += entry.label.size() + sizeof(EntityState) + 16;
  });
  return bytes;
}

}  // namespace kalis::ids
