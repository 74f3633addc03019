#include "chaos/fault_plan.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace kalis::chaos {

namespace {

FaultPlan lightPreset() {
  FaultPlan p;
  p.lossStart = 0.02;
  p.lossBurstLen = 3.0;
  p.rssiJitterDb = 1.5;
  return p;
}

FaultPlan heavyPreset() {
  FaultPlan p;
  p.lossStart = 0.08;
  p.lossBurstLen = 5.0;
  p.duplicateProb = 0.02;
  p.reorderProb = 0.05;
  p.reorderWindow = milliseconds(8);
  p.corruptProb = 0.02;
  p.rssiJitterDb = 3.0;
  return p;
}

SpecKey applyKey(FaultPlan& p, std::string_view key, std::string_view value) {
  const auto asDouble = [&]() { return parseDouble(value); };
  const auto asInt = [&]() { return parseInt(value); };
  constexpr SpecKey kBad = SpecKey::kBadValue;
  if (key == "seed") {
    const auto v = asInt();
    if (!v || *v < 0) return kBad;
    p.seed = static_cast<std::uint64_t>(*v);
  } else if (key == "loss") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return kBad;
    p.lossStart = *v;
  } else if (key == "burst") {
    const auto v = asDouble();
    if (!v || *v < 1.0) return kBad;
    p.lossBurstLen = *v;
  } else if (key == "dup") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return kBad;
    p.duplicateProb = *v;
  } else if (key == "reorder") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return kBad;
    p.reorderProb = *v;
  } else if (key == "window-ms") {
    const auto v = asInt();
    if (!v || *v < 0) return kBad;
    p.reorderWindow = milliseconds(static_cast<std::uint64_t>(*v));
  } else if (key == "corrupt") {
    const auto v = asDouble();
    if (!v || *v < 0.0 || *v > 1.0) return kBad;
    p.corruptProb = *v;
  } else if (key == "bits") {
    const auto v = asInt();
    if (!v || *v < 1 || *v > 64) return kBad;
    p.corruptBitsMax = static_cast<int>(*v);
  } else if (key == "jitter") {
    const auto v = asDouble();
    if (!v || *v < 0.0) return kBad;
    p.rssiJitterDb = *v;
  } else if (key == "crash-s") {
    const auto v = asDouble();
    if (!v || *v < 0.0) return kBad;
    p.crashMeanUptime = static_cast<Duration>(*v * 1e6);
  } else if (key == "down-s") {
    const auto v = asDouble();
    if (!v || *v <= 0.0) return kBad;
    p.crashDowntime = static_cast<Duration>(*v * 1e6);
  } else if (key == "stall-batches") {
    const auto v = asInt();
    if (!v || *v < 0) return kBad;
    p.stallEveryBatches = static_cast<std::size_t>(*v);
  } else if (key == "stall-us") {
    const auto v = asInt();
    if (!v || *v < 0) return kBad;
    p.stallMicros = static_cast<std::uint64_t>(*v);
  } else {
    return SpecKey::kUnknown;
  }
  return SpecKey::kApplied;
}

}  // namespace

bool FaultPlan::hasLinkFaults() const {
  return lossStart > 0.0 || duplicateProb > 0.0 || reorderProb > 0.0 ||
         corruptProb > 0.0 || rssiJitterDb > 0.0 || crashMeanUptime > 0;
}

bool FaultPlan::zero() const {
  return !hasLinkFaults() && !ingestFaults().enabled();
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec,
                                          std::string* error) {
  FaultPlan p;
  const auto preset = [&p](std::string_view name) {
    if (name == "light") {
      p = lightPreset();
    } else if (name == "heavy") {
      p = heavyPreset();
    } else {
      return name == "none";
    }
    return true;
  };
  const auto key = [&p](std::string_view k, std::string_view v) {
    return applyKey(p, k, v);
  };
  if (!parseSpec(spec, "fault-plan", preset, key, error)) return std::nullopt;
  return p;
}

std::string FaultPlan::describe() const {
  std::ostringstream oss;
  const char* sep = "";
  const auto emit = [&](const char* key, const std::string& value) {
    oss << sep << key << "=" << value;
    sep = ",";
  };
  if (lossStart > 0.0) {
    emit("loss", formatDouble(lossStart));
    if (lossBurstLen > 1.0) emit("burst", formatDouble(lossBurstLen));
  }
  if (duplicateProb > 0.0) emit("dup", formatDouble(duplicateProb));
  if (reorderProb > 0.0) {
    emit("reorder", formatDouble(reorderProb));
    emit("window-ms", std::to_string(reorderWindow / 1000));
  }
  if (corruptProb > 0.0) {
    emit("corrupt", formatDouble(corruptProb));
    emit("bits", std::to_string(corruptBitsMax));
  }
  if (rssiJitterDb > 0.0) emit("jitter", formatDouble(rssiJitterDb));
  if (crashMeanUptime > 0) {
    emit("crash-s", formatDouble(toSeconds(crashMeanUptime)));
    emit("down-s", formatDouble(toSeconds(crashDowntime)));
  }
  if (ingestFaults().enabled()) {
    emit("stall-batches", std::to_string(stallEveryBatches));
    emit("stall-us", std::to_string(stallMicros));
  }
  emit("seed", std::to_string(seed));
  return oss.str();
}

}  // namespace kalis::chaos
