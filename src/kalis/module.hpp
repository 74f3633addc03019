// Module framework (paper §IV-B4): any network-feature-specific or
// attack-specific functionality is an independent module. Sensing modules
// discover knowledge; detection modules analyze traffic together with the
// available knowggets and raise alerts.
//
// Each module can, "given a particular instance of the Knowledge Base,
// determine whether its services are required" — that is `required()` —
// and declares which knowgget labels influence that decision in
// `watchedLabels()`, which the Module Manager turns into publish/subscribe
// registrations for dynamic (de)activation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kalis/alert.hpp"
#include "kalis/data_store.hpp"
#include "kalis/knowledge.hpp"
#include "net/packet.hpp"

namespace kalis::ids {

/// The services a module may use while processing events.
struct ModuleContext {
  KnowledgeBase& kb;
  DataStore& dataStore;
  SimTime now;
  std::function<void(Alert)> raiseAlert;
};

class Module {
 public:
  virtual ~Module() = default;

  virtual std::string name() const = 0;
  virtual bool isDetection() const = 0;

  /// Knowledge-driven activation predicate. The Module Manager activates the
  /// module exactly when this returns true for the current Knowledge Base.
  virtual bool required(const KnowledgeBase& kb) const {
    (void)kb;
    return true;
  }

  /// Knowgget label patterns (exact, or prefix ending in '*') whose changes
  /// can flip required(); the manager subscribes to them.
  virtual std::vector<std::string> watchedLabels() const { return {}; }

  /// Applies "name(key=value, ...)" parameters from the configuration file.
  /// Unknown keys are ignored (forward compatibility).
  virtual void configure(const std::map<std::string, std::string>& params) {
    (void)params;
  }

  virtual void onActivate(ModuleContext& ctx) { (void)ctx; }
  virtual void onDeactivate(ModuleContext& ctx) { (void)ctx; }

  /// Called for every captured packet while active. `dis` is the shared
  /// dissection, computed once per packet by the manager.
  virtual void onPacket(const net::CapturedPacket& pkt,
                        const net::Dissection& dis, ModuleContext& ctx) {
    (void)pkt;
    (void)dis;
    (void)ctx;
  }

  /// Periodic housekeeping (windows, threshold evaluation). Cadence is the
  /// owning node's tick interval (default 1 s).
  virtual void onTick(ModuleContext& ctx) { (void)ctx; }

  // --- resource-accounting proxies (see DESIGN.md §1) ------------------------

  /// Abstract CPU cost charged per packet processed while active.
  virtual std::uint32_t workUnitsPerPacket() const { return 1; }
  /// Live state footprint in bytes.
  virtual std::size_t memoryBytes() const { return 0; }
};

class SensingModule : public Module {
 public:
  bool isDetection() const override { return false; }
};

class DetectionModule : public Module {
 public:
  bool isDetection() const override { return true; }
  /// The attack this module is specialized on.
  virtual AttackType attack() const = 0;

 protected:
  /// Per-victim alert rate limiting: returns true at most once per
  /// `cooldown` for each key. Keeps modules from re-alerting every packet
  /// of a sustained attack.
  bool shouldAlert(const std::string& key, SimTime now, Duration cooldown) {
    auto it = lastAlert_.find(key);
    if (it != lastAlert_.end() && now < it->second + cooldown) return false;
    lastAlert_[key] = now;
    return true;
  }

  std::size_t alertStateBytes() const {
    std::size_t bytes = 0;
    for (const auto& [k, v] : lastAlert_) bytes += k.size() + sizeof(v);
    return bytes;
  }

 private:
  std::map<std::string, SimTime> lastAlert_;
};

}  // namespace kalis::ids
