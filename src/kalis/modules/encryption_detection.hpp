// Encryption Detection sensing module.
//
// Fig. 3 includes deployed prevention techniques among the features: if the
// monitored devices encrypt/authenticate their traffic, attacks like data
// alteration are impossible and the corresponding detection technique can be
// deactivated. Evidence used:
//  - the 802.15.4 link-security bit and ZigBee NWK security bit,
//  - the 802.11 "protected" bit,
//  - payload byte-entropy (TLS-like payloads exceed ~7.2 bits/byte).
//
// Publishes LinkEncryption.<medium> = true and Encrypted@<entity> = true.
#pragma once

#include <map>
#include <string>

#include "kalis/entity_map.hpp"
#include "kalis/module.hpp"

namespace kalis::ids {

class EncryptionDetectionModule final : public SensingModule {
 public:
  std::string name() const override { return "EncryptionDetectionModule"; }

  void configure(const std::map<std::string, std::string>& params) override;

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ModuleContext& ctx) override;

  std::size_t memoryBytes() const override {
    std::size_t bytes = sizeof(*this) - kEntityMapSizeofExcess;
    entityEncrypted_.forEachUnordered(
        [&](const auto& entry) { bytes += entry.label.size() + 16; });
    return bytes;
  }

 private:
  double entropyThreshold_ = 7.2;
  std::size_t minPayload_ = 64;
  EntityKeyedMap<bool> entityEncrypted_;  ///< entities seen encrypted (a set)
  bool wpanPublished_ = false;
  bool wifiPublished_ = false;
};

}  // namespace kalis::ids
