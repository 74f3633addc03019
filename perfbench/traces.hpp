// Seeded packet traces for the Kalis benchmark's workloads.
//
// Every trace is generated in set-up from the workload seed alone: the
// repository's simulated environments (scenarios/environments.hpp) are run
// with a sniffer at the IDS spot, attack injectors from src/attacks are
// installed in those worlds, and the capture is tiled in time until it holds
// the requested number of packets. The same seed always yields a
// byte-identical trace (checked by serializeTrace in the self-check).
#pragma once

#include <cstddef>
#include <cstdint>

#include <string>
#include <vector>

#include "kalis/alert.hpp"
#include "trace/trace_file.hpp"
#include "util/types.hpp"

namespace perfbench {

enum class TraceKind {
  kBenign,       ///< HomeWifi + WSN captures, no attack
  kAttackMix,    ///< same worlds with Fig. 8 WiFi floods and WSN forwarding attacks
  kEntityChurn,  ///< benign background + one fresh spoofed source per frame
};

/// One injected attack: its type and the entity an alert on it must name
/// (the victim of a flood, the misbehaving relay of a forwarding attack).
struct Injected {
  kalis::ids::AttackType type;
  std::string entity;
};

struct GeneratedTrace {
  kalis::trace::Trace packets;
  /// Virtual time the node's clock is run to after the last packet, so
  /// tick-driven detection windows close (both replay paths use it).
  kalis::SimTime drainUntil = 0;
  /// Entity churn only: number of spoofed frames spliced in.
  std::size_t spoofed = 0;
  /// Ground truth: every attack the generator injected. Empty for the
  /// benign workloads, on which no alert is correct.
  std::vector<Injected> injected;
};

/// Generates `packets` packets of the given kind from `seed`.
GeneratedTrace generateTrace(TraceKind kind, std::uint64_t seed,
                             std::size_t packets);

}  // namespace perfbench
