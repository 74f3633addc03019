// The trace_replay reference workload packaged for chaos::DiffRunner
// (DESIGN.md §9): capture a benign HomeWifi trace and a separate ICMP-flood
// run, splice them (KTRC round trip), and replay the merged trace through
// kalis::pipeline. The optional FaultPlan perturbs both capture worlds
// (link level) and the pipeline workers (ingestion level), so one plan
// exercises every chaos seam end to end.
#pragma once

#include <cstdint>

#include "chaos/diff_runner.hpp"
#include "chaos/link_chaos.hpp"
#include "metrics/ground_truth.hpp"
#include "trace/trace_file.hpp"

namespace kalis::scenarios {

/// Runs a live HomeWifi simulation for 70 s and returns everything a
/// sniffer at the IDS spot captured. `withAttack` adds a four-burst ICMP
/// flood recorded in `truth`; a non-null `plan` breaks the links while
/// recording and adds its fault counts to `faultTally`.
trace::Trace captureTrace(std::uint64_t seed, bool withAttack,
                          metrics::GroundTruth* truth,
                          const chaos::FaultPlan* plan,
                          chaos::LinkChaos::Stats* faultTally);

/// One full run. `workers` == 0 selects deterministic single-shard mode
/// (byte-reproducible); otherwise `workers` threads. A null `plan` runs
/// clean. The returned output carries the SIEM lines plus exact fault
/// tallies for accounted-loss attribution.
chaos::RunOutput runTraceReplayWorkload(std::uint64_t seed,
                                        const chaos::FaultPlan* plan,
                                        std::size_t workers);

/// Binds `seed` for DiffRunner.
chaos::DiffRunner::Workload traceReplayWorkload(std::uint64_t seed);

}  // namespace kalis::scenarios
