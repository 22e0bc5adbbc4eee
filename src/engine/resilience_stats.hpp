// Resilience counter block (run_stats.v1.2 additive groups) and the
// breaker-guarded feature lanes.  Split from engine/resilience.hpp so that
// every engine's result struct can embed the stats without pulling in the
// checkpoint/watchdog machinery (transient.hpp includes this; resilience.hpp
// includes transient.hpp).
#pragma once

#include <array>
#include <cstdint>

namespace wavepipe::util::telemetry {
class CounterRegistry;
}  // namespace wavepipe::util::telemetry

namespace wavepipe::engine {

/// Feature lanes guarded by circuit-breakers, in export order.
enum class Feature {
  kChord = 0,
  kBypass,
  kParallelAssembly,
};
inline constexpr int kNumFeatures = 3;
const char* FeatureName(Feature feature);

/// Mask bit for BreakerBoard attribution.
inline std::uint64_t FeatureBit(Feature feature) {
  return std::uint64_t{1} << static_cast<int>(feature);
}

struct ResilienceStats {
  // ckpt.* — checkpoint activity of THIS process (a resumed run counts only
  // its own writes, so these keys are excluded from resume-parity diffs).
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_write_failures = 0;
  std::uint64_t ckpt_bytes_last = 0;
  std::uint64_t ckpt_generation = 0;
  std::uint64_t ckpt_resumed = 0;  ///< 1 when the run started from --resume

  // watchdog.*
  std::uint64_t watchdog_stalls = 0;       ///< no-progress windows detected
  std::uint64_t watchdog_escalations = 0;  ///< stalls that aborted the run

  // resilience.*
  std::uint64_t breaker_trips = 0;     ///< closed -> open transitions
  std::uint64_t breaker_retrips = 0;   ///< half-open probe failed, re-opened
  std::uint64_t breaker_reprobes = 0;  ///< open -> half-open transitions
  std::array<std::uint64_t, kNumFeatures> feature_trips{};
  std::uint64_t budget_exhausted = 0;  ///< 1 when the governor ended the run

  /// Registers the ckpt./watchdog./resilience. groups (additive tail of the
  /// run_stats schema — key ORDER here is part of the schema contract).
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

}  // namespace wavepipe::engine
