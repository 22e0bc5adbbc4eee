// Deterministic, site-addressed fault injection for failure-path testing.
//
// Production code plants named injection points at the places where real
// numerical or concurrency failures originate:
//
//   if (WP_FAULT_POINT("newton.converge")) { ...pretend Newton diverged... }
//
// Sites are inert by default: WP_FAULT_POINT compiles to one relaxed atomic
// load and a predictable branch when nothing is armed, so the hot paths pay
// nothing measurable.  Tests arm a site with a Schedule — skip the first N
// hits, then fire the next M (optionally with a seeded per-site probability
// stream) — which makes every failure scenario scriptable and reproducible:
// the RNG is a private splitmix64 stream per site, never the global clock or
// std::rand.
//
// Counting is global (one counter per site across all threads).  Under
// concurrency the *which-thread* assignment of the k-th hit is scheduling-
// dependent, so tests written against concurrent engines must assert
// outcome properties (completed XOR structured abort, no hang, stats
// consistency) rather than which worker absorbed the fault.
//
// Injection-site catalogue (kept in DESIGN.md "Robustness" section):
//   newton.converge   SolveNewton reports non-convergence immediately
//   lu.pivot          SparseLu::FactorOrRefactor throws SingularMatrixError
//   device.eval_nan   EvalDevices poisons the RHS with a NaN
//   pool.task_throw   a ThreadPool task throws before running its body
//   chord.degraded    a chord-Newton iterate reports a degraded contraction
//                     rate, forcing a refactorization on the next iteration
//   spec.mispredict   ValidateSpeculativeChain sees the prediction error as
//                     out of tolerance, forcing the discard path (exercises
//                     the adaptive speculation policy's depth degradation)
//   ckpt.write        WriteCheckpointSlot fails as if the disk did (throws
//                     CheckpointError before the slot is replaced)
//   ckpt.corrupt      WriteCheckpointSlot flips a payload byte AFTER the CRC
//                     is sealed, producing an on-disk file a resume must reject
//   watchdog.stall    the stall watchdog's next sample reads as no-progress
//                     regardless of the real heartbeats (forces escalation)
//   breaker.trip      the next breaker-board observation trips the breaker of
//                     the feature it is attributed to, bypassing the EWMA
//   reduce.singular   a ReducedSubnet's interior factorization throws
//                     SingularMatrixError (degenerate eliminated subnetwork);
//                     surfaces as a failed Newton solve the rescue ladder owns
#pragma once

#include <cstdint>
#include <string_view>

#include "util/error.hpp"

namespace wavepipe::util::fault {

/// When an armed site injects.  The site's hit counter starts at zero on
/// Arm(); hit indices [skip, skip + fire) are candidates, and each candidate
/// fires with `probability` drawn from a splitmix64 stream seeded by `seed`.
struct Schedule {
  std::uint64_t skip = 0;  ///< hits to let pass before the window opens
  std::uint64_t fire = 1;  ///< candidate injections once the window opens
  double probability = 1.0;  ///< per-candidate chance of actually firing
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;  ///< per-site RNG stream seed
  static constexpr std::uint64_t kUnlimited = ~0ull;  ///< fire forever
};

/// Arms (or re-arms, resetting counters) the named site.
void Arm(std::string_view site, const Schedule& schedule);
/// Disarms one site; its counters are discarded.
void Disarm(std::string_view site);
/// Disarms every site (test teardown).
void DisarmAll();

/// Total times the named site was evaluated while armed.
std::uint64_t Hits(std::string_view site);
/// Times the named site actually injected.
std::uint64_t Fired(std::string_view site);

/// True when at least one site is armed.  Relaxed atomic load — this is the
/// only cost a disabled fault point pays.
bool Enabled();

/// Counts a hit against `site` and reports whether to inject.  Only called
/// when Enabled(); unarmed sites always return false.
bool ShouldFire(std::string_view site);

/// RAII arm/disarm for tests: arms `site` on construction, disarms it on
/// destruction, so a throwing assertion can't leak an armed fault into the
/// next test.
class ScopedFault {
 public:
  explicit ScopedFault(std::string_view site, const Schedule& schedule = {})
      : site_(site) {
    Arm(site_, schedule);
  }
  ~ScopedFault() { Disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  std::uint64_t hits() const { return Hits(site_); }
  std::uint64_t fired() const { return Fired(site_); }

 private:
  std::string_view site_;
};

/// Thrown by injection points that simulate an exception escaping (e.g.
/// pool.task_throw).  Distinct type so tests can tell an injected throw from
/// a genuine engine error.
class FaultInjectedError : public Error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : Error("injected fault: " + site) {}
};

}  // namespace wavepipe::util::fault

/// Evaluates to true when the named site should inject a fault now.
#define WP_FAULT_POINT(site)              \
  (::wavepipe::util::fault::Enabled() &&  \
   ::wavepipe::util::fault::ShouldFire(site))
