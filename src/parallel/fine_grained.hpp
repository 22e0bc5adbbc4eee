// Conventional fine-grained parallel SPICE: the baseline WavePipe is
// positioned against in the paper.
//
// Parallelism lives INSIDE each time-point solve: device model evaluation is
// distributed across worker threads, while the time axis, the Newton
// iteration and the sparse LU remain strictly sequential.  Its scaling is
// therefore Amdahl-limited by the matrix solution — the motivation the paper
// opens with, and the effect the fig-D bench quantifies.
//
// Two assembly strategies sit behind the evaluator (see parallel/coloring.hpp):
//
//  * reduction — each worker accumulates into a private Jacobian/RHS copy,
//    merged serially afterwards (the historical baseline; the merge is the
//    O(nnz x threads) tax).
//  * colored   — conflict-free device coloring stamps the shared matrix
//    directly, no private copies, one barrier per color.
//
// The default (kAuto) picks per circuit with a structure-only cost model;
// tests force either mode explicitly.
#pragma once

#include "engine/circuit.hpp"
#include "engine/mna.hpp"
#include "engine/newton.hpp"
#include "engine/options.hpp"
#include "engine/trace.hpp"
#include "engine/transient.hpp"
#include "parallel/coloring.hpp"

namespace wavepipe::parallel {

struct FineGrainedOptions {
  int threads = 2;
  /// Assembly strategy; kAuto lets the cost model choose colored vs
  /// reduction from the conflict graph.
  AssemblyMode assembly = AssemblyMode::kAuto;
  /// Coloring heuristic when the colored path is used.
  ColoringOptions coloring;
  engine::SimOptions sim;
};

/// Where the CPU time of a run went (thread-CPU seconds, summed over
/// workers for the parallel phase).
struct PhaseBreakdown {
  double model_eval = 0.0;  ///< device evaluation (parallelizable)
  double reduction = 0.0;   ///< summing private Jacobian/RHS copies (overhead)
  double lu = 0.0;          ///< factor + triangular solves (serial)
  double control = 0.0;     ///< everything else: predictor, LTE, bookkeeping

  double Total() const { return model_eval + reduction + lu + control; }

  /// Registers the breakdown under the `phases.` prefix (util/telemetry.hpp).
  void ExportCounters(util::telemetry::CounterRegistry& registry) const;
};

struct FineGrainedResult {
  engine::Trace trace;
  engine::TransientStats stats;
  PhaseBreakdown phases;
  engine::AssemblyStats assembly;  ///< strategy chosen + per-phase assembly time
  engine::SolutionPointPtr final_point;
  /// Structured failure reporting (same contract as TransientResult): an
  /// unconverged step at hmin, a budget stop, or a watchdog escalation ends
  /// the run with completed=false and the waveform up to last_good_time
  /// intact instead of an unwound stack.
  bool completed = true;
  std::string abort_reason;
  double last_good_time = 0.0;
  /// Durable-run telemetry (ckpt./watchdog./resilience. counter groups).
  engine::ResilienceStats resilience;
};

/// Runs the fine-grained-parallel transient.  Waveforms are identical to the
/// serial engine (same math, same step control) — only the evaluation is
/// distributed.
FineGrainedResult RunTransientFineGrained(const engine::Circuit& circuit,
                                          const engine::MnaStructure& structure,
                                          const engine::TransientSpec& spec,
                                          const FineGrainedOptions& options);

/// Amdahl-style runtime model for k threads given a measured breakdown:
/// model eval divides by k, the reduction grows with (k-1) private copies,
/// LU and control stay serial.  Returns the modeled speedup over 1 thread.
double ModelFineGrainedSpeedup(const PhaseBreakdown& phases, int threads);

}  // namespace wavepipe::parallel
