// Batch sweep runner: expand the variant grid of a deck (.param / .step /
// .mc), execute every variant on a thread pool, and share the per-pattern
// symbolic artifacts (fill-reducing ordering, coloring) across all of them.
//
// Determinism contract: a variant's waveform is a pure function of its
// VariantSpec — never of pool size, scheduling order, or which variant ran
// first.  The two mechanisms that make this true:
//   * every variant elaborates its OWN Circuit and runs the serial engines,
//     so nothing numeric is shared between concurrent variants;
//   * the only shared mutable object is the OrderingCache, whose first-
//     insert-wins policy hands every variant the identical permutation (the
//     ordering algorithms are pure, so racing candidates are equal anyway).
// tests/batch/runner_test.cpp pins this: pool sizes 1 and 4 produce
// bit-identical waveform hashes, and each variant matches a standalone run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/artifacts.hpp"
#include "batch/stats.hpp"
#include "batch/sweep.hpp"
#include "engine/options.hpp"
#include "engine/trace.hpp"
#include "netlist/parser.hpp"

namespace wavepipe::batch {

struct BatchOptions {
  /// Variant-level workers (>= 1).  Variants are independent; each runs the
  /// serial engine internally, so this is the only parallelism knob.
  int threads = 1;
  /// Base seed for .mc device variation (per-sample seeds derive from it).
  std::uint64_t mc_seed = 1;
  /// Simulator options applied verbatim to every variant (tolerances,
  /// acceleration).  Callers typically seed this from the prototype deck's
  /// elaborated sim_options so .options cards take effect.
  engine::SimOptions sim;
  /// Build SharedAnalysisArtifacts once and attach them to every variant.
  /// Off = every variant rebuilds its own symbolic work (the "cold" baseline
  /// the throughput bench compares against).
  bool share_artifacts = true;
};

struct VariantResult {
  int index = 0;
  VariantSpec spec;
  bool ok = false;
  std::string error;       ///< failure message when !ok
  std::string analysis;    ///< "tran", "dc", or "ac"
  engine::Trace trace;     ///< waveform (empty when !ok before any solve)
  std::uint64_t steps_accepted = 0;     ///< tran only
  std::uint64_t newton_iterations = 0;  ///< all verbs
  std::uint64_t points = 0;             ///< dc/ac sweep points
  std::uint64_t waveform_hash = 0;      ///< HashTrace(trace); 0 when !ok
  double wall_seconds = 0.0;
};

struct BatchResult {
  SweepPlan plan;
  std::vector<VariantResult> variants;  ///< indexed by VariantSpec::index
  SharedAnalysisArtifacts artifacts;    ///< built=false when sharing is off
  BatchStats stats;
};

/// FNV-1a over the raw bytes of a trace's times and values.  Two traces hash
/// equal iff they are bit-identical sample for sample — the primitive behind
/// every determinism check in the batch tests and bench.
std::uint64_t HashTrace(const engine::Trace& trace);

/// Expands and runs the whole batch.  Per-variant failures (non-convergence,
/// singular corner, bad substitution) are captured into that variant's
/// result and counted in stats.variants_failed — one bad corner never aborts
/// the batch.  Throws only on whole-batch errors: no analysis card, an
/// unexpandable sweep, or a prototype that will not elaborate.
BatchResult RunBatch(const netlist::ParsedNetlist& base, const BatchOptions& options);

}  // namespace wavepipe::batch
