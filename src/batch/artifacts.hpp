// SharedAnalysisArtifacts: the per-pattern symbolic work one batch computes
// once and every variant reuses read-only.
//
// All sweep variants of a deck share one sparsity pattern — parameter and
// Monte Carlo edits change VALUES, never the matrix structure (the grid is
// expanded from one element list).  The expensive symbolic artifacts are
// pure functions of that pattern:
//
//   * the fill-reducing column ordering  (sparse/ordering_cache.hpp)
//   * the assembly color schedule        (parallel::BuildColorSchedule)
//
// The bundle is built once from a prototype variant and handed to every
// runner thread.  Determinism contract: an OrderingCache hit returns the
// exact permutation the instance would have computed itself (the ordering
// algorithms are pure), so a variant solved with shared artifacts is
// bit-identical to the same variant solved standalone.  Thread-safety
// contract: everything here is immutable after Build; the cache's internal
// Find/Insert are mutex-protected and its entries are immutable shared_ptrs.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/circuit.hpp"
#include "engine/mna.hpp"
#include "engine/options.hpp"
#include "parallel/coloring.hpp"
#include "sparse/ordering_cache.hpp"

namespace wavepipe::batch {

struct SharedAnalysisArtifacts {
  /// Pre-warmed with the prototype's ordering; attached to every variant's
  /// SparseLu via SimOptions::ordering_cache.
  std::shared_ptr<sparse::OrderingCache> ordering_cache;
  /// Conflict-free assembly schedule of the shared topology (device indices
  /// are position-stable across variants because every variant elaborates
  /// the same element list).
  std::shared_ptr<const parallel::ColorSchedule> coloring;

  // ---- pattern facts (bench/report metadata) --------------------------------
  int dimension = 0;
  std::size_t pattern_nnz = 0;
  std::uint64_t pattern_hash = 0;
  std::size_t factor_nnz = 0;        ///< |L| + |U| of the prototype factor
  std::uint64_t factor_flops = 0;    ///< multiply-adds of one full factor
  double build_seconds = 0.0;        ///< one-time bundle construction cost

  /// True once Build() ran (the prototype factor may fail on a deliberately
  /// broken variant; the cache then warms on the first healthy one).
  bool built = false;
};

/// Builds the bundle from a prototype circuit: computes the ordering by
/// factoring the DC-stamped prototype matrix through the shared cache, and
/// colors the device-conflict graph.  Never throws on a singular prototype —
/// the ordering facts are simply left at zero.
SharedAnalysisArtifacts BuildSharedArtifacts(const engine::Circuit& circuit,
                                             const engine::MnaStructure& structure,
                                             const engine::SimOptions& options);

/// Points `options` at the bundle's ordering cache.
void AttachArtifacts(engine::SimOptions& options,
                     const SharedAnalysisArtifacts& artifacts);

}  // namespace wavepipe::batch
