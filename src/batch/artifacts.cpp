#include "batch/artifacts.hpp"

#include "engine/newton.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wavepipe::batch {

SharedAnalysisArtifacts BuildSharedArtifacts(const engine::Circuit& circuit,
                                             const engine::MnaStructure& structure,
                                             const engine::SimOptions& options) {
  util::WallTimer timer;
  SharedAnalysisArtifacts artifacts;
  artifacts.ordering_cache = std::make_shared<sparse::OrderingCache>();
  artifacts.dimension = structure.dimension();
  artifacts.pattern_nnz = structure.pattern().num_nonzeros();
  artifacts.pattern_hash = sparse::PatternHash(structure.pattern());

  // Prototype factorization through the shared cache: publishes the
  // fill-reducing ordering under the pattern's key, so every variant's
  // Factor() starts with a hit.  The DC stamp at the flat start can be
  // singular for some circuits — then the facts stay zero and the cache
  // warms on the first variant that factors successfully.
  {
    engine::SolveContext ctx(circuit, structure);
    ctx.lu.set_ordering_cache(artifacts.ordering_cache.get());
    engine::NewtonInputs inputs;
    inputs.gmin = options.gmin;
    engine::EvalDevices(ctx, inputs, /*limit_valid=*/false, /*first_iteration=*/true);
    try {
      ctx.lu.Factor(ctx.matrix);
      const sparse::SparseLu::Stats& stats = ctx.lu.stats();
      artifacts.factor_nnz = stats.nnz_l + stats.nnz_u;
      artifacts.factor_flops = stats.factor_flops;
    } catch (const SingularMatrixError&) {
      // Ordering may still have been published before the pivot failure;
      // either way the bundle stays usable.
    }
  }

  artifacts.coloring = std::make_shared<const parallel::ColorSchedule>(
      parallel::BuildColorSchedule(circuit, structure));

  artifacts.build_seconds = timer.Seconds();
  artifacts.built = true;
  return artifacts;
}

void AttachArtifacts(engine::SimOptions& options,
                     const SharedAnalysisArtifacts& artifacts) {
  options.ordering_cache = artifacts.ordering_cache.get();
}

}  // namespace wavepipe::batch
