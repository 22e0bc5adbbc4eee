#include "batch/runner.hpp"

#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "batch/ac.hpp"
#include "batch/dc_sweep.hpp"
#include "engine/mna.hpp"
#include "engine/transient.hpp"
#include "netlist/elaborate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wavepipe::batch {
namespace {

std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// Runs ONE variant start to finish.  Everything here is local to the task
/// except `artifacts` (immutable bundle; its OrderingCache is internally
/// synchronized) — the whole determinism story rests on that locality.
void RunVariant(const netlist::ParsedNetlist& base, const VariantSpec& spec,
                const BatchOptions& options, const SharedAnalysisArtifacts* artifacts,
                VariantResult& out) {
  util::WallTimer timer;
  out.index = spec.index;
  out.spec = spec;
  try {
    const netlist::ParsedNetlist deck = ApplyVariant(base, spec);
    netlist::ElaboratedCircuit elab = netlist::Elaborate(deck);
    engine::Circuit& circuit = *elab.circuit;
    const engine::MnaStructure structure(circuit);

    engine::SimOptions sim = options.sim;
    if (artifacts != nullptr) AttachArtifacts(sim, *artifacts);

    if (elab.has_tran) {
      out.analysis = "tran";
      const engine::TransientResult tran =
          engine::RunTransientSerial(circuit, structure, elab.spec, sim);
      if (!tran.completed) {
        throw Error("transient aborted: " + tran.abort_reason);
      }
      out.trace = tran.trace;
      out.steps_accepted = tran.stats.steps_accepted;
      out.newton_iterations = tran.stats.newton_iterations;
    } else if (elab.dc.present) {
      out.analysis = "dc";
      DcSweepResult dc = RunDcSweep(circuit, structure, elab.dc, elab.probes, sim);
      out.trace = std::move(dc.trace);
      out.points = dc.points;
      out.newton_iterations = dc.newton_iterations;
    } else if (elab.ac.present) {
      out.analysis = "ac";
      AcResult ac = RunAcAnalysis(circuit, structure, elab.ac, elab.probes, sim);
      out.trace = std::move(ac.trace);
      out.points = ac.points;
      out.newton_iterations = ac.dcop_iterations;
    } else {
      throw Error("netlist has no analysis card (.tran/.dc/.ac)");
    }
    out.waveform_hash = HashTrace(out.trace);
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.wall_seconds = timer.Seconds();
}

}  // namespace

std::uint64_t HashTrace(const engine::Trace& trace) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const std::size_t probes = trace.probes().size();
  hash = Fnv1a(hash, &probes, sizeof(probes));
  const auto times = trace.times();
  hash = Fnv1a(hash, times.data(), times.size() * sizeof(double));
  for (std::size_t i = 0; i < trace.num_samples(); ++i) {
    for (std::size_t p = 0; p < probes; ++p) {
      const double v = trace.value(i, p);
      hash = Fnv1a(hash, &v, sizeof(v));
    }
  }
  return hash;
}

BatchResult RunBatch(const netlist::ParsedNetlist& base, const BatchOptions& options) {
  util::WallTimer timer;
  if (!base.tran.present && !base.dc.present && !base.ac.present) {
    // Whole-batch error, not a per-variant one: no variant could do anything.
    throw Error("netlist has no analysis card (.tran/.dc/.ac)");
  }
  BatchResult result;
  result.plan = BuildSweepPlan(base);
  const std::vector<VariantSpec> variants =
      ExpandVariants(result.plan, base, options.mc_seed);

  // Shared symbolic artifacts from the prototype (variant 0).  Every variant
  // shares the sparsity pattern — only values differ — so the ordering and
  // coloring computed here serve them all.  A prototype
  // that will not elaborate is a whole-batch error, surfaced immediately.
  if (options.share_artifacts) {
    const netlist::ParsedNetlist proto_deck = ApplyVariant(base, variants.front());
    netlist::ElaboratedCircuit proto = netlist::Elaborate(proto_deck);
    const engine::MnaStructure structure(*proto.circuit);
    result.artifacts = BuildSharedArtifacts(*proto.circuit, structure, options.sim);
  }
  const SharedAnalysisArtifacts* shared =
      result.artifacts.built ? &result.artifacts : nullptr;

  result.variants.resize(variants.size());
  const int threads = options.threads > 1 ? options.threads : 1;
  if (threads == 1 || variants.size() <= 1) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      RunVariant(base, variants[i], options, shared, result.variants[i]);
    }
  } else {
    util::ThreadPool pool(static_cast<unsigned>(threads));
    std::vector<std::future<void>> futures;
    futures.reserve(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      // Each task owns slot i exclusively; the spec is copied by value.
      futures.push_back(pool.Submit([&base, &options, shared, spec = variants[i],
                                     slot = &result.variants[i]] {
        RunVariant(base, spec, options, shared, *slot);
      }));
    }
    for (auto& future : futures) future.get();
  }

  // ---- aggregate -----------------------------------------------------------
  BatchStats& stats = result.stats;
  stats.variants_total = result.variants.size();
  stats.step_axes = result.plan.axis_names.size();
  stats.mc_samples = result.plan.mc_present ? result.plan.mc_runs : 0;
  stats.artifacts_shared = shared != nullptr ? result.variants.size() : 0;
  stats.artifacts_build_seconds = result.artifacts.build_seconds;
  for (const VariantResult& v : result.variants) {
    if (v.ok) ++stats.variants_ok; else ++stats.variants_failed;
    stats.steps_accepted += v.steps_accepted;
    stats.newton_iterations += v.newton_iterations;
    if (v.analysis == "dc") stats.dc_points += v.points;
    if (v.analysis == "ac") stats.ac_points += v.points;
  }
  if (result.artifacts.ordering_cache != nullptr) {
    stats.ordering_hits = result.artifacts.ordering_cache->hits();
    stats.ordering_misses = result.artifacts.ordering_cache->misses();
  }
  stats.wall_seconds = timer.Seconds();
  return result;
}

}  // namespace wavepipe::batch
