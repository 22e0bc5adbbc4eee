#include "parallel/fine_grained.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "engine/dcop.hpp"
#include "engine/integrator.hpp"
#include "engine/resilience.hpp"
#include "engine/step_control.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wavepipe::parallel {

void PhaseBreakdown::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Value("phases.model_eval_seconds", model_eval);
  registry.Value("phases.reduction_seconds", reduction);
  registry.Value("phases.lu_seconds", lu);
  registry.Value("phases.control_seconds", control);
  registry.Value("phases.total_seconds", Total());
}
namespace {

using engine::SolveContext;

/// Thin wrapper that routes engine::EvalDevices through a DeviceAssembler
/// (reduction or colored, see parallel/coloring.hpp) and converts the
/// assembler's phase clock into the PhaseBreakdown the bench/model expect.
class FineGrainedEvaluator {
 public:
  FineGrainedEvaluator(const engine::Circuit& circuit, const engine::MnaStructure& structure,
                       const FineGrainedOptions& options) {
    if (options.threads > 1) {
      pool_ = std::make_unique<util::ThreadPool>(static_cast<unsigned>(options.threads));
    }
    assembler_ = MakeAssembler(options.assembly, circuit, structure, options.threads,
                               options.coloring, pool_.get());
  }

  /// Delegates the zero+stamp half of this context's EvalDevices calls.
  void Attach(SolveContext& ctx) { ctx.assembler = assembler_.get(); }

  engine::AssemblyStats stats() const { return assembler_->stats(); }

  /// Breaker re-probe hook: the originally configured assembler, so a
  /// half-open parallel-assembly breaker can restore exactly what it
  /// degraded (engine/resilience.hpp).
  engine::DeviceAssembler* assembler() const { return assembler_.get(); }
  /// Worker pool (null for 1-thread runs) — heartbeat source for the stall
  /// watchdog.
  util::ThreadPool* pool() const { return pool_.get(); }

  void Eval(SolveContext& ctx, const engine::NewtonInputs& inputs, bool limit_valid,
            bool first_iteration, PhaseBreakdown& phases) {
    const engine::AssemblyStats before = assembler_->stats();
    engine::EvalDevices(ctx, inputs, limit_valid, first_iteration);
    const engine::AssemblyStats after = assembler_->stats();
    // Zero + stamp is the distributable work; the merge sweep (reduction) or
    // the color barriers (colored) are the parallelization overhead.
    phases.model_eval += (after.zero_seconds - before.zero_seconds) +
                         (after.stamp_seconds - before.stamp_seconds);
    phases.reduction += after.merge_seconds - before.merge_seconds;
  }

 private:
  std::unique_ptr<util::ThreadPool> pool_;  ///< assembly workers
  std::unique_ptr<engine::DeviceAssembler> assembler_;
};

/// Newton loop on top of the parallel evaluator (mirrors engine::SolveNewton).
engine::NewtonStats SolveNewtonFineGrained(FineGrainedEvaluator& evaluator,
                                           SolveContext& ctx,
                                           const engine::NewtonInputs& inputs,
                                           const engine::SimOptions& options,
                                           int max_iterations, PhaseBreakdown& phases) {
  const int n = ctx.structure().dimension();
  const int num_nodes = ctx.circuit().num_nodes();
  engine::NewtonStats stats;

  // Every chord decision — attempt gates (fill-ratio, backoff, a0 drift),
  // trust-gated acceptance, safety nets — is the shared ChordPolicy, the
  // same object engine::SolveNewton runs, so the two loops cannot drift.
  engine::ChordPolicy chord(ctx, inputs, options);

  bool limit_valid = false;
  for (int iter = 0; iter < max_iterations; ++iter) {
    stats.iterations = iter + 1;
    ++ctx.total_newton_iterations;
    ctx.heartbeat.fetch_add(1, std::memory_order_relaxed);
    try {
      evaluator.Eval(ctx, inputs, limit_valid, iter == 0, phases);
    } catch (const SingularMatrixError&) {
      // ReducedSubnet interior pivot failure ("reduce.singular" or real):
      // classified as a failed solve, same as a singular LU pivot below.
      stats.converged = false;
      stats.singular = true;
      stats.final_delta = std::numeric_limits<double>::infinity();
      chord.Settle(false);
      return stats;
    }
    limit_valid = true;

    util::ThreadCpuTimer lu_timer;
    if (chord.ShouldUseChord(iter)) {
      WP_TSPAN("solve", "chord_step");
      chord.BeginChordStep(stats);
      std::copy(ctx.x.begin(), ctx.x.end(), ctx.x_new.begin());
      ctx.lu.ChordStep(ctx.matrix, ctx.rhs, ctx.x_new, ctx.refine_work, ctx.lu_work);
    } else {
      const auto before_factor = ctx.lu.stats().factor_count;
      const auto before_refactor = ctx.lu.stats().refactor_count;
      chord.NoteFactorAttempt();  // reuse state stays invalid if this throws
      try {
        WP_TSPAN("factor", "lu_factor");
        ctx.lu.FactorOrRefactor(ctx.matrix);
      } catch (const SingularMatrixError&) {
        stats.converged = false;
        stats.singular = true;
        stats.final_delta = std::numeric_limits<double>::infinity();
        chord.Settle(false);
        return stats;
      }
      stats.lu_full_factors += static_cast<int>(ctx.lu.stats().factor_count - before_factor);
      stats.lu_refactors += static_cast<int>(ctx.lu.stats().refactor_count - before_refactor);
      ctx.RecordFactorSeeds(ctx.lu_seeds,
                            ctx.lu.stats().factor_count != before_factor);
      chord.NoteFreshFactor();
      WP_TSPAN("solve", "triangular_solve");
      std::copy(ctx.rhs.begin(), ctx.rhs.end(), ctx.x_new.begin());
      ctx.lu.Solve(ctx.x_new, ctx.lu_work);
    }
    phases.lu += lu_timer.Seconds();

    double worst = 0.0;
    bool finite = true;
    for (int i = 0; i < n; ++i) {
      const double xn = ctx.x_new[i];
      if (!std::isfinite(xn)) {
        finite = false;
        break;
      }
      const double tol = options.reltol * std::max(std::abs(xn), std::abs(ctx.x[i])) +
                         (i < num_nodes ? options.vntol : options.abstol);
      worst = std::max(worst, std::abs(xn - ctx.x[i]) / tol);
    }
    if (!finite) {
      stats.converged = false;
      stats.final_delta = std::numeric_limits<double>::infinity();
      chord.Settle(false);
      return stats;
    }
    std::swap(ctx.x, ctx.x_new);
    stats.final_delta = worst;

    // Same convergence protocol as engine::SolveNewton (incl. hot-start fast
    // acceptance) so both paths take identical step sequences; the chord
    // policy withholds acceptance from untrusted stale-factor iterates.
    const bool hot_start_accept = worst <= 0.05;
    const bool confirmed =
        worst <= 1.0 &&
        (iter >= 1 || !ctx.circuit().is_nonlinear() || inputs.trusted_seed);
    if (chord.FinishIteration(worst, confirmed || hot_start_accept, stats)) {
      stats.converged = true;
      if (worst > 0.1) {
        try {
          evaluator.Eval(ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false,
                         phases);
        } catch (const SingularMatrixError&) {
          stats.converged = false;
          stats.singular = true;
          stats.final_delta = std::numeric_limits<double>::infinity();
          chord.Settle(false);
          return stats;
        }
      }
      chord.Settle(true);
      return stats;
    }
  }
  stats.converged = false;
  chord.Settle(false);
  return stats;
}

}  // namespace

FineGrainedResult RunTransientFineGrained(const engine::Circuit& circuit,
                                          const engine::MnaStructure& structure,
                                          const engine::TransientSpec& spec,
                                          const FineGrainedOptions& options) {
  util::telemetry::ScopedLane lane(0, "fine-grained");
  util::WallTimer total_timer;
  FineGrainedResult result;
  result.trace = engine::Trace(spec.probes.size() > 0
                                   ? spec.probes
                                   : engine::ProbeSet::FirstNodes(circuit.num_nodes(), 16));

  // Durable-run machinery (engine/resilience.hpp); inert with the default
  // ResilienceOptions.  `live` is the options block breakers may degrade.
  const engine::ResilienceOptions& res = options.sim.resilience;
  engine::SimOptions live = options.sim;
  engine::ResilienceStats& rstats = result.resilience;
  engine::CheckpointSink sink(res, rstats);
  const engine::RunBudget run_budget(res);
  engine::StallWatchdog watchdog(res, rstats);
  engine::BreakerBoard breakers(res, rstats);

  FineGrainedEvaluator evaluator(circuit, structure, options);
  SolveContext ctx(circuit, structure);
  if (options.sim.ordering_cache != nullptr) {
    ctx.lu.set_ordering_cache(options.sim.ordering_cache);
  }
  ctx.record_factor_seeds = sink.enabled();
  watchdog.AddSource(&ctx.heartbeat);
  if (evaluator.pool() != nullptr) {
    watchdog.AddSource(&evaluator.pool()->tasks_started_heartbeat());
    watchdog.AddSource(&evaluator.pool()->tasks_completed_heartbeat());
  }
  watchdog.Start();
  result.last_good_time = spec.tstart;

  engine::History history(options.sim.history_depth);

  if (res.resume == nullptr) {
    // DC operating point (reuses the serial path; the phase split targets
    // the transient loop, which dominates).
    const engine::DcopResult dcop =
        engine::SolveDcOperatingPoint(ctx, options.sim, spec.initial_conditions);
    result.stats.dcop_strategy = dcop.strategy;
  }

  // From here on every EvalDevices on this context goes through the
  // assembler.
  evaluator.Attach(ctx);
  ctx.ConfigureAcceleration(options.sim);

  const engine::StepLimits limits = engine::StepLimits::FromSpec(spec, options.sim);
  std::vector<double> breakpoints = circuit.CollectBreakpoints(spec.tstart, spec.tstop);
  std::size_t next_bp = 0;

  double h = limits.h0;
  bool restart = true;
  int steps_since_restart = 0;
  std::uint64_t process_steps = 0;   // accepted steps THIS process (budget basis)
  std::uint64_t process_newton = 0;  // Newton iterations THIS process

  if (res.resume != nullptr) {
    const engine::TransientCheckpoint& ck = *res.resume;
    engine::ValidateResume(ck, "fine-grained", "",
                           static_cast<std::uint64_t>(ctx.x.size()),
                           result.trace.probes().size(), spec.tstop);
    rstats.ckpt_resumed = 1;
    result.stats = ck.stats;
    for (const auto& p : ck.history) {
      auto point = std::make_shared<engine::SolutionPoint>();
      point->time = p.time;
      point->x = p.x;
      point->q = p.q;
      point->qdot = p.qdot;
      point->auxiliary = p.auxiliary;
      history.Add(std::move(point));
    }
    const std::size_t stride = result.trace.probes().size();
    for (std::size_t s = 0; s < ck.trace_times.size(); ++s) {
      result.trace.AppendProbeSample(
          ck.trace_times[s],
          std::span<const double>(ck.trace_values).subspan(s * stride, stride));
    }
    result.final_point = history.newest();
    h = ck.h;
    restart = ck.restart;
    steps_since_restart = static_cast<int>(ck.steps_since_restart);
    next_bp = ck.next_breakpoint;
    ctx.PrimeFactorsFromSeeds(engine::FactorSeeds{ck.lu_seed_full, ck.lu_seed_numeric});
  } else {
    history.Add(engine::MakeDcSolutionPoint(ctx, spec.tstart));
    result.trace.Record(spec.tstart, history.newest()->x, history.newest()->q);
  }
  result.trace.ReserveEstimate(spec.tstop - spec.tstart, limits.hmin);

  // Serializes the CURRENT accepted-step boundary (stats absorbed into the
  // snapshot copy; running tallies stay raw).
  const auto snapshot = [&]() -> std::vector<std::uint8_t> {
    engine::TransientCheckpoint ck;
    ck.engine = "fine-grained";
    ck.num_unknowns = static_cast<std::uint64_t>(ctx.x.size());
    ck.num_probes = result.trace.probes().size();
    ck.tstop = spec.tstop;
    ck.h = h;
    ck.restart = restart;
    ck.steps_since_restart = static_cast<std::uint64_t>(steps_since_restart);
    ck.next_breakpoint = next_bp;
    for (const auto& sp : history.Window(history.size())) {
      engine::CheckpointPoint p;
      p.time = sp->time;
      p.x = sp->x;
      p.q = sp->q;
      p.qdot = sp->qdot;
      p.auxiliary = sp->auxiliary;
      ck.history.push_back(std::move(p));
    }
    ck.stats = result.stats;
    ck.stats.bypassed_evals += ctx.bypass.bypassed_evals();
    ck.stats.bypass_full_evals += ctx.bypass.full_evals();
    ck.stats.wall_seconds = total_timer.Seconds();
    ck.lu_seed_full = ctx.lu_seeds.full;
    ck.lu_seed_numeric = ctx.lu_seeds.numeric;
    ck.trace_times.assign(result.trace.times().begin(), result.trace.times().end());
    const std::size_t stride = result.trace.probes().size();
    ck.trace_values.reserve(result.trace.num_samples() * stride);
    for (std::size_t s = 0; s < result.trace.num_samples(); ++s) {
      for (std::size_t p = 0; p < stride; ++p) {
        ck.trace_values.push_back(result.trace.value(s, p));
      }
    }
    return engine::SerializeCheckpoint(ck);
  };

  // Accepted-step boundary hook: breaker cooldowns, checkpoint cadence, the
  // budget governor, watchdog escalation.  True = stop the run now.
  const auto accepted_boundary = [&]() -> bool {
    ++process_steps;
    if (breakers.enabled()) {
      const std::uint64_t reprobe = breakers.OnAcceptedStep();
      if (reprobe & engine::FeatureBit(engine::Feature::kChord)) {
        live.chord_newton = options.sim.chord_newton;
      }
      if (reprobe & engine::FeatureBit(engine::Feature::kParallelAssembly)) {
        ctx.assembler = evaluator.assembler();
      }
    }
    sink.MaybeWrite(process_steps, snapshot);
    if (watchdog.ShouldAbort()) {
      ++rstats.watchdog_escalations;
      result.completed = false;
      result.abort_reason = watchdog.AbortReason();
      return true;
    }
    const std::string budget_reason =
        run_budget.Exceeded(process_steps, process_newton, total_timer.Seconds());
    if (!budget_reason.empty()) {
      rstats.budget_exhausted = 1;
      result.completed = false;
      result.abort_reason = budget_reason;
      return true;
    }
    return false;
  };

  while (history.newest_time() < spec.tstop - 1e-15 * spec.tstop) {
    const double t_now = history.newest_time();
    h = std::clamp(h, limits.hmin, limits.hmax);
    double t_new = t_now + h;
    bool hit_breakpoint = false;
    while (next_bp < breakpoints.size() && breakpoints[next_bp] <= t_now + limits.hmin) {
      ++next_bp;
    }
    if (next_bp < breakpoints.size() && t_new >= breakpoints[next_bp] - limits.hmin) {
      t_new = breakpoints[next_bp];
      hit_breakpoint = true;
    }
    if (t_new > spec.tstop) {
      t_new = spec.tstop;
      hit_breakpoint = false;
    }

    util::ThreadCpuTimer control_timer;
    const engine::HistoryWindow window = history.Window(4);
    const engine::Method method =
        restart ? engine::Method::kBackwardEuler : live.method;
    const engine::IntegrationPlan plan =
        engine::PlanIntegration(method, t_new, window, ctx.state_hist);
    std::vector<double> predicted(ctx.x.size());
    engine::PredictSolution(window, restart ? 1 : plan.order + 1, t_new, predicted);
    ctx.x = predicted;
    result.phases.control += control_timer.Seconds();

    engine::NewtonInputs inputs;
    inputs.time = t_new;
    inputs.a0 = plan.a0;
    inputs.transient = true;
    inputs.gmin = live.gmin;
    const engine::NewtonStats newton = SolveNewtonFineGrained(
        evaluator, ctx, inputs, live, live.max_newton_iters, result.phases);
    if (breakers.enabled()) {
      std::uint64_t mask = 0;
      if (live.chord_newton) mask |= engine::FeatureBit(engine::Feature::kChord);
      if (ctx.bypass.active()) mask |= engine::FeatureBit(engine::Feature::kBypass);
      if (ctx.assembler != nullptr) {
        mask |= engine::FeatureBit(engine::Feature::kParallelAssembly);
      }
      const std::uint64_t tripped = breakers.OnSolveOutcome(
          mask, newton.converged, /*seconds=*/0.0);
      if (tripped & engine::FeatureBit(engine::Feature::kChord)) live.chord_newton = false;
      if (tripped & engine::FeatureBit(engine::Feature::kBypass)) ctx.bypass.Disable();
      if (tripped & engine::FeatureBit(engine::Feature::kParallelAssembly)) {
        ctx.assembler = nullptr;
      }
    }
    process_newton += static_cast<std::uint64_t>(newton.iterations);
    result.stats.newton_iterations += static_cast<std::uint64_t>(newton.iterations);
    result.stats.lu_full_factors += static_cast<std::uint64_t>(newton.lu_full_factors);
    result.stats.lu_refactors += static_cast<std::uint64_t>(newton.lu_refactors);
    result.stats.chord_solves += static_cast<std::uint64_t>(newton.chord_solves);
    result.stats.forced_refactors += static_cast<std::uint64_t>(newton.forced_refactors);

    if (!newton.converged) {
      result.stats.steps_rejected_newton += 1;
      h = (t_new - t_now) / live.newton_fail_shrink;
      if (h < limits.hmin) {
        // Structured abort, same contract as the serial engine: the
        // accepted waveform survives in the result (and in the final
        // checkpoint below) instead of unwinding the stack.
        result.completed = false;
        result.abort_reason =
            "fine-grained transient: Newton failure with step at hmin, t = " +
            std::to_string(t_now) + (newton.singular ? " (singular pivot)" : "");
        break;
      }
      continue;
    }

    control_timer.Reset();
    const bool lte_active = !restart && steps_since_restart >= 1 && window.size() >= 2;
    const engine::StepControlParams params =
        engine::MakeStepParams(live, circuit.num_nodes(), plan.order);
    const engine::StepAssessment assess =
        engine::AssessStep(ctx.x, predicted, t_new - t_now, lte_active, params);
    result.phases.control += control_timer.Seconds();

    if (!assess.accept && (t_new - t_now) > limits.hmin * (1.0 + 1e-6)) {
      result.stats.steps_rejected_lte += 1;
      h = std::max(assess.h_next, limits.hmin);
      continue;
    }

    auto point = std::make_shared<engine::SolutionPoint>();
    point->time = t_new;
    point->x = ctx.x;
    point->q = ctx.state_now;
    point->qdot.resize(ctx.state_now.size());
    engine::ComputeQdot(plan, point->q, ctx.state_hist, point->qdot);
    history.Add(point);
    result.trace.Record(t_new, point->x, point->q);
    result.final_point = point;
    result.stats.steps_accepted += 1;
    ++steps_since_restart;
    restart = false;

    if (hit_breakpoint) {
      ++next_bp;
      restart = true;
      steps_since_restart = 0;
      h = limits.h0;
    } else {
      h = std::max(assess.h_next, limits.hmin);
    }

    if (accepted_boundary()) break;
  }

  watchdog.Finish();
  sink.WriteFinal(snapshot);
  result.last_good_time = history.empty() ? spec.tstart : history.newest_time();
  result.stats.wall_seconds = total_timer.Seconds();
  result.stats.bypassed_evals += ctx.bypass.bypassed_evals();
  result.stats.bypass_full_evals += ctx.bypass.full_evals();
  result.assembly = evaluator.stats();
  return result;
}

double ModelFineGrainedSpeedup(const PhaseBreakdown& phases, int threads) {
  WP_ASSERT(threads >= 1);
  const double serial_total = phases.Total() - phases.reduction;  // 1-thread run has no copies
  // With k threads: model eval / k; reduction sweeps k private copies; LU
  // and control untouched.
  const double reduction_k = phases.reduction * threads;
  const double parallel_total =
      phases.model_eval / threads + reduction_k + phases.lu + phases.control;
  return serial_total / parallel_total;
}

}  // namespace wavepipe::parallel
