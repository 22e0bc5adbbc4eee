// Virtual-time replay: list-schedules a Ledger's task DAG onto k workers and
// reports the makespan.  See ledger.hpp for why this stands in for multi-core
// wall clock on this single-core container.
#pragma once

#include <vector>

#include "wavepipe/ledger.hpp"

namespace wavepipe::pipeline {

struct ReplayResult {
  int workers = 1;
  double makespan_seconds = 0.0;       ///< modeled parallel runtime
  double busy_seconds = 0.0;           ///< sum of task costs (all workers)
  double critical_path_seconds = 0.0;  ///< longest dependency chain (k = inf bound)
  double utilization = 0.0;            ///< busy / (makespan * workers)
};

/// How task cost is measured during replay.
enum class ReplayCost {
  kMeasuredSeconds,   ///< thread-CPU seconds (reflects this machine)
  kNewtonIterations,  ///< deterministic: 1 unit per Newton iteration.  Noise-
                      ///< free across runs; the right basis for speedup
                      ///< tables when individual solves are microseconds.
};

/// One task placement from a replay: which virtual worker ran ledger record
/// `record` and when.  Times are in the replay's cost unit (seconds or
/// Newton iterations).  This is what the Chrome trace exporter renders as
/// the modeled multi-core timeline, one lane per worker.
struct ReplayTask {
  int record = -1;     ///< index into ledger.records()
  int worker = 0;
  double start = 0.0;
  double finish = 0.0;
};

/// Greedy list scheduling in ledger order (which is the order the real
/// scheduler released the tasks): each task starts at
/// max(earliest worker free time, all deps' finish times).
///
/// When `schedule` is non-null it receives one ReplayTask per ledger record,
/// in ledger order — the full placement behind the returned makespan.
ReplayResult ReplayOnWorkers(const Ledger& ledger, int workers,
                             ReplayCost cost = ReplayCost::kMeasuredSeconds,
                             std::vector<ReplayTask>* schedule = nullptr);

}  // namespace wavepipe::pipeline
