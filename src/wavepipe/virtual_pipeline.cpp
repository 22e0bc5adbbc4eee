#include "wavepipe/virtual_pipeline.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace wavepipe::pipeline {

ReplayResult ReplayOnWorkers(const Ledger& ledger, int workers, ReplayCost cost,
                             std::vector<ReplayTask>* schedule) {
  WP_ASSERT(workers >= 1);
  ReplayResult out;
  out.workers = workers;
  if (schedule) {
    schedule->clear();
    schedule->reserve(ledger.size());
  }

  const auto& records = ledger.records();
  std::vector<double> finish(records.size(), 0.0);
  std::vector<double> chain(records.size(), 0.0);  // critical-path finish (unbounded workers)
  std::vector<double> worker_free(static_cast<std::size_t>(workers), 0.0);

  for (std::size_t i = 0; i < records.size(); ++i) {
    const SolveRecord& r = records[i];
    const double task_cost = cost == ReplayCost::kMeasuredSeconds
                                 ? r.seconds
                                 : static_cast<double>(r.newton_iterations);
    double ready = 0.0;
    double chain_ready = 0.0;
    for (int dep : r.deps) {
      ready = std::max(ready, finish[static_cast<std::size_t>(dep)]);
      chain_ready = std::max(chain_ready, chain[static_cast<std::size_t>(dep)]);
    }
    // Earliest-available worker (greedy list scheduling in release order).
    auto it = std::min_element(worker_free.begin(), worker_free.end());
    const double start = std::max(ready, *it);
    finish[i] = start + task_cost;
    *it = finish[i];
    chain[i] = chain_ready + task_cost;
    out.busy_seconds += task_cost;
    if (schedule) {
      schedule->push_back(ReplayTask{
          static_cast<int>(i),
          static_cast<int>(std::distance(worker_free.begin(), it)), start, finish[i]});
    }
  }

  for (std::size_t i = 0; i < records.size(); ++i) {
    out.makespan_seconds = std::max(out.makespan_seconds, finish[i]);
    out.critical_path_seconds = std::max(out.critical_path_seconds, chain[i]);
  }
  if (out.makespan_seconds > 0) {
    out.utilization = out.busy_seconds / (out.makespan_seconds * workers);
  }
  return out;
}

}  // namespace wavepipe::pipeline
