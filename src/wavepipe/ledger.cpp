#include "wavepipe/ledger.hpp"

#include "util/error.hpp"

namespace wavepipe::pipeline {

const char* SolveKindName(SolveKind kind) {
  switch (kind) {
    case SolveKind::kDcop: return "dcop";
    case SolveKind::kLeading: return "leading";
    case SolveKind::kBackward: return "backward";
    case SolveKind::kSpeculative: return "speculative";
    case SolveKind::kRepair: return "repair";
    case SolveKind::kRejected: return "rejected";
  }
  return "?";
}

int Ledger::Add(SolveRecord record) {
  record.id = static_cast<int>(records_.size());
  for (int dep : record.deps) {
    WP_ASSERT(dep >= 0 && dep < record.id);  // the task graph is a DAG by construction
  }
  records_.push_back(std::move(record));
  return records_.back().id;
}

double Ledger::TotalSeconds() const {
  double total = 0.0;
  for (const auto& r : records_) total += r.seconds;
  return total;
}

double Ledger::UsefulSeconds() const {
  double total = 0.0;
  for (const auto& r : records_) {
    if (r.useful) total += r.seconds;
  }
  return total;
}

std::size_t Ledger::CountKind(SolveKind kind) const {
  std::size_t count = 0;
  for (const auto& r : records_) {
    if (r.kind == kind) ++count;
  }
  return count;
}

std::uint64_t Ledger::TotalNewtonIterations() const {
  std::uint64_t total = 0;
  for (const auto& r : records_) total += static_cast<std::uint64_t>(r.newton_iterations);
  return total;
}

}  // namespace wavepipe::pipeline
