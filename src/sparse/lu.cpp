#include "sparse/lu.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/ordering.hpp"
#include "sparse/vector_ops.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"

namespace wavepipe::sparse {

void SparseLu::Stats::ExportCounters(util::telemetry::CounterRegistry& registry) const {
  registry.Count("sparse_lu.nnz_l", nnz_l);
  registry.Count("sparse_lu.nnz_u", nnz_u);
  registry.Count("sparse_lu.factor_count", factor_count);
  registry.Count("sparse_lu.refactor_count", refactor_count);
  registry.Count("sparse_lu.solve_count", solve_count);
  registry.Count("sparse_lu.factor_flops", factor_flops);
  registry.Count("sparse_lu.solve_flops", solve_flops);
  registry.Count("sparse_lu.ordering_reuse_count", ordering_reuse_count);
  registry.Count("sparse_lu.chord_step_count", chord_step_count);
}

SparseLu::SparseLu(Options options) : options_(options) {}

void SparseLu::Reset(const Options& options) {
  options_ = options;
  factored_ = false;
  n_ = 0;
  pattern_nnz_ = 0;
  ordering_cached_ = false;
  stats_ = Stats{};
  solve_count_.store(0, std::memory_order_relaxed);
  solve_flops_.store(0, std::memory_order_relaxed);
  chord_step_count_.store(0, std::memory_order_relaxed);
}

void SparseLu::ComputeOrdering(const CscMatrix& matrix) {
  const std::uint64_t hash = PatternHash(matrix);
  if (ordering_cached_ && ordering_n_ == matrix.cols() &&
      ordering_nnz_ == matrix.num_nonzeros() && ordering_pattern_hash_ == hash &&
      ordering_kind_ == options_.ordering) {
    ++stats_.ordering_reuse_count;
    return;
  }
  // Shared cache: other instances may already have ordered this pattern
  // (WavePipe contexts on one circuit, batch variants of one deck).
  const OrderingCache::Key key{matrix.cols(), matrix.num_nonzeros(), hash,
                               static_cast<int>(options_.ordering)};
  if (ordering_cache_ != nullptr) {
    if (OrderingCache::OrderingPtr cached = ordering_cache_->Find(key)) {
      q_ = *cached;
      ++stats_.ordering_reuse_count;
      ordering_cached_ = true;
      ordering_n_ = matrix.cols();
      ordering_nnz_ = matrix.num_nonzeros();
      ordering_pattern_hash_ = hash;
      ordering_kind_ = options_.ordering;
      return;
    }
  }
  switch (options_.ordering) {
    case Options::Ordering::kMinimumDegree:
      q_ = MinimumDegreeOrder(matrix);
      break;
    case Options::Ordering::kNatural:
      q_ = NaturalOrder(matrix.cols());
      break;
    case Options::Ordering::kRcm:
      q_ = ReverseCuthillMcKeeOrder(matrix);
      break;
  }
  if (ordering_cache_ != nullptr) {
    // First insert wins; adopt whatever the cache settled on so concurrent
    // factors of one pattern stay deterministic.
    q_ = *ordering_cache_->Insert(key, q_);
  }
  ordering_cached_ = true;
  ordering_n_ = matrix.cols();
  ordering_nnz_ = matrix.num_nonzeros();
  ordering_pattern_hash_ = hash;
  ordering_kind_ = options_.ordering;
}

void SparseLu::SymbolicReach(const CscMatrix& matrix, int col, int stamp) {
  // Iterative DFS over the graph "node i -> rows of L column pinv_[i]".
  // Nodes are ORIGINAL row indices (L row ids are original during Factor()).
  postorder_.clear();
  for (int k = matrix.col_begin(col); k < matrix.col_end(col); ++k) {
    const int start = matrix.row_of(k);
    if (mark_[start] == stamp) continue;

    dfs_stack_.clear();
    dfs_stack_.push_back(start);
    // dfs_child_[depth] = next child index to explore at that stack depth.
    dfs_child_.resize(1);
    dfs_child_[0] = (pinv_[start] >= 0) ? lp_[pinv_[start]] : -1;
    mark_[start] = stamp;

    while (!dfs_stack_.empty()) {
      const std::size_t depth = dfs_stack_.size() - 1;
      const int node = dfs_stack_.back();
      const int lcol = pinv_[node];
      bool descended = false;
      if (lcol >= 0) {
        int& child_it = dfs_child_[depth];
        const int child_end = lp_[lcol + 1];
        while (child_it < child_end) {
          const int child = li_[child_it++];
          if (mark_[child] != stamp) {
            mark_[child] = stamp;
            dfs_stack_.push_back(child);
            dfs_child_.resize(dfs_stack_.size());
            dfs_child_.back() = (pinv_[child] >= 0) ? lp_[pinv_[child]] : -1;
            descended = true;
            break;
          }
        }
      }
      if (!descended) {
        postorder_.push_back(node);  // finished
        dfs_stack_.pop_back();
        dfs_child_.resize(dfs_stack_.size());
      }
    }
  }
}

void SparseLu::Factor(const CscMatrix& matrix) {
  WP_ASSERT(matrix.rows() == matrix.cols());
  n_ = matrix.cols();
  pattern_nnz_ = matrix.num_nonzeros();
  factored_ = false;

  ComputeOrdering(matrix);

  pinv_.assign(static_cast<std::size_t>(n_), -1);
  prow_.assign(static_cast<std::size_t>(n_), -1);
  lp_.assign(static_cast<std::size_t>(n_) + 1, 0);
  up_.assign(static_cast<std::size_t>(n_) + 1, 0);
  li_.clear();
  lx_.clear();
  ui_.clear();
  ux_.clear();
  udiag_.assign(static_cast<std::size_t>(n_), 0.0);
  work_.assign(static_cast<std::size_t>(n_), 0.0);
  mark_.assign(static_cast<std::size_t>(n_), -1);

  std::uint64_t flops = 0;
  std::vector<std::pair<int, double>> ucol;  // (permuted row, value) staging

  for (int j = 0; j < n_; ++j) {
    const int col = q_[j];

    // --- Symbolic: reach of A(:,col) over current L ------------------------
    SymbolicReach(matrix, col, /*stamp=*/j);

    // --- Numeric: sparse triangular solve x = L \ A(:,col) -----------------
    // Invariant: work_ is zero outside the current reach.
    for (int k = matrix.col_begin(col); k < matrix.col_end(col); ++k) {
      work_[matrix.row_of(k)] = matrix.value_of(k);
    }
    // Reverse finishing order = topological order (dependencies first).
    for (auto it = postorder_.rbegin(); it != postorder_.rend(); ++it) {
      const int node = *it;
      const int lcol = pinv_[node];
      if (lcol < 0) continue;  // not yet pivotal: no outgoing updates
      const double xj = work_[node];
      if (xj == 0.0) continue;
      for (int k = lp_[lcol]; k < lp_[lcol + 1]; ++k) {
        work_[li_[k]] -= lx_[k] * xj;
        ++flops;
      }
    }

    // --- Partition reach into U entries and pivot candidates ---------------
    ucol.clear();
    int pivot_row = -1;
    double pivot_abs = 0.0;
    for (int node : postorder_) {
      if (pinv_[node] >= 0) {
        ucol.emplace_back(pinv_[node], work_[node]);
      } else {
        const double mag = std::abs(work_[node]);
        if (mag > pivot_abs) {
          pivot_abs = mag;
          pivot_row = node;
        }
      }
    }
    // Diagonal preference: keep A(col,col) as pivot when close enough to the
    // column max.  (mark_[col] == j tests membership in the reach.)
    if (mark_[col] == j && pinv_[col] < 0 &&
        std::abs(work_[col]) >= options_.diag_preference * pivot_abs) {
      pivot_row = col;
    }
    if (pivot_row < 0 || std::abs(work_[pivot_row]) <= options_.singular_tol) {
      // Clean up workspace before throwing so the object stays reusable.
      for (int node : postorder_) work_[node] = 0.0;
      throw SingularMatrixError(
          "sparse LU: singular at elimination step " + std::to_string(j) +
              " (original column " + std::to_string(col) + ")",
          col);
    }
    const double pivot = work_[pivot_row];
    pinv_[pivot_row] = j;
    prow_[j] = pivot_row;
    udiag_[j] = pivot;

    // --- Emit U column j (sorted by permuted row for Refactor()) -----------
    std::sort(ucol.begin(), ucol.end());
    for (const auto& [row, value] : ucol) {
      ui_.push_back(row);
      ux_.push_back(value);
    }
    up_[j + 1] = static_cast<int>(ui_.size());

    // --- Emit L column j (original row ids for now, remapped after) --------
    for (int node : postorder_) {
      if (pinv_[node] < 0) {  // remaining candidates go below the pivot
        li_.push_back(node);
        lx_.push_back(work_[node] / pivot);
        ++flops;
      }
      work_[node] = 0.0;  // restore invariant
    }
    lp_[j + 1] = static_cast<int>(li_.size());
  }

  // Remap L row indices into permuted space (every row is pivotal now).
  for (int& row : li_) row = pinv_[row];

  stats_.nnz_l = li_.size();
  stats_.nnz_u = ui_.size() + static_cast<std::size_t>(n_);
  stats_.factor_count += 1;
  stats_.factor_flops += flops;
  factored_ = true;
}

bool SparseLu::RefactorColumn(const CscMatrix& matrix, int j, double* work,
                              std::uint64_t& flops) {
  const int col = q_[j];

  // Zero the factor pattern of this column, then scatter A's column into
  // permuted positions.  The factor pattern is a superset of A's pattern
  // (fill-in), so zero-first makes all fill positions well defined.
  for (int k = up_[j]; k < up_[j + 1]; ++k) work[ui_[k]] = 0.0;
  for (int k = lp_[j]; k < lp_[j + 1]; ++k) work[li_[k]] = 0.0;
  work[j] = 0.0;
  for (int k = matrix.col_begin(col); k < matrix.col_end(col); ++k) {
    work[pinv_[matrix.row_of(k)]] = matrix.value_of(k);
  }

  // Left-looking update: U rows ascending guarantees each x[r] is final
  // before its L column is applied.
  for (int k = up_[j]; k < up_[j + 1]; ++k) {
    const int r = ui_[k];
    const double xr = work[r];
    ux_[k] = xr;
    if (xr == 0.0) continue;
    for (int m = lp_[r]; m < lp_[r + 1]; ++m) {
      work[li_[m]] -= lx_[m] * xr;
      ++flops;
    }
  }

  // Pivot quality check against the column's magnitude.
  const double pivot = work[j];
  double col_max = std::abs(pivot);
  for (int k = lp_[j]; k < lp_[j + 1]; ++k) {
    col_max = std::max(col_max, std::abs(work[li_[k]]));
  }
  if (std::abs(pivot) <= options_.singular_tol ||
      std::abs(pivot) < options_.refactor_pivot_tol * col_max) {
    // Clean up the workspace; the caller invalidates the factors.
    for (int k = up_[j]; k < up_[j + 1]; ++k) work[ui_[k]] = 0.0;
    for (int k = lp_[j]; k < lp_[j + 1]; ++k) work[li_[k]] = 0.0;
    work[j] = 0.0;
    return false;
  }
  udiag_[j] = pivot;
  for (int k = lp_[j]; k < lp_[j + 1]; ++k) {
    lx_[k] = work[li_[k]] / pivot;
    work[li_[k]] = 0.0;
    ++flops;
  }
  for (int k = up_[j]; k < up_[j + 1]; ++k) work[ui_[k]] = 0.0;
  work[j] = 0.0;
  return true;
}

bool SparseLu::Refactor(const CscMatrix& matrix) {
  WP_ASSERT(factored_);
  WP_ASSERT(matrix.rows() == n_ && matrix.cols() == n_);
  WP_ASSERT(matrix.num_nonzeros() == pattern_nnz_);

  std::uint64_t flops = 0;
  for (int j = 0; j < n_; ++j) {
    if (!RefactorColumn(matrix, j, work_.data(), flops)) {
      factored_ = false;
      return false;
    }
  }

  stats_.refactor_count += 1;
  stats_.factor_flops += flops;
  return true;
}

void SparseLu::FactorOrRefactor(const CscMatrix& matrix) {
  // Fault site: a pivot failure at the entry point of the Newton loop's
  // linear-solver path.  Thrown (not returned) so tests exercise the same
  // unwinding a genuine SingularMatrixError from Factor() would take.
  if (WP_FAULT_POINT("lu.pivot")) {
    throw SingularMatrixError("lu.pivot: injected pivot failure", -1);
  }
  if (factored_ && matrix.cols() == n_ && matrix.num_nonzeros() == pattern_nnz_) {
    if (Refactor(matrix)) return;
  }
  Factor(matrix);
}

void SparseLu::Solve(std::span<double> b) const {
  // Thread-local scratch: no per-call allocation on hot paths, and still
  // safe when many threads share one factorization.
  static thread_local std::vector<double> tl_workspace;
  Solve(b, tl_workspace);
}

void SparseLu::Solve(std::span<double> b, std::vector<double>& workspace) const {
  WP_ASSERT(factored_);
  WP_ASSERT(static_cast<int>(b.size()) == n_);

  // z = P b.
  workspace.resize(static_cast<std::size_t>(n_));
  std::vector<double>& z = workspace;
  for (int i = 0; i < n_; ++i) z[pinv_[i]] = b[i];

  // Forward substitution, unit lower triangular.
  for (int j = 0; j < n_; ++j) {
    const double zj = z[j];
    if (zj == 0.0) continue;
    for (int k = lp_[j]; k < lp_[j + 1]; ++k) z[li_[k]] -= lx_[k] * zj;
  }
  // Back substitution.
  for (int j = n_ - 1; j >= 0; --j) {
    const double zj = z[j] / udiag_[j];
    z[j] = zj;
    if (zj == 0.0) continue;
    for (int k = up_[j]; k < up_[j + 1]; ++k) z[ui_[k]] -= ux_[k] * zj;
  }
  // Un-permute columns: x[q_[j]] = z[j].
  for (int j = 0; j < n_; ++j) b[q_[j]] = z[j];

  solve_count_.fetch_add(1, std::memory_order_relaxed);
  solve_flops_.fetch_add(li_.size() + ui_.size() + static_cast<std::size_t>(n_),
                         std::memory_order_relaxed);
}

SparseLu::Stats SparseLu::stats() const {
  Stats snapshot = stats_;
  snapshot.solve_count = solve_count_.load(std::memory_order_relaxed);
  snapshot.solve_flops = solve_flops_.load(std::memory_order_relaxed);
  snapshot.chord_step_count = chord_step_count_.load(std::memory_order_relaxed);
  return snapshot;
}

double SparseLu::Refine(const CscMatrix& matrix, std::span<const double> b,
                        std::span<double> x, std::vector<double>& residual,
                        std::vector<double>& solve_workspace) const {
  residual.assign(b.begin(), b.end());
  matrix.MultiplyAccumulate(x, residual, -1.0);
  Solve(residual, solve_workspace);
  const double correction = NormInf(residual);
  Axpy(1.0, residual, x);
  return correction;
}

double SparseLu::Refine(const CscMatrix& matrix, std::span<const double> b,
                        std::span<double> x) const {
  static thread_local std::vector<double> tl_residual;
  static thread_local std::vector<double> tl_workspace;
  return Refine(matrix, b, x, tl_residual, tl_workspace);
}

double SparseLu::ChordStep(const CscMatrix& matrix, std::span<const double> b,
                           std::span<double> x, std::vector<double>& residual,
                           std::vector<double>& solve_workspace) const {
  residual.assign(b.begin(), b.end());
  matrix.MultiplyAccumulate(x, residual, -1.0);
  Solve(residual, solve_workspace);
  const double correction = NormInf(residual);
  Axpy(1.0, residual, x);
  chord_step_count_.fetch_add(1, std::memory_order_relaxed);
  return correction;
}

}  // namespace wavepipe::sparse
