#include "kernels/gessm.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "parallel/parallel_for.hpp"
#include "sparse/dense.hpp"

namespace pangulu::kernels {

namespace {

/// Gap-free-column fast path shared by every addressing strategy: when
/// B(:,j)'s rows have no gaps (a dense column is the common case), row r IS
/// value position jb + (r - lo) — no slot map, search or merge needed — and
/// eliminate_dense_column turns contiguous strictly-lower tails of L's pivot
/// columns into axpys, the vectorized bandwidth-bound loop where the FP32
/// instantiation moves half the bytes of FP64 (DESIGN.md §8, §14); L's rows
/// outside B(:,j) are skipped, as the addressing variants skip them. The
/// floating-point operation sequence is identical to the addressing
/// variants', so results stay bitwise equal. Returns false when B(:,j) has
/// gaps.
template <class V>
bool solve_column_contiguous(const CscT<V>& l, CscT<V>& b, index_t j) {
  index_t lo = 0, hi = 0;
  if (!gap_free_rows(b, j, &lo, &hi)) return false;
  // Unit diagonal: every B(k,j) is final once the pivots above it apply.
  eliminate_dense_column(
      l, b.values_mut().data() + static_cast<std::size_t>(b.col_begin(j)), lo,
      hi, hi);
  return true;
}

/// Solve one column of B with Merge addressing: for each pivot row k of the
/// column (ascending), merge L(:,k)'s strictly-lower rows against the tail
/// of B's column pattern with two pointers.
template <class V>
void solve_column_merge(const CscT<V>& l, CscT<V>& b, index_t j) {
  if (solve_column_contiguous(l, b, j)) return;
  auto brows = b.row_idx();
  auto bvals = b.values_mut();
  auto lrows = l.row_idx();
  auto lvals = l.values();
  const nnz_t jb = b.col_begin(j), je = b.col_end(j);
  for (nnz_t p = jb; p < je; ++p) {
    const index_t k = brows[static_cast<std::size_t>(p)];
    const V xk = bvals[static_cast<std::size_t>(p)];  // final: unit diag
    if (xk == V(0)) continue;
    // Merge L(:,k) strict-lower with B(:,j) rows after position p.
    const nnz_t lend = l.col_end(k);
    nnz_t lq = first_row_after(lrows, l.col_begin(k), lend, k);
    nnz_t bq = p + 1;
    while (lq < lend && bq < je) {
      const index_t lr = lrows[static_cast<std::size_t>(lq)];
      const index_t br = brows[static_cast<std::size_t>(bq)];
      if (lr == br) {
        bvals[static_cast<std::size_t>(bq)] -=
            lvals[static_cast<std::size_t>(lq)] * xk;
        ++lq;
        ++bq;
      } else if (lr < br) {
        ++lq;
      } else {
        ++bq;
      }
    }
  }
}

/// Solve one column with Bin-search addressing: each L entry locates its
/// target row in B's column by binary search.
template <class V>
void solve_column_binsearch(const CscT<V>& l, CscT<V>& b, index_t j) {
  if (solve_column_contiguous(l, b, j)) return;
  auto brows = b.row_idx();
  auto bvals = b.values_mut();
  auto lrows = l.row_idx();
  auto lvals = l.values();
  const nnz_t jb = b.col_begin(j), je = b.col_end(j);
  for (nnz_t p = jb; p < je; ++p) {
    const index_t k = brows[static_cast<std::size_t>(p)];
    const V xk = bvals[static_cast<std::size_t>(p)];
    if (xk == V(0)) continue;
    const nnz_t lend = l.col_end(k);
    for (nnz_t lq = first_row_after(lrows, l.col_begin(k), lend, k);
         lq < lend; ++lq) {
      const index_t r = lrows[static_cast<std::size_t>(lq)];
      auto first = brows.begin() + (p + 1);
      auto last = brows.begin() + je;
      auto it = std::lower_bound(first, last, r);
      if (it != last && *it == r) {
        bvals[static_cast<std::size_t>(it - brows.begin())] -=
            lvals[static_cast<std::size_t>(lq)] * xk;
      }
      // A missing target is legal here: L's row r may be absent from B's
      // column pattern, in which case the contribution is structurally zero
      // in the global factorisation (handled by the enclosing block "fill
      // closure" at the block level, not entry level).
    }
  }
}

/// Solve one column with Direct addressing via the stamped accumulator: the
/// column's rows are registered under a fresh generation and every update
/// lands in its CSC slot; updates whose row carries a stale stamp fall
/// outside the column pattern and are skipped. The solve runs entirely in
/// place — no scatter, gather or dense reset.
template <class V>
void solve_column_direct(const CscT<V>& l, CscT<V>& b, index_t j,
                         Workspace& ws) {
  if (solve_column_contiguous(l, b, j)) return;
  auto brows = b.row_idx();
  auto bvals = b.values_mut();
  auto lrows = l.row_idx();
  auto lvals = l.values();
  const nnz_t jb = b.col_begin(j), je = b.col_end(j);
  const index_t gen = ws.open_column();
  for (nnz_t p = jb; p < je; ++p) {
    const auto r = static_cast<std::size_t>(brows[static_cast<std::size_t>(p)]);
    ws.slot[r] = p;
    ws.stamp[r] = gen;
  }
  for (nnz_t p = jb; p < je; ++p) {
    const index_t k = brows[static_cast<std::size_t>(p)];
    const V xk = bvals[static_cast<std::size_t>(p)];  // final: unit diag
    if (xk == V(0)) continue;
    const nnz_t lend = l.col_end(k);
    for (nnz_t lq = first_row_after(lrows, l.col_begin(k), lend, k);
         lq < lend; ++lq) {
      const auto r = static_cast<std::size_t>(lrows[static_cast<std::size_t>(lq)]);
      if (ws.stamp[r] != gen) continue;
      bvals[static_cast<std::size_t>(ws.slot[r])] -=
          lvals[static_cast<std::size_t>(lq)] * xk;
    }
  }
}

}  // namespace

template <class V>
Status gessm(PanelVariant variant, const CscT<V>& diag, CscT<V>& b,
             Workspace& ws, ThreadPool* pool) {
  if (diag.n_rows() != diag.n_cols())
    return Status::invalid_argument("gessm: square diagonal block expected");
  if (diag.n_cols() != b.n_rows())
    return Status::invalid_argument("gessm: dimension mismatch");
  const index_t n = diag.n_rows();
  const index_t ncols = b.n_cols();
  SubnormalGuard<V> ftz;

  switch (variant) {
    case PanelVariant::kCV1:
      for (index_t j = 0; j < ncols; ++j) solve_column_merge(diag, b, j);
      return Status::ok();
    case PanelVariant::kCV2: {
      ws.ensure(n);
      for (index_t j = 0; j < ncols; ++j) solve_column_direct(diag, b, j, ws);
      return Status::ok();
    }
    case PanelVariant::kGV1: {
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      parallel_for(tp, 0, ncols, [&](index_t j) {
        SubnormalGuard<V> worker_ftz;
        solve_column_binsearch(diag, b, j);
      });
      return Status::ok();
    }
    case PanelVariant::kGV2: {
      // Un-sync warp-level row: columns are striped over workers without a
      // barrier, and inside a column the row sweep uses bin-search updates.
      // Work is handed out via a single atomic cursor (no level sets, no
      // join points besides kernel completion) — the un-sync discipline at
      // warp granularity.
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      std::atomic<index_t> cursor{0};
      auto work = [&]() {
        SubnormalGuard<V> worker_ftz;
        for (;;) {
          index_t j = cursor.fetch_add(1, std::memory_order_relaxed);
          if (j >= ncols) return;
          solve_column_binsearch(diag, b, j);
        }
      };
      const auto nthreads = static_cast<int>(tp.size());
      if (nthreads <= 1 || ncols < 2) {
        work();
      } else {
        std::atomic<int> fin{0};
        for (int t = 0; t < nthreads - 1; ++t)
          tp.submit([&work, &fin] {
            work();
            fin.fetch_add(1, std::memory_order_release);
          });
        work();
        while (fin.load(std::memory_order_acquire) < nthreads - 1)
          std::this_thread::yield();
      }
      return Status::ok();
    }
    case PanelVariant::kGV3: {
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      // Per-chunk pooled scratch: each contiguous chunk leases a child
      // workspace, so memory stays bounded by the active thread count.
      parallel_for_chunks(tp, 0, ncols, [&](index_t lo, index_t hi) {
        SubnormalGuard<V> worker_ftz;
        Workspace::Lease lw(ws);
        lw->ensure(n);
        for (index_t j = lo; j < hi; ++j) solve_column_direct(diag, b, j, *lw);
      });
      return Status::ok();
    }
    case PanelVariant::kGV4: {
      // Parallel Merge addressing: columns are independent and the merge
      // needs no scratch, matching the GPU merge kernels of Table 1.
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      parallel_for(tp, 0, ncols, [&](index_t j) {
        SubnormalGuard<V> worker_ftz;
        solve_column_merge(diag, b, j);
      });
      return Status::ok();
    }
  }
  return Status::internal("unreachable");
}

template <class V>
Status gessm_reference(const CscT<V>& diag, CscT<V>& b) {
  const index_t n = diag.n_rows();
  DenseT<V> l = DenseT<V>::from_csc(diag);
  DenseT<V> d = DenseT<V>::from_csc(b);
  for (index_t j = 0; j < b.n_cols(); ++j) {
    for (index_t k = 0; k < n; ++k) {
      const V xk = d(k, j);  // unit diagonal: already final
      if (xk == V(0)) continue;
      for (index_t i = k + 1; i < n; ++i) d(i, j) -= l(i, k) * xk;
    }
  }
  for (index_t j = 0; j < b.n_cols(); ++j) {
    for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p)
      b.values_mut()[static_cast<std::size_t>(p)] =
          d(b.row_idx()[static_cast<std::size_t>(p)], j);
  }
  return Status::ok();
}

template Status gessm<float>(PanelVariant, const CscT<float>&, CscT<float>&,
                             Workspace&, ThreadPool*);
template Status gessm<double>(PanelVariant, const CscT<double>&, CscT<double>&,
                              Workspace&, ThreadPool*);
template Status gessm_reference<float>(const CscT<float>&, CscT<float>&);
template Status gessm_reference<double>(const CscT<double>&, CscT<double>&);

}  // namespace pangulu::kernels
