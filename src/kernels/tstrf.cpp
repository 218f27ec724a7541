#include "kernels/tstrf.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "parallel/parallel_for.hpp"
#include "sparse/dense.hpp"

namespace pangulu::kernels {

namespace {

/// Apply column k's contribution to column j with Merge addressing.
/// Source X(:,k) lives in B.
template <class V>
void axpy_merge(CscT<V>& b, index_t k, index_t j, V ukj) {
  auto brows = b.row_idx();
  auto bvals = b.values_mut();
  nnz_t sq = b.col_begin(k);
  const nnz_t send = b.col_end(k);
  nnz_t tq = b.col_begin(j);
  const nnz_t tend = b.col_end(j);
  while (sq < send && tq < tend) {
    const index_t sr = brows[static_cast<std::size_t>(sq)];
    const index_t tr = brows[static_cast<std::size_t>(tq)];
    if (sr == tr) {
      bvals[static_cast<std::size_t>(tq)] -=
          bvals[static_cast<std::size_t>(sq)] * ukj;
      ++sq;
      ++tq;
    } else if (sr < tr) {
      ++sq;
    } else {
      ++tq;
    }
  }
}

template <class V>
void axpy_binsearch(CscT<V>& b, index_t k, index_t j, V ukj) {
  auto brows = b.row_idx();
  auto bvals = b.values_mut();
  const nnz_t tb = b.col_begin(j), te = b.col_end(j);
  for (nnz_t sq = b.col_begin(k); sq < b.col_end(k); ++sq) {
    const V v = bvals[static_cast<std::size_t>(sq)];
    if (v == V(0)) continue;
    const index_t r = brows[static_cast<std::size_t>(sq)];
    auto first = brows.begin() + tb;
    auto last = brows.begin() + te;
    auto it = std::lower_bound(first, last, r);
    if (it != last && *it == r)
      bvals[static_cast<std::size_t>(it - brows.begin())] -= v * ukj;
  }
}

template <class V>
void scale_column(CscT<V>& b, index_t j, V ujj) {
  auto bvals = b.values_mut();
  for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p)
    bvals[static_cast<std::size_t>(p)] /= ujj;
}

/// Gap-free-target fast path shared by every addressing strategy: when
/// B(:,j)'s rows have no gaps (a dense column is the common case), a source
/// row r IS value position jb + (r - lo), so the solved columns B(:,k),
/// k < j, go through DenseColumnUpdate — contiguous sources become axpys,
/// four at a time, the vectorized loop where FP32 halves the traffic
/// (DESIGN.md §8, §14); source rows outside B(:,j) are skipped, as the
/// addressing variants skip them — and the divide follows. Same operation
/// order as the addressing variants, so results stay bitwise equal. Returns
/// false when B(:,j) has gaps.
template <class V>
bool solve_column_contiguous(const CscT<V>& u, CscT<V>& b, index_t j) {
  index_t lo = 0, hi = 0;
  if (!gap_free_rows(b, j, &lo, &hi)) return false;
  auto urows = u.row_idx();
  auto uvals = u.values();
  DenseColumnUpdate<V> up(
      b.values_mut().data() + static_cast<std::size_t>(b.col_begin(j)), lo,
      hi);
  const V* bv = b.values().data();
  V ujj = V(0);
  for (nnz_t q = u.col_begin(j); q < u.col_end(j); ++q) {
    const index_t k = urows[static_cast<std::size_t>(q)];
    if (k > j) break;
    if (k == j) {
      ujj = uvals[static_cast<std::size_t>(q)];
      continue;
    }
    const V ukj = uvals[static_cast<std::size_t>(q)];
    if (ukj == V(0)) continue;
    up.add(b.row_idx(), bv, b.col_begin(k), b.col_end(k), ukj);
  }
  up.flush();
  PANGULU_CHECK(ujj != V(0), "TSTRF: zero diagonal in U");
  scale_column(b, j, ujj);
  return true;
}

/// Process column j fully (all incoming axpys then the divide) with Merge or
/// Bin-search addressing.
template <class V>
void solve_column_axpy(const CscT<V>& u, CscT<V>& b, index_t j,
                       Addressing addr) {
  if (solve_column_contiguous(u, b, j)) return;
  auto urows = u.row_idx();
  auto uvals = u.values();
  V ujj = V(0);
  for (nnz_t q = u.col_begin(j); q < u.col_end(j); ++q) {
    const index_t k = urows[static_cast<std::size_t>(q)];
    if (k > j) break;
    if (k == j) {
      ujj = uvals[static_cast<std::size_t>(q)];
      continue;
    }
    const V ukj = uvals[static_cast<std::size_t>(q)];
    if (ukj == V(0)) continue;
    if (addr == Addressing::kMerge)
      axpy_merge(b, k, j, ukj);
    else
      axpy_binsearch(b, k, j, ukj);
  }
  PANGULU_CHECK(ujj != V(0), "TSTRF: zero diagonal in U");
  scale_column(b, j, ujj);
}

/// Process column j with Direct addressing via the stamped accumulator: the
/// target column's rows are registered under a fresh generation; source
/// entries whose row carries a stale stamp lie outside the column pattern
/// and are skipped. Fully in place — no scatter/gather/reset.
template <class V>
void solve_column_direct(const CscT<V>& u, CscT<V>& b, index_t j,
                         Workspace& ws) {
  // Gap-free target: the axpy path needs no slot registration at all.
  if (solve_column_contiguous(u, b, j)) return;
  auto urows = u.row_idx();
  auto uvals = u.values();
  auto brows = b.row_idx();
  auto bvals = b.values_mut();
  const nnz_t jb = b.col_begin(j), je = b.col_end(j);
  const index_t gen = ws.open_column();
  for (nnz_t p = jb; p < je; ++p) {
    const auto r = static_cast<std::size_t>(brows[static_cast<std::size_t>(p)]);
    ws.slot[r] = p;
    ws.stamp[r] = gen;
  }
  V ujj = V(0);
  for (nnz_t q = u.col_begin(j); q < u.col_end(j); ++q) {
    const index_t k = urows[static_cast<std::size_t>(q)];
    if (k > j) break;
    if (k == j) {
      ujj = uvals[static_cast<std::size_t>(q)];
      continue;
    }
    const V ukj = uvals[static_cast<std::size_t>(q)];
    if (ukj == V(0)) continue;
    for (nnz_t sq = b.col_begin(k); sq < b.col_end(k); ++sq) {
      const auto r = static_cast<std::size_t>(brows[static_cast<std::size_t>(sq)]);
      if (ws.stamp[r] != gen) continue;
      bvals[static_cast<std::size_t>(ws.slot[r])] -=
          bvals[static_cast<std::size_t>(sq)] * ukj;
    }
  }
  PANGULU_CHECK(ujj != V(0), "TSTRF: zero diagonal in U");
  for (nnz_t p = jb; p < je; ++p) bvals[static_cast<std::size_t>(p)] /= ujj;
}

/// Column-parallel scheduling for G_V1/G_V3/G_V4: dep[j] counts
/// strictly-upper entries of U's column j; a finished column releases its
/// dependents through U's row structure — dependency counters instead of
/// barriers. Direct addressing leases a pooled child workspace per worker.
template <class V>
Status solve_columns_parallel(const CscT<V>& u, CscT<V>& b, ThreadPool* pool,
                              Addressing addr, Workspace* ws) {
  const index_t n = u.n_cols();
  auto urows = u.row_idx();
  const RowView rv = RowView::build(u);

  std::vector<std::atomic<index_t>> dep(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    index_t cnt = 0;
    for (nnz_t p = u.col_begin(j); p < u.col_end(j); ++p) {
      if (urows[static_cast<std::size_t>(p)] >= j) break;
      ++cnt;
    }
    dep[static_cast<std::size_t>(j)].store(cnt, std::memory_order_relaxed);
  }
  std::vector<std::atomic<index_t>> queue(static_cast<std::size_t>(n));
  for (auto& q : queue) q.store(-1, std::memory_order_relaxed);
  std::atomic<index_t> push_cursor{0}, pop_cursor{0}, done_count{0};
  auto push_ready = [&](index_t j) {
    index_t slot = push_cursor.fetch_add(1, std::memory_order_relaxed);
    queue[static_cast<std::size_t>(slot)].store(j, std::memory_order_release);
  };
  for (index_t j = 0; j < n; ++j) {
    if (dep[static_cast<std::size_t>(j)].load(std::memory_order_relaxed) == 0)
      push_ready(j);
  }

  auto process = [&](index_t j, Workspace* local) {
    if (addr == Addressing::kDirect)
      solve_column_direct(u, b, j, *local);
    else
      solve_column_axpy(u, b, j, addr);
    for (nnz_t rp = rv.ptr[static_cast<std::size_t>(j)];
         rp < rv.ptr[static_cast<std::size_t>(j) + 1]; ++rp) {
      const index_t m = rv.col[static_cast<std::size_t>(rp)];
      if (m <= j) continue;
      if (dep[static_cast<std::size_t>(m)].fetch_sub(
              1, std::memory_order_acq_rel) == 1)
        push_ready(m);
    }
    done_count.fetch_add(1, std::memory_order_release);
  };

  auto worker = [&]() {
    SubnormalGuard<V> worker_ftz;
    Workspace* local = nullptr;
    std::optional<Workspace::Lease> lease;
    if (addr == Addressing::kDirect) {
      lease.emplace(*ws);
      local = &**lease;
      local->ensure(b.n_rows());
    }
    for (;;) {
      if (done_count.load(std::memory_order_acquire) >= n) return;
      index_t slot = pop_cursor.load(std::memory_order_relaxed);
      if (slot >= n || slot >= push_cursor.load(std::memory_order_acquire)) {
        std::this_thread::yield();
        continue;
      }
      if (!pop_cursor.compare_exchange_weak(slot, slot + 1,
                                            std::memory_order_acq_rel))
        continue;
      index_t j;
      while ((j = queue[static_cast<std::size_t>(slot)].load(
                  std::memory_order_acquire)) < 0)
        std::this_thread::yield();
      process(j, local);
    }
  };

  ThreadPool& tp = pool ? *pool : ThreadPool::global();
  const std::size_t nthreads = tp.size();
  if (nthreads <= 1 || n < 64) {
    worker();
  } else {
    std::atomic<int> finished{0};
    const int extra = static_cast<int>(nthreads) - 1;
    for (int t = 0; t < extra; ++t)
      tp.submit([&worker, &finished] {
        worker();
        finished.fetch_add(1, std::memory_order_release);
      });
    worker();
    while (finished.load(std::memory_order_acquire) < extra)
      std::this_thread::yield();
  }
  return Status::ok();
}

/// Row-parallel un-sync variant (G_V2): each row of B solves x U = b
/// independently using a row-major view; no inter-row communication.
template <class V>
Status solve_rows_parallel(const CscT<V>& u, CscT<V>& b, ThreadPool* pool) {
  const RowView rb = RowView::build(b);
  auto bvals = b.values_mut();
  auto urows = u.row_idx();
  auto uvals = u.values();

  ThreadPool& tp = pool ? *pool : ThreadPool::global();
  parallel_for(tp, 0, b.n_rows(), [&](index_t i) {
    SubnormalGuard<V> worker_ftz;
    const nnz_t ib = rb.ptr[static_cast<std::size_t>(i)];
    const nnz_t ie = rb.ptr[static_cast<std::size_t>(i) + 1];
    // Row entries are in ascending column order (RowView::build scans
    // columns ascending). Process pivots left to right.
    for (nnz_t p = ib; p < ie; ++p) {
      const index_t k = rb.col[static_cast<std::size_t>(p)];
      const nnz_t kpos = rb.val_pos[static_cast<std::size_t>(p)];
      // Divide by U(k,k) first: x_ik becomes final.
      V ukk = V(0);
      for (nnz_t q = u.col_begin(k); q < u.col_end(k); ++q) {
        if (urows[static_cast<std::size_t>(q)] == k) {
          ukk = uvals[static_cast<std::size_t>(q)];
          break;
        }
      }
      PANGULU_CHECK(ukk != V(0), "TSTRF: zero diagonal in U");
      const V xik = bvals[static_cast<std::size_t>(kpos)] / ukk;
      bvals[static_cast<std::size_t>(kpos)] = xik;
      if (xik == V(0)) continue;
      // Propagate to the later entries of this row: for each target column m
      // the coefficient U(k,m) is located by binary search in U's column m.
      for (nnz_t t = p + 1; t < ie; ++t) {
        const index_t m = rb.col[static_cast<std::size_t>(t)];
        const nnz_t upos = u.find(k, m);
        if (upos < 0) continue;
        const V ukm = u.values()[static_cast<std::size_t>(upos)];
        if (ukm == V(0)) continue;
        bvals[static_cast<std::size_t>(rb.val_pos[static_cast<std::size_t>(t)])] -=
            xik * ukm;
      }
    }
  });
  return Status::ok();
}

}  // namespace

template <class V>
Status tstrf(PanelVariant variant, const CscT<V>& diag, CscT<V>& b,
             Workspace& ws, ThreadPool* pool) {
  if (diag.n_rows() != diag.n_cols())
    return Status::invalid_argument("tstrf: square diagonal block expected");
  if (diag.n_cols() != b.n_cols())
    return Status::invalid_argument("tstrf: dimension mismatch");
  const index_t n = diag.n_cols();
  SubnormalGuard<V> ftz;

  switch (variant) {
    case PanelVariant::kCV1:
      for (index_t j = 0; j < n; ++j)
        solve_column_axpy(diag, b, j, Addressing::kMerge);
      return Status::ok();
    case PanelVariant::kCV2:
      ws.ensure(b.n_rows());
      for (index_t j = 0; j < n; ++j) solve_column_direct(diag, b, j, ws);
      return Status::ok();
    case PanelVariant::kGV1:
      return solve_columns_parallel(diag, b, pool, Addressing::kBinSearch,
                                    nullptr);
    case PanelVariant::kGV2:
      return solve_rows_parallel(diag, b, pool);
    case PanelVariant::kGV3:
      return solve_columns_parallel(diag, b, pool, Addressing::kDirect, &ws);
    case PanelVariant::kGV4:
      return solve_columns_parallel(diag, b, pool, Addressing::kMerge,
                                    nullptr);
  }
  return Status::internal("unreachable");
}

template <class V>
Status tstrf_reference(const CscT<V>& diag, CscT<V>& b) {
  const index_t n = diag.n_cols();
  DenseT<V> u = DenseT<V>::from_csc(diag);
  DenseT<V> d = DenseT<V>::from_csc(b);
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < j; ++k) {
      const V ukj = u(k, j);
      if (ukj == V(0)) continue;
      for (index_t i = 0; i < d.n_rows(); ++i) d(i, j) -= d(i, k) * ukj;
    }
    const V ujj = u(j, j);
    PANGULU_CHECK(ujj != V(0), "TSTRF reference: zero diagonal");
    for (index_t i = 0; i < d.n_rows(); ++i) d(i, j) /= ujj;
  }
  for (index_t j = 0; j < b.n_cols(); ++j) {
    for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p)
      b.values_mut()[static_cast<std::size_t>(p)] =
          d(b.row_idx()[static_cast<std::size_t>(p)], j);
  }
  return Status::ok();
}

template Status tstrf<float>(PanelVariant, const CscT<float>&, CscT<float>&,
                             Workspace&, ThreadPool*);
template Status tstrf<double>(PanelVariant, const CscT<double>&, CscT<double>&,
                              Workspace&, ThreadPool*);
template Status tstrf_reference<float>(const CscT<float>&, CscT<float>&);
template Status tstrf_reference<double>(const CscT<double>&, CscT<double>&);

}  // namespace pangulu::kernels
