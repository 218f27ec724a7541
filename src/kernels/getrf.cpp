#include "kernels/getrf.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "sparse/dense.hpp"

namespace pangulu::kernels {

namespace {

template <class V>
V perturb_pivot(V pivot, V threshold, PivotStats* stats) {
  if (std::abs(pivot) >= threshold) return pivot;
  if (stats) stats->perturbed++;
  return pivot >= 0 ? threshold : -threshold;
}

/// Dense-column fast path shared by both addressing strategies: when column
/// j holds every row of the block, a row IS its value position (jb + r) and
/// every earlier column k < j is present in the upper pattern, so the
/// left-looking sweep needs no slot map or search — eliminate_dense_column
/// turns contiguous source tails into axpys, the vectorized bandwidth-bound
/// loop where FP32 moves half the bytes of FP64 (DESIGN.md §8, §14).
/// Identical floating-point operation sequence to the addressing variants.
/// Returns false when the column is not dense.
template <class V>
bool factor_column_dense(CscT<V>& a, index_t j, V threshold,
                         PivotStats* stats) {
  auto vals = a.values_mut();
  const nnz_t jb = a.col_begin(j), je = a.col_end(j);
  const index_t n = a.n_rows();
  if (je - jb != static_cast<nnz_t>(n)) return false;
  V* cv = vals.data() + static_cast<std::size_t>(jb);
  eliminate_dense_column(a, cv, 0, n, j);
  const V pivot =
      perturb_pivot(cv[static_cast<std::size_t>(j)], threshold, stats);
  cv[static_cast<std::size_t>(j)] = pivot;
  for (index_t i = j + 1; i < n; ++i) cv[static_cast<std::size_t>(i)] /= pivot;
  return true;
}

/// Left-looking update of one column, Direct addressing via the stamped
/// accumulator: column j's rows are registered under a fresh generation,
/// every earlier column in the column's upper pattern applies in ascending
/// order straight into the CSC slots, then the pivot is normalised in place.
/// Updates whose row carries a stale stamp fall outside the column pattern
/// (contributions that are structurally zero at this block position) and
/// are skipped — no scatter, gather or O(n_rows) reset.
template <class V>
void factor_column_direct(CscT<V>& a, index_t j, V threshold,
                          PivotStats* stats, Workspace& ws) {
  if (factor_column_dense(a, j, threshold, stats)) return;
  auto rows = a.row_idx();
  auto vals = a.values_mut();
  const nnz_t jb = a.col_begin(j), je = a.col_end(j);
  const index_t gen = ws.open_column();
  for (nnz_t p = jb; p < je; ++p) {
    const auto r = static_cast<std::size_t>(rows[static_cast<std::size_t>(p)]);
    ws.slot[r] = p;
    ws.stamp[r] = gen;
  }
  nnz_t diag_pos = -1;
  for (nnz_t p = jb; p < je; ++p) {
    const index_t k = rows[static_cast<std::size_t>(p)];
    if (k >= j) {
      diag_pos = p;
      break;
    }
    const V xk = vals[static_cast<std::size_t>(p)];  // evolving in place
    if (xk == V(0)) continue;
    const nnz_t qe = a.col_end(k);
    for (nnz_t q = first_row_after(rows, a.col_begin(k), qe, k); q < qe;
         ++q) {
      const auto r = static_cast<std::size_t>(rows[static_cast<std::size_t>(q)]);
      if (ws.stamp[r] != gen) continue;
      vals[static_cast<std::size_t>(ws.slot[r])] -=
          vals[static_cast<std::size_t>(q)] * xk;
    }
  }
  PANGULU_CHECK(diag_pos >= 0 && rows[static_cast<std::size_t>(diag_pos)] == j,
                "GETRF: diagonal entry missing from block pattern");
  const V pivot =
      perturb_pivot(vals[static_cast<std::size_t>(diag_pos)], threshold, stats);
  vals[static_cast<std::size_t>(diag_pos)] = pivot;
  for (nnz_t p = diag_pos + 1; p < je; ++p)
    vals[static_cast<std::size_t>(p)] /= pivot;
}

/// Left-looking update of one column with binary-search addressing: the
/// evolving column stays in its sparse slots; every read/write locates its
/// entry with a binary search over the column's (sorted) row list.
template <class V>
void factor_column_binsearch(CscT<V>& a, index_t j, V threshold,
                             PivotStats* stats) {
  if (factor_column_dense(a, j, threshold, stats)) return;
  auto rows = a.row_idx();
  auto vals = a.values_mut();
  const nnz_t jb = a.col_begin(j), je = a.col_end(j);
  auto find_in_j = [&](index_t r) -> nnz_t {
    auto first = rows.begin() + jb;
    auto last = rows.begin() + je;
    auto it = std::lower_bound(first, last, r);
    if (it == last || *it != r) return -1;
    return jb + (it - first);
  };
  nnz_t diag_pos = -1;
  for (nnz_t p = jb; p < je; ++p) {
    const index_t k = rows[static_cast<std::size_t>(p)];
    if (k >= j) {
      diag_pos = p;
      break;
    }
    const V xk = vals[static_cast<std::size_t>(p)];
    if (xk == V(0)) continue;
    const nnz_t qe = a.col_end(k);
    for (nnz_t q = first_row_after(rows, a.col_begin(k), qe, k); q < qe;
         ++q) {
      const index_t r = rows[static_cast<std::size_t>(q)];
      const V lrk = vals[static_cast<std::size_t>(q)];
      if (lrk == V(0)) continue;
      nnz_t t = find_in_j(r);
      PANGULU_CHECK(t >= 0, "GETRF: update target outside block pattern");
      vals[static_cast<std::size_t>(t)] -= lrk * xk;
    }
  }
  PANGULU_CHECK(diag_pos >= 0 && rows[static_cast<std::size_t>(diag_pos)] == j,
                "GETRF: diagonal entry missing from block pattern");
  const V pivot =
      perturb_pivot(vals[static_cast<std::size_t>(diag_pos)], threshold, stats);
  vals[static_cast<std::size_t>(diag_pos)] = pivot;
  for (nnz_t p = diag_pos + 1; p < je; ++p)
    vals[static_cast<std::size_t>(p)] /= pivot;
}

/// C_V1: serial left-looking sweep with stamped Direct addressing.
template <class V>
Status getrf_c_v1(CscT<V>& a, Workspace& ws, PivotStats* stats,
                  const GetrfOptions& opts) {
  const index_t n = a.n_cols();
  ws.ensure(n);
  V amax = a.max_abs();
  if (amax == V(0)) amax = V(1);
  const V threshold = static_cast<V>(opts.pivot_tol) * amax;
  for (index_t j = 0; j < n; ++j)
    factor_column_direct(a, j, threshold, stats, ws);
  return Status::ok();
}

/// G_V1/G_V2: synchronisation-free left-looking factorisation in the SFLU
/// style (Zhao et al., DAC'21). Column j carries a counter of unfinished
/// source columns (its strictly-upper pattern); workers grab ready columns
/// from a lock-free ring, factor them, and release their dependents. Each
/// column is written by exactly one worker, so no per-entry locking exists
/// anywhere — hence "un-sync".
template <class V>
Status getrf_sflu(CscT<V>& a, Workspace& ws, PivotStats* stats,
                  const GetrfOptions& opts, ThreadPool* pool,
                  bool dense_mapping) {
  const index_t n = a.n_cols();
  V amax = a.max_abs();
  if (amax == V(0)) amax = V(1);
  const V threshold = static_cast<V>(opts.pivot_tol) * amax;

  const RowView rv = RowView::build(a);
  auto rows = a.row_idx();

  std::vector<std::atomic<index_t>> dep(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    index_t cnt = 0;
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      if (rows[static_cast<std::size_t>(p)] >= j) break;
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

  // PivotStats is bumped from several threads; merge per-worker counts.
  std::atomic<index_t> perturbed{0};

  auto worker = [&]() {
    SubnormalGuard<V> worker_ftz;
    // Pooled per-worker stamped accumulator (bounded by the worker count,
    // reused across calls) instead of thread_local scratch.
    std::optional<Workspace::Lease> lease;
    Workspace* local = nullptr;
    if (dense_mapping) {
      lease.emplace(ws);
      local = &**lease;
      local->ensure(n);
    }
    PivotStats local_stats;
    for (;;) {
      if (done_count.load(std::memory_order_acquire) >= n) break;
      index_t slot = pop_cursor.load(std::memory_order_relaxed);
      if (slot >= n ||
          slot >= push_cursor.load(std::memory_order_acquire)) {
        std::this_thread::yield();
        continue;
      }
      if (!pop_cursor.compare_exchange_weak(slot, slot + 1,
                                            std::memory_order_acq_rel))
        continue;
      index_t j;
      while ((j = queue[static_cast<std::size_t>(slot)].load(
                  std::memory_order_acquire)) < 0) {
        std::this_thread::yield();
      }
      if (dense_mapping)
        factor_column_direct(a, j, threshold, &local_stats, *local);
      else
        factor_column_binsearch(a, j, threshold, &local_stats);
      // Release dependents: every column m > j with U(j,m) stored.
      for (nnz_t rp = rv.ptr[static_cast<std::size_t>(j)];
           rp < rv.ptr[static_cast<std::size_t>(j) + 1]; ++rp) {
        const index_t m = rv.col[static_cast<std::size_t>(rp)];
        if (m <= j) continue;
        if (dep[static_cast<std::size_t>(m)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          push_ready(m);
        }
      }
      done_count.fetch_add(1, std::memory_order_release);
    }
    perturbed.fetch_add(local_stats.perturbed, std::memory_order_relaxed);
  };

  ThreadPool& tp = pool ? *pool : ThreadPool::global();
  const std::size_t nthreads = tp.size();
  if (nthreads <= 1 || n < 64) {
    worker();
  } else {
    std::atomic<int> finished{0};
    const int extra = static_cast<int>(nthreads) - 1;
    for (int t = 0; t < extra; ++t) {
      tp.submit([&worker, &finished] {
        worker();
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    worker();
    while (finished.load(std::memory_order_acquire) < extra)
      std::this_thread::yield();
  }
  if (stats) stats->perturbed += perturbed.load();
  return Status::ok();
}

}  // namespace

template <class V>
Status getrf(GetrfVariant variant, CscT<V>& a, Workspace& ws,
             PivotStats* stats, const GetrfOptions& opts, ThreadPool* pool) {
  if (a.n_rows() != a.n_cols())
    return Status::invalid_argument("getrf: square block expected");
  SubnormalGuard<V> ftz;
  switch (variant) {
    case GetrfVariant::kCV1:
      return getrf_c_v1(a, ws, stats, opts);
    case GetrfVariant::kGV1:
      return getrf_sflu(a, ws, stats, opts, pool, /*dense_mapping=*/false);
    case GetrfVariant::kGV2:
      return getrf_sflu(a, ws, stats, opts, pool, /*dense_mapping=*/true);
  }
  return Status::internal("unreachable");
}

template <class V>
Status getrf_reference(CscT<V>& a, const GetrfOptions& opts) {
  const index_t n = a.n_cols();
  DenseT<V> d = DenseT<V>::from_csc(a);
  V amax = a.max_abs();
  if (amax == V(0)) amax = V(1);
  const V threshold = static_cast<V>(opts.pivot_tol) * amax;
  for (index_t k = 0; k < n; ++k) {
    V pivot = d(k, k);
    if (std::abs(pivot) < threshold)
      pivot = pivot >= 0 ? threshold : -threshold;
    d(k, k) = pivot;
    for (index_t i = k + 1; i < n; ++i) d(i, k) /= pivot;
    for (index_t j = k + 1; j < n; ++j) {
      const V ukj = d(k, j);
      if (ukj == V(0)) continue;
      for (index_t i = k + 1; i < n; ++i) d(i, j) -= d(i, k) * ukj;
    }
  }
  for (index_t j = 0; j < n; ++j) {
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p)
      a.values_mut()[static_cast<std::size_t>(p)] =
          d(a.row_idx()[static_cast<std::size_t>(p)], j);
  }
  return Status::ok();
}

template Status getrf<float>(GetrfVariant, CscT<float>&, Workspace&,
                             PivotStats*, const GetrfOptions&, ThreadPool*);
template Status getrf<double>(GetrfVariant, CscT<double>&, Workspace&,
                              PivotStats*, const GetrfOptions&, ThreadPool*);
template Status getrf_reference<float>(CscT<float>&, const GetrfOptions&);
template Status getrf_reference<double>(CscT<double>&, const GetrfOptions&);

}  // namespace pangulu::kernels
