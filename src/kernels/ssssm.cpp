#include "kernels/ssssm.hpp"

#include <algorithm>
#include <numeric>

#include "parallel/parallel_for.hpp"
#include "sparse/dense.hpp"

namespace pangulu::kernels {

namespace {

/// Column j of C -= A * B(:,j) when C(:,j)'s rows have no gaps (a dense
/// column is the common case). Such a target needs no slot map at all: row
/// r lives at cb + (r - lo), so A's columns go through DenseColumnUpdate,
/// which turns contiguous ones into axpys, four at a time — the vectorized
/// loop where the FP32 instantiation pays half the memory traffic of FP64
/// (DESIGN.md §8, §14) — and scatters the rest by row index; A's rows
/// outside C(:,j) are skipped, as the slot map skips them. Returns false
/// when C(:,j) has gaps.
template <class V>
bool column_contiguous(const CscT<V>& a, std::span<const ColumnSpan> aspans,
                       const CscT<V>& b, CscT<V>& c, index_t j) {
  index_t lo = 0, hi = 0;
  if (!gap_free_rows(c, j, &lo, &hi)) return false;
  DenseColumnUpdate<V> up(
      c.values_mut().data() + static_cast<std::size_t>(c.col_begin(j)), lo,
      hi);
  for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
    const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
    const V bkj = b.values()[static_cast<std::size_t>(q)];
    if (bkj == V(0)) continue;
    up.add(aspans[static_cast<std::size_t>(k)], a.row_idx(),
           a.values().data(), bkj);
  }
  up.flush();
  return true;
}

/// Column j of C -= A * B(:,j), Direct addressing via the stamped sparse
/// accumulator: C(:,j)'s rows are registered in the workspace slot map under
/// a fresh generation, then every product entry addresses its CSC slot in
/// O(1). Entries whose row carries a stale stamp are outside C's pattern
/// (structurally zero in the global factorisation) and are skipped — no
/// scatter, gather or O(n_rows) reset ever happens.
template <class V>
void column_direct(const CscT<V>& a, std::span<const ColumnSpan> aspans,
                   const CscT<V>& b, CscT<V>& c, index_t j, Workspace& ws) {
  if (column_contiguous(a, aspans, b, c, j)) return;
  auto crows = c.row_idx();
  auto cvals = c.values_mut();
  const nnz_t cb = c.col_begin(j), ce = c.col_end(j);
  const index_t gen = ws.open_column();
  for (nnz_t p = cb; p < ce; ++p) {
    const auto r = static_cast<std::size_t>(crows[static_cast<std::size_t>(p)]);
    ws.slot[r] = p;
    ws.stamp[r] = gen;
  }
  for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
    const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
    const V bkj = b.values()[static_cast<std::size_t>(q)];
    if (bkj == V(0)) continue;
    for (nnz_t p = a.col_begin(k); p < a.col_end(k); ++p) {
      const auto r = static_cast<std::size_t>(a.row_idx()[static_cast<std::size_t>(p)]);
      if (ws.stamp[r] != gen) continue;
      cvals[static_cast<std::size_t>(ws.slot[r])] -=
          a.values()[static_cast<std::size_t>(p)] * bkj;
    }
  }
}

/// Column j of C -= A * B(:,j), Bin-search addressing: each product entry
/// locates its slot in C's column by binary search.
template <class V>
void column_binsearch(const CscT<V>& a, std::span<const ColumnSpan> aspans,
                      const CscT<V>& b, CscT<V>& c, index_t j) {
  if (column_contiguous(a, aspans, b, c, j)) return;
  auto crows = c.row_idx();
  auto cvals = c.values_mut();
  const nnz_t cb = c.col_begin(j), ce = c.col_end(j);
  for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
    const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
    const V bkj = b.values()[static_cast<std::size_t>(q)];
    if (bkj == V(0)) continue;
    for (nnz_t p = a.col_begin(k); p < a.col_end(k); ++p) {
      const V aik = a.values()[static_cast<std::size_t>(p)];
      if (aik == V(0)) continue;
      const index_t r = a.row_idx()[static_cast<std::size_t>(p)];
      auto first = crows.begin() + cb;
      auto last = crows.begin() + ce;
      auto it = std::lower_bound(first, last, r);
      if (it != last && *it == r)
        cvals[static_cast<std::size_t>(it - crows.begin())] -= aik * bkj;
    }
  }
}

/// Column j of C -= A * B(:,j), Merge addressing (the paper's third
/// strategy): both A's column and C's column keep ascending row order, so
/// one two-pointer sweep pairs every product entry with its target slot.
template <class V>
void column_merge(const CscT<V>& a, std::span<const ColumnSpan> aspans,
                  const CscT<V>& b, CscT<V>& c, index_t j) {
  if (column_contiguous(a, aspans, b, c, j)) return;
  auto crows = c.row_idx();
  auto cvals = c.values_mut();
  const nnz_t cb = c.col_begin(j), ce = c.col_end(j);
  auto arows = a.row_idx();
  auto avals = a.values();
  for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
    const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
    const V bkj = b.values()[static_cast<std::size_t>(q)];
    if (bkj == V(0)) continue;
    nnz_t ap = a.col_begin(k);
    const nnz_t ae = a.col_end(k);
    nnz_t cp = cb;
    while (ap < ae && cp < ce) {
      const index_t ar = arows[static_cast<std::size_t>(ap)];
      const index_t cr = crows[static_cast<std::size_t>(cp)];
      if (ar == cr) {
        cvals[static_cast<std::size_t>(cp)] -=
            avals[static_cast<std::size_t>(ap)] * bkj;
        ++ap;
        ++cp;
      } else if (ar < cr) {
        ++ap;
      } else {
        ++cp;
      }
    }
  }
}

/// FLOPs of one target column: 2 * sum over B(:,j) entries of |A(:,k)|.
template <class V>
flops_t column_flops(const CscT<V>& a, const CscT<V>& b, index_t j) {
  flops_t f = 0;
  for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
    const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
    f += 2.0 * static_cast<flops_t>(a.col_end(k) - a.col_begin(k));
  }
  return f;
}

/// Fill the workspace per-column FLOP cache once per kernel invocation; all
/// variants that weigh columns read from here instead of recomputing.
template <class V>
void fill_col_flops(const CscT<V>& a, const CscT<V>& b, Workspace& ws) {
  const index_t ncols = b.n_cols();
  ws.col_flops.resize(static_cast<std::size_t>(ncols));
  for (index_t j = 0; j < ncols; ++j)
    ws.col_flops[static_cast<std::size_t>(j)] = column_flops(a, b, j);
}

}  // namespace

template <class V>
Status ssssm(SsssmVariant variant, const CscT<V>& a, const CscT<V>& b,
             CscT<V>& c, Workspace& ws, ThreadPool* pool) {
  if (a.n_cols() != b.n_rows() || c.n_rows() != a.n_rows() ||
      c.n_cols() != b.n_cols())
    return Status::invalid_argument("ssssm: shape mismatch");
  const index_t ncols = b.n_cols();
  const index_t nrows = a.n_rows();
  SubnormalGuard<V> ftz;
  const std::vector<ColumnSpan> aspans = column_spans(a);

  switch (variant) {
    case SsssmVariant::kCV1: {
      // A serial sweep over the columns (one CPU thread, as in Table 1's C
      // row) with stamp-mapped target columns.
      ws.ensure(nrows);
      for (index_t j = 0; j < ncols; ++j) column_direct(a, aspans, b, c, j, ws);
      return Status::ok();
    }
    case SsssmVariant::kCV2: {
      // Adaptive split-bin: order columns into work bins (heavy -> light) so
      // cache-resident A columns are reused while the work is still large.
      fill_col_flops(a, b, ws);
      std::vector<index_t> order(static_cast<std::size_t>(ncols));
      std::iota(order.begin(), order.end(), index_t(0));
      std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
        return ws.col_flops[static_cast<std::size_t>(x)] >
               ws.col_flops[static_cast<std::size_t>(y)];
      });
      for (index_t j : order) column_binsearch(a, aspans, b, c, j);
      return Status::ok();
    }
    case SsssmVariant::kCV3: {
      // Serial Merge addressing: cheapest per-entry work when A's columns
      // and C's column have comparable lengths (mid-density band).
      for (index_t j = 0; j < ncols; ++j) column_merge(a, aspans, b, c, j);
      return Status::ok();
    }
    case SsssmVariant::kGV1: {
      // Adaptive multi-level: per-column strategy choice. Heavy columns use
      // the stamped slot map (O(1) addressing), light ones use bin-search
      // (no slot registration cost). Column weights come from the cache.
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      fill_col_flops(a, b, ws);
      const flops_t dense_threshold = 4.0 * static_cast<flops_t>(nrows);
      parallel_for_chunks(tp, 0, ncols, [&](index_t lo, index_t hi) {
        SubnormalGuard<V> worker_ftz;
        Workspace::Lease lw(ws);
        lw->ensure(nrows);
        for (index_t j = lo; j < hi; ++j) {
          if (ws.col_flops[static_cast<std::size_t>(j)] >= dense_threshold)
            column_direct(a, aspans, b, c, j, *lw);
          else
            column_binsearch(a, aspans, b, c, j);
        }
      });
      return Status::ok();
    }
    case SsssmVariant::kGV2: {
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      parallel_for_chunks(tp, 0, ncols, [&](index_t lo, index_t hi) {
        SubnormalGuard<V> worker_ftz;
        Workspace::Lease lw(ws);
        lw->ensure(nrows);
        for (index_t j = lo; j < hi; ++j) column_direct(a, aspans, b, c, j, *lw);
      });
      return Status::ok();
    }
    case SsssmVariant::kGV3: {
      // Parallel Merge addressing: columns are independent and the merge
      // needs no scratch at all, so this is the simplest parallel variant.
      ThreadPool& tp = pool ? *pool : ThreadPool::global();
      parallel_for(tp, 0, ncols, [&](index_t j) {
        SubnormalGuard<V> worker_ftz;
        column_merge(a, aspans, b, c, j);
      });
      return Status::ok();
    }
  }
  return Status::internal("unreachable");
}

template <class V>
Status ssssm_reference(const CscT<V>& a, const CscT<V>& b, CscT<V>& c) {
  DenseT<V> da = DenseT<V>::from_csc(a);
  DenseT<V> db = DenseT<V>::from_csc(b);
  DenseT<V> dc = DenseT<V>::from_csc(c);
  DenseT<V>::gemm_sub(da, db, dc);
  for (index_t j = 0; j < c.n_cols(); ++j) {
    for (nnz_t p = c.col_begin(j); p < c.col_end(j); ++p)
      c.values_mut()[static_cast<std::size_t>(p)] =
          dc(c.row_idx()[static_cast<std::size_t>(p)], j);
  }
  return Status::ok();
}

template Status ssssm<float>(SsssmVariant, const CscT<float>&,
                             const CscT<float>&, CscT<float>&, Workspace&,
                             ThreadPool*);
template Status ssssm<double>(SsssmVariant, const CscT<double>&,
                              const CscT<double>&, CscT<double>&, Workspace&,
                              ThreadPool*);
template Status ssssm_reference<float>(const CscT<float>&, const CscT<float>&,
                                       CscT<float>&);
template Status ssssm_reference<double>(const CscT<double>&,
                                        const CscT<double>&, CscT<double>&);

}  // namespace pangulu::kernels
