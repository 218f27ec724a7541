// Shared vocabulary of the block-kernel layer (§4.3, Table 1 of the paper).
//
// Numeric factorisation operates on square sparse blocks whose pattern was
// fixed by symbolic factorisation; the four kernel families are
//   GETRF  — in-place sparse LU of a diagonal block (L unit-lower + U in one
//            CSC, like LAPACK's getrf layout),
//   GESSM  — B <- L^-1 B        (lower solve; updates a block right of the
//            diagonal block, columns independent),
//   TSTRF  — B <- B U^-1        (upper solve; updates a block below the
//            diagonal block, rows independent),
//   SSSSM  — C <- C - A*B       (sparse x sparse Schur complement update).
//
// Each family offers the paper's three addressing strategies: Direct (a
// row→slot position map), Bin-search (binary search per product entry) and
// Merge (two-pointer sweep of sorted row lists).
//
// The filled pattern is closed under elimination, so every kernel writes only
// into already-present entries — no allocation on the numeric path.
#pragma once

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernels/precision.hpp"
#include "parallel/annotations.hpp"
#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace pangulu {
class ThreadPool;
}

/// No-alias hint for the contiguous dense fast path: the compiler can only
/// vectorise axpy_sources_sub without runtime
/// overlap checks when it knows source and target values do not overlap
/// (they never do — kernels write C, read A/B).
#if defined(__GNUC__) || defined(__clang__)
#define PANGULU_RESTRICT __restrict__
#else
#define PANGULU_RESTRICT
#endif

namespace pangulu::kernels {

enum class GetrfVariant { kCV1, kGV1, kGV2 };
// GESSM and TSTRF. kGV4 (parallel merge) appended so that integer casts of
// the pre-existing members stay stable.
enum class PanelVariant { kCV1, kCV2, kGV1, kGV2, kGV3, kGV4 };
// kCV3 (serial merge) and kGV3 (parallel merge) appended, same reason.
enum class SsssmVariant { kCV1, kCV2, kGV1, kGV2, kCV3, kGV3 };

/// The three addressing strategies of §4.3: how a product/update entry finds
/// its slot in the target column.
enum class Addressing { kDirect, kBinSearch, kMerge };

std::string to_string(GetrfVariant v);
std::string to_string(PanelVariant v);
std::string to_string(SsssmVariant v);
std::string to_string(Addressing a);

/// True for the variants that model GPU kernels ("G_" rows of Table 1);
/// the runtime's DeviceModel prices these differently from CPU variants.
bool is_gpu_variant(GetrfVariant v);
bool is_gpu_variant(PanelVariant v);
bool is_gpu_variant(SsssmVariant v);

/// Addressing strategy each variant uses (drives DeviceModel pricing).
Addressing addressing_of(GetrfVariant v);
Addressing addressing_of(PanelVariant v);
Addressing addressing_of(SsssmVariant v);

/// Row-major view of a CSC block: for each row, the (col, value-position)
/// pairs. Built once per kernel invocation that needs row access.
struct RowView {
  std::vector<nnz_t> ptr;        // size n_rows+1
  std::vector<index_t> col;      // column index of each entry
  std::vector<nnz_t> val_pos;    // position into the CSC values array

  /// Pattern-only construction — one instantiation per value type even
  /// though the view itself is value-free.
  template <class V>
  static RowView build(const CscT<V>& a);
};

/// Reusable scratch of the kernel layer; kernels never allocate on the
/// numeric path once a workspace has seen a block of the current size.
///
/// The core is the *stamped sparse accumulator* backing every Direct-
/// addressing variant: `slot[row]` maps a row to its value position in the
/// currently open target column and `stamp[row]` records which column
/// generation wrote the slot. A kernel opens a column with open_column()
/// (O(1): just a generation bump), registers the column's rows, and then
/// addresses entries in place — product entries whose row carries a stale
/// stamp are outside the column's pattern (structurally zero in the global
/// factorisation) and are skipped. Nothing is ever scattered, gathered or
/// reset, which removes the old O(n_rows)-per-column dense `std::fill`.
///
/// Parallel variants draw per-thread children from the workspace's pool
/// (Lease below) instead of unbounded `thread_local` scratch: memory is
/// bounded by the peak thread count, reused across calls, and owned by an
/// object sanitizers and the TSA discipline can see.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // Stamped accumulator state (see class comment).
  std::vector<nnz_t> slot;     // row -> value position in the open column
  std::vector<index_t> stamp;  // row -> generation that wrote the slot
  // Per-column FLOP cache of the current SSSSM call, filled once per kernel
  // invocation and shared by every variant that weighs columns.
  std::vector<flops_t> col_flops;

  void ensure(index_t n) {
    if (static_cast<index_t>(slot.size()) < n) {
      slot.assign(static_cast<std::size_t>(n), -1);
      stamp.assign(static_cast<std::size_t>(n), 0);
    }
  }

  /// Open a new target column: returns the generation that marks this
  /// column's rows as live. Wraparound resets every stamp (amortised O(1)).
  index_t open_column() {
    if (generation_ == std::numeric_limits<index_t>::max()) {
      std::fill(stamp.begin(), stamp.end(), index_t(0));
      generation_ = 0;
    }
    return ++generation_;
  }

  /// RAII lease of a pooled per-thread child workspace. Chunked parallel
  /// variants take one lease per work chunk, so the pool never grows past
  /// the number of concurrently active threads.
  class Lease {
   public:
    explicit Lease(Workspace& parent)
        : parent_(&parent), child_(parent.acquire_child()) {}
    ~Lease() { parent_->release_child(child_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Workspace& operator*() const { return *child_; }
    Workspace* operator->() const { return child_; }

   private:
    Workspace* parent_;
    Workspace* child_;
  };

 private:
  Workspace* acquire_child() {
    MutexLock lk(pool_mu_);
    if (free_.empty()) {
      children_.push_back(std::make_unique<Workspace>());
      free_.push_back(children_.back().get());
    }
    Workspace* w = free_.back();
    free_.pop_back();
    return w;
  }
  void release_child(Workspace* w) {
    MutexLock lk(pool_mu_);
    free_.push_back(w);
  }

  index_t generation_ = 0;
  Mutex pool_mu_;
  std::vector<std::unique_ptr<Workspace>> children_ PANGULU_GUARDED_BY(pool_mu_);
  std::vector<Workspace*> free_ PANGULU_GUARDED_BY(pool_mu_);
};

/// Position of the first entry in [begin, end) of a column's ascending row
/// list whose row lies below row k (row > k): the start of a diagonal
/// block's strictly-lower part of column k. A gap-free column (dense, or one
/// row range) locates it directly, any other by binary search, so skipping
/// the upper part never scans the up to k rows above the diagonal.
inline nnz_t first_row_after(std::span<const index_t> rows, nnz_t begin,
                             nnz_t end, index_t k) {
  if (begin == end) return end;
  const index_t r0 = rows[static_cast<std::size_t>(begin)];
  const nnz_t len = end - begin;
  if (rows[static_cast<std::size_t>(end - 1)] - r0 == len - 1)
    return begin + std::clamp<nnz_t>(nnz_t{k} + 1 - r0, 0, len);
  const auto first = rows.begin() + begin;
  return begin + static_cast<nnz_t>(
                     std::upper_bound(first, rows.begin() + end, k) - first);
}

/// One contiguous source of a column update: rows [begin, end), row r at
/// x[r - begin], scaled by a.
template <class V>
struct AxpySource {
  const V* x = nullptr;
  V a = V(0);
  index_t begin = 0, end = 0;
};

/// y[r] -= s.x[r - s.begin] * s.a for every row r of every source s in
/// src[0, m), sources in order; y holds row r at y[r - lo]. Four sources at
/// a time, the rows all four cover go through one fused loop that keeps
/// y[r] in a register across the four updates, and each source's rows above
/// and below that common range through a plain one; every y[r] therefore
/// sees its updates in source order with the same rounded multiply-subtract
/// sequence as the scalar loop per source, bitwise. No source may overlap y.
template <class V>
void axpy_sources_sub(V* PANGULU_RESTRICT y, index_t lo,
                      const AxpySource<V>* src, index_t m);

/// Where column k of a block keeps its entries: values [begin, end), with
/// rows first .. first + (end - begin) - 1 when `gap_free`, else the rows
/// listed at [begin, end). Computed once per kernel call, so the column
/// updates below look a source column up with one load.
struct ColumnSpan {
  nnz_t begin = 0, end = 0;
  index_t first = 0;
  bool gap_free = false;
};

template <class V>
std::vector<ColumnSpan> column_spans(const CscT<V>& m) {
  std::vector<ColumnSpan> spans(static_cast<std::size_t>(m.n_cols()));
  const auto rows = m.row_idx();
  for (index_t k = 0; k < m.n_cols(); ++k) {
    ColumnSpan& s = spans[static_cast<std::size_t>(k)];
    s.begin = m.col_begin(k);
    s.end = m.col_end(k);
    if (s.begin == s.end) continue;
    s.first = rows[static_cast<std::size_t>(s.begin)];
    s.gap_free = rows[static_cast<std::size_t>(s.end - 1)] - s.first ==
                 s.end - s.begin - 1;
  }
  return spans;
}

/// Applies y[r] -= x_k(r) * a_k to a gap-free target column — rows
/// [lo, hi), row r at y[r - lo] — for a sequence of sparse source columns
/// x_k, in the order they are added. Source rows outside [lo, hi) are
/// skipped: they lie outside the target's pattern. Sources whose rows are
/// contiguous (r0 .. r0 + len - 1, no gaps) are queued and go out in runs
/// of up to 16 through axpy_sources_sub; any other source first drains the queue and
/// then scatters by row index. Every y[r] thus sees its updates in the
/// order added, with the same rounding as the scalar loop. Call flush()
/// before reading y; no source may overlap y.
template <class V>
class DenseColumnUpdate {
 public:
  DenseColumnUpdate(V* y, index_t lo, index_t hi) : y_(y), lo_(lo), hi_(hi) {}

  /// Queue y -= a * (source entries [b, e) of a column with row indices
  /// `rows` and values `vals`).
  void add(std::span<const index_t> rows, const V* vals, nnz_t b, nnz_t e,
           V a) {
    if (b == e) return;
    const index_t r0 = rows[static_cast<std::size_t>(b)];
    add(ColumnSpan{b, e, r0,
                   rows[static_cast<std::size_t>(e - 1)] - r0 == e - b - 1},
        rows, vals, a);
  }

  /// The same for a source column whose span is known.
  void add(const ColumnSpan& s, std::span<const index_t> rows, const V* vals,
           V a) {
    if (!s.gap_free) {
      flush();
      for (nnz_t p = s.begin; p < s.end; ++p) {
        const index_t r = rows[static_cast<std::size_t>(p)];
        if (r >= lo_ && r < hi_)
          y_[static_cast<std::size_t>(r - lo_)] -=
              vals[static_cast<std::size_t>(p)] * a;
      }
      return;
    }
    const index_t first = std::max(s.first, lo_);
    const index_t end =
        std::min(s.first + static_cast<index_t>(s.end - s.begin), hi_);
    if (first < end)
      add_range(vals + static_cast<std::size_t>(s.begin + (first - s.first)),
                first, end, a);
  }

  /// Queue y[r] -= a * x[r - begin] for the rows r in [begin, end), which
  /// must lie inside [lo, hi).
  void add_range(const V* x, index_t begin, index_t end, V a) {
    q_[static_cast<std::size_t>(pending_)] = {x, a, begin, end};
    if (++pending_ == kQueue) flush();
  }

  void flush() {
    if (pending_ > 0) axpy_sources_sub(y_, lo_, q_.data(), pending_);
    pending_ = 0;
  }

 private:
  static constexpr index_t kQueue = 16;
  V* y_;
  index_t lo_, hi_;
  std::array<AxpySource<V>, kQueue> q_{};
  index_t pending_ = 0;
};

/// Left-looking elimination of a gap-free column y — rows [lo, hi), row r at
/// y[r - lo] — by the unit-lower part of columns [lo, kend) of the square
/// block `l` (kend <= hi): for each k in ascending order, x = y[k] and,
/// unless x is zero, y[r] -= L(r,k) * x for every row r > k of column k
/// inside the column. y[k] is final once columns < k have updated it, so
/// pivots go four at a time: their updates to the group's own rows run
/// entry by entry, and those below the group queue up in a
/// DenseColumnUpdate, where dense tails share one fused axpy. Every y[r] sees its updates in ascending k, as in the
/// one-pivot-at-a-time loop. y must not overlap columns [lo, kend) of `l`.
template <class V>
void eliminate_dense_column(const CscT<V>& l, V* y, index_t lo, index_t hi,
                            index_t kend) {
  auto rows = l.row_idx();
  const V* vals = l.values().data();
  DenseColumnUpdate<V> up(y, lo, hi);
  for (index_t k0 = lo; k0 < kend; k0 += 4) {
    const index_t last = std::min(k0 + 4, kend) - 1;
    for (index_t k = k0; k <= last; ++k) {
      const V x = y[static_cast<std::size_t>(k - lo)];
      if (x == V(0)) continue;
      const nnz_t e = l.col_end(k);
      nnz_t p = first_row_after(rows, l.col_begin(k), e, k);
      for (; p < e && rows[static_cast<std::size_t>(p)] <= last; ++p)
        y[static_cast<std::size_t>(rows[static_cast<std::size_t>(p)] - lo)] -=
            vals[static_cast<std::size_t>(p)] * x;
      up.add(rows, vals, p, e, x);
    }
    up.flush();
  }
}

/// The row window [first, last + 1) of column j of `m` when its rows have
/// no gaps (a dense column is one), or false.
template <class V>
bool gap_free_rows(const CscT<V>& m, index_t j, index_t* lo, index_t* hi) {
  const nnz_t b = m.col_begin(j), e = m.col_end(j);
  if (b == e) return false;
  const auto rows = m.row_idx();
  *lo = rows[static_cast<std::size_t>(b)];
  *hi = rows[static_cast<std::size_t>(e - 1)] + 1;
  return *hi - *lo == e - b;
}

/// One non-empty column of a block as the triangular-solve sweeps walk it:
/// its index and, when its rows have no gaps, the first of them (kScatter
/// otherwise). runtime::ColumnLists keeps one ascending list of these per
/// block position; it is pure structure, so one list serves both precision
/// twins.
struct SweepColumn {
  static constexpr index_t kScatter = -1;
  index_t col = 0;
  index_t first = kScatter;
};

/// The triangular-solve sweep kernels, for one vector or a row-interleaved
/// panel of k vectors: lane c of row r at x[r * stride + c], so one vector
/// is k = 1, stride 1. Each walks only the listed non-empty columns of a
/// block; a gap-free column (or part of one) is one contiguous loop, any
/// other scatters by row index. Every lane sees its updates in the order of
/// the entry-by-entry walk over every column of the block, with the same
/// rounding, so each lane is bitwise that walk run on it alone.
///
/// Off-diagonal block `b`: y[r] -= b(r, j) * x[j] over the listed columns,
/// skipping a lane whose x[j] is zero; the transposed form does
/// y[j] -= b(:, j) . x, the dot accumulated in row order from +0 (an empty
/// column's y[j] -= +0 is the identity, also for -0).
template <class V>
void sweep_columns_sub(const CscT<V>& b, std::span<const SweepColumn> cols,
                       const V* x, V* y, index_t stride, index_t k);
template <class V>
void sweep_columns_t_sub(const CscT<V>& b, std::span<const SweepColumn> cols,
                         const V* x, V* y, index_t stride, index_t k);

/// In-place solves with a factorised diagonal block `d` (GETRF's layout:
/// unit-lower L below the diagonal, U on and above it). `cols` lists every
/// column of `d` and diag[j] is the position of column j's diagonal entry.
/// Lower: L x' = x, ascending j, skipping a lane whose x[j] is zero. Upper:
/// U x' = x, descending, dividing by U(j,j) before the zero skip. The
/// transposed forms solve U^T x' = x (ascending) and L^T x' = x
/// (descending) by column dots. A zero U(j,j) throws.
template <class V>
void diag_lower_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                      const nnz_t* diag, V* x, index_t stride, index_t k);
template <class V>
void diag_upper_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                      const nnz_t* diag, V* x, index_t stride, index_t k);
template <class V>
void diag_upper_t_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                        const nnz_t* diag, V* x, index_t stride, index_t k);
template <class V>
void diag_lower_t_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                        const nnz_t* diag, V* x, index_t stride, index_t k);

/// FLOP estimators (2*mul-add counted as 2 flops, divisions as 1) used for
/// task weights (§4.2), decision trees (§4.3) and the device time model.
/// Pattern-only, so the count is identical at both precisions.
template <class V>
flops_t getrf_flops(const CscT<V>& a);
template <class V>
flops_t panel_solve_flops(const CscT<V>& diag, const CscT<V>& b, bool lower);
template <class V>
flops_t ssssm_flops(const CscT<V>& a, const CscT<V>& b);

/// Statistics of perturbed pivots (static pivoting fallback, like
/// SuperLU_DIST's GESP): a pivot smaller than tol*max|A| is replaced.
struct PivotStats {
  index_t perturbed = 0;
};

}  // namespace pangulu::kernels
