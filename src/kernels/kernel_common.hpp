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
#include <limits>
#include <memory>
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
/// vectorise axpy_sub without runtime overlap checks when it knows source
/// and target values do not overlap (they never do — kernels write C, read
/// A/B).
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

/// y[i] -= x[i] * a for i in [0, n): the contiguous dense axpy that every
/// kernel family's dense-mapping fast path reduces to (a dense source column
/// updating a dense target column). It is the bandwidth-bound inner loop of
/// the numeric phase, so it is compiled once per ISA level and picked at
/// load time (DESIGN.md §8); each y[i] still sees exactly one rounded
/// multiply and one rounded subtract, so every clone is bitwise the scalar
/// loop. x and y must not overlap.
template <class V>
void axpy_sub(V* PANGULU_RESTRICT y, const V* PANGULU_RESTRICT x, V a,
              index_t n);

/// Panel SpMM accumulate for the multi-RHS triangular-solve sweeps:
/// Y[:, c] -= Block * X[:, c] for c in [0, k). X/Y are row-interleaved
/// panels — column c of row r lives at x[r * xstride + c] — so the k-wide
/// inner loop runs over contiguous memory and the block's indices are
/// decoded once per entry for all k columns (the amortisation the panel
/// sweep buys; a stride of 1 with k == 1 is the plain vector layout). Per
/// column the floating-point operation sequence — including the zero-skip —
/// is exactly the single-vector SpMV-subtract's, so results are bitwise
/// identical column-for-column.
template <class V>
void spmm_sub_panel(const CscT<V>& blk, const V* x, index_t xstride, V* y,
                    index_t ystride, index_t k);

/// Transposed panel accumulate: Y[:, c] -= Block^T * X[:, c]. `acc` is
/// caller-provided scratch of at least k values (one dot accumulator per
/// column).
template <class V>
void spmm_t_sub_panel(const CscT<V>& blk, const V* x, index_t xstride, V* y,
                      index_t ystride, index_t k, V* acc);

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
