// Regular two-dimensional blocking (§4.2, Figure 6 of the paper): the filled
// matrix is split into equal fixed-size square blocks; non-empty blocks are
// compressed with a first-layer block-CSC (blk_ColumnPointer / blk_RowIndex /
// blk_Value in the paper's nomenclature) and each block stores its nonzeros
// in a second-layer CSC.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace pangulu {
class ThreadPool;
}

namespace pangulu::block {

/// Geometry of the regular 2D blocking.
struct BlockGrid {
  index_t n = 0;           // matrix order
  index_t block_size = 0;  // b
  index_t nb = 0;          // number of block rows/cols: ceil(n/b)

  BlockGrid() = default;
  BlockGrid(index_t n_, index_t b_)
      : n(n_), block_size(b_), nb((n_ + b_ - 1) / b_) {}

  index_t block_of(index_t i) const { return i / block_size; }
  index_t offset_of(index_t i) const { return i % block_size; }
  index_t block_dim(index_t bi) const {
    return bi + 1 < nb ? block_size : n - bi * block_size;
  }
  index_t block_start(index_t bi) const { return bi * block_size; }
};

/// The paper computes the block size "from the matrix order and the density
/// of the matrix after symbolic factorisation to balance the computation and
/// communication". Denser factors get bigger blocks (more compute per
/// message); the result is clamped so the block grid keeps enough
/// parallelism for the process grid.
index_t choose_block_size(index_t n, nnz_t nnz_filled, index_t min_blocks = 8);

/// Guard the index arithmetic the 2D blocking performs before doing any of
/// it: `n + block_size - 1` (the ceil-divide in BlockGrid) must not overflow
/// index_t, `nb * nb` (dense block-grid bound used by the mapping tables)
/// must not overflow nnz_t, and the filled nonzero count must fit the flat
/// per-block offset arrays. Returns kOutOfRange with a diagnosis otherwise.
[[nodiscard]] Status check_blocking_bounds(index_t n, index_t block_size,
                                           nnz_t nnz_filled);

/// Two-layer sparse block storage. Templated on the block value type V
/// (float/double) so the mixed-precision pipeline can hold an FP32 twin of
/// the FP64 factors with identical structure (DESIGN.md §14); the
/// unsuffixed `BlockMatrix` alias keeps the historical FP64 spelling.
template <class V>
class BlockMatrixT {
 public:
  using value_type = V;

  BlockMatrixT() = default;

  /// Split `filled` (output of symbolic factorisation) into blocks. The
  /// two-pass bucket-count/fill parallelises over block columns on `pool`
  /// (nullptr: the global pool); block columns own disjoint slices of every
  /// array involved, so the layout is bitwise identical to the serial sweep
  /// at any thread count. Single-worker pools dispatch to the serial path.
  static BlockMatrixT from_filled(const CscT<V>& filled, index_t block_size,
                                  ThreadPool* pool = nullptr);

  /// The single-threaded reference splitter (ground truth for the
  /// determinism property tests and the preprocessing bench).
  static BlockMatrixT from_filled_serial(const CscT<V>& filled,
                                         index_t block_size);

  /// Structure-preserving precision conversion: every first-layer array is
  /// shared verbatim and each block converts via CscT::converted_from, so
  /// the result is positionally identical to the source: a (block position,
  /// index in block) slot found in one addresses the same entry in the other.
  template <class U>
  static BlockMatrixT converted_from(const BlockMatrixT<U>& other) {
    BlockMatrixT bm;
    bm.grid_ = other.grid_;
    bm.blk_col_ptr_ = other.blk_col_ptr_;
    bm.blk_row_idx_ = other.blk_row_idx_;
    bm.blk_col_of_ = other.blk_col_of_;
    bm.blk_row_ptr_ = other.blk_row_ptr_;
    bm.blk_row_col_ = other.blk_row_col_;
    bm.blk_row_pos_ = other.blk_row_pos_;
    bm.blocks_.reserve(other.blocks_.size());
    for (const CscT<U>& blk : other.blocks_)
      bm.blocks_.push_back(CscT<V>::template converted_from<U>(blk));
    return bm;
  }

  const BlockGrid& grid() const { return grid_; }
  index_t nb() const { return grid_.nb; }
  index_t n_blocks() const { return static_cast<index_t>(blocks_.size()); }

  /// First-layer CSC accessors (block columns).
  nnz_t col_begin(index_t bj) const { return blk_col_ptr_[static_cast<std::size_t>(bj)]; }
  nnz_t col_end(index_t bj) const { return blk_col_ptr_[static_cast<std::size_t>(bj) + 1]; }
  index_t block_row(nnz_t pos) const { return blk_row_idx_[static_cast<std::size_t>(pos)]; }

  /// Row-wise view of the first layer (needed by the scheduler to walk block
  /// rows): for block-row bi, positions into the block list.
  nnz_t row_begin(index_t bi) const { return blk_row_ptr_[static_cast<std::size_t>(bi)]; }
  nnz_t row_end(index_t bi) const { return blk_row_ptr_[static_cast<std::size_t>(bi) + 1]; }
  index_t row_block_col(nnz_t rpos) const { return blk_row_col_[static_cast<std::size_t>(rpos)]; }
  nnz_t row_block_pos(nnz_t rpos) const { return blk_row_pos_[static_cast<std::size_t>(rpos)]; }

  /// Position of block (bi, bj) in the block list, or -1 when empty.
  nnz_t find_block(index_t bi, index_t bj) const;

  CscT<V>& block(nnz_t pos) { return blocks_[static_cast<std::size_t>(pos)]; }
  const CscT<V>& block(nnz_t pos) const { return blocks_[static_cast<std::size_t>(pos)]; }

  index_t block_row_of(nnz_t pos) const { return blk_row_idx_[static_cast<std::size_t>(pos)]; }
  index_t block_col_of(nnz_t pos) const { return blk_col_of_[static_cast<std::size_t>(pos)]; }

  /// Reassemble the full matrix (tests / triangular solve).
  CscT<V> to_csc() const;

  /// Total stored nonzeros across blocks.
  nnz_t total_nnz() const;

 private:
  template <class U>
  friend class BlockMatrixT;

  BlockGrid grid_;
  std::vector<nnz_t> blk_col_ptr_;   // first layer: per block-column
  std::vector<index_t> blk_row_idx_; // block row of each stored block
  std::vector<index_t> blk_col_of_;  // block col of each stored block
  std::vector<CscT<V>> blocks_;      // second layer
  // row-wise first layer
  std::vector<nnz_t> blk_row_ptr_;
  std::vector<index_t> blk_row_col_;
  std::vector<nnz_t> blk_row_pos_;
};

using BlockMatrix = BlockMatrixT<value_t>;

}  // namespace pangulu::block
