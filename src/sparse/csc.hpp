// Compressed Sparse Column matrix — the workhorse container of the solver.
// Both storage layers of PanguLU's two-layer structure (Figure 6 of the
// paper) are CSC: blocks-of-the-matrix at the first layer, nonzeros-of-a-
// block at the second.
//
// The container is templated on its value type V (float/double) so the
// whole numeric stack instantiates at both precisions (DESIGN.md §14); the
// unsuffixed `Csc` alias keeps the historical FP64 spelling at every
// existing call site. Member definitions live in csc.cpp and are explicitly
// instantiated for float and double.
#pragma once

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace pangulu {

/// One scaled entry, v * (col_scale * row_scale): the single place the
/// rounding of row/column scaling is defined. CscT::scale (and through it
/// the reordering phase) and the solver's refactorisation both go through
/// it, so every path lands the same bits.
template <class V>
inline V scaled_entry(V v, V row_scale, V col_scale) {
  return v * (col_scale * row_scale);
}

template <class V>
class CscT {
 public:
  using value_type = V;

  CscT() = default;

  /// Empty matrix with the given shape.
  CscT(index_t rows, index_t cols)
      : n_rows_(rows), n_cols_(cols), col_ptr_(static_cast<std::size_t>(cols) + 1, 0) {}

  /// Build from COO. Duplicates are summed; rows sorted within each column.
  static CscT from_coo(const CooT<V>& coo);

  /// Build directly from raw arrays (validated: monotone pointers, in-range
  /// sorted row indices).
  static CscT from_parts(index_t rows, index_t cols, std::vector<nnz_t> col_ptr,
                         std::vector<index_t> row_idx, std::vector<V> values);

  /// As from_parts but without the O(nnz) validation pass — for internal
  /// construction sites that build the arrays in sorted order by design
  /// (e.g. the block-layout splitter on its hot path).
  static CscT from_parts_unchecked(index_t rows, index_t cols,
                                   std::vector<nnz_t> col_ptr,
                                   std::vector<index_t> row_idx,
                                   std::vector<V> values);

  /// Structure-preserving precision conversion: identical pattern arrays,
  /// values static_cast to V. float -> double is exact; double -> float is
  /// the down-conversion of the mixed-precision pipeline.
  template <class U>
  static CscT converted_from(const CscT<U>& other) {
    CscT m;
    m.n_rows_ = other.n_rows_;
    m.n_cols_ = other.n_cols_;
    m.col_ptr_ = other.col_ptr_;
    m.row_idx_ = other.row_idx_;
    m.values_.resize(other.values_.size());
    for (std::size_t i = 0; i < other.values_.size(); ++i)
      m.values_[i] = static_cast<V>(other.values_[i]);
    return m;
  }

  index_t n_rows() const { return n_rows_; }
  index_t n_cols() const { return n_cols_; }
  nnz_t nnz() const { return col_ptr_.empty() ? 0 : col_ptr_.back(); }

  std::span<const nnz_t> col_ptr() const { return col_ptr_; }
  std::span<const index_t> row_idx() const { return row_idx_; }
  std::span<const V> values() const { return values_; }
  std::span<V> values_mut() { return values_; }
  std::span<index_t> row_idx_mut() { return row_idx_; }
  std::vector<nnz_t>& col_ptr_mut() { return col_ptr_; }

  nnz_t col_begin(index_t j) const { return col_ptr_[static_cast<std::size_t>(j)]; }
  nnz_t col_end(index_t j) const { return col_ptr_[static_cast<std::size_t>(j) + 1]; }
  index_t col_nnz(index_t j) const {
    return static_cast<index_t>(col_end(j) - col_begin(j));
  }

  /// Density of the stored pattern relative to the dense rows*cols box.
  double density() const;

  /// Value at (r, c) or 0 when the entry is not stored. Binary search.
  V at(index_t r, index_t c) const;

  /// Position of (r, c) in row_idx/values, or -1. Binary search — the
  /// "Bin-search" addressing method of Table 1 in the paper.
  nnz_t find(index_t r, index_t c) const;

  /// y = A*x (y overwritten).
  void spmv(std::span<const V> x, std::span<V> y) const;

  /// Transposed matrix in CSC form (equivalently: this matrix viewed as CSR).
  CscT transpose() const;

  /// PAQ' style symmetric-application: result(i,j) = this(row_perm[i] -> i ...)
  /// Specifically: result(r2, c2) = A(r, c) where r2 = row_perm[r],
  /// c2 = col_perm[c]. Both perms map old index -> new index.
  CscT permuted(std::span<const index_t> row_perm,
                std::span<const index_t> col_perm) const;

  /// Scale: A(i,j) = scaled_entry(A(i,j), row_scale[i], col_scale[j]).
  void scale(std::span<const V> row_scale, std::span<const V> col_scale);

  /// Pattern of A + A^T (values summed; explicit zeros kept). Ensures a
  /// structurally symmetric matrix for ordering/symbolic factorisation.
  CscT symmetrized() const;

  /// Ensure every diagonal entry exists in the pattern (added as 0 when
  /// missing). The symbolic phase and GETRF both require stored diagonals.
  CscT with_full_diagonal() const;

  /// Extract the sub-matrix rows [r0, r1) x cols [c0, c1).
  CscT sub_matrix(index_t r0, index_t r1, index_t c0, index_t c1) const;

  /// Structure-only copy with all values zero.
  CscT pattern_copy() const;

  /// Max |a_ij| over the matrix.
  V max_abs() const;

  /// True when patterns are identical and values match within tol (absolute
  /// + relative mix).
  bool approx_equal(const CscT& other, V tol) const;

  /// True when (r,c) with r<c never stored / r>c never stored respectively.
  bool is_lower_triangular() const;
  bool is_upper_triangular() const;

  /// Internal invariant check: pointer monotonicity, sorted in-range rows.
  Status validate() const;

 private:
  template <class U>
  friend class CscT;

  index_t n_rows_ = 0;
  index_t n_cols_ = 0;
  std::vector<nnz_t> col_ptr_;
  std::vector<index_t> row_idx_;
  std::vector<V> values_;
};

using Csc = CscT<value_t>;

}  // namespace pangulu
