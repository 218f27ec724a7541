#include "sparse/csc.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pangulu {

template <class V>
CscT<V> CscT<V>::from_coo(const CooT<V>& coo_in) {
  CooT<V> coo = coo_in;
  coo.sort_and_combine();
  CscT<V> m(coo.n_rows, coo.n_cols);
  m.row_idx_.resize(coo.entries.size());
  m.values_.resize(coo.entries.size());
  for (const auto& t : coo.entries) {
    PANGULU_CHECK(t.row >= 0 && t.row < coo.n_rows, "COO row out of range");
    PANGULU_CHECK(t.col >= 0 && t.col < coo.n_cols, "COO col out of range");
    m.col_ptr_[static_cast<std::size_t>(t.col) + 1]++;
  }
  for (index_t j = 0; j < coo.n_cols; ++j) {
    m.col_ptr_[static_cast<std::size_t>(j) + 1] +=
        m.col_ptr_[static_cast<std::size_t>(j)];
  }
  // Entries are already (col, row)-sorted, so a single pass fills in order.
  for (std::size_t i = 0; i < coo.entries.size(); ++i) {
    m.row_idx_[i] = coo.entries[i].row;
    m.values_[i] = coo.entries[i].value;
  }
  return m;
}

template <class V>
CscT<V> CscT<V>::from_parts(index_t rows, index_t cols,
                            std::vector<nnz_t> col_ptr,
                            std::vector<index_t> row_idx,
                            std::vector<V> values) {
  CscT<V> m;
  m.n_rows_ = rows;
  m.n_cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_idx_ = std::move(row_idx);
  m.values_ = std::move(values);
  m.validate().check();
  return m;
}

template <class V>
CscT<V> CscT<V>::from_parts_unchecked(index_t rows, index_t cols,
                                      std::vector<nnz_t> col_ptr,
                                      std::vector<index_t> row_idx,
                                      std::vector<V> values) {
  CscT<V> m;
  m.n_rows_ = rows;
  m.n_cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_idx_ = std::move(row_idx);
  m.values_ = std::move(values);
  return m;
}

template <class V>
double CscT<V>::density() const {
  if (n_rows_ == 0 || n_cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(n_rows_) * static_cast<double>(n_cols_));
}

template <class V>
nnz_t CscT<V>::find(index_t r, index_t c) const {
  nnz_t lo = col_begin(c), hi = col_end(c);
  auto first = row_idx_.begin() + lo;
  auto last = row_idx_.begin() + hi;
  auto it = std::lower_bound(first, last, r);
  if (it == last || *it != r) return -1;
  return lo + (it - first);
}

template <class V>
V CscT<V>::at(index_t r, index_t c) const {
  nnz_t p = find(r, c);
  return p < 0 ? V(0) : values_[static_cast<std::size_t>(p)];
}

template <class V>
void CscT<V>::spmv(std::span<const V> x, std::span<V> y) const {
  PANGULU_CHECK(static_cast<index_t>(x.size()) == n_cols_, "spmv x size");
  PANGULU_CHECK(static_cast<index_t>(y.size()) == n_rows_, "spmv y size");
  std::fill(y.begin(), y.end(), V(0));
  for (index_t j = 0; j < n_cols_; ++j) {
    const V xj = x[static_cast<std::size_t>(j)];
    if (xj == V(0)) continue;
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      y[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])] +=
          values_[static_cast<std::size_t>(p)] * xj;
    }
  }
}

template <class V>
CscT<V> CscT<V>::transpose() const {
  CscT<V> t(n_cols_, n_rows_);
  t.row_idx_.resize(row_idx_.size());
  t.values_.resize(values_.size());
  // Count entries per row of this matrix (= per column of the transpose).
  for (index_t r : row_idx_) t.col_ptr_[static_cast<std::size_t>(r) + 1]++;
  for (index_t j = 0; j < n_rows_; ++j)
    t.col_ptr_[static_cast<std::size_t>(j) + 1] +=
        t.col_ptr_[static_cast<std::size_t>(j)];
  std::vector<nnz_t> next(t.col_ptr_.begin(), t.col_ptr_.end() - 1);
  for (index_t j = 0; j < n_cols_; ++j) {
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      index_t r = row_idx_[static_cast<std::size_t>(p)];
      nnz_t q = next[static_cast<std::size_t>(r)]++;
      t.row_idx_[static_cast<std::size_t>(q)] = j;
      t.values_[static_cast<std::size_t>(q)] = values_[static_cast<std::size_t>(p)];
    }
  }
  // Columns of the transpose are filled in increasing row order already
  // (outer loop over j ascending), so the result is sorted.
  return t;
}

template <class V>
CscT<V> CscT<V>::permuted(std::span<const index_t> row_perm,
                          std::span<const index_t> col_perm) const {
  PANGULU_CHECK(static_cast<index_t>(row_perm.size()) == n_rows_, "row perm size");
  PANGULU_CHECK(static_cast<index_t>(col_perm.size()) == n_cols_, "col perm size");
  // Column c lands as column col_perm[c] with its rows relabelled and
  // re-sorted: the canonical CSC of the permuted entries without a global
  // triplet sort. Bijective maps send distinct entries to distinct slots.
  std::vector<index_t> old_col(static_cast<std::size_t>(n_cols_), -1);
  for (index_t c = 0; c < n_cols_; ++c) {
    const index_t c2 = col_perm[static_cast<std::size_t>(c)];
    PANGULU_CHECK(c2 >= 0 && c2 < n_cols_ && old_col[static_cast<std::size_t>(c2)] == -1,
                  "col perm is not a permutation");
    old_col[static_cast<std::size_t>(c2)] = c;
  }
  {
    std::vector<char> seen(static_cast<std::size_t>(n_rows_), 0);
    for (index_t r2 : row_perm) {
      PANGULU_CHECK(r2 >= 0 && r2 < n_rows_ && !seen[static_cast<std::size_t>(r2)],
                    "row perm is not a permutation");
      seen[static_cast<std::size_t>(r2)] = 1;
    }
  }
  CscT<V> m(n_rows_, n_cols_);
  m.row_idx_.resize(row_idx_.size());
  m.values_.resize(values_.size());
  std::vector<std::pair<index_t, V>> col;
  std::size_t q = 0;
  for (index_t c2 = 0; c2 < n_cols_; ++c2) {
    const index_t c = old_col[static_cast<std::size_t>(c2)];
    col.clear();
    for (nnz_t p = col_begin(c); p < col_end(c); ++p)
      col.emplace_back(row_perm[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])],
                       values_[static_cast<std::size_t>(p)]);
    std::sort(col.begin(), col.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [r, v] : col) {
      m.row_idx_[q] = r;
      m.values_[q] = v;
      ++q;
    }
    m.col_ptr_[static_cast<std::size_t>(c2) + 1] = static_cast<nnz_t>(q);
  }
  return m;
}

template <class V>
void CscT<V>::scale(std::span<const V> row_scale, std::span<const V> col_scale) {
  PANGULU_CHECK(static_cast<index_t>(row_scale.size()) == n_rows_, "row scale");
  PANGULU_CHECK(static_cast<index_t>(col_scale.size()) == n_cols_, "col scale");
  for (index_t j = 0; j < n_cols_; ++j) {
    const V cs = col_scale[static_cast<std::size_t>(j)];
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      V& v = values_[static_cast<std::size_t>(p)];
      v = scaled_entry(v, row_scale[static_cast<std::size_t>(
                              row_idx_[static_cast<std::size_t>(p)])],
                       cs);
    }
  }
}

template <class V>
CscT<V> CscT<V>::symmetrized() const {
  PANGULU_CHECK(n_rows_ == n_cols_, "symmetrize needs a square matrix");
  CooT<V> coo(n_rows_, n_cols_);
  coo.entries.reserve(2 * static_cast<std::size_t>(nnz()));
  for (index_t j = 0; j < n_cols_; ++j) {
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      index_t r = row_idx_[static_cast<std::size_t>(p)];
      V v = values_[static_cast<std::size_t>(p)];
      coo.add(r, j, v);
      if (r != j) coo.add(j, r, V(0));
    }
  }
  return from_coo(coo);
}

template <class V>
CscT<V> CscT<V>::with_full_diagonal() const {
  PANGULU_CHECK(n_rows_ == n_cols_, "needs a square matrix");
  CooT<V> coo(n_rows_, n_cols_);
  coo.entries.reserve(static_cast<std::size_t>(nnz()) +
                      static_cast<std::size_t>(n_rows_));
  for (index_t j = 0; j < n_cols_; ++j) {
    bool has_diag = false;
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      index_t r = row_idx_[static_cast<std::size_t>(p)];
      if (r == j) has_diag = true;
      coo.add(r, j, values_[static_cast<std::size_t>(p)]);
    }
    if (!has_diag) coo.add(j, j, V(0));
  }
  return from_coo(coo);
}

template <class V>
CscT<V> CscT<V>::sub_matrix(index_t r0, index_t r1, index_t c0,
                            index_t c1) const {
  PANGULU_CHECK(0 <= r0 && r0 <= r1 && r1 <= n_rows_, "row range");
  PANGULU_CHECK(0 <= c0 && c0 <= c1 && c1 <= n_cols_, "col range");
  CscT<V> s(r1 - r0, c1 - c0);
  // First pass: counts.
  for (index_t j = c0; j < c1; ++j) {
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      index_t r = row_idx_[static_cast<std::size_t>(p)];
      if (r >= r0 && r < r1) s.col_ptr_[static_cast<std::size_t>(j - c0) + 1]++;
    }
  }
  for (index_t j = 0; j < s.n_cols_; ++j)
    s.col_ptr_[static_cast<std::size_t>(j) + 1] +=
        s.col_ptr_[static_cast<std::size_t>(j)];
  s.row_idx_.resize(static_cast<std::size_t>(s.nnz()));
  s.values_.resize(static_cast<std::size_t>(s.nnz()));
  std::vector<nnz_t> next(s.col_ptr_.begin(), s.col_ptr_.end() - 1);
  for (index_t j = c0; j < c1; ++j) {
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      index_t r = row_idx_[static_cast<std::size_t>(p)];
      if (r >= r0 && r < r1) {
        nnz_t q = next[static_cast<std::size_t>(j - c0)]++;
        s.row_idx_[static_cast<std::size_t>(q)] = r - r0;
        s.values_[static_cast<std::size_t>(q)] = values_[static_cast<std::size_t>(p)];
      }
    }
  }
  return s;
}

template <class V>
CscT<V> CscT<V>::pattern_copy() const {
  CscT<V> c = *this;
  std::fill(c.values_.begin(), c.values_.end(), V(0));
  return c;
}

template <class V>
V CscT<V>::max_abs() const {
  V m = 0;
  for (V v : values_) m = std::max(m, std::abs(v));
  return m;
}

template <class V>
bool CscT<V>::approx_equal(const CscT<V>& other, V tol) const {
  if (n_rows_ != other.n_rows_ || n_cols_ != other.n_cols_) return false;
  // Compare as dense-equivalent: walk both patterns per column.
  for (index_t j = 0; j < n_cols_; ++j) {
    nnz_t pa = col_begin(j), pb = other.col_begin(j);
    const nnz_t ea = col_end(j), eb = other.col_end(j);
    while (pa < ea || pb < eb) {
      index_t ra = pa < ea ? row_idx_[static_cast<std::size_t>(pa)] : n_rows_;
      index_t rb = pb < eb ? other.row_idx_[static_cast<std::size_t>(pb)] : n_rows_;
      V va = 0, vb = 0;
      if (ra <= rb) va = values_[static_cast<std::size_t>(pa++)];
      if (rb <= ra) vb = other.values_[static_cast<std::size_t>(pb++)];
      V scale = std::max({std::abs(va), std::abs(vb), V(1)});
      if (std::abs(va - vb) > tol * scale) return false;
    }
  }
  return true;
}

template <class V>
bool CscT<V>::is_lower_triangular() const {
  for (index_t j = 0; j < n_cols_; ++j) {
    if (col_begin(j) < col_end(j) &&
        row_idx_[static_cast<std::size_t>(col_begin(j))] < j)
      return false;
  }
  return true;
}

template <class V>
bool CscT<V>::is_upper_triangular() const {
  for (index_t j = 0; j < n_cols_; ++j) {
    if (col_begin(j) < col_end(j) &&
        row_idx_[static_cast<std::size_t>(col_end(j)) - 1] > j)
      return false;
  }
  return true;
}

template <class V>
Status CscT<V>::validate() const {
  if (n_rows_ < 0 || n_cols_ < 0)
    return Status::invalid_argument("negative dimensions");
  if (col_ptr_.size() != static_cast<std::size_t>(n_cols_) + 1)
    return Status::invalid_argument("col_ptr size mismatch");
  if (col_ptr_.front() != 0) return Status::invalid_argument("col_ptr[0] != 0");
  for (index_t j = 0; j < n_cols_; ++j) {
    if (col_end(j) < col_begin(j))
      return Status::invalid_argument("col_ptr not monotone");
    for (nnz_t p = col_begin(j); p < col_end(j); ++p) {
      index_t r = row_idx_[static_cast<std::size_t>(p)];
      if (r < 0 || r >= n_rows_)
        return Status::out_of_range("row index out of range");
      if (p > col_begin(j) && row_idx_[static_cast<std::size_t>(p - 1)] >= r)
        return Status::invalid_argument("rows not strictly increasing");
    }
  }
  if (row_idx_.size() != static_cast<std::size_t>(nnz()) ||
      values_.size() != static_cast<std::size_t>(nnz()))
    return Status::invalid_argument("array size mismatch");
  return Status::ok();
}

template class CscT<float>;
template class CscT<double>;

}  // namespace pangulu
