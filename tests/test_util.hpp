// Shared helpers for the test suite: pattern-closure utilities that make
// randomly generated blocks valid kernel inputs. Inside the solver pipeline,
// symbolic factorisation guarantees patterns are closed under elimination;
// standalone kernel tests must establish the same invariant by hand so the
// sparse kernels and the dense references agree exactly.
#pragma once

#include <vector>

#include "kernels/selector.hpp"
#include "sparse/csc.hpp"
#include "symbolic/fill.hpp"

namespace pangulu::test {

/// Pattern of `a` closed under its own LU elimination (fill added as
/// explicit zeros): valid GETRF input.
inline Csc close_lu_pattern(const Csc& a) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_unsymmetric(a, /*use_pruning=*/false, &sym).check();
  return sym.filled;
}

/// Close B's column patterns under forward substitution with the unit-lower
/// part of `lu`: if row k is present in a column and L(r,k) != 0 (r > k),
/// row r must be present too.
inline Csc close_lower_solve_pattern(const Csc& lu, const Csc& b) {
  const index_t n = b.n_rows();
  Coo coo(b.n_rows(), b.n_cols());
  std::vector<char> present(static_cast<std::size_t>(n));
  for (index_t j = 0; j < b.n_cols(); ++j) {
    std::fill(present.begin(), present.end(), 0);
    for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p)
      present[static_cast<std::size_t>(
          b.row_idx()[static_cast<std::size_t>(p)])] = 1;
    // Ascending sweep reaches a fixpoint in one pass (L is lower-triangular).
    for (index_t k = 0; k < n; ++k) {
      if (!present[static_cast<std::size_t>(k)]) continue;
      for (nnz_t q = lu.col_begin(k); q < lu.col_end(k); ++q) {
        const index_t r = lu.row_idx()[static_cast<std::size_t>(q)];
        if (r > k) present[static_cast<std::size_t>(r)] = 1;
      }
    }
    for (index_t r = 0; r < n; ++r) {
      if (present[static_cast<std::size_t>(r)])
        coo.add(r, j, b.at(r, j));
    }
  }
  return Csc::from_coo(coo);
}

/// Close B's row patterns under backward substitution with the upper part
/// of `lu`: if column k is present in a row and U(k,m) != 0 (m > k), column
/// m must be present too.
inline Csc close_upper_solve_pattern(const Csc& lu, const Csc& b) {
  const index_t n = b.n_cols();
  Coo coo(b.n_rows(), b.n_cols());
  std::vector<char> present(static_cast<std::size_t>(n));
  Csc bt = b.transpose();  // rows of b as columns
  for (index_t i = 0; i < b.n_rows(); ++i) {
    std::fill(present.begin(), present.end(), 0);
    for (nnz_t p = bt.col_begin(i); p < bt.col_end(i); ++p)
      present[static_cast<std::size_t>(
          bt.row_idx()[static_cast<std::size_t>(p)])] = 1;
    for (index_t k = 0; k < n; ++k) {
      if (!present[static_cast<std::size_t>(k)]) continue;
      // U(k, m) entries live in columns m >= k of lu at row k.
      for (index_t m = k + 1; m < n; ++m) {
        if (lu.find(k, m) >= 0) present[static_cast<std::size_t>(m)] = 1;
      }
    }
    for (index_t m = 0; m < n; ++m) {
      if (present[static_cast<std::size_t>(m)])
        coo.add(i, m, b.at(i, m));
    }
  }
  return Csc::from_coo(coo);
}

/// C's pattern extended with pattern(A*B): valid SSSSM target.
inline Csc add_product_pattern(const Csc& a, const Csc& b, const Csc& c) {
  Coo coo(c.n_rows(), c.n_cols());
  for (index_t j = 0; j < c.n_cols(); ++j) {
    for (nnz_t p = c.col_begin(j); p < c.col_end(j); ++p)
      coo.add(c.row_idx()[static_cast<std::size_t>(p)], j,
              c.values()[static_cast<std::size_t>(p)]);
  }
  for (index_t j = 0; j < b.n_cols(); ++j) {
    for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
      const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
      for (nnz_t p = a.col_begin(k); p < a.col_end(k); ++p)
        coo.add(a.row_idx()[static_cast<std::size_t>(p)], j, value_t(0));
    }
  }
  return Csc::from_coo(coo);
}

/// A decision tree with every nnz/FLOP cut at 1 (the huge-diagonal guard
/// kept): every task gets its family's last G_ variant.
inline kernels::SelectorThresholds every_cut_at_one() {
  kernels::SelectorThresholds t;
  for (kernels::metric_t* cut :
       {&t.getrf_cpu_nnz, &t.getrf_gv1_nnz, &t.gessm_cv1_nnz, &t.gessm_cv2_nnz,
        &t.gessm_gv1_nnz, &t.gessm_gv4_nnz, &t.gessm_gv2_nnz, &t.tstrf_cv1_nnz,
        &t.tstrf_cv2_nnz, &t.tstrf_gv1_nnz, &t.tstrf_gv4_nnz, &t.tstrf_gv2_nnz,
        &t.ssssm_cv2_flops, &t.ssssm_cv3_flops, &t.ssssm_cv1_flops,
        &t.ssssm_gv1_flops})
    *cut = 1;
  return t;
}

}  // namespace pangulu::test
