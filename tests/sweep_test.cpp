// The triangular sweeps against an ordered reference: the entry-by-entry
// walk over every column of every block that the column lists replaced.
// Each sweep must reproduce it bit for bit, at FP32 and FP64, on blocks of
// every column kind and on right-hand sides holding exact zeros and -0,
// both on one vector and on every column of a row-interleaved panel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "matgen/generators.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace pangulu::solver {
namespace {

// ---- The ordered reference -------------------------------------------------

/// y -= Block * x: every column, every entry in row order, zero x skipped.
template <class V>
void ref_spmv_sub(const CscT<V>& blk, const V* x, V* y) {
  for (index_t j = 0; j < blk.n_cols(); ++j) {
    const V xj = x[j];
    if (xj == V(0)) continue;
    for (nnz_t p = blk.col_begin(j); p < blk.col_end(j); ++p)
      y[blk.row_idx()[static_cast<std::size_t>(p)]] -=
          blk.values()[static_cast<std::size_t>(p)] * xj;
  }
}

/// y -= Block^T * x: one row-order dot per column.
template <class V>
void ref_spmv_t_sub(const CscT<V>& blk, const V* x, V* y) {
  for (index_t j = 0; j < blk.n_cols(); ++j) {
    V acc = 0;
    for (nnz_t p = blk.col_begin(j); p < blk.col_end(j); ++p)
      acc += blk.values()[static_cast<std::size_t>(p)] *
             x[blk.row_idx()[static_cast<std::size_t>(p)]];
    y[j] -= acc;
  }
}

template <class V>
void ref_diag_lower(const CscT<V>& d, V* x) {
  for (index_t j = 0; j < d.n_cols(); ++j) {
    const V xj = x[j];
    if (xj == V(0)) continue;
    for (nnz_t p = d.col_begin(j); p < d.col_end(j); ++p) {
      const index_t r = d.row_idx()[static_cast<std::size_t>(p)];
      if (r > j) x[r] -= d.values()[static_cast<std::size_t>(p)] * xj;
    }
  }
}

template <class V>
void ref_diag_upper(const CscT<V>& d, V* x) {
  for (index_t j = d.n_cols() - 1; j >= 0; --j) {
    const nnz_t dp = d.find(j, j);
    x[j] /= d.values()[static_cast<std::size_t>(dp)];
    const V xj = x[j];
    if (xj == V(0)) continue;
    for (nnz_t p = d.col_begin(j); p < dp; ++p)
      x[d.row_idx()[static_cast<std::size_t>(p)]] -=
          d.values()[static_cast<std::size_t>(p)] * xj;
  }
}

template <class V>
void ref_diag_upper_t(const CscT<V>& d, V* x) {
  for (index_t j = 0; j < d.n_cols(); ++j) {
    V acc = 0;
    V djj = 0;
    for (nnz_t p = d.col_begin(j); p < d.col_end(j); ++p) {
      const index_t r = d.row_idx()[static_cast<std::size_t>(p)];
      if (r < j)
        acc += d.values()[static_cast<std::size_t>(p)] * x[r];
      else if (r == j)
        djj = d.values()[static_cast<std::size_t>(p)];
    }
    x[j] = (x[j] - acc) / djj;
  }
}

template <class V>
void ref_diag_lower_t(const CscT<V>& d, V* x) {
  for (index_t j = d.n_cols() - 1; j >= 0; --j) {
    V acc = 0;
    for (nnz_t p = d.col_begin(j); p < d.col_end(j); ++p) {
      const index_t r = d.row_idx()[static_cast<std::size_t>(p)];
      if (r > j) acc += d.values()[static_cast<std::size_t>(p)] * x[r];
    }
    x[j] -= acc;
  }
}

enum class Sweep { kLower, kUpper, kUpperT, kLowerT };
constexpr Sweep kSweeps[] = {Sweep::kLower, Sweep::kUpper, Sweep::kUpperT,
                             Sweep::kLowerT};

std::string name(Sweep s) {
  switch (s) {
    case Sweep::kLower: return "lower";
    case Sweep::kUpper: return "upper";
    case Sweep::kUpperT: return "upper-transpose";
    case Sweep::kLowerT: return "lower-transpose";
  }
  return "?";
}

/// One whole sweep of the reference: the blocks of each block row (L, U) or
/// block column (U^T, L^T) in the order the plan lists them, then the
/// diagonal block.
template <class V>
void ref_sweep(const block::BlockMatrixT<V>& f, Sweep s, std::vector<V>& x) {
  const auto& grid = f.grid();
  const index_t nb = f.nb();
  const bool ascending = s == Sweep::kLower || s == Sweep::kUpperT;
  for (index_t i = 0; i < nb; ++i) {
    const index_t bk = ascending ? i : nb - 1 - i;
    V* seg = x.data() + grid.block_start(bk);
    if (s == Sweep::kLower || s == Sweep::kUpper) {
      for (nnz_t rp = f.row_begin(bk); rp < f.row_end(bk); ++rp) {
        const index_t bj = f.row_block_col(rp);
        if (s == Sweep::kLower ? bj < bk : bj > bk)
          ref_spmv_sub(f.block(f.row_block_pos(rp)),
                       x.data() + grid.block_start(bj), seg);
      }
    } else {
      for (nnz_t p = f.col_begin(bk); p < f.col_end(bk); ++p) {
        const index_t bi = f.block_row(p);
        if (s == Sweep::kUpperT ? bi < bk : bi > bk)
          ref_spmv_t_sub(f.block(p), x.data() + grid.block_start(bi), seg);
      }
    }
    const auto& d = f.block(f.find_block(bk, bk));
    switch (s) {
      case Sweep::kLower: ref_diag_lower(d, seg); break;
      case Sweep::kUpper: ref_diag_upper(d, seg); break;
      case Sweep::kUpperT: ref_diag_upper_t(d, seg); break;
      case Sweep::kLowerT: ref_diag_lower_t(d, seg); break;
    }
  }
}

template <class V>
Status run_sweep(const block::BlockMatrixT<V>& f, const SolvePlan& plan,
                 Sweep s, std::vector<V>& x) {
  switch (s) {
    case Sweep::kLower: return block_lower_solve(f, plan, std::span<V>(x));
    case Sweep::kUpper: return block_upper_solve(f, plan, std::span<V>(x));
    case Sweep::kUpperT:
      return block_upper_transpose_solve(f, plan, std::span<V>(x));
    case Sweep::kLowerT:
      return block_lower_transpose_solve(f, plan, std::span<V>(x));
  }
  return Status::ok();
}

/// The same sweep on an n x k row-interleaved panel, stride k.
template <class V>
Status run_panel_sweep(const block::BlockMatrixT<V>& f, const SolvePlan& plan,
                       Sweep s, std::vector<V>& x, index_t k) {
  switch (s) {
    case Sweep::kLower: return block_lower_solve_multi(f, plan, x.data(), k, k);
    case Sweep::kUpper: return block_upper_solve_multi(f, plan, x.data(), k, k);
    case Sweep::kUpperT:
      return block_upper_transpose_solve_multi(f, plan, x.data(), k, k);
    case Sweep::kLowerT:
      return block_lower_transpose_solve_multi(f, plan, x.data(), k, k);
  }
  return Status::ok();
}

// ---- Inputs ----------------------------------------------------------------

/// A value in (-1, 1) scaled by 2^-k, k uniform in [0, 20]: magnitudes
/// that far apart make the rounding of a sum depend on its order, so an
/// update applied out of order changes the bits.
double spread_value(Rng& rng) {
  return std::ldexp(rng.uniform(-1, 1), -rng.uniform_index(0, 20));
}

/// Right-hand side with a share `zero_below` of exact zeros and
/// `neg_zero_below - zero_below` of -0 (by default about a quarter and a
/// sixth).
template <class V>
std::vector<V> rhs_with_zeros(index_t n, std::uint64_t seed,
                              double zero_below = 0.25,
                              double neg_zero_below = 0.42) {
  Rng rng(seed);
  std::vector<V> x(static_cast<std::size_t>(n));
  for (V& v : x) {
    const double u = rng.uniform();
    v = u < zero_below       ? V(0)
        : u < neg_zero_below ? -V(0)
                             : static_cast<V>(spread_value(rng));
  }
  return x;
}

template <class V>
bool same_bits(const std::vector<V>& a, const std::vector<V>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0;
}

/// Every sweep from a few right-hand sides against the reference, bitwise.
/// Returns the number of finite outputs checked, so a caller can assert
/// the comparison was not over infinities.
template <class V>
index_t expect_matches_reference(const block::BlockMatrixT<V>& f,
                                 const SolvePlan& plan, std::uint64_t seed) {
  index_t finite = 0;
  for (Sweep s : kSweeps) {
    SCOPED_TRACE(name(s));
    for (std::uint64_t r = 0; r < 6; ++r) {
      std::vector<V> want = rhs_with_zeros<V>(f.grid().n, seed + r);
      std::vector<V> got = want;
      ref_sweep(f, s, want);
      EXPECT_TRUE(run_sweep(f, plan, s, got).is_ok());
      EXPECT_TRUE(same_bits(want, got)) << "rhs " << r;
      for (V v : got) finite += std::isfinite(v) ? 1 : 0;
    }
  }
  return finite;
}

/// Every sweep on row-interleaved panels of k = 1, 2, 3, 4, 8 and 19
/// columns against the reference run on each column alone, bitwise: each
/// lane width the kernels special-case, one they do not, and a panel wider
/// than one 16-lane chunk. Each column has its own shares of exact zeros
/// and -0; at odd k > 1 column 1 is all zeros (+0 and -0), so every row of
/// the panel has a zero lane, and at even k rows with every lane non-zero
/// take the kernels' all-live path. Returns the number of finite outputs
/// checked.
template <class V>
index_t expect_panels_match_reference(const block::BlockMatrixT<V>& f,
                                      const SolvePlan& plan,
                                      std::uint64_t seed) {
  const index_t n = f.grid().n;
  index_t finite = 0;
  for (index_t k : {1, 2, 3, 4, 8, 19}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    std::vector<std::vector<V>> cols;
    for (index_t c = 0; c < k; ++c) {
      const bool all_zero = c == 1 && k % 2 == 1;
      const double zeros = all_zero ? 0.5 : 0.07 * (c % 4);
      const double neg_zeros = all_zero ? 1.0 : zeros + 0.05 * ((c + 1) % 3);
      cols.push_back(rhs_with_zeros<V>(
          n, seed + 10 * static_cast<std::uint64_t>(c), zeros, neg_zeros));
    }
    for (Sweep s : kSweeps) {
      SCOPED_TRACE(name(s));
      std::vector<V> panel(static_cast<std::size_t>(n * k));
      for (index_t c = 0; c < k; ++c)
        for (index_t r = 0; r < n; ++r)
          panel[static_cast<std::size_t>(r * k + c)] =
              cols[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)];
      EXPECT_TRUE(run_panel_sweep(f, plan, s, panel, k).is_ok());
      for (index_t c = 0; c < k; ++c) {
        std::vector<V> want = cols[static_cast<std::size_t>(c)];
        ref_sweep(f, s, want);
        std::vector<V> got(static_cast<std::size_t>(n));
        for (index_t r = 0; r < n; ++r)
          got[static_cast<std::size_t>(r)] =
              panel[static_cast<std::size_t>(r * k + c)];
        EXPECT_TRUE(same_bits(want, got)) << "column " << c;
        for (V v : got) finite += std::isfinite(v) ? 1 : 0;
      }
    }
  }
  return finite;
}

/// An n x n matrix whose blocks hold every column kind: for each column and
/// block row, the column's rows in that block are empty, dense, one
/// gap-free run or a gapped set. The diagonal is always present and
/// dominant, so each sweep stays finite on the raw values.
Csc column_kinds_matrix(index_t n, index_t bs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nnz_t> col_ptr{0};
  std::vector<index_t> rows;
  std::vector<value_t> vals;
  for (index_t j = 0; j < n; ++j) {
    for (index_t r0 = 0; r0 < n; r0 += bs) {
      const index_t len = std::min(bs, n - r0);
      std::vector<char> on(static_cast<std::size_t>(len), 0);
      switch (rng.uniform_index(0, 3)) {
        case 0: break;
        case 1: std::fill(on.begin(), on.end(), 1); break;
        case 2: {
          const index_t a = rng.uniform_index(0, len - 1);
          const index_t b = rng.uniform_index(a, len - 1);
          for (index_t i = a; i <= b; ++i) on[static_cast<std::size_t>(i)] = 1;
          break;
        }
        default:
          for (index_t i = 0; i < len; i += 2) on[static_cast<std::size_t>(i)] = 1;
          if (len > 3) on[static_cast<std::size_t>(len - 1)] = 1;
          break;
      }
      if (j >= r0 && j < r0 + len) on[static_cast<std::size_t>(j - r0)] = 1;
      for (index_t i = 0; i < len; ++i) {
        if (!on[static_cast<std::size_t>(i)]) continue;
        rows.push_back(r0 + i);
        vals.push_back(r0 + i == j ? (rng.uniform() < 0.5 ? -2.0 : 2.0) +
                                         rng.uniform(-0.5, 0.5)
                                   : 0.05 * spread_value(rng));
      }
    }
    col_ptr.push_back(static_cast<nnz_t>(rows.size()));
  }
  return Csc::from_parts(n, n, std::move(col_ptr), std::move(rows),
                         std::move(vals));
}

// ---- Tests -----------------------------------------------------------------

TEST(SweepOrderedReference, EveryColumnKindAtBothPrecisions) {
  for (index_t bs : {8, 32}) {
    SCOPED_TRACE("block size " + std::to_string(bs));
    const Csc a = column_kinds_matrix(70, bs, 11 + static_cast<std::uint64_t>(bs));
    const auto f64 = block::BlockMatrix::from_filled(a, bs);
    const auto f32 = block::BlockMatrixT<float>::converted_from(f64);
    const SolvePlan plan = SolvePlan::build(f64);
    // The inputs do hold every kind of off-diagonal column.
    index_t dense = 0, run = 0, gapped = 0, empty = 0;
    for (nnz_t pos = 0; pos < f64.n_blocks(); ++pos) {
      const auto& b = f64.block(pos);
      for (index_t j = 0; j < b.n_cols(); ++j) {
        const nnz_t len = b.col_end(j) - b.col_begin(j);
        if (len == 0) {
          ++empty;
          continue;
        }
        const auto rows = b.row_idx();
        const index_t span =
            rows[static_cast<std::size_t>(b.col_end(j) - 1)] -
            rows[static_cast<std::size_t>(b.col_begin(j))] + 1;
        if (span != len) ++gapped;
        else if (len == b.n_rows()) ++dense;
        else ++run;
      }
    }
    EXPECT_GT(dense, 0);
    EXPECT_GT(run, 0);
    EXPECT_GT(gapped, 0);
    EXPECT_GT(empty, 0);
    EXPECT_GT(expect_matches_reference(f64, plan, 100), 0);
    EXPECT_GT(expect_matches_reference(f32, plan, 200), 0);
    EXPECT_GT(expect_panels_match_reference(f64, plan, 300), 0);
    EXPECT_GT(expect_panels_match_reference(f32, plan, 400), 0);
  }
}

struct Family {
  std::string name;
  Csc a;
  index_t block_size;  // 0: the solver's choice
};

std::vector<Family> factored_families() {
  return {
      {"fem3d 12^3 x 3", matgen::fem3d(12, 12, 12, 3, 101), 0},
      {"circuit 6000", matgen::circuit(6000, 3.0, 2.1, 680), 0},
      {"grid2d 200^2", matgen::grid2d_laplacian(200, 200), 0},
      {"cage 300 bs 8", matgen::cage_style(300, 3, 9), 8},
      {"cage 300 bs 32", matgen::cage_style(300, 3, 9), 32},
      {"banded 400 bs 8", matgen::banded_random(400, 12, 0.4, 2, 5), 8},
      {"banded 400 bs 32", matgen::banded_random(400, 12, 0.4, 2, 5), 32},
  };
}

TEST(SweepOrderedReference, FactoredMatricesAtBothPrecisions) {
  for (const Family& fam : factored_families()) {
    SCOPED_TRACE(fam.name);
    for (kernels::Precision prec :
         {kernels::Precision::kDouble, kernels::Precision::kSingle}) {
      Options opts;
      opts.n_ranks = 4;
      opts.block_size = fam.block_size;
      opts.precision = prec;
      Solver s;
      ASSERT_TRUE(s.factorize(fam.a, opts).is_ok());
      const SolvePlan plan = SolvePlan::build(s.factors());
      if (prec == kernels::Precision::kDouble) {
        EXPECT_GT(expect_matches_reference(s.factors(), plan, 7), 0);
        EXPECT_GT(expect_panels_match_reference(s.factors(), plan, 17), 0);
      } else {
        EXPECT_GT(expect_matches_reference(s.factors32(), plan, 7), 0);
        EXPECT_GT(expect_panels_match_reference(s.factors32(), plan, 17), 0);
      }
    }
  }
}

TEST(SweepPlan, Fp64TwinPlanDrivesFp32SweepsBitwise) {
  // perfbench's usage: one plan from the FP64 factors drives the FP32
  // sweeps. The plan is pure structure, so it equals the FP32 twin's.
  Options opts;
  opts.n_ranks = 4;
  opts.precision = kernels::Precision::kMixedIR;
  Solver s;
  ASSERT_TRUE(s.factorize(matgen::grid2d_laplacian(60, 60), opts).is_ok());
  const SolvePlan p64 = SolvePlan::build(s.factors());
  const SolvePlan p32 = SolvePlan::build(s.factors32());
  const runtime::ColumnLists& l64 = p64.lists;
  const runtime::ColumnLists& l32 = p32.lists;
  ASSERT_EQ(l64.cols.size(), l32.cols.size());
  for (std::size_t i = 0; i < l64.cols.size(); ++i) {
    EXPECT_EQ(l64.cols[i].col, l32.cols[i].col);
    EXPECT_EQ(l64.cols[i].first, l32.cols[i].first);
  }
  EXPECT_EQ(l64.col_ptr, l32.col_ptr);
  EXPECT_EQ(l64.diag_at, l32.diag_at);
  for (Sweep sw : kSweeps) {
    SCOPED_TRACE(name(sw));
    std::vector<float> a = rhs_with_zeros<float>(s.factors32().grid().n, 3);
    std::vector<float> b = a;
    ASSERT_TRUE(run_sweep(s.factors32(), p64, sw, a).is_ok());
    ASSERT_TRUE(run_sweep(s.factors32(), p32, sw, b).is_ok());
    EXPECT_TRUE(same_bits(a, b));
  }
}

}  // namespace
}  // namespace pangulu::solver
