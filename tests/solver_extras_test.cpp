#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "matgen/generators.hpp"
#include "solver/solver.hpp"
#include "sparse/dense.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"

namespace pangulu::solver {
namespace {

/// Dense LU determinant with partial pivoting — the reference for the
/// log-determinant API on small matrices.
void dense_determinant(const Csc& a, value_t* log_abs, int* sign) {
  Dense d = Dense::from_csc(a);
  const index_t n = d.n_rows();
  *log_abs = 0;
  *sign = 1;
  for (index_t k = 0; k < n; ++k) {
    index_t piv = k;
    for (index_t i = k + 1; i < n; ++i)
      if (std::abs(d(i, k)) > std::abs(d(piv, k))) piv = i;
    if (piv != k) {
      *sign = -*sign;
      for (index_t j = 0; j < n; ++j) std::swap(d(k, j), d(piv, j));
    }
    const value_t pkk = d(k, k);
    PANGULU_CHECK(pkk != 0, "singular test matrix");
    *log_abs += std::log(std::abs(pkk));
    if (pkk < 0) *sign = -*sign;
    for (index_t i = k + 1; i < n; ++i) {
      const value_t l = d(i, k) / pkk;
      if (l == value_t(0)) continue;
      for (index_t j = k + 1; j < n; ++j) d(i, j) -= l * d(k, j);
    }
  }
}

TEST(SolveStats, ReportsResidualAndIterations) {
  Csc a = matgen::grid2d_laplacian(12, 12);
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
  SolveStats st;
  ASSERT_TRUE(s.solve(b, x, &st).is_ok());
  EXPECT_LT(st.final_residual, 1e-12);
  EXPECT_GE(st.refine_iterations, 0);
  EXPECT_LE(st.refine_iterations, 3);
}

// The kDouble stop rule (LAPACK xGERFS): a column stops at FP64 roundoff
// or once a sweep fails to halve its residual. On these well-conditioned
// systems that is one or two sweeps, never the three-sweep cap.
TEST(SolveStats, DoubleRefinementStopsAtRoundoff) {
  const Csc mats[] = {matgen::fem3d(6, 6, 6, 3, 101),
                      matgen::grid2d_laplacian(40, 40),
                      matgen::circuit(1500, 3.0, 2.1, 680)};
  for (const Csc& a : mats) {
    SCOPED_TRACE("n=" + std::to_string(a.n_cols()));
    Solver s;
    ASSERT_TRUE(s.factorize(a, {}).is_ok());
    const index_t n = a.n_cols();
    const index_t k = 4;
    Rng rng(31);
    Dense b(n, k);
    for (index_t j = 0; j < k; ++j)
      for (index_t i = 0; i < n; ++i)
        b(i, j) = static_cast<value_t>(rng.uniform(-1.0, 1.0));
    Dense x;
    SolveStats worst;
    ASSERT_TRUE(s.solve_multi(b, &x, &worst).is_ok());
    EXPECT_LE(worst.refine_iterations, 2);
    EXPECT_LE(worst.final_residual, 1e-15);
  }
}

// refine_iters = 0 keeps the direct pass alone.
TEST(SolveStats, ZeroRefineItersTakesNoSweep) {
  Csc a = matgen::circuit(400, 3.0, 2.1, 9);
  Options opts;
  opts.refine_iters = 0;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  std::vector<value_t> x(b.size());
  SolveStats st;
  ASSERT_TRUE(s.solve(b, x, &st).is_ok());
  EXPECT_EQ(st.refine_iterations, 0);
  EXPECT_GT(st.final_residual, 0);
  EXPECT_LT(st.final_residual, 1e-12);
}

TEST(SolveMulti, MatchesColumnwiseSolves) {
  Csc a = matgen::circuit(150, 2.0, 2.2, 12);
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  const index_t k = 5;
  Dense b(a.n_rows(), k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < a.n_rows(); ++i)
      b(i, j) = std::sin(0.1 * i + j);
  Dense x;
  SolveStats worst;
  ASSERT_TRUE(s.solve_multi(b, &x, &worst).is_ok());
  EXPECT_LT(worst.final_residual, 1e-10);
  // Each column solves its own system.
  for (index_t j = 0; j < k; ++j) {
    std::vector<value_t> xj(static_cast<std::size_t>(a.n_cols()));
    std::vector<value_t> bj(static_cast<std::size_t>(a.n_rows()));
    for (index_t i = 0; i < a.n_rows(); ++i) {
      xj[static_cast<std::size_t>(i)] = x(i, j);
      bj[static_cast<std::size_t>(i)] = b(i, j);
    }
    EXPECT_LT(relative_residual(a, xj, bj), 1e-10) << "column " << j;
  }
}

TEST(SolveMulti, RejectsWrongRows) {
  Csc a = matgen::grid2d_laplacian(6, 6);
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  Dense b(35, 2);
  Dense x;
  EXPECT_FALSE(s.solve_multi(b, &x).is_ok());
}

class DeterminantP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminantP, MatchesDenseReference) {
  Csc a = matgen::random_sparse(25, 3, GetParam());
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  if (s.stats().sim.perturbed_pivots > 0) GTEST_SKIP() << "perturbed pivots";
  value_t got_log = 0, want_log = 0;
  int got_sign = 0, want_sign = 0;
  ASSERT_TRUE(s.log_abs_determinant(&got_log, &got_sign).is_ok());
  dense_determinant(a, &want_log, &want_sign);
  EXPECT_NEAR(got_log, want_log, 1e-6 * (1 + std::abs(want_log)));
  EXPECT_EQ(got_sign, want_sign);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminantP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Determinant, IdentityIsZeroLogPositive) {
  Coo coo(6, 6);
  for (index_t i = 0; i < 6; ++i) coo.add(i, i, 1.0);
  Solver s;
  ASSERT_TRUE(s.factorize(Csc::from_coo(coo), {}).is_ok());
  value_t log_abs = 99;
  int sign = 0;
  ASSERT_TRUE(s.log_abs_determinant(&log_abs, &sign).is_ok());
  EXPECT_NEAR(log_abs, 0.0, 1e-10);
  EXPECT_EQ(sign, 1);
}

TEST(Determinant, BeforeFactorizeFails) {
  Solver s;
  value_t l;
  int sg;
  EXPECT_FALSE(s.log_abs_determinant(&l, &sg).is_ok());
}

TEST(Solver, StructurallySingularMatrixIsRejected) {
  // Column 3 is entirely empty: MC64 must report structural singularity.
  Coo coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  coo.add(0, 1, 0.5);
  Csc a = Csc::from_coo(coo);
  Solver s;
  Status st = s.factorize(a, {});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kNumericalError);
}

TEST(Solver, NumericallySingularMatrixSolvableViaPerturbation) {
  // Rank-deficient 2x2 block embedded in an identity: static pivoting
  // perturbs the zero pivot and refinement reports a poor residual rather
  // than crashing.
  Coo coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 1.0);  // rows 0,1 identical -> singular
  coo.add(2, 2, 1.0);
  coo.add(3, 3, 1.0);
  Solver s;
  Options opts;
  opts.reorder.use_mc64 = false;
  opts.reorder.fill_reducing = ordering::FillReducing::kNatural;
  ASSERT_TRUE(s.factorize(Csc::from_coo(coo), opts).is_ok());
  EXPECT_GT(s.stats().sim.perturbed_pivots, 0);
}

TEST(Solver, ModelTriangularSolveReportsBothSweeps) {
  // A compute-heavy matrix: on tiny problems message latency can make the
  // solve model exceed the factorisation, which is not the property under
  // test.
  Csc a = matgen::banded_random(400, 50, 0.5, 4, 2);
  Options opts;
  opts.n_ranks = 4;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  runtime::SimResult fwd, bwd;
  ASSERT_TRUE(s.model_triangular_solve(&fwd, &bwd).is_ok());
  EXPECT_GT(fwd.makespan, 0);
  EXPECT_GT(bwd.makespan, 0);
  // The solve phase is far cheaper than factorisation (O(nnz) vs O(flops)).
  EXPECT_LT(fwd.makespan + bwd.makespan, s.stats().sim.makespan);
  Solver unfactorized;
  EXPECT_FALSE(unfactorized.model_triangular_solve(&fwd, &bwd).is_ok());
}

TEST(Refactorize, NewValuesSamePatternSolveCorrectly) {
  Csc a = matgen::circuit(200, 2.0, 2.2, 55);
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());

  // Newton-style update: same pattern, perturbed values (keep dominance).
  Csc a2 = a;
  for (auto& v : a2.values_mut()) v *= 1.5;
  ASSERT_TRUE(s.refactorize(a2).is_ok());

  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a2.spmv(ones, b);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
  ASSERT_TRUE(s.solve(b, x).is_ok());
  EXPECT_LT(relative_residual(a2, x, b), 1e-9);
  for (value_t xi : x) EXPECT_NEAR(xi, 1.0, 1e-6);
}

TEST(Refactorize, MatchesFreshFactorizeSolution) {
  Csc a = matgen::grid2d_laplacian(14, 14);
  Csc a2 = a;
  for (auto& v : a2.values_mut()) v *= 0.7;

  Solver via_refactor;
  ASSERT_TRUE(via_refactor.factorize(a, {}).is_ok());
  ASSERT_TRUE(via_refactor.refactorize(a2).is_ok());

  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  for (index_t i = 0; i < a.n_rows(); ++i)
    b[static_cast<std::size_t>(i)] = 0.1 * i;
  std::vector<value_t> x1(static_cast<std::size_t>(a.n_cols()));
  ASSERT_TRUE(via_refactor.solve(b, x1).is_ok());

  Solver fresh;
  ASSERT_TRUE(fresh.factorize(a2, {}).is_ok());
  std::vector<value_t> x2(static_cast<std::size_t>(a.n_cols()));
  ASSERT_TRUE(fresh.solve(b, x2).is_ok());
  // Both are accurate solves of the same system (orderings may differ since
  // the fresh factorise reorders a2's values, so compare via residuals).
  EXPECT_LT(relative_residual(a2, x1, b), 1e-10);
  EXPECT_LT(relative_residual(a2, x2, b), 1e-10);
}

TEST(Refactorize, RejectsDifferentPattern) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  Csc other = matgen::random_sparse(64, 3, 1);
  EXPECT_EQ(s.refactorize(other).code(), StatusCode::kFailedPrecondition);
  Csc wrong_size = matgen::grid2d_laplacian(7, 7);
  EXPECT_FALSE(s.refactorize(wrong_size).is_ok());
}

TEST(Refactorize, BeforeFactorizeFails) {
  Solver s;
  EXPECT_FALSE(s.refactorize(matgen::grid2d_laplacian(4, 4)).is_ok());
}

TEST(Refactorize, RepeatedRefactorizeStaysStable) {
  Csc a = matgen::banded_random(200, 25, 0.4, 3, 9);
  Solver s;
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  Csc cur = a;
  for (int step = 1; step <= 4; ++step) {
    for (auto& v : cur.values_mut()) v *= 1.05;
    ASSERT_TRUE(s.refactorize(cur).is_ok()) << "step " << step;
    std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
    std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
    cur.spmv(ones, b);
    std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
    ASSERT_TRUE(s.solve(b, x).is_ok());
    EXPECT_LT(relative_residual(cur, x, b), 1e-9) << "step " << step;
  }
}

TEST(Solver, OneByOneMatrix) {
  Coo coo(1, 1);
  coo.add(0, 0, 4.0);
  Solver s;
  ASSERT_TRUE(s.factorize(Csc::from_coo(coo), {}).is_ok());
  std::vector<value_t> b = {8.0}, x = {0.0};
  ASSERT_TRUE(s.solve(b, x).is_ok());
  EXPECT_NEAR(x[0], 2.0, 1e-14);
}

}  // namespace
}  // namespace pangulu::solver
