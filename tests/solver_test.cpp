#include <gtest/gtest.h>

#include "matgen/generators.hpp"
#include "solver/solver.hpp"
#include "sparse/ops.hpp"

namespace pangulu::solver {
namespace {

std::vector<value_t> make_rhs(const Csc& a) {
  // b = A * ones so the exact solution is known to be all-ones.
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  return b;
}

void check_solve(const Csc& a, const Options& opts, value_t tol = 1e-9) {
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  auto b = make_rhs(a);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 0.0);
  ASSERT_TRUE(s.solve(b, x).is_ok());
  EXPECT_LT(relative_residual(a, x, b), tol);
  for (value_t xi : x) EXPECT_NEAR(xi, 1.0, 1e-5);
}

TEST(Solver, SolvesGridLaplacian) {
  check_solve(matgen::grid2d_laplacian(20, 20), Options{});
}

TEST(Solver, SolvesCircuitMatrix) {
  check_solve(matgen::circuit(300, 2.0, 2.2, 17), Options{});
}

TEST(Solver, SolvesUnsymmetricCage) {
  check_solve(matgen::cage_style(200, 3, 9), Options{});
}

TEST(Solver, SolvesKkt) { check_solve(matgen::kkt(5, 5, 5, 2), Options{}); }

TEST(Solver, SolvesFem) { check_solve(matgen::fem3d(4, 4, 4, 2, 3), Options{}); }

class SolverRanksP : public ::testing::TestWithParam<rank_t> {};

TEST_P(SolverRanksP, MultiRankMatchesResidualBound) {
  Options opts;
  opts.n_ranks = GetParam();
  check_solve(matgen::grid2d_laplacian(16, 16), opts);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SolverRanksP,
                         ::testing::Values<rank_t>(1, 2, 4, 8, 16));

TEST(Solver, AllOrderingChoicesWork) {
  Csc a = matgen::grid2d_laplacian(12, 12);
  for (auto fr : {ordering::FillReducing::kNestedDissection,
                  ordering::FillReducing::kMinDegree,
                  ordering::FillReducing::kAmd,
                  ordering::FillReducing::kRcm,
                  ordering::FillReducing::kNatural,
                  ordering::FillReducing::kAuto}) {
    Options opts;
    opts.reorder.fill_reducing = fr;
    check_solve(a, opts);
  }
}

TEST(Solver, WorksWithoutMc64OnDominantMatrix) {
  Options opts;
  opts.reorder.use_mc64 = false;
  check_solve(matgen::grid2d_laplacian(14, 14), opts);
}

TEST(Solver, LevelSetScheduleGivesSameAnswer) {
  Options opts;
  opts.schedule = runtime::ScheduleMode::kLevelSet;
  opts.n_ranks = 4;
  check_solve(matgen::circuit(200, 2.0, 2.2, 31), opts);
}

TEST(Solver, FixedKernelPoliciesWork) {
  for (auto policy :
       {runtime::KernelPolicy::kFixedCpu, runtime::KernelPolicy::kFixedGpu}) {
    Options opts;
    opts.policy = policy;
    check_solve(matgen::grid2d_laplacian(10, 10), opts);
  }
}

TEST(Solver, ExplicitBlockSizeRespected) {
  Options opts;
  opts.block_size = 20;
  Solver s;
  Csc a = matgen::grid2d_laplacian(15, 15);
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  EXPECT_EQ(s.stats().block_size, 20);
  EXPECT_EQ(s.stats().nb, (225 + 19) / 20);
}

TEST(Solver, StatsArePopulated) {
  Solver s;
  Csc a = matgen::grid2d_laplacian(16, 16);
  Options opts;
  opts.n_ranks = 4;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const auto& st = s.stats();
  EXPECT_EQ(st.n, 256);
  EXPECT_EQ(st.nnz_a, a.nnz());
  EXPECT_GT(st.nnz_lu, a.nnz());
  EXPECT_GT(st.flops, 0);
  EXPECT_GT(st.n_tasks, 0u);
  EXPECT_GT(st.sim.makespan, 0);
  // Block-wise task weights approximate the scalar FLOP count (panel-solve
  // weights are estimates); they must stay within a factor of ~2.
  EXPECT_GT(st.sim.total_flops, 0.5 * st.flops);
  EXPECT_LT(st.sim.total_flops, 2.0 * st.flops);
}

TEST(Solver, SolveBeforeFactorizeFails) {
  Solver s;
  std::vector<value_t> b(4, 1.0), x(4);
  EXPECT_FALSE(s.solve(b, x).is_ok());
}

TEST(Solver, RejectsRectangular) {
  Solver s;
  EXPECT_FALSE(s.factorize(matgen::random_rect(4, 5, 0.5, 1), {}).is_ok());
}

TEST(Solver, RejectsWrongRhsSize) {
  Solver s;
  Csc a = matgen::grid2d_laplacian(4, 4);
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  std::vector<value_t> b(15, 1.0), x(16);
  EXPECT_FALSE(s.solve(b, x).is_ok());
}

TEST(Solver, RepeatedSolvesReuseFactors) {
  Solver s;
  Csc a = matgen::circuit(120, 2.0, 2.2, 3);
  ASSERT_TRUE(s.factorize(a, {}).is_ok());
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<value_t> xref(static_cast<std::size_t>(a.n_cols()));
    for (index_t i = 0; i < a.n_cols(); ++i)
      xref[static_cast<std::size_t>(i)] = 0.5 + 0.01 * i * (trial + 1);
    std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
    a.spmv(xref, b);
    std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
    ASSERT_TRUE(s.solve(b, x).is_ok());
    EXPECT_LT(relative_residual(a, x, b), 1e-9);
  }
}

TEST(Solver, PaperMatricesSmallScaleAllSolve) {
  // Every generator class goes through the full pipeline at test scale.
  for (const auto& name : matgen::paper_matrix_names()) {
    SCOPED_TRACE(name);
    Csc a = matgen::paper_matrix(name, 0.22);
    Options opts;
    opts.n_ranks = 4;
    Solver s;
    ASSERT_TRUE(s.factorize(a, opts).is_ok()) << name;
    auto b = make_rhs(a);
    std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
    ASSERT_TRUE(s.solve(b, x).is_ok()) << name;
    EXPECT_LT(relative_residual(a, x, b), 1e-8) << name;
  }
}

}  // namespace
}  // namespace pangulu::solver
