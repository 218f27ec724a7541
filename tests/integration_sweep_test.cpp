// Cross-configuration integration sweep: every combination of scheduler,
// kernel policy, fill-reducing ordering and rank count must produce a
// correct solve on matrices from different structural classes. This is the
// suite that catches interactions the per-module tests cannot.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/supernodal.hpp"
#include "matgen/generators.hpp"
#include "solver/solver.hpp"
#include "sparse/ops.hpp"

namespace pangulu::solver {
namespace {

Csc matrix_for(int cls) {
  switch (cls) {
    case 0: return matgen::grid2d_laplacian(12, 12);        // very sparse
    case 1: return matgen::circuit(180, 2.0, 2.2, 99);      // irregular
    case 2: return matgen::banded_random(150, 25, 0.5, 3, 4);  // dense-ish
    default: return matgen::cage_style(160, 3, 8);          // unsymmetric
  }
}

class SweepP
    : public ::testing::TestWithParam<std::tuple<
          int, runtime::ScheduleMode, runtime::KernelPolicy, rank_t>> {};

TEST_P(SweepP, FullPipelineSolves) {
  auto [cls, schedule, policy, ranks] = GetParam();
  Csc a = matrix_for(cls);
  Options opts;
  opts.schedule = schedule;
  opts.policy = policy;
  opts.n_ranks = ranks;

  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
  ASSERT_TRUE(s.solve(b, x).is_ok());
  EXPECT_LT(relative_residual(a, x, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SweepP,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(runtime::ScheduleMode::kSyncFree,
                          runtime::ScheduleMode::kLevelSet),
        ::testing::Values(runtime::KernelPolicy::kAdaptive,
                          runtime::KernelPolicy::kFixedCpu,
                          runtime::KernelPolicy::kFixedGpu),
        ::testing::Values<rank_t>(1, 3, 8)));

class OrderingSweepP
    : public ::testing::TestWithParam<std::tuple<int, ordering::FillReducing>> {
};

TEST_P(OrderingSweepP, EveryOrderingSolvesEveryClass) {
  auto [cls, fill_reducing] = GetParam();
  Csc a = matrix_for(cls);
  Options opts;
  opts.reorder.fill_reducing = fill_reducing;
  opts.n_ranks = 2;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
  ASSERT_TRUE(s.solve(b, x).is_ok());
  EXPECT_LT(relative_residual(a, x, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderings, OrderingSweepP,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(ordering::FillReducing::kNestedDissection,
                          ordering::FillReducing::kMinDegree,
                          ordering::FillReducing::kAmd,
                          ordering::FillReducing::kRcm,
                          ordering::FillReducing::kNatural,
                          ordering::FillReducing::kAuto)));

TEST(CrossSolver, BothSolversAgreeOnAllPaperClasses) {
  for (const auto& name : matgen::paper_matrix_names()) {
    SCOPED_TRACE(name);
    Csc a = matgen::paper_matrix(name, 0.18);
    std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
    std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
    a.spmv(ones, b);

    Solver pangu;
    ASSERT_TRUE(pangu.factorize(a, {}).is_ok());
    std::vector<value_t> xp(static_cast<std::size_t>(a.n_cols()));
    ASSERT_TRUE(pangu.solve(b, xp).is_ok());

    baseline::SupernodalSolver base;
    ASSERT_TRUE(base.factorize(a, {}).is_ok());
    std::vector<value_t> xb(static_cast<std::size_t>(a.n_cols()));
    ASSERT_TRUE(base.solve(b, xb).is_ok());

    for (std::size_t i = 0; i < xp.size(); ++i)
      EXPECT_NEAR(xp[i], xb[i], 2e-5) << name << " index " << i;
  }
}

TEST(BlockSizeSweep, SolvesAtExtremeBlockSizes) {
  Csc a = matgen::circuit(120, 2.0, 2.2, 44);
  for (index_t bs : {1, 3, 17, 64, 1000}) {
    SCOPED_TRACE(bs);
    Options opts;
    opts.block_size = bs;
    opts.n_ranks = 2;
    Solver s;
    ASSERT_TRUE(s.factorize(a, opts).is_ok());
    std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
    std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
    a.spmv(ones, b);
    std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
    ASSERT_TRUE(s.solve(b, x).is_ok());
    EXPECT_LT(relative_residual(a, x, b), 1e-9);
  }
}

}  // namespace
}  // namespace pangulu::solver
