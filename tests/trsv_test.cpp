#include <gtest/gtest.h>

#include "block/mapping.hpp"
#include "matgen/generators.hpp"
#include "runtime/sim.hpp"
#include "runtime/trsv_sim.hpp"
#include "solver/solver.hpp"
#include "sparse/ops.hpp"
#include "symbolic/fill.hpp"

namespace pangulu::runtime {
namespace {

struct Factored {
  block::BlockMatrix bm;
  block::Mapping mapping;
};

Factored factorize_blocks(const Csc& a, index_t block_size, rank_t ranks) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Factored f;
  f.bm = block::BlockMatrix::from_filled(sym.filled, block_size);
  auto tasks = block::enumerate_tasks(f.bm);
  f.mapping = block::cyclic_mapping(f.bm, block::ProcessGrid::make(ranks));
  SimOptions opts;
  opts.n_ranks = ranks;
  SimResult res;
  simulate_factorization(f.bm, tasks, f.mapping, opts, &res).check();
  return f;
}

class TrsvP : public ::testing::TestWithParam<rank_t> {};

TEST_P(TrsvP, ForwardBackwardSolvesSystem) {
  const rank_t ranks = GetParam();
  Csc a = matgen::grid2d_laplacian(14, 14);
  Factored f = factorize_blocks(a, 20, ranks);

  // Solve A x = b via distributed L then U sweeps; the reorder step was
  // skipped (identity perms), so the factors apply to `a` directly.
  std::vector<value_t> x_true(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(x_true, b);

  TrsvOptions opts;
  opts.n_ranks = ranks;
  SimResult fwd, bwd;
  ASSERT_TRUE(simulate_trsv(f.bm, f.mapping, /*lower=*/true, b, opts, &fwd).is_ok());
  ASSERT_TRUE(simulate_trsv(f.bm, f.mapping, /*lower=*/false, b, opts, &bwd).is_ok());

  for (index_t i = 0; i < a.n_cols(); ++i)
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], 1.0, 1e-8);
  EXPECT_GT(fwd.makespan, 0);
  EXPECT_GT(bwd.makespan, 0);
  if (ranks > 1) {
    EXPECT_GE(fwd.messages, 0);
  } else {
    EXPECT_EQ(fwd.messages, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, TrsvP, ::testing::Values<rank_t>(1, 2, 4, 8));

TEST(Trsv, MatchesSerialBlockSolve) {
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);
  // Use the solver's serial plan-based block solves as the reference on the
  // same factors (no reordering: compare raw triangular sweeps).
  Factored f = factorize_blocks(a, 32, 4);

  std::vector<value_t> rhs(static_cast<std::size_t>(a.n_cols()));
  for (index_t i = 0; i < a.n_cols(); ++i)
    rhs[static_cast<std::size_t>(i)] = 0.01 * i - 1.0;

  std::vector<value_t> serial = rhs;
  const solver::SolvePlan plan = solver::SolvePlan::build(f.bm);
  ASSERT_TRUE(solver::block_lower_solve(f.bm, plan, serial).is_ok());
  ASSERT_TRUE(solver::block_upper_solve(f.bm, plan, serial).is_ok());

  std::vector<value_t> distributed = rhs;
  TrsvOptions opts;
  opts.n_ranks = 4;
  SimResult r1, r2;
  ASSERT_TRUE(
      simulate_trsv(f.bm, f.mapping, true, distributed, opts, &r1).is_ok());
  ASSERT_TRUE(
      simulate_trsv(f.bm, f.mapping, false, distributed, opts, &r2).is_ok());

  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_NEAR(distributed[i], serial[i], 1e-10 * (1 + std::abs(serial[i])));
}

TEST(Trsv, TimingOnlyRunLeavesVectorUntouched) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  Factored f = factorize_blocks(a, 16, 2);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 3.0);
  std::vector<value_t> before = x;
  TrsvOptions opts;
  opts.n_ranks = 2;
  opts.execute_numerics = false;
  SimResult res;
  ASSERT_TRUE(simulate_trsv(f.bm, f.mapping, true, x, opts, &res).is_ok());
  EXPECT_EQ(x, before);
  EXPECT_GT(res.makespan, 0);
}

TEST(Trsv, NumericRunOnTimingOnlyPlanIsRejected) {
  // A plan built without numerics carries no column lists; running the
  // numerics on it fails typed and leaves the vector untouched.
  Csc a = matgen::grid2d_laplacian(8, 8);
  Factored f = factorize_blocks(a, 16, 2);
  TrsvOptions opts;
  opts.n_ranks = 2;
  opts.execute_numerics = false;
  TrsvPlan plan;
  ASSERT_TRUE(build_trsv_plan(f.bm, f.mapping, true, opts, &plan).is_ok());
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 3.0);
  const std::vector<value_t> before = x;
  opts.execute_numerics = true;
  SimResult res;
  const Status st = simulate_trsv(f.bm, plan, x, opts, &res);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
  EXPECT_EQ(x, before);
}

TEST(Trsv, RejectsBadInputs) {
  Csc a = matgen::grid2d_laplacian(6, 6);
  Factored f = factorize_blocks(a, 12, 2);
  std::vector<value_t> wrong_size(10, 0.0);
  TrsvOptions opts;
  opts.n_ranks = 2;
  SimResult res;
  EXPECT_FALSE(
      simulate_trsv(f.bm, f.mapping, true, wrong_size, opts, &res).is_ok());
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 0.0);
  opts.n_ranks = 3;  // mapping is for 2 ranks
  EXPECT_FALSE(simulate_trsv(f.bm, f.mapping, true, x, opts, &res).is_ok());
}

TEST(Trsv, PlanBasedRunMatchesLegacyBitwise) {
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);
  Factored f = factorize_blocks(a, 32, 4);
  std::vector<value_t> rhs(static_cast<std::size_t>(a.n_cols()));
  for (index_t i = 0; i < a.n_cols(); ++i)
    rhs[static_cast<std::size_t>(i)] = 0.01 * i - 1.0;

  TrsvOptions opts;
  opts.n_ranks = 4;
  for (bool lower : {true, false}) {
    std::vector<value_t> x_legacy = rhs;
    std::vector<value_t> x_plan = rhs;
    SimResult r_legacy, r_plan;
    ASSERT_TRUE(
        simulate_trsv(f.bm, f.mapping, lower, x_legacy, opts, &r_legacy)
            .is_ok());
    TrsvPlan plan;
    ASSERT_TRUE(build_trsv_plan(f.bm, f.mapping, lower, opts, &plan).is_ok());
    ASSERT_TRUE(simulate_trsv(f.bm, plan, x_plan, opts, &r_plan).is_ok());
    EXPECT_EQ(x_plan, x_legacy);  // operator== on doubles: bitwise-exact path
    EXPECT_EQ(r_plan.makespan, r_legacy.makespan);
    EXPECT_EQ(r_plan.messages, r_legacy.messages);
    EXPECT_EQ(r_plan.bytes, r_legacy.bytes);
  }
}

TEST(Trsv, PlanReuseAcrossRepeatSolves) {
  Csc a = matgen::grid2d_laplacian(12, 12);
  Factored f = factorize_blocks(a, 24, 4);
  TrsvOptions opts;
  opts.n_ranks = 4;
  TrsvPlan fwd, bwd;
  ASSERT_TRUE(build_trsv_plan(f.bm, f.mapping, true, opts, &fwd).is_ok());
  ASSERT_TRUE(build_trsv_plan(f.bm, f.mapping, false, opts, &bwd).is_ok());

  std::vector<value_t> x_true(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b0(static_cast<std::size_t>(a.n_rows()));
  a.spmv(x_true, b0);

  // The same plans drive many solves; every run must reach the solution and
  // report the same virtual schedule (the plan is read-only during a run).
  SimResult first_fwd, first_bwd;
  for (int run = 0; run < 3; ++run) {
    std::vector<value_t> b = b0;
    SimResult rf, rb;
    ASSERT_TRUE(simulate_trsv(f.bm, fwd, b, opts, &rf).is_ok());
    ASSERT_TRUE(simulate_trsv(f.bm, bwd, b, opts, &rb).is_ok());
    for (index_t i = 0; i < a.n_cols(); ++i)
      EXPECT_NEAR(b[static_cast<std::size_t>(i)], 1.0, 1e-8);
    if (run == 0) {
      first_fwd = rf;
      first_bwd = rb;
    } else {
      EXPECT_EQ(rf.makespan, first_fwd.makespan);
      EXPECT_EQ(rb.makespan, first_bwd.makespan);
      EXPECT_EQ(rf.messages, first_fwd.messages);
      EXPECT_EQ(rb.messages, first_bwd.messages);
    }
  }
}

TEST(Trsv, PlanRejectsMismatchedOptions) {
  Csc a = matgen::grid2d_laplacian(6, 6);
  Factored f = factorize_blocks(a, 12, 2);
  TrsvOptions opts;
  opts.n_ranks = 2;
  TrsvPlan plan;
  ASSERT_TRUE(build_trsv_plan(f.bm, f.mapping, true, opts, &plan).is_ok());
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 0.0);
  SimResult res;
  TrsvOptions bad = opts;
  bad.n_ranks = 3;
  EXPECT_FALSE(simulate_trsv(f.bm, plan, x, bad, &res).is_ok());
  std::vector<value_t> wrong_size(10, 0.0);
  EXPECT_FALSE(simulate_trsv(f.bm, plan, wrong_size, opts, &res).is_ok());
}

TEST(Trsv, MoreRanksReduceMakespanOnHeavyFactors) {
  Csc a = matgen::banded_random(700, 60, 0.5, 4, 9);
  Factored f1 = factorize_blocks(a, 100, 1);
  Factored f8 = factorize_blocks(a, 100, 8);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 1.0);
  TrsvOptions o1, o8;
  o1.n_ranks = 1;
  o8.n_ranks = 8;
  o1.execute_numerics = o8.execute_numerics = false;
  SimResult r1, r8;
  ASSERT_TRUE(simulate_trsv(f1.bm, f1.mapping, true, x, o1, &r1).is_ok());
  ASSERT_TRUE(simulate_trsv(f8.bm, f8.mapping, true, x, o8, &r8).is_ok());
  EXPECT_LT(r8.makespan, r1.makespan * 1.2)
      << "triangular solve has limited parallelism but must not collapse";
}

TEST(Trsv, SolverPlansSurviveRepeatAndTransposeSolves) {
  Csc a = matgen::circuit(250, 2.0, 2.2, 21);
  const index_t n = a.n_cols();
  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = 4;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());

  std::vector<value_t> x_true(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    x_true[static_cast<std::size_t>(i)] = 1.0 + 0.001 * i;
  std::vector<value_t> b(static_cast<std::size_t>(n));
  a.spmv(x_true, b);

  // Repeat solves reuse the cached schedules and must agree exactly.
  std::vector<value_t> x1(static_cast<std::size_t>(n));
  std::vector<value_t> x2(static_cast<std::size_t>(n));
  ASSERT_TRUE(s.solve(b, x1).is_ok());
  ASSERT_TRUE(s.solve(b, x2).is_ok());
  EXPECT_EQ(x1, x2);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x1[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-6);

  // Transpose solves share the same plan.
  Csc at = a.transpose();
  std::vector<value_t> bt(static_cast<std::size_t>(n));
  at.spmv(x_true, bt);
  std::vector<value_t> y1(static_cast<std::size_t>(n));
  std::vector<value_t> y2(static_cast<std::size_t>(n));
  ASSERT_TRUE(s.solve_transpose(bt, y1).is_ok());
  ASSERT_TRUE(s.solve_transpose(bt, y2).is_ok());
  EXPECT_EQ(y1, y2);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-6);

  // Re-factorisation with new values invalidates and rebuilds the plans.
  Csc a2 = a;
  for (auto& v : a2.values_mut()) v *= 2.0;
  ASSERT_TRUE(s.refactorize(a2).is_ok());
  std::vector<value_t> b2(static_cast<std::size_t>(n));
  a2.spmv(x_true, b2);
  std::vector<value_t> x3(static_cast<std::size_t>(n));
  ASSERT_TRUE(s.solve(b2, x3).is_ok());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x3[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-6);

  runtime::SimResult fwd, bwd;
  ASSERT_TRUE(s.model_triangular_solve(&fwd, &bwd).is_ok());
  EXPECT_GT(fwd.makespan, 0);
  EXPECT_GT(bwd.makespan, 0);
}

// Solve-phase elasticity: drains/adds fire at diagonal-solve commit
// boundaries (quiesce -> Mapping::rebalance -> I6 re-proof -> continue),
// and because the numerics run in canonical sweep order, both sweeps stay
// bitwise identical to the static run for ANY elastic plan.
TEST(TrsvElastic, DrainMidSolveBitwiseIdenticalToStatic) {
  Csc a = matgen::grid2d_laplacian(20, 20);
  Factored f = factorize_blocks(a, 20, 4);
  std::vector<value_t> x_static(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> x_elastic = x_static;

  TrsvOptions opts;
  opts.n_ranks = 4;
  for (bool lower : {true, false}) {
    SCOPED_TRACE(lower ? "lower" : "upper");
    SimResult rs, re;
    ASSERT_TRUE(
        simulate_trsv(f.bm, f.mapping, lower, x_static, opts, &rs).is_ok());
    TrsvOptions eopts = opts;
    eopts.elastic.drains.push_back({1, 5});
    eopts.elastic.drains.push_back({2, 10});
    eopts.mapping = &f.mapping;
    ASSERT_TRUE(
        simulate_trsv(f.bm, f.mapping, lower, x_elastic, eopts, &re).is_ok());
    EXPECT_EQ(x_static, x_elastic);
    EXPECT_EQ(re.ranks_drained, 2);
    EXPECT_GT(re.migrated_blocks, 0);
    EXPECT_EQ(rs.ranks_drained, 0);
  }
}

TEST(TrsvElastic, AddStartsInactiveThenJoinsBitwiseIdentical) {
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);
  Factored f = factorize_blocks(a, 24, 4);
  std::vector<value_t> x_static(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> x_elastic = x_static;

  TrsvOptions opts;
  opts.n_ranks = 4;
  SimResult rs, re;
  ASSERT_TRUE(
      simulate_trsv(f.bm, f.mapping, true, x_static, opts, &rs).is_ok());
  // Rank 3's first event is an add: it starts the solve inactive (its
  // blocks rebalance away up front) and joins at commit 6.
  TrsvOptions eopts = opts;
  eopts.elastic.adds.push_back({3, 6});
  eopts.mapping = &f.mapping;
  ASSERT_TRUE(
      simulate_trsv(f.bm, f.mapping, true, x_elastic, eopts, &re).is_ok());
  EXPECT_EQ(x_static, x_elastic);
  EXPECT_EQ(re.ranks_added, 1);
}

TEST(TrsvElastic, PlanRequiresTheMapping) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  Factored f = factorize_blocks(a, 20, 2);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 1.0);
  TrsvOptions opts;
  opts.n_ranks = 2;
  opts.elastic.drains.push_back({1, 2});
  // opts.mapping deliberately left null.
  SimResult res;
  const Status st = simulate_trsv(f.bm, f.mapping, true, x, opts, &res);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
}

TEST(TrsvElastic, DrainBelowMinRanksShedsLoad) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  Factored f = factorize_blocks(a, 20, 2);
  std::vector<value_t> sentinel_x(static_cast<std::size_t>(a.n_cols()), 7.5);
  std::vector<value_t> x = sentinel_x;
  TrsvOptions opts;
  opts.n_ranks = 2;
  opts.elastic.drains.push_back({0, 1});
  opts.elastic.drains.push_back({1, 2});
  opts.elastic.min_ranks = 1;
  opts.mapping = &f.mapping;
  SimResult res;
  const Status st = simulate_trsv(f.bm, f.mapping, true, x, opts, &res);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.message();
  // A failed elastic solve leaves the vector untouched (phase 1 runs the
  // timing replay before any numerics execute).
  EXPECT_EQ(x, sentinel_x);
}

TEST(TrsvElastic, InvalidPlanRejectedTyped) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  Factored f = factorize_blocks(a, 20, 2);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 1.0);
  TrsvOptions opts;
  opts.n_ranks = 2;
  opts.elastic.drains.push_back({7, 2});  // rank id out of range
  opts.mapping = &f.mapping;
  SimResult res;
  EXPECT_FALSE(simulate_trsv(f.bm, f.mapping, true, x, opts, &res).is_ok());
}

// Virtual-clock deadline on the solve phase: the timing replay runs before
// the canonical numerics, so a virtual-deadline miss sheds with the
// caller's vector bitwise untouched, and a budget at the static makespan
// still completes with the static answer.
TEST(TrsvVirtualDeadline, ShedsWithVectorUntouched) {
  Csc a = matgen::grid2d_laplacian(14, 14);
  Factored f = factorize_blocks(a, 20, 4);
  std::vector<value_t> x_static(static_cast<std::size_t>(a.n_cols()), 1.0);
  TrsvOptions opts;
  opts.n_ranks = 4;
  SimResult rs;
  ASSERT_TRUE(
      simulate_trsv(f.bm, f.mapping, true, x_static, opts, &rs).is_ok());
  ASSERT_GT(rs.makespan, 0);

  CancelToken tight;
  tight.set_virtual_deadline(rs.makespan / 2);
  TrsvOptions topts = opts;
  topts.cancel = &tight;
  std::vector<value_t> sentinel_x(static_cast<std::size_t>(a.n_cols()), 7.5);
  std::vector<value_t> x = sentinel_x;
  SimResult res;
  const Status st = simulate_trsv(f.bm, f.mapping, true, x, topts, &res);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  EXPECT_EQ(x, sentinel_x);

  CancelToken roomy;
  roomy.set_virtual_deadline(rs.makespan);
  topts.cancel = &roomy;
  x.assign(static_cast<std::size_t>(a.n_cols()), 1.0);  // the static run's RHS
  ASSERT_TRUE(simulate_trsv(f.bm, f.mapping, true, x, topts, &res).is_ok());
  EXPECT_EQ(x, x_static);
}

}  // namespace
}  // namespace pangulu::runtime
