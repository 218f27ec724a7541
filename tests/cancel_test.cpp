// Cancellation sweep (DESIGN.md §15): arm a CancelToken's deterministic
// check-countdown at every safe point of seeded factorize / refactorize /
// solve runs — every task dispatch of the numeric engine, at one and at
// several workers, every sweep level of the plan-based solves — and
// prove the overload contract at each one: the failure is typed, nothing
// partial is published, and the solver stays usable afterwards. Labeled
// "faults" (with the cancel x solve stress) so it runs under the TSan build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "kernels/precision.hpp"
#include "matgen/generators.hpp"
#include "runtime/sim.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"
#include "sparse/dense.hpp"
#include "sparse/ops.hpp"
#include "symbolic/fill.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace pangulu::solver {
namespace {

// Generous ceiling on safe-point counts for the sweep loops: if a seeded
// run still has not completed with this many free checks, polls leak.
constexpr long long kMaxSafePoints = 200000;

bool is_cancel_code(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded;
}

std::vector<value_t> make_rhs(const Csc& a) {
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  return b;
}

std::vector<value_t> factor_bits(const Solver& s) {
  std::vector<value_t> v;
  const auto& f = s.factors();
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(f.n_blocks()); ++pos) {
    auto vals = f.block(pos).values();
    v.insert(v.end(), vals.begin(), vals.end());
  }
  return v;
}

std::vector<float> factor32_bits(const Solver& s) {
  std::vector<float> v;
  const auto& f = s.factors32();
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(f.n_blocks()); ++pos) {
    auto vals = f.block(pos).values();
    v.insert(v.end(), vals.begin(), vals.end());
  }
  return v;
}

std::vector<value_t> block_bits(const block::BlockMatrix& f) {
  std::vector<value_t> v;
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(f.n_blocks()); ++pos) {
    auto vals = f.block(pos).values();
    v.insert(v.end(), vals.begin(), vals.end());
  }
  return v;
}

Csc perturb_values(const Csc& a, unsigned seed) {
  Csc p = a;
  Rng rng(seed);
  for (value_t& v : p.values_mut())
    v *= static_cast<value_t>(rng.uniform(0.9, 1.1));
  return p;
}

Options cancel_sweep_options() {
  Options opts;
  opts.n_ranks = 4;
  // Value-blind pipeline so bitwise witnesses survive value perturbation
  // (same reasoning as the session refactorize tests).
  opts.reorder.use_mc64 = false;
  opts.reorder.apply_scaling = false;
  return opts;
}

TEST(CancelToken, ChecksBothClocksAndTheManualSwitch) {
  CancelToken idle;
  EXPECT_TRUE(idle.check("anywhere").is_ok());
  EXPECT_TRUE(idle.check_virtual(1e300, "anywhere").is_ok());
  EXPECT_EQ(idle.wall_seconds_remaining(),
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(idle.has_wall_deadline());

  CancelToken manual;
  manual.cancel();
  EXPECT_EQ(manual.check("safe point").code(), StatusCode::kCancelled);

  CancelToken wall;
  wall.set_wall_deadline_after(-1.0);  // already expired
  EXPECT_TRUE(wall.has_wall_deadline());
  EXPECT_EQ(wall.wall_seconds_remaining(), 0.0);
  EXPECT_EQ(wall.check("safe point").code(), StatusCode::kDeadlineExceeded);

  CancelToken vdl;
  vdl.set_virtual_deadline(2.0);
  EXPECT_TRUE(vdl.check("wall check ignores virtual").is_ok());
  EXPECT_TRUE(vdl.check_virtual(2.0, "at the deadline").is_ok());
  EXPECT_EQ(vdl.check_virtual(2.5, "past it").code(),
            StatusCode::kDeadlineExceeded);

  CancelToken counted;
  counted.cancel_after_checks(2);
  EXPECT_TRUE(counted.check("1").is_ok());
  EXPECT_TRUE(counted.check("2").is_ok());
  EXPECT_EQ(counted.check("3").code(), StatusCode::kCancelled);
  EXPECT_EQ(counted.check("4").code(), StatusCode::kCancelled) << "saturates";
}

// Factorisation on the DES executor: fire the token at every commit safe
// point. A cancelled run must never publish a factorisation (solve keeps
// failing kFailedPrecondition) and a later un-cancelled factorize on the
// same Solver must succeed bit-identically to an undisturbed one.
TEST(CancelSweep, FactorizeEveryCommitSafePoint) {
  const Csc a = matgen::grid2d_laplacian(8, 8);
  const Options opts = cancel_sweep_options();
  Solver undisturbed;
  ASSERT_TRUE(undisturbed.factorize(a, opts).is_ok());
  const std::vector<value_t> want = factor_bits(undisturbed);
  const auto b = make_rhs(a);

  long long cancelled_runs = 0;
  for (long long n = 0; n <= kMaxSafePoints; ++n) {
    CancelToken tok;
    tok.cancel_after_checks(n);
    Options copts = opts;
    copts.cancel = &tok;
    Solver s;
    const Status st = s.factorize(a, copts);
    if (st.is_ok()) {
      EXPECT_EQ(factor_bits(s), want) << "free checks must not perturb";
      EXPECT_GT(cancelled_runs, 0) << "the sweep never fired";
      return;
    }
    SCOPED_TRACE("cancelled after " + std::to_string(n) + " checks");
    ASSERT_TRUE(is_cancel_code(st)) << st.message();
    ++cancelled_runs;
    std::vector<value_t> x(b.size(), 0.0);
    EXPECT_EQ(s.solve(b, x).code(), StatusCode::kFailedPrecondition)
        << "cancelled factorize must not publish a factorisation";
    // The solver object survives: disarm and factorize for real.
    tok.cancel_after_checks(-1);
    ASSERT_TRUE(s.factorize(a, copts).is_ok());
    EXPECT_EQ(factor_bits(s), want);
  }
  FAIL() << "factorize never completed within " << kMaxSafePoints
         << " free checks";
}

// Same sweep directly on a four-worker engine: workers poll before every
// dispatch; a cancelled crew drains its in-flight tasks and fails typed,
// and a fresh run commits the one-worker factors bit for bit.
TEST(CancelSweep, EngineFactorizeEveryDispatch) {
  const Csc a = matgen::grid2d_laplacian(8, 8);
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  const block::BlockMatrix pre = block::BlockMatrix::from_filled(sym.filled, 8);
  const auto tasks = block::enumerate_tasks(pre);
  const block::Mapping map =
      block::cyclic_mapping(pre, block::ProcessGrid::make(4));

  block::BlockMatrix want = pre;
  runtime::SimOptions des;
  des.n_ranks = 4;
  des.numeric_threads = 1;
  runtime::SimResult res;
  runtime::simulate_factorization(want, tasks, map, des, &res).check();

  runtime::SimOptions opts = des;
  opts.numeric_threads = 4;
  long long cancelled_runs = 0;
  for (long long n = 0; n <= kMaxSafePoints; ++n) {
    CancelToken tok;
    tok.cancel_after_checks(n);
    opts.cancel = &tok;
    block::BlockMatrix bm = pre;
    const Status st =
        runtime::simulate_factorization(bm, tasks, map, opts, &res);
    if (st.is_ok()) {
      EXPECT_EQ(block_bits(bm), block_bits(want))
          << "four-worker factors must stay bitwise identical to one worker";
      EXPECT_GT(cancelled_runs, 0) << "the sweep never fired";
      return;
    }
    SCOPED_TRACE("cancelled after " + std::to_string(n) + " checks");
    ASSERT_TRUE(is_cancel_code(st)) << st.message();
    ++cancelled_runs;
  }
  FAIL() << "engine factorize never completed within " << kMaxSafePoints
         << " free checks";
}

// Solve sweep: fire at every sweep level. Without refinement the output
// vector is bitwise untouched on every cancellation point, and the
// eventual un-cancelled solve is bitwise the undisturbed answer.
TEST(CancelSweep, SolveEverySweepLevelLeavesOutputUntouched) {
  const Csc a = matgen::grid2d_laplacian(12, 12);
  Options opts = cancel_sweep_options();
  opts.refine_iters = 0;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const auto b = make_rhs(a);
  std::vector<value_t> want(b.size(), 0.0);
  ASSERT_TRUE(s.solve(b, want).is_ok());

  const value_t sentinel = static_cast<value_t>(-12345.5);
  long long cancelled_runs = 0;
  for (long long n = 0; n <= kMaxSafePoints; ++n) {
    CancelToken tok;
    tok.cancel_after_checks(n);
    std::vector<value_t> x(b.size(), sentinel);
    const Status st = s.solve(b, x, nullptr, &tok);
    if (st.is_ok()) {
      EXPECT_EQ(x, want);
      EXPECT_GT(cancelled_runs, 0) << "the sweep never fired";
      return;
    }
    SCOPED_TRACE("cancelled after " + std::to_string(n) + " checks");
    ASSERT_TRUE(is_cancel_code(st)) << st.message();
    ++cancelled_runs;
    for (value_t v : x) ASSERT_EQ(v, sentinel) << "partial sweep published";
    // The factorisation is untouched by a shed solve.
    std::vector<value_t> x2(b.size(), 0.0);
    ASSERT_TRUE(s.solve(b, x2).is_ok());
    ASSERT_EQ(x2, want);
  }
  FAIL() << "solve never completed within " << kMaxSafePoints
         << " free checks";
}

// With refinement on, a cancelled solve may also surface the last fully
// refined iterate — a complete solution, never a half-swept vector.
TEST(CancelSweep, SolveMidRefinementPublishesOnlyCompleteIterates) {
  const Csc a = matgen::circuit(200, 2.0, 2.2, 7);
  Options opts = cancel_sweep_options();
  opts.refine_iters = 3;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const auto b = make_rhs(a);

  const value_t sentinel = static_cast<value_t>(-12345.5);
  for (long long n = 0; n <= kMaxSafePoints; ++n) {
    CancelToken tok;
    tok.cancel_after_checks(n);
    std::vector<value_t> x(b.size(), sentinel);
    const Status st = s.solve(b, x, nullptr, &tok);
    if (st.is_ok()) return;
    SCOPED_TRACE("cancelled after " + std::to_string(n) + " checks");
    ASSERT_TRUE(is_cancel_code(st)) << st.message();
    const bool untouched =
        std::all_of(x.begin(), x.end(),
                    [&](value_t v) { return v == sentinel; });
    if (!untouched) {
      // A published iterate went through at least the full direct pass:
      // it must actually solve the system.
      ASSERT_LT(relative_residual(a, x, b), 1e-8)
          << "cancelled solve published an incomplete vector";
    }
  }
  FAIL() << "solve never completed within " << kMaxSafePoints
         << " free checks";
}

// Panel sweep: a solve_multi cancelled at any safe point (sweep level or
// refinement iteration) leaves the caller's panel bitwise untouched, and
// the first un-cancelled run is bitwise the undisturbed answer. At k = 8
// the columns split into several groups that poll the token at once, so
// the trigger lands in whichever group polls next.
TEST(CancelSweep, SolveMultiLeavesCallerPanelUntouched) {
  const Csc a = matgen::circuit(200, 2.0, 2.2, 7);
  const index_t n = a.n_cols();
  CancelToken tok;  // disarmed: every poll passes until armed below
  Options opts = cancel_sweep_options();
  opts.cancel = &tok;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  for (const index_t k : {index_t(3), index_t(8)}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    tok.cancel_after_checks(-1);
    Rng rng(17);
    Dense b(n, k);
    for (index_t j = 0; j < k; ++j)
      for (index_t i = 0; i < n; ++i)
        b(i, j) = static_cast<value_t>(rng.uniform(-1.0, 1.0));
    Dense want;
    ASSERT_TRUE(s.solve_multi(b, &want).is_ok());

    const value_t sentinel = static_cast<value_t>(-12345.5);
    long long cancelled_runs = 0;
    bool completed = false;
    for (long long c = 0; c <= kMaxSafePoints && !completed; ++c) {
      tok.cancel_after_checks(c);
      Dense x(n, k);
      for (index_t j = 0; j < k; ++j)
        for (index_t i = 0; i < n; ++i) x(i, j) = sentinel;
      const Status st = s.solve_multi(b, &x);
      if (st.is_ok()) {
        for (index_t j = 0; j < k; ++j)
          for (index_t i = 0; i < n; ++i)
            ASSERT_EQ(x(i, j), want(i, j)) << "col " << j << " row " << i;
        EXPECT_GT(cancelled_runs, 0) << "the sweep never fired";
        completed = true;
        continue;
      }
      SCOPED_TRACE("cancelled after " + std::to_string(c) + " checks");
      ASSERT_TRUE(is_cancel_code(st)) << st.message();
      ++cancelled_runs;
      ASSERT_EQ(x.n_rows(), n);
      ASSERT_EQ(x.n_cols(), k);
      for (index_t j = 0; j < k; ++j)
        for (index_t i = 0; i < n; ++i)
          ASSERT_EQ(x(i, j), sentinel) << "cancelled panel solve published";
    }
    EXPECT_TRUE(completed) << "solve_multi never completed within "
                           << kMaxSafePoints << " free checks";
  }
  tok.cancel_after_checks(-1);
}

// A panel cancelled before it starts fails in every column group at once.
// At k = 5 on a 4-worker pool the groups are 1, 1, 1 and 2 columns wide;
// the driver reports the lowest-index group, so the message is the same on
// every run.
TEST(CancelSweep, SolveMultiReportsTheFirstGroupsCancel) {
  const Csc a = matgen::circuit(200, 2.0, 2.2, 7);
  const index_t n = a.n_cols();
  CancelToken tok;
  Options opts = cancel_sweep_options();
  opts.cancel = &tok;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  tok.cancel();
  const index_t k = 5;
  const std::string want = "request cancelled at lower sweep level 0";
  const Dense b(n, k);
  for (int rep = 0; rep < 20; ++rep) {
    Dense x;
    const Status st = s.solve_multi(b, &x);
    ASSERT_EQ(st.code(), StatusCode::kCancelled);
    ASSERT_EQ(st.message(), want);
  }
}

// Refactorize sweep: a cancelled numeric-only refactorisation rolls back to
// the previous factors (bitwise, in both factor views) and the solver keeps
// solving the OLD system; an eventual clean refactorize then matches a fresh
// factorisation of the new values. Run at FP64 and under FP32 storage.
TEST(CancelSweep, RefactorizeEveryCommitRollsBackToOldFactors) {
  const Csc a = matgen::grid2d_laplacian(8, 8);
  const Csc a2 = perturb_values(a, 99);
  for (kernels::Precision prec :
       {kernels::Precision::kDouble, kernels::Precision::kMixedIR}) {
    SCOPED_TRACE("precision " + std::to_string(static_cast<int>(prec)));
    Options opts = cancel_sweep_options();
    opts.precision = prec;

    Solver fresh2;
    ASSERT_TRUE(fresh2.factorize(a2, opts).is_ok());
    const std::vector<value_t> want_new = factor_bits(fresh2);
    const std::vector<float> want_new32 = factor32_bits(fresh2);

    CancelToken tok;
    Options copts = opts;
    copts.cancel = &tok;
    Solver s;
    ASSERT_TRUE(s.factorize(a, copts).is_ok());
    const std::vector<value_t> want_old = factor_bits(s);
    const std::vector<float> want_old32 = factor32_bits(s);
    const auto b = make_rhs(a);
    std::vector<value_t> x_old(b.size(), 0.0);
    ASSERT_TRUE(s.solve(b, x_old).is_ok());

    long long cancelled_runs = 0;
    bool completed = false;
    for (long long n = 0; n <= kMaxSafePoints; ++n) {
      tok.cancel_after_checks(n);
      const Status st = s.refactorize(a2);
      if (st.is_ok()) {
        EXPECT_EQ(factor_bits(s), want_new);
        EXPECT_EQ(factor32_bits(s), want_new32);
        EXPECT_GT(cancelled_runs, 0) << "the sweep never fired";
        completed = true;
        break;
      }
      SCOPED_TRACE("cancelled after " + std::to_string(n) + " checks");
      ASSERT_TRUE(is_cancel_code(st)) << st.message();
      ++cancelled_runs;
      tok.cancel_after_checks(-1);  // disarm for the witness solves
      ASSERT_EQ(factor_bits(s), want_old)
          << "cancelled refactorize must restore the previous factors";
      ASSERT_EQ(factor32_bits(s), want_old32)
          << "cancelled refactorize must restore the previous FP32 store";
      std::vector<value_t> x(b.size(), 0.0);
      ASSERT_TRUE(s.solve(b, x).is_ok());
      ASSERT_EQ(x, x_old) << "the session must keep solving the old system";
    }
    ASSERT_TRUE(completed) << "refactorize never completed within "
                           << kMaxSafePoints << " free checks";
  }
}

// Virtual-clock deadline: a simulated factorisation that cannot finish
// within its virtual budget sheds typed, publishes nothing, and a token
// with the budget at exactly the makespan still completes.
TEST(CancelVirtualDeadline, ShedsSimulatedFactorization) {
  const Csc a = matgen::grid2d_laplacian(10, 10);
  const Options opts = cancel_sweep_options();
  Solver timed;
  ASSERT_TRUE(timed.factorize(a, opts).is_ok());
  const double makespan = timed.stats().sim.makespan;
  ASSERT_GT(makespan, 0);

  CancelToken tok;
  tok.set_virtual_deadline(makespan / 2);
  Options copts = opts;
  copts.cancel = &tok;
  Solver s;
  const Status st = s.factorize(a, copts);
  ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  const auto b = make_rhs(a);
  std::vector<value_t> x(b.size(), 0.0);
  EXPECT_EQ(s.solve(b, x).code(), StatusCode::kFailedPrecondition);

  CancelToken roomy;
  roomy.set_virtual_deadline(makespan);
  copts.cancel = &roomy;
  EXPECT_TRUE(s.factorize(a, copts).is_ok())
      << "a run finishing exactly at the deadline must succeed";
  EXPECT_EQ(factor_bits(s), factor_bits(timed));
}

// TSan stress: many threads solving through one shared token while another
// thread flips it, interleaved with session-level deadline solves and
// refactorisations. Exercises the atomic token contract and the
// shed-keeps-session-ready contract under true concurrency.
TEST(CancelStress, ConcurrentCancelAndSolve) {
  const Csc a = matgen::grid2d_laplacian(12, 12);
  Options opts = cancel_sweep_options();
  opts.refine_iters = 1;
  Session session;
  ASSERT_TRUE(session.setup(a, opts).is_ok());
  const auto b = make_rhs(a);

  CancelToken shared;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      std::vector<value_t> x(b.size(), 0.0);
      while (!stop.load(std::memory_order_acquire)) {
        const Status st =
            session.solver().solve(b, x, nullptr, &shared);
        if (!st.is_ok() && st.code() != StatusCode::kCancelled)
          bad.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    std::vector<value_t> x(b.size(), 0.0);
    for (int i = 0; i < 40; ++i) {
      const double dl = (i % 2) ? 1e-7 : 10.0;
      const Status st = session.solve_deadline(b, x, dl);
      if (!st.is_ok() && st.code() != StatusCode::kDeadlineExceeded)
        bad.fetch_add(1);
    }
  });
  for (int i = 0; i < 60; ++i) {
    if (i % 2) {
      shared.cancel_after_checks(i % 7);
    } else {
      shared.cancel_after_checks(-1);
    }
    std::this_thread::yield();
  }
  shared.cancel_after_checks(-1);
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);

  // The session came through every shed intact.
  std::vector<value_t> x(b.size(), 0.0);
  ASSERT_TRUE(session.solve(b, x).is_ok());
  EXPECT_LT(relative_residual(a, x, b), 1e-9);
}

}  // namespace
}  // namespace pangulu::solver
