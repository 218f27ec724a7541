// Solver sessions: pattern-reuse refactorisation (bitwise identical to a
// from-scratch run), panel multi-RHS solves (column-for-column bitwise
// identical to single-RHS solves, also under concurrent callers), the
// pattern-fingerprint admission checks, the SessionPool budgeting, and the
// concurrent refactorize/solve stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kernels/precision.hpp"
#include "matgen/generators.hpp"
#include "runtime/trsv_sim.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"
#include "sparse/ops.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pangulu::solver {
namespace {

std::vector<value_t> make_rhs(const Csc& a) {
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  return b;
}

/// All factor-block values in block-position order: the bitwise identity
/// witness two factorisations are compared by.
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

/// Deterministic same-pattern value perturbation (a Newton-style update):
/// scale each entry, keeping diagonal dominance intact.
Csc perturb_values(const Csc& a, unsigned seed) {
  Csc p = a;
  Rng rng(seed);
  auto vals = p.values_mut();
  for (value_t& v : vals) v *= static_cast<value_t>(rng.uniform(0.9, 1.1));
  return p;
}

Options no_mc64_options() {
  Options opts;
  // MC64 scaling/permutation is value-derived and frozen at setup; with it
  // off the whole pipeline is a pure function of the pattern, making the
  // strict refactorize-vs-fresh bitwise comparison meaningful on perturbed
  // values (see DESIGN.md, safe-reuse contract).
  opts.reorder.use_mc64 = false;
  opts.reorder.apply_scaling = false;
  return opts;
}

TEST(SessionRefactorize, BitwiseIdenticalToFreshFactorize) {
  const Csc mats[] = {matgen::grid2d_laplacian(16, 16),
                      matgen::circuit(250, 2.0, 2.2, 17),
                      matgen::cage_style(180, 3, 9)};
  const std::string path =
      ::testing::TempDir() + "/session_refactorize_resume.bin";
  int family = 0;
  for (const Csc& a : mats) {
    SCOPED_TRACE("family " + std::to_string(family++));
    const Csc a2 = perturb_values(a, 1234);
    for (kernels::Precision prec :
         {kernels::Precision::kDouble, kernels::Precision::kSingle,
          kernels::Precision::kMixedIR}) {
      SCOPED_TRACE("precision " + std::to_string(static_cast<int>(prec)));
      Options opts = no_mc64_options();
      opts.n_ranks = 4;
      opts.precision = prec;
      Solver fresh;
      ASSERT_TRUE(fresh.factorize(a2, opts).is_ok());
      // The reused solver comes from a factorize() or from resume_from() of
      // a checkpoint of one; either way refactorize(a2) lands on fresh's bits
      // in both factor views.
      for (bool resumed : {false, true}) {
        SCOPED_TRACE(resumed ? "resumed" : "factorized");
        Solver reused;
        if (resumed) {
          Options copts = opts;
          copts.checkpoint_path = path;
          copts.checkpoint_interval_tasks = 3;
          Solver writer;
          ASSERT_TRUE(writer.factorize(a, copts).is_ok());
          ASSERT_TRUE(reused.resume_from(path).is_ok());
          ASSERT_GT(reused.stats().resumed_from_task, 0);
        } else {
          ASSERT_TRUE(reused.factorize(a, opts).is_ok());
        }
        ASSERT_TRUE(reused.refactorize(a2).is_ok());
        EXPECT_EQ(factor_bits(reused), factor_bits(fresh));
        EXPECT_EQ(factor32_bits(reused), factor32_bits(fresh));
        EXPECT_EQ(reused.stats().nnz_lu, fresh.stats().nnz_lu);
        // And the reused solver still solves the new system, with the bits
        // and refinement statistics of a fresh solver's solve.
        auto b = make_rhs(a2);
        std::vector<value_t> x(b.size(), 0.0);
        std::vector<value_t> x_fresh(b.size(), 0.0);
        SolveStats st, st_fresh;
        ASSERT_TRUE(reused.solve(b, x, &st).is_ok());
        ASSERT_TRUE(fresh.solve(b, x_fresh, &st_fresh).is_ok());
        EXPECT_EQ(0, std::memcmp(x.data(), x_fresh.data(),
                                 x.size() * sizeof(value_t)));
        EXPECT_EQ(st.refine_iterations, st_fresh.refine_iterations);
        EXPECT_EQ(0, std::memcmp(&st.final_residual, &st_fresh.final_residual,
                                 sizeof(value_t)));
        EXPECT_LT(relative_residual(a2, x, b),
                  prec == kernels::Precision::kSingle ? 1e-4 : 1e-9);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SessionRefactorize, BitwiseIdenticalWithMc64OnOriginalValues) {
  // With MC64 on, refactorising the *same* values must reproduce the
  // factors exactly (the frozen scaling is the one a fresh run would pick).
  Csc a = matgen::circuit(220, 2.0, 2.2, 31);
  Options opts;
  opts.n_ranks = 2;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const std::vector<value_t> before = factor_bits(s);
  ASSERT_TRUE(s.refactorize(a).is_ok());
  EXPECT_EQ(before, factor_bits(s));
}

TEST(SessionRefactorize, SkipsEveryStructurePhase) {
  Csc a = matgen::grid2d_laplacian(14, 14);
  Solver s;
  ASSERT_TRUE(s.factorize(a, Options{}).is_ok());
  ASSERT_TRUE(s.refactorize(perturb_values(a, 7)).is_ok());
  // Numeric-only: the structure phases did not run at all.
  EXPECT_EQ(s.stats().reorder_seconds, 0.0);
  EXPECT_EQ(s.stats().symbolic_seconds, 0.0);
  EXPECT_EQ(s.stats().preprocess_seconds, 0.0);
  EXPECT_EQ(s.stats().blocking_seconds, 0.0);
  EXPECT_EQ(s.stats().mapping_seconds, 0.0);
  EXPECT_EQ(s.stats().plan_seconds, 0.0);
  EXPECT_EQ(s.stats().verify_seconds, 0.0);
  EXPECT_GT(s.stats().numeric_wall_seconds, 0.0);
}

TEST(SessionRefactorize, ValueArrayPath) {
  Csc a = matgen::grid2d_laplacian(12, 12);
  Options opts = no_mc64_options();
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const Csc a2 = perturb_values(a, 99);
  ASSERT_TRUE(s.refactorize_values(a2.values()).is_ok());
  Solver fresh;
  ASSERT_TRUE(fresh.factorize(a2, opts).is_ok());
  EXPECT_EQ(factor_bits(s), factor_bits(fresh));
}

TEST(SessionRefactorize, RejectsWrongValueCount) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  Solver s;
  ASSERT_TRUE(s.factorize(a, Options{}).is_ok());
  std::vector<value_t> wrong(static_cast<std::size_t>(a.nnz()) - 1, 1.0);
  Status st = s.refactorize_values(wrong);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The failed call must not have invalidated the factorisation.
  auto b = make_rhs(a);
  std::vector<value_t> x(b.size(), 0.0);
  EXPECT_TRUE(s.solve(b, x).is_ok());
}

TEST(Session, PatternHashRejectsDifferentPattern) {
  Session session;
  Csc a = matgen::grid2d_laplacian(12, 12);
  ASSERT_TRUE(session.setup(a, Options{}).is_ok());
  EXPECT_TRUE(session.ready());
  EXPECT_NE(session.pattern_hash(), 0u);
  // Same order, different pattern: the fingerprint must reject it before
  // any numeric work happens.
  Csc other = matgen::circuit(144, 2.0, 2.2, 5);
  ASSERT_EQ(other.n_cols(), a.n_cols());
  Status st = session.refactorize(other);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session.ready()) << "a rejected refactorize must not tear down";
  // Same pattern, new values: accepted.
  EXPECT_TRUE(session.refactorize(perturb_values(a, 3)).is_ok());
  // Wrong value count through the span path.
  std::vector<value_t> wrong(3, 1.0);
  EXPECT_EQ(session.refactorize(std::span<const value_t>(wrong)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Session, FingerprintIsValueBlind) {
  Csc a = matgen::grid2d_laplacian(9, 9);
  const std::uint64_t h = pattern_fingerprint(a);
  EXPECT_EQ(h, pattern_fingerprint(perturb_values(a, 5)));
  EXPECT_NE(h, pattern_fingerprint(matgen::grid2d_laplacian(9, 8)));
}

// Every Precision runs through the one solve driver: the FP32 panel sweeps
// and the kMixedIR active-set refinement must match per-column solves bit
// for bit, as the FP64 ones do.
constexpr kernels::Precision kAllPrecisions[] = {
    kernels::Precision::kDouble, kernels::Precision::kSingle,
    kernels::Precision::kMixedIR};

// Panel widths for the column-for-column bitwise tests. A solve splits its
// columns into min(k, pool size) groups, so these give one-column groups,
// uneven groups, and more columns than workers.
constexpr index_t kPanelWidths[] = {1, 2, 3, 5, 8, 9};

Dense random_panel(index_t n, index_t k, unsigned seed) {
  Rng rng(seed);
  Dense b(n, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < n; ++i)
      b(i, j) = static_cast<value_t>(rng.uniform(-1.0, 1.0));
  return b;
}

TEST(SessionMultiRhs, MatchesSingleSolveColumnForColumn) {
  const Csc mats[] = {matgen::grid2d_laplacian(15, 15),
                      matgen::circuit(200, 2.0, 2.2, 11)};
  for (const Csc& a : mats) {
    for (const kernels::Precision prec : kAllPrecisions) {
      SCOPED_TRACE("precision=" + std::to_string(static_cast<int>(prec)));
      const index_t n = a.n_cols();
      Solver s;
      Options opts;
      opts.precision = prec;
      ASSERT_TRUE(s.factorize(a, opts).is_ok());
      for (index_t k : kPanelWidths) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const Dense b = random_panel(n, k, 42u + static_cast<unsigned>(k));
        Dense x;
        SolveStats worst;
        ASSERT_TRUE(s.solve_multi(b, &x, &worst).is_ok());
        std::vector<value_t> bc(static_cast<std::size_t>(n));
        std::vector<value_t> xc(static_cast<std::size_t>(n));
        int max_iters = 0;
        value_t max_resid = 0;
        for (index_t j = 0; j < k; ++j) {
          for (index_t i = 0; i < n; ++i)
            bc[static_cast<std::size_t>(i)] = b(i, j);
          SolveStats ss;
          ASSERT_TRUE(s.solve(bc, xc, &ss).is_ok());
          for (index_t i = 0; i < n; ++i) {
            // Bitwise: the panel sweep runs each column's exact op sequence.
            EXPECT_EQ(x(i, j), xc[static_cast<std::size_t>(i)])
                << "col " << j << " row " << i;
          }
          max_iters = std::max(max_iters, ss.refine_iterations);
          max_resid = std::max(max_resid, ss.final_residual);
        }
        EXPECT_EQ(worst.refine_iterations, max_iters);
        EXPECT_EQ(worst.final_residual, max_resid);
      }
    }
  }
}

TEST(SessionMultiRhs, TransposeMatchesSingleColumnForColumn) {
  Csc a = matgen::cage_style(160, 3, 7);
  const index_t n = a.n_cols();
  for (const kernels::Precision prec : kAllPrecisions) {
    SCOPED_TRACE("precision=" + std::to_string(static_cast<int>(prec)));
    Solver s;
    Options opts;
    opts.precision = prec;
    ASSERT_TRUE(s.factorize(a, opts).is_ok());
    for (index_t k : kPanelWidths) {
      SCOPED_TRACE("k=" + std::to_string(k));
      const Dense b = random_panel(n, k, 7u + static_cast<unsigned>(k));
      Dense x;
      ASSERT_TRUE(s.solve_multi_transpose(b, &x).is_ok());
      std::vector<value_t> bc(static_cast<std::size_t>(n));
      std::vector<value_t> xc(static_cast<std::size_t>(n));
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < n; ++i)
          bc[static_cast<std::size_t>(i)] = b(i, j);
        ASSERT_TRUE(s.solve_transpose(bc, xc).is_ok());
        for (index_t i = 0; i < n; ++i)
          EXPECT_EQ(x(i, j), xc[static_cast<std::size_t>(i)]);
      }
    }
  }
}

// Four threads solve panels on one Session at once, so their column groups
// share the global pool; every result is bitwise the serial one.
TEST(SessionMultiRhs, ConcurrentPanelSolvesMatchSerial) {
  const Csc a = matgen::circuit(300, 2.0, 2.2, 5);
  const index_t n = a.n_cols();
  Session session;
  ASSERT_TRUE(session.setup(a, Options{}).is_ok());
  constexpr int kThreads = 4;
  std::vector<Dense> b;
  std::vector<Dense> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    b.push_back(random_panel(n, index_t(5 + t), 900u + static_cast<unsigned>(t)));
    ASSERT_TRUE(session.solve_multi(b[t], &want[t]).is_ok());
  }
  std::vector<Dense> got(kThreads);
  std::vector<Status> status(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3 && status[t].is_ok(); ++rep)
        status[t] = session.solve_multi(b[t], &got[t]);
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(status[t].is_ok()) << status[t].message();
    ASSERT_EQ(got[t].n_cols(), want[t].n_cols());
    for (index_t j = 0; j < want[t].n_cols(); ++j)
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(got[t](i, j), want[t](i, j)) << "col " << j << " row " << i;
  }
}

TEST(SessionMultiRhs, TrsvPanelMatchesSingleVector) {
  Csc a = matgen::grid2d_laplacian(13, 13);
  const index_t n = a.n_cols();
  Options opts;
  opts.n_ranks = 4;
  Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  runtime::TrsvOptions topts;
  topts.n_ranks = opts.n_ranks;
  for (bool lower : {true, false}) {
    SCOPED_TRACE(lower ? "lower" : "upper");
    runtime::TrsvPlan plan;
    ASSERT_TRUE(runtime::build_trsv_plan(s.factors(), s.mapping(), lower,
                                         topts, &plan)
                    .is_ok());
    Rng rng(lower ? 1u : 2u);
    std::vector<value_t> x1(static_cast<std::size_t>(n));
    for (value_t& v : x1) v = static_cast<value_t>(rng.uniform(-1.0, 1.0));
    // k = 1 panel (stride 1 is the plain vector layout) vs the single-vector
    // path: numerics AND schedule metrics (makespan, messages, bytes) must
    // match exactly.
    std::vector<value_t> xp(x1);
    runtime::SimResult single, panel;
    std::vector<value_t> xs(x1);
    ASSERT_TRUE(
        runtime::simulate_trsv(s.factors(), plan, xs, topts, &single).is_ok());
    ASSERT_TRUE(runtime::simulate_trsv_panel(s.factors(), plan, xp.data(), 1, 1,
                                             topts, &panel)
                    .is_ok());
    EXPECT_EQ(xs, xp);
    EXPECT_EQ(single.makespan, panel.makespan);
    EXPECT_EQ(single.messages, panel.messages);
    EXPECT_EQ(single.bytes, panel.bytes);
    // k = 4 row-interleaved panel (column c of row r at x[r * k + c]): each
    // column bitwise equals its own single-vector run; one sweep carries
    // k-fold payload, so traffic scales with k.
    const index_t k = 4;
    std::vector<value_t> cols(static_cast<std::size_t>(n) * k);
    for (value_t& v : cols) v = static_cast<value_t>(rng.uniform(-1.0, 1.0));
    std::vector<value_t> panel_x(cols.size());
    for (index_t c = 0; c < k; ++c)
      for (index_t i = 0; i < n; ++i)
        panel_x[static_cast<std::size_t>(i) * k + c] =
            cols[static_cast<std::size_t>(c) * n + i];
    runtime::SimResult rk;
    ASSERT_TRUE(runtime::simulate_trsv_panel(s.factors(), plan, panel_x.data(),
                                             k, k, topts, &rk)
                    .is_ok());
    for (index_t c = 0; c < k; ++c) {
      std::vector<value_t> xc(
          cols.begin() + static_cast<std::ptrdiff_t>(c) * n,
          cols.begin() + static_cast<std::ptrdiff_t>(c + 1) * n);
      runtime::SimResult rc;
      ASSERT_TRUE(
          runtime::simulate_trsv(s.factors(), plan, xc, topts, &rc).is_ok());
      for (index_t i = 0; i < n; ++i)
        EXPECT_EQ(panel_x[static_cast<std::size_t>(i) * k + c],
                  xc[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(rk.messages, single.messages)
        << "same schedule: message count is k-independent";
    EXPECT_EQ(rk.bytes, single.bytes * k);
  }
}

TEST(SessionPool, BudgetAdmissionControl) {
  SessionPoolOptions popts;
  popts.max_concurrent = 2;
  popts.memory_budget_bytes = 1000;
  SessionPool pool(popts);

  // A request larger than the whole budget can never run.
  SessionPool::Ticket oversize;
  EXPECT_EQ(pool.admit(1001, &oversize).code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(oversize.admitted());

  {
    SessionPool::Ticket t1, t2;
    ASSERT_TRUE(pool.admit(400, &t1).is_ok());
    ASSERT_TRUE(pool.admit(400, &t2).is_ok());
    EXPECT_EQ(pool.in_flight(), 2);
    EXPECT_EQ(pool.bytes_in_flight(), 800u);
    // A third admission must wait for a slot; release t1 from another
    // thread and the waiter gets in.
    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
      SessionPool::Ticket t3;
      ASSERT_TRUE(pool.admit(500, &t3).is_ok());
      admitted.store(true);
    });
    EXPECT_FALSE(admitted.load());
    t1.release();
    waiter.join();
    EXPECT_TRUE(admitted.load());
  }
  EXPECT_EQ(pool.in_flight(), 0);
  EXPECT_EQ(pool.bytes_in_flight(), 0u);
  EXPECT_EQ(pool.peak_in_flight(), 2);
}

TEST(Session, FootprintReportsPatternState) {
  Session session;
  EXPECT_EQ(session.footprint_bytes(), 0u);
  Csc a = matgen::grid2d_laplacian(12, 12);
  ASSERT_TRUE(session.setup(a, Options{}).is_ok());
  const std::size_t fp = session.footprint_bytes();
  EXPECT_GT(fp, static_cast<std::size_t>(session.stats().nnz_lu) *
                    sizeof(value_t));
}

// Concurrent refactorize/solve interleaving under the session lock. Runs in
// the TSan build via the "faults" ctest label; sized to stay fast there.
TEST(SessionStress, ConcurrentRefactorizeAndSolve) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  const index_t n = a.n_cols();
  Session session;
  Options opts = no_mc64_options();
  ASSERT_TRUE(session.setup(a, opts).is_ok());

  SessionPoolOptions popts;
  popts.max_concurrent = 3;
  popts.memory_budget_bytes = 4 * session.footprint_bytes();
  SessionPool pool(popts);

  constexpr int kSolversPerThread = 12;
  constexpr int kRefactorizes = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100u + static_cast<unsigned>(t));
      for (int i = 0; i < kSolversPerThread; ++i) {
        SessionPool::Ticket ticket;
        if (!pool.admit(session.footprint_bytes() / 8, &ticket).is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (i % 3 == 0) {
          Dense b(n, 4);
          for (index_t j = 0; j < 4; ++j)
            for (index_t r = 0; r < n; ++r)
              b(r, j) = static_cast<value_t>(rng.uniform(-1.0, 1.0));
          Dense x;
          if (!session.solve_multi(b, &x).is_ok()) failures.fetch_add(1);
        } else {
          std::vector<value_t> b(static_cast<std::size_t>(n));
          for (value_t& v : b) v = static_cast<value_t>(rng.uniform(-1.0, 1.0));
          std::vector<value_t> x(static_cast<std::size_t>(n));
          if (!session.solve(b, x).is_ok()) failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRefactorizes; ++i) {
      SessionPool::Ticket ticket;
      if (!pool.admit(session.footprint_bytes(), &ticket).is_ok()) {
        failures.fetch_add(1);
        continue;
      }
      Csc a2 = perturb_values(a, 500u + static_cast<unsigned>(i));
      if (!session.refactorize(a2).is_ok()) failures.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.in_flight(), 0);
  EXPECT_LE(pool.peak_in_flight(), 3);

  // The session still answers correctly after the storm.
  ASSERT_TRUE(session.refactorize(a.values()).is_ok());
  auto b = make_rhs(a);
  std::vector<value_t> x(b.size(), 0.0);
  ASSERT_TRUE(session.solve(b, x).is_ok());
  EXPECT_LT(relative_residual(a, x, b), 1e-9);
}

// Regression: admit() used to park forever on a full pool. With the pool
// timeout set it must come back typed — and fast enough to notice a hang.
TEST(SessionPool, StarvedAdmitTimesOutTyped) {
  SessionPoolOptions popts;
  popts.max_concurrent = 1;
  popts.default_admit_timeout_seconds = 0.05;
  SessionPool pool(popts);
  SessionPool::Ticket holder;
  ASSERT_TRUE(pool.admit(1, &holder).is_ok());

  SessionPool::Ticket blocked;
  Timer t;
  const Status st = pool.admit(1, &blocked);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  EXPECT_FALSE(blocked.admitted());
  EXPECT_LT(t.seconds(), 5.0) << "starved admit must not hang";

  holder.release();
  ASSERT_TRUE(pool.admit(1, &blocked).is_ok());
}

TEST(SessionPool, AdmitShedsExpiredDeadlineImmediately) {
  SessionPoolOptions popts;
  popts.max_concurrent = 1;
  SessionPool pool(popts);
  SessionPool::Ticket holder;
  ASSERT_TRUE(pool.admit(1, &holder).is_ok());

  CancelToken expired;
  expired.set_wall_deadline_after(-1.0);
  SessionPool::Ticket t;
  EXPECT_EQ(pool.admit(1, &t, &expired).code(),
            StatusCode::kDeadlineExceeded);

  // An unconstrained token on a free pool sails through.
  holder.release();
  CancelToken fine;
  EXPECT_TRUE(pool.admit(1, &t, &fine).is_ok());
}

TEST(SessionPool, AdmitManualCancelUnparksWaiter) {
  SessionPoolOptions popts;
  popts.max_concurrent = 1;
  SessionPool pool(popts);
  SessionPool::Ticket holder;
  ASSERT_TRUE(pool.admit(1, &holder).is_ok());

  CancelToken tok;
  std::atomic<int> code{-1};
  std::thread waiter([&] {
    SessionPool::Ticket t;
    code.store(static_cast<int>(pool.admit(1, &t, &tok).code()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tok.cancel();
  waiter.join();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kCancelled));
}

TEST(SessionPool, WallDeadlineBoundsTheWait) {
  SessionPoolOptions popts;
  popts.max_concurrent = 1;
  SessionPool pool(popts);
  SessionPool::Ticket holder;
  ASSERT_TRUE(pool.admit(1, &holder).is_ok());

  CancelToken tok;
  tok.set_wall_deadline_after(0.05);
  SessionPool::Ticket t;
  Timer timer;
  const Status st = pool.admit(1, &t, &tok);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
  EXPECT_FALSE(t.admitted());
  EXPECT_LT(timer.seconds(), 5.0) << "the deadline must bound the wait";
  EXPECT_EQ(pool.in_flight(), 1);
}

TEST(Session, SolveDeadlineShedsAndStaysUsable) {
  Csc a = matgen::grid2d_laplacian(12, 12);
  Session session;
  ASSERT_TRUE(session.setup(a, no_mc64_options()).is_ok());
  const auto b = make_rhs(a);
  std::vector<value_t> want(b.size(), 0.0);
  ASSERT_TRUE(session.solve(b, want).is_ok());

  const value_t sentinel = static_cast<value_t>(-99.25);
  for (double dl : {0.0, -1.0, 1e-9}) {
    SCOPED_TRACE("deadline " + std::to_string(dl));
    std::vector<value_t> x(b.size(), sentinel);
    const Status st = session.solve_deadline(b, x, dl);
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.message();
    for (value_t v : x) ASSERT_EQ(v, sentinel) << "shed must not touch x";
    EXPECT_TRUE(session.ready()) << "a missed deadline is not a broken session";
  }

  // A roomy deadline behaves exactly like solve().
  std::vector<value_t> x(b.size(), 0.0);
  SolveStats stats;
  ASSERT_TRUE(session.solve_deadline(b, x, 60.0, &stats).is_ok());
  EXPECT_EQ(x, want);
}

}  // namespace
}  // namespace pangulu::solver
