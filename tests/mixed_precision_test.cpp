// Mixed-precision property tests (DESIGN.md §14): FP32 factorisation is
// bitwise identical across every scheduler and executor (the determinism
// contract holds at both precisions); kMixedIR solves recover FP64 accuracy
// through iterative refinement on the cached FP32 solve plans; refinement
// failure modes are typed (kNumericBreakdown) instead of silently wrong;
// refactorisation and checkpoint/resume preserve FP32 factors bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "io/snapshot.hpp"
#include "kernels/precision.hpp"
#include "matgen/generators.hpp"
#include "runtime/sim.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"
#include "symbolic/fill.hpp"

namespace pangulu {
namespace {

using kernels::Precision;
using runtime::ScheduleMode;
using runtime::SimOptions;
using runtime::SimResult;

struct Prepared {
  block::BlockMatrix bm;
  std::vector<block::Task> tasks;
  block::Mapping mapping;
};

Prepared prepare(const Csc& a, index_t block_size, rank_t ranks) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Prepared p;
  p.bm = block::BlockMatrix::from_filled(sym.filled, block_size);
  p.tasks = block::enumerate_tasks(p.bm);
  p.mapping = block::cyclic_mapping(p.bm, block::ProcessGrid::make(ranks));
  return p;
}

/// Flat FP32 factor values, for bitwise comparisons across runs.
std::vector<float> fp32_values(const block::BlockMatrixT<float>& bm) {
  const auto f = bm.to_csc();
  return std::vector<float>(f.values().begin(), f.values().end());
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// b = A * ones, so the exact solution is the all-ones vector.
std::vector<value_t> ones_rhs(const Csc& a) {
  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  return b;
}

// ---------------------------------------------------------------------------
// Determinism contract at FP32.
// ---------------------------------------------------------------------------

TEST(MixedPrecision, Fp32FactorsBitwiseIdenticalAcrossSchedulersAndWorkers) {
  Csc a = matgen::grid2d_laplacian(12, 12);

  std::vector<float> reference;
  auto check = [&](std::vector<float> got, const char* what) {
    if (reference.empty()) {
      reference = std::move(got);
      return;
    }
    EXPECT_TRUE(bitwise_equal(reference, got)) << what;
  };

  // DES, both scheduling modes, several rank counts.
  for (rank_t ranks : {1, 2, 4}) {
    Prepared p = prepare(a, 16, ranks);
    for (ScheduleMode mode : {ScheduleMode::kSyncFree, ScheduleMode::kLevelSet}) {
      auto bm = block::BlockMatrixT<float>::converted_from(p.bm);
      SimOptions opts;
      opts.n_ranks = ranks;
      opts.schedule = mode;
      SimResult res;
      Status s =
          runtime::simulate_factorization(bm, p.tasks, p.mapping, opts, &res);
      ASSERT_TRUE(s.is_ok()) << s.message();
      check(fp32_values(bm), mode == ScheduleMode::kSyncFree ? "DES sync-free"
                                                             : "DES level-set");
    }
  }

  // Multi-worker numeric engine.
  for (int threads : {2, 4}) {
    Prepared p = prepare(a, 16, threads);
    auto bm = block::BlockMatrixT<float>::converted_from(p.bm);
    SimOptions opts;
    opts.n_ranks = threads;
    opts.numeric_threads = threads;
    SimResult res;
    Status s =
        runtime::simulate_factorization(bm, p.tasks, p.mapping, opts, &res);
    ASSERT_TRUE(s.is_ok()) << s.message();
    check(fp32_values(bm), "multi-worker engine");
  }
}

// ---------------------------------------------------------------------------
// Mixed-IR accuracy on the tier-1 matgen families.
// ---------------------------------------------------------------------------

TEST(MixedPrecision, MixedIrReachesFp64ToleranceOnTier1Families) {
  struct Family {
    const char* name;
    Csc a;
  };
  const Family families[] = {
      {"grid2d", matgen::grid2d_laplacian(14, 14)},
      {"grid3d", matgen::grid3d_laplacian(6, 6, 6)},
      {"circuit", matgen::circuit(300, 2.0, 2.2, 7)},
      {"cage", matgen::cage_style(200, 3, 5)},
  };
  for (const Family& f : families) {
    solver::Solver s;
    solver::Options opts;
    opts.n_ranks = 4;
    opts.precision = Precision::kMixedIR;
    ASSERT_TRUE(s.factorize(f.a, opts).is_ok()) << f.name;

    const std::vector<value_t> b = ones_rhs(f.a);
    std::vector<value_t> x(b.size());
    solver::SolveStats stats;
    Status st = s.solve(b, x, &stats);
    ASSERT_TRUE(st.is_ok()) << f.name << ": " << st.message();
    EXPECT_GE(stats.refine_iterations, 1) << f.name;
    EXPECT_LE(stats.final_residual, opts.ir_tolerance) << f.name;
    for (value_t v : x) ASSERT_NEAR(v, 1.0, 1e-6) << f.name;
  }
}

TEST(MixedPrecision, SinglePrecisionSolvesAtFp32Accuracy) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = 2;
  opts.precision = Precision::kSingle;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());

  const std::vector<value_t> b = ones_rhs(a);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  ASSERT_TRUE(s.solve(b, x, &stats).is_ok());
  // kSingle never fails on accuracy grounds; it just reports what it got,
  // within its refine_iters cap.
  EXPECT_LE(stats.refine_iterations, opts.refine_iters);
  EXPECT_LE(stats.final_residual, 1e-4);
  for (value_t v : x) ASSERT_NEAR(v, 1.0, 1e-2);

  // Transpose solves run on the FP32 factors too.
  std::vector<value_t> bt(b.size());
  a.transpose().spmv(std::vector<value_t>(b.size(), 1.0), bt);
  std::vector<value_t> xt(b.size());
  ASSERT_TRUE(s.solve_transpose(bt, xt).is_ok());
  for (value_t v : xt) ASSERT_NEAR(v, 1.0, 1e-2);
}

// ---------------------------------------------------------------------------
// IR edge cases: multiple sweeps, typed stall failure.
// ---------------------------------------------------------------------------

TEST(MixedPrecision, IllConditionedMatrixNeedsMultipleSweeps) {
  // A spectrally ill-conditioned system (smallest eigenvalue pushed to
  // lambda_max / 1e6): the FP32 preconditioner's per-sweep contraction is
  // ~ kappa * eps32, so refinement still converges but needs several sweeps
  // to cross 1e-12. Equilibration off: MC64 scaling must not get a chance
  // to "repair" what is a spectral property anyway.
  Csc a = matgen::shifted_illcond(12, 12, 1e6);
  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = 2;
  opts.precision = Precision::kMixedIR;
  opts.reorder.use_mc64 = false;
  opts.reorder.apply_scaling = false;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());

  const std::vector<value_t> b = ones_rhs(a);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  Status st = s.solve(b, x, &stats);
  ASSERT_TRUE(st.is_ok()) << st.message();
  EXPECT_GE(stats.refine_iterations, 2)
      << "an ill-conditioned system should not converge in one sweep";
  EXPECT_LE(stats.final_residual, opts.ir_tolerance);
}

TEST(MixedPrecision, RefinementStallFailsWithNumericBreakdown) {
  // kappa ~ 1e9 exceeds ~1/eps32: the FP32 factorisation cannot
  // precondition the system, so refinement stalls and the solve must fail
  // with the typed breakdown code instead of returning a wrong answer.
  Csc a = matgen::shifted_illcond(12, 12, 1e9);
  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = 2;
  opts.precision = Precision::kMixedIR;
  opts.reorder.use_mc64 = false;
  opts.reorder.apply_scaling = false;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());

  const std::vector<value_t> b = ones_rhs(a);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  Status st = s.solve(b, x, &stats);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kNumericBreakdown) << st.message();
  EXPECT_NE(st.message().find("kDouble"), std::string::npos)
      << "the failure message should point at the FP64 retry";

  // The same matrix at kDouble solves fine — breakdown is a property of the
  // FP32 preconditioner, not of the system.
  solver::Solver d;
  solver::Options dopts = opts;
  dopts.precision = Precision::kDouble;
  ASSERT_TRUE(d.factorize(a, dopts).is_ok());
  std::vector<value_t> xd(b.size());
  ASSERT_TRUE(d.solve(b, xd).is_ok());
}

TEST(MixedPrecision, SingularAtFp32PivotDrivesTypedStall) {
  // The coupled block [[1, 1], [1, 1 + 1e-9]] is invertible in FP64 but
  // exactly singular once the values narrow to FP32 (1 + 1e-9 rounds to 1,
  // eps32 ~ 1.2e-7): eliminating column 0 leaves a zero pivot that GETRF
  // perturbs to the pivot threshold, and the factorisation "completes" with
  // garbage in that column. A single perturbed pivot is usually harmless —
  // the error it injects is confined and refinement absorbs it — but here
  // the perturbation stands in for a genuinely lost eigenvalue, so the IR
  // iteration matrix has spectral radius >> 1 and the solve must stall.
  const double delta = 1e-9;
  const index_t n = 16;
  std::vector<nnz_t> col_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> row_idx;
  std::vector<value_t> values;
  // Columns 0 and 1 hold the coupled block; the rest is identity.
  for (index_t j = 0; j < n; ++j) {
    col_ptr[static_cast<std::size_t>(j)] = static_cast<nnz_t>(row_idx.size());
    if (j < 2) {
      row_idx.push_back(0);
      row_idx.push_back(1);
      values.push_back(1.0);
      values.push_back(j == 0 ? 1.0 : 1.0 + delta);
    } else {
      row_idx.push_back(j);
      values.push_back(1.0);
    }
  }
  col_ptr[static_cast<std::size_t>(n)] = static_cast<nnz_t>(row_idx.size());
  Csc a = Csc::from_parts(n, n, col_ptr, row_idx, values);

  solver::Options opts;
  opts.n_ranks = 1;
  opts.precision = Precision::kMixedIR;
  // Natural order, no MC64, no scaling: nothing may rescue the tiny pivot.
  opts.reorder.use_mc64 = false;
  opts.reorder.apply_scaling = false;
  opts.reorder.fill_reducing = ordering::FillReducing::kNatural;

  solver::Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const std::vector<value_t> b = ones_rhs(a);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  Status st = s.solve(b, x, &stats);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kNumericBreakdown) << st.message();

  solver::Solver d;
  solver::Options dopts = opts;
  dopts.precision = Precision::kDouble;
  ASSERT_TRUE(d.factorize(a, dopts).is_ok());
  std::vector<value_t> xd(b.size());
  Status sd = d.solve(b, xd);
  ASSERT_TRUE(sd.is_ok()) << sd.message();
}

// ---------------------------------------------------------------------------
// Refactorisation and multi-RHS under mixed-IR.
// ---------------------------------------------------------------------------

TEST(MixedPrecision, RefactorizeKeepsFp32FactorsBitwiseStable) {
  Csc a = matgen::grid2d_laplacian(11, 11);
  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = 2;
  opts.precision = Precision::kMixedIR;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const std::vector<float> first = fp32_values(s.factors32());
  ASSERT_FALSE(first.empty());

  // Same values through the pattern-reuse path: identical FP32 factors.
  ASSERT_TRUE(
      s.refactorize_values(std::span<const value_t>(a.values())).is_ok());
  EXPECT_TRUE(bitwise_equal(first, fp32_values(s.factors32())));

  // Solves on the refactorised state still refine to tolerance.
  const std::vector<value_t> b = ones_rhs(a);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  ASSERT_TRUE(s.solve(b, x, &stats).is_ok());
  EXPECT_LE(stats.final_residual, opts.ir_tolerance);

  // Scaled values change the factors but stay refinable.
  std::vector<value_t> scaled(a.values().begin(), a.values().end());
  for (value_t& v : scaled) v *= 3.0;
  ASSERT_TRUE(s.refactorize_values(scaled).is_ok());
  EXPECT_FALSE(bitwise_equal(first, fp32_values(s.factors32())));
  Csc a3 = a;
  for (value_t& v : a3.values_mut()) v *= 3.0;
  const std::vector<value_t> b3 = ones_rhs(a3);
  std::vector<value_t> x3(b3.size());
  ASSERT_TRUE(s.solve(b3, x3, &stats).is_ok());
  for (value_t v : x3) ASSERT_NEAR(v, 1.0, 1e-6);
}

TEST(MixedPrecision, MultiRhsPanelsRefineEveryColumn) {
  Csc a = matgen::grid2d_laplacian(12, 12);
  const index_t n = a.n_cols();
  solver::Session session;
  solver::Options opts;
  opts.n_ranks = 4;
  opts.precision = Precision::kMixedIR;
  ASSERT_TRUE(session.setup(a, opts).is_ok());

  const index_t k = 3;
  Dense b(n, k);
  for (index_t j = 0; j < k; ++j) {
    // Column j is A * (j+1)*ones: distinct exact solutions per column.
    std::vector<value_t> xj(static_cast<std::size_t>(n),
                            static_cast<value_t>(j + 1));
    std::vector<value_t> bj(static_cast<std::size_t>(n));
    a.spmv(xj, bj);
    std::copy(bj.begin(), bj.end(), b.col(j));
  }
  Dense x;
  solver::SolveStats worst;
  Status st = session.solve_multi(b, &x, &worst);
  ASSERT_TRUE(st.is_ok()) << st.message();
  EXPECT_GE(worst.refine_iterations, 1);
  EXPECT_LE(worst.final_residual, opts.ir_tolerance);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i)
      ASSERT_NEAR(x.col(j)[i], static_cast<value_t>(j + 1), 1e-6)
          << "column " << j;
  }
}

// ---------------------------------------------------------------------------
// Refinement controls are validated where they enter the solver.
// ---------------------------------------------------------------------------

TEST(MixedPrecision, NegativeRefinementControlsFailInvalidArgument) {
  // refine_iters = -1 used to make the kSingle refinement loop spin (it
  // stopped only on it == refine_iters or a 1e-16 residual) and the kDouble
  // one skip refinement and report a residual it never computed.
  const Csc a = matgen::shifted_illcond(12, 12, 1e9);
  for (const Precision prec :
       {Precision::kDouble, Precision::kSingle, Precision::kMixedIR}) {
    SCOPED_TRACE("precision=" + std::to_string(static_cast<int>(prec)));
    solver::Options opts;
    opts.precision = prec;
    solver::Options bad_iters = opts;
    bad_iters.refine_iters = -1;
    solver::Options bad_ir_iters = opts;
    bad_ir_iters.ir_max_iters = -1;
    solver::Options bad_tol = opts;
    bad_tol.ir_tolerance = -1e-12;
    for (const solver::Options& bad : {bad_iters, bad_ir_iters, bad_tol}) {
      solver::Solver s;
      EXPECT_EQ(s.factorize(a, bad).code(), StatusCode::kInvalidArgument);
    }
  }

  // resume_from(): refine_iters comes from the snapshot file, the IR
  // controls from `base`; both are checked before anything runs.
  const std::string path =
      ::testing::TempDir() + "/negative_refine_checkpoint.bin";
  solver::Options opts;
  opts.n_ranks = 2;
  opts.precision = Precision::kSingle;
  opts.checkpoint_path = path;
  opts.checkpoint_interval_tasks = 5;
  const Csc g = matgen::grid2d_laplacian(10, 10);
  solver::Solver w;
  ASSERT_TRUE(w.factorize(g, opts).is_ok());
  io::Snapshot snap;
  ASSERT_TRUE(io::read_snapshot_file(path, &snap).is_ok());
  snap.meta.refine_iters = -1;
  ASSERT_TRUE(io::write_snapshot_file(path, snap).is_ok());
  solver::Solver r;
  EXPECT_EQ(r.resume_from(path).code(), StatusCode::kInvalidArgument);
  snap.meta.refine_iters = 3;
  ASSERT_TRUE(io::write_snapshot_file(path, snap).is_ok());
  solver::Options base;
  base.ir_max_iters = -1;
  EXPECT_EQ(r.resume_from(path, base).code(), StatusCode::kInvalidArgument);
  base.ir_max_iters = 30;
  base.ir_tolerance = -1;
  EXPECT_EQ(r.resume_from(path, base).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(r.resume_from(path).is_ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume carries the precision.
// ---------------------------------------------------------------------------

TEST(MixedPrecision, CheckpointResumeRestoresPrecisionAndFp32Factors) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  const std::string path =
      ::testing::TempDir() + "/mixed_precision_checkpoint.bin";

  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = 2;
  opts.precision = Precision::kMixedIR;
  opts.checkpoint_path = path;
  opts.checkpoint_interval_tasks = 5;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const std::vector<float> reference = fp32_values(s.factors32());

  // Resume from the last mid-flight snapshot: the restored run must land on
  // the same FP32 bits and remember it is a mixed-IR solver.
  solver::Solver r;
  Status st = r.resume_from(path);
  ASSERT_TRUE(st.is_ok()) << st.message();
  EXPECT_EQ(r.options().precision, Precision::kMixedIR);
  EXPECT_TRUE(bitwise_equal(reference, fp32_values(r.factors32())));

  const std::vector<value_t> b = ones_rhs(a);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  ASSERT_TRUE(r.solve(b, x, &stats).is_ok());
  EXPECT_LE(stats.final_residual, opts.ir_tolerance);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pangulu
