// Property tests of the numeric hot-path overhaul: every addressing variant
// of every kernel family — including the merge family (SSSSM C_V3/G_V3,
// panel G_V4) — must match the dense references across a size/density
// sweep; the autotuner must produce well-formed monotone thresholds whose
// selections always name an equivalence-tested variant; thresholds must
// round-trip through save/load exactly; and the solver must honour (or
// reject) Options::thresholds_file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "kernels/calibrate.hpp"
#include "kernels/getrf.hpp"
#include "kernels/gessm.hpp"
#include "kernels/selector.hpp"
#include "kernels/ssssm.hpp"
#include "kernels/tstrf.hpp"
#include "matgen/generators.hpp"
#include "solver/solver.hpp"
#include "test_util.hpp"

namespace pangulu::kernels {
namespace {

using test::add_product_pattern;
using test::close_lower_solve_pattern;
using test::close_lu_pattern;
using test::close_upper_solve_pattern;

constexpr GetrfVariant kGetrfAll[] = {GetrfVariant::kCV1, GetrfVariant::kGV1,
                                      GetrfVariant::kGV2};
constexpr PanelVariant kPanelAll[] = {PanelVariant::kCV1, PanelVariant::kCV2,
                                      PanelVariant::kGV1, PanelVariant::kGV2,
                                      PanelVariant::kGV3, PanelVariant::kGV4};
constexpr SsssmVariant kSsssmAll[] = {SsssmVariant::kCV1, SsssmVariant::kCV2,
                                      SsssmVariant::kCV3, SsssmVariant::kGV1,
                                      SsssmVariant::kGV2, SsssmVariant::kGV3};

TEST(Equivalence, EveryVariantOfEveryFamilyAcrossTheSweep) {
  Workspace ws;
  for (index_t n : {8, 40, 72}) {
    for (double density : {0.05, 0.15, 0.35}) {
      for (std::uint64_t seed : {101ull, 202ull}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " d=" + std::to_string(density) +
                     " seed=" + std::to_string(seed));
        const auto per_col = std::max<index_t>(
            2, static_cast<index_t>(density * static_cast<double>(n)));
        Csc base = close_lu_pattern(matgen::random_sparse(n, per_col, seed));

        Csc getrf_ref = base;
        ASSERT_TRUE(getrf_reference(getrf_ref).is_ok());
        for (GetrfVariant v : kGetrfAll) {
          Csc a = base;
          ASSERT_TRUE(getrf(v, a, ws, nullptr).is_ok()) << to_string(v);
          EXPECT_TRUE(a.approx_equal(getrf_ref, 1e-10)) << to_string(v);
        }

        Csc diag = base;
        ASSERT_TRUE(getrf(GetrfVariant::kCV1, diag, ws, nullptr).is_ok());

        Csc bg = close_lower_solve_pattern(
            diag, matgen::random_rect(n, n / 2 + 1, density, seed + 10));
        Csc gessm_ref = bg;
        ASSERT_TRUE(gessm_reference(diag, gessm_ref).is_ok());
        for (PanelVariant v : kPanelAll) {
          Csc b = bg;
          ASSERT_TRUE(gessm(v, diag, b, ws).is_ok()) << to_string(v);
          EXPECT_TRUE(b.approx_equal(gessm_ref, 1e-10))
              << "GESSM " << to_string(v);
        }

        Csc bt = close_upper_solve_pattern(
            diag, matgen::random_rect(n / 2 + 1, n, density, seed + 20));
        Csc tstrf_ref = bt;
        ASSERT_TRUE(tstrf_reference(diag, tstrf_ref).is_ok());
        for (PanelVariant v : kPanelAll) {
          Csc b = bt;
          ASSERT_TRUE(tstrf(v, diag, b, ws).is_ok()) << to_string(v);
          EXPECT_TRUE(b.approx_equal(tstrf_ref, 1e-9))
              << "TSTRF " << to_string(v);
        }

        Csc sa = matgen::random_rect(n, n, density, seed + 30);
        Csc sb = matgen::random_rect(n, n, density, seed + 31);
        Csc sc = add_product_pattern(
            sa, sb, matgen::random_rect(n, n, density, seed + 32));
        Csc ssssm_ref = sc;
        ASSERT_TRUE(ssssm_reference(sa, sb, ssssm_ref).is_ok());
        for (SsssmVariant v : kSsssmAll) {
          Csc c = sc;
          ASSERT_TRUE(ssssm(v, sa, sb, c, ws).is_ok()) << to_string(v);
          EXPECT_TRUE(c.approx_equal(ssssm_ref, 1e-10))
              << "SSSSM " << to_string(v);
        }
      }
    }
  }
}

// A tiny grid keeps the test fast; the fitted cuts are noisy, but the
// well-formedness properties below must hold regardless of timing noise.
SelectorThresholds tiny_autotune(AutotuneReport* report = nullptr) {
  AutotuneOptions opt;
  opt.sizes = {16, 48};
  opt.densities = {0.05, 0.2};
  opt.repeats = 1;
  SelectorThresholds t;
  autotune_thresholds(opt, &t, report).check();
  return t;
}

TEST(Autotune, ProducesMonotonePositiveChains) {
  AutotuneReport report;
  const SelectorThresholds t = tiny_autotune(&report);
  const double chains[][5] = {
      {t.getrf_cpu_nnz, t.getrf_gv1_nnz, 0, 0, 0},
      {t.gessm_cv1_nnz, t.gessm_cv2_nnz, t.gessm_gv1_nnz, t.gessm_gv4_nnz,
       t.gessm_gv2_nnz},
      {t.tstrf_cv1_nnz, t.tstrf_cv2_nnz, t.tstrf_gv1_nnz, t.tstrf_gv4_nnz,
       t.tstrf_gv2_nnz},
      {t.ssssm_cv2_flops, t.ssssm_cv3_flops, t.ssssm_cv1_flops,
       t.ssssm_gv1_flops, 0},
  };
  const int lens[] = {2, 5, 5, 4};
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < lens[c]; ++i) {
      EXPECT_GE(chains[c][i], 1.0) << "chain " << c << " cut " << i;
      if (i > 0) {
        EXPECT_GE(chains[c][i], chains[c][i - 1])
            << "chain " << c << " cut " << i << " not monotone";
      }
    }
  }
  // 2 + 5 + 5 + 4 fitted boundaries.
  EXPECT_EQ(report.entries.size(), 16u);
  for (const auto& e : report.entries) EXPECT_GT(e.samples, 0) << e.boundary;
}

TEST(Autotune, TunedSelectorOnlyReturnsEquivalentVariants) {
  const SelectorThresholds t = tiny_autotune();
  Workspace ws;

  // Fixed validation problems; whatever variant the tuned tree picks for any
  // probed metric must reproduce the references on them.
  Csc diag = close_lu_pattern(matgen::random_sparse(48, 5, 77));
  Csc getrf_ref = diag;
  ASSERT_TRUE(getrf_reference(getrf_ref).is_ok());
  Csc factored = diag;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, factored, ws, nullptr).is_ok());
  Csc bg = close_lower_solve_pattern(factored,
                                     matgen::random_rect(48, 24, 0.2, 78));
  Csc gessm_ref = bg;
  ASSERT_TRUE(gessm_reference(factored, gessm_ref).is_ok());
  Csc bt = close_upper_solve_pattern(factored,
                                     matgen::random_rect(24, 48, 0.2, 79));
  Csc tstrf_ref = bt;
  ASSERT_TRUE(tstrf_reference(factored, tstrf_ref).is_ok());
  Csc sa = matgen::random_rect(48, 48, 0.15, 80);
  Csc sb = matgen::random_rect(48, 48, 0.15, 81);
  Csc sc = add_product_pattern(sa, sb, matgen::random_rect(48, 48, 0.1, 82));
  Csc ssssm_ref = sc;
  ASSERT_TRUE(ssssm_reference(sa, sb, ssssm_ref).is_ok());

  for (double metric : {1.0, 50.0, 5e3, 8e3, 1.2e4, 2e4, 1e6, 1e8, 1e10}) {
    const auto nz = static_cast<nnz_t>(metric);
    {
      Csc a = diag;
      const GetrfVariant v = select_getrf(nz, t);
      ASSERT_TRUE(getrf(v, a, ws, nullptr).is_ok()) << to_string(v);
      EXPECT_TRUE(a.approx_equal(getrf_ref, 1e-10)) << to_string(v);
    }
    {
      Csc b = bg;
      const PanelVariant v = select_gessm(nz, 100, t);
      ASSERT_TRUE(gessm(v, factored, b, ws).is_ok()) << to_string(v);
      EXPECT_TRUE(b.approx_equal(gessm_ref, 1e-10)) << to_string(v);
    }
    {
      Csc b = bt;
      const PanelVariant v = select_tstrf(nz, 100, t);
      ASSERT_TRUE(tstrf(v, factored, b, ws).is_ok()) << to_string(v);
      EXPECT_TRUE(b.approx_equal(tstrf_ref, 1e-9)) << to_string(v);
    }
    {
      Csc c = sc;
      const SsssmVariant v = select_ssssm(metric, t);
      ASSERT_TRUE(ssssm(v, sa, sb, c, ws).is_ok()) << to_string(v);
      EXPECT_TRUE(c.approx_equal(ssssm_ref, 1e-10)) << to_string(v);
    }
  }
}

TEST(Autotune, RejectsBadArguments) {
  SelectorThresholds t;
  EXPECT_FALSE(autotune_thresholds({}, nullptr).is_ok());
  AutotuneOptions empty;
  empty.sizes.clear();
  EXPECT_FALSE(autotune_thresholds(empty, &t).is_ok());
  AutotuneOptions tiny;
  tiny.sizes = {2};
  EXPECT_FALSE(autotune_thresholds(tiny, &t).is_ok());
}

TEST(Thresholds, SaveLoadRoundTripsExactly) {
  SelectorThresholds t;
  t.getrf_cpu_nnz = 1234.5678901234567;
  t.gessm_gv4_nnz = 3.0e4;
  t.tstrf_gv4_nnz = 2.5e4;
  t.ssssm_cv3_flops = 9.87e5;
  const std::string path = ::testing::TempDir() + "pangulu_thresholds.txt";
  save_thresholds(path, t).check();
  SelectorThresholds loaded;
  load_thresholds(path, &loaded).check();
  EXPECT_EQ(loaded.getrf_cpu_nnz, t.getrf_cpu_nnz);
  EXPECT_EQ(loaded.getrf_gv1_nnz, t.getrf_gv1_nnz);
  EXPECT_EQ(loaded.panel_huge_diag_nnz, t.panel_huge_diag_nnz);
  EXPECT_EQ(loaded.gessm_cv1_nnz, t.gessm_cv1_nnz);
  EXPECT_EQ(loaded.gessm_cv2_nnz, t.gessm_cv2_nnz);
  EXPECT_EQ(loaded.gessm_gv1_nnz, t.gessm_gv1_nnz);
  EXPECT_EQ(loaded.gessm_gv4_nnz, t.gessm_gv4_nnz);
  EXPECT_EQ(loaded.gessm_gv2_nnz, t.gessm_gv2_nnz);
  EXPECT_EQ(loaded.tstrf_cv1_nnz, t.tstrf_cv1_nnz);
  EXPECT_EQ(loaded.tstrf_cv2_nnz, t.tstrf_cv2_nnz);
  EXPECT_EQ(loaded.tstrf_gv1_nnz, t.tstrf_gv1_nnz);
  EXPECT_EQ(loaded.tstrf_gv4_nnz, t.tstrf_gv4_nnz);
  EXPECT_EQ(loaded.tstrf_gv2_nnz, t.tstrf_gv2_nnz);
  EXPECT_EQ(loaded.ssssm_cv2_flops, t.ssssm_cv2_flops);
  EXPECT_EQ(loaded.ssssm_cv3_flops, t.ssssm_cv3_flops);
  EXPECT_EQ(loaded.ssssm_cv1_flops, t.ssssm_cv1_flops);
  EXPECT_EQ(loaded.ssssm_gv1_flops, t.ssssm_gv1_flops);
  std::remove(path.c_str());
}

TEST(Thresholds, LoadRejectsMissingFileAndUnknownKeys) {
  SelectorThresholds t;
  EXPECT_FALSE(load_thresholds("/nonexistent/pangulu.thresholds", &t).is_ok());
  const std::string path = ::testing::TempDir() + "pangulu_bad_thresholds.txt";
  {
    std::ofstream out(path);
    out << "# comment line is fine\n";
    out << "getrf_cpu_nnz 5000\n";
    out << "no_such_threshold 1\n";
  }
  EXPECT_FALSE(load_thresholds(path, &t).is_ok());
  // The known key before the bad line was still applied (load is not
  // transactional — the caller discards `t` on error).
  std::remove(path.c_str());
}

TEST(Thresholds, SolverLoadsAndRejectsThresholdsFile) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  const std::string path = ::testing::TempDir() + "pangulu_solver_thr.txt";
  SelectorThresholds t;
  t.ssssm_cv3_flops = 1e5;
  save_thresholds(path, t).check();

  solver::Solver s;
  solver::Options opts;
  opts.thresholds_file = path;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  std::vector<value_t> b(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 0.0);
  solver::SolveStats ss;
  ASSERT_TRUE(s.solve(b, x, &ss).is_ok());
  EXPECT_LT(ss.final_residual, 1e-10);

  opts.thresholds_file = "/nonexistent/pangulu.thresholds";
  EXPECT_FALSE(s.factorize(a, opts).is_ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pangulu::kernels
