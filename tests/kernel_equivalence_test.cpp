// Property tests of the numeric hot-path overhaul: every addressing variant
// of every kernel family — including the merge family (SSSSM C_V3/G_V3,
// panel G_V4) — must match the dense references across a size/density
// sweep, and must write exactly the bytes of its family's C_V1 at FP64 and
// FP32 under 1- and 4-thread pools and with no pool, i.e. on the global
// pool, as the one-worker numeric engine calls them (the multi-worker
// engine runs C_V1 in place of the planned variant).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kernels/getrf.hpp"
#include "kernels/gessm.hpp"
#include "kernels/selector.hpp"
#include "kernels/ssssm.hpp"
#include "kernels/tstrf.hpp"
#include "matgen/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

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

// ---------------------------------------------------------------------------
// Bitwise cross-variant gate. Every variant applies each target entry's
// updates in the same order with the same rounded operations, so its output
// bytes equal its family's C_V1 — the kernel the multi-worker numeric engine
// runs in place of the planned variant. The sweep crosses every cut of the
// paper's default tree except SSSSM's G_V1/G_V2 cut at 3.98e9 FLOPs (a
// ~1260-row dense block); both sides of that cut run on every case anyway.
// ---------------------------------------------------------------------------

template <class V>
std::vector<unsigned char> value_bytes(const CscT<V>& m) {
  const auto vals = m.values();
  std::vector<unsigned char> out(vals.size() * sizeof(V));
  if (!out.empty()) std::memcpy(out.data(), vals.data(), out.size());
  return out;
}

/// Square block with the given off-diagonal density and a dominant
/// diagonal, closed under LU (density 1: every entry present).
Csc dominant_block(index_t n, double density, std::uint64_t seed) {
  Rng rng(seed);
  Coo coo(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (i == j)
        coo.add(i, j, static_cast<double>(n) + rng.uniform());
      else if (rng.bernoulli(density))
        coo.add(i, j, rng.normal());
    }
  return close_lu_pattern(Csc::from_coo(coo));
}

struct BitwiseCase {
  Csc getrf_in, gessm_in, tstrf_in, ssssm_a, ssssm_b, ssssm_c;
};

BitwiseCase bitwise_case(index_t n, double density, std::uint64_t seed) {
  BitwiseCase c;
  c.getrf_in = dominant_block(n, density, seed);
  Csc diag = c.getrf_in;
  Workspace ws;
  getrf(GetrfVariant::kCV1, diag, ws, nullptr).check();
  c.gessm_in = close_lower_solve_pattern(
      diag, matgen::random_rect(n, n, density, seed + 1));
  c.tstrf_in = close_upper_solve_pattern(
      diag, matgen::random_rect(n, n, density, seed + 2));
  c.ssssm_a = matgen::random_rect(n, n, density, seed + 3);
  c.ssssm_b = matgen::random_rect(n, n, density, seed + 4);
  c.ssssm_c = add_product_pattern(
      c.ssssm_a, c.ssssm_b, matgen::random_rect(n, n, density, seed + 5));
  return c;
}

/// Runs every variant of every family on `c` at precision V under each of
/// `pools` and demands C_V1's bytes.
template <class V>
void expect_variants_match_cv1(const BitwiseCase& c,
                               const std::vector<ThreadPool*>& pools) {
  using M = CscT<V>;
  Workspace ws;
  const M getrf_in = M::converted_from(c.getrf_in);
  M diag = getrf_in;
  PivotStats want_piv;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, diag, ws, &want_piv).is_ok());
  const auto getrf_want = value_bytes(diag);

  const M gessm_in = M::converted_from(c.gessm_in);
  M out = gessm_in;
  ASSERT_TRUE(gessm(PanelVariant::kCV1, diag, out, ws).is_ok());
  const auto gessm_want = value_bytes(out);

  const M tstrf_in = M::converted_from(c.tstrf_in);
  out = tstrf_in;
  ASSERT_TRUE(tstrf(PanelVariant::kCV1, diag, out, ws).is_ok());
  const auto tstrf_want = value_bytes(out);

  const M sa = M::converted_from(c.ssssm_a);
  const M sb = M::converted_from(c.ssssm_b);
  const M sc = M::converted_from(c.ssssm_c);
  out = sc;
  ASSERT_TRUE(ssssm(SsssmVariant::kCV1, sa, sb, out, ws).is_ok());
  const auto ssssm_want = value_bytes(out);

  for (ThreadPool* pool : pools) {
    SCOPED_TRACE(pool ? "pool=" + std::to_string(pool->size())
                      : std::string("global pool"));
    for (GetrfVariant v : kGetrfAll) {
      M a = getrf_in;
      PivotStats piv;
      ASSERT_TRUE(getrf(v, a, ws, &piv, {}, pool).is_ok());
      EXPECT_EQ(value_bytes(a), getrf_want) << "GETRF " << to_string(v);
      EXPECT_EQ(piv.perturbed, want_piv.perturbed) << to_string(v);
    }
    for (PanelVariant v : kPanelAll) {
      M b = gessm_in;
      ASSERT_TRUE(gessm(v, diag, b, ws, pool).is_ok());
      EXPECT_EQ(value_bytes(b), gessm_want) << "GESSM " << to_string(v);
      b = tstrf_in;
      ASSERT_TRUE(tstrf(v, diag, b, ws, pool).is_ok());
      EXPECT_EQ(value_bytes(b), tstrf_want) << "TSTRF " << to_string(v);
    }
    for (SsssmVariant v : kSsssmAll) {
      M cc = sc;
      ASSERT_TRUE(ssssm(v, sa, sb, cc, ws, pool).is_ok());
      EXPECT_EQ(value_bytes(cc), ssssm_want) << "SSSSM " << to_string(v);
    }
  }
}

TEST(Equivalence, EveryVariantWritesCv1BytesAtBothPrecisions) {
  ThreadPool one(1), four(4);
  // nullptr: GETRF G_V1/G_V2 and the column-parallel TSTRF variants fall
  // back to the global pool, whose parallel branch the n >= 64 cases reach.
  const std::vector<ThreadPool*> pools = {&one, &four, nullptr};
  std::set<int> picked[4];  // default-tree choice per family, for coverage
  // 192 runs dense only: it is there for the top panel and SSSSM bands,
  // and its sparse blocks would only slow the test down.
  const std::pair<index_t, double> sweep[] = {
      {24, 0.05},  {24, 0.3},  {24, 1.0},  {64, 0.05}, {64, 0.3},
      {64, 1.0},   {96, 0.05}, {96, 0.3},  {96, 1.0},  {128, 0.05},
      {128, 0.3},  {128, 1.0}, {192, 1.0}};
  for (const auto& [n, density] : sweep) {
    SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(density));
    const BitwiseCase c =
        bitwise_case(n, density, 7000 + static_cast<std::uint64_t>(n));
    if (density == 1.0) {
      ASSERT_EQ(c.getrf_in.nnz(), static_cast<nnz_t>(n) * n);
      ASSERT_EQ(c.ssssm_c.nnz(), static_cast<nnz_t>(n) * n);
    }
    picked[0].insert(static_cast<int>(select_getrf(c.getrf_in.nnz())));
    picked[1].insert(static_cast<int>(
        select_gessm(c.gessm_in.nnz(), c.getrf_in.nnz())));
    picked[2].insert(static_cast<int>(
        select_tstrf(c.tstrf_in.nnz(), c.getrf_in.nnz())));
    picked[3].insert(static_cast<int>(
        select_ssssm(ssssm_flops(c.ssssm_a, c.ssssm_b))));
    {
      SCOPED_TRACE("fp64");
      expect_variants_match_cv1<double>(c, pools);
    }
    {
      SCOPED_TRACE("fp32");
      expect_variants_match_cv1<float>(c, pools);
    }
  }
  // The sweep reaches every variant the default tree can pick, except the
  // SSSSM G_V2 band and the empty-by-default G_V4 panel bands.
  auto ints = [](auto... v) { return std::set<int>{static_cast<int>(v)...}; };
  EXPECT_EQ(picked[0], ints(GetrfVariant::kCV1, GetrfVariant::kGV1,
                            GetrfVariant::kGV2));
  const std::set<int> panel =
      ints(PanelVariant::kCV1, PanelVariant::kCV2, PanelVariant::kGV1,
           PanelVariant::kGV2, PanelVariant::kGV3);
  EXPECT_EQ(picked[1], panel);
  EXPECT_EQ(picked[2], panel);
  EXPECT_EQ(picked[3], ints(SsssmVariant::kCV2, SsssmVariant::kCV3,
                            SsssmVariant::kCV1, SsssmVariant::kGV1));
}

}  // namespace
}  // namespace pangulu::kernels
