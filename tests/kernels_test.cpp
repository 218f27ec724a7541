#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "kernels/getrf.hpp"
#include "kernels/gessm.hpp"
#include "kernels/selector.hpp"
#include "kernels/ssssm.hpp"
#include "kernels/tstrf.hpp"
#include "matgen/generators.hpp"
#include "sparse/dense.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pangulu::kernels {
namespace {

using test::add_product_pattern;
using test::close_lower_solve_pattern;
using test::close_lu_pattern;
using test::close_upper_solve_pattern;

// ---------------------------------------------------------------- GETRF ----

class GetrfP : public ::testing::TestWithParam<
                   std::tuple<GetrfVariant, index_t, double, std::uint64_t>> {};

TEST_P(GetrfP, MatchesDenseReference) {
  auto [variant, n, density, seed] = GetParam();
  Csc a = close_lu_pattern(
      matgen::random_sparse(n, std::max<index_t>(2, static_cast<index_t>(density * n)),
                            seed));
  Csc ref = a;
  ASSERT_TRUE(getrf_reference(ref).is_ok());
  Workspace ws;
  PivotStats stats;
  ASSERT_TRUE(getrf(variant, a, ws, &stats).is_ok());
  EXPECT_TRUE(a.approx_equal(ref, 1e-10))
      << to_string(variant) << " diverges from the dense reference";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsSizesSeeds, GetrfP,
    ::testing::Combine(::testing::Values(GetrfVariant::kCV1, GetrfVariant::kGV1,
                                         GetrfVariant::kGV2),
                       ::testing::Values<index_t>(1, 5, 32, 96),
                       ::testing::Values(0.05, 0.2),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Getrf, VariantsAgreeWithEachOther) {
  Csc base = close_lu_pattern(matgen::random_sparse(64, 6, 99));
  Workspace ws;
  Csc a1 = base, a2 = base, a3 = base;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, a1, ws, nullptr).is_ok());
  ASSERT_TRUE(getrf(GetrfVariant::kGV1, a2, ws, nullptr).is_ok());
  ASSERT_TRUE(getrf(GetrfVariant::kGV2, a3, ws, nullptr).is_ok());
  EXPECT_TRUE(a1.approx_equal(a2, 1e-12));
  EXPECT_TRUE(a1.approx_equal(a3, 1e-12));
}

TEST(Getrf, LUProductReconstructsInput) {
  Csc a = close_lu_pattern(matgen::random_sparse(48, 5, 4));
  Csc orig = a;
  Workspace ws;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, a, ws, nullptr).is_ok());
  // Rebuild L*U densely and compare to the original values.
  Dense lu = Dense::from_csc(a);
  const index_t n = a.n_cols();
  Dense l(n, n), u(n, n);
  for (index_t j = 0; j < n; ++j) {
    l(j, j) = 1.0;
    for (index_t i = 0; i < n; ++i) {
      if (i > j)
        l(i, j) = lu(i, j);
      else
        u(i, j) = lu(i, j);
    }
  }
  Dense prod(n, n);
  Dense::gemm_sub(l, u, prod);  // prod = -L*U
  Dense od = Dense::from_csc(orig);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(-prod(i, j), od(i, j), 1e-9 * (1 + std::abs(od(i, j))));
}

TEST(Getrf, PerturbsSingularPivot) {
  // A block whose (1,1) pivot cancels to zero exactly.
  Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 1, 1.0);  // Schur complement of (1,1) is exactly 0
  Csc a = Csc::from_coo(coo);
  Workspace ws;
  PivotStats stats;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, a, ws, &stats).is_ok());
  EXPECT_EQ(stats.perturbed, 1);
  EXPECT_NE(a.at(1, 1), 0.0);
}

TEST(Getrf, RejectsNonSquare) {
  Csc a = matgen::random_rect(3, 4, 0.5, 1);
  Workspace ws;
  EXPECT_FALSE(getrf(GetrfVariant::kCV1, a, ws, nullptr).is_ok());
}

TEST(Getrf, ParallelVariantMatchesSerialOnPool) {
  ThreadPool pool(4);
  Csc base = close_lu_pattern(matgen::random_sparse(128, 8, 7));
  Workspace ws;
  Csc serial = base, parallel = base;
  ASSERT_TRUE(getrf(GetrfVariant::kGV1, serial, ws, nullptr, {}, nullptr).is_ok());
  ASSERT_TRUE(getrf(GetrfVariant::kGV1, parallel, ws, nullptr, {}, &pool).is_ok());
  EXPECT_TRUE(serial.approx_equal(parallel, 1e-12));
}

// ---------------------------------------------------------------- GESSM ----

class PanelP : public ::testing::TestWithParam<
                   std::tuple<PanelVariant, index_t, index_t, std::uint64_t>> {};

TEST_P(PanelP, GessmMatchesReference) {
  auto [variant, n, bcols, seed] = GetParam();
  Csc diag = close_lu_pattern(matgen::random_sparse(n, 4, seed));
  Workspace ws;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, diag, ws, nullptr).is_ok());
  Csc b0 = matgen::random_rect(n, bcols, 0.25, seed + 1000);
  Csc b = close_lower_solve_pattern(diag, b0);
  Csc ref = b;
  ASSERT_TRUE(gessm_reference(diag, ref).is_ok());
  ASSERT_TRUE(gessm(variant, diag, b, ws).is_ok());
  EXPECT_TRUE(b.approx_equal(ref, 1e-10)) << to_string(variant);
}

TEST_P(PanelP, TstrfMatchesReference) {
  auto [variant, n, brows, seed] = GetParam();
  Csc diag = close_lu_pattern(matgen::random_sparse(n, 4, seed + 7));
  Workspace ws;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, diag, ws, nullptr).is_ok());
  Csc b0 = matgen::random_rect(brows, n, 0.25, seed + 2000);
  Csc b = close_upper_solve_pattern(diag, b0);
  Csc ref = b;
  ASSERT_TRUE(tstrf_reference(diag, ref).is_ok());
  ASSERT_TRUE(tstrf(variant, diag, b, ws).is_ok());
  EXPECT_TRUE(b.approx_equal(ref, 1e-9)) << to_string(variant);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsShapes, PanelP,
    ::testing::Combine(::testing::Values(PanelVariant::kCV1, PanelVariant::kCV2,
                                         PanelVariant::kGV1, PanelVariant::kGV2,
                                         PanelVariant::kGV3, PanelVariant::kGV4),
                       ::testing::Values<index_t>(6, 24, 64),
                       ::testing::Values<index_t>(1, 16, 48),
                       ::testing::Values<std::uint64_t>(11, 12)));

TEST(Gessm, AllVariantsAgree) {
  Csc diag = close_lu_pattern(matgen::random_sparse(40, 5, 31));
  Workspace ws;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, diag, ws, nullptr).is_ok());
  Csc b = close_lower_solve_pattern(diag, matgen::random_rect(40, 30, 0.3, 32));
  Csc first;
  for (auto v : {PanelVariant::kCV1, PanelVariant::kCV2, PanelVariant::kGV1,
                 PanelVariant::kGV2, PanelVariant::kGV3, PanelVariant::kGV4}) {
    Csc work = b;
    ASSERT_TRUE(gessm(v, diag, work, ws).is_ok());
    if (first.n_rows() == 0)
      first = work;
    else
      EXPECT_TRUE(first.approx_equal(work, 1e-12)) << to_string(v);
  }
}

TEST(Tstrf, AllVariantsAgree) {
  Csc diag = close_lu_pattern(matgen::random_sparse(40, 5, 41));
  Workspace ws;
  ASSERT_TRUE(getrf(GetrfVariant::kCV1, diag, ws, nullptr).is_ok());
  Csc b = close_upper_solve_pattern(diag, matgen::random_rect(30, 40, 0.3, 42));
  Csc first;
  for (auto v : {PanelVariant::kCV1, PanelVariant::kCV2, PanelVariant::kGV1,
                 PanelVariant::kGV2, PanelVariant::kGV3, PanelVariant::kGV4}) {
    Csc work = b;
    ASSERT_TRUE(tstrf(v, diag, work, ws).is_ok());
    if (first.n_rows() == 0)
      first = work;
    else
      EXPECT_TRUE(first.approx_equal(work, 1e-12)) << to_string(v);
  }
}

TEST(Gessm, RejectsDimensionMismatch) {
  Csc diag = close_lu_pattern(matgen::random_sparse(8, 3, 1));
  Csc b = matgen::random_rect(9, 4, 0.5, 2);
  Workspace ws;
  EXPECT_FALSE(gessm(PanelVariant::kCV1, diag, b, ws).is_ok());
}

TEST(Tstrf, RejectsDimensionMismatch) {
  Csc diag = close_lu_pattern(matgen::random_sparse(8, 3, 1));
  Csc b = matgen::random_rect(4, 9, 0.5, 2);
  Workspace ws;
  EXPECT_FALSE(tstrf(PanelVariant::kCV1, diag, b, ws).is_ok());
}

// ---------------------------------------------------------------- SSSSM ----

class SsssmP : public ::testing::TestWithParam<
                   std::tuple<SsssmVariant, index_t, double, std::uint64_t>> {};

TEST_P(SsssmP, MatchesDenseReference) {
  auto [variant, n, density, seed] = GetParam();
  Csc a = matgen::random_rect(n, n, density, seed);
  Csc b = matgen::random_rect(n, n, density, seed + 1);
  Csc c0 = matgen::random_rect(n, n, density, seed + 2);
  Csc c = add_product_pattern(a, b, c0);
  Csc ref = c;
  ASSERT_TRUE(ssssm_reference(a, b, ref).is_ok());
  Workspace ws;
  ASSERT_TRUE(ssssm(variant, a, b, c, ws).is_ok());
  EXPECT_TRUE(c.approx_equal(ref, 1e-10)) << to_string(variant);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsSizes, SsssmP,
    ::testing::Combine(::testing::Values(SsssmVariant::kCV1, SsssmVariant::kCV2,
                                         SsssmVariant::kCV3, SsssmVariant::kGV1,
                                         SsssmVariant::kGV2, SsssmVariant::kGV3),
                       ::testing::Values<index_t>(4, 20, 64),
                       ::testing::Values(0.05, 0.3),
                       ::testing::Values<std::uint64_t>(5, 6)));

TEST(Ssssm, RectangularShapes) {
  Csc a = matgen::random_rect(20, 12, 0.3, 8);
  Csc b = matgen::random_rect(12, 28, 0.3, 9);
  Csc c = add_product_pattern(a, b, matgen::random_rect(20, 28, 0.1, 10));
  Csc ref = c;
  ASSERT_TRUE(ssssm_reference(a, b, ref).is_ok());
  Workspace ws;
  for (auto v : {SsssmVariant::kCV1, SsssmVariant::kCV2, SsssmVariant::kCV3,
                 SsssmVariant::kGV1, SsssmVariant::kGV2, SsssmVariant::kGV3}) {
    Csc work = c;
    ASSERT_TRUE(ssssm(v, a, b, work, ws).is_ok());
    EXPECT_TRUE(work.approx_equal(ref, 1e-11)) << to_string(v);
  }
}

TEST(Ssssm, RejectsShapeMismatch) {
  Csc a = matgen::random_rect(4, 5, 0.5, 1);
  Csc b = matgen::random_rect(6, 3, 0.5, 2);  // inner dim mismatch
  Csc c = matgen::random_rect(4, 3, 0.5, 3);
  Workspace ws;
  EXPECT_FALSE(ssssm(SsssmVariant::kCV1, a, b, c, ws).is_ok());
}

TEST(Ssssm, EmptyOperandsLeaveTargetUnchanged) {
  Csc a(5, 5);  // all-empty
  Csc b = matgen::random_rect(5, 5, 0.4, 4);
  Csc c = matgen::random_rect(5, 5, 0.4, 5);
  Csc before = c;
  Workspace ws;
  ASSERT_TRUE(ssssm(SsssmVariant::kGV1, a, b, c, ws).is_ok());
  EXPECT_TRUE(c.approx_equal(before, 0.0));
}

// ------------------------------------------------------------- axpy_sub ----
//
// The dense fast paths of all four kernel families run through
// kernels::axpy_sources_sub, which is built once per ISA level (an AVX2
// clone next to the baseline). Whichever clone this host resolves to must be
// bitwise the plain scalar loop below, or factor bits would depend on the
// CPU.

/// One axpy y[i] -= x[i] * a, i in [0, n), as a single-source run.
template <class V>
void axpy_sub(V* y, const V* x, V a, index_t n) {
  const AxpySource<V> s{x, a, 0, n};
  axpy_sources_sub(y, 0, &s, 1);
}

/// Scalar y[i] -= x[i] * a with the product forced through memory, so this
/// TU's compiler cannot fuse it into an FMA whatever its flags.
template <class V>
void scalar_axpy_sub(V* y, const V* x, V a, index_t n) {
  for (index_t i = 0; i < n; ++i) {
    volatile V prod = x[i] * a;
    y[i] = y[i] - prod;
  }
}

template <class V>
bool same_bits(V p, V q) {
  return std::memcmp(&p, &q, sizeof(V)) == 0;
}

/// Runs axpy_sub and the scalar loop on copies of `y` (n entries starting at
/// y_off) and `x` (from x_off) and expects every entry of the target buffer —
/// including the untouched guard entries around the range — bitwise equal.
template <class V>
void expect_axpy_matches_scalar(const std::vector<V>& y, const std::vector<V>& x,
                                V a, index_t n, index_t y_off, index_t x_off) {
  std::vector<V> got = y, want = y;
  axpy_sub(got.data() + y_off, x.data() + x_off, a, n);
  scalar_axpy_sub(want.data() + y_off, x.data() + x_off, a, n);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << "n=" << n << " y_off=" << y_off << " x_off=" << x_off
        << " entry " << i << ": " << got[i] << " vs " << want[i];
  }
}

template <class V>
class AxpySub : public ::testing::Test {};
using AxpyTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(AxpySub, AxpyTypes);

TYPED_TEST(AxpySub, EveryLengthAndAlignment) {
  using V = TypeParam;
  Rng rng(20231017);
  constexpr index_t kMaxN = 67, kMaxOff = 3, kLen = kMaxN + kMaxOff + 4;
  for (index_t n = 0; n <= kMaxN; ++n) {
    for (index_t y_off = 0; y_off <= kMaxOff; ++y_off) {
      for (index_t x_off = 0; x_off <= kMaxOff; ++x_off) {
        std::vector<V> y(kLen), x(kLen);
        for (auto& v : y) v = static_cast<V>(rng.uniform(-4.0, 4.0));
        for (auto& v : x) v = static_cast<V>(rng.uniform(-4.0, 4.0));
        const auto a = static_cast<V>(rng.uniform(-2.0, 2.0));
        expect_axpy_matches_scalar(y, x, a, n, y_off, x_off);
      }
    }
  }
}

TYPED_TEST(AxpySub, NeverFusesMultiplySubtract) {
  // With x = a = 1 + e, x*a = 1 + 2e + e^2 rounds to 1 + 2e, so the separate
  // multiply-then-subtract gives 1 - (1 + 2e) = -2e exactly, while a fused
  // multiply-subtract keeps e^2 and gives -2e - e^2.
  using V = TypeParam;
  const int mant = std::numeric_limits<V>::digits;  // 24 or 53
  const V e = std::ldexp(V(1), -(mant / 2 + 1));
  const V xa = V(1) + e;
  for (index_t n : {1, 7, 8, 16, 33, 64}) {
    std::vector<V> y(static_cast<std::size_t>(n), V(1));
    std::vector<V> x(static_cast<std::size_t>(n), xa);
    expect_axpy_matches_scalar(y, x, xa, n, 0, 0);
    axpy_sub(y.data(), x.data(), xa, n);
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(y[static_cast<std::size_t>(i)], -2 * e) << "n=" << n << " i=" << i;
  }
}

TYPED_TEST(AxpySub, SignedZerosInfinitiesAndNaNs) {
  using V = TypeParam;
  const V inf = std::numeric_limits<V>::infinity();
  const V nan = std::numeric_limits<V>::quiet_NaN();
  // Each (y, x) pair below is repeated across a vector-sized run so both the
  // vector body and the scalar tail see it.
  const std::vector<std::pair<V, V>> cases = {
      {V(0), V(0)},  {-V(0), V(0)}, {V(0), -V(0)}, {-V(0), -V(0)},
      {V(1), inf},   {inf, V(1)},   {inf, inf},    {-inf, -inf},
      {nan, V(1)},   {V(1), nan},   {V(0), inf},   {inf, V(0)}};
  for (V a : {V(1), -V(1), V(0), -V(0), inf}) {
    std::vector<V> y, x;
    for (int rep = 0; rep < 3; ++rep) {
      for (auto [yv, xv] : cases) {
        y.push_back(yv);
        x.push_back(xv);
      }
    }
    const auto n = static_cast<index_t>(y.size());
    expect_axpy_matches_scalar(y, x, a, n, 0, 0);
  }
}

TEST(AxpySubFp32, SubnormalsFlushUnderTheGuard) {
  // The FP32 kernels run under SubnormalGuard<float>; every clone must flush
  // (FTZ on results, DAZ on inputs) exactly as the scalar loop does.
  SubnormalGuard<float> ftz;
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  std::vector<float> y, x;
  for (index_t i = 0; i < 45; ++i) {
    const auto k = static_cast<float>(i % 9);
    y.push_back((i % 2 ? -1.0f : 1.0f) * tiny * k);
    x.push_back(fmin * (0.25f + 0.125f * k));
  }
  for (float a : {0.5f, -0.75f, 1.0f, tiny}) {
    expect_axpy_matches_scalar(y, x, a, static_cast<index_t>(y.size()), 0, 0);
  }
}

TYPED_TEST(AxpySub, SourceRunsMatchSequentialScalar) {
  // Runs of 1..9 sources with random row ranges inside a window: nested,
  // overlapping, disjoint and identical ranges all occur, so the fused
  // common part, the per-source heads and tails and the leftover singles are
  // each exercised. Every target entry must be bitwise the scalar loop
  // applied source by source.
  using V = TypeParam;
  Rng rng(77);
  constexpr index_t kLo = 3, kHi = 61;
  for (int trial = 0; trial < 400; ++trial) {
    const index_t m = rng.uniform_index(1, 9);
    std::vector<V> pool(static_cast<std::size_t>(m) * kHi);
    for (auto& v : pool) v = static_cast<V>(rng.uniform(-4.0, 4.0));
    std::vector<AxpySource<V>> src;
    for (index_t c = 0; c < m; ++c) {
      index_t b = rng.uniform_index(kLo, kHi - 1);
      index_t e = rng.uniform_index(kLo, kHi);
      if (trial % 3 == 0) b = kLo, e = kHi;  // all sources on one range
      if (b > e) std::swap(b, e);
      src.push_back({pool.data() + static_cast<std::size_t>(c) * kHi,
                     static_cast<V>(rng.uniform(-2.0, 2.0)), b, e});
    }
    std::vector<V> y(kHi - kLo + 2);
    for (auto& v : y) v = static_cast<V>(rng.uniform(-4.0, 4.0));
    std::vector<V> want = y, got = y;
    for (const auto& s : src)
      scalar_axpy_sub(want.data() + (s.begin - kLo), s.x, s.a, s.end - s.begin);
    axpy_sources_sub(got.data(), kLo, src.data(), m);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(same_bits(got[i], want[i]))
          << "trial " << trial << " entry " << i;
  }
}

// ---------------------------------------------- ordered scalar references ----
//
// The kernels' dense and gap-free fast paths must perform, for every entry,
// exactly the multiply-subtracts of the one-entry-at-a-time definitions
// below, in the same order: that is what keeps factors bitwise stable across
// kernel variants, worker counts and builds. Banded blocks give columns that
// are dense, gap-free but partial, or (below full band density) gapped.

/// Position of row r in column j of m, or -1.
template <class V>
nnz_t find_row(const CscT<V>& m, index_t j, index_t r) {
  const auto rows = m.row_idx();
  const auto first = rows.begin() + m.col_begin(j);
  const auto last = rows.begin() + m.col_end(j);
  const auto it = std::lower_bound(first, last, r);
  return it != last && *it == r ? m.col_begin(j) + (it - first) : nnz_t{-1};
}

/// v -= x * a with the product rounded on its own.
template <class V>
void sub_product(V& v, V x, V a) {
  volatile V prod = x * a;
  v = v - prod;
}

template <class V>
void ssssm_ordered(const CscT<V>& a, const CscT<V>& b, CscT<V>& c) {
  for (index_t j = 0; j < b.n_cols(); ++j)
    for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
      const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
      const V bkj = b.values()[static_cast<std::size_t>(q)];
      if (bkj == V(0)) continue;
      for (nnz_t p = a.col_begin(k); p < a.col_end(k); ++p) {
        const nnz_t t = find_row(c, j, a.row_idx()[static_cast<std::size_t>(p)]);
        if (t >= 0)
          sub_product(c.values_mut()[static_cast<std::size_t>(t)],
                      a.values()[static_cast<std::size_t>(p)], bkj);
      }
    }
}

template <class V>
void gessm_ordered(const CscT<V>& l, CscT<V>& b) {
  for (index_t j = 0; j < b.n_cols(); ++j)
    for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p) {
      const index_t k = b.row_idx()[static_cast<std::size_t>(p)];
      const V x = b.values()[static_cast<std::size_t>(p)];
      if (x == V(0)) continue;
      for (nnz_t q = l.col_begin(k); q < l.col_end(k); ++q) {
        const index_t r = l.row_idx()[static_cast<std::size_t>(q)];
        if (r <= k) continue;
        const nnz_t t = find_row(b, j, r);
        if (t >= 0)
          sub_product(b.values_mut()[static_cast<std::size_t>(t)],
                      l.values()[static_cast<std::size_t>(q)], x);
      }
    }
}

template <class V>
void tstrf_ordered(const CscT<V>& u, CscT<V>& b) {
  for (index_t j = 0; j < b.n_cols(); ++j) {
    V ujj = V(0);
    for (nnz_t q = u.col_begin(j); q < u.col_end(j); ++q) {
      const index_t k = u.row_idx()[static_cast<std::size_t>(q)];
      if (k > j) break;
      const V ukj = u.values()[static_cast<std::size_t>(q)];
      if (k == j) {
        ujj = ukj;
        continue;
      }
      if (ukj == V(0)) continue;
      for (nnz_t s = b.col_begin(k); s < b.col_end(k); ++s) {
        const nnz_t t = find_row(b, j, b.row_idx()[static_cast<std::size_t>(s)]);
        if (t >= 0)
          sub_product(b.values_mut()[static_cast<std::size_t>(t)],
                      b.values()[static_cast<std::size_t>(s)], ukj);
      }
    }
    for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p)
      b.values_mut()[static_cast<std::size_t>(p)] /= ujj;
  }
}

template <class V>
void getrf_ordered(CscT<V>& a) {
  for (index_t j = 0; j < a.n_cols(); ++j) {
    nnz_t diag = -1;
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      const index_t k = a.row_idx()[static_cast<std::size_t>(p)];
      if (k >= j) {
        diag = p;
        break;
      }
      const V x = a.values()[static_cast<std::size_t>(p)];
      if (x == V(0)) continue;
      for (nnz_t q = a.col_begin(k); q < a.col_end(k); ++q) {
        const index_t r = a.row_idx()[static_cast<std::size_t>(q)];
        if (r <= k) continue;
        const nnz_t t = find_row(a, j, r);
        if (t >= 0)
          sub_product(a.values_mut()[static_cast<std::size_t>(t)],
                      a.values()[static_cast<std::size_t>(q)], x);
      }
    }
    const V pivot = a.values()[static_cast<std::size_t>(diag)];
    for (nnz_t p = diag + 1; p < a.col_end(j); ++p)
      a.values_mut()[static_cast<std::size_t>(p)] /= pivot;
  }
}

template <class V>
bool bitwise_equal(const CscT<V>& x, const CscT<V>& y) {
  if (x.nnz() != y.nnz()) return false;
  for (nnz_t p = 0; p < x.nnz(); ++p)
    if (!same_bits(x.values()[static_cast<std::size_t>(p)],
                   y.values()[static_cast<std::size_t>(p)]))
      return false;
  return true;
}

/// A banded test block: band density 1 makes every column gap-free.
template <class V>
CscT<V> band_block(index_t n, index_t bw, double density, std::uint64_t seed) {
  Csc m = matgen::banded_random(n, bw, density, 0, seed);
  for (index_t j = 0; j < n; ++j) {
    const nnz_t t = find_row(m, j, j);
    if (t >= 0) m.values_mut()[static_cast<std::size_t>(t)] += 4.0 * bw;
  }
  return CscT<V>::converted_from(m);
}

template <class V>
class OrderedReference : public ::testing::Test {};
TYPED_TEST_SUITE(OrderedReference, AxpyTypes);

TYPED_TEST(OrderedReference, EveryFamilyBitwiseOnBandedBlocks) {
  using V = TypeParam;
  std::uint64_t seed = 5;
  for (index_t n : {9, 40}) {
    for (index_t bw : {2, 7, n}) {
      for (double density : {1.0, 0.6}) {
        SCOPED_TRACE("n " + std::to_string(n) + " bw " + std::to_string(bw) +
                     " density " + std::to_string(density));
        // The diagonal block, factorised: GESSM's L and TSTRF's U.
        CscT<V> lu = CscT<V>::converted_from(
            close_lu_pattern(Csc::converted_from(band_block<V>(n, bw, density, ++seed))));
        CscT<V> want_lu = lu;
        getrf_ordered(want_lu);
        for (GetrfVariant v : {GetrfVariant::kCV1, GetrfVariant::kGV1,
                               GetrfVariant::kGV2}) {
          CscT<V> got = lu;
          Workspace ws;
          ASSERT_TRUE(getrf(v, got, ws, nullptr).is_ok());
          EXPECT_TRUE(bitwise_equal(got, want_lu)) << to_string(v);
        }
        const CscT<V> b0 = band_block<V>(n, bw, density, ++seed);
        for (PanelVariant v : {PanelVariant::kCV1, PanelVariant::kCV2,
                               PanelVariant::kGV1, PanelVariant::kGV2,
                               PanelVariant::kGV3, PanelVariant::kGV4}) {
          CscT<V> want = b0, got = b0;
          gessm_ordered(want_lu, want);
          Workspace ws;
          ASSERT_TRUE(gessm(v, want_lu, got, ws).is_ok());
          EXPECT_TRUE(bitwise_equal(got, want)) << "GESSM " << to_string(v);
          want = b0;
          got = b0;
          tstrf_ordered(want_lu, want);
          ASSERT_TRUE(tstrf(v, want_lu, got, ws).is_ok());
          EXPECT_TRUE(bitwise_equal(got, want)) << "TSTRF " << to_string(v);
        }
        const CscT<V> a = band_block<V>(n, bw, density, ++seed);
        const CscT<V> b = band_block<V>(n, bw, density, ++seed);
        const CscT<V> c0 = CscT<V>::converted_from(add_product_pattern(
            Csc::converted_from(a), Csc::converted_from(b),
            Csc::converted_from(band_block<V>(n, bw, density, ++seed))));
        CscT<V> want = c0;
        ssssm_ordered(a, b, want);
        for (SsssmVariant v : {SsssmVariant::kCV1, SsssmVariant::kCV2,
                               SsssmVariant::kCV3, SsssmVariant::kGV1,
                               SsssmVariant::kGV2, SsssmVariant::kGV3}) {
          CscT<V> got = c0;
          Workspace ws;
          ASSERT_TRUE(ssssm(v, a, b, got, ws).is_ok());
          EXPECT_TRUE(bitwise_equal(got, want)) << to_string(v);
        }
      }
    }
  }
}

// ---------------------------------------------------------------- FLOPs ----

TEST(Flops, SsssmCountsInnerProducts) {
  // A: one full column k=0 with 3 entries; B: row 0 has 2 entries.
  Coo ca(3, 2), cb(2, 4);
  for (int i = 0; i < 3; ++i) ca.add(i, 0, 1.0);
  cb.add(0, 1, 1.0);
  cb.add(0, 3, 1.0);
  EXPECT_DOUBLE_EQ(ssssm_flops(Csc::from_coo(ca), Csc::from_coo(cb)),
                   2.0 * 3 * 2);
}

TEST(Flops, GetrfDenseBlockMatchesClosedForm) {
  // Fully dense n x n block: flops = sum_k (n-k-1) + 2(n-k-1)^2.
  const index_t n = 10;
  Csc a = close_lu_pattern(matgen::random_sparse(n, n, 1, false));
  double expect = 0;
  for (index_t k = 0; k < n; ++k) {
    double lk = n - k - 1;
    expect += lk + 2 * lk * lk;
  }
  // The closed pattern of a dense-ish random matrix is fully dense.
  if (a.nnz() == static_cast<nnz_t>(n) * n) {
    EXPECT_DOUBLE_EQ(getrf_flops(a), expect);
  } else {
    GTEST_SKIP() << "pattern not fully dense for this seed";
  }
}

// ------------------------------------------------------------- Selector ----

TEST(Selector, GetrfTreeFollowsFigure8) {
  EXPECT_EQ(select_getrf(100), GetrfVariant::kCV1);
  EXPECT_EQ(select_getrf(7000), GetrfVariant::kGV1);
  EXPECT_EQ(select_getrf(50000), GetrfVariant::kGV2);
}

TEST(Selector, GessmTreeFollowsFigure8) {
  EXPECT_EQ(select_gessm(100, 10), PanelVariant::kCV1);
  EXPECT_EQ(select_gessm(5000, 10), PanelVariant::kCV2);
  EXPECT_EQ(select_gessm(10000, 10), PanelVariant::kGV1);
  EXPECT_EQ(select_gessm(15000, 10), PanelVariant::kGV2);
  EXPECT_EQ(select_gessm(100000, 10), PanelVariant::kGV3);
  // Huge diagonal block: CPU guard.
  EXPECT_EQ(select_gessm(100000, 10000000), PanelVariant::kCV2);
  EXPECT_EQ(select_gessm(100, 10000000), PanelVariant::kCV1);
}

TEST(Selector, TstrfTreeFollowsFigure8) {
  EXPECT_EQ(select_tstrf(100, 10), PanelVariant::kCV1);
  EXPECT_EQ(select_tstrf(5000, 10), PanelVariant::kCV2);
  EXPECT_EQ(select_tstrf(8000, 10), PanelVariant::kGV1);
  EXPECT_EQ(select_tstrf(15000, 10), PanelVariant::kGV2);
  EXPECT_EQ(select_tstrf(1000000, 10), PanelVariant::kGV3);
}

TEST(Selector, SsssmTreeFollowsFigure8) {
  EXPECT_EQ(select_ssssm(1e3), SsssmVariant::kCV2);
  EXPECT_EQ(select_ssssm(1e5), SsssmVariant::kCV3);  // merge band
  EXPECT_EQ(select_ssssm(1e6), SsssmVariant::kCV1);
  EXPECT_EQ(select_ssssm(1e8), SsssmVariant::kGV1);
  EXPECT_EQ(select_ssssm(1e10), SsssmVariant::kGV2);
}

TEST(Selector, PanelMergeBandIsOptIn) {
  // The G_V4 (merge) band is empty with default thresholds (== the G_V1
  // cut) and opens only when the caller widens it.
  EXPECT_EQ(select_gessm(13000, 10), PanelVariant::kGV2);
  SelectorThresholds t;
  t.gessm_gv4_nnz = 15000;
  t.tstrf_gv4_nnz = 15000;
  EXPECT_EQ(select_gessm(13000, 10, t), PanelVariant::kGV4);
  EXPECT_EQ(select_tstrf(12000, 10, t), PanelVariant::kGV4);
}

}  // namespace
}  // namespace pangulu::kernels
