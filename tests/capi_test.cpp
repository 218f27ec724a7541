#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "capi/pangulu_c.h"
#include "io/matrix_market.hpp"
#include "matgen/generators.hpp"
#include "sparse/ops.hpp"

namespace {

using pangulu::Csc;
using pangulu::index_t;
using pangulu::value_t;

struct CscArrays {
  std::vector<int64_t> col_ptr;
  std::vector<int32_t> row_idx;
  std::vector<double> values;
};

CscArrays to_arrays(const Csc& m) {
  CscArrays a;
  a.col_ptr.assign(m.col_ptr().begin(), m.col_ptr().end());
  a.row_idx.assign(m.row_idx().begin(), m.row_idx().end());
  a.values.assign(m.values().begin(), m.values().end());
  return a;
}

TEST(CApi, CreateFactorizeSolveRoundTrip) {
  Csc m = pangulu::matgen::grid2d_laplacian(12, 12);
  CscArrays a = to_arrays(m);
  pangulu_handle* h = nullptr;
  ASSERT_EQ(pangulu_create(m.n_cols(), a.col_ptr.data(), a.row_idx.data(),
                           a.values.data(), &h),
            PANGULU_OK);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(pangulu_matrix_order(h), 144);
  EXPECT_EQ(pangulu_nnz_lu(h), -1) << "not factorised yet";

  ASSERT_EQ(pangulu_factorize(h, 4, 0), PANGULU_OK);
  EXPECT_GT(pangulu_nnz_lu(h), m.nnz());
  EXPECT_GT(pangulu_factor_flops(h), 0.0);
  EXPECT_GT(pangulu_modeled_numeric_seconds(h), 0.0);

  std::vector<value_t> ones(static_cast<std::size_t>(m.n_cols()), 1.0);
  std::vector<double> bx(static_cast<std::size_t>(m.n_rows()));
  m.spmv(ones, bx);
  ASSERT_EQ(pangulu_solve(h, bx.data()), PANGULU_OK);
  for (double v : bx) EXPECT_NEAR(v, 1.0, 1e-8);

  pangulu_destroy(h);
}

TEST(CApi, TransposeSolve) {
  Csc m = pangulu::matgen::cage_style(120, 3, 5);
  CscArrays a = to_arrays(m);
  pangulu_handle* h = nullptr;
  ASSERT_EQ(pangulu_create(m.n_cols(), a.col_ptr.data(), a.row_idx.data(),
                           a.values.data(), &h),
            PANGULU_OK);
  ASSERT_EQ(pangulu_factorize(h, 1, 0), PANGULU_OK);
  std::vector<value_t> ones(static_cast<std::size_t>(m.n_cols()), 1.0);
  std::vector<double> bx(static_cast<std::size_t>(m.n_rows()));
  m.transpose().spmv(ones, bx);
  ASSERT_EQ(pangulu_solve_transpose(h, bx.data()), PANGULU_OK);
  for (double v : bx) EXPECT_NEAR(v, 1.0, 1e-7);
  pangulu_destroy(h);
}

TEST(CApi, ErrorPathsReportCodesAndMessages) {
  pangulu_handle* h = nullptr;
  EXPECT_EQ(pangulu_create(3, nullptr, nullptr, nullptr, &h),
            PANGULU_INVALID_ARGUMENT);

  // Malformed CSC: unsorted rows.
  std::vector<int64_t> cp = {0, 2, 2, 2};
  std::vector<int32_t> ri = {2, 0};
  std::vector<double> v = {1.0, 2.0};
  EXPECT_NE(pangulu_create(3, cp.data(), ri.data(), v.data(), &h), PANGULU_OK);

  // Solve before factorise.
  Csc m = pangulu::matgen::grid2d_laplacian(4, 4);
  CscArrays a = to_arrays(m);
  ASSERT_EQ(pangulu_create(m.n_cols(), a.col_ptr.data(), a.row_idx.data(),
                           a.values.data(), &h),
            PANGULU_OK);
  std::vector<double> bx(16, 1.0);
  EXPECT_EQ(pangulu_solve(h, bx.data()), PANGULU_FAILED_PRECONDITION);
  EXPECT_NE(std::string(pangulu_last_error(h)), "");
  pangulu_destroy(h);

  // Structurally singular matrix fails factorisation with a numeric code.
  std::vector<int64_t> cp2 = {0, 1, 1};
  std::vector<int32_t> ri2 = {0};
  std::vector<double> v2 = {1.0};
  ASSERT_EQ(pangulu_create(2, cp2.data(), ri2.data(), v2.data(), &h),
            PANGULU_OK);
  EXPECT_EQ(pangulu_factorize(h, 1, 0), PANGULU_NUMERICAL_ERROR);
  pangulu_destroy(h);

  // Null handles are tolerated.
  EXPECT_EQ(pangulu_matrix_order(nullptr), -1);
  EXPECT_EQ(pangulu_nnz_lu(nullptr), -1);
  EXPECT_EQ(pangulu_solve(nullptr, bx.data()), PANGULU_INVALID_ARGUMENT);
  pangulu_destroy(nullptr);
}

TEST(CApi, CheckpointedFactorizeAndResumeRoundTrip) {
  Csc m = pangulu::matgen::grid2d_laplacian(10, 10);
  CscArrays a = to_arrays(m);
  const std::string path = ::testing::TempDir() + "/capi_checkpoint.bin";

  // Checkpointed factorise runs to completion and leaves a loadable snapshot.
  pangulu_handle* h = nullptr;
  ASSERT_EQ(pangulu_create(m.n_cols(), a.col_ptr.data(), a.row_idx.data(),
                           a.values.data(), &h),
            PANGULU_OK);
  ASSERT_EQ(pangulu_factorize_checkpointed(h, 2, 0, path.c_str(), 5),
            PANGULU_OK);
  const int64_t nnz_lu = pangulu_nnz_lu(h);
  EXPECT_GT(nnz_lu, 0);

  std::vector<value_t> ones(static_cast<std::size_t>(m.n_cols()), 1.0);
  std::vector<double> bx(static_cast<std::size_t>(m.n_rows()));
  m.spmv(ones, bx);
  ASSERT_EQ(pangulu_solve(h, bx.data()), PANGULU_OK);
  pangulu_destroy(h);

  // Resume from the mid-flight snapshot in a brand-new handle: the restored
  // solver solves to the exact same answer.
  pangulu_handle* r = nullptr;
  ASSERT_EQ(pangulu_resume_from_checkpoint(path.c_str(), &r), PANGULU_OK);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(pangulu_matrix_order(r), m.n_cols());
  EXPECT_EQ(pangulu_nnz_lu(r), nnz_lu);
  std::vector<double> bx2(static_cast<std::size_t>(m.n_rows()));
  m.spmv(ones, bx2);
  ASSERT_EQ(pangulu_solve(r, bx2.data()), PANGULU_OK);
  for (std::size_t i = 0; i < bx.size(); ++i) EXPECT_EQ(bx[i], bx2[i]);
  pangulu_destroy(r);

  // Corrupt the snapshot on disk: typed corruption code, no handle.
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char x = 0x7f;
    f.write(&x, 1);
  }
  pangulu_handle* bad = nullptr;
  const int rc = pangulu_resume_from_checkpoint(path.c_str(), &bad);
  EXPECT_TRUE(rc == PANGULU_DATA_CORRUPTION || rc == PANGULU_IO_ERROR);
  EXPECT_EQ(bad, nullptr);
  std::remove(path.c_str());

  EXPECT_EQ(pangulu_resume_from_checkpoint(path.c_str(), &bad),
            PANGULU_IO_ERROR);
  EXPECT_EQ(pangulu_factorize_checkpointed(nullptr, 1, 0, path.c_str(), 0),
            PANGULU_INVALID_ARGUMENT);
  EXPECT_EQ(pangulu_resume_from_checkpoint(nullptr, &bad),
            PANGULU_INVALID_ARGUMENT);
}

TEST(CApi, SessionRefactorizeAndMultiRhsRoundTrip) {
  Csc m = pangulu::matgen::grid2d_laplacian(12, 12);
  const int32_t n = m.n_cols();
  CscArrays a = to_arrays(m);
  pangulu_session* s = nullptr;
  ASSERT_EQ(pangulu_session_create(n, a.col_ptr.data(), a.row_idx.data(),
                                   a.values.data(), 4, 0, &s),
            PANGULU_OK);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(pangulu_session_matrix_order(s), n);
  EXPECT_NE(pangulu_session_pattern_hash(s), 0u);

  std::vector<value_t> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> bx(static_cast<std::size_t>(n));
  m.spmv(ones, bx);
  ASSERT_EQ(pangulu_session_solve(s, bx.data()), PANGULU_OK);
  for (double v : bx) EXPECT_NEAR(v, 1.0, 1e-8);

  // Numeric-only refactorisation with scaled values: solves track them.
  std::vector<double> v2(a.values);
  for (double& v : v2) v *= 2.0;
  ASSERT_EQ(pangulu_session_refactorize(s, v2.data(),
                                        static_cast<int64_t>(v2.size())),
            PANGULU_OK);
  Csc m2 = m;
  for (value_t& v : m2.values_mut()) v *= 2.0;
  m2.spmv(ones, bx);
  ASSERT_EQ(pangulu_session_solve(s, bx.data()), PANGULU_OK);
  for (double v : bx) EXPECT_NEAR(v, 1.0, 1e-8);

  // Multi-RHS: each column comes back bitwise equal to its single solve.
  const int32_t k = 3;
  std::vector<double> panel(static_cast<std::size_t>(n) * k);
  for (std::size_t i = 0; i < panel.size(); ++i)
    panel[i] = 0.25 + 0.5 * static_cast<double>(i % 7);
  std::vector<double> cols(panel);
  ASSERT_EQ(pangulu_session_solve_multi(s, panel.data(), k), PANGULU_OK);
  for (int32_t j = 0; j < k; ++j) {
    ASSERT_EQ(pangulu_session_solve(
                  s, cols.data() + static_cast<std::size_t>(j) * n),
              PANGULU_OK);
    for (int32_t i = 0; i < n; ++i)
      EXPECT_EQ(panel[static_cast<std::size_t>(j) * n + i],
                cols[static_cast<std::size_t>(j) * n + i]);
  }

  // Wrong value count: typed precondition failure with a message.
  EXPECT_EQ(pangulu_session_refactorize(s, v2.data(),
                                        static_cast<int64_t>(v2.size()) - 1),
            PANGULU_FAILED_PRECONDITION);
  EXPECT_NE(std::string(pangulu_session_last_error(s)), "");

  // Different pattern through the CSC path: fingerprint mismatch.
  Csc other = pangulu::matgen::grid2d_laplacian(16, 9);
  ASSERT_EQ(other.n_cols(), n);
  CscArrays oa = to_arrays(other);
  EXPECT_EQ(pangulu_session_refactorize_csc(s, oa.col_ptr.data(),
                                            oa.row_idx.data(),
                                            oa.values.data()),
            PANGULU_FAILED_PRECONDITION);

  // Null/invalid arguments are tolerated.
  EXPECT_EQ(pangulu_session_solve(nullptr, bx.data()),
            PANGULU_INVALID_ARGUMENT);
  EXPECT_EQ(pangulu_session_matrix_order(nullptr), -1);
  EXPECT_EQ(pangulu_session_pattern_hash(nullptr), 0u);
  pangulu_session_destroy(s);
  pangulu_session_destroy(nullptr);
}

TEST(CApi, MixedPrecisionSessionRoundTrip) {
  Csc m = pangulu::matgen::grid2d_laplacian(12, 12);
  const int32_t n = m.n_cols();
  CscArrays a = to_arrays(m);
  const double tol = 1e-12;

  pangulu_session* s = nullptr;
  ASSERT_EQ(pangulu_session_create_ex(n, a.col_ptr.data(), a.row_idx.data(),
                                      a.values.data(), 4, 0,
                                      PANGULU_PRECISION_MIXED_IR, tol, 0, &s),
            PANGULU_OK);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(pangulu_session_precision(s), PANGULU_PRECISION_MIXED_IR);
  EXPECT_EQ(pangulu_session_refine_iterations(s), -1) << "no solve yet";
  EXPECT_EQ(pangulu_session_final_residual(s), -1.0);

  std::vector<value_t> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> bx(static_cast<std::size_t>(n));
  m.spmv(ones, bx);
  ASSERT_EQ(pangulu_session_solve(s, bx.data()), PANGULU_OK);
  for (double v : bx) EXPECT_NEAR(v, 1.0, 1e-9);

  // IR stats are retrievable and honour the requested tolerance.
  EXPECT_GE(pangulu_session_refine_iterations(s), 1);
  EXPECT_GE(pangulu_session_final_residual(s), 0.0);
  EXPECT_LE(pangulu_session_final_residual(s), tol);

  // Multi-RHS under mixed-IR reports the worst column's stats.
  const int32_t k = 2;
  std::vector<double> panel(static_cast<std::size_t>(n) * k, 1.0);
  ASSERT_EQ(pangulu_session_solve_multi(s, panel.data(), k), PANGULU_OK);
  EXPECT_LE(pangulu_session_final_residual(s), tol);

  pangulu_session_destroy(s);

  // The classic constructor stays FP64 and reports its precision as such.
  pangulu_session* d = nullptr;
  ASSERT_EQ(pangulu_session_create(n, a.col_ptr.data(), a.row_idx.data(),
                                   a.values.data(), 1, 0, &d),
            PANGULU_OK);
  EXPECT_EQ(pangulu_session_precision(d), PANGULU_PRECISION_DOUBLE);
  pangulu_session_destroy(d);

  // Out-of-range precision and negative IR knobs are rejected up front
  // (the precision travels as int32_t, so 7 is a defined input).
  EXPECT_EQ(pangulu_session_create_ex(n, a.col_ptr.data(), a.row_idx.data(),
                                      a.values.data(), 1, 0,
                                      7, 0, 0, &s),
            PANGULU_INVALID_ARGUMENT);
  EXPECT_EQ(pangulu_session_create_ex(n, a.col_ptr.data(), a.row_idx.data(),
                                      a.values.data(), 1, 0, -1, 0, 0, &s),
            PANGULU_INVALID_ARGUMENT);
  EXPECT_EQ(pangulu_session_create_ex(n, a.col_ptr.data(), a.row_idx.data(),
                                      a.values.data(), 1, 0,
                                      PANGULU_PRECISION_MIXED_IR, -1.0, 0, &s),
            PANGULU_INVALID_ARGUMENT);
  EXPECT_EQ(pangulu_session_precision(nullptr), PANGULU_PRECISION_DOUBLE);
  EXPECT_EQ(pangulu_session_refine_iterations(nullptr), -1);
}

// Deadline round trip: a missed deadline sheds typed, leaves b_x bitwise
// untouched, and the session remains fully usable — the same solve then
// succeeds without a deadline and with a generous one.
TEST(CApiSession, SolveDeadlineRoundTrip) {
  Csc m = pangulu::matgen::grid2d_laplacian(12, 12);
  const int32_t n = m.n_cols();
  CscArrays a = to_arrays(m);
  pangulu_session* s = nullptr;
  ASSERT_EQ(pangulu_session_create(n, a.col_ptr.data(), a.row_idx.data(),
                                   a.values.data(), 4, 0, &s),
            PANGULU_OK);

  std::vector<value_t> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  m.spmv(ones, rhs);

  // deadline <= 0 sheds immediately; 1 ns expires at the first sweep level.
  for (double dl : {0.0, 1e-9}) {
    std::vector<double> bx = rhs;
    EXPECT_EQ(pangulu_session_solve_deadline(s, bx.data(), dl),
              PANGULU_DEADLINE_EXCEEDED);
    EXPECT_EQ(bx, rhs) << "a shed solve must not touch b_x";
    EXPECT_NE(std::string(pangulu_session_last_error(s)), "");
  }

  std::vector<double> bx = rhs;
  ASSERT_EQ(pangulu_session_solve(s, bx.data()), PANGULU_OK);
  for (double v : bx) EXPECT_NEAR(v, 1.0, 1e-8);

  std::vector<double> bx2 = rhs;
  ASSERT_EQ(pangulu_session_solve_deadline(s, bx2.data(), 60.0), PANGULU_OK);
  EXPECT_EQ(bx2, bx) << "a roomy deadline behaves exactly like solve";

  EXPECT_EQ(pangulu_session_solve_deadline(nullptr, bx.data(), 1.0),
            PANGULU_INVALID_ARGUMENT);
  EXPECT_EQ(pangulu_session_solve_deadline(s, nullptr, 1.0),
            PANGULU_INVALID_ARGUMENT);
  // The two shed codes are distinct, stable enum members.
  EXPECT_NE(PANGULU_DEADLINE_EXCEEDED, PANGULU_CANCELLED);
  pangulu_session_destroy(s);
}

TEST(CApi, CreateFromFile) {
  Csc m = pangulu::matgen::grid2d_laplacian(6, 6);
  const std::string path = ::testing::TempDir() + "/capi_test.mtx";
  pangulu::io::write_matrix_market_file(path, m).check();
  pangulu_handle* h = nullptr;
  ASSERT_EQ(pangulu_create_from_file(path.c_str(), &h), PANGULU_OK);
  EXPECT_EQ(pangulu_matrix_order(h), 36);
  ASSERT_EQ(pangulu_factorize(h, 2, 0), PANGULU_OK);
  pangulu_destroy(h);
  EXPECT_EQ(pangulu_create_from_file("/no/such/file.mtx", &h),
            PANGULU_IO_ERROR);
}

}  // namespace
