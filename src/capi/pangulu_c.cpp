#include "capi/pangulu_c.h"

#include <algorithm>
#include <string>
#include <vector>

#include "io/matrix_market.hpp"
#include "solver/session.hpp"
#include "solver/solver.hpp"

using pangulu::Csc;
using pangulu::Dense;
using pangulu::Status;
using pangulu::StatusCode;

/* Both handle kinds run on a solver::Session, so the classic
 * factorize/solve entry points and the session API share one code path. */
struct pangulu_handle {
  Csc matrix;
  pangulu::solver::Session session;
  bool factorized = false;
  std::string last_error;
};

struct pangulu_session {
  Csc matrix;
  pangulu::solver::Session session;
  pangulu_precision precision = PANGULU_PRECISION_DOUBLE;
  /* Refinement stats of the most recent successful solve; iterations < 0
   * until one completes. */
  pangulu::solver::SolveStats last_solve;
  bool solved = false;
  std::string last_error;
};

namespace {

template <typename H>
int set_status(H* h, const Status& s) {
  if (s.is_ok()) {
    if (h) h->last_error.clear();
    return PANGULU_OK;
  }
  if (h) h->last_error = s.message();
  switch (s.code()) {
    case StatusCode::kInvalidArgument: return PANGULU_INVALID_ARGUMENT;
    case StatusCode::kOutOfRange: return PANGULU_OUT_OF_RANGE;
    case StatusCode::kFailedPrecondition: return PANGULU_FAILED_PRECONDITION;
    case StatusCode::kNumericalError: return PANGULU_NUMERICAL_ERROR;
    case StatusCode::kIoError: return PANGULU_IO_ERROR;
    case StatusCode::kUnavailable: return PANGULU_UNAVAILABLE;
    case StatusCode::kInvariantViolation: return PANGULU_INVARIANT_VIOLATION;
    case StatusCode::kDataCorruption: return PANGULU_DATA_CORRUPTION;
    case StatusCode::kResourceExhausted: return PANGULU_RESOURCE_EXHAUSTED;
    case StatusCode::kNumericBreakdown: return PANGULU_NUMERIC_BREAKDOWN;
    case StatusCode::kDeadlineExceeded: return PANGULU_DEADLINE_EXCEEDED;
    case StatusCode::kCancelled: return PANGULU_CANCELLED;
    case StatusCode::kInternal: return PANGULU_INTERNAL;
    default: return PANGULU_INTERNAL;
  }
}

/* Guard: the C boundary must not leak C++ exceptions. */
template <typename H, typename F>
int guarded(H* h, F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    if (h) h->last_error = e.what();
    return PANGULU_INTERNAL;
  } catch (...) {
    if (h) h->last_error = "unknown exception";
    return PANGULU_INTERNAL;
  }
}

Csc csc_from_c_parts(int32_t n, const int64_t* col_ptr, const int32_t* row_idx,
                     const double* values) {
  const auto nnz = static_cast<std::size_t>(col_ptr[n]);
  return Csc::from_parts(
      n, n, std::vector<pangulu::nnz_t>(col_ptr, col_ptr + n + 1),
      std::vector<pangulu::index_t>(row_idx, row_idx + nnz),
      std::vector<pangulu::value_t>(values, values + nnz));
}

}  // namespace

extern "C" {

int pangulu_create(int32_t n, const int64_t* col_ptr, const int32_t* row_idx,
                   const double* values, pangulu_handle** out) {
  if (!out || !col_ptr || n < 0 || (n > 0 && (!row_idx || !values)))
    return PANGULU_INVALID_ARGUMENT;
  *out = nullptr;
  auto* h = new pangulu_handle();
  const int rc = guarded(h, [&]() -> int {
    h->matrix = csc_from_c_parts(n, col_ptr, row_idx, values);
    return PANGULU_OK;
  });
  if (rc != PANGULU_OK) {
    delete h;
    return rc;
  }
  *out = h;
  return PANGULU_OK;
}

int pangulu_create_from_file(const char* path, pangulu_handle** out) {
  if (!out || !path) return PANGULU_INVALID_ARGUMENT;
  *out = nullptr;
  auto* h = new pangulu_handle();
  const int rc = guarded(h, [&]() -> int {
    Csc m;
    Status s = pangulu::io::read_matrix_market_file(path, &m);
    if (!s.is_ok()) return set_status(h, s);
    if (m.n_rows() != m.n_cols())
      return set_status(h, Status::invalid_argument("matrix must be square"));
    h->matrix = std::move(m);
    return PANGULU_OK;
  });
  if (rc != PANGULU_OK) {
    delete h;
    return rc;
  }
  *out = h;
  return PANGULU_OK;
}

int pangulu_factorize(pangulu_handle* h, int32_t n_ranks, int32_t block_size) {
  if (!h) return PANGULU_INVALID_ARGUMENT;
  return guarded(h, [&]() -> int {
    pangulu::solver::Options opts;
    opts.n_ranks = n_ranks > 0 ? n_ranks : 1;
    opts.block_size = block_size;
    Status s = h->session.setup(h->matrix, opts);
    if (s.is_ok()) h->factorized = true;
    return set_status(h, s);
  });
}

int pangulu_factorize_checkpointed(pangulu_handle* h, int32_t n_ranks,
                                   int32_t block_size,
                                   const char* checkpoint_path,
                                   int64_t interval_tasks) {
  if (!h || !checkpoint_path || !checkpoint_path[0] || interval_tasks < 0)
    return PANGULU_INVALID_ARGUMENT;
  return guarded(h, [&]() -> int {
    pangulu::solver::Options opts;
    opts.n_ranks = n_ranks > 0 ? n_ranks : 1;
    opts.block_size = block_size;
    opts.checkpoint_path = checkpoint_path;
    opts.checkpoint_interval_tasks =
        static_cast<pangulu::index_t>(interval_tasks);
    /* Checkpointing without corruption detection saves corrupted state;
     * arm the cheap audit level alongside. */
    opts.abft_level = pangulu::runtime::AbftLevel::kCheap;
    Status s = h->session.setup(h->matrix, opts);
    if (s.is_ok()) h->factorized = true;
    return set_status(h, s);
  });
}

int pangulu_resume_from_checkpoint(const char* checkpoint_path,
                                   pangulu_handle** out) {
  if (!out || !checkpoint_path) return PANGULU_INVALID_ARGUMENT;
  *out = nullptr;
  auto* h = new pangulu_handle();
  const int rc = guarded(h, [&]() -> int {
    /* Keep checkpointing to the same file while the resumed run finishes —
     * a second interruption stays recoverable. */
    pangulu::solver::Options base;
    base.checkpoint_path = checkpoint_path;
    Status s = h->session.resume_from(checkpoint_path, base);
    if (!s.is_ok()) return set_status(h, s);
    h->matrix = h->session.solver().matrix();
    h->factorized = true;
    return PANGULU_OK;
  });
  if (rc != PANGULU_OK) {
    delete h;
    return rc;
  }
  *out = h;
  return PANGULU_OK;
}

int pangulu_solve(pangulu_handle* h, double* b_x) {
  if (!h || !b_x) return PANGULU_INVALID_ARGUMENT;
  return guarded(h, [&]() -> int {
    const auto n = static_cast<std::size_t>(h->matrix.n_cols());
    std::vector<double> x(n);
    Status s = h->session.solve({b_x, n}, x);
    if (s.is_ok()) std::copy(x.begin(), x.end(), b_x);
    return set_status(h, s);
  });
}

int pangulu_solve_transpose(pangulu_handle* h, double* b_x) {
  if (!h || !b_x) return PANGULU_INVALID_ARGUMENT;
  return guarded(h, [&]() -> int {
    const auto n = static_cast<std::size_t>(h->matrix.n_cols());
    std::vector<double> x(n);
    Status s = h->session.solve_transpose({b_x, n}, x);
    if (s.is_ok()) std::copy(x.begin(), x.end(), b_x);
    return set_status(h, s);
  });
}

int64_t pangulu_nnz_lu(const pangulu_handle* h) {
  return h && h->factorized ? h->session.solver().stats().nnz_lu : -1;
}

double pangulu_factor_flops(const pangulu_handle* h) {
  return h && h->factorized ? h->session.solver().stats().flops : -1.0;
}

double pangulu_modeled_numeric_seconds(const pangulu_handle* h) {
  return h && h->factorized ? h->session.solver().stats().sim.makespan : -1.0;
}

int32_t pangulu_matrix_order(const pangulu_handle* h) {
  return h ? h->matrix.n_cols() : -1;
}

const char* pangulu_last_error(const pangulu_handle* h) {
  return h ? h->last_error.c_str() : "null handle";
}

void pangulu_destroy(pangulu_handle* h) { delete h; }

int pangulu_session_create(int32_t n, const int64_t* col_ptr,
                           const int32_t* row_idx, const double* values,
                           int32_t n_ranks, int32_t block_size,
                           pangulu_session** out) {
  return pangulu_session_create_ex(n, col_ptr, row_idx, values, n_ranks,
                                   block_size, PANGULU_PRECISION_DOUBLE, 0,
                                   0, out);
}

int pangulu_session_create_ex(int32_t n, const int64_t* col_ptr,
                              const int32_t* row_idx, const double* values,
                              int32_t n_ranks, int32_t block_size,
                              int32_t precision, double ir_tolerance,
                              int32_t ir_max_iters,
                              pangulu_session** out) {
  if (!out || !col_ptr || n <= 0 || !row_idx || !values ||
      precision < PANGULU_PRECISION_DOUBLE ||
      precision > PANGULU_PRECISION_MIXED_IR || ir_tolerance < 0 ||
      ir_max_iters < 0)
    return PANGULU_INVALID_ARGUMENT;
  *out = nullptr;
  auto* s = new pangulu_session();
  const int rc = guarded(s, [&]() -> int {
    s->matrix = csc_from_c_parts(n, col_ptr, row_idx, values);
    s->precision = static_cast<pangulu_precision>(precision);
    pangulu::solver::Options opts;
    opts.n_ranks = n_ranks > 0 ? n_ranks : 1;
    opts.block_size = block_size;
    opts.precision = static_cast<pangulu::kernels::Precision>(precision);
    if (ir_tolerance > 0) opts.ir_tolerance = ir_tolerance;
    if (ir_max_iters > 0) opts.ir_max_iters = ir_max_iters;
    return set_status(s, s->session.setup(s->matrix, opts));
  });
  if (rc != PANGULU_OK) {
    delete s;
    return rc;
  }
  *out = s;
  return PANGULU_OK;
}

int pangulu_session_refactorize(pangulu_session* s, const double* values,
                                int64_t nnz) {
  if (!s || !values || nnz < 0) return PANGULU_INVALID_ARGUMENT;
  return guarded(s, [&]() -> int {
    return set_status(
        s, s->session.refactorize({values, static_cast<std::size_t>(nnz)}));
  });
}

int pangulu_session_refactorize_csc(pangulu_session* s, const int64_t* col_ptr,
                                    const int32_t* row_idx,
                                    const double* values) {
  if (!s || !col_ptr || !row_idx || !values) return PANGULU_INVALID_ARGUMENT;
  return guarded(s, [&]() -> int {
    const int32_t n = s->matrix.n_cols();
    Csc a = csc_from_c_parts(n, col_ptr, row_idx, values);
    return set_status(s, s->session.refactorize(a));
  });
}

int pangulu_session_solve(pangulu_session* s, double* b_x) {
  if (!s || !b_x) return PANGULU_INVALID_ARGUMENT;
  return guarded(s, [&]() -> int {
    const auto n = static_cast<std::size_t>(s->matrix.n_cols());
    std::vector<double> x(n);
    pangulu::solver::SolveStats stats;
    Status st = s->session.solve({b_x, n}, x, &stats);
    if (st.is_ok()) {
      std::copy(x.begin(), x.end(), b_x);
      s->last_solve = stats;
      s->solved = true;
    }
    return set_status(s, st);
  });
}

int pangulu_session_solve_deadline(pangulu_session* s, double* b_x,
                                   double deadline_seconds) {
  if (!s || !b_x) return PANGULU_INVALID_ARGUMENT;
  return guarded(s, [&]() -> int {
    const auto n = static_cast<std::size_t>(s->matrix.n_cols());
    std::vector<double> x(n);
    pangulu::solver::SolveStats stats;
    Status st = s->session.solve_deadline({b_x, n}, x, deadline_seconds,
                                          &stats);
    if (st.is_ok()) {
      std::copy(x.begin(), x.end(), b_x);
      s->last_solve = stats;
      s->solved = true;
    }
    return set_status(s, st);
  });
}

int pangulu_session_solve_multi(pangulu_session* s, double* b_x, int32_t k) {
  if (!s || !b_x || k < 0) return PANGULU_INVALID_ARGUMENT;
  return guarded(s, [&]() -> int {
    const pangulu::index_t n = s->matrix.n_cols();
    Dense b(n, k);
    for (int32_t j = 0; j < k; ++j)
      std::copy(b_x + static_cast<std::size_t>(j) * n,
                b_x + static_cast<std::size_t>(j + 1) * n, b.col(j));
    Dense x;
    pangulu::solver::SolveStats worst;
    Status st = s->session.solve_multi(b, &x, &worst);
    if (st.is_ok()) {
      for (int32_t j = 0; j < k; ++j)
        std::copy(x.col(j), x.col(j) + n,
                  b_x + static_cast<std::size_t>(j) * n);
      s->last_solve = worst;
      s->solved = true;
    }
    return set_status(s, st);
  });
}

int32_t pangulu_session_matrix_order(const pangulu_session* s) {
  return s ? s->matrix.n_cols() : -1;
}

pangulu_precision pangulu_session_precision(const pangulu_session* s) {
  return s ? s->precision : PANGULU_PRECISION_DOUBLE;
}

int32_t pangulu_session_refine_iterations(const pangulu_session* s) {
  return s && s->solved ? s->last_solve.refine_iterations : -1;
}

double pangulu_session_final_residual(const pangulu_session* s) {
  return s && s->solved ? s->last_solve.final_residual : -1.0;
}

uint64_t pangulu_session_pattern_hash(const pangulu_session* s) {
  return s ? s->session.pattern_hash() : 0;
}

const char* pangulu_session_last_error(const pangulu_session* s) {
  return s ? s->last_error.c_str() : "null session";
}

void pangulu_session_destroy(pangulu_session* s) { delete s; }

}  // extern "C"
