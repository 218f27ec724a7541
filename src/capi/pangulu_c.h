/* C API of the PanguLU reproduction.
 *
 * The original PanguLU artifact is a C library driven as
 *   mpirun -np N test/numeric_file -F matrix.mtx
 * This header exposes the same capability to C callers: hand over a CSC
 * matrix, factorise on a simulated N-rank cluster, solve right-hand sides.
 *
 * All functions return 0 on success and a nonzero pangulu_status code on
 * failure; pangulu_last_error() returns a message for the last failure on
 * the handle.
 */
#ifndef PANGULU_C_H_
#define PANGULU_C_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct pangulu_handle pangulu_handle;

typedef enum pangulu_status {
  PANGULU_OK = 0,
  PANGULU_INVALID_ARGUMENT = 1,
  PANGULU_OUT_OF_RANGE = 2,
  PANGULU_FAILED_PRECONDITION = 3,
  PANGULU_NUMERICAL_ERROR = 4,
  PANGULU_IO_ERROR = 5,
  PANGULU_INTERNAL = 6,
  /* A required resource is gone (e.g. unrecoverable simulated rank loss). */
  PANGULU_UNAVAILABLE = 7,
  /* The static task-graph verifier found a broken scheduling invariant;
   * pangulu_last_error() names it. */
  PANGULU_INVARIANT_VIOLATION = 8,
  /* Silent data corruption: an ABFT checksum audit failed during the
   * factorisation, or a checkpoint file failed its CRC on load. */
  PANGULU_DATA_CORRUPTION = 9,
  /* A request exceeds a configured resource budget and can never run
   * (e.g. a session admission larger than the whole pool). */
  PANGULU_RESOURCE_EXHAUSTED = 10,
  /* Mixed-precision iterative refinement stalled or ran out of sweeps
   * before reaching the requested tolerance: the FP32 factorisation is too
   * weak a preconditioner for this matrix. The factorisation itself
   * completed; retry the session at PANGULU_PRECISION_DOUBLE. */
  PANGULU_NUMERIC_BREAKDOWN = 11,
  /* A request's deadline expired before the work finished. The operation
   * stopped cooperatively at the next safe point without publishing a
   * partial factor; the handle/session stays usable and retrying with a
   * larger budget is safe. */
  PANGULU_DEADLINE_EXCEEDED = 12,
  /* The caller revoked the request (cooperative cancellation). Same
   * no-partial-state guarantees as PANGULU_DEADLINE_EXCEEDED. */
  PANGULU_CANCELLED = 13
} pangulu_status;

/* Numeric-phase storage precision of a session (DESIGN.md §14).
 * DOUBLE is the historical FP64 pipeline. SINGLE factors and solves in FP32
 * storage. MIXED_IR factors in FP32 and wraps every solve in an FP64
 * iterative-refinement loop against the original matrix, restoring FP64
 * accuracy at FP32 factorisation cost. */
typedef enum pangulu_precision {
  PANGULU_PRECISION_DOUBLE = 0,
  PANGULU_PRECISION_SINGLE = 1,
  PANGULU_PRECISION_MIXED_IR = 2
} pangulu_precision;

/* Create a solver handle holding a copy of the n x n CSC matrix:
 * col_ptr[n+1], row_idx[nnz] (0-based, sorted per column), values[nnz]. */
int pangulu_create(int32_t n, const int64_t* col_ptr, const int32_t* row_idx,
                   const double* values, pangulu_handle** out);

/* Load a Matrix Market file instead. */
int pangulu_create_from_file(const char* path, pangulu_handle** out);

/* Full pipeline (reorder, symbolic, blocking, numeric) on a simulated
 * cluster of n_ranks processes. block_size 0 selects the heuristic. */
int pangulu_factorize(pangulu_handle* h, int32_t n_ranks, int32_t block_size);

/* As pangulu_factorize, but with checkpoint/restart armed: a versioned,
 * CRC-checksummed snapshot of the factorisation state is written atomically
 * to `checkpoint_path` every `interval_tasks` completed block tasks
 * (0 selects the default cadence of ~1/4 of the task count). ABFT checksum
 * audits run at the cheap level while checkpointing is armed, so silent
 * corruption is detected (PANGULU_DATA_CORRUPTION) instead of landing in
 * the factors. */
int pangulu_factorize_checkpointed(pangulu_handle* h, int32_t n_ranks,
                                   int32_t block_size,
                                   const char* checkpoint_path,
                                   int64_t interval_tasks);

/* Resume an interrupted factorisation from a snapshot written by
 * pangulu_factorize_checkpointed. Creates a NEW handle (the matrix and all
 * options that determine the computed bits are restored from the snapshot)
 * and continues to completion; the resulting factors are bitwise identical
 * to an uninterrupted run. Returns PANGULU_DATA_CORRUPTION when the
 * snapshot fails its CRC, PANGULU_FAILED_PRECONDITION when it is
 * inconsistent with the matrix it claims to checkpoint. */
int pangulu_resume_from_checkpoint(const char* checkpoint_path,
                                   pangulu_handle** out);

/* Solve A x = b. b_x holds b on entry and x on return (length n). */
int pangulu_solve(pangulu_handle* h, double* b_x);

/* Solve A^T x = b, same in/out convention. */
int pangulu_solve_transpose(pangulu_handle* h, double* b_x);

/* Introspection (valid after a successful factorise). */
int64_t pangulu_nnz_lu(const pangulu_handle* h);
double pangulu_factor_flops(const pangulu_handle* h);
double pangulu_modeled_numeric_seconds(const pangulu_handle* h);
int32_t pangulu_matrix_order(const pangulu_handle* h);

/* Message of the most recent failure on this handle ("" when none). The
 * pointer stays valid until the next call on the handle. */
const char* pangulu_last_error(const pangulu_handle* h);

void pangulu_destroy(pangulu_handle* h);

/* ------------------------------------------------------------------------
 * Solver sessions: analyse a sparsity pattern once, then interleave
 * numeric-only refactorisations (new values, same pattern) with single- and
 * multi-RHS solves. Refactorisation skips ordering, symbolic analysis,
 * blocking, mapping and planning outright and produces factors bitwise
 * identical to a from-scratch factorisation of the same pattern. A session
 * is internally synchronised: solves may run concurrently from many
 * threads; refactorisations linearise against them.
 * (The classic pangulu_factorize/pangulu_solve entry points above run on an
 * internal session of their own, so both APIs share one code path.)
 */
typedef struct pangulu_session pangulu_session;

/* Analyse + factorise the n x n CSC matrix on a simulated cluster of
 * n_ranks processes (block_size 0 selects the heuristic). */
int pangulu_session_create(int32_t n, const int64_t* col_ptr,
                           const int32_t* row_idx, const double* values,
                           int32_t n_ranks, int32_t block_size,
                           pangulu_session** out);

/* As pangulu_session_create with an explicit numeric precision, one of
 * the pangulu_precision values, passed as int32_t so that any other value
 * is a defined input that fails with PANGULU_INVALID_ARGUMENT.
 * ir_tolerance and ir_max_iters configure the MIXED_IR refinement loop
 * (pass 0 for the defaults, 1e-12 and 30); both are ignored by the other
 * precisions. Under MIXED_IR a solve whose refinement stalls or exhausts
 * ir_max_iters fails with PANGULU_NUMERIC_BREAKDOWN. */
int pangulu_session_create_ex(int32_t n, const int64_t* col_ptr,
                              const int32_t* row_idx, const double* values,
                              int32_t n_ranks, int32_t block_size,
                              int32_t precision, double ir_tolerance,
                              int32_t ir_max_iters,
                              pangulu_session** out);

/* Numeric-only refactorisation from the new values of the analysed matrix
 * in its original CSC entry order. Returns PANGULU_FAILED_PRECONDITION when
 * nnz does not match the analysed pattern. */
int pangulu_session_refactorize(pangulu_session* s, const double* values,
                                int64_t nnz);

/* As above from a full CSC matrix; PANGULU_FAILED_PRECONDITION when its
 * pattern fingerprint differs from the analysed one. */
int pangulu_session_refactorize_csc(pangulu_session* s, const int64_t* col_ptr,
                                    const int32_t* row_idx,
                                    const double* values);

/* Solve A x = b; b_x holds b on entry and x on return (length n). */
int pangulu_session_solve(pangulu_session* s, double* b_x);

/* As pangulu_session_solve under a wall-clock deadline of deadline_seconds
 * from the call. A solve that cannot finish in time stops cooperatively at
 * the next sweep level or refinement iteration and fails with
 * PANGULU_DEADLINE_EXCEEDED, leaving b_x untouched and the session fully
 * usable — a later solve with a larger (or no) budget succeeds.
 * deadline_seconds <= 0 sheds immediately. */
int pangulu_session_solve_deadline(pangulu_session* s, double* b_x,
                                   double deadline_seconds);

/* Solve A X = B for k right-hand sides: b_x is column-major n x k, holding
 * B on entry and X on return. Each factor block is visited once per sweep
 * and applied to all k columns; column j is bitwise identical to a
 * pangulu_session_solve of that column alone. */
int pangulu_session_solve_multi(pangulu_session* s, double* b_x, int32_t k);

int32_t pangulu_session_matrix_order(const pangulu_session* s);

/* Precision the session was created with (DOUBLE when s is NULL). */
pangulu_precision pangulu_session_precision(const pangulu_session* s);

/* Refinement statistics of the most recent successful solve on this
 * session. Under MIXED_IR, iterations is the number of FP32 correction
 * solves the FP64 loop needed and residual the final relative residual
 * ||b - Ax||_inf / (||A||_1 ||x||_inf + ||b||_inf); for multi-RHS solves
 * they describe the worst column. -1 / -1.0 before the first solve or when
 * s is NULL. */
int32_t pangulu_session_refine_iterations(const pangulu_session* s);
double pangulu_session_final_residual(const pangulu_session* s);

/* FNV-1a fingerprint of the analysed sparsity pattern (0 before setup). */
uint64_t pangulu_session_pattern_hash(const pangulu_session* s);

const char* pangulu_session_last_error(const pangulu_session* s);

void pangulu_session_destroy(pangulu_session* s);

#ifdef __cplusplus
}
#endif

#endif /* PANGULU_C_H_ */
