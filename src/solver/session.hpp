// Solver sessions: everything derivable from a sparsity pattern — ordering,
// symbolic fill, blocking, mapping, task graph, solve plans — computed once
// at setup() and reused across an arbitrary interleaving of numeric
// refactorisations (new values, same pattern) and single-/multi-RHS solves.
// This is the Newton-iteration workflow of circuit and device simulation:
// the topology is fixed for thousands of steps while the conductances and
// right-hand sides change every step.
//
// Concurrency contract: a Session is internally synchronised. solve(),
// solve_multi() and their transpose variants take a shared lock and may run
// concurrently with each other from any number of threads; setup() and
// refactorize() take the lock exclusively and linearise against everything
// else. SessionPool adds admission control on top: a bounded number of
// in-flight requests under a byte budget, for servers multiplexing many
// sessions over one memory pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "solver/solver.hpp"
// Re-exported: perfbench/ reaches Rng through this header.
#include "util/rng.hpp"

namespace pangulu::solver {

/// FNV-1a fingerprint of a CSC sparsity pattern (order + col_ptr + row_idx,
/// values excluded). Two matrices interchangeable under refactorize() hash
/// equal; a hash mismatch is proof of a pattern change.
std::uint64_t pattern_fingerprint(const Csc& a);

class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Full pipeline on `a` (Solver::factorize); records the pattern
  /// fingerprint every later refactorize() is checked against.
  Status setup(const Csc& a, const Options& opts);

  /// Restart from a checkpoint (Solver::resume_from); on success the session
  /// is ready and fingerprinted against the snapshot's matrix.
  Status resume_from(const std::string& path, const Options& base = Options{});

  /// Numeric-only refactorisation from a bare value array in the analysed
  /// matrix's CSC entry order. kFailedPrecondition when the count does not
  /// match the analysed nnz. Factors come out bitwise identical to a
  /// from-scratch setup() on the same pattern and options.
  Status refactorize(std::span<const value_t> values);

  /// As above from a full CSC matrix; kFailedPrecondition when its pattern
  /// fingerprint differs from the analysed one.
  Status refactorize(const Csc& a);

  Status solve(std::span<const value_t> b, std::span<value_t> x,
               SolveStats* solve_stats = nullptr) const;

  /// solve() under a per-request wall-clock deadline: arms a CancelToken
  /// with `deadline_seconds` from now and sheds the solve typed
  /// (kDeadlineExceeded) at the next sweep level or refinement iteration
  /// once it expires. The session stays ready — a missed deadline is a shed
  /// request, not a broken factorisation — so the caller can retry with a
  /// larger budget. deadline_seconds <= 0
  /// sheds immediately without touching the output.
  Status solve_deadline(std::span<const value_t> b, std::span<value_t> x,
                        double deadline_seconds,
                        SolveStats* solve_stats = nullptr) const;
  Status solve_multi(const Dense& b, Dense* x,
                     SolveStats* worst = nullptr) const;
  Status solve_transpose(std::span<const value_t> b,
                         std::span<value_t> x) const;
  Status solve_multi_transpose(const Dense& b, Dense* x) const;

  bool ready() const;
  std::uint64_t pattern_hash() const;
  FactorStats stats() const;

  /// Rough resident-set estimate of what the solver holds (factor blocks,
  /// the FP32 store under FP32 storage, the original matrix and the
  /// refactorisation's slot map, task graph, permutations and plans) for
  /// SessionPool budgeting.
  std::size_t footprint_bytes() const;

  /// The wrapped solver, for introspection beyond stats() (determinant,
  /// condition estimate, triangular-solve model). NOT synchronised: callers
  /// must not interleave direct solver access with concurrent session calls.
  const Solver& solver() const { return solver_; }
  Solver& solver_mut() { return solver_; }

 private:
  mutable std::shared_mutex mu_;
  Solver solver_;
  std::uint64_t pattern_hash_ = 0;
  nnz_t pattern_nnz_ = 0;
  bool ready_ = false;
};

struct SessionPoolOptions {
  /// Requests allowed in flight at once; 0 = unlimited.
  int max_concurrent = 0;
  /// Bytes the in-flight requests may pin together; 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Longest a deadline-less admit() may block, in seconds, before failing
  /// with kDeadlineExceeded; <= 0 = wait forever (the historical, hang-prone
  /// behaviour — servers should always set this or pass a CancelToken).
  double default_admit_timeout_seconds = 0;
};

/// Admission controller for concurrent session traffic. admit() blocks until
/// the request fits under both caps and returns an RAII Ticket whose
/// destruction releases the slot and bytes. A request whose byte demand
/// alone exceeds the budget can never be admitted and fails immediately
/// with kResourceExhausted instead of deadlocking. On a full pool, a
/// request carrying a CancelToken that has already expired or been
/// cancelled fails at once (kDeadlineExceeded / kCancelled); otherwise it
/// waits no longer than its wall deadline, and CancelToken::cancel()
/// unparks it within one 50 ms poll with kCancelled.
class SessionPool {
 public:
  explicit SessionPool(const SessionPoolOptions& opts = {}) : opts_(opts) {}
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept : pool_(o.pool_), bytes_(o.bytes_) {
      o.pool_ = nullptr;
      o.bytes_ = 0;
    }
    Ticket& operator=(Ticket&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        bytes_ = o.bytes_;
        o.pool_ = nullptr;
        o.bytes_ = 0;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { release(); }

    bool admitted() const { return pool_ != nullptr; }
    void release();

   private:
    friend class SessionPool;
    SessionPool* pool_ = nullptr;
    std::size_t bytes_ = 0;
  };

  Status admit(std::size_t bytes, Ticket* ticket);

  /// Deadline-aware admission: obeys `cancel`'s wall deadline and manual
  /// cancellation while queued (nullptr behaves like the overload above).
  /// On success the remaining deadline is still the caller's to spend on
  /// the actual request — admission never consumes more than the wait.
  Status admit(std::size_t bytes, Ticket* ticket, const CancelToken* cancel);

  int in_flight() const;
  std::size_t bytes_in_flight() const;
  /// Largest concurrent request count / byte pin observed (stress metrics).
  int peak_in_flight() const;
  std::size_t peak_bytes() const;

 private:
  void release_slot(std::size_t bytes);

  SessionPoolOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int active_ = 0;
  std::size_t active_bytes_ = 0;
  int peak_active_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace pangulu::solver
