// Public API of the PanguLU reproduction: the five-step pipeline of §4.1 —
// reordering (MC64 + nested dissection or AMD), symbolic factorisation
// (symmetric pruning), preprocessing (2D blocking + mapping + balancing),
// numeric factorisation (sync-free scheduling over the simulated cluster),
// and triangular solves — behind one Solver class.
//
// Quickstart:
//   pangulu::solver::Solver s;
//   s.factorize(A, {}).check();
//   std::vector<double> x(n);
//   s.solve(b, x).check();
#pragma once

#include <future>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/verify.hpp"
#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/precision.hpp"
#include "ordering/reorder.hpp"
#include "runtime/sim.hpp"
#include "runtime/trsv_sim.hpp"
#include "sparse/csc.hpp"
#include "sparse/dense.hpp"
#include "symbolic/fill.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace pangulu::solver {

struct Options {
  ordering::ReorderOptions reorder;
  /// 0 selects the block size from matrix order and post-symbolic density.
  index_t block_size = 0;
  rank_t n_ranks = 1;
  /// Apply the §4.2 static load-balancing pass on top of the cyclic map.
  bool balance = true;
  runtime::DeviceModel device = runtime::DeviceModel::a100_like();
  /// Kernel choice per task: `policy`, and under kAdaptive the §4.3
  /// decision trees with cuts `thresholds` (the paper's Figure 8 by
  /// default). The chosen variant sets the task's modelled cost
  /// (FactorStats::sim) and is the kernel a one-worker numeric engine runs;
  /// a multi-worker engine runs each family's C_V1 (DESIGN.md §8). Factors
  /// are the same bytes under every policy and threshold set
  /// (NumericEngine.TreesChangeTheModelNotTheFactors*).
  runtime::KernelPolicy policy = runtime::KernelPolicy::kAdaptive;
  runtime::ScheduleMode schedule = runtime::ScheduleMode::kSyncFree;
  kernels::SelectorThresholds thresholds;
  value_t pivot_tol = 1e-14;
  /// Refinement sweep cap of kDouble/kSingle solves. A column stops earlier
  /// at FP64 roundoff (relative residual <= epsilon) or once a sweep fails
  /// to halve its residual. A negative value fails
  /// factorize()/resume_from() with kInvalidArgument.
  int refine_iters = 3;
  /// Numeric-phase storage precision (DESIGN.md §14). kDouble is the
  /// historical FP64 pipeline. kSingle factors and solves entirely in FP32
  /// storage (the FP64 `factors()` view is the exact widening). kMixedIR
  /// factors in FP32 and wraps every solve in an FP64 iterative-refinement
  /// loop against the original matrix: FP64 residual, FP32 correction solve
  /// on the cached plans, convergence on the relative residual. The FP32
  /// factors inherit the full determinism contract — bitwise identical
  /// across rank counts, schedulers and executors.
  kernels::Precision precision = kernels::Precision::kDouble;
  /// kMixedIR only: relative-residual target of the refinement loop
  /// (||b - Ax||_inf / (||A||_1 ||x||_inf + ||b||_inf)).
  kernels::tolerance_t ir_tolerance = 1e-12;
  /// kMixedIR only: refinement sweep cap. Hitting it — or stalling, i.e. a
  /// sweep that no longer shrinks the residual — fails solve() with
  /// StatusCode::kNumericBreakdown (retry at kDouble).
  int ir_max_iters = 30;
  /// Faults to inject into the simulated cluster (runtime/fault.hpp).
  /// Recoverable plans leave the factors (and hence solutions) bit-identical
  /// to a fault-free run and only change the virtual makespan/traffic;
  /// unrecoverable plans make factorize() fail with
  /// StatusCode::kUnavailable instead of crashing or hanging.
  runtime::FaultPlan fault_plan;
  /// Planned elasticity events for the simulated cluster (runtime/elastic.hpp):
  /// rank drains and additions fired at task-graph safe points. Any valid
  /// plan leaves the factors bit-identical to a static-grid run (only the
  /// virtual makespan, traffic and migration accounting change); a drain
  /// that would take the cluster below ElasticPlan::min_ranks fails
  /// factorize() with StatusCode::kResourceExhausted instead of deadlocking.
  runtime::ElasticPlan elastic_plan;
  /// Static task-graph verification (src/analysis) before any numeric work:
  /// kCheap (default) runs the linear-time invariants, kFull adds the
  /// structural counter recomputation, deadlock-freedom and message
  /// conservation proofs. The same level re-verifies the mapping after any
  /// crash-recovery remap inside the simulated cluster. Violations fail
  /// factorize() with StatusCode::kInvariantViolation.
  analysis::VerifyLevel verify_level = analysis::VerifyLevel::kCheap;
  /// Worker threads for the preprocessing front-end (reorder adjacency,
  /// symbolic fill, 2D blocking, mapping). 0 uses the process-global pool;
  /// 1 forces the single-threaded reference path; >1 runs a dedicated pool
  /// of that size for the duration of factorize()/refactorize(). The
  /// preprocessing output is bitwise identical at every setting.
  int preprocess_threads = 0;
  /// Non-empty: during numeric factorisation, write a crash-consistent
  /// snapshot (src/io/snapshot.hpp) to this path at task-graph safe points.
  /// The safe point only copies the live state; encoding, checksumming and
  /// file I/O overlap the factorisation on a background writer thread.
  /// Writes are atomic (tmp + rename), so the file always holds the latest
  /// complete checkpoint; pass it to resume_from() after a process death.
  std::string checkpoint_path;
  /// Canonical tasks between checkpoints. 0 (with a checkpoint_path set)
  /// picks the default cadence: snapshots at ~25/50/75% of the run, but a
  /// safe point is skipped while less than ~100ms of work would be lost —
  /// re-running work that cheap beats writing and restoring a snapshot.
  /// This bounds checkpoint overhead to a few percent of the factorisation
  /// while capping lost work at about a quarter of it. An explicit interval
  /// is obeyed exactly, with no worthiness floor.
  index_t checkpoint_interval_tasks = 0;
  /// Silent-corruption audits over the numeric phase (runtime/abft.hpp),
  /// mirroring verify_level's off/cheap/full ladder: kCheap audits every
  /// kernel's source blocks, kFull adds targets and a final sweep. Detected
  /// corruption is recomputed from live inputs when possible; otherwise
  /// factorize() fails with StatusCode::kDataCorruption.
  runtime::AbftLevel abft_level = runtime::AbftLevel::kOff;
  /// Optional cooperative cancellation (util/cancel.hpp). Not owned; must
  /// outlive every call made with these options. factorize()/refactorize()
  /// poll it at each canonical commit safe point, solve() between sweep
  /// levels and refinement iterations. Expiry fails typed (kCancelled /
  /// kDeadlineExceeded) and never publishes a partial factor: a cancelled
  /// factorize() leaves the solver un-factorised, a cancelled refactorize()
  /// rolls back to the previous factors (the solver stays solvable). Every
  /// solve, single-RHS or panel, forward or transposed, works on internal
  /// buffers and writes the caller's output only on success or on
  /// kNumericBreakdown, so a cancelled solve leaves it bitwise untouched.
  const CancelToken* cancel = nullptr;
};

struct FactorStats {
  // Wall-clock phase times on this host.
  double reorder_seconds = 0;
  double symbolic_seconds = 0;
  double preprocess_seconds = 0;  // blocking + mapping + balancing
  double blocking_seconds = 0;    //   of which: 2D blocking + task list
  double mapping_seconds = 0;     //   of which: cyclic map + balancing
  double plan_seconds = 0;        // solve-phase schedule construction
  double verify_seconds = 0;      // static task-graph verification
  double numeric_wall_seconds = 0;

  // Structure metrics (Table 3).
  index_t n = 0;
  nnz_t nnz_a = 0;
  nnz_t nnz_lu = 0;
  double flops = 0;
  index_t block_size = 0;
  index_t nb = 0;
  std::size_t n_tasks = 0;
  /// Canonical task index this factorisation resumed from (0: fresh run).
  index_t resumed_from_task = 0;

  // Virtual-cluster result of the numeric phase.
  runtime::SimResult sim;
  block::BalanceStats balance;
};

struct SolveStats {
  /// Refinement passes actually taken (the most any column took). Under
  /// kDouble/kSingle at most Options::refine_iters, fewer once the residual
  /// reaches FP64 roundoff or stops halving; under kMixedIR the FP32
  /// correction solves the FP64 loop needed to reach Options::ir_tolerance.
  int refine_iterations = 0;
  value_t final_residual = 0;    // ||b - Ax||_inf / (||A||_1||x||_inf+||b||_inf)
};

/// Cached host-side solve schedule: flat per-block-row / per-block-column
/// block lists for the four triangular sweeps, plus the diagonal block
/// positions. Built once per factorisation so repeat solves skip the
/// find_block() probes and the branchy row/column filtering. Row lists keep
/// the block-row order of the factor store and column lists its
/// block-column order, so every solve visits blocks in one fixed order.
struct SolvePlan {
  std::vector<nnz_t> diag_pos;  // [nb] position of each diagonal block

  // Forward sweep (L y = z): for block-row bk, blocks left of the diagonal
  // in row-wise order. low_src is the source segment (block column).
  std::vector<nnz_t> low_ptr;  // [nb + 1]
  std::vector<nnz_t> low_pos;
  std::vector<index_t> low_src;
  // Backward sweep (U x = y): blocks right of the diagonal per block-row.
  std::vector<nnz_t> up_ptr;
  std::vector<nnz_t> up_pos;
  std::vector<index_t> up_src;
  // U^T forward sweep: blocks above the diagonal per block-column.
  std::vector<nnz_t> tup_ptr;
  std::vector<nnz_t> tup_pos;
  std::vector<index_t> tup_src;
  // L^T backward sweep: blocks below the diagonal per block-column.
  std::vector<nnz_t> tlow_ptr;
  std::vector<nnz_t> tlow_pos;
  std::vector<index_t> tlow_src;

  // The sweep kernels' per-block column lists and diagonal positions.
  runtime::ColumnLists lists;

  bool valid() const { return !diag_pos.empty(); }

  /// Build from a factorised block matrix (requires all diagonal blocks).
  /// The plan is pure structure, so the one built against either precision
  /// twin drives both the FP64 and FP32 sweeps unchanged.
  template <class BM>
  static SolvePlan build(const BM& f);
};

class Solver {
 public:
  /// Full pipeline on a square matrix. On success the factors are held
  /// internally; call solve() any number of times.
  Status factorize(const Csc& a, const Options& opts);

  /// Restart a factorisation from a checkpoint written by a previous run
  /// (Options::checkpoint_path). The snapshot carries the original matrix
  /// and every option that influences the computed bits (reordering,
  /// blocking, ranks, schedule, kernel policy, pivot tolerance, ...), so the
  /// deterministic preprocessing pipeline is *re-run* rather than stored,
  /// cross-checked structurally against the snapshot (task count, block
  /// table, live sync-free counters), and the task-graph verifier is
  /// re-proved on the resumed state before any numeric work. The remaining
  /// canonical tasks then execute, yielding factors bitwise identical to an
  /// uninterrupted run. `base` supplies the fields a snapshot does not
  /// carry (device model, selector thresholds, fault plan, checkpoint
  /// continuation). Thresholds other than the original run's change the
  /// modelled statistics of the resumed run, not its factors
  /// (Checkpoint.ResumeUnderOtherThresholdsIsBitwise).
  Status resume_from(const std::string& path, const Options& base = Options{});

  /// Numeric-only re-factorisation: `a` must have exactly the pattern of the
  /// previously factorised matrix (the Newton-iteration workflow of circuit
  /// simulation — same topology, new conductances). Reuses the ordering,
  /// scaling, blocking, mapping, task graph AND the cached solve plans: each
  /// new value is scaled and written straight into its factor slot, and only
  /// the numeric phase runs (every structure phase's stats() timing reads 0
  /// after this call). factors() and factors32() are bitwise identical to a
  /// from-scratch factorize() on the same pattern and options, also after
  /// resume_from() (SessionRefactorize.BitwiseIdenticalToFreshFactorize).
  /// Note the safe-reuse contract: value-derived MC64 scaling/permutation is
  /// frozen at factorize() time, so with use_mc64 on and *different* values,
  /// a from-scratch run would pick a different scaling — refactorize()
  /// deliberately keeps the analysed one.
  Status refactorize(const Csc& a);

  /// As refactorize(), but from a bare value array in the analysed matrix's
  /// CSC entry order. Fails with kFailedPrecondition when `values` does not
  /// have exactly matrix().nnz() entries.
  Status refactorize_values(std::span<const value_t> values);

  /// Solve A x = b using the stored factors + iterative refinement against
  /// the original matrix: the k = 1 case of solve_multi(). `solve_stats`
  /// (optional) reports the refinement iterations taken and the final
  /// backward error. Like every solve entry point, `x` (and the stats) are
  /// written only on success or on kNumericBreakdown (the best iterate).
  Status solve(std::span<const value_t> b, std::span<value_t> x,
               SolveStats* solve_stats = nullptr) const;

  /// solve() under a per-call CancelToken that overrides Options::cancel —
  /// the hook Session::solve_deadline uses to arm one token per request
  /// without mutating the shared Options. Pass nullptr for no cancellation.
  Status solve(std::span<const value_t> b, std::span<value_t> x,
               SolveStats* solve_stats, const CancelToken* cancel) const;

  /// Solve A X = B for an n x k right-hand-side panel. The columns split
  /// into at most one group per pool thread; each group's sweeps walk every
  /// block's column lists once for all its columns (the sweep kernels of
  /// kernels/kernel_common.hpp that solve() runs with one column), and
  /// iterative refinement runs on the shrinking set of not-yet-converged
  /// columns. Column j of the result is bitwise identical to
  /// solve(b.col(j)).
  Status solve_multi(const Dense& b, Dense* x,
                     SolveStats* worst = nullptr) const;

  /// Solve A^T X = B for an n x k panel; column j is bitwise identical to
  /// solve_transpose(b.col(j)).
  Status solve_multi_transpose(const Dense& b, Dense* x) const;

  /// log|det(A)| and sign(det(A)) from the factorisation: the product of
  /// U's diagonal corrected by the parities of the row/column permutations.
  /// Meaningful only when no pivot was perturbed
  /// (stats().sim.perturbed_pivots == 0).
  Status log_abs_determinant(value_t* log_abs, int* sign) const;

  /// Solve A^T x = b with the same factors: (LU)^T w = z via a U^T forward
  /// sweep and an L^T backward sweep; the k = 1 case of
  /// solve_multi_transpose().
  Status solve_transpose(std::span<const value_t> b, std::span<value_t> x) const;

  /// Hager-Higham 1-norm condition estimate: cond_1(A) ~ ||A||_1 ||A^-1||_1,
  /// the ||A^-1||_1 part estimated with a few solve/solve_transpose pairs.
  /// A lower bound that is almost always within a small factor of the truth.
  Status condest(value_t* cond_1) const;

  /// Model the distributed triangular-solve phase (step 5 of §4.1) on the
  /// same simulated cluster the factorisation ran on: one forward and one
  /// backward sweep over the stored factors, timing only (the vector is not
  /// modified). Reports both sweeps' SimResults.
  Status model_triangular_solve(runtime::SimResult* forward,
                                runtime::SimResult* backward) const;

  const FactorStats& stats() const { return stats_; }
  const Options& options() const { return opts_; }
  const block::BlockMatrix& factors() const { return factors_; }
  /// FP32 factor store, valid after a kSingle/kMixedIR factorisation: the
  /// matrix the numeric phase runs on (after a successful run, factors() is
  /// its exact widening). Structure-identical to factors(); empty at kDouble.
  const block::BlockMatrixT<float>& factors32() const { return factors32_; }
  const block::Mapping& mapping() const { return mapping_; }
  /// The original (unpermuted, unscaled) matrix held by the solver — after
  /// resume_from(), the matrix recovered from the snapshot.
  const Csc& matrix() const { return original_; }

 private:
  /// Steps 1–3b of the pipeline (reorder, symbolic, blocking + mapping,
  /// static verification) from original_/opts_ — shared by factorize() and
  /// resume_from(), whose outputs are bitwise-deterministic. Leaves the
  /// numeric store (factors32_ under FP32 storage, else factors_) holding
  /// the scaled, permuted A with zero fill-ins.
  Status prepare_structure(ThreadPool* pool);
  Status run_numeric_phase(index_t resume_from_task);
  /// Checkpoint sink: copy the current numeric state (canonical tasks
  /// [0, tasks_done) committed) and hand it to the background writer, which
  /// lands it at opts_.checkpoint_path atomically.
  Status write_checkpoint(index_t tasks_done);
  /// Wait for any in-flight snapshot write and surface its status. Called
  /// between writes (one in flight at a time) and before run_numeric_phase
  /// returns, so the checkpoint file is complete even after a kill.
  Status flush_checkpoint_writer();
  /// (Re)build the cached solve-phase schedules from factors_/mapping_.
  /// Called at the end of factorize(); any failure leaves the solver
  /// un-factorised, so a valid solver always has valid plans.
  Status build_solve_plans();
  /// Fill value_slots_ from the analysed pattern, the permutations and the
  /// block layout (lazily, on the first refactorisation after an analysis).
  void build_value_slots();
  /// The one solve driver behind solve/solve_multi/solve_transpose/
  /// solve_multi_transpose (DESIGN.md §13): `b` and `x` are n x k
  /// column-major panels, `x` an internal buffer the entry point publishes
  /// only on OK or kNumericBreakdown. The k columns split into at most
  /// ThreadPool::global().size() contiguous groups run on the pool; per
  /// group, forward solves run refine() and transposed solves the direct
  /// pass alone.
  Status solve_panel(const value_t* b, index_t k, bool transpose, value_t* x,
                     SolveStats* worst, const CancelToken* cancel) const;
  /// One column group of a forward solve on the factor twin of value type
  /// V: the direct pass, then FP64 iterative refinement over the shrinking
  /// set of not-yet-stopped columns. Under kDouble/kSingle a column stops at
  /// FP64 roundoff, when a sweep fails to halve its residual, or after
  /// refine_iters sweeps; under kMixedIR at ir_tolerance, on a stall or
  /// after ir_max_iters. Each column runs exactly its single-RHS loop and
  /// reports its sweeps and final relative residual in iters[j]/resid[j].
  template <class V>
  Status refine(const block::BlockMatrixT<V>& f, const value_t* b, index_t k,
                value_t* x, int* iters, value_t* resid,
                const CancelToken* cancel) const;
  /// The one precision dispatch outside the numeric phase (solves, plan
  /// building, checkpoint encode and resume, refactorize and its rollback):
  /// fn(factors32_) under FP32 storage (kSingle/kMixedIR), fn(factors_)
  /// under kDouble. `Self` carries the constness through to the store.
  template <class Self, class Fn>
  static auto with_factors(Self& self, Fn&& fn);

  Options opts_;
  Csc original_;
  // ||original_||_1, kept with its values (refinement residuals, condest).
  value_t norm1_ = 0;
  // Permutations and scalings of the analysis; `permuted` is cleared once
  // the symbolic step has read it.
  ordering::ReorderResult reorder_;
  // FP64 factors. The numeric store at kDouble; under FP32 storage written
  // only by the exact widening of factors32_ after a successful run.
  block::BlockMatrix factors_;
  // The numeric store under kSingle/kMixedIR (empty at kDouble): built once
  // per analysis with factors_'s structure (BlockMatrixT::converted_from),
  // then written in place by resume and refactorize; backs the FP32 sweeps.
  block::BlockMatrixT<float> factors32_;
  std::vector<block::Task> tasks_;
  block::Mapping mapping_;
  FactorStats stats_;
  // Solve-phase schedules, owned by the solver and rebuilt with the factors
  // (factorize/refactorize); solve()/solve_transpose()/condest() and
  // model_triangular_solve() run pure numerics against them.
  SolvePlan solve_plan_;
  runtime::TrsvPlan trsv_fwd_;
  runtime::TrsvPlan trsv_bwd_;
  // Where refactorize lands each value: entry p of original_ (CSC order) is
  // value `at` of factor block `pos`. Pattern-only, so one map addresses
  // both stores; built lazily on the first refactorize() after an analysis
  // and cleared by factorize()/resume_from().
  struct FactorSlot {
    index_t pos;
    index_t at;
  };
  std::vector<FactorSlot> value_slots_;
  // In-flight background snapshot write (at most one at a time).
  std::future<Status> checkpoint_writer_;
  // Incremental-checkpoint dirty tracking: ckpt_dirty_[pos] is set once any
  // canonical task targeting block `pos` has committed; ckpt_marked_upto_ is
  // the task index the marks cover, advanced lazily at each checkpoint (the
  // canonical order makes the dirty set a pure function of the task prefix).
  std::vector<char> ckpt_dirty_;
  index_t ckpt_marked_upto_ = 0;
  bool factorized_ = false;
};

/// Block-level forward/backward substitution on a factorised BlockMatrixT,
/// driven by its SolvePlan (exposed for the distributed triangular-solve
/// benchmarks and tests): L y = z and U x = y, then the transposed U^T and
/// L^T sweeps used by solve_transpose and the condition estimator. `x` is an
/// n x k row-interleaved panel — column c of row r at x[r * stride + c],
/// stride >= k — and one vector is k = 1, stride 1. Each sweep walks the
/// plan's column lists once for all k columns through the sweep kernels of
/// kernels/kernel_common.hpp, and column c of the result is bitwise the
/// sweep of that column alone. Every sweep is templated on the value type:
/// the FP32 instantiation runs the identical traversal in FP32 arithmetic,
/// which is what the mixed-IR correction solves execute (DESIGN.md §14).
/// Each polls the optional CancelToken at every sweep level (one block
/// row/column) and stops typed on expiry — the caller's panel is then
/// partial and must be discarded, which Solver's solve driver does by never
/// publishing it.
template <class V>
Status block_lower_solve_multi(const block::BlockMatrixT<V>& f,
                               const SolvePlan& plan, V* x, index_t stride,
                               index_t k, const CancelToken* cancel = nullptr);
template <class V>
Status block_upper_solve_multi(const block::BlockMatrixT<V>& f,
                               const SolvePlan& plan, V* x, index_t stride,
                               index_t k, const CancelToken* cancel = nullptr);
template <class V>
Status block_upper_transpose_solve_multi(const block::BlockMatrixT<V>& f,
                                         const SolvePlan& plan, V* x,
                                         index_t stride, index_t k,
                                         const CancelToken* cancel = nullptr);
template <class V>
Status block_lower_transpose_solve_multi(const block::BlockMatrixT<V>& f,
                                         const SolvePlan& plan, V* x,
                                         index_t stride, index_t k,
                                         const CancelToken* cancel = nullptr);

/// The same sweeps on one vector.
template <class V>
Status block_lower_solve(const block::BlockMatrixT<V>& f, const SolvePlan& plan,
                         std::type_identity_t<std::span<V>> x,
                         const CancelToken* cancel = nullptr) {
  return block_lower_solve_multi(f, plan, x.data(), 1, 1, cancel);
}
template <class V>
Status block_upper_solve(const block::BlockMatrixT<V>& f, const SolvePlan& plan,
                         std::type_identity_t<std::span<V>> x,
                         const CancelToken* cancel = nullptr) {
  return block_upper_solve_multi(f, plan, x.data(), 1, 1, cancel);
}
template <class V>
Status block_upper_transpose_solve(const block::BlockMatrixT<V>& f,
                                   const SolvePlan& plan,
                                   std::type_identity_t<std::span<V>> x,
                                   const CancelToken* cancel = nullptr) {
  return block_upper_transpose_solve_multi(f, plan, x.data(), 1, 1, cancel);
}
template <class V>
Status block_lower_transpose_solve(const block::BlockMatrixT<V>& f,
                                   const SolvePlan& plan,
                                   std::type_identity_t<std::span<V>> x,
                                   const CancelToken* cancel = nullptr) {
  return block_lower_transpose_solve_multi(f, plan, x.data(), 1, 1, cancel);
}

}  // namespace pangulu::solver
