#include "solver/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>

#include "io/snapshot.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/trsv_sim.hpp"
#include "sparse/ops.hpp"
#include "util/timer.hpp"

namespace pangulu::solver {

template <class BM>
SolvePlan SolvePlan::build(const BM& f) {
  SolvePlan plan;
  const index_t nb = f.nb();
  plan.diag_pos.resize(static_cast<std::size_t>(nb));
  plan.low_ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  plan.up_ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  plan.tup_ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  plan.tlow_ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  for (index_t bk = 0; bk < nb; ++bk) {
    const nnz_t diag = f.find_block(bk, bk);
    PANGULU_CHECK(diag >= 0, "solve plan: missing diagonal block");
    plan.diag_pos[static_cast<std::size_t>(bk)] = diag;
    // Row-wise lists in the row order the direct sweeps walk.
    for (nnz_t rp = f.row_begin(bk); rp < f.row_end(bk); ++rp) {
      const index_t bj = f.row_block_col(rp);
      if (bj < bk) {
        plan.low_pos.push_back(f.row_block_pos(rp));
        plan.low_src.push_back(bj);
      } else if (bj > bk) {
        plan.up_pos.push_back(f.row_block_pos(rp));
        plan.up_src.push_back(bj);
      }
    }
    plan.low_ptr[static_cast<std::size_t>(bk) + 1] =
        static_cast<nnz_t>(plan.low_pos.size());
    plan.up_ptr[static_cast<std::size_t>(bk) + 1] =
        static_cast<nnz_t>(plan.up_pos.size());
    // Column-wise lists for the transposed sweeps.
    for (nnz_t p = f.col_begin(bk); p < f.col_end(bk); ++p) {
      const index_t bi = f.block_row(p);
      if (bi < bk) {
        plan.tup_pos.push_back(p);
        plan.tup_src.push_back(bi);
      } else if (bi > bk) {
        plan.tlow_pos.push_back(p);
        plan.tlow_src.push_back(bi);
      }
    }
    plan.tup_ptr[static_cast<std::size_t>(bk) + 1] =
        static_cast<nnz_t>(plan.tup_pos.size());
    plan.tlow_ptr[static_cast<std::size_t>(bk) + 1] =
        static_cast<nnz_t>(plan.tlow_pos.size());
  }
  plan.lists = runtime::build_column_lists(f);
  return plan;
}

// Sweep-level cancellation poll shared by the plan-based sweeps: one poll
// per block row/column, the solve phase's safe-point granularity.
inline Status sweep_poll(const CancelToken* cancel, const char* sweep,
                         index_t bk) {
  if (!cancel) return Status::ok();
  return cancel->check(
      (std::string(sweep) + " sweep level " + std::to_string(bk)).c_str());
}

namespace {

/// One triangular sweep over a row-interleaved panel: block rows (L, U) or
/// block columns (U^T, L^T) ascending or descending; at each, the blocks of
/// the plan's list [ptr[bk], ptr[bk + 1]) update segment bk from their
/// source segments, then the diagonal block solves it.
template <class V, class OffDiag, class Diag>
Status sweep(const block::BlockMatrixT<V>& f, const SolvePlan& plan, V* x,
             index_t stride, index_t k, const CancelToken* cancel,
             const char* name, bool ascending, const std::vector<nnz_t>& ptr,
             const std::vector<nnz_t>& pos, const std::vector<index_t>& src,
             OffDiag off_diag, Diag diag) {
  const auto& grid = f.grid();
  const runtime::ColumnLists& lists = plan.lists;
  const auto seg = [&](index_t b) {
    return x + static_cast<std::size_t>(grid.block_start(b)) * stride;
  };
  const index_t nb = f.nb();
  for (index_t i = 0; i < nb; ++i) {
    const index_t bk = ascending ? i : nb - 1 - i;
    Status cs = sweep_poll(cancel, name, bk);
    if (!cs.is_ok()) return cs;
    for (nnz_t q = ptr[static_cast<std::size_t>(bk)];
         q < ptr[static_cast<std::size_t>(bk) + 1]; ++q) {
      const nnz_t p = pos[static_cast<std::size_t>(q)];
      off_diag(f.block(p), lists.columns(p),
               seg(src[static_cast<std::size_t>(q)]), seg(bk), stride, k);
    }
    const nnz_t d = plan.diag_pos[static_cast<std::size_t>(bk)];
    diag(f.block(d), lists.columns(d),
         lists.diag_at.data() + grid.block_start(bk), seg(bk), stride, k);
  }
  return Status::ok();
}

}  // namespace

template <class V>
Status block_lower_solve_multi(const block::BlockMatrixT<V>& f,
                               const SolvePlan& plan, V* x, index_t stride,
                               index_t k, const CancelToken* cancel) {
  return sweep(f, plan, x, stride, k, cancel, "lower", true, plan.low_ptr,
               plan.low_pos, plan.low_src, kernels::sweep_columns_sub<V>,
               kernels::diag_lower_sweep<V>);
}

template <class V>
Status block_upper_solve_multi(const block::BlockMatrixT<V>& f,
                               const SolvePlan& plan, V* x, index_t stride,
                               index_t k, const CancelToken* cancel) {
  return sweep(f, plan, x, stride, k, cancel, "upper", false, plan.up_ptr,
               plan.up_pos, plan.up_src, kernels::sweep_columns_sub<V>,
               kernels::diag_upper_sweep<V>);
}

template <class V>
Status block_upper_transpose_solve_multi(const block::BlockMatrixT<V>& f,
                                         const SolvePlan& plan, V* x,
                                         index_t stride, index_t k,
                                         const CancelToken* cancel) {
  return sweep(f, plan, x, stride, k, cancel, "upper-transpose", true,
               plan.tup_ptr, plan.tup_pos, plan.tup_src,
               kernels::sweep_columns_t_sub<V>, kernels::diag_upper_t_sweep<V>);
}

template <class V>
Status block_lower_transpose_solve_multi(const block::BlockMatrixT<V>& f,
                                         const SolvePlan& plan, V* x,
                                         index_t stride, index_t k,
                                         const CancelToken* cancel) {
  return sweep(f, plan, x, stride, k, cancel, "lower-transpose", false,
               plan.tlow_ptr, plan.tlow_pos, plan.tlow_src,
               kernels::sweep_columns_t_sub<V>, kernels::diag_lower_t_sweep<V>);
}

// Explicit instantiations over both precision twins: the FP64 set serves
// the historical API, the FP32 set backs the kSingle/kMixedIR solve paths.
template SolvePlan SolvePlan::build(const block::BlockMatrixT<float>&);
template SolvePlan SolvePlan::build(const block::BlockMatrixT<double>&);
template Status block_lower_solve_multi(const block::BlockMatrixT<float>&,
                                        const SolvePlan&, float*, index_t,
                                        index_t, const CancelToken*);
template Status block_lower_solve_multi(const block::BlockMatrixT<double>&,
                                        const SolvePlan&, double*, index_t,
                                        index_t, const CancelToken*);
template Status block_upper_solve_multi(const block::BlockMatrixT<float>&,
                                        const SolvePlan&, float*, index_t,
                                        index_t, const CancelToken*);
template Status block_upper_solve_multi(const block::BlockMatrixT<double>&,
                                        const SolvePlan&, double*, index_t,
                                        index_t, const CancelToken*);
template Status block_upper_transpose_solve_multi(
    const block::BlockMatrixT<float>&, const SolvePlan&, float*, index_t,
    index_t, const CancelToken*);
template Status block_upper_transpose_solve_multi(
    const block::BlockMatrixT<double>&, const SolvePlan&, double*, index_t,
    index_t, const CancelToken*);
template Status block_lower_transpose_solve_multi(
    const block::BlockMatrixT<float>&, const SolvePlan&, float*, index_t,
    index_t, const CancelToken*);
template Status block_lower_transpose_solve_multi(
    const block::BlockMatrixT<double>&, const SolvePlan&, double*, index_t,
    index_t, const CancelToken*);

namespace {

/// Live sync-free counter array once canonical tasks [0, done) have
/// committed: the initial per-block counts minus one decrement per committed
/// update landing on the block (GETRF consumes its counter reaching zero but
/// never decrements).
std::vector<index_t> live_counters(const block::BlockMatrix& bm,
                                   const std::vector<block::Task>& tasks,
                                   index_t done) {
  std::vector<index_t> c = block::sync_free_array(bm, tasks);
  for (index_t t = 0; t < done; ++t) {
    const block::Task& task = tasks[static_cast<std::size_t>(t)];
    if (task.kind != block::TaskKind::kGetrf)
      --c[static_cast<std::size_t>(task.target)];
  }
  return c;
}

/// FNV-1a over the row then the column permutation, entry by entry.
std::uint64_t permutation_fingerprint(const ordering::ReorderResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::vector<index_t>& p) {
    for (index_t v : p) {
      for (int b = 0; b < 8; ++b) {
        h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  };
  mix(r.row_perm);
  mix(r.col_perm);
  return h;
}

std::unique_ptr<ThreadPool> make_preprocess_pool(int threads) {
  if (threads <= 0) return nullptr;
  return std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
}

/// The refinement controls reach the solver from callers and from snapshot
/// files: a negative budget would make the refinement loop spin, and a
/// negative tolerance could never be met.
Status check_refinement(int refine_iters, int ir_max_iters,
                        kernels::tolerance_t ir_tolerance) {
  if (refine_iters >= 0 && ir_max_iters >= 0 && ir_tolerance >= 0)
    return Status::ok();
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "refine_iters (%d), ir_max_iters (%d) and ir_tolerance (%g) "
                "must all be non-negative",
                refine_iters, ir_max_iters, ir_tolerance);
  return Status::invalid_argument(buf);
}

/// Every block's values in position order, widened to FP64 (exact for
/// FP32, so set_flat_values narrows them back bit for bit).
template <class V>
std::vector<value_t> flat_values(const block::BlockMatrixT<V>& f) {
  std::vector<value_t> out;
  out.reserve(static_cast<std::size_t>(f.total_nnz()));
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(f.n_blocks()); ++pos) {
    const auto v = f.block(pos).values();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

template <class V>
void set_flat_values(block::BlockMatrixT<V>& f, std::span<const value_t> v) {
  std::size_t at = 0;
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(f.n_blocks()); ++pos)
    for (V& x : f.block(pos).values_mut()) x = static_cast<V>(v[at++]);
}

}  // namespace

template <class Self, class Fn>
auto Solver::with_factors(Self& self, Fn&& fn) {
  if (kernels::stores_fp32(self.opts_.precision)) return fn(self.factors32_);
  return fn(self.factors_);
}

Status Solver::prepare_structure(ThreadPool* pool) {
  Timer timer;
  // (1) Reordering: MC64 stability + fill-reducing symmetric permutation.
  Status s = ordering::reorder(original_, opts_.reorder, &reorder_, pool);
  if (!s.is_ok()) return s;
  stats_.reorder_seconds = timer.seconds();

  // (2) Symbolic factorisation with symmetric pruning. Its filled matrix
  // (the scaled, permuted A with zero fill-ins) lives until the blocking
  // has split it; the permuted copy of A is not read again.
  timer.reset();
  symbolic::SymbolicResult sym;
  s = symbolic::symbolic_symmetric(reorder_.permuted, &sym, pool);
  reorder_.permuted = Csc{};
  if (!s.is_ok()) return s;
  stats_.symbolic_seconds = timer.seconds();
  stats_.nnz_lu = sym.nnz_lu;
  stats_.flops = symbolic::factorization_flops(sym.filled);

  // (3) Preprocessing: regular 2D blocking, cyclic mapping, balancing.
  timer.reset();
  const index_t bs = opts_.block_size > 0
                         ? opts_.block_size
                         : block::choose_block_size(stats_.n, stats_.nnz_lu);
  stats_.block_size = bs;
  s = block::check_blocking_bounds(stats_.n, bs, stats_.nnz_lu);
  if (!s.is_ok()) return s;
  factors_ = block::BlockMatrix::from_filled(sym.filled, bs, pool);
  sym = symbolic::SymbolicResult{};
  stats_.nb = factors_.nb();
  tasks_ = block::enumerate_tasks(factors_);
  if (tasks_.size() >
      static_cast<std::size_t>(std::numeric_limits<index_t>::max()))
    return Status::out_of_range(
        "factorize: task count overflows the 32-bit task index");
  stats_.n_tasks = tasks_.size();
  stats_.blocking_seconds = timer.seconds();
  Timer map_timer;
  const auto grid = block::ProcessGrid::make(opts_.n_ranks);
  mapping_ = block::cyclic_mapping(factors_, grid, pool);
  if (opts_.balance)
    mapping_ = block::balanced_mapping(factors_, tasks_, grid, mapping_,
                                       &stats_.balance, pool);
  stats_.mapping_seconds = map_timer.seconds();
  stats_.preprocess_seconds = timer.seconds();

  // (3b) Static verification: prove the task graph, counters and mapping
  // consistent *before* spending any numeric work (and fail with a
  // diagnosis instead of deadlocking or double-firing kernels).
  if (opts_.verify_level != analysis::VerifyLevel::kOff) {
    analysis::VerifyReport vr;
    s = analysis::verify_task_graph(factors_, tasks_, mapping_,
                                    block::sync_free_array(factors_, tasks_),
                                    opts_.verify_level, {}, &vr);
    if (!s.is_ok()) return s;
    stats_.verify_seconds = vr.seconds;
  }
  // Under FP32 storage the numeric phase runs on an FP32 store of the same
  // structure, narrowed once here from the assembled FP64 values.
  if (kernels::stores_fp32(opts_.precision))
    factors32_ = decltype(factors32_)::converted_from(factors_);
  else
    factors32_ = {};
  return Status::ok();
}

Status Solver::factorize(const Csc& a, const Options& opts) {
  if (a.n_rows() != a.n_cols())
    return Status::invalid_argument("factorize: square matrices only");
  Status s =
      check_refinement(opts.refine_iters, opts.ir_max_iters, opts.ir_tolerance);
  if (!s.is_ok()) return s;
  opts_ = opts;
  original_ = a;
  norm1_ = norm1(original_);
  factorized_ = false;
  value_slots_.clear();
  stats_ = FactorStats{};
  stats_.n = a.n_cols();
  stats_.nnz_a = a.nnz();

  // The preprocessing front-end threads through one pool: the process-global
  // one by default, a dedicated pool when the caller pinned a thread count.
  std::unique_ptr<ThreadPool> local_pool =
      make_preprocess_pool(opts_.preprocess_threads);
  s = prepare_structure(local_pool.get());
  if (!s.is_ok()) return s;

  // (4) Numeric factorisation on the simulated cluster (real numerics).
  s = run_numeric_phase(0);
  if (!s.is_ok()) return s;

  // (5) Cache the solve-phase schedules so solve()/solve_transpose() and the
  // triangular-solve model only run numerics from here on.
  s = build_solve_plans();
  if (!s.is_ok()) return s;
  factorized_ = true;
  return Status::ok();
}

Status Solver::flush_checkpoint_writer() {
  if (!checkpoint_writer_.valid()) return Status::ok();
  return checkpoint_writer_.get();
}

Status Solver::write_checkpoint(index_t tasks_done) {
  auto owned = std::make_shared<io::Snapshot>();
  io::Snapshot& snap = *owned;
  io::SnapshotMeta& m = snap.meta;
  m.n = stats_.n;
  m.nnz_a = stats_.nnz_a;
  m.block_size = stats_.block_size;
  m.n_ranks = opts_.n_ranks;
  m.balance = opts_.balance ? 1 : 0;
  m.policy = static_cast<std::int32_t>(opts_.policy);
  m.schedule = static_cast<std::int32_t>(opts_.schedule);
  m.verify_level = static_cast<std::int32_t>(opts_.verify_level);
  m.abft_level = static_cast<std::int32_t>(opts_.abft_level);
  m.use_mc64 = opts_.reorder.use_mc64 ? 1 : 0;
  m.apply_scaling = opts_.reorder.apply_scaling ? 1 : 0;
  m.fill_reducing = static_cast<std::int32_t>(opts_.reorder.fill_reducing);
  m.nd_leaf_size = opts_.reorder.nd_leaf_size;
  m.preprocess_threads = opts_.preprocess_threads;
  m.refine_iters = opts_.refine_iters;
  m.precision = static_cast<std::int32_t>(opts_.precision);
  m.pivot_tol = opts_.pivot_tol;
  m.checkpoint_interval = opts_.checkpoint_interval_tasks;
  m.n_tasks = static_cast<std::int64_t>(tasks_.size());
  m.tasks_done = tasks_done;
  m.incremental = 1;
  m.perm_fingerprint = permutation_fingerprint(reorder_);
  snap.a_col_ptr.assign(original_.col_ptr().begin(), original_.col_ptr().end());
  snap.a_row_idx.assign(original_.row_idx().begin(), original_.row_idx().end());
  snap.a_values.assign(original_.values().begin(), original_.values().end());
  snap.counters = live_counters(factors_, tasks_, tasks_done);
  const auto nblocks = static_cast<std::size_t>(factors_.n_blocks());
  snap.block_nnz.reserve(nblocks);
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(nblocks); ++pos)
    snap.block_nnz.push_back(factors_.block(pos).nnz());
  // Advance the dirty marks over the newly committed tasks; every task kind
  // mutates exactly its target block, so the dirty set of the prefix
  // [0, tasks_done) is the union of those targets. Only dirty blocks' values
  // travel — every clean block still holds the initial pre-numeric values,
  // which resume recomputes deterministically from A. Values travel as FP64:
  // under FP32 storage the live numeric state is factors32_, widened
  // exactly on encode so resume's narrowing round-trips bit for bit.
  for (index_t t = ckpt_marked_upto_; t < tasks_done; ++t)
    ckpt_dirty_[static_cast<std::size_t>(
        tasks_[static_cast<std::size_t>(t)].target)] = 1;
  ckpt_marked_upto_ = std::max(ckpt_marked_upto_, tasks_done);
  with_factors(*this, [&](const auto& f) {
    for (nnz_t pos = 0; pos < static_cast<nnz_t>(nblocks); ++pos) {
      if (!ckpt_dirty_[static_cast<std::size_t>(pos)]) continue;
      snap.dirty_pos.push_back(pos);
      const auto v = f.block(pos).values();
      snap.block_values.insert(snap.block_values.end(), v.begin(), v.end());
    }
  });
  // The safe point has paid only for the state copy above; CRC, encoding and
  // file I/O overlap the factorisation on the writer thread. One write in
  // flight at a time, so a failure surfaces at the next safe point (or at
  // the flush before run_numeric_phase returns) and tmp+rename atomicity
  // holds.
  Status prev = flush_checkpoint_writer();
  if (!prev.is_ok()) return prev;
  checkpoint_writer_ =
      std::async(std::launch::async, [path = opts_.checkpoint_path, owned] {
        return io::write_snapshot_file(path, *owned);
      });
  return Status::ok();
}

Status Solver::resume_from(const std::string& path, const Options& base) {
  io::Snapshot snap;
  Status s = io::read_snapshot_file(path, &snap);
  if (!s.is_ok()) return s;
  const io::SnapshotMeta& m = snap.meta;
  s = check_refinement(m.refine_iters, base.ir_max_iters, base.ir_tolerance);
  if (!s.is_ok()) return s;

  // Rebuild the options that determine the computed bits from the snapshot;
  // `base` contributes only the fields a snapshot does not carry. The casts
  // are safe: read_snapshot bounds each enum slot by these last enumerators.
  static_assert(static_cast<int>(runtime::KernelPolicy::kAdaptive) == 2 &&
                static_cast<int>(runtime::ScheduleMode::kLevelSet) == 1 &&
                static_cast<int>(kernels::Precision::kMixedIR) == 2 &&
                static_cast<int>(runtime::AbftLevel::kFull) == 2 &&
                static_cast<int>(analysis::VerifyLevel::kFull) == 2 &&
                static_cast<int>(ordering::FillReducing::kNatural) == 4 &&
                static_cast<int>(ordering::FillReducing::kAuto) == 5);
  opts_ = base;
  opts_.block_size = m.block_size;
  opts_.n_ranks = m.n_ranks;
  opts_.balance = m.balance != 0;
  opts_.policy = static_cast<runtime::KernelPolicy>(m.policy);
  opts_.schedule = static_cast<runtime::ScheduleMode>(m.schedule);
  opts_.pivot_tol = m.pivot_tol;
  opts_.refine_iters = m.refine_iters;
  opts_.precision = static_cast<kernels::Precision>(m.precision);
  opts_.preprocess_threads = m.preprocess_threads;
  opts_.abft_level = static_cast<runtime::AbftLevel>(m.abft_level);
  opts_.reorder.use_mc64 = m.use_mc64 != 0;
  opts_.reorder.apply_scaling = m.apply_scaling != 0;
  opts_.reorder.fill_reducing =
      static_cast<ordering::FillReducing>(m.fill_reducing);
  opts_.reorder.nd_leaf_size = m.nd_leaf_size;
  // Re-prove the task graph on every resumed state, at least at kCheap.
  opts_.verify_level =
      std::max(static_cast<analysis::VerifyLevel>(m.verify_level),
               analysis::VerifyLevel::kCheap);
  if (opts_.checkpoint_interval_tasks <= 0)
    opts_.checkpoint_interval_tasks =
        static_cast<index_t>(m.checkpoint_interval);

  // The snapshot's matrix arrays were CRC-checked; validate CSC structure
  // before handing them to the pipeline.
  {
    Csc a = Csc::from_parts_unchecked(m.n, m.n, std::move(snap.a_col_ptr),
                                      std::move(snap.a_row_idx),
                                      std::move(snap.a_values));
    Status v = a.validate();
    if (!v.is_ok())
      return Status::io_error("snapshot: matrix section is not a valid CSC (" +
                              v.message() + ")");
    original_ = std::move(a);
    norm1_ = norm1(original_);
  }
  factorized_ = false;
  value_slots_.clear();
  stats_ = FactorStats{};
  stats_.n = m.n;
  stats_.nnz_a = m.nnz_a;

  // Deterministic preprocessing re-derives the structure the snapshot's
  // numeric state was captured against...
  std::unique_ptr<ThreadPool> local_pool =
      make_preprocess_pool(opts_.preprocess_threads);
  s = prepare_structure(local_pool.get());
  if (!s.is_ok()) return s;

  // ...and the snapshot must agree with it exactly before any value lands:
  // the ordering, task count, block table shape, per-block nnz, and the
  // live counter array recomputed from the committed prefix.
  if (permutation_fingerprint(reorder_) != m.perm_fingerprint)
    return Status::failed_precondition(
        "resume: the re-derived ordering differs from the one the snapshot "
        "was factored under — snapshot from another build or wrong options");
  const auto done = static_cast<index_t>(m.tasks_done);
  if (static_cast<std::int64_t>(tasks_.size()) != m.n_tasks)
    return Status::failed_precondition(
        "resume: snapshot task count " + std::to_string(m.n_tasks) +
        " does not match the recomputed task graph (" +
        std::to_string(tasks_.size()) + ") — wrong matrix or options");
  if (snap.block_nnz.size() != static_cast<std::size_t>(factors_.n_blocks()))
    return Status::failed_precondition(
        "resume: snapshot block table does not match the recomputed blocking");
  for (std::size_t b = 0; b < snap.block_nnz.size(); ++b) {
    if (snap.block_nnz[b] != factors_.block(static_cast<nnz_t>(b)).nnz())
      return Status::failed_precondition(
          "resume: block " + std::to_string(b) +
          " nnz differs from the recomputed blocking");
  }
  const std::vector<index_t> expect = live_counters(factors_, tasks_, done);
  if (snap.counters != expect)
    return Status::failed_precondition(
        "resume: snapshot sync-free counters are inconsistent with its "
        "committed-task prefix");

  // Land the checkpointed block values in the numeric store: the state at
  // task `done`. Full snapshots (meta.incremental == 0, still read) carry
  // every block. Incremental ones carry only the dirty blocks (targets of
  // the committed prefix); prepare_structure left every block holding its
  // initial pre-numeric values, which is exactly the state of a clean
  // block, so nothing else needs touching. The stored dirty list must match
  // the one recomputed from the task prefix bit for bit — a mismatch means
  // the snapshot and the recomputed task graph disagree. Under FP32 storage
  // the FP64 values are widened FP32 ones, so narrowing them is exact.
  std::vector<char> dirty(static_cast<std::size_t>(factors_.n_blocks()),
                          m.incremental == 0 ? 1 : 0);
  for (index_t t = 0; t < done; ++t)
    dirty[static_cast<std::size_t>(
        tasks_[static_cast<std::size_t>(t)].target)] = 1;
  std::vector<nnz_t> landing;
  for (nnz_t pos = 0; pos < factors_.n_blocks(); ++pos)
    if (dirty[static_cast<std::size_t>(pos)]) landing.push_back(pos);
  if (m.incremental != 0 && snap.dirty_pos != landing)
    return Status::failed_precondition(
        "resume: snapshot dirty-block list (" +
        std::to_string(snap.dirty_pos.size()) +
        " blocks) does not match the targets of its committed-task "
        "prefix (" +
        std::to_string(landing.size()) + " blocks)");
  with_factors(*this, [&](auto& f) {
    using V = typename std::remove_reference_t<decltype(f)>::value_type;
    std::size_t off = 0;
    for (nnz_t pos : landing)
      for (V& v : f.block(pos).values_mut())
        v = static_cast<V>(snap.block_values[off++]);
  });
  stats_.resumed_from_task = done;

  // Continue the canonical execution from the cut.
  s = run_numeric_phase(done);
  if (!s.is_ok()) return s;
  s = build_solve_plans();
  if (!s.is_ok()) return s;
  factorized_ = true;
  return Status::ok();
}

Status Solver::build_solve_plans() {
  Timer timer;
  solve_plan_ = SolvePlan::build(factors_);
  runtime::TrsvOptions topts;
  topts.device = opts_.device;
  topts.n_ranks = opts_.n_ranks;
  topts.execute_numerics = false;
  // Build against the twin the solves run on, so under FP32 storage the
  // plans' segment byte sizes model the FP32 message payloads (the
  // structure arrays are identical either way).
  Status s = with_factors(*this, [&](const auto& f) {
    Status ps = runtime::build_trsv_plan(f, mapping_, /*lower=*/true, topts,
                                         &trsv_fwd_);
    if (!ps.is_ok()) return ps;
    return runtime::build_trsv_plan(f, mapping_, /*lower=*/false, topts,
                                    &trsv_bwd_);
  });
  if (!s.is_ok()) return s;
  stats_.plan_seconds = timer.seconds();
  return Status::ok();
}

Status Solver::run_numeric_phase(index_t resume_from_task) {
  Timer timer;
  runtime::SimOptions so;
  so.device = opts_.device;
  so.n_ranks = opts_.n_ranks;
  so.policy = opts_.policy;
  so.schedule = opts_.schedule;
  so.execute_numerics = true;
  so.thresholds = opts_.thresholds;
  so.pivot_tol = opts_.pivot_tol;
  so.faults = opts_.fault_plan;
  so.elastic = opts_.elastic_plan;
  so.verify_level = opts_.verify_level;
  so.abft = opts_.abft_level;
  so.cancel = opts_.cancel;
  so.resume_from_task = resume_from_task;
  if (!opts_.checkpoint_path.empty()) {
    // Cadence: an explicit interval is obeyed exactly; otherwise snapshots
    // fall at ~25/50/75% of the run (never a wasted one just before
    // completion), with a worthiness floor: when less than ~100ms of work
    // would be lost, re-running it beats writing (and later restoring) a
    // snapshot, so the safe point is skipped.
    if (opts_.checkpoint_interval_tasks > 0) {
      so.checkpoint_interval_tasks = opts_.checkpoint_interval_tasks;
    } else {
      so.checkpoint_interval_tasks =
          std::max<index_t>(1, static_cast<index_t>((tasks_.size() + 3) / 4));
      so.checkpoint_min_elapsed_seconds = 0.1;
    }
    so.checkpoint_sink = [this](index_t done) { return write_checkpoint(done); };
    // Fresh dirty tracking per numeric run: the marks are a pure function
    // of the committed prefix, so a resume's [0, resume_from_task) prefix
    // is re-marked by the first checkpoint after the cut.
    ckpt_dirty_.assign(static_cast<std::size_t>(factors_.n_blocks()), 0);
    ckpt_marked_upto_ = 0;
  }
  Status s;
  if (kernels::stores_fp32(opts_.precision)) {
    // FP32 numeric phase (DESIGN.md §14): run the canonical execution on the
    // FP32 store, then widen the finished factors into factors_ so every
    // FP64 consumer (determinant, condest) keeps working. The widening is
    // exact, so factors_ is a faithful view of the FP32 bits, not a reround.
    s = runtime::simulate_factorization(factors32_, tasks_, mapping_, so,
                                        &stats_.sim);
    if (s.is_ok()) {
      for (nnz_t pos = 0; pos < static_cast<nnz_t>(factors_.n_blocks());
           ++pos) {
        auto dst = factors_.block(pos).values_mut();
        const auto src = factors32_.block(pos).values();
        for (std::size_t i = 0; i < dst.size(); ++i)
          dst[i] = static_cast<value_t>(src[i]);
      }
    }
  } else {
    s = runtime::simulate_factorization(factors_, tasks_, mapping_, so,
                                        &stats_.sim);
  }
  // A snapshot write may still be in flight on the writer thread; it must
  // land before we return so the file is complete even when the run was
  // killed mid-task-graph.
  Status flushed = flush_checkpoint_writer();
  if (s.is_ok() && !flushed.is_ok()) s = flushed;
  stats_.numeric_wall_seconds = timer.seconds();
  return s;
}

namespace {

/// True for the two cooperative-stop codes: the operation was shed on
/// purpose and the pre-call state is still meaningful to roll back to.
bool is_cancel_code(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

Status Solver::refactorize(const Csc& a) {
  if (!factorized_)
    return Status::failed_precondition("refactorize: factorize() first");
  if (a.n_rows() != stats_.n || a.n_cols() != stats_.n)
    return Status::invalid_argument("refactorize: shape mismatch");
  // The pattern must match the analysed one exactly (same col_ptr/row_idx).
  if (!std::equal(a.col_ptr().begin(), a.col_ptr().end(),
                  original_.col_ptr().begin(), original_.col_ptr().end()) ||
      !std::equal(a.row_idx().begin(), a.row_idx().end(),
                  original_.row_idx().begin(), original_.row_idx().end())) {
    return Status::failed_precondition(
        "refactorize: sparsity pattern differs from the analysed matrix");
  }
  return refactorize_values(a.values());
}

Status Solver::refactorize_values(std::span<const value_t> values) {
  if (!factorized_)
    return Status::failed_precondition("refactorize: factorize() first");
  if (values.size() != static_cast<std::size_t>(original_.nnz()))
    return Status::failed_precondition(
        "refactorize: " + std::to_string(values.size()) +
        " values do not match the analysed matrix's nnz (" +
        std::to_string(original_.nnz()) + ")");
  // With a cancel token armed, a refactorisation can stop at any commit
  // safe point. A cancelled refactorize never publishes a partial factor
  // and keeps the previous one solvable, so keep A's values and the numeric
  // store's values (patterns never change here) and reinstate them on a
  // cancel-typed failure. Under FP32 storage factors_ is written only after
  // a successful run, so the store's copy restores both views. Other
  // failures leave the solver un-factorised.
  std::vector<value_t> prev_a;
  std::vector<value_t> prev_factors;
  const value_t prev_norm1 = norm1_;
  if (opts_.cancel) {
    const auto ov = original_.values();
    prev_a.assign(ov.begin(), ov.end());
    with_factors(*this, [&](const auto& f) { prev_factors = flat_values(f); });
  }
  // `values` may alias matrix().values() (refactorize(matrix()) does).
  if (values.data() != original_.values().data())
    std::copy(values.begin(), values.end(), original_.values_mut().begin());
  norm1_ = norm1(original_);
  if (value_slots_.empty()) build_value_slots();
  // Zero the store (fill-ins stay zero), then land each scaled value in its
  // slot, rounded once to the store's type: the bits a fresh analysis's
  // scale, permute, fill, blocking and narrowing produce.
  with_factors(*this, [&](auto& f) {
    using V = typename std::remove_reference_t<decltype(f)>::value_type;
    for (nnz_t pos = 0; pos < static_cast<nnz_t>(f.n_blocks()); ++pos) {
      auto bv = f.block(pos).values_mut();
      std::fill(bv.begin(), bv.end(), V(0));
    }
    const auto av = original_.values();
    const auto rows = original_.row_idx();
    for (index_t j = 0; j < original_.n_cols(); ++j) {
      const value_t cs = reorder_.col_scale[static_cast<std::size_t>(j)];
      for (nnz_t p = original_.col_begin(j); p < original_.col_end(j); ++p) {
        const auto q = static_cast<std::size_t>(p);
        const FactorSlot slot = value_slots_[q];
        f.block(slot.pos).values_mut()[static_cast<std::size_t>(slot.at)] =
            static_cast<V>(scaled_entry(
                av[q], reorder_.row_scale[static_cast<std::size_t>(rows[q])],
                cs));
      }
    }
  });
  // Every structure phase is skipped outright: ordering, symbolic, blocking,
  // mapping, planning and verification all carry over from the analysis.
  stats_.reorder_seconds = 0;
  stats_.symbolic_seconds = 0;
  stats_.preprocess_seconds = 0;
  stats_.blocking_seconds = 0;
  stats_.mapping_seconds = 0;
  stats_.plan_seconds = 0;
  stats_.verify_seconds = 0;
  stats_.resumed_from_task = 0;
  Status s = run_numeric_phase(0);
  if (!s.is_ok()) {
    if (opts_.cancel && is_cancel_code(s)) {
      std::copy(prev_a.begin(), prev_a.end(), original_.values_mut().begin());
      norm1_ = prev_norm1;
      with_factors(*this, [&](auto& f) { set_flat_values(f, prev_factors); });
      return s;
    }
    factorized_ = false;
    return s;
  }
  // Pattern, mapping and device model are unchanged, and the solve plans
  // read only those: solve_plan_/trsv_fwd_/trsv_bwd_ stay valid as built.
  return Status::ok();
}

void Solver::build_value_slots() {
  // A(i, j) sits at (row_perm[i], col_perm[j]) of the permuted matrix, in
  // the block holding that cell, at its row within the block's column.
  const block::BlockGrid& grid = factors_.grid();
  value_slots_.resize(static_cast<std::size_t>(original_.nnz()));
  for (index_t j = 0; j < original_.n_cols(); ++j) {
    const index_t c = reorder_.col_perm[static_cast<std::size_t>(j)];
    for (nnz_t p = original_.col_begin(j); p < original_.col_end(j); ++p) {
      const index_t r = reorder_.row_perm[static_cast<std::size_t>(
          original_.row_idx()[static_cast<std::size_t>(p)])];
      const nnz_t pos = factors_.find_block(grid.block_of(r), grid.block_of(c));
      PANGULU_CHECK(pos >= 0, "refactorize: entry outside the factor blocks");
      const nnz_t at =
          factors_.block(pos).find(grid.offset_of(r), grid.offset_of(c));
      PANGULU_CHECK(at >= 0 && at <= std::numeric_limits<index_t>::max(),
                    "refactorize: entry outside its factor block");
      value_slots_[static_cast<std::size_t>(p)] = {static_cast<index_t>(pos),
                                                   static_cast<index_t>(at)};
    }
  }
}

namespace {

/// One side of the permute/scale pair around the triangular sweeps: row i
/// of a caller vector sits at row perm[i] of the work panel, times scale[i].
struct PermScale {
  std::span<const index_t> perm;
  std::span<const value_t> scale;
};

/// A solve's two triangular sweeps.
template <class V>
using SweepPair =
    std::array<Status (*)(const block::BlockMatrixT<V>&, const SolvePlan&, V*,
                          index_t, index_t, const CancelToken*),
               2>;

// A x = b: L y = z, then U x = y.
template <class V>
constexpr SweepPair<V> kForwardSweeps{&block_lower_solve_multi<V>,
                                      &block_upper_solve_multi<V>};
// A^T x = b: U^T y = z, then L^T w = y.
template <class V>
constexpr SweepPair<V> kTransposeSweeps{&block_upper_transpose_solve_multi<V>,
                                        &block_lower_transpose_solve_multi<V>};

/// The direct pass (DESIGN.md §13) of one column group: pack its k
/// column-major right-hand sides into the group's own row-interleaved work
/// panel `z` through `in` (rounding to V once), run the two sweeps, and
/// unpack the result through `out` (widening exactly).
template <class V>
Status direct_pass(const block::BlockMatrixT<V>& f, const SolvePlan& plan,
                   const SweepPair<V>& sweeps, PermScale in, PermScale out,
                   const value_t* rhs, value_t* sol, index_t n, index_t k,
                   std::vector<V>& z, const CancelToken* cancel) {
  const auto nn = static_cast<std::size_t>(n);
  const auto kk = static_cast<std::size_t>(k);
  for (std::size_t c = 0; c < kk; ++c)
    for (std::size_t r = 0; r < nn; ++r)
      z[static_cast<std::size_t>(in.perm[r]) * kk + c] =
          static_cast<V>(in.scale[r] * rhs[c * nn + r]);
  for (const auto sweep : sweeps) {
    const Status ss = sweep(f, plan, z.data(), k, k, cancel);
    if (!ss.is_ok()) return ss;
  }
  for (std::size_t c = 0; c < kk; ++c)
    for (std::size_t r = 0; r < nn; ++r)
      sol[c * nn + r] = out.scale[r] * static_cast<value_t>(
          z[static_cast<std::size_t>(out.perm[r]) * kk + c]);
  return Status::ok();
}

/// Split the k columns of a solve into min(k, pool size) contiguous groups
/// and run group(c0, c1) on each over the global pool. The calling thread
/// takes part, so concurrent solves cannot deadlock each other, and a
/// one-column solve runs inline. Every column is independent, so a column's
/// bits do not depend on its group. Returns the lowest-index failing
/// group's status, whatever order the groups failed in.
template <class Group>
Status for_each_column_group(index_t k, Group group) {
  ThreadPool& pool = ThreadPool::global();
  const index_t groups = std::min(k, static_cast<index_t>(pool.size()));
  std::vector<Status> status(static_cast<std::size_t>(groups));
  parallel_for(
      pool, 0, groups,
      [&](index_t g) {
        status[static_cast<std::size_t>(g)] =
            group(k * g / groups, k * (g + 1) / groups);
      },
      1);
  for (Status& s : status)
    if (!s.is_ok()) return std::move(s);
  return Status::ok();
}

/// The publication rule shared by every solve entry point: the caller's
/// output is written on success or on kNumericBreakdown (its iterate is the
/// best the refinement reached), never on a cancel.
bool publishes(const Status& s) {
  return s.is_ok() || s.code() == StatusCode::kNumericBreakdown;
}

}  // namespace

template <class V>
Status Solver::refine(const block::BlockMatrixT<V>& f, const value_t* b,
                      index_t k, value_t* x, int* iters, value_t* resid,
                      const CancelToken* cancel) const {
  const index_t n = stats_.n;
  const auto nn = static_cast<std::size_t>(n);
  const auto kk = static_cast<std::size_t>(k);
  std::vector<V> z(nn * kk);
  auto pass = [&](const value_t* rhs, value_t* sol, index_t cols) {
    return direct_pass(f, solve_plan_, kForwardSweeps<V>,
                       {reorder_.row_perm, reorder_.row_scale},
                       {reorder_.col_perm, reorder_.col_scale}, rhs, sol, n,
                       cols, z, cancel);
  };
  Status s = pass(b, x, k);
  if (!s.is_ok()) return s;

  // Iterative refinement against the original matrix (the GESP recipe),
  // on the shrinking set of active columns: a column leaves the panel the
  // moment its own single-RHS loop would stop, and the panel sweeps are
  // per-column independent, so every column sees exactly that loop. A
  // column stops at its target, after `budget` sweeps, or once a sweep
  // fails to shrink its residual below `shrink` times the last one. Under
  // kDouble/kSingle that is the LAPACK xGERFS rule: FP64 roundoff, or a
  // sweep that fails to halve the residual, and stopping is never an error.
  // Under kMixedIR the target is ir_tolerance and a column that stops short
  // of it fails (solve_panel): a sweep that no longer shrinks the residual
  // by 10% will not start shrinking it later, the FP32 factors have hit
  // their preconditioning limit.
  const bool mixed = opts_.precision == kernels::Precision::kMixedIR;
  const int budget = mixed ? opts_.ir_max_iters : opts_.refine_iters;
  const value_t target =
      mixed ? opts_.ir_tolerance : std::numeric_limits<value_t>::epsilon();
  const value_t shrink = mixed ? value_t(0.9) : value_t(0.5);
  std::vector<value_t> ax(nn);
  std::vector<value_t> rp(nn * kk);
  std::vector<value_t> dx(nn * kk);
  std::fill(iters, iters + k, 0);
  std::vector<value_t> prev(kk, std::numeric_limits<value_t>::infinity());
  std::vector<index_t> active(kk);
  std::iota(active.begin(), active.end(), index_t(0));
  for (int it = 0; !active.empty(); ++it) {
    if (cancel) {
      s = cancel->check(("refinement iteration " + std::to_string(it)).c_str());
      if (!s.is_ok()) return s;
    }
    std::vector<index_t> next;
    for (index_t col : active) {
      const auto j = static_cast<std::size_t>(col);
      const std::span<const value_t> xc(x + j * nn, nn);
      const std::span<const value_t> bc(b + j * nn, nn);
      // The residual lands straight in the correction panel's next slot.
      const std::span<value_t> r(rp.data() + next.size() * nn, nn);
      original_.spmv(xc, ax);
      for (std::size_t i = 0; i < nn; ++i) r[i] = bc[i] - ax[i];
      resid[j] = norm_inf(r) /
                 std::max<value_t>(norm1_ * norm_inf(xc) + norm_inf(bc), 1);
      if (resid[j] <= target || it >= budget || resid[j] >= prev[j] * shrink)
        continue;
      prev[j] = resid[j];
      next.push_back(col);
    }
    if (next.empty()) break;
    s = pass(rp.data(), dx.data(), static_cast<index_t>(next.size()));
    if (!s.is_ok()) return s;
    for (std::size_t i = 0; i < next.size(); ++i) {
      const auto j = static_cast<std::size_t>(next[i]);
      for (std::size_t row = 0; row < nn; ++row)
        x[j * nn + row] += dx[i * nn + row];
      ++iters[j];
    }
    active = std::move(next);
  }
  return Status::ok();
}

Status Solver::solve_panel(const value_t* b, index_t k, bool transpose,
                           value_t* x, SolveStats* worst,
                           const CancelToken* cancel) const {
  if (k == 0) {
    if (worst) *worst = SolveStats{};
    return Status::ok();
  }
  const auto nn = static_cast<std::size_t>(stats_.n);
  const auto kk = static_cast<std::size_t>(k);
  std::vector<int> iters(kk, 0);
  std::vector<value_t> resid(kk, 0);
  const Status s = with_factors(*this, [&](const auto& f) -> Status {
    using V = typename std::decay_t<decltype(f)>::value_type;
    return for_each_column_group(k, [&](index_t c0, index_t c1) -> Status {
      const auto c = static_cast<std::size_t>(c0);
      if (!transpose)
        return refine(f, b + c * nn, c1 - c0, x + c * nn, iters.data() + c,
                      resid.data() + c, cancel);
      // A^T x = b with Ap = P_R (D_r A D_c) P_C^T = L U:
      //   z(col_perm[c]) = col_scale[c] * b(c);  U^T y = z;  L^T w = y;
      //   x(r) = row_scale[r] * w(row_perm[r]).  No refinement.
      std::vector<V> z(nn * static_cast<std::size_t>(c1 - c0));
      return direct_pass(f, solve_plan_, kTransposeSweeps<V>,
                         {reorder_.col_perm, reorder_.col_scale},
                         {reorder_.row_perm, reorder_.row_scale}, b + c * nn,
                         x + c * nn, stats_.n, c1 - c0, z, cancel);
    });
  });
  if (!s.is_ok() || transpose) return s;
  const value_t worst_resid = *std::max_element(resid.begin(), resid.end());
  if (worst) {
    *worst = SolveStats{};
    worst->refine_iterations = *std::max_element(iters.begin(), iters.end());
    worst->final_residual = worst_resid;
  }
  if (opts_.precision != kernels::Precision::kMixedIR) return Status::ok();
  const value_t target = opts_.ir_tolerance;
  const auto n_failed = std::count_if(
      resid.begin(), resid.end(), [&](value_t r) { return !(r <= target); });
  if (n_failed == 0) return Status::ok();
  // std::to_string would print these as fixed-point zeros.
  auto sci = [](value_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3e", static_cast<double>(v));
    return std::string(buf);
  };
  return Status::numeric_breakdown(
      "mixed-precision refinement stalled or spent its " +
      std::to_string(opts_.ir_max_iters) +
      "-sweep budget above relative residual " + sci(target) + " on " +
      std::to_string(n_failed) + " of " + std::to_string(k) +
      " right-hand sides (worst " + sci(worst_resid) +
      ") — retry at Precision::kDouble");
}

Status Solver::solve(std::span<const value_t> b, std::span<value_t> x,
                     SolveStats* solve_stats) const {
  return solve(b, x, solve_stats, opts_.cancel);
}

Status Solver::solve(std::span<const value_t> b, std::span<value_t> x,
                     SolveStats* solve_stats, const CancelToken* cancel) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  const auto n = static_cast<std::size_t>(stats_.n);
  if (b.size() != n || x.size() != n)
    return Status::invalid_argument("solve: size mismatch");
  std::vector<value_t> xi(n);
  Status s = solve_panel(b.data(), 1, false, xi.data(), solve_stats, cancel);
  if (publishes(s)) std::copy(xi.begin(), xi.end(), x.begin());
  return s;
}

Status Solver::solve_multi(const Dense& b, Dense* x, SolveStats* worst) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  if (b.n_rows() != stats_.n)
    return Status::invalid_argument("solve_multi: row count mismatch");
  // Dense stores columns contiguously: b and x enter and leave the driver
  // column-major; only its internal work panel is row-interleaved.
  Dense xi(stats_.n, b.n_cols());
  Status s = solve_panel(b.col(0), b.n_cols(), false, xi.col(0), worst,
                         opts_.cancel);
  if (publishes(s)) *x = std::move(xi);
  return s;
}

Status Solver::solve_multi_transpose(const Dense& b, Dense* x) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  if (b.n_rows() != stats_.n)
    return Status::invalid_argument("solve_multi_transpose: row count mismatch");
  Dense xi(stats_.n, b.n_cols());
  Status s = solve_panel(b.col(0), b.n_cols(), true, xi.col(0), nullptr,
                         opts_.cancel);
  if (publishes(s)) *x = std::move(xi);
  return s;
}

Status Solver::solve_transpose(std::span<const value_t> b,
                               std::span<value_t> x) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  const auto n = static_cast<std::size_t>(stats_.n);
  if (b.size() != n || x.size() != n)
    return Status::invalid_argument("solve_transpose: size mismatch");
  std::vector<value_t> xi(n);
  Status s = solve_panel(b.data(), 1, true, xi.data(), nullptr, opts_.cancel);
  if (publishes(s)) std::copy(xi.begin(), xi.end(), x.begin());
  return s;
}

Status Solver::model_triangular_solve(runtime::SimResult* forward,
                                      runtime::SimResult* backward) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  runtime::TrsvOptions opts;
  opts.device = opts_.device;
  opts.n_ranks = opts_.n_ranks;
  opts.execute_numerics = false;
  // The schedules were built at factorise time; repeat calls only replay the
  // event simulation, against the twin the solves run on (under FP32
  // storage its plans carry the FP32 message payload sizes).
  return with_factors(*this, [&](const auto& f) -> Status {
    using V = typename std::decay_t<decltype(f)>::value_type;
    std::vector<V> dummy(static_cast<std::size_t>(stats_.n), V(0));
    Status s = runtime::simulate_trsv(f, trsv_fwd_, dummy, opts, forward);
    if (!s.is_ok()) return s;
    return runtime::simulate_trsv(f, trsv_bwd_, dummy, opts, backward);
  });
}

Status Solver::condest(value_t* cond_1) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  const index_t n = stats_.n;
  // Hager's estimator for ||A^-1||_1 (Higham's refinement, a few sweeps).
  std::vector<value_t> x(static_cast<std::size_t>(n),
                         value_t(1) / static_cast<value_t>(n));
  std::vector<value_t> y(static_cast<std::size_t>(n));
  std::vector<value_t> xi(static_cast<std::size_t>(n));
  std::vector<value_t> z(static_cast<std::size_t>(n));
  value_t est = 0;
  index_t last_j = -1;
  for (int iter = 0; iter < 5; ++iter) {
    Status s = solve(x, y);
    if (!s.is_ok()) return s;
    value_t y1 = 0;
    for (value_t v : y) y1 += std::abs(v);
    est = std::max(est, y1);
    for (index_t i = 0; i < n; ++i)
      xi[static_cast<std::size_t>(i)] =
          y[static_cast<std::size_t>(i)] >= 0 ? value_t(1) : value_t(-1);
    s = solve_transpose(xi, z);
    if (!s.is_ok()) return s;
    index_t j = 0;
    for (index_t i = 1; i < n; ++i) {
      if (std::abs(z[static_cast<std::size_t>(i)]) >
          std::abs(z[static_cast<std::size_t>(j)]))
        j = i;
    }
    value_t ztx = 0;
    for (index_t i = 0; i < n; ++i)
      ztx += z[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    if (std::abs(z[static_cast<std::size_t>(j)]) <= ztx || j == last_j) break;
    std::fill(x.begin(), x.end(), value_t(0));
    x[static_cast<std::size_t>(j)] = 1;
    last_j = j;
  }
  *cond_1 = norm1_ * est;
  return Status::ok();
}

namespace {

/// Parity of a permutation (+1 even, -1 odd) by cycle counting.
int permutation_sign(std::span<const index_t> p) {
  std::vector<char> seen(p.size(), 0);
  int sign = 1;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (seen[i]) continue;
    std::size_t len = 0;
    std::size_t j = i;
    while (!seen[j]) {
      seen[j] = 1;
      j = static_cast<std::size_t>(p[j]);
      ++len;
    }
    if (len % 2 == 0) sign = -sign;
  }
  return sign;
}

}  // namespace

Status Solver::log_abs_determinant(value_t* log_abs, int* sign) const {
  if (!factorized_) return Status::failed_precondition("factorize() first");
  // det(Ap) = prod U(j,j); Ap = P_R (D_r A D_c) P_C^T, so
  // log|det A| = sum log|u_jj| - sum log(row_scale) - sum log(col_scale)
  // and the sign collects the diagonal signs and both permutation parities.
  value_t acc = 0;
  int s = 1;
  const auto& f = factors_;
  for (index_t bk = 0; bk < f.nb(); ++bk) {
    const Csc& d = f.block(f.find_block(bk, bk));
    for (index_t j = 0; j < d.n_cols(); ++j) {
      const value_t ujj = d.at(j, j);
      if (ujj == value_t(0))
        return Status::numerical_error("zero pivot: determinant is 0");
      acc += std::log(std::abs(ujj));
      if (ujj < 0) s = -s;
    }
  }
  for (value_t v : reorder_.row_scale) acc -= std::log(v);
  for (value_t v : reorder_.col_scale) acc -= std::log(v);
  s *= permutation_sign(reorder_.row_perm) * permutation_sign(reorder_.col_perm);
  if (log_abs) *log_abs = acc;
  if (sign) *sign = s;
  return Status::ok();
}

}  // namespace pangulu::solver
