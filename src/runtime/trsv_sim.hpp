// Distributed block sparse triangular solve (step 5 of the pipeline, §4.1)
// on the simulated cluster. Like the factorisation DES, the numerics execute
// for real on the host in *canonical sweep order* (segment by segment, each
// diagonal solve followed by the updates it releases), decoupled from the
// event replay that accrues virtual time — so the solution is bitwise
// identical for every rank count, schedule and elastic plan, and only
// makespan/sync/communication vary. Scheduling in the replay is
// synchronisation-free in the style of Liu et al. [58]: a per-segment
// counter of outstanding updates releases the diagonal solve the moment the
// last update lands, with no level barriers.
//
// The schedule itself — update lists, dependency counters, task owners,
// per-task kernel costs and priorities — depends only on the factor pattern,
// the mapping and the device model, none of which change between solves. It
// is therefore built once into a TrsvPlan and reused: repeat solves copy the
// initial dependency counters and run pure numerics + event simulation.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "kernels/kernel_common.hpp"
#include "runtime/sim.hpp"
#include "util/status.hpp"

namespace pangulu::runtime {

struct TrsvOptions {
  DeviceModel device = DeviceModel::a100_like();
  rank_t n_ranks = 1;
  bool execute_numerics = true;
  /// Planned capacity changes during the solve phase (runtime/elastic.hpp),
  /// fired through the reshaping protocol the factorisation replays use
  /// (runtime/cluster.hpp). The solve phase's commit clock is the count of
  /// committed diagonal solves: a drain/add with at_commit = c fires when
  /// the c-th diagonal solve completes. Requires `mapping`. Because the
  /// numerics run canonically, the solution is bitwise identical to the
  /// static run; only the replay's timing/traffic move.
  ElasticPlan elastic;
  /// The mapping the plan was built against — required (not owned) whenever
  /// `elastic` is non-empty, so capacity changes rebalance a working copy.
  const block::Mapping* mapping = nullptr;
  /// Re-proof level for each solve-phase rebalance. kFull clamps to kCheap
  /// here: the I5 message-conservation proof wants the factorisation task
  /// list, which does not exist during the solve phase.
  analysis::VerifyLevel verify_level = analysis::VerifyLevel::kCheap;
  /// Optional cooperative cancellation (util/cancel.hpp). Not owned. Polled
  /// between sweep levels (manual cancel / wall deadline) and at every
  /// event pop against the DES virtual clock (virtual deadline). The
  /// timing replay runs before the canonical numerics, so a
  /// virtual-deadline miss sheds the solve with `x` untouched.
  const CancelToken* cancel = nullptr;
};

/// The sweep kernels' view of a factor's blocks (kernels::sweep_columns_sub
/// and the diag_*_sweep family): the non-empty columns of each block
/// position in ascending order, each with its gap-free first row or a
/// scatter marker (a diagonal block lists every column: each holds its
/// diagonal entry), and the position of every diagonal entry. Pure
/// structure, so the lists built from either precision twin serve both.
struct ColumnLists {
  std::vector<nnz_t> col_ptr;  // [n_blocks + 1]
  std::vector<kernels::SweepColumn> cols;
  // [n] position of global column j's diagonal entry within its diagonal
  // block's value array.
  std::vector<nnz_t> diag_at;

  bool empty() const { return col_ptr.empty(); }

  /// The listed non-empty columns of the block at `pos`.
  std::span<const kernels::SweepColumn> columns(nnz_t pos) const {
    return {cols.data() + col_ptr[static_cast<std::size_t>(pos)],
            cols.data() + col_ptr[static_cast<std::size_t>(pos) + 1]};
  }
};

/// Build the lists of `f` on the global pool; the result does not depend
/// on the pool. Every diagonal block must hold its diagonal entries.
template <class V>
ColumnLists build_column_lists(const block::BlockMatrixT<V>& f);

/// Cached triangular-solve schedule. Task ids: [0, nb) are diagonal solves
/// (one per vector segment); [nb, n_tasks) are off-diagonal updates. All
/// arrays are flat (TaskAdjacency style) so a solve touches no per-task heap
/// allocations. Owned by the Solver; invalidated whenever the factors or the
/// mapping change (re-factorisation).
struct TrsvPlan {
  bool lower = false;
  rank_t n_ranks = 1;
  index_t nb = 0;
  index_t n_tasks = 0;  // nb + number of updates

  std::vector<nnz_t> diag_pos;   // [nb] block position of each diagonal block
  std::vector<nnz_t> upd_pos;    // [n_updates] block position of each update
  std::vector<index_t> upd_src;  // [n_updates] segment the update consumes
  std::vector<index_t> upd_dst;  // [n_updates] segment it accumulates into

  // diag solve k releases update ids from_adj[from_ptr[k] .. from_ptr[k+1]).
  std::vector<index_t> from_ptr;  // [nb + 1]
  std::vector<index_t> from_adj;  // [n_updates]

  std::vector<index_t> init_dep;  // [n_tasks] initial dependency counters
  std::vector<rank_t> owner;      // [n_tasks]
  std::vector<double> cost;       // [n_tasks] device kernel time
  // Packed ready-queue key (crit << 33 | kind << 32 | id); smaller pops first.
  std::vector<std::uint64_t> prio;      // [n_tasks]
  std::vector<std::size_t> seg_bytes;   // [nb] message payload per segment
  // The canonical numerics' column lists; built only with
  // TrsvOptions::execute_numerics, so a timing-only plan costs nothing.
  ColumnLists lists;

  bool valid() const { return nb > 0; }
};

/// Build the solve schedule for L (lower=true) or U against `f`/`mapping`.
/// Costs are evaluated against `opts.device`, so the plan must be rebuilt if
/// the device model changes. A plan built without `opts.execute_numerics`
/// holds no column lists, and a numeric run on it fails kInvalidArgument.
/// Templated on the factor value type: the plan is pure structure except
/// `seg_bytes`, which bakes in sizeof(V) so an FP32 plan models FP32
/// message traffic (DESIGN.md §14).
template <class V>
Status build_trsv_plan(const block::BlockMatrixT<V>& f,
                       const block::Mapping& mapping, bool lower,
                       const TrsvOptions& opts, TrsvPlan* plan);

/// Run one solve over a prebuilt plan, in place on `x`. Bitwise identical —
/// numerics, makespan and message counts — to the legacy one-shot overload.
template <class V>
Status simulate_trsv(const block::BlockMatrixT<V>& f, const TrsvPlan& plan,
                     std::type_identity_t<std::span<V>> x, const TrsvOptions& opts,
                     SimResult* result);

/// Panel (multi-RHS) run over a prebuilt plan: `x` is an n x k
/// row-interleaved panel — column c of row r at x[r * stride + c] (stride 1
/// with k == 1 is the plain vector layout). The schedule is the
/// single-vector one — each task walks its block's column lists once for
/// all k columns, through the sweep kernels Solver's sweeps run, with its
/// kernel cost and message payload scaled by k. Per column the numerics are
/// bitwise identical to a single-vector run, and with k == 1 the makespan,
/// message and byte counts also match exactly (the single-vector overload
/// delegates here).
template <class V>
Status simulate_trsv_panel(const block::BlockMatrixT<V>& f,
                           const TrsvPlan& plan, V* x, index_t stride,
                           index_t k, const TrsvOptions& opts,
                           SimResult* result);

/// One-shot convenience: build_trsv_plan + the plan-based run above.
template <class V>
Status simulate_trsv(const block::BlockMatrixT<V>& f,
                     const block::Mapping& mapping, bool lower, std::type_identity_t<std::span<V>> x,
                     const TrsvOptions& opts, SimResult* result);

}  // namespace pangulu::runtime
