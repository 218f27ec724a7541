// Discrete-event simulation of the distributed numeric factorisation.
//
// Ranks are simulated processes with virtual clocks; kernels cost time from
// the DeviceModel; inter-rank block transfers cost latency + bytes/bandwidth.
// The numerics really execute on the host, on a parallel task engine over
// every core (SimOptions::numeric_threads), before the DES replays the
// schedule. The engine chains the SSSSM updates of each target block in
// canonical order (a fixed topological order of the dependency DAG), so
// every block sees exactly its canonical kernel sequence: the factorisation
// a simulation produces is the real one — the same blocks a physical
// cluster would compute — and is bit-identical for every rank count,
// schedule, fault plan and engine worker count; only makespan/sync/
// communication vary.
//
// Fault tolerance: SimOptions::faults injects message drops/duplicates/
// reordering, stragglers, stalls, and rank crashes (runtime/fault.hpp).
// Block transfers ride an ack/timeout/retransmit protocol with exponential
// backoff; duplicates are suppressed at the receiver so the sync-free
// counters never double-fire; crashed ranks are detected by heartbeat
// timeout and their blocks re-mapped onto survivors, whose makespan then
// carries the recovery cost. Both schedulers, and the solve replay of
// runtime/trsv_sim.hpp, reshape the cluster — crash remaps and elastic
// drains/adds — through the one protocol of runtime/cluster.hpp.
//
// Two schedulers:
//  * kSyncFree  — the paper's §4.4 strategy: the sync-free array releases a
//    kernel the moment its dependencies break; ranks never barrier.
//  * kLevelSet  — bulk-synchronous elimination: every time slice runs
//    GETRF -> panels -> Schur phases with a barrier after each, the
//    scheduling discipline of supernodal solvers (and of PanguLU's ablation
//    baseline in Figure 14).
#pragma once

#include <functional>
#include <vector>

#include "analysis/model_check.hpp"
#include "analysis/verify.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "kernels/selector.hpp"
#include "runtime/abft.hpp"
#include "runtime/device_model.hpp"
#include "runtime/elastic.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace pangulu::runtime {

enum class KernelPolicy {
  kFixedCpu,   // ablation "Baseline": C_V1, except C_V2 for SSSSM (the
               // first CPU variant of its Figure 8 chain)
  kFixedGpu,   // always G_V1
  kAdaptive,   // Figure 8 decision trees ("Kernel selection")
};

enum class ScheduleMode { kSyncFree, kLevelSet };

struct SimOptions {
  DeviceModel device = DeviceModel::a100_like();
  rank_t n_ranks = 1;
  KernelPolicy policy = KernelPolicy::kAdaptive;
  ScheduleMode schedule = ScheduleMode::kSyncFree;
  bool execute_numerics = true;
  kernels::SelectorThresholds thresholds;
  kernels::tolerance_t pivot_tol = 1e-14;
  /// Optional: record every task's (rank, start, end) for inspection /
  /// chrome-trace export. Not owned.
  TraceRecorder* trace = nullptr;
  /// Faults to inject (see runtime/fault.hpp). Empty plan = perfect cluster.
  /// Recoverable plans change only makespan/traffic, never the factors;
  /// unrecoverable ones fail with StatusCode::kUnavailable.
  FaultPlan faults;
  /// Planned capacity changes (see runtime/elastic.hpp). Drains/adds fire at
  /// canonical commit safe points (runtime/cluster.hpp): the rank is
  /// quiesced, its blocks migrate via Mapping::rebalance (bounded movement),
  /// the verifier re-proves the new mapping, and the run continues to
  /// bitwise-identical factors. A drain that would go below
  /// `elastic.min_ranks` fails with StatusCode::kResourceExhausted
  /// (graceful load shedding, no deadlock).
  ElasticPlan elastic;
  /// Re-verify scheduling invariants after every crash-recovery remap:
  /// kCheap (default) proves mapping totality over the survivor set, kFull
  /// additionally proves message conservation under the new ownership. A
  /// violated invariant aborts the run with StatusCode::kInvariantViolation
  /// instead of letting the scheduler hang on an orphaned block.
  analysis::VerifyLevel verify_level = analysis::VerifyLevel::kCheap;
  /// Silent-corruption audits on the numeric engine (runtime/abft.hpp):
  /// kCheap audits a task's source blocks before each kernel, kFull adds the
  /// target and a final sweep. Detected corruption is recomputed from live
  /// inputs when possible; otherwise the run fails with
  /// StatusCode::kDataCorruption.
  AbftLevel abft = AbftLevel::kOff;
  /// Canonical tasks [0, resume_from_task) are assumed already committed
  /// into `bm` (restored from a snapshot): the engine counts them as done
  /// and runs the rest. The DES replay still models the whole schedule.
  index_t resume_from_task = 0;
  /// > 0 with a sink set: each multiple of `checkpoint_interval_tasks` is a
  /// dispatch fence — the engine drains canonical tasks [0, tasks_done),
  /// calls `checkpoint_sink(tasks_done)` with nothing in flight, then moves
  /// on, so every snapshot is a canonical prefix. A failing sink aborts the
  /// run with its status.
  index_t checkpoint_interval_tasks = 0;
  std::function<Status(index_t)> checkpoint_sink;
  /// > 0: worthiness floor for the default cadence — a safe point is skipped
  /// (no sink call, nothing counted) unless at least this much wall-clock
  /// work has elapsed since the previous snapshot (or the start of the
  /// numeric phase). Losing work that re-runs faster than a snapshot writes
  /// is cheaper than checkpointing it. Explicit user intervals leave this 0
  /// and fire exactly on schedule.
  double checkpoint_min_elapsed_seconds = 0;
  /// Optional cooperative cancellation (util/cancel.hpp). Not owned. Polled
  /// by the numeric engine before every task dispatch (manual cancel / wall
  /// deadline) and at every scheduler event pop against the DES virtual
  /// clock (virtual deadline). After an expiry the engine lets the tasks in
  /// flight finish, then fails typed with kCancelled / kDeadlineExceeded;
  /// the factorisation publishes nothing partial.
  const CancelToken* cancel = nullptr;
  /// Workers of the numeric engine: 0 = ThreadPool::global().size(). With
  /// more than one, each worker runs its tasks' serial C_V1 kernels; with
  /// one (and always under ABFT, whose audits run one task per fence) the
  /// planned variants run on the kernels' pool. The factors are bitwise
  /// identical at every value. Internal: tests and benches pin it,
  /// production leaves it 0.
  int numeric_threads = 0;
};

struct RankStats {
  double busy = 0;
  double idle = 0;       // makespan - busy: waiting on deps/barriers
  std::int64_t messages_sent = 0;
  std::size_t bytes_sent = 0;
  // Fault-protocol counters (all zero on a fault-free run).
  std::int64_t retransmits = 0;            // extra sends after an ack timeout
  std::int64_t timeouts = 0;               // ack timers that fired
  std::int64_t duplicates_suppressed = 0;  // received twice, applied once
  double stall_s = 0;                      // time lost to transient stalls
  bool crashed = false;
};

struct SimResult {
  double makespan = 0;
  double total_flops = 0;
  double panel_busy = 0;  // GETRF + GESSM + TSTRF virtual compute time
  double schur_busy = 0;  // SSSSM virtual compute time
  /// Per-kernel-family compute time (indexed by block::TaskKind): the
  /// finer-grained version of the panel/Schur split Table 4 reports.
  double kind_busy[4] = {0, 0, 0, 0};
  /// Tasks executed per kernel family.
  std::int64_t kind_count[4] = {0, 0, 0, 0};
  double avg_sync = 0;    // mean rank idle time
  double max_sync = 0;
  std::int64_t messages = 0;
  std::size_t bytes = 0;
  index_t perturbed_pivots = 0;
  std::vector<RankStats> ranks;

  // Fault-recovery totals (aggregated over ranks where per-rank counters
  // exist; all zero when SimOptions::faults is empty).
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  std::int64_t duplicates_suppressed = 0;
  std::int64_t rank_crashes = 0;     // permanent failures detected
  std::int64_t recovered_tasks = 0;  // tasks re-dispatched off dead ranks
  nnz_t remapped_blocks = 0;         // blocks adopted by survivors
  /// Virtual time attributable to fault handling: retransmit backoff waits,
  /// crash-detection windows, re-mapping work, and stall freezes.
  double recovery_time = 0;

  // ABFT / checkpoint counters (zero when both features are off).
  std::int64_t abft_audits = 0;       // blocks checksummed in audits
  std::int64_t abft_detected = 0;     // checksum mismatches found
  std::int64_t abft_recomputed = 0;   // corrupted blocks rebuilt by replay
  std::int64_t checkpoints_written = 0;

  // Elastic-runtime totals (zero when SimOptions::elastic is empty).
  std::int64_t ranks_drained = 0;  // planned drains executed
  std::int64_t ranks_added = 0;    // planned adds executed
  nnz_t migrated_blocks = 0;       // blocks moved by Mapping::rebalance
  /// Virtual time spent quiescing drained ranks and migrating their blocks.
  double migration_time = 0;

  double gflops() const {
    return makespan > 0 ? total_flops / makespan / 1e9 : 0;
  }
};

/// Flatten an ElasticPlan into the model checker's layer-free event list,
/// in DES firing order (ElasticPlan::steps()).
/// The entry indices are the plan ids ProtoEvent::edge refers to for
/// kDrain/kAdd events, so a schedule `model_check` finds for a plan replays
/// (`analysis::replay_schedule`) only against this flattening of it.
std::vector<analysis::ModelOptions::ElasticEvent> flatten_elastic(
    const ElasticPlan& plan);

/// Run the factorisation. When `opts.execute_numerics`, `bm`'s blocks are
/// overwritten with the LU factors (diagonal blocks hold L\U, off-diagonal
/// blocks the panel-solve results). Templated on the block value type
/// (DESIGN.md §14): the DES schedulers read only block structure, and each
/// block sees its canonical kernel sequence on the engine, so the FP32
/// instantiation inherits the same guarantee as FP64 — identical factors bit
/// for bit across rank counts, scheduling modes, fault plans and
/// `numeric_threads`. A kernel error is reported for the lowest canonical
/// task that failed.
template <class V>
Status simulate_factorization(block::BlockMatrixT<V>& bm,
                              const std::vector<block::Task>& tasks,
                              const block::Mapping& mapping,
                              const SimOptions& opts, SimResult* result);

}  // namespace pangulu::runtime
