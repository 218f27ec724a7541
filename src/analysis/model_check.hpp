// Exhaustive protocol model checker for the DES runtime's fault-tolerance
// protocols (sync-free commit counters, ack/timeout/retransmit message
// recovery, crash remapping, checkpoint commits, elastic drain/grow).
//
// The checker enumerates *every* interleaving of abstract protocol events on
// a small grid — task commits, message deliveries/drops/retransmits/
// duplicates, rank crashes, checkpoint commits, planned drains and adds —
// with exact-state deduplication and sleep-set partial-order reduction
// (Godefroid-style: sleep sets prune redundant transitions between
// provably-commuting events but still visit every reachable state, so
// per-state safety checks lose nothing). Safety is checked at every state:
//
//   * counter non-negativity      a sync-free counter never underflows
//   * at-most-once application    no task commits (and so no kernel runs)
//                                 twice
//   * no premature execution      a commit only fires once every
//                                 prerequisite block has actually arrived
//                                 at the owner (the ground truth the
//                                 counters are supposed to track)
//   * mapping totality (I4/I6)    no block is ever owned by a crashed or
//                                 drained rank, including right after a
//                                 remap or rebalance
//   * min-ranks floor             planned drains never take the live set
//                                 below ElasticPlan::min_ranks
//   * checkpoint durability       a checkpoint only covers commits whose
//                                 ABFT checksums are published
//
// and at every terminal state (no event enabled): all tasks committed, no
// in-flight or lost message orphaned. Together these are the execution-level
// counterparts of the static I1-I6 invariants in analysis/verify.hpp: the
// verifier proves single states consistent, the checker proves the protocol
// keeps them consistent across all small-scope schedules.
//
// On a violation the checker emits a minimal counterexample: an explicit
// event schedule, shrunk by replay-based delta debugging, that
// replay_schedule replays deterministically — every finding is a
// reproducible failing schedule, not a trace dump.
//
// A mutation-soundness harness (tests/model_check_test.cpp) seeds known
// protocol bugs behind the test-only ProtocolMutations toggles and asserts
// the checker finds each one; replay_schedule honours the same toggles, so
// the counterexamples reproduce.
//
// Scope and soundness limits: the model abstracts virtual time away (any
// enabled event may fire next, a superset of the DES's timed schedules), so
// "no violation" covers every timing the DES can exhibit within the given
// fault/elastic budgets; it does not cover larger budgets, numeric error, or
// host-side bugs outside the protocol state machines. Elastic events may
// fire at any commit count at or after their threshold, and drains that
// would dip below min_ranks are modelled as load-shed (never fired), which
// mirrors the cooperative runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "util/status.hpp"

namespace pangulu::analysis {

/// One abstract protocol event. `task`/`edge`/`rank` identify the operand
/// per kind; unused operands stay -1. The enum order is the deterministic
/// exploration order (progress events first, fault injections last, so the
/// first DFS dive reaches a terminal state quickly).
enum class ProtoEventKind : std::uint8_t {
  kCommit = 0,   // task `task` executes and commits on its current owner
  kDeliver,      // in-flight message for dependency edge `edge` arrives
  kRetransmit,   // sender ack timer fired; lost edge `edge` back in flight
  kDrain,        // planned elastic drain (plan entry `edge`, rank `rank`)
  kAdd,          // planned elastic add   (plan entry `edge`, rank `rank`)
  kCheckpoint,   // checkpoint commit covering the current canonical prefix
  kPublish,      // deferred checksum publication for task `task`
                 // (only exists under the commit_before_publish mutation)
  kDrop,         // in-flight message for edge `edge` is lost (fault budget)
  kDuplicate,    // late extra copy of already-applied edge `edge` arrives
  kCrash,        // rank `rank` dies; survivors remap its blocks
};

const char* to_string(ProtoEventKind kind);

struct ProtoEvent {
  ProtoEventKind kind = ProtoEventKind::kCommit;
  index_t task = -1;  // kCommit / kPublish
  nnz_t edge = -1;    // message events: dependency-edge id;
                      // kDrain / kAdd: index into ModelOptions::elastic
  rank_t rank = -1;   // kCrash / kDrain / kAdd
};

bool operator==(const ProtoEvent& a, const ProtoEvent& b);
bool proto_event_less(const ProtoEvent& a, const ProtoEvent& b);
std::string to_string(const ProtoEvent& e);

/// Test-only seeded protocol bugs. Each toggle plants one defect the
/// protocols are documented to exclude; the mutation-soundness harness
/// asserts the checker catches every one with a replayable counterexample.
/// replay_schedule honours the same toggles, so a counterexample found
/// under a mutation replays to the identical violation.
struct ProtocolMutations {
  /// Receiver applies duplicate deliveries instead of suppressing them:
  /// a retransmitted copy double-decrements the sync-free counter.
  bool skip_ack_dedup = false;
  /// Sync-free counters initialised one too low (the classic missing
  /// panel-solve +1): tasks become ready before their inputs arrive.
  bool counter_off_by_one = false;
  /// The I6 re-proof after an elastic rebalance is dropped AND the
  /// rebalance itself is sabotaged to leave one block on the drained rank —
  /// exactly the defect the proof exists to catch at the safe point.
  bool skip_rebalance_proof = false;
  /// A task's commit becomes visible (counter decrements, commit count
  /// advances) before its ABFT checksum publishes, opening the window in
  /// which a checkpoint captures a commit that cannot be audited on resume.
  bool commit_before_publish = false;
  /// Lost messages are never retransmitted: the ack-timeout half of the
  /// recovery protocol is disabled.
  bool skip_retransmit = false;
  /// Planned drains ignore the ElasticPlan::min_ranks floor.
  bool drain_ignores_min_ranks = false;
  /// Crash recovery forgets to re-home one of the dead rank's blocks.
  bool crash_remap_drops_block = false;

  bool any() const {
    return skip_ack_dedup || counter_off_by_one || skip_rebalance_proof ||
           commit_before_publish || skip_retransmit ||
           drain_ignores_min_ranks || crash_remap_drops_block;
  }
};

/// The safety / terminal property a counterexample violates.
enum class ProtoProperty : std::uint8_t {
  kNone = 0,
  kCounterNonNegative,    // a sync-free counter went negative
  kAtMostOnce,            // a task committed twice
  kPrematureExecute,      // commit before a prerequisite arrived
  kMappingTotality,       // block owned by a crashed/drained rank (I4/I6)
  kMinRanksFloor,         // live ranks dipped below min_ranks
  kCheckpointDurability,  // checkpoint covers an unpublished checksum
  kOrphanMessage,         // terminal state with an undelivered/lost message
  kDeadlock,              // terminal state with uncommitted tasks
};

const char* to_string(ProtoProperty p);

struct ModelOptions {
  /// Planned capacity change, the layer-free mirror of
  /// runtime::ElasticPlan::Event (runtime::flatten_elastic converts a plan;
  /// keeping the flat form here avoids an analysis -> runtime dependency).
  /// An event is eligible once `at_commit` tasks have committed; the model
  /// lets it fire at any later commit count too (a superset of the DES's
  /// next-safe-point firing).
  struct ElasticEvent {
    rank_t rank = 0;
    index_t at_commit = 0;
    bool is_add = false;
  };
  std::vector<ElasticEvent> elastic;
  rank_t min_ranks = 1;

  // Small-scope fault budgets: how many of each fault the adversary may
  // inject per execution. Exhaustiveness is relative to these bounds.
  int max_drops = 0;
  int max_duplicates = 0;
  int max_crashes = 0;  // any live rank may crash
  /// Checkpoint-commit events the adversary may interleave.
  int max_checkpoints = 0;

  /// Exploration stops with kResourceExhausted after this many distinct
  /// states (the state budget). There is no depth bound: the event
  /// alphabet is consumed monotonically, so DFS terminates without one.
  std::size_t max_states = std::size_t(1) << 21;
  /// Sleep-set partial-order reduction. Off = naive full enumeration
  /// (same states, every enabled transition executed) for A/B measurement.
  bool partial_order_reduction = true;

  ProtocolMutations mutations;
};

struct ModelStats {
  std::size_t states = 0;             // distinct states visited
  std::size_t transitions = 0;        // transitions actually executed
  /// What naive enumeration would execute: sum of |enabled| over all
  /// distinct states. Sleep sets visit every reachable state, so this is
  /// exact, not an estimate.
  std::size_t naive_transitions = 0;
  std::size_t sleep_pruned = 0;       // transitions skipped by sleep sets
  std::size_t revisits = 0;           // state-cache hits
  std::size_t terminal_states = 0;
  std::size_t peak_depth = 0;
  double seconds = 0;

  double reduction_factor() const {
    return transitions > 0 ? static_cast<double>(naive_transitions) /
                                 static_cast<double>(transitions)
                           : 1.0;
  }
};

struct Counterexample {
  ProtoProperty property = ProtoProperty::kNone;
  std::string detail;
  /// Minimal event schedule (1-minimal under replay-based delta debugging):
  /// the violation fires at the last event, or — for terminal properties —
  /// in the stuck state the full schedule leaves behind.
  std::vector<ProtoEvent> schedule;
};

struct ModelCheckResult {
  bool violation = false;
  /// True when the search exhausted the whole (budget-bounded) space.
  bool complete = false;
  Counterexample cex;
  ModelStats stats;
};

/// Exhaustively explore the protocol state space of (bm, tasks, mapping)
/// under `opts`. Returns ok() when the search finished — either clean
/// (result->complete) or with a minimal counterexample (result->violation) —
/// kResourceExhausted when the state budget ran out inconclusively, and
/// kInvalidArgument for malformed inputs.
template <class BM>
Status model_check(const BM& bm, const std::vector<block::Task>& tasks,
                   const block::Mapping& mapping, const ModelOptions& opts,
                   ModelCheckResult* result);

/// Outcome of deterministically replaying an explicit event schedule
/// against the protocol interpreter (the oracle the counterexample
/// minimiser shrinks against, and the way to reproduce a counterexample).
struct ReplayResult {
  bool feasible = true;        // every event admissible when it fired
  std::size_t applied = 0;     // events applied before the replay stopped
  std::string infeasible_reason;
  ProtoProperty property = ProtoProperty::kNone;  // kNone: no violation
  std::string detail;
  bool terminal = false;       // no event enabled after the last one
  bool all_committed = false;
  index_t commits = 0;
  // Protocol counters of the replayed prefix.
  std::int64_t messages = 0;   // remote deliveries applied
  std::int64_t retransmits = 0;
  std::int64_t duplicates_suppressed = 0;
  std::int64_t rank_crashes = 0;
  std::int64_t ranks_drained = 0;
  std::int64_t ranks_added = 0;
  std::int64_t checkpoints = 0;
  nnz_t remapped_blocks = 0;   // crash-recovery block moves
  nnz_t migrated_blocks = 0;   // elastic rebalance block moves
};

/// Replay `schedule` event by event. Fault budgets are auto-raised to what
/// the schedule actually uses (a counterexample must never be rejected by
/// the budget that found it); every other guard is enforced, except that a
/// commit of an already-committed task reports the kAtMostOnce violation
/// instead of infeasibility (so the at-most-once property is directly
/// testable).
template <class BM>
ReplayResult replay_schedule(const BM& bm,
                             const std::vector<block::Task>& tasks,
                             const block::Mapping& mapping,
                             const ModelOptions& opts,
                             const std::vector<ProtoEvent>& schedule);

/// One fault-free complete schedule (greedy: first enabled progress event;
/// never injects drops/duplicates/crashes) that commits every task and
/// leaves no message in flight. Used by replay smoke tests to drive
/// replay_schedule through a healthy run.
template <class BM>
std::vector<ProtoEvent> sample_complete_schedule(
    const BM& bm, const std::vector<block::Task>& tasks,
    const block::Mapping& mapping, const ModelOptions& opts);

}  // namespace pangulu::analysis
