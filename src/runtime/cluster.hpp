// What the DES replays share: the event queue entry, the end-of-run totals,
// and the simulated cluster's shape — which ranks are live and which rank
// owns each block. The sync-free and level-set factorisation schedulers
// (sim.cpp) and the solve replay (trsv_sim.cpp) reshape the cluster through
// the one protocol of LiveCluster:
//  * provisioning — a rank whose first elastic event is an add starts idle,
//    and its blocks are re-homed at zero cost before any task runs;
//  * an elastic step (runtime/elastic.hpp) at a commit safe point — a drain
//    quiesces its rank and Mapping::rebalance hands its blocks to the
//    least-loaded survivors, an add steals from the most-loaded donors, and
//    analysis::verify_rebalance re-proves the move (I6). Each migrated block
//    pays one transfer plus the adopt bookkeeping, audited against its
//    checksum when ABFT is on;
//  * crash recovery (runtime/fault.hpp) — Mapping::remap_failed_rank hands
//    a dead rank's blocks to the survivors, and the result is re-verified.
// What each scheduler does with a reshape stays in the scheduler: the
// event-driven replays re-route queued work and wake an added rank, the
// level-set scheduler charges the migration to its barrier clock.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/sim.hpp"

namespace pangulu::runtime {

/// One pending event of an event-driven replay.
struct DesEvent {
  double time;
  index_t seq;   // tie-break for determinism
  index_t task;  // ready task, or a marker id (kWakeEvent & co)
  rank_t rank;   // rank to wake / rank being recovered
  bool operator>(const DesEvent& o) const {
    return std::tie(time, seq) > std::tie(o.time, o.seq);
  }
};
using DesEvents =
    std::priority_queue<DesEvent, std::vector<DesEvent>, std::greater<>>;
/// Marker task id: wake rank `DesEvent::rank` to pick its next task.
constexpr index_t kWakeEvent = -1;

/// Move every task queued in `q` back onto `events`, task t at `at(t)`.
template <class Queue, class At>
void requeue(Queue& q, DesEvents& events, index_t& seq, At&& at) {
  for (; !q.empty(); q.pop()) events.push({at(q.top()), seq++, q.top(), 0});
}

/// End-of-run totals over `res->ranks`: the makespan, mean and max sync
/// time, messages, bytes and fault-protocol counters. With `idle_is_gap`
/// each rank's idle time is makespan - busy (the event-driven replays);
/// otherwise it is what the scheduler accumulated (level-set barriers).
inline void finish_run(double makespan, bool idle_is_gap, SimResult* res) {
  res->makespan = makespan;
  for (RankStats& rs : res->ranks) {
    if (idle_is_gap) rs.idle = makespan - rs.busy;
    res->avg_sync += rs.idle;
    res->max_sync = std::max(res->max_sync, rs.idle);
    res->messages += rs.messages_sent;
    res->bytes += rs.bytes_sent;
    res->retransmits += rs.retransmits;
    res->timeouts += rs.timeouts;
    res->duplicates_suppressed += rs.duplicates_suppressed;
  }
  res->avg_sync /= std::max<rank_t>(1, static_cast<rank_t>(res->ranks.size()));
}

/// What one elastic step cost on the virtual clock.
struct Migration {
  bool fired = false;   // false: a no-op
  nnz_t moved = 0;      // blocks that changed owner
  double ready_at = 0;  // when the migrated state has landed
};

template <class V>
class LiveCluster {
 public:
  /// `tasks` may be empty (the solve phase), which limits the re-proofs to
  /// what needs no task list. `clock` names the commit clock in load-shed
  /// messages. Counters go to `res`, instants to `o.trace`. Everything is
  /// referenced, not copied.
  LiveCluster(const block::BlockMatrixT<V>& bm,
              const std::vector<block::Task>& tasks,
              const block::Mapping& initial, const SimOptions& o,
              const char* clock, SimResult* res)
      : mapping(initial), alive(o.elastic.initially_active(o.n_ranks)),
        bm_(bm), tasks_(tasks), o_(o), clock_(clock), res_(res),
        steps_(o.elastic.steps()) {}

  block::Mapping mapping;   // the working mapping
  std::vector<char> alive;  // the live set

  /// Re-home the blocks of every initially-inactive rank (nothing is in
  /// flight yet, so nothing is charged). kResourceExhausted when the plan
  /// leaves no rank live.
  Status provision() {
    for (rank_t r = 0; r < o_.n_ranks; ++r) {
      if (alive[static_cast<std::size_t>(r)]) continue;
      before_ = mapping;
      if (mapping.rebalance(r, -1, alive) < 0)
        return Status::resource_exhausted(
            std::string("elastic plan leaves no rank live before the first ") +
            clock_);
      Status vs = analysis::verify_rebalance(bm_, tasks_, before_, mapping, r,
                                             -1, alive, o_.verify_level);
      if (!vs.is_ok()) return vs;
    }
    return Status::ok();
  }

  /// Whether a step is due once `committed` commits are in.
  bool due(index_t committed) const {
    return next_ < steps_.size() && steps_[next_].at_commit <= committed;
  }
  /// The next step due once `committed` commits are in (every remaining
  /// one with `fire_all`), or nullptr.
  const ElasticPlan::Step* next_due(index_t committed, bool fire_all) {
    committed_ = committed;
    if (next_ == steps_.size() || !(fire_all || due(committed))) return nullptr;
    return &steps_[next_++];
  }

  /// Fire `st` at virtual time `now`. `busy_until` is when the step's rank
  /// finishes its in-flight task (+inf: it takes no more work), `crash_at`
  /// when it crashes. A drain of a crashed, crashing or drained rank is a
  /// no-op (crash recovery owns a dead rank's blocks), and so is an add of
  /// a live or crashed one. A drain below ElasticPlan::min_ranks fails with
  /// kResourceExhausted (load shed).
  Status step(const ElasticPlan::Step& st, double now, double busy_until,
              double crash_at, Migration* m) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    *m = Migration{};
    const auto ri = static_cast<std::size_t>(st.rank);
    if (st.is_add ? alive[ri] || now >= crash_at
                  : !alive[ri] || now >= crash_at || busy_until == kInf) {
      if (o_.trace)
        o_.trace->record_instant(st.rank, now,
                                 st.is_add ? "add: no-op" : "drain: no-op");
      return Status::ok();
    }
    double quiesce = now;
    if (!st.is_add) {
      rank_t live = 0;
      for (char a : alive) live += a ? 1 : 0;
      if (live - 1 < o_.elastic.min_ranks)
        return Status::resource_exhausted(
            "drain of rank " + std::to_string(st.rank) + " at " + clock_ +
            " " + std::to_string(committed_) + " would leave " +
            std::to_string(live - 1) + " live ranks, below min_ranks " +
            std::to_string(o_.elastic.min_ranks) + "; load shed");
      // Quiesce: the rank finishes (and ships) its in-flight task before
      // its state migrates; nothing is interrupted mid-kernel.
      quiesce = std::max(now, busy_until);
    }
    const int delta = st.is_add ? +1 : -1;
    before_ = mapping;
    alive[ri] = st.is_add ? 1 : 0;
    std::vector<nnz_t> moved_pos;
    m->moved = mapping.rebalance(st.rank, delta, alive, &moved_pos);
    if (m->moved < 0)  // only a drain can find no adopter
      return Status::resource_exhausted(
          "drain of rank " + std::to_string(st.rank) +
          " found no live rank to adopt its blocks");
    Status vs = analysis::verify_rebalance(bm_, tasks_, before_, mapping,
                                           st.rank, delta, alive,
                                           o_.verify_level);
    if (!vs.is_ok()) return vs;
    double tmig = 0;
    for (nnz_t pos : moved_pos) {
      const CscT<V>& blk = bm_.block(pos);
      tmig += o_.device.message_time(block_message_bytes(
                  blk.nnz(), blk.n_cols(), sizeof(V))) +
              o_.device.remap_per_block_s;
      if (o_.abft != AbftLevel::kOff) {
        (void)block_checksum(blk);
        res_->abft_audits++;
      }
    }
    m->fired = true;
    m->ready_at = quiesce + tmig;
    (st.is_add ? res_->ranks_added : res_->ranks_drained)++;
    res_->migrated_blocks += m->moved;
    res_->migration_time += (quiesce - now) + tmig;
    return Status::ok();
  }

  /// Whether block `pos` changed owner in the most recent step.
  bool migrated(std::size_t pos) const {
    return before_.owner[pos] != mapping.owner[pos];
  }

  /// The step's instants: "add"/"drain" at `stamp`, "migrate" at ready_at.
  void record(const ElasticPlan::Step& st, double stamp,
              const Migration& m) const {
    if (!o_.trace) return;
    o_.trace->record_instant(st.rank, stamp, st.is_add ? "add" : "drain");
    o_.trace->record_instant(st.rank, m.ready_at, "migrate " +
                                                      std::to_string(m.moved) +
                                                      " blocks");
  }

  /// Live rank `dead` crashed: it leaves the live set and its blocks are
  /// remapped onto the survivors. Counts the crash and the remapped blocks.
  /// kUnavailable when no survivor remains. The re-proof diagnoses a bad
  /// remap instead of letting it surface as a hang: kCheap proves mapping
  /// totality over the survivors, kFull also message conservation.
  Status crash(rank_t dead, nnz_t* moved) {
    alive[static_cast<std::size_t>(dead)] = 0;
    res_->ranks[static_cast<std::size_t>(dead)].crashed = true;
    res_->rank_crashes++;
    *moved = mapping.remap_failed_rank(dead, alive);
    if (*moved < 0)
      return Status::unavailable(
          "rank " + std::to_string(dead) +
          " crashed and no survivor remains: recovery impossible");
    res_->remapped_blocks += *moved;
    if (o_.verify_level == analysis::VerifyLevel::kOff) return Status::ok();
    Status s = analysis::verify_mapping(bm_, mapping, alive);
    if (s.is_ok() && o_.verify_level == analysis::VerifyLevel::kFull)
      s = analysis::verify_messages(bm_, tasks_, mapping, alive);
    return s;
  }
  /// The crash's instants: "crash" at `crashed_at`, the remap at
  /// `recovered_at`.
  void record_crash(rank_t dead, double crashed_at, double recovered_at,
                    nnz_t moved) const {
    if (!o_.trace) return;
    o_.trace->record_instant(dead, crashed_at, "crash");
    o_.trace->record_instant(dead, recovered_at, "recovery: remap " +
                                                     std::to_string(moved) +
                                                     " blocks");
  }

 private:
  const block::BlockMatrixT<V>& bm_;
  const std::vector<block::Task>& tasks_;
  const SimOptions& o_;
  const char* clock_;
  SimResult* res_;
  std::vector<ElasticPlan::Step> steps_;
  std::size_t next_ = 0;
  index_t committed_ = 0;
  block::Mapping before_;
};

}  // namespace pangulu::runtime
