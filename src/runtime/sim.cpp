#include "runtime/sim.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <system_error>
#include <thread>

#include "kernels/getrf.hpp"
#include "kernels/gessm.hpp"
#include "kernels/ssssm.hpp"
#include "kernels/tstrf.hpp"
#include "parallel/annotations.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/cluster.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pangulu::runtime {

namespace {

using block::Mapping;
using block::Task;
using block::TaskAdjacency;
using block::TaskKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Resolved execution plan of one task: which variant runs and what it costs.
struct TaskPlan {
  bool gpu = false;
  kernels::Addressing addr = kernels::Addressing::kDirect;
  int variant = 0;  // index within its family's enum
  double cost = 0;
};

template <class V>
TaskPlan plan_task(const Task& t, const block::BlockMatrixT<V>& bm,
                   const SimOptions& o) {
  TaskPlan p;
  const CscT<V>& target = bm.block(t.target);
  const double nnz_target = static_cast<double>(target.nnz());
  const double dim = static_cast<double>(target.n_rows());

  switch (t.kind) {
    case TaskKind::kGetrf: {
      kernels::GetrfVariant v;
      if (o.policy == KernelPolicy::kFixedCpu)
        v = kernels::GetrfVariant::kCV1;
      else if (o.policy == KernelPolicy::kFixedGpu)
        v = kernels::GetrfVariant::kGV1;
      else
        v = kernels::select_getrf(target.nnz(), o.thresholds);
      p.variant = static_cast<int>(v);
      p.gpu = kernels::is_gpu_variant(v);
      p.addr = kernels::addressing_of(v);
      p.cost = o.device.sparse_kernel_time(p.gpu, p.addr, t.weight,
                                           nnz_target, dim);
      break;
    }
    case TaskKind::kGessm:
    case TaskKind::kTstrf: {
      const CscT<V>& diag = bm.block(t.src_a);
      kernels::PanelVariant v;
      if (o.policy == KernelPolicy::kFixedCpu)
        v = kernels::PanelVariant::kCV1;
      else if (o.policy == KernelPolicy::kFixedGpu)
        v = kernels::PanelVariant::kGV1;
      else
        v = t.kind == TaskKind::kGessm
                ? kernels::select_gessm(target.nnz(), diag.nnz(), o.thresholds)
                : kernels::select_tstrf(target.nnz(), diag.nnz(), o.thresholds);
      p.variant = static_cast<int>(v);
      p.gpu = kernels::is_gpu_variant(v);
      p.addr = kernels::addressing_of(v);
      p.cost = o.device.sparse_kernel_time(
          p.gpu, p.addr, t.weight,
          nnz_target + static_cast<double>(diag.nnz()), dim);
      break;
    }
    case TaskKind::kSsssm: {
      kernels::SsssmVariant v;
      if (o.policy == KernelPolicy::kFixedCpu)
        v = kernels::SsssmVariant::kCV2;
      else if (o.policy == KernelPolicy::kFixedGpu)
        v = kernels::SsssmVariant::kGV1;
      else
        v = kernels::select_ssssm(t.weight, o.thresholds);
      p.variant = static_cast<int>(v);
      p.gpu = kernels::is_gpu_variant(v);
      p.addr = kernels::addressing_of(v);
      const double nnz_all = nnz_target +
                             static_cast<double>(bm.block(t.src_a).nnz()) +
                             static_cast<double>(bm.block(t.src_b).nnz());
      p.cost = o.device.sparse_kernel_time(p.gpu, p.addr, t.weight, nnz_all,
                                           dim);
      break;
    }
  }
  return p;
}

constexpr int kCV1 = 0;  // C_V1's index in every family's variant enum
static_assert(static_cast<int>(kernels::GetrfVariant::kCV1) == kCV1 &&
              static_cast<int>(kernels::PanelVariant::kCV1) == kCV1 &&
              static_cast<int>(kernels::SsssmVariant::kCV1) == kCV1);

/// Execute the task's numerics on the host with `variant` of its family;
/// the parallel variants run on their default pool (see kernels/).
template <class V>
Status run_numerics(const Task& t, int variant, block::BlockMatrixT<V>& bm,
                    kernels::Workspace& ws, kernels::PivotStats* pivots,
                    kernels::tolerance_t pivot_tol) {
  switch (t.kind) {
    case TaskKind::kGetrf: {
      kernels::GetrfOptions go;
      go.pivot_tol = pivot_tol;
      return kernels::getrf(static_cast<kernels::GetrfVariant>(variant),
                            bm.block(t.target), ws, pivots, go);
    }
    case TaskKind::kGessm:
      return kernels::gessm(static_cast<kernels::PanelVariant>(variant),
                            bm.block(t.src_a), bm.block(t.target), ws);
    case TaskKind::kTstrf:
      return kernels::tstrf(static_cast<kernels::PanelVariant>(variant),
                            bm.block(t.src_a), bm.block(t.target), ws);
    case TaskKind::kSsssm:
      return kernels::ssssm(static_cast<kernels::SsssmVariant>(variant),
                            bm.block(t.src_a), bm.block(t.src_b),
                            bm.block(t.target), ws);
  }
  return Status::internal("run_numerics: unhandled TaskKind " +
                          to_string(t.kind));
}

/// Runtime fault state shared by both schedulers: per-rank crash clocks plus
/// the seeded per-message RNG of the drop/duplicate/reorder draws. Draws are
/// consumed in DES event order, which is itself deterministic for a given
/// plan, so every run of the same plan sees the same faults.
struct FaultCtx {
  const FaultPlan& plan;
  const DeviceModel& dev;
  std::vector<double> crash_at;  // +inf: never crashes
  Rng rng;

  FaultCtx(const FaultPlan& p, const DeviceModel& d, rank_t n_ranks)
      : plan(p), dev(d),
        crash_at(static_cast<std::size_t>(n_ranks), kInf),
        rng(p.seed ^ 0xfa017c0de5eedULL) {
    for (const FaultPlan::Crash& c : p.crashes) {
      auto& t = crash_at[static_cast<std::size_t>(c.rank)];
      t = std::min(t, c.at_s);
    }
  }

  /// Compound straggler factor of rank r at virtual time t.
  double speed_factor(rank_t r, double t) const {
    double f = 1;
    for (const FaultPlan::Slowdown& s : plan.slowdowns)
      if (s.rank == r && t >= s.from_s) f *= s.factor;
    return f;
  }

  /// Earliest time >= t at which rank r is not frozen by a transient stall.
  double stall_release(rank_t r, double t) const {
    bool moved = true;
    while (moved) {
      moved = false;
      for (const FaultPlan::Stall& s : plan.stalls) {
        if (s.rank == r && t >= s.at_s && t < s.at_s + s.duration_s) {
          t = s.at_s + s.duration_s;
          moved = true;
        }
      }
    }
    return t;
  }

  /// One reliable block transfer under the ack/timeout/retransmit protocol.
  struct Transfer {
    double deliver = 0;  // when the first successful copy lands
    double penalty = 0;  // deliver minus the fault-free delivery time
    int sends = 1;       // physical sends (retransmits = sends - 1)
    int timeouts = 0;    // ack timers that fired
    int duplicates = 0;  // extra copies the receiver must suppress
    bool ok = true;      // false: max_attempts exhausted, link unusable
  };

  Transfer transfer(double send_time, std::size_t bytes) {
    Transfer tr;
    const double base = dev.message_time(bytes);
    tr.deliver = send_time + base;
    if (!plan.has_message_faults() || send_time < plan.window_begin_s ||
        send_time >= plan.window_end_s)
      return tr;
    double t = send_time;
    double timeout = dev.ack_timeout(bytes);
    tr.sends = 0;
    for (int attempt = 0; attempt < plan.max_attempts; ++attempt) {
      tr.sends++;
      if (!rng.bernoulli(plan.drop_prob)) {
        double delay = base;
        if (plan.reorder_prob > 0 && rng.bernoulli(plan.reorder_prob))
          delay += rng.uniform(0.0, plan.reorder_max_delay_s);
        if (plan.dup_prob > 0 && rng.bernoulli(plan.dup_prob))
          tr.duplicates++;
        tr.deliver = t + delay;
        tr.penalty = tr.deliver - (send_time + base);
        return tr;
      }
      // Attempt lost: the ack timer fires and the sender retransmits with
      // exponential backoff.
      tr.timeouts++;
      t += timeout;
      timeout *= 2;
    }
    tr.ok = false;
    return tr;
  }

  /// transfer() of one `bytes` block from rank `from` to rank `to`, billed
  /// when it got through (see lost() when not): sends, bytes, retransmits
  /// and timeouts to the sender, suppressed duplicates to the receiver, the
  /// fault delay to recovery time.
  Transfer send(rank_t from, rank_t to, double at, std::size_t bytes,
                TraceRecorder* trace, SimResult* res) {
    const Transfer tr = transfer(at, bytes);
    if (!tr.ok) return tr;
    RankStats& rs = res->ranks[static_cast<std::size_t>(from)];
    rs.messages_sent += tr.sends;
    rs.bytes_sent += static_cast<std::size_t>(tr.sends) * bytes;
    rs.retransmits += tr.sends - 1;
    rs.timeouts += tr.timeouts;
    res->ranks[static_cast<std::size_t>(to)].duplicates_suppressed +=
        tr.duplicates;
    res->recovery_time += tr.penalty;
    if (trace && tr.sends > 1)
      trace->record_instant(from, at,
                            "retransmit x" + std::to_string(tr.sends - 1));
    return tr;
  }

  /// The failure of a send() that lost max_attempts sends in a row.
  Status lost(rank_t from, rank_t to) const {
    return Status::unavailable(
        "block transfer from rank " + std::to_string(from) + " to rank " +
        std::to_string(to) + " lost " + std::to_string(plan.max_attempts) +
        " consecutive times; giving up");
  }
};

/// Bill one executed task's compute to its kernel family.
void bill_task(const Task& task, double cost, SimResult* res) {
  (task.kind == TaskKind::kSsssm ? res->schur_busy : res->panel_busy) += cost;
  res->kind_busy[static_cast<int>(task.kind)] += cost;
  res->kind_count[static_cast<int>(task.kind)]++;
  res->total_flops += task.weight;
}

/// Marker task ids for the fault and elastic events (kWakeEvent is -1).
constexpr index_t kRecoveryEvent = -2;
constexpr index_t kElasticEvent = -3;

}  // namespace

std::vector<analysis::ModelOptions::ElasticEvent> flatten_elastic(
    const ElasticPlan& plan) {
  std::vector<analysis::ModelOptions::ElasticEvent> out;
  for (const ElasticPlan::Step& s : plan.steps())
    out.push_back({s.rank, s.at_commit, s.is_add});
  return out;
}

namespace {

template <class V>
Status run_sync_free(const block::BlockMatrixT<V>& bm,
                     const std::vector<Task>& tasks, const TaskAdjacency& g,
                     const Mapping& mapping_in, const SimOptions& o,
                     const std::vector<TaskPlan>& plans, SimResult* res) {
  const auto nt = static_cast<index_t>(tasks.size());
  FaultCtx faults(o.faults, o.device, o.n_ranks);
  // Recovery and elastic rebalancing rewrite ownership on the cluster's own
  // copy of the mapping.
  LiveCluster<V> cluster(bm, tasks, mapping_in, o, "commit", res);
  Status ps = cluster.provision();
  if (!ps.is_ok()) return ps;
  res->ranks.assign(static_cast<std::size_t>(o.n_ranks), RankStats{});
  std::vector<rank_t> owner(static_cast<std::size_t>(nt));
  std::vector<char> done(static_cast<std::size_t>(nt), 0);
  // Owners are read at event-pop time, so rewriting them re-routes every
  // task that has not run yet.
  auto refresh_owners = [&] {
    for (index_t t = 0; t < nt; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (!done[ti])
        owner[ti] = cluster.mapping.owner[static_cast<std::size_t>(
            tasks[ti].target)];
    }
  };
  refresh_owners();

  // Priority inside a rank: lowest elimination step first ("the most
  // critical of the tasks", §4.4), then enumeration order.
  auto priority_less = [&](index_t a, index_t b) {
    const Task& ta = tasks[static_cast<std::size_t>(a)];
    const Task& tb = tasks[static_cast<std::size_t>(b)];
    if (ta.k != tb.k) return ta.k > tb.k;  // min-heap via greater
    return a > b;
  };
  std::vector<std::priority_queue<index_t, std::vector<index_t>,
                                  decltype(priority_less)>>
      ready;
  ready.reserve(static_cast<std::size_t>(o.n_ranks));
  for (rank_t r = 0; r < o.n_ranks; ++r) ready.emplace_back(priority_less);

  std::vector<index_t> dep = g.dep;  // counted down as dependencies break
  std::vector<double> busy_until(static_cast<std::size_t>(o.n_ranks), 0.0);
  std::vector<double> ready_time(static_cast<std::size_t>(nt), 0.0);

  DesEvents events;
  index_t seq = 0;
  for (index_t t = 0; t < nt; ++t) {
    if (dep[static_cast<std::size_t>(t)] == 0)
      events.push({0.0, seq++, t, 0});
  }
  // A dead rank is noticed when its heartbeats stop: schedule the recovery
  // sweep one detection window after each planned crash.
  for (const FaultPlan::Crash& c : o.faults.crashes)
    events.push({c.at_s + o.device.crash_detect_s, seq++, kRecoveryEvent,
                 c.rank});

  double makespan = 0;
  index_t completed = 0;

  // Start the highest-priority queued task of rank r at time `now` (the rank
  // is known to be free). Completion bookkeeping is eager: the dependents'
  // ready times (including message arrival) are computed immediately, and a
  // wake event lets the rank pick its next task when this one finishes.
  auto start_one = [&](rank_t r, double now) -> Status {
    auto& q = ready[static_cast<std::size_t>(r)];
    if (q.empty()) return Status::ok();
    auto& rs = res->ranks[static_cast<std::size_t>(r)];

    // Transient stall: the rank is frozen; try again when it thaws.
    const double thaw = faults.stall_release(r, now);
    if (thaw > now) {
      rs.stall_s += thaw - now;
      res->recovery_time += thaw - now;
      busy_until[static_cast<std::size_t>(r)] = thaw;
      events.push({thaw, seq++, kWakeEvent, r});
      if (o.trace) o.trace->record_instant(r, now, "stall");
      return Status::ok();
    }

    index_t t = q.top();
    const Task& task = tasks[static_cast<std::size_t>(t)];
    const TaskPlan& p = plans[static_cast<std::size_t>(t)];
    const double cost = p.cost * faults.speed_factor(r, now);

    // Release dependents; remote ones pay one message per destination rank.
    // Posting a send also occupies the sender briefly (pack + NIC doorbell),
    // which is what throttles very fine-grained block traffic at high rank
    // counts — the communication-bound regime §5.3 reports at 128 GPUs.
    const CscT<V>& produced = bm.block(task.target);
    const std::size_t msg_bytes =
        block_message_bytes(produced.nnz(), produced.n_cols(), sizeof(V));
    std::vector<rank_t> sent_to;
    for (nnz_t e = g.out_ptr[static_cast<std::size_t>(t)];
         e < g.out_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
      const index_t d = g.out_adj[static_cast<std::size_t>(e)];
      const rank_t dr = owner[static_cast<std::size_t>(d)];
      if (dr != r &&
          std::find(sent_to.begin(), sent_to.end(), dr) == sent_to.end())
        sent_to.push_back(dr);
    }
    const double send_overhead =
        static_cast<double>(sent_to.size()) * 0.5 * o.device.net_latency_s;

    const double fin = now + cost + send_overhead;
    const double crash_at = faults.crash_at[static_cast<std::size_t>(r)];
    if (fin > crash_at) {
      // The rank dies mid-task: the work is lost, the task stays queued for
      // the recovery sweep to re-dispatch, and the rank takes no more work.
      busy_until[static_cast<std::size_t>(r)] = kInf;
      return Status::ok();
    }
    q.pop();
    busy_until[static_cast<std::size_t>(r)] = fin;
    makespan = std::max(makespan, fin);
    if (o.trace)
      o.trace->record({t, task.kind, task.k, task.bi, task.bj, r, now, fin});
    rs.busy += cost + send_overhead;
    bill_task(task, cost, res);
    done[static_cast<std::size_t>(t)] = 1;
    ++completed;
    // This commit is a task-graph safe point: fire due elastic events when
    // the task finishes (the marker carries the virtual time of the commit).
    if (cluster.due(completed))
      events.push({fin, seq++, kElasticEvent, r});

    // One physical transfer per destination rank; every dependent on that
    // rank shares the delivered block. Retransmits bill the sender, the
    // receiver absorbs (and suppresses) duplicates so its sync-free counter
    // still decrements exactly once per logical message.
    std::vector<double> deliver_at(sent_to.size());
    for (std::size_t i = 0; i < sent_to.size(); ++i) {
      const FaultCtx::Transfer tr =
          faults.send(r, sent_to[i], fin, msg_bytes, o.trace, res);
      if (!tr.ok) return faults.lost(r, sent_to[i]);
      deliver_at[i] = tr.deliver;
    }

    for (nnz_t e = g.out_ptr[static_cast<std::size_t>(t)];
         e < g.out_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
      const index_t d = g.out_adj[static_cast<std::size_t>(e)];
      const rank_t dr = owner[static_cast<std::size_t>(d)];
      double arrive = fin;
      if (dr != r) {
        const auto it = std::find(sent_to.begin(), sent_to.end(), dr);
        arrive = deliver_at[static_cast<std::size_t>(
            std::distance(sent_to.begin(), it))];
      }
      auto& rd = ready_time[static_cast<std::size_t>(d)];
      rd = std::max(rd, arrive);
      if (--dep[static_cast<std::size_t>(d)] == 0)
        events.push({rd, seq++, d, 0});
    }
    events.push({fin, seq++, kWakeEvent, r});  // wake: pick the next task
    return Status::ok();
  };

  // Crash recovery: the survivors adopt the dead rank's blocks, every
  // unfinished task is re-pointed at its new owner, and whatever was
  // stranded in the dead rank's queue is re-dispatched.
  auto recover = [&](rank_t dead, double now) -> Status {
    if (!cluster.alive[static_cast<std::size_t>(dead)]) return Status::ok();
    if (completed == nt) {  // died after the work finished
      cluster.alive[static_cast<std::size_t>(dead)] = 0;
      return Status::ok();
    }
    nnz_t moved = 0;
    Status cs = cluster.crash(dead, &moved);
    if (!cs.is_ok()) return cs;
    refresh_owners();
    // Survivors must adopt the orphaned blocks before touching them.
    const double ready_at =
        now + static_cast<double>(moved) * o.device.remap_per_block_s;
    const double crashed_at = faults.crash_at[static_cast<std::size_t>(dead)];
    res->recovery_time += ready_at - crashed_at;
    res->recovered_tasks +=
        static_cast<std::int64_t>(ready[static_cast<std::size_t>(dead)].size());
    requeue(ready[static_cast<std::size_t>(dead)], events, seq,
            [&](index_t t) {
              return std::max(ready_at,
                              ready_time[static_cast<std::size_t>(t)]);
            });
    cluster.record_crash(dead, crashed_at, now, moved);
    return Status::ok();
  };

  // Planned capacity changes at commit safe points (runtime/cluster.hpp).
  // Here a drain waits out the rank's in-flight task and parks it; an add
  // wakes the newcomer once its blocks have landed. Queued work is
  // re-routed: a task whose target migrated becomes runnable once the
  // migrated state has arrived. Crash interleavings are no-ops for the
  // second event.
  auto reshape = [&](double now, bool fire_all) -> Status {
    while (const ElasticPlan::Step* st =
               cluster.next_due(completed, fire_all)) {
      const auto ri = static_cast<std::size_t>(st->rank);
      Migration m;
      Status s =
          cluster.step(*st, now, busy_until[ri], faults.crash_at[ri], &m);
      if (!s.is_ok()) return s;
      if (!m.fired) continue;
      refresh_owners();
      if (st->is_add) {
        busy_until[ri] = m.ready_at;
        events.push({m.ready_at, seq++, kWakeEvent, st->rank});
      } else {
        busy_until[ri] = kInf;  // the drained rank takes no more work
      }
      for (auto& q : ready)
        requeue(q, events, seq, [&](index_t t) {
          const bool moved = cluster.migrated(static_cast<std::size_t>(
              tasks[static_cast<std::size_t>(t)].target));
          return std::max(moved ? m.ready_at : now,
                          ready_time[static_cast<std::size_t>(t)]);
        });
      makespan = std::max(makespan, m.ready_at);
      cluster.record(*st, now, m);
    }
    return Status::ok();
  };

  // Commit 0 is itself a safe point (events scheduled before any task).
  Status es = reshape(0.0, false);
  if (!es.is_ok()) return es;

  while (!events.empty()) {
    DesEvent ev = events.top();
    events.pop();
    // Virtual-deadline poll: the DES clock has provably reached ev.time, so
    // a deadline behind it can never be met and the run sheds here.
    if (o.cancel) {
      Status s = o.cancel->check_virtual(ev.time, "sync-free event loop");
      if (!s.is_ok()) return s;
    }
    if (ev.task == kRecoveryEvent) {
      Status s = recover(ev.rank, ev.time);
      if (!s.is_ok()) return s;
      continue;
    }
    if (ev.task == kElasticEvent) {
      Status s = reshape(ev.time, false);
      if (!s.is_ok()) return s;
      continue;
    }
    rank_t r;
    if (ev.task >= 0) {
      r = owner[static_cast<std::size_t>(ev.task)];
      ready[static_cast<std::size_t>(r)].push(ev.task);
    } else {
      r = ev.rank;
    }
    // Events landing on a dead (or dying) rank park in its queue until the
    // recovery sweep drains them to the survivors.
    if (ev.time >= faults.crash_at[static_cast<std::size_t>(r)]) continue;
    if (busy_until[static_cast<std::size_t>(r)] > ev.time + 1e-30)
      continue;  // rank busy; its completion wake will drain the queue
    Status s = start_one(r, ev.time);
    if (!s.is_ok()) return s;
  }
  if (completed != nt) {
    if (!o.faults.empty())
      return Status::unavailable(
          "fault plan left " + std::to_string(nt - completed) +
          " tasks unrunnable");
    PANGULU_CHECK(completed == nt, "sync-free DES deadlocked");
  }
  // Elastic events scheduled past the final commit still fire (the cluster
  // reshapes after the factorisation drains), at the end of the schedule.
  Status esf = reshape(makespan, true);
  if (!esf.is_ok()) return esf;
  finish_run(makespan, /*idle_is_gap=*/true, res);
  return Status::ok();
}

template <class V>
Status run_level_set(const block::BlockMatrixT<V>& bm,
                     const std::vector<Task>& tasks,
                     const Mapping& mapping_in, const SimOptions& o,
                     const std::vector<TaskPlan>& plans, SimResult* res) {
  res->ranks.assign(static_cast<std::size_t>(o.n_ranks), RankStats{});
  FaultCtx faults(o.faults, o.device, o.n_ranks);
  // The static per-task owner lookup reads the cluster's working mapping,
  // so every reshape routes the remaining work by itself.
  LiveCluster<V> cluster(bm, tasks, mapping_in, o, "commit", res);
  Status ps = cluster.provision();
  if (!ps.is_ok()) return ps;
  const Mapping& mapping = cluster.mapping;
  std::vector<char> crash_handled(o.faults.crashes.size(), 0);
  std::vector<char> stall_applied(o.faults.stalls.size(), 0);

  // Tasks arrive ordered by k; within a slice, phases are
  // GETRF -> {GESSM,TSTRF} -> SSSSM with a barrier after each phase.
  double now = 0;
  std::vector<double> phase_busy(static_cast<std::size_t>(o.n_ranks));
  std::size_t ti = 0;
  const index_t nb = bm.nb();

  // Bulk-synchronous recovery: a crash is noticed at the barrier following
  // it, and the survivors pay the detection window plus the re-mapping work.
  auto handle_crashes = [&]() -> Status {
    for (std::size_t c = 0; c < o.faults.crashes.size(); ++c) {
      const FaultPlan::Crash& cr = o.faults.crashes[c];
      if (crash_handled[c] || cr.at_s > now) continue;
      crash_handled[c] = 1;
      if (!cluster.alive[static_cast<std::size_t>(cr.rank)]) continue;
      nnz_t moved = 0;
      Status cs = cluster.crash(cr.rank, &moved);
      if (!cs.is_ok()) return cs;
      const double pause = o.device.crash_detect_s +
                           static_cast<double>(moved) * o.device.remap_per_block_s;
      now += pause;
      res->recovery_time += pause;
      cluster.record_crash(cr.rank, cr.at_s, now, moved);
    }
    return Status::ok();
  };

  // Planned capacity changes (runtime/cluster.hpp). Every slice boundary is
  // a safe point with all ranks quiesced at the barrier, so a step due at
  // commit c fires at the first boundary where ti >= c and its migration is
  // charged to the global clock; both instants carry the clock after it.
  auto reshape = [&](bool fire_all) -> Status {
    const auto committed = static_cast<index_t>(ti);
    while (const ElasticPlan::Step* st =
               cluster.next_due(committed, fire_all)) {
      const auto ri = static_cast<std::size_t>(st->rank);
      Migration m;
      Status s = cluster.step(*st, now, now, faults.crash_at[ri], &m);
      if (!s.is_ok()) return s;
      if (!m.fired) continue;
      now = m.ready_at;
      cluster.record(*st, now, m);
    }
    return Status::ok();
  };

  for (index_t k = 0; k < nb && ti < tasks.size(); ++k) {
    // Virtual-deadline poll at the slice barrier: every rank is quiesced
    // here, so shedding leaves no phase half-scheduled.
    if (o.cancel) {
      Status cps = o.cancel->check_virtual(
          now, ("level-set slice " + std::to_string(k)).c_str());
      if (!cps.is_ok()) return cps;
    }
    Status cs = handle_crashes();
    if (!cs.is_ok()) return cs;
    cs = reshape(false);
    if (!cs.is_ok()) return cs;
    for (int phase = 0; phase < 3; ++phase) {
      std::fill(phase_busy.begin(), phase_busy.end(), 0.0);
      // A transient stall freezes its rank for the phase in which it fires;
      // under bulk-synchronous barriers everyone then waits it out.
      for (std::size_t si = 0; si < o.faults.stalls.size(); ++si) {
        const FaultPlan::Stall& st = o.faults.stalls[si];
        if (stall_applied[si] || st.at_s > now ||
            !cluster.alive[static_cast<std::size_t>(st.rank)])
          continue;
        stall_applied[si] = 1;
        phase_busy[static_cast<std::size_t>(st.rank)] += st.duration_s;
        res->ranks[static_cast<std::size_t>(st.rank)].stall_s += st.duration_s;
        res->recovery_time += st.duration_s;
        if (o.trace) o.trace->record_instant(st.rank, now, "stall");
      }
      std::size_t begin = ti;
      while (ti < tasks.size() && tasks[ti].k == k) {
        const TaskKind kind = tasks[ti].kind;
        const int task_phase = kind == TaskKind::kGetrf ? 0
                               : kind == TaskKind::kSsssm ? 2
                                                          : 1;
        if (task_phase != phase) break;
        const Task& task = tasks[ti];
        const rank_t r =
            mapping.owner[static_cast<std::size_t>(task.target)];
        const double cost =
            plans[ti].cost * faults.speed_factor(r, now);
        // Remote sources must be fetched at phase start: one message per
        // distinct remote source block (panel: diag; SSSSM: both solves),
        // each riding the ack/retransmit protocol.
        double comm = 0;
        for (nnz_t src : {task.src_a, task.kind == TaskKind::kSsssm
                                          ? task.src_b
                                          : nnz_t{-1}}) {
          if (src < 0) continue;
          const rank_t sr = mapping.owner[static_cast<std::size_t>(src)];
          if (sr == r) continue;
          const CscT<V>& blk = bm.block(src);
          const std::size_t bytes =
              block_message_bytes(blk.nnz(), blk.n_cols(), sizeof(V));
          const FaultCtx::Transfer tr =
              faults.send(sr, r, now, bytes, o.trace, res);
          if (!tr.ok) return faults.lost(sr, r);
          comm += o.device.message_time(bytes) + tr.penalty;
        }

        if (o.trace) {
          const double start =
              now + phase_busy[static_cast<std::size_t>(r)] + comm;
          o.trace->record({static_cast<index_t>(ti), task.kind, task.k,
                           task.bi, task.bj, r, start, start + cost});
        }
        phase_busy[static_cast<std::size_t>(r)] += cost + comm;
        res->ranks[static_cast<std::size_t>(r)].busy += cost;
        bill_task(task, cost, res);
        ++ti;
      }
      if (ti == begin && phase != 0) continue;  // empty phase: no barrier
      double phase_max = 0;
      for (double b : phase_busy) phase_max = std::max(phase_max, b);
      // Barrier: everyone waits for the slowest rank.
      for (rank_t r = 0; r < o.n_ranks; ++r) {
        res->ranks[static_cast<std::size_t>(r)].idle +=
            phase_max - phase_busy[static_cast<std::size_t>(r)];
      }
      now += phase_max + o.device.barrier_time(o.n_ranks);
    }
  }
  PANGULU_CHECK(ti == tasks.size(), "level-set missed tasks");
  // A crash that raced the final slices is still detected and re-mapped
  // (the survivors restore the block distribution after the last barrier),
  // and elastic events scheduled past the final commit still fire.
  Status cs = handle_crashes();
  if (!cs.is_ok()) return cs;
  cs = reshape(true);
  if (!cs.is_ok()) return cs;
  // Idle time already includes the barrier overhead.
  finish_run(now, /*idle_is_gap=*/false, res);
  return Status::ok();
}

/// Flip one bit of a stored value at its native width; bit indices past the
/// FP32 word wrap so FP64-era fault plans stay usable.
template <class V>
void flip_bit(block::BlockMatrixT<V>& bm, const FaultPlan::BitFlip& f) {
  if (f.block_pos >= static_cast<nnz_t>(bm.n_blocks())) return;
  auto vals = bm.block(f.block_pos).values_mut();
  if (f.value_index >= static_cast<nnz_t>(vals.size())) return;
  V& v = vals[static_cast<std::size_t>(f.value_index)];
  if constexpr (sizeof(V) == 4) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= std::uint32_t(1) << (f.bit % 32);
    std::memcpy(&v, &bits, sizeof bits);
  } else {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= std::uint64_t(1) << f.bit;
    std::memcpy(&v, &bits, sizeof bits);
  }
}

/// The numeric engine (DESIGN.md §8): executes canonical tasks
/// [resume_from_task, nt) on the calling thread plus `workers - 1` spawned
/// ones, sharing one ready queue ordered by bottom level (the longest
/// Task::weight path to the sink, ties to the lower canonical index).
///
/// Executed vs modelled kernel (DESIGN.md §8): plan_task's variant sets the
/// DES cost, and one worker runs it. Several workers run each family's
/// serial C_V1: the parallelism is between tasks, and a G_ variant confined
/// to one thread is a slower serial copy.
///
/// Determinism: the dependency graph is TaskAdjacency plus one chain edge
/// from each SSSSM to the next SSSSM on the same target, in canonical order.
/// Every block therefore sees exactly its canonical sequence of kernels,
/// and every variant writes its family's C_V1 bytes (see
/// kernel_equivalence_test), so the factors are bitwise those of a
/// one-task-at-a-time canonical run at any worker count.
///
/// Dispatch fences: only tasks with a canonical index below `fence_` are
/// dispatched. Canonical order is topological, so that prefix always
/// drains; with nothing in flight the fence hooks run (ABFT after/before,
/// bit flips, the checkpoint sink, the simulated kill) and the fence moves
/// on. Hooks therefore observe exactly the state of a canonical prefix.
template <class V>
class NumericEngine {
 public:
  NumericEngine(block::BlockMatrixT<V>& bm, const std::vector<Task>& tasks,
                const TaskAdjacency& adj, const std::vector<TaskPlan>& plans,
                const SimOptions& o, AbftGuardT<V>* guard, SimResult* result)
      : bm_(bm), tasks_(tasks), adj_(adj), plans_(plans), o_(o),
        nt_(static_cast<index_t>(tasks.size())),
        first_(o.resume_from_task), guard_(guard), result_(result),
        ready_(ReadyOrder{&bottom_level_}) {
    // ABFT audits keep their serial semantics: one task per fence, so one
    // worker, which runs the planned variants on the kernels' pool. No more
    // workers than tasks to run.
    const index_t want =
        o.numeric_threads > 0
            ? o.numeric_threads
            : static_cast<index_t>(ThreadPool::global().size());
    workers_ = guard ? 1
                     : static_cast<int>(std::max<index_t>(
                           1, std::min(want, nt_ - first_)));
    flips_ = o.faults.bitflips;
    std::stable_sort(flips_.begin(), flips_.end(),
                     [](const FaultPlan::BitFlip& a,
                        const FaultPlan::BitFlip& b) {
                       return a.after_task < b.after_task;
                     });
    // Flips at indices before the resume point already happened in the
    // killed run.
    while (next_flip_ < flips_.size() &&
           flips_[next_flip_].after_task < first_)
      ++next_flip_;
  }

  NumericEngine(const NumericEngine&) = delete;
  NumericEngine& operator=(const NumericEngine&) = delete;

  Status run() {
    build_graph();
    std::vector<std::thread> crew;
    try {
      for (int w = 1; w < workers_; ++w)
        crew.emplace_back([this] { guarded_work(); });
    } catch (const std::system_error&) {
      // Fewer workers only cost speed: the bits do not depend on the count.
    }
    guarded_work();
    for (std::thread& th : crew) th.join();
    MutexLock lk(mu_);
    result_->perturbed_pivots = perturbed_;
    // A halt (cancel or failed hook) wins over a kernel failure; a kernel
    // failure is the lowest canonical index that failed, as a canonical run
    // would have reported it.
    const Failure& f = halted_ ? halt_ : kernel_failure_;
    if (f.exc) std::rethrow_exception(f.exc);
    return f.status;
  }

 private:
  struct Failure {
    Status status = Status::ok();
    std::exception_ptr exc;
  };
  /// Max-heap order: larger bottom level first, then lower canonical index.
  struct ReadyOrder {
    const std::vector<double>* bl;
    bool operator()(index_t a, index_t b) const {
      const double la = (*bl)[static_cast<std::size_t>(a)];
      const double lb = (*bl)[static_cast<std::size_t>(b)];
      return la != lb ? la < lb : a > b;
    }
  };

  /// Prerequisite counts with the per-target SSSSM chain, the bottom-level
  /// keys, and the initial ready set (tasks before the resume point count
  /// as committed). Runs before any worker starts.
  void build_graph() PANGULU_NO_THREAD_SAFETY_ANALYSIS {
    std::vector<index_t> dep = adj_.dep;
    chain_next_.assign(static_cast<std::size_t>(nt_), -1);
    std::vector<index_t> last(static_cast<std::size_t>(bm_.n_blocks()), -1);
    for (index_t t = 0; t < nt_; ++t) {
      const Task& task = tasks_[static_cast<std::size_t>(t)];
      if (task.kind != TaskKind::kSsssm) continue;
      index_t& prev = last[static_cast<std::size_t>(task.target)];
      if (prev >= 0) {
        chain_next_[static_cast<std::size_t>(prev)] = t;
        ++dep[static_cast<std::size_t>(t)];
      }
      prev = t;
    }
    bottom_level_.assign(static_cast<std::size_t>(nt_), 0.0);
    for (index_t t = nt_ - 1; t >= 0; --t) {
      double tail = 0;
      for_each_successor(t, [&](index_t d) {
        tail = std::max(tail, bottom_level_[static_cast<std::size_t>(d)]);
      });
      bottom_level_[static_cast<std::size_t>(t)] =
          tasks_[static_cast<std::size_t>(t)].weight + tail;
    }
    for (index_t t = 0; t < first_; ++t)
      for_each_successor(
          t, [&](index_t d) { --dep[static_cast<std::size_t>(d)]; });
    for (index_t t = first_; t < nt_; ++t)
      if (dep[static_cast<std::size_t>(t)] == 0) parked_.push(t);
    dep_ = std::move(dep);
    fence_ = committed_ = first_;
    limit_ = nt_;
  }

  template <class F>
  void for_each_successor(index_t t, F&& f) const {
    for (nnz_t e = adj_.out_ptr[static_cast<std::size_t>(t)];
         e < adj_.out_ptr[static_cast<std::size_t>(t) + 1]; ++e)
      f(adj_.out_adj[static_cast<std::size_t>(e)]);
    const index_t c = chain_next_[static_cast<std::size_t>(t)];
    if (c >= 0) f(c);
  }

  /// A worker's entry point: an exception outside the kernel (which work()
  /// catches per task) halts the run and is rethrown by run().
  void guarded_work() {
    try {
      work();
    } catch (...) {
      MutexLock lk(mu_);
      halt({Status::ok(), std::current_exception()});
      finish();
    }
  }

  /// One worker: commit the previous task and take the next under one lock
  /// acquisition, run the kernel outside it.
  void work() {
    kernels::Workspace ws;
    kernels::PivotStats pivots;
    index_t t = -1;
    Failure ran;
    for (;;) {
      {
        MutexLock lk(mu_);
        if (t >= 0) commit(t, std::move(ran));
        t = next_task(lk);
        if (t < 0) {
          perturbed_ += pivots.perturbed;
          return;
        }
      }
      ran = Failure{};
      try {
        const int variant =
            workers_ > 1 ? kCV1 : plans_[static_cast<std::size_t>(t)].variant;
        ran.status = run_numerics(tasks_[static_cast<std::size_t>(t)], variant,
                                  bm_, ws, &pivots, o_.pivot_tol);
      } catch (...) {
        ran.exc = std::current_exception();
      }
    }
  }

  void commit(index_t t, Failure ran) PANGULU_REQUIRES(mu_) {
    --in_flight_;
    if (!ran.status.is_ok() || ran.exc) {
      // Stop dispatching at and past t, but drain the tasks below it: the
      // lowest failure is then the one a canonical run hits first.
      if (t < limit_) {
        limit_ = t;
        kernel_failure_ = std::move(ran);
      }
      return;
    }
    ++committed_;
    for_each_successor(t, [&](index_t d) {
      mu_.assert_held();  // the analysis checks lambda bodies in isolation
      if (--dep_[static_cast<std::size_t>(d)] != 0) return;
      if (d < fence_) {
        ready_.push(d);
        if (idle_ > 0) cv_.notify_one();
      } else {
        parked_.push(d);
      }
    });
  }

  /// The next task to run, or -1 once the engine is finished.
  index_t next_task(MutexLock& lk) PANGULU_REQUIRES(mu_) {
    for (;;) {
      if (finished_) return -1;
      if (!halted_ && limit_ == nt_ && committed_ == fence_) {
        at_fence();
        continue;
      }
      if (!ready_.empty()) {
        const index_t t = ready_.top();
        ready_.pop();
        if (halted_ || t >= limit_) continue;  // dropped: the run is failing
        if (o_.cancel) {
          Status s = o_.cancel->check(
              ("numeric engine dispatch of canonical task " +
               std::to_string(t))
                  .c_str());
          if (!s.is_ok()) {
            halt({std::move(s), nullptr});
            continue;
          }
        }
        ++in_flight_;
        return t;
      }
      if (in_flight_ == 0) {
        // Nothing running and nothing dispatchable below the fence: only a
        // failing run may end here.
        if (!halted_ && limit_ == nt_)
          halt({Status::internal("numeric engine stalled at " +
                                 std::to_string(committed_) + " of " +
                                 std::to_string(nt_) + " tasks"),
                nullptr});
        finish();
        continue;
      }
      ++idle_;
      cv_.wait(lk);
      --idle_;
    }
  }

  void halt(Failure f) PANGULU_REQUIRES(mu_) {
    if (halted_) return;
    halted_ = true;
    halt_ = std::move(f);
  }

  void finish() PANGULU_REQUIRES(mu_) {
    finished_ = true;
    cv_.notify_all();
  }

  /// Tasks [0, fence_) have committed and nothing is in flight: run the
  /// hooks of this safe point, then move the fence. The hooks run under mu_
  /// on purpose: nothing is dispatchable until the fence moves, and the
  /// lock keeps a second worker from entering the same fence.
  void at_fence() PANGULU_REQUIRES(mu_) {
    const index_t f = fence_;
    Status s = Status::ok();
    try {
      if (f > first_) s = after_commit(f);
      if (s.is_ok() && f == nt_) {
        finish();
        return;
      }
      if (s.is_ok() && guard_) s = guard_->before_task(f);
    } catch (...) {
      halt({Status::ok(), std::current_exception()});
      return;
    }
    if (!s.is_ok()) {
      halt({std::move(s), nullptr});
      return;
    }
    fence_ = next_fence(f);
    while (!parked_.empty() && parked_.top() < fence_) {
      ready_.push(parked_.top());
      parked_.pop();
    }
    cv_.notify_all();
  }

  /// Hooks that follow the commit of task done - 1, in canonical-run order.
  Status after_commit(index_t done) PANGULU_REQUIRES(mu_) {
    if (guard_) guard_->after_task(done - 1);
    // The flip lands after the commit's checksum is recorded: between a
    // legitimate write and the next read, the window real bit flips occupy.
    for (; next_flip_ < flips_.size() &&
           flips_[next_flip_].after_task == done - 1;
         ++next_flip_)
      flip_bit(bm_, flips_[next_flip_]);
    const index_t every = o_.checkpoint_interval_tasks;
    if (every > 0 && o_.checkpoint_sink && done % every == 0 && done < nt_ &&
        (o_.checkpoint_min_elapsed_seconds <= 0 ||
         ckpt_elapsed_.seconds() >= o_.checkpoint_min_elapsed_seconds)) {
      Status cs = o_.checkpoint_sink(done);
      if (!cs.is_ok()) return cs;
      ++result_->checkpoints_written;
      ckpt_elapsed_.reset();
    }
    if (o_.faults.kill_after_task >= 0 && done == o_.faults.kill_after_task)
      return Status::unavailable(
          "simulated process kill after canonical task " +
          std::to_string(done) + " of " + std::to_string(nt_));
    return Status::ok();
  }

  /// The next safe point after `f` that has a hook (nt_ if none).
  index_t next_fence(index_t f) const PANGULU_REQUIRES(mu_) {
    index_t next = nt_;
    if (guard_) next = std::min(next, f + 1);
    const index_t every = o_.checkpoint_interval_tasks;
    if (every > 0 && o_.checkpoint_sink)
      next = std::min(next, (f / every + 1) * every);
    if (o_.faults.kill_after_task > f)
      next = std::min(next, o_.faults.kill_after_task);
    if (next_flip_ < flips_.size())
      next = std::min(next, flips_[next_flip_].after_task + 1);
    return next;
  }

  block::BlockMatrixT<V>& bm_;
  const std::vector<Task>& tasks_;
  const TaskAdjacency& adj_;
  const std::vector<TaskPlan>& plans_;
  const SimOptions& o_;
  const index_t nt_;
  const index_t first_;
  AbftGuardT<V>* const guard_;
  SimResult* const result_;
  int workers_ = 1;

  // Immutable once build_graph has run.
  std::vector<index_t> chain_next_;
  std::vector<double> bottom_level_;

  Mutex mu_;
  std::condition_variable_any cv_;
  std::vector<index_t> dep_ PANGULU_GUARDED_BY(mu_);
  std::priority_queue<index_t, std::vector<index_t>, ReadyOrder> ready_
      PANGULU_GUARDED_BY(mu_);  // dispatchable: index < fence_
  std::priority_queue<index_t, std::vector<index_t>, std::greater<>> parked_
      PANGULU_GUARDED_BY(mu_);  // ready but at or past the fence
  index_t fence_ PANGULU_GUARDED_BY(mu_) = 0;
  index_t committed_ PANGULU_GUARDED_BY(mu_) = 0;
  index_t limit_ PANGULU_GUARDED_BY(mu_) = 0;  // lowest failed task, else nt
  int in_flight_ PANGULU_GUARDED_BY(mu_) = 0;
  int idle_ PANGULU_GUARDED_BY(mu_) = 0;
  bool halted_ PANGULU_GUARDED_BY(mu_) = false;
  bool finished_ PANGULU_GUARDED_BY(mu_) = false;
  Failure halt_ PANGULU_GUARDED_BY(mu_);
  Failure kernel_failure_ PANGULU_GUARDED_BY(mu_);
  index_t perturbed_ PANGULU_GUARDED_BY(mu_) = 0;
  std::vector<FaultPlan::BitFlip> flips_;
  std::size_t next_flip_ PANGULU_GUARDED_BY(mu_) = 0;
  // Worthiness floor for the default cadence: wall-clock work since the
  // last snapshot (or the phase start). Only read at safe points.
  Timer ckpt_elapsed_ PANGULU_GUARDED_BY(mu_);
};

}  // namespace

template <class V>
Status simulate_factorization(block::BlockMatrixT<V>& bm,
                              const std::vector<Task>& tasks,
                              const Mapping& mapping, const SimOptions& opts,
                              SimResult* result) {
  *result = SimResult{};
  if (opts.n_ranks < 1)
    return Status::invalid_argument("n_ranks must be >= 1");
  if (mapping.n_ranks != opts.n_ranks)
    return Status::invalid_argument("mapping rank count mismatch");
  Status fv = opts.faults.validate(opts.n_ranks);
  if (!fv.is_ok()) return fv;
  // Static load-shed check: an over-draining plan is rejected with
  // kResourceExhausted here, before any work runs (crash interactions are
  // re-checked dynamically at each drain's safe point).
  Status ev = opts.elastic.validate(opts.n_ranks);
  if (!ev.is_ok()) return ev;

  const auto nt = static_cast<index_t>(tasks.size());
  std::vector<TaskPlan> plans(static_cast<std::size_t>(nt));
  for (index_t t = 0; t < nt; ++t)
    plans[static_cast<std::size_t>(t)] =
        plan_task(tasks[static_cast<std::size_t>(t)], bm, opts);
  // One task graph for the engine and the sync-free replay; both only read
  // it (each counts down its own copy of `dep`). A level-set replay alone
  // needs none.
  const TaskAdjacency adj =
      opts.execute_numerics || opts.schedule == ScheduleMode::kSyncFree
          ? TaskAdjacency::build(bm, tasks)
          : TaskAdjacency{};

  // Numerics run on the parallel engine before the virtual-time replay.
  // Every block sees its canonical kernel sequence (see NumericEngine), so
  // the factors never depend on the simulated schedule or on the worker
  // count: rank count, scheduling mode, stragglers, retransmissions and
  // crash recovery change only the clock, and any recoverable fault plan
  // reproduces the fault-free factors bit for bit. Checkpoints, ABFT
  // audits, injected bit flips and simulated process kills run at dispatch
  // fences, where the committed tasks are exactly a canonical prefix.
  if (opts.execute_numerics) {
    PANGULU_CHECK(block::is_topological_order(bm, tasks),
                  "task enumeration order must be topological");
    if (opts.resume_from_task < 0 || opts.resume_from_task > nt)
      return Status::invalid_argument("resume_from_task out of range");
    if (opts.checkpoint_interval_tasks < 0)
      return Status::invalid_argument("checkpoint interval must be >= 0");
    if (opts.numeric_threads < 0)
      return Status::invalid_argument("numeric_threads must be >= 0");
    // The ABFT repair path replays tasks with the *same* resolved plan as
    // the original execution (and a scratch workspace/pivot counter, so a
    // repair never perturbs the primary run's state or statistics) — the
    // recomputed block is bitwise identical to the uncorrupted one.
    kernels::Workspace replay_ws;
    std::optional<AbftGuardT<V>> guard;
    if (opts.abft != AbftLevel::kOff) {
      guard.emplace(bm, tasks, opts.abft, opts.resume_from_task,
                    [&](index_t u) -> Status {
                      kernels::PivotStats scratch;
                      return run_numerics(
                          tasks[static_cast<std::size_t>(u)],
                          plans[static_cast<std::size_t>(u)].variant, bm,
                          replay_ws, &scratch, opts.pivot_tol);
                    });
    }
    Status s = NumericEngine<V>(bm, tasks, adj, plans, opts,
                                guard ? &*guard : nullptr, result)
                   .run();
    if (guard) {
      if (s.is_ok()) s = guard->final_sweep();
      result->abft_audits = guard->stats().audits;
      result->abft_detected = guard->stats().detected;
      result->abft_recomputed = guard->stats().recomputed;
    }
    if (!s.is_ok()) return s;
  }

  return opts.schedule == ScheduleMode::kSyncFree
             ? run_sync_free(bm, tasks, adj, mapping, opts, plans, result)
             : run_level_set(bm, tasks, mapping, opts, plans, result);
}

template Status simulate_factorization(block::BlockMatrixT<float>&,
                                       const std::vector<Task>&,
                                       const Mapping&, const SimOptions&,
                                       SimResult*);
template Status simulate_factorization(block::BlockMatrixT<double>&,
                                       const std::vector<Task>&,
                                       const Mapping&, const SimOptions&,
                                       SimResult*);

}  // namespace pangulu::runtime
