#include "runtime/trsv_sim.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/cluster.hpp"

namespace pangulu::runtime {

template <class V>
ColumnLists build_column_lists(const block::BlockMatrixT<V>& f) {
  // Block position order (block columns ascending). Two passes over the
  // block columns on the global pool: count each block's non-empty columns
  // (and find the diagonal entries), then fill the lists at their
  // prefix-sum offsets. Nothing is allocated on a worker.
  ColumnLists lists;
  const auto n_blocks = static_cast<std::size_t>(f.n_blocks());
  lists.col_ptr.assign(n_blocks + 1, 0);
  lists.diag_at.resize(static_cast<std::size_t>(f.grid().n));
  std::atomic<bool> diag_missing{false};
  ThreadPool& pool = ThreadPool::global();
  parallel_for(pool, 0, f.nb(), [&](index_t bj) {
    for (nnz_t pos = f.col_begin(bj); pos < f.col_end(bj); ++pos) {
      const auto& b = f.block(pos);
      const nnz_t* cp = b.col_ptr().data();
      nnz_t count = 0;
      for (index_t j = 0; j < b.n_cols(); ++j) count += cp[j + 1] > cp[j];
      lists.col_ptr[static_cast<std::size_t>(pos) + 1] = count;
      if (f.block_row(pos) != bj) continue;
      for (index_t j = 0; j < b.n_cols(); ++j) {
        const nnz_t at = b.find(j, j);
        if (at < 0) diag_missing = true;
        lists.diag_at[static_cast<std::size_t>(f.grid().block_start(bj) + j)] =
            at;
      }
    }
  });
  PANGULU_CHECK(!diag_missing, "column lists: missing diagonal entry");
  for (std::size_t pos = 0; pos < n_blocks; ++pos)
    lists.col_ptr[pos + 1] += lists.col_ptr[pos];
  lists.cols.resize(static_cast<std::size_t>(lists.col_ptr[n_blocks]));
  parallel_for(pool, 0, f.nb(), [&](index_t bj) {
    for (nnz_t pos = f.col_begin(bj); pos < f.col_end(bj); ++pos) {
      const auto& b = f.block(pos);
      const nnz_t* cp = b.col_ptr().data();
      const index_t* rows = b.row_idx().data();
      kernels::SweepColumn* out =
          lists.cols.data() + lists.col_ptr[static_cast<std::size_t>(pos)];
      for (index_t j = 0; j < b.n_cols(); ++j) {
        const nnz_t lo = cp[j], hi = cp[j + 1];
        if (lo == hi) continue;
        const index_t r0 = rows[lo];
        *out++ = {j, rows[hi - 1] - r0 == hi - lo - 1
                         ? r0
                         : kernels::SweepColumn::kScatter};
      }
    }
  });
  return lists;
}

template <class V>
Status build_trsv_plan(const block::BlockMatrixT<V>& f,
                       const block::Mapping& mapping, bool lower,
                       const TrsvOptions& opts, TrsvPlan* plan) {
  *plan = TrsvPlan{};
  const index_t nb = f.nb();
  if (mapping.n_ranks != opts.n_ranks)
    return Status::invalid_argument("trsv: mapping rank count mismatch");
  plan->lower = lower;
  plan->n_ranks = opts.n_ranks;
  plan->nb = nb;

  // Task list: one diag solve per segment, one update per off-diagonal block
  // on the relevant triangle. Updates are discovered per block column, so the
  // release list of diag solve bj is the flat CSR row [from_ptr[bj],
  // from_ptr[bj+1]).
  std::vector<index_t> pending(static_cast<std::size_t>(nb), 0);
  plan->from_ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  for (index_t bj = 0; bj < nb; ++bj) {
    for (nnz_t p = f.col_begin(bj); p < f.col_end(bj); ++p) {
      const index_t bi = f.block_row(p);
      if (lower ? bi > bj : bi < bj) {
        // lower: block L(bi,bj) maps y_bj into segment bi.
        // upper: block U(bi,bj) maps x_bj into segment bi.
        plan->from_adj.push_back(static_cast<index_t>(plan->upd_pos.size()));
        plan->upd_pos.push_back(p);
        plan->upd_src.push_back(bj);
        plan->upd_dst.push_back(bi);
        pending[static_cast<std::size_t>(bi)]++;
      }
    }
    plan->from_ptr[static_cast<std::size_t>(bj) + 1] =
        static_cast<index_t>(plan->from_adj.size());
  }
  const auto n_updates = static_cast<index_t>(plan->upd_pos.size());
  const index_t n_tasks = nb + n_updates;
  plan->n_tasks = n_tasks;

  // Owners: diag solve runs with the diagonal block; an update runs with its
  // block's owner.
  plan->owner.resize(static_cast<std::size_t>(n_tasks));
  plan->diag_pos.resize(static_cast<std::size_t>(nb));
  for (index_t k = 0; k < nb; ++k) {
    const nnz_t dp = f.find_block(k, k);
    PANGULU_CHECK(dp >= 0, "trsv: missing diagonal block");
    plan->diag_pos[static_cast<std::size_t>(k)] = dp;
    plan->owner[static_cast<std::size_t>(k)] =
        mapping.owner[static_cast<std::size_t>(dp)];
  }
  for (index_t u = 0; u < n_updates; ++u) {
    plan->owner[static_cast<std::size_t>(nb + u)] = mapping.owner[
        static_cast<std::size_t>(plan->upd_pos[static_cast<std::size_t>(u)])];
  }

  // dep counts: diag solve waits for its pending updates; an update waits
  // for its source segment's diag solve.
  plan->init_dep.resize(static_cast<std::size_t>(n_tasks));
  for (index_t k = 0; k < nb; ++k)
    plan->init_dep[static_cast<std::size_t>(k)] =
        pending[static_cast<std::size_t>(k)];
  for (index_t u = 0; u < n_updates; ++u)
    plan->init_dep[static_cast<std::size_t>(nb + u)] = 1;

  // Kernel cost and ready-queue priority per task. The priority packs the
  // tuple (critical segment, kind, id) into one int64 — diag solves first
  // (they unlock the most), updates in segment order: ascending for the
  // lower solve, descending for the upper (later segments more critical).
  const auto& grid = f.grid();
  plan->cost.resize(static_cast<std::size_t>(n_tasks));
  plan->prio.resize(static_cast<std::size_t>(n_tasks));
  for (index_t t = 0; t < n_tasks; ++t) {
    index_t seg;
    if (t < nb) {
      const CscT<V>& d = f.block(plan->diag_pos[static_cast<std::size_t>(t)]);
      plan->cost[static_cast<std::size_t>(t)] = opts.device.sparse_kernel_time(
          /*gpu=*/true, /*direct=*/false, 2.0 * static_cast<double>(d.nnz()),
          static_cast<double>(d.nnz()), grid.block_dim(t));
      seg = t;
    } else {
      const auto u = static_cast<std::size_t>(t - nb);
      const CscT<V>& blk = f.block(plan->upd_pos[u]);
      plan->cost[static_cast<std::size_t>(t)] = opts.device.sparse_kernel_time(
          true, false, 2.0 * static_cast<double>(blk.nnz()),
          static_cast<double>(blk.nnz()), grid.block_dim(plan->upd_dst[u]));
      seg = plan->upd_dst[u];
    }
    const index_t crit = lower ? seg : nb - 1 - seg;
    plan->prio[static_cast<std::size_t>(t)] =
        (static_cast<std::uint64_t>(crit) << 33) |
        (static_cast<std::uint64_t>(t < nb ? 0 : 1) << 32) |
        static_cast<std::uint64_t>(t);
  }

  plan->seg_bytes.resize(static_cast<std::size_t>(nb));
  for (index_t k = 0; k < nb; ++k)
    plan->seg_bytes[static_cast<std::size_t>(k)] =
        static_cast<std::size_t>(grid.block_dim(k)) * sizeof(V);
  if (opts.execute_numerics) plan->lists = build_column_lists(f);
  return Status::ok();
}

template <class V>
Status simulate_trsv(const block::BlockMatrixT<V>& f, const TrsvPlan& plan,
                     std::type_identity_t<std::span<V>> x, const TrsvOptions& opts,
                     SimResult* result) {
  if (static_cast<index_t>(x.size()) != f.grid().n) {
    *result = SimResult{};
    return Status::invalid_argument("trsv: vector size mismatch");
  }
  // The k = 1 panel is the single-vector solve: same kernels, same cost
  // (x1.0) and message payload (x1), hence the same makespan and traffic.
  return simulate_trsv_panel(f, plan, x.data(), 1, 1, opts, result);
}

namespace {

// Event-driven timing replay of one (possibly elastic) solve over a prebuilt
// plan. Pure scheduling — no numerics — so it can run *before* the canonical
// sweep: a virtual-deadline miss or a mid-replay load shed returns with the
// caller's vector untouched. Elastic steps fire at diagonal-solve commit
// boundaries through the cluster-reshaping protocol of the factorisation
// replays (runtime/cluster.hpp).
template <class V>
Status trsv_replay(const block::BlockMatrixT<V>& f, const TrsvPlan& plan,
                   index_t k, const TrsvOptions& opts, SimResult* result) {
  const index_t nb = plan.nb;
  const index_t n_tasks = plan.n_tasks;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const std::vector<block::Task> kNoTasks;

  std::vector<index_t> dep(plan.init_dep);
  result->ranks.assign(static_cast<std::size_t>(opts.n_ranks), RankStats{});
  std::vector<double> busy_until(static_cast<std::size_t>(opts.n_ranks), 0.0);
  std::vector<double> ready_time(static_cast<std::size_t>(n_tasks), 0.0);
  std::vector<char> done(static_cast<std::size_t>(n_tasks), 0);
  // Owners are read fresh at event-pop time, so a rebalance re-routes every
  // not-yet-run task by rewriting this copy.
  std::vector<rank_t> owner(plan.owner);
  auto block_of = [&](index_t t) {
    return static_cast<std::size_t>(
        t < nb ? plan.diag_pos[static_cast<std::size_t>(t)]
               : plan.upd_pos[static_cast<std::size_t>(t - nb)]);
  };

  // The reshaping protocol runs on a cluster description of the solve: no
  // fault plan, trace or ABFT. The I5 message-conservation re-proof needs
  // the factorisation task list, which the solve phase does not have, so
  // kFull clamps to the structural I6 proof.
  SimOptions cluster_opts;
  std::optional<LiveCluster<V>> cluster;
  auto refresh_owners = [&] {
    for (index_t t = 0; t < n_tasks; ++t)
      if (!done[static_cast<std::size_t>(t)])
        owner[static_cast<std::size_t>(t)] =
            cluster->mapping.owner[block_of(t)];
  };
  if (!opts.elastic.empty()) {
    cluster_opts.device = opts.device;
    cluster_opts.n_ranks = opts.n_ranks;
    cluster_opts.elastic = opts.elastic;
    cluster_opts.verify_level =
        std::min(opts.verify_level, analysis::VerifyLevel::kCheap);
    cluster.emplace(f, kNoTasks, *opts.mapping, cluster_opts, "solve commit",
                    result);
    Status ps = cluster->provision();
    if (!ps.is_ok()) return ps;
    refresh_owners();
  }

  auto priority_less = [&](index_t a, index_t b) {
    return plan.prio[static_cast<std::size_t>(a)] >
           plan.prio[static_cast<std::size_t>(b)];
  };
  std::vector<std::priority_queue<index_t, std::vector<index_t>,
                                  decltype(priority_less)>>
      ready;
  for (rank_t r = 0; r < opts.n_ranks; ++r) ready.emplace_back(priority_less);

  DesEvents events;
  index_t seq = 0;
  for (index_t t = 0; t < n_tasks; ++t) {
    if (dep[static_cast<std::size_t>(t)] == 0) events.push({0.0, seq++, t, 0});
  }

  double makespan = 0;
  index_t completed = 0;
  index_t diag_done = 0;  // the solve phase's commit clock

  // A drain waits out the rank's in-flight task and parks it at +inf; an add
  // wakes the newcomer once the migrated state lands. Queued work is
  // re-routed: a task whose block migrated becomes runnable once the
  // migrated state has arrived.
  auto reshape = [&](double now, bool fire_all) -> Status {
    if (!cluster) return Status::ok();
    while (const ElasticPlan::Step* st =
               cluster->next_due(diag_done, fire_all)) {
      const auto ri = static_cast<std::size_t>(st->rank);
      Migration m;
      Status s = cluster->step(*st, now, busy_until[ri], kInf, &m);
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
          return std::max(cluster->migrated(block_of(t)) ? m.ready_at : now,
                          ready_time[static_cast<std::size_t>(t)]);
        });
      makespan = std::max(makespan, m.ready_at);
    }
    return Status::ok();
  };

  Status es = Status::ok();
  auto start_one = [&](rank_t r, double now) {
    auto& q = ready[static_cast<std::size_t>(r)];
    if (q.empty()) return;
    const index_t t = q.top();
    q.pop();

    // Each task sweeps its block once for all k columns; the modelled kernel
    // time scales linearly with the panel width.
    const double cost =
        plan.cost[static_cast<std::size_t>(t)] * static_cast<double>(k);
    const double fin = now + cost;
    busy_until[static_cast<std::size_t>(r)] = fin;
    makespan = std::max(makespan, fin);
    auto& rs = result->ranks[static_cast<std::size_t>(r)];
    rs.busy += cost;
    ++completed;
    done[static_cast<std::size_t>(t)] = 1;

    // Release dependents.
    auto release = [&](index_t d_task, std::size_t msg_bytes) {
      const rank_t dr = owner[static_cast<std::size_t>(d_task)];
      double arrive = fin;
      if (dr != r) {
        arrive += opts.device.message_time(msg_bytes);
        rs.messages_sent++;
        rs.bytes_sent += msg_bytes;
      }
      auto& rd = ready_time[static_cast<std::size_t>(d_task)];
      rd = std::max(rd, arrive);
      if (--dep[static_cast<std::size_t>(d_task)] == 0)
        events.push({rd, seq++, d_task, 0});
    };
    // A cross-rank message carries the segment for all k columns.
    if (t < nb) {
      for (index_t p = plan.from_ptr[static_cast<std::size_t>(t)];
           p < plan.from_ptr[static_cast<std::size_t>(t) + 1]; ++p) {
        release(nb + plan.from_adj[static_cast<std::size_t>(p)],
                plan.seg_bytes[static_cast<std::size_t>(t)] *
                    static_cast<std::size_t>(k));
      }
    } else {
      const auto u = static_cast<std::size_t>(t - nb);
      release(plan.upd_dst[u],
              plan.seg_bytes[static_cast<std::size_t>(plan.upd_dst[u])] *
                  static_cast<std::size_t>(k));
    }
    events.push({fin, seq++, kWakeEvent, r});
    // A committed diagonal solve advances the commit clock; elastic events
    // due at this boundary fire at its completion time.
    if (t < nb) {
      ++diag_done;
      es = reshape(fin, false);
    }
  };

  // Commit 0 is itself a safe point (events scheduled before any task).
  Status s0 = reshape(0.0, false);
  if (!s0.is_ok()) return s0;

  while (!events.empty()) {
    DesEvent ev = events.top();
    events.pop();
    // Virtual-deadline poll: the DES clock has provably reached ev.time, so
    // a deadline behind it can never be met and the solve sheds here.
    if (opts.cancel) {
      Status cs = opts.cancel->check_virtual(ev.time, "trsv event loop");
      if (!cs.is_ok()) return cs;
    }
    rank_t r;
    if (ev.task >= 0) {
      r = owner[static_cast<std::size_t>(ev.task)];
      ready[static_cast<std::size_t>(r)].push(ev.task);
    } else {
      r = ev.rank;
    }
    if (busy_until[static_cast<std::size_t>(r)] > ev.time + 1e-30) continue;
    start_one(r, ev.time);
    if (!es.is_ok()) return es;
  }
  PANGULU_CHECK(completed == n_tasks, "trsv DES deadlocked");
  // Elastic events scheduled past the final commit still fire (the cluster
  // reshapes after the solve drains), at the end of the schedule.
  Status sf = reshape(makespan, true);
  if (!sf.is_ok()) return sf;
  finish_run(makespan, /*idle_is_gap=*/true, result);
  return Status::ok();
}

}  // namespace

template <class V>
Status simulate_trsv_panel(const block::BlockMatrixT<V>& f,
                           const TrsvPlan& plan, V* x, index_t stride,
                           index_t k, const TrsvOptions& opts,
                           SimResult* result) {
  *result = SimResult{};
  const index_t nb = plan.nb;
  if (k <= 0) return Status::invalid_argument("trsv: panel width must be >= 1");
  if (stride < k)
    return Status::invalid_argument("trsv: panel row stride too small");
  if (plan.n_ranks != opts.n_ranks)
    return Status::invalid_argument("trsv: plan rank count mismatch");
  if (nb != f.nb())
    return Status::invalid_argument("trsv: plan built for a different grid");
  if (opts.execute_numerics && plan.lists.empty())
    return Status::invalid_argument(
        "trsv: numerics requested on a plan built without them");
  if (!opts.elastic.empty()) {
    if (!opts.mapping)
      return Status::invalid_argument(
          "trsv: an elastic plan requires TrsvOptions::mapping (the mapping "
          "the solve plan was built against)");
    if (opts.mapping->n_ranks != opts.n_ranks)
      return Status::invalid_argument("trsv: mapping rank count mismatch");
    Status es = opts.elastic.validate(opts.n_ranks);
    if (!es.is_ok()) return es;
  }

  // Phase 1: the event-driven timing replay, including elastic events and
  // virtual-deadline polls. Failing here leaves `x` untouched.
  Status rs = trsv_replay(f, plan, k, opts, result);
  if (!rs.is_ok()) {
    *result = SimResult{};
    return rs;
  }

  // Phase 2: canonical numerics, decoupled from the schedule — segment by
  // segment in sweep order, each diagonal solve followed by the updates it
  // releases (ascending block row within the column). Any valid schedule,
  // mapping or elastic plan replays to this same order, so the solution is
  // bitwise identical across all of them.
  if (opts.execute_numerics) {
    const auto& grid = f.grid();
    const ColumnLists& lists = plan.lists;
    const auto seg = [&](index_t b) {
      return x + static_cast<std::size_t>(grid.block_start(b)) * stride;
    };
    for (index_t level = 0; level < nb; ++level) {
      const index_t bj = plan.lower ? level : nb - 1 - level;
      // Sweep-level boundary = solve safe point: segment bj and everything
      // it feeds are not yet committed when the poll sheds the solve.
      if (opts.cancel) {
        Status cs = opts.cancel->check(
            ("trsv sweep level " + std::to_string(level)).c_str());
        if (!cs.is_ok()) return cs;
      }
      const nnz_t dp = plan.diag_pos[static_cast<std::size_t>(bj)];
      const nnz_t* diag = lists.diag_at.data() + grid.block_start(bj);
      if (plan.lower)
        kernels::diag_lower_sweep(f.block(dp), lists.columns(dp), diag,
                                  seg(bj), stride, k);
      else
        kernels::diag_upper_sweep(f.block(dp), lists.columns(dp), diag,
                                  seg(bj), stride, k);
      for (index_t p = plan.from_ptr[static_cast<std::size_t>(bj)];
           p < plan.from_ptr[static_cast<std::size_t>(bj) + 1]; ++p) {
        const auto u =
            static_cast<std::size_t>(plan.from_adj[static_cast<std::size_t>(p)]);
        kernels::sweep_columns_sub(f.block(plan.upd_pos[u]),
                                   lists.columns(plan.upd_pos[u]),
                                   seg(plan.upd_src[u]), seg(plan.upd_dst[u]),
                                   stride, k);
      }
    }
  }
  return Status::ok();
}

template <class V>
Status simulate_trsv(const block::BlockMatrixT<V>& f,
                     const block::Mapping& mapping, bool lower, std::type_identity_t<std::span<V>> x,
                     const TrsvOptions& opts, SimResult* result) {
  TrsvPlan plan;
  Status s = build_trsv_plan(f, mapping, lower, opts, &plan);
  if (!s.is_ok()) {
    *result = SimResult{};
    return s;
  }
  return simulate_trsv(f, plan, x, opts, result);
}

template ColumnLists build_column_lists(const block::BlockMatrixT<float>&);
template ColumnLists build_column_lists(const block::BlockMatrixT<double>&);
template Status build_trsv_plan(const block::BlockMatrixT<float>&,
                                const block::Mapping&, bool,
                                const TrsvOptions&, TrsvPlan*);
template Status build_trsv_plan(const block::BlockMatrixT<double>&,
                                const block::Mapping&, bool,
                                const TrsvOptions&, TrsvPlan*);
template Status simulate_trsv(const block::BlockMatrixT<float>&,
                              const TrsvPlan&, std::span<float>,
                              const TrsvOptions&, SimResult*);
template Status simulate_trsv(const block::BlockMatrixT<double>&,
                              const TrsvPlan&, std::span<double>,
                              const TrsvOptions&, SimResult*);
template Status simulate_trsv_panel(const block::BlockMatrixT<float>&,
                                    const TrsvPlan&, float*, index_t, index_t,
                                    const TrsvOptions&, SimResult*);
template Status simulate_trsv_panel(const block::BlockMatrixT<double>&,
                                    const TrsvPlan&, double*, index_t, index_t,
                                    const TrsvOptions&, SimResult*);
template Status simulate_trsv(const block::BlockMatrixT<float>&,
                              const block::Mapping&, bool, std::span<float>,
                              const TrsvOptions&, SimResult*);
template Status simulate_trsv(const block::BlockMatrixT<double>&,
                              const block::Mapping&, bool, std::span<double>,
                              const TrsvOptions&, SimResult*);

}  // namespace pangulu::runtime
