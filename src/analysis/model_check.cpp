#include "analysis/model_check.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <utility>

#include "analysis/verify.hpp"

namespace pangulu::analysis {

const char* to_string(ProtoEventKind kind) {
  switch (kind) {
    case ProtoEventKind::kCommit:
      return "commit";
    case ProtoEventKind::kDeliver:
      return "deliver";
    case ProtoEventKind::kRetransmit:
      return "retransmit";
    case ProtoEventKind::kDrain:
      return "drain";
    case ProtoEventKind::kAdd:
      return "add";
    case ProtoEventKind::kCheckpoint:
      return "checkpoint";
    case ProtoEventKind::kPublish:
      return "publish";
    case ProtoEventKind::kDrop:
      return "drop";
    case ProtoEventKind::kDuplicate:
      return "duplicate";
    case ProtoEventKind::kCrash:
      return "crash";
  }
  return "unknown";
}

const char* to_string(ProtoProperty p) {
  switch (p) {
    case ProtoProperty::kNone:
      return "none";
    case ProtoProperty::kCounterNonNegative:
      return "counter-non-negative";
    case ProtoProperty::kAtMostOnce:
      return "at-most-once";
    case ProtoProperty::kPrematureExecute:
      return "premature-execute";
    case ProtoProperty::kMappingTotality:
      return "mapping-totality";
    case ProtoProperty::kMinRanksFloor:
      return "min-ranks-floor";
    case ProtoProperty::kCheckpointDurability:
      return "checkpoint-durability";
    case ProtoProperty::kOrphanMessage:
      return "orphan-message";
    case ProtoProperty::kDeadlock:
      return "deadlock";
  }
  return "unknown";
}

bool operator==(const ProtoEvent& a, const ProtoEvent& b) {
  return a.kind == b.kind && a.task == b.task && a.edge == b.edge &&
         a.rank == b.rank;
}

bool proto_event_less(const ProtoEvent& a, const ProtoEvent& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.task != b.task) return a.task < b.task;
  if (a.edge != b.edge) return a.edge < b.edge;
  return a.rank < b.rank;
}

std::string to_string(const ProtoEvent& e) {
  std::string s = to_string(e.kind);
  switch (e.kind) {
    case ProtoEventKind::kCommit:
    case ProtoEventKind::kPublish:
      s += "(task=" + std::to_string(e.task) + ")";
      break;
    case ProtoEventKind::kDeliver:
    case ProtoEventKind::kRetransmit:
    case ProtoEventKind::kDrop:
    case ProtoEventKind::kDuplicate:
      s += "(edge=" + std::to_string(e.edge) + ")";
      break;
    case ProtoEventKind::kDrain:
    case ProtoEventKind::kAdd:
      s += "(plan=" + std::to_string(e.edge) +
           ", rank=" + std::to_string(e.rank) + ")";
      break;
    case ProtoEventKind::kCrash:
      s += "(rank=" + std::to_string(e.rank) + ")";
      break;
    case ProtoEventKind::kCheckpoint:
      break;
  }
  return s;
}

namespace {

// Per dependency-edge message lifecycle. A cross-rank edge travels
// none -> inflight -> {counted-msg | lost -> inflight -> ...}; a same-rank
// edge jumps none -> counted at the producer's commit. The counted-msg /
// counted split remembers whether a real message was ever sent, so the
// late-duplicate adversary only targets edges that had one.
enum EdgeState : char {
  kEdgeNone = 0,
  kEdgeInflight = 1,
  kEdgeLost = 2,
  kEdgeCounted = 3,     // applied, was always rank-local
  kEdgeCountedMsg = 4,  // applied via a delivered message
};

struct Ctx {
  /// Type-erased I6 re-proof bound to the caller's block matrix: the
  /// protocol interpreter itself is structure-only, so it never needs the
  /// (precision-templated) block matrix beyond this closure.
  std::function<Status(const block::Mapping& before,
                       const block::Mapping& after, rank_t rank, int delta,
                       const std::vector<char>& alive)>
      rebalance_proof;
  const std::vector<block::Task>* tasks = nullptr;
  const ModelOptions* opts = nullptr;
  rank_t n_ranks = 0;
  index_t nt = 0;
  nnz_t ne = 0;
  block::TaskAdjacency g;
  std::vector<index_t> edge_src;  // edge id (index into g.out_adj) -> source
  std::vector<nnz_t> in_ptr;      // task -> [in_ptr[t], in_ptr[t+1]) in-edges
  std::vector<nnz_t> in_edge;
};

// The exact protocol state. Everything up to and including `last_ckpt` is
// part of the dedup identity; the trailing counters are replay statistics
// that provably follow from the path, not the state, and are excluded.
struct ProtoState {
  std::vector<char> committed;
  std::vector<char> published;
  std::vector<std::int32_t> rem;  // sync-free remaining-update counters
  std::vector<char> edge;         // EdgeState per dependency edge
  std::vector<char> alive;
  std::vector<char> crashed;
  std::vector<char> efired;  // elastic plan entries already fired
  block::Mapping mapping;
  std::int32_t drops_left = 0;
  std::int32_t dups_left = 0;
  std::int32_t crashes_left = 0;
  std::int32_t ckpts_left = 0;
  index_t commits = 0;
  index_t last_ckpt = 0;

  // Statistics (not part of the identity).
  std::int64_t messages = 0;
  std::int64_t retransmits = 0;
  std::int64_t dups_suppressed = 0;
  std::int64_t crashes = 0;
  std::int64_t drains = 0;
  std::int64_t adds = 0;
  std::int64_t ckpts = 0;
  nnz_t remapped = 0;
  nnz_t migrated = 0;
};

template <class T>
void append_pod_vec(std::string* key, const std::vector<T>& v) {
  key->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

void append_i32(std::string* key, std::int32_t v) {
  key->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void serialize(const ProtoState& st, std::string* key) {
  key->clear();
  append_pod_vec(key, st.committed);
  append_pod_vec(key, st.published);
  append_pod_vec(key, st.rem);
  append_pod_vec(key, st.edge);
  append_pod_vec(key, st.alive);
  append_pod_vec(key, st.crashed);
  append_pod_vec(key, st.efired);
  append_pod_vec(key, st.mapping.owner);
  append_i32(key, st.drops_left);
  append_i32(key, st.dups_left);
  append_i32(key, st.crashes_left);
  append_i32(key, st.ckpts_left);
  append_i32(key, st.last_ckpt);
}

rank_t owner_of_task(const Ctx& ctx, const ProtoState& st, index_t t) {
  return st.mapping
      .owner[static_cast<std::size_t>((*ctx.tasks)[static_cast<std::size_t>(t)]
                                          .target)];
}

rank_t live_count(const ProtoState& st) {
  rank_t n = 0;
  for (char a : st.alive) n += (a != 0) ? 1 : 0;
  return n;
}

template <class BM>
Status init_ctx(const BM& bm, const std::vector<block::Task>& tasks,
                const block::Mapping& mapping, const ModelOptions& opts,
                Ctx* ctx) {
  if (tasks.empty())
    return Status::invalid_argument("model check: empty task list");
  if (mapping.n_ranks < 1)
    return Status::invalid_argument("model check: mapping has no ranks");
  if (static_cast<index_t>(mapping.owner.size()) != bm.n_blocks())
    return Status::invalid_argument(
        "model check: mapping size " + std::to_string(mapping.owner.size()) +
        " does not match block count " + std::to_string(bm.n_blocks()));
  if (opts.max_drops < 0 || opts.max_duplicates < 0 || opts.max_crashes < 0 ||
      opts.max_checkpoints < 0)
    return Status::invalid_argument("model check: negative fault budget");
  if (opts.min_ranks < 1 || opts.min_ranks > mapping.n_ranks)
    return Status::invalid_argument(
        "model check: min_ranks " + std::to_string(opts.min_ranks) +
        " outside [1, " + std::to_string(mapping.n_ranks) + "]");
  for (std::size_t i = 0; i < opts.elastic.size(); ++i) {
    const ModelOptions::ElasticEvent& ev = opts.elastic[i];
    if (ev.rank < 0 || ev.rank >= mapping.n_ranks)
      return Status::invalid_argument("model check: elastic entry " +
                                      std::to_string(i) +
                                      " names out-of-range rank " +
                                      std::to_string(ev.rank));
    if (ev.at_commit < 0 ||
        ev.at_commit > static_cast<index_t>(tasks.size()))
      return Status::invalid_argument("model check: elastic entry " +
                                      std::to_string(i) +
                                      " has out-of-range at_commit " +
                                      std::to_string(ev.at_commit));
  }
  for (const block::Task& t : tasks)
    if (t.target < 0 || t.target >= static_cast<nnz_t>(bm.n_blocks()))
      return Status::invalid_argument(
          "model check: task targets out-of-range block");

  ctx->rebalance_proof = [&bm, &tasks](const block::Mapping& before,
                                       const block::Mapping& after,
                                       rank_t rank, int delta,
                                       const std::vector<char>& alive) {
    return verify_rebalance(bm, tasks, before, after, rank, delta, alive,
                            VerifyLevel::kCheap);
  };
  ctx->tasks = &tasks;
  ctx->opts = &opts;
  ctx->n_ranks = mapping.n_ranks;
  ctx->nt = static_cast<index_t>(tasks.size());
  ctx->g = block::TaskAdjacency::build(bm, tasks);
  ctx->ne = static_cast<nnz_t>(ctx->g.out_adj.size());

  ctx->edge_src.assign(ctx->g.out_adj.size(), -1);
  std::vector<nnz_t> indeg(static_cast<std::size_t>(ctx->nt) + 1, 0);
  for (index_t t = 0; t < ctx->nt; ++t)
    for (nnz_t e = ctx->g.out_ptr[static_cast<std::size_t>(t)];
         e < ctx->g.out_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
      ctx->edge_src[static_cast<std::size_t>(e)] = t;
      ++indeg[static_cast<std::size_t>(
                  ctx->g.out_adj[static_cast<std::size_t>(e)]) +
              1];
    }
  ctx->in_ptr.assign(static_cast<std::size_t>(ctx->nt) + 1, 0);
  for (index_t t = 0; t < ctx->nt; ++t)
    ctx->in_ptr[static_cast<std::size_t>(t) + 1] =
        ctx->in_ptr[static_cast<std::size_t>(t)] +
        indeg[static_cast<std::size_t>(t) + 1];
  ctx->in_edge.assign(ctx->g.out_adj.size(), -1);
  std::vector<nnz_t> cursor(ctx->in_ptr.begin(), ctx->in_ptr.end() - 1);
  for (nnz_t e = 0; e < ctx->ne; ++e) {
    index_t d = ctx->g.out_adj[static_cast<std::size_t>(e)];
    ctx->in_edge[static_cast<std::size_t>(cursor[static_cast<std::size_t>(d)]++)] =
        e;
  }
  for (index_t t = 0; t < ctx->nt; ++t) {
    nnz_t deg = ctx->in_ptr[static_cast<std::size_t>(t) + 1] -
                ctx->in_ptr[static_cast<std::size_t>(t)];
    PANGULU_CHECK(deg == static_cast<nnz_t>(
                             ctx->g.dep[static_cast<std::size_t>(t)]),
                  "task in-degree disagrees with sync-free counter");
  }
  return Status::ok();
}

Status init_state(const Ctx& ctx, const block::Mapping& mapping,
                  ProtoState* st) {
  const ModelOptions& opts = *ctx.opts;
  st->committed.assign(static_cast<std::size_t>(ctx.nt), 0);
  st->published.assign(static_cast<std::size_t>(ctx.nt), 0);
  st->rem.resize(static_cast<std::size_t>(ctx.nt));
  for (index_t t = 0; t < ctx.nt; ++t) {
    std::int32_t dep = ctx.g.dep[static_cast<std::size_t>(t)];
    if (opts.mutations.counter_off_by_one && dep >= 1) dep -= 1;
    st->rem[static_cast<std::size_t>(t)] = dep;
  }
  st->edge.assign(static_cast<std::size_t>(ctx.ne), kEdgeNone);
  st->alive.assign(static_cast<std::size_t>(ctx.n_ranks), 1);
  st->crashed.assign(static_cast<std::size_t>(ctx.n_ranks), 0);
  st->efired.assign(opts.elastic.size(), 0);
  st->mapping = mapping;
  st->drops_left = opts.max_drops;
  st->dups_left = opts.max_duplicates;
  st->crashes_left = opts.max_crashes;
  st->ckpts_left = opts.max_checkpoints;

  for (rank_t o : st->mapping.owner)
    if (o < 0 || o >= ctx.n_ranks)
      return Status::invalid_argument(
          "model check: initial mapping assigns a block to out-of-range rank " +
          std::to_string(o));
  return Status::ok();
}

// --- Event enumeration -------------------------------------------------

void enabled_events(const Ctx& ctx, const ProtoState& st,
                    std::vector<ProtoEvent>* out) {
  out->clear();
  const ProtocolMutations& mut = ctx.opts->mutations;
  for (index_t t = 0; t < ctx.nt; ++t)
    if (!st.committed[static_cast<std::size_t>(t)] &&
        st.rem[static_cast<std::size_t>(t)] <= 0 &&
        st.alive[static_cast<std::size_t>(owner_of_task(ctx, st, t))])
      out->push_back({ProtoEventKind::kCommit, t, -1, -1});
  for (nnz_t e = 0; e < ctx.ne; ++e)
    if (st.edge[static_cast<std::size_t>(e)] == kEdgeInflight)
      out->push_back({ProtoEventKind::kDeliver, -1, e, -1});
  if (!mut.skip_retransmit)
    for (nnz_t e = 0; e < ctx.ne; ++e)
      if (st.edge[static_cast<std::size_t>(e)] == kEdgeLost)
        out->push_back({ProtoEventKind::kRetransmit, -1, e, -1});
  const rank_t live = live_count(st);
  for (std::size_t i = 0; i < ctx.opts->elastic.size(); ++i) {
    const ModelOptions::ElasticEvent& ev = ctx.opts->elastic[i];
    if (st.efired[i] || st.commits < ev.at_commit) continue;
    if (ev.is_add) {
      if (!st.alive[static_cast<std::size_t>(ev.rank)] &&
          !st.crashed[static_cast<std::size_t>(ev.rank)])
        out->push_back({ProtoEventKind::kAdd, -1, static_cast<nnz_t>(i),
                        ev.rank});
    } else {
      if (st.alive[static_cast<std::size_t>(ev.rank)] &&
          (mut.drain_ignores_min_ranks || live - 1 >= ctx.opts->min_ranks))
        out->push_back({ProtoEventKind::kDrain, -1, static_cast<nnz_t>(i),
                        ev.rank});
    }
  }
  if (st.ckpts_left > 0 && st.commits > st.last_ckpt)
    out->push_back({ProtoEventKind::kCheckpoint, -1, -1, -1});
  if (mut.commit_before_publish)
    for (index_t t = 0; t < ctx.nt; ++t)
      if (st.committed[static_cast<std::size_t>(t)] &&
          !st.published[static_cast<std::size_t>(t)])
        out->push_back({ProtoEventKind::kPublish, t, -1, -1});
  if (st.drops_left > 0)
    for (nnz_t e = 0; e < ctx.ne; ++e)
      if (st.edge[static_cast<std::size_t>(e)] == kEdgeInflight)
        out->push_back({ProtoEventKind::kDrop, -1, e, -1});
  if (st.dups_left > 0)
    for (nnz_t e = 0; e < ctx.ne; ++e)
      if (st.edge[static_cast<std::size_t>(e)] == kEdgeCountedMsg)
        out->push_back({ProtoEventKind::kDuplicate, -1, e, -1});
  if (st.crashes_left > 0 && live >= 2)
    for (rank_t r = 0; r < ctx.n_ranks; ++r)
      if (st.alive[static_cast<std::size_t>(r)])
        out->push_back({ProtoEventKind::kCrash, -1, -1, r});
}

// --- Transition execution ----------------------------------------------

std::string task_label(const Ctx& ctx, index_t t) {
  const block::Task& tk = (*ctx.tasks)[static_cast<std::size_t>(t)];
  return "task " + std::to_string(t) + " (k=" + std::to_string(tk.k) +
         ", block " + std::to_string(tk.bi) + "," + std::to_string(tk.bj) +
         ")";
}

ProtoProperty check_totality(const Ctx& ctx, const ProtoState& st,
                             const char* after_what, std::string* detail) {
  for (std::size_t pos = 0; pos < st.mapping.owner.size(); ++pos) {
    rank_t o = st.mapping.owner[pos];
    if (o < 0 || o >= ctx.n_ranks || !st.alive[static_cast<std::size_t>(o)]) {
      *detail = std::string("block ") + std::to_string(pos) +
                " owned by dead rank " + std::to_string(o) + " after " +
                after_what;
      return ProtoProperty::kMappingTotality;
    }
  }
  return ProtoProperty::kNone;
}

/// Execute `ev` on `st`. The caller guarantees admissibility (the event was
/// enumerated by enabled_events, or vetted by event_admissible); the one
/// deliberate exception is a replayed commit of an already-committed task,
/// which reports kAtMostOnce. Returns kNone or the violated property.
ProtoProperty step(const Ctx& ctx, ProtoState* st, const ProtoEvent& ev,
                   std::string* detail) {
  const ProtocolMutations& mut = ctx.opts->mutations;
  switch (ev.kind) {
    case ProtoEventKind::kCommit: {
      const index_t t = ev.task;
      if (st->committed[static_cast<std::size_t>(t)]) {
        *detail = task_label(ctx, t) +
                  " committed twice: its kernel would apply numerics a "
                  "second time";
        return ProtoProperty::kAtMostOnce;
      }
      for (nnz_t i = ctx.in_ptr[static_cast<std::size_t>(t)];
           i < ctx.in_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
        const nnz_t e = ctx.in_edge[static_cast<std::size_t>(i)];
        if (st->edge[static_cast<std::size_t>(e)] < kEdgeCounted) {
          *detail = task_label(ctx, t) +
                    " became ready before its dependency from " +
                    task_label(ctx, ctx.edge_src[static_cast<std::size_t>(e)]) +
                    " arrived (edge " + std::to_string(e) + ")";
          return ProtoProperty::kPrematureExecute;
        }
      }
      st->committed[static_cast<std::size_t>(t)] = 1;
      st->commits += 1;
      if (!mut.commit_before_publish)
        st->published[static_cast<std::size_t>(t)] = 1;
      const rank_t ro = owner_of_task(ctx, *st, t);
      for (nnz_t e = ctx.g.out_ptr[static_cast<std::size_t>(t)];
           e < ctx.g.out_ptr[static_cast<std::size_t>(t) + 1]; ++e) {
        const index_t d = ctx.g.out_adj[static_cast<std::size_t>(e)];
        if (owner_of_task(ctx, *st, d) == ro) {
          st->edge[static_cast<std::size_t>(e)] = kEdgeCounted;
          if (--st->rem[static_cast<std::size_t>(d)] < 0) {
            *detail = "sync-free counter of " + task_label(ctx, d) +
                      " went negative on local completion of " +
                      task_label(ctx, t);
            return ProtoProperty::kCounterNonNegative;
          }
        } else {
          st->edge[static_cast<std::size_t>(e)] = kEdgeInflight;
        }
      }
      return ProtoProperty::kNone;
    }
    case ProtoEventKind::kDeliver: {
      const nnz_t e = ev.edge;
      const index_t d = ctx.g.out_adj[static_cast<std::size_t>(e)];
      st->edge[static_cast<std::size_t>(e)] = kEdgeCountedMsg;
      st->messages += 1;
      if (--st->rem[static_cast<std::size_t>(d)] < 0) {
        *detail = "sync-free counter of " + task_label(ctx, d) +
                  " went negative on delivery of edge " + std::to_string(e);
        return ProtoProperty::kCounterNonNegative;
      }
      return ProtoProperty::kNone;
    }
    case ProtoEventKind::kDrop:
      st->edge[static_cast<std::size_t>(ev.edge)] = kEdgeLost;
      st->drops_left -= 1;
      return ProtoProperty::kNone;
    case ProtoEventKind::kRetransmit:
      st->edge[static_cast<std::size_t>(ev.edge)] = kEdgeInflight;
      st->retransmits += 1;
      return ProtoProperty::kNone;
    case ProtoEventKind::kDuplicate: {
      st->dups_left -= 1;
      if (mut.skip_ack_dedup) {
        const index_t d = ctx.g.out_adj[static_cast<std::size_t>(ev.edge)];
        if (--st->rem[static_cast<std::size_t>(d)] < 0) {
          *detail = "duplicate delivery of edge " + std::to_string(ev.edge) +
                    " applied twice: sync-free counter of " +
                    task_label(ctx, d) + " went negative";
          return ProtoProperty::kCounterNonNegative;
        }
      } else {
        st->dups_suppressed += 1;
      }
      return ProtoProperty::kNone;
    }
    case ProtoEventKind::kCrash: {
      const rank_t r = ev.rank;
      st->crashes_left -= 1;
      st->crashes += 1;
      st->alive[static_cast<std::size_t>(r)] = 0;
      st->crashed[static_cast<std::size_t>(r)] = 1;
      const block::Mapping before = st->mapping;
      const nnz_t moved = st->mapping.remap_failed_rank(r, st->alive);
      PANGULU_CHECK(moved >= 0, "crash remap found no survivor");
      st->remapped += moved;
      if (mut.crash_remap_drops_block) {
        for (std::size_t pos = 0; pos < before.owner.size(); ++pos)
          if (before.owner[pos] == r) {
            st->mapping.owner[pos] = r;  // seeded bug: one block forgotten
            break;
          }
      }
      return check_totality(ctx, *st,
                            ("crash of rank " + std::to_string(r)).c_str(),
                            detail);
    }
    case ProtoEventKind::kDrain: {
      const rank_t r = ev.rank;
      st->efired[static_cast<std::size_t>(ev.edge)] = 1;
      st->drains += 1;
      st->alive[static_cast<std::size_t>(r)] = 0;
      if (live_count(*st) < ctx.opts->min_ranks) {
        *detail = "drain of rank " + std::to_string(r) +
                  " left " + std::to_string(live_count(*st)) +
                  " live ranks, below min_ranks " +
                  std::to_string(ctx.opts->min_ranks);
        return ProtoProperty::kMinRanksFloor;
      }
      const block::Mapping before = st->mapping;
      std::vector<nnz_t> moved_pos;
      const nnz_t moved = st->mapping.rebalance(r, -1, st->alive, &moved_pos);
      PANGULU_CHECK(moved >= 0, "drain rebalance found no adopter");
      st->migrated += moved;
      if (mut.skip_rebalance_proof) {
        // Seeded bug: the rebalance leaves one block behind AND the I6
        // re-proof that would catch it is skipped.
        if (!moved_pos.empty())
          st->mapping.owner[static_cast<std::size_t>(moved_pos[0])] = r;
      } else {
        Status proof =
            ctx.rebalance_proof(before, st->mapping, r, -1, st->alive);
        if (!proof.is_ok()) {
          *detail = proof.message();
          return ProtoProperty::kMappingTotality;
        }
      }
      return check_totality(ctx, *st,
                            ("drain of rank " + std::to_string(r)).c_str(),
                            detail);
    }
    case ProtoEventKind::kAdd: {
      const rank_t r = ev.rank;
      st->efired[static_cast<std::size_t>(ev.edge)] = 1;
      st->adds += 1;
      st->alive[static_cast<std::size_t>(r)] = 1;
      const block::Mapping before = st->mapping;
      const nnz_t moved = st->mapping.rebalance(r, +1, st->alive);
      PANGULU_CHECK(moved >= 0, "add rebalance failed");
      st->migrated += moved;
      if (!mut.skip_rebalance_proof) {
        Status proof =
            ctx.rebalance_proof(before, st->mapping, r, +1, st->alive);
        if (!proof.is_ok()) {
          *detail = proof.message();
          return ProtoProperty::kMappingTotality;
        }
      }
      return check_totality(ctx, *st,
                            ("add of rank " + std::to_string(r)).c_str(),
                            detail);
    }
    case ProtoEventKind::kCheckpoint: {
      st->ckpts_left -= 1;
      st->ckpts += 1;
      st->last_ckpt = st->commits;
      for (index_t t = 0; t < ctx.nt; ++t)
        if (st->committed[static_cast<std::size_t>(t)] &&
            !st->published[static_cast<std::size_t>(t)]) {
          *detail = "checkpoint at commit " + std::to_string(st->commits) +
                    " covers " + task_label(ctx, t) +
                    " whose ABFT checksum is not yet published: a resume "
                    "could not audit it";
          return ProtoProperty::kCheckpointDurability;
        }
      return ProtoProperty::kNone;
    }
    case ProtoEventKind::kPublish:
      st->published[static_cast<std::size_t>(ev.task)] = 1;
      return ProtoProperty::kNone;
  }
  return ProtoProperty::kNone;
}

/// State-level premature-execution scan: a commit that is *enabled* (the
/// sync-free counter says ready) while one of its inputs has not arrived is
/// already the bug, whether or not the search happens to fire that commit
/// next. In the correct protocol a counter only reaches zero when every
/// in-edge is counted, so this never triggers on healthy runs; under
/// counter-initialisation or dedup mutations it catches the earliest state
/// where a kernel could consume a missing block. Returns the premature
/// commit event through `out` so the counterexample stays replayable (the
/// replayed commit re-detects the violation in step()).
bool premature_ready_commit(const Ctx& ctx, const std::vector<ProtoEvent>& en,
                            const ProtoState& st, ProtoEvent* out,
                            std::string* detail) {
  for (const ProtoEvent& ev : en) {
    if (ev.kind != ProtoEventKind::kCommit) continue;
    for (nnz_t i = ctx.in_ptr[static_cast<std::size_t>(ev.task)];
         i < ctx.in_ptr[static_cast<std::size_t>(ev.task) + 1]; ++i) {
      const nnz_t e = ctx.in_edge[static_cast<std::size_t>(i)];
      if (st.edge[static_cast<std::size_t>(e)] < kEdgeCounted) {
        *out = ev;
        *detail = task_label(ctx, ev.task) +
                  " is ready to execute before its dependency from " +
                  task_label(ctx,
                             ctx.edge_src[static_cast<std::size_t>(e)]) +
                  " arrived (edge " + std::to_string(e) + ")";
        return true;
      }
    }
  }
  return false;
}

/// Terminal-state properties: nothing enabled, so every message must have
/// been applied and every task committed.
ProtoProperty terminal_violation(const Ctx& ctx, const ProtoState& st,
                                 std::string* detail) {
  for (nnz_t e = 0; e < ctx.ne; ++e) {
    const char s = st.edge[static_cast<std::size_t>(e)];
    if (s == kEdgeInflight || s == kEdgeLost) {
      *detail = std::string("terminal state leaves edge ") +
                std::to_string(e) + " from " +
                task_label(ctx, ctx.edge_src[static_cast<std::size_t>(e)]) +
                " to " +
                task_label(ctx,
                           ctx.g.out_adj[static_cast<std::size_t>(e)]) +
                (s == kEdgeLost ? " lost with no retransmit pending"
                                : " still in flight");
      return ProtoProperty::kOrphanMessage;
    }
  }
  index_t missing = 0;
  index_t first = -1;
  for (index_t t = 0; t < ctx.nt; ++t)
    if (!st.committed[static_cast<std::size_t>(t)]) {
      if (first < 0) first = t;
      ++missing;
    }
  if (missing > 0) {
    *detail = "terminal state with " + std::to_string(missing) +
              " uncommitted tasks; first stuck: " + task_label(ctx, first);
    return ProtoProperty::kDeadlock;
  }
  return ProtoProperty::kNone;
}

// --- Independence for sleep sets ---------------------------------------

bool is_global_event(ProtoEventKind k) {
  // Crash/drain/add mutate the mapping (read by every commit's owner
  // lookup); checkpoint reads the global commit counter and publish bits;
  // publish feeds checkpoint. Treating them as dependent with everything is
  // a sound over-approximation and they are rare.
  return k == ProtoEventKind::kCrash || k == ProtoEventKind::kDrain ||
         k == ProtoEventKind::kAdd || k == ProtoEventKind::kCheckpoint ||
         k == ProtoEventKind::kPublish;
}

bool commit_touches_task(const Ctx& ctx, index_t t, index_t x) {
  if (t == x) return true;
  for (nnz_t e = ctx.g.out_ptr[static_cast<std::size_t>(t)];
       e < ctx.g.out_ptr[static_cast<std::size_t>(t) + 1]; ++e)
    if (ctx.g.out_adj[static_cast<std::size_t>(e)] == x) return true;
  return false;
}

bool commit_touches_edge(const Ctx& ctx, index_t t, nnz_t e) {
  return ctx.edge_src[static_cast<std::size_t>(e)] == t ||
         ctx.g.out_adj[static_cast<std::size_t>(e)] == t;
}

struct MsgFoot {
  index_t task = -1;  // rem[] cell written (-1: none)
  nnz_t edge = -1;
  int budget = 0;  // 1: drop budget, 2: duplicate budget
};

MsgFoot msg_foot(const Ctx& ctx, const ProtoEvent& ev) {
  MsgFoot f;
  f.edge = ev.edge;
  switch (ev.kind) {
    case ProtoEventKind::kDeliver:
      f.task = ctx.g.out_adj[static_cast<std::size_t>(ev.edge)];
      break;
    case ProtoEventKind::kDuplicate:
      f.task = ctx.g.out_adj[static_cast<std::size_t>(ev.edge)];
      f.budget = 2;
      break;
    case ProtoEventKind::kDrop:
      f.budget = 1;
      break;
    default:
      break;
  }
  return f;
}

/// Conservative static dependence: two events are independent only when
/// their read/write footprints (task counters+commit bits, edge states,
/// fault budgets) are provably disjoint in every state. Independent events
/// commute and never enable/disable each other, which is what the sleep-set
/// reduction requires.
bool dependent(const Ctx& ctx, const ProtoEvent& a, const ProtoEvent& b) {
  if (is_global_event(a.kind) || is_global_event(b.kind)) return true;
  const bool a_commit = a.kind == ProtoEventKind::kCommit;
  const bool b_commit = b.kind == ProtoEventKind::kCommit;
  if (a_commit && b_commit) {
    if (commit_touches_task(ctx, a.task, b.task) ||
        commit_touches_task(ctx, b.task, a.task))
      return true;
    // Shared dependent: both decrement the same downstream counter.
    for (nnz_t ea = ctx.g.out_ptr[static_cast<std::size_t>(a.task)];
         ea < ctx.g.out_ptr[static_cast<std::size_t>(a.task) + 1]; ++ea)
      for (nnz_t eb = ctx.g.out_ptr[static_cast<std::size_t>(b.task)];
           eb < ctx.g.out_ptr[static_cast<std::size_t>(b.task) + 1]; ++eb)
        if (ctx.g.out_adj[static_cast<std::size_t>(ea)] ==
            ctx.g.out_adj[static_cast<std::size_t>(eb)])
          return true;
    return false;
  }
  if (a_commit || b_commit) {
    const index_t t = a_commit ? a.task : b.task;
    const MsgFoot f = msg_foot(ctx, a_commit ? b : a);
    if (commit_touches_edge(ctx, t, f.edge)) return true;
    if (f.task >= 0 && commit_touches_task(ctx, t, f.task)) return true;
    return false;
  }
  const MsgFoot fa = msg_foot(ctx, a);
  const MsgFoot fb = msg_foot(ctx, b);
  if (fa.edge == fb.edge) return true;
  if (fa.task >= 0 && fa.task == fb.task) return true;
  if (fa.budget != 0 && fa.budget == fb.budget) return true;
  return false;
}

std::vector<ProtoEvent> subtract(const std::vector<ProtoEvent>& from,
                                 const std::vector<ProtoEvent>& minus) {
  std::vector<ProtoEvent> out;
  out.reserve(from.size());
  for (const ProtoEvent& e : from)
    if (std::find(minus.begin(), minus.end(), e) == minus.end())
      out.push_back(e);
  return out;
}

std::vector<ProtoEvent> intersect(const std::vector<ProtoEvent>& a,
                                  const std::vector<ProtoEvent>& b) {
  std::vector<ProtoEvent> out;
  for (const ProtoEvent& e : a)
    if (std::find(b.begin(), b.end(), e) != b.end()) out.push_back(e);
  return out;
}

// --- Replay (shared by the minimiser and tests) ------------------------

bool event_admissible(const Ctx& ctx, const ProtoState& st,
                      const ProtoEvent& ev, std::string* why) {
  const ProtocolMutations& mut = ctx.opts->mutations;
  auto fail = [&](const std::string& m) {
    *why = m;
    return false;
  };
  switch (ev.kind) {
    case ProtoEventKind::kCommit: {
      if (ev.task < 0 || ev.task >= ctx.nt)
        return fail("commit of out-of-range task");
      if (st.rem[static_cast<std::size_t>(ev.task)] > 0)
        return fail(
            task_label(ctx, ev.task) + " is not ready (counter " +
            std::to_string(st.rem[static_cast<std::size_t>(ev.task)]) + ")");
      const rank_t o = owner_of_task(ctx, st, ev.task);
      if (!st.alive[static_cast<std::size_t>(o)])
        return fail(task_label(ctx, ev.task) + " owned by dead rank " +
                    std::to_string(o));
      return true;  // already-committed allowed: surfaces kAtMostOnce
    }
    case ProtoEventKind::kDeliver:
    case ProtoEventKind::kDrop:
      if (ev.edge < 0 || ev.edge >= ctx.ne)
        return fail("message event on out-of-range edge");
      if (st.edge[static_cast<std::size_t>(ev.edge)] != kEdgeInflight)
        return fail("edge " + std::to_string(ev.edge) + " is not in flight");
      if (ev.kind == ProtoEventKind::kDrop && st.drops_left <= 0)
        return fail("drop budget exhausted");
      return true;
    case ProtoEventKind::kRetransmit:
      if (ev.edge < 0 || ev.edge >= ctx.ne)
        return fail("retransmit of out-of-range edge");
      if (mut.skip_retransmit)
        return fail("retransmit disabled by skip_retransmit mutation");
      if (st.edge[static_cast<std::size_t>(ev.edge)] != kEdgeLost)
        return fail("edge " + std::to_string(ev.edge) + " is not lost");
      return true;
    case ProtoEventKind::kDuplicate:
      if (ev.edge < 0 || ev.edge >= ctx.ne)
        return fail("duplicate of out-of-range edge");
      if (st.edge[static_cast<std::size_t>(ev.edge)] != kEdgeCountedMsg)
        return fail("edge " + std::to_string(ev.edge) +
                    " has no applied message to duplicate");
      if (st.dups_left <= 0) return fail("duplicate budget exhausted");
      return true;
    case ProtoEventKind::kCrash:
      if (ev.rank < 0 || ev.rank >= ctx.n_ranks)
        return fail("crash of out-of-range rank");
      if (st.crashes_left <= 0) return fail("crash budget exhausted");
      if (!st.alive[static_cast<std::size_t>(ev.rank)])
        return fail("rank " + std::to_string(ev.rank) + " is already dead");
      if (live_count(st) < 2) return fail("no survivor would remain");
      return true;
    case ProtoEventKind::kDrain:
    case ProtoEventKind::kAdd: {
      const bool is_add = ev.kind == ProtoEventKind::kAdd;
      if (ev.edge < 0 ||
          ev.edge >= static_cast<nnz_t>(ctx.opts->elastic.size()))
        return fail("elastic event references out-of-range plan entry");
      const ModelOptions::ElasticEvent& pe =
          ctx.opts->elastic[static_cast<std::size_t>(ev.edge)];
      if (pe.is_add != is_add)
        return fail("elastic plan entry kind mismatch");
      if (ev.rank >= 0 && ev.rank != pe.rank)
        return fail("elastic plan entry rank mismatch");
      if (st.efired[static_cast<std::size_t>(ev.edge)])
        return fail("elastic plan entry already fired");
      if (st.commits < pe.at_commit)
        return fail("elastic plan entry not yet eligible (commits " +
                    std::to_string(st.commits) + " < " +
                    std::to_string(pe.at_commit) + ")");
      if (is_add) {
        if (st.alive[static_cast<std::size_t>(pe.rank)])
          return fail("rank to add is already live");
        if (st.crashed[static_cast<std::size_t>(pe.rank)])
          return fail("rank to add has crashed");
      } else {
        if (!st.alive[static_cast<std::size_t>(pe.rank)])
          return fail("rank to drain is not live");
        if (!mut.drain_ignores_min_ranks &&
            live_count(st) - 1 < ctx.opts->min_ranks)
          return fail("drain would violate min_ranks");
      }
      return true;
    }
    case ProtoEventKind::kCheckpoint:
      if (st.ckpts_left <= 0) return fail("checkpoint budget exhausted");
      if (st.commits <= st.last_ckpt)
        return fail("no new commits since the last checkpoint");
      return true;
    case ProtoEventKind::kPublish:
      if (!mut.commit_before_publish)
        return fail("publish events only exist under commit_before_publish");
      if (ev.task < 0 || ev.task >= ctx.nt)
        return fail("publish of out-of-range task");
      if (!st.committed[static_cast<std::size_t>(ev.task)])
        return fail("publish of uncommitted task");
      if (st.published[static_cast<std::size_t>(ev.task)])
        return fail("task already published");
      return true;
  }
  return fail("unknown event kind");
}

void fill_counters(const ProtoState& st, ReplayResult* rr) {
  rr->commits = st.commits;
  rr->messages = st.messages;
  rr->retransmits = st.retransmits;
  rr->duplicates_suppressed = st.dups_suppressed;
  rr->rank_crashes = st.crashes;
  rr->ranks_drained = st.drains;
  rr->ranks_added = st.adds;
  rr->checkpoints = st.ckpts;
  rr->remapped_blocks = st.remapped;
  rr->migrated_blocks = st.migrated;
}

}  // namespace

template <class BM>
ReplayResult replay_schedule(const BM& bm,
                             const std::vector<block::Task>& tasks,
                             const block::Mapping& mapping,
                             const ModelOptions& opts,
                             const std::vector<ProtoEvent>& schedule) {
  ReplayResult rr;
  // A counterexample must never be rejected by the budget that found it:
  // raise each fault budget to what the schedule actually spends.
  ModelOptions ro = opts;
  int drops = 0, dups = 0, crashes = 0, ckpts = 0;
  for (const ProtoEvent& e : schedule) {
    drops += e.kind == ProtoEventKind::kDrop ? 1 : 0;
    dups += e.kind == ProtoEventKind::kDuplicate ? 1 : 0;
    crashes += e.kind == ProtoEventKind::kCrash ? 1 : 0;
    ckpts += e.kind == ProtoEventKind::kCheckpoint ? 1 : 0;
  }
  ro.max_drops = std::max(ro.max_drops, drops);
  ro.max_duplicates = std::max(ro.max_duplicates, dups);
  ro.max_crashes = std::max(ro.max_crashes, crashes);
  ro.max_checkpoints = std::max(ro.max_checkpoints, ckpts);

  Ctx ctx;
  Status s = init_ctx(bm, tasks, mapping, ro, &ctx);
  if (!s.is_ok()) {
    rr.feasible = false;
    rr.infeasible_reason = s.message();
    return rr;
  }
  ProtoState st;
  s = init_state(ctx, mapping, &st);
  if (!s.is_ok()) {
    rr.feasible = false;
    rr.infeasible_reason = s.message();
    return rr;
  }

  std::string why;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ProtoEvent& ev = schedule[i];
    if (!event_admissible(ctx, st, ev, &why)) {
      rr.feasible = false;
      rr.infeasible_reason = "schedule step " + std::to_string(i) + " (" +
                             to_string(ev) + ") is not admissible: " + why;
      fill_counters(st, &rr);
      return rr;
    }
    std::string detail;
    const ProtoProperty prop = step(ctx, &st, ev, &detail);
    rr.applied = i + 1;
    if (prop != ProtoProperty::kNone) {
      rr.property = prop;
      rr.detail = detail + " (schedule step " + std::to_string(i) + ": " +
                  to_string(ev) + ")";
      fill_counters(st, &rr);
      return rr;
    }
  }

  std::vector<ProtoEvent> en;
  enabled_events(ctx, st, &en);
  rr.terminal = en.empty();
  if (rr.terminal) {
    std::string detail;
    const ProtoProperty prop = terminal_violation(ctx, st, &detail);
    if (prop != ProtoProperty::kNone) {
      rr.property = prop;
      rr.detail = detail;
    }
  }
  rr.all_committed =
      std::all_of(st.committed.begin(), st.committed.end(),
                  [](char c) { return c != 0; });
  fill_counters(st, &rr);
  return rr;
}

namespace {

/// Greedy delta debugging to a 1-minimal schedule: repeatedly drop any
/// single event whose removal still replays to the same violated property.
/// Replay is the oracle, so minimisation can never "improve" a schedule
/// into a different bug.
template <class BM>
void minimise_counterexample(const BM& bm,
                             const std::vector<block::Task>& tasks,
                             const block::Mapping& mapping,
                             const ModelOptions& opts, Counterexample* cex) {
  constexpr std::size_t kMaxReplays = 4096;
  std::size_t replays = 0;
  bool improved = true;
  while (improved && replays < kMaxReplays) {
    improved = false;
    for (std::size_t i = 0; i < cex->schedule.size(); ++i) {
      std::vector<ProtoEvent> cand = cex->schedule;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      const ReplayResult rr = replay_schedule(bm, tasks, mapping, opts, cand);
      ++replays;
      if (rr.feasible && rr.property == cex->property) {
        cex->schedule = std::move(cand);
        cex->detail = rr.detail;
        improved = true;
        break;
      }
      if (replays >= kMaxReplays) break;
    }
  }
}

}  // namespace

template <class BM>
Status model_check(const BM& bm, const std::vector<block::Task>& tasks,
                   const block::Mapping& mapping, const ModelOptions& opts,
                   ModelCheckResult* result) {
  PANGULU_CHECK(result != nullptr, "model_check needs a result sink");
  *result = ModelCheckResult{};
  const auto t0 = std::chrono::steady_clock::now();
  auto stamp = [&] {
    result->stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  Ctx ctx;
  Status s = init_ctx(bm, tasks, mapping, opts, &ctx);
  if (!s.is_ok()) return s;
  ProtoState init;
  s = init_state(ctx, mapping, &init);
  if (!s.is_ok()) return s;

  struct Frame {
    ProtoState st;
    std::vector<ProtoEvent> to_explore;
    std::vector<ProtoEvent> sleep;
    std::vector<ProtoEvent> explored;
    std::size_t idx = 0;
    bool has_via = false;
  };

  // State cache: serialized state -> the sleep set it was explored with.
  // Revisiting with a smaller sleep set re-explores exactly the difference
  // (the standard cache+sleep interaction); the stored set shrinks
  // monotonically, so the search terminates.
  std::unordered_map<std::string, std::vector<ProtoEvent>> visited;
  std::vector<Frame> stack;
  std::vector<ProtoEvent> path;
  ModelStats& stats = result->stats;
  bool truncated = false;

  auto finish_violation = [&](ProtoProperty prop, std::string detail,
                              const ProtoEvent* last,
                              const ProtoEvent* extra = nullptr) {
    result->violation = true;
    result->cex.property = prop;
    result->cex.detail = std::move(detail);
    result->cex.schedule = path;
    if (last != nullptr) result->cex.schedule.push_back(*last);
    if (extra != nullptr) result->cex.schedule.push_back(*extra);
    minimise_counterexample(bm, tasks, mapping, opts, &result->cex);
    stamp();
    return Status::ok();
  };

  {
    std::string key;
    serialize(init, &key);
    std::vector<ProtoEvent> en;
    enabled_events(ctx, init, &en);
    stats.states = 1;
    stats.naive_transitions += en.size();
    visited.emplace(std::move(key), std::vector<ProtoEvent>{});
    if (en.empty()) {
      std::string detail;
      const ProtoProperty prop = terminal_violation(ctx, init, &detail);
      if (prop != ProtoProperty::kNone)
        return finish_violation(prop, std::move(detail), nullptr);
      stats.terminal_states = 1;
      result->complete = true;
      stamp();
      return Status::ok();
    }
    {
      ProtoEvent bad;
      std::string detail;
      if (premature_ready_commit(ctx, en, init, &bad, &detail))
        return finish_violation(ProtoProperty::kPrematureExecute,
                                std::move(detail), &bad);
    }
    Frame root;
    root.st = std::move(init);
    root.to_explore = std::move(en);
    stack.push_back(std::move(root));
  }

  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.idx >= f.to_explore.size()) {
      if (f.has_via) path.pop_back();
      stack.pop_back();
      continue;
    }
    const ProtoEvent a = f.to_explore[f.idx++];

    ProtoState child = f.st;
    std::string detail;
    const ProtoProperty prop = step(ctx, &child, a, &detail);
    stats.transitions += 1;
    if (prop != ProtoProperty::kNone)
      return finish_violation(prop, std::move(detail), &a);

    std::vector<ProtoEvent> child_sleep;
    if (opts.partial_order_reduction) {
      for (const ProtoEvent& b : f.sleep)
        if (!dependent(ctx, a, b)) child_sleep.push_back(b);
      for (const ProtoEvent& b : f.explored)
        if (!dependent(ctx, a, b)) child_sleep.push_back(b);
    }
    f.explored.push_back(a);

    std::string key;
    serialize(child, &key);
    auto it = visited.find(key);
    if (it == visited.end()) {
      if (visited.size() >= opts.max_states) {
        truncated = true;
        break;
      }
      std::vector<ProtoEvent> en;
      enabled_events(ctx, child, &en);
      stats.states += 1;
      stats.naive_transitions += en.size();
      if (en.empty()) {
        visited.emplace(std::move(key), std::vector<ProtoEvent>{});
        const ProtoProperty tprop = terminal_violation(ctx, child, &detail);
        if (tprop != ProtoProperty::kNone)
          return finish_violation(tprop, std::move(detail), &a);
        stats.terminal_states += 1;
        continue;
      }
      {
        ProtoEvent bad;
        if (premature_ready_commit(ctx, en, child, &bad, &detail))
          return finish_violation(ProtoProperty::kPrematureExecute,
                                  std::move(detail), &a, &bad);
      }
      std::vector<ProtoEvent> to = subtract(en, child_sleep);
      stats.sleep_pruned += en.size() - to.size();
      visited.emplace(std::move(key), child_sleep);
      if (to.empty()) continue;
      Frame nf;
      nf.st = std::move(child);
      nf.to_explore = std::move(to);
      nf.sleep = std::move(child_sleep);
      nf.has_via = true;
      stack.push_back(std::move(nf));
      path.push_back(a);
      stats.peak_depth = std::max(stats.peak_depth, path.size());
    } else {
      stats.revisits += 1;
      // Events the stored visit slept through but we would not: they were
      // never explored from this state and must be now.
      std::vector<ProtoEvent> re = subtract(it->second, child_sleep);
      it->second = intersect(it->second, child_sleep);
      if (re.empty()) continue;
      Frame nf;
      nf.st = std::move(child);
      nf.to_explore = std::move(re);
      nf.sleep = std::move(child_sleep);
      nf.has_via = true;
      stack.push_back(std::move(nf));
      path.push_back(a);
      stats.peak_depth = std::max(stats.peak_depth, path.size());
    }
  }

  stamp();
  result->complete = !truncated;
  if (truncated)
    return Status::resource_exhausted(
        "model check state budget exhausted after " +
        std::to_string(stats.states) + " states / " +
        std::to_string(stats.transitions) +
        " transitions without a conclusion");
  return Status::ok();
}

template <class BM>
std::vector<ProtoEvent> sample_complete_schedule(
    const BM& bm, const std::vector<block::Task>& tasks,
    const block::Mapping& mapping, const ModelOptions& opts) {
  PANGULU_CHECK(!opts.mutations.any(),
                "sample_complete_schedule expects an unmutated protocol");
  Ctx ctx;
  init_ctx(bm, tasks, mapping, opts, &ctx).check();
  ProtoState st;
  init_state(ctx, mapping, &st).check();

  std::vector<ProtoEvent> schedule;
  std::vector<ProtoEvent> en;
  const std::size_t guard = (static_cast<std::size_t>(ctx.nt) +
                             static_cast<std::size_t>(ctx.ne)) *
                                4 +
                            opts.elastic.size() * 2 + 64;
  for (std::size_t iter = 0; iter < guard; ++iter) {
    enabled_events(ctx, st, &en);
    const ProtoEvent* pick = nullptr;
    for (const ProtoEvent& e : en) {
      if (e.kind == ProtoEventKind::kCommit ||
          e.kind == ProtoEventKind::kDeliver ||
          e.kind == ProtoEventKind::kRetransmit ||
          e.kind == ProtoEventKind::kDrain ||
          e.kind == ProtoEventKind::kAdd) {
        pick = &e;
        break;
      }
    }
    if (pick == nullptr) break;
    std::string detail;
    const ProtoProperty prop = step(ctx, &st, *pick, &detail);
    PANGULU_CHECK(prop == ProtoProperty::kNone,
                  "fault-free sample schedule hit a violation: " + detail);
    schedule.push_back(*pick);
  }
  PANGULU_CHECK(std::all_of(st.committed.begin(), st.committed.end(),
                            [](char c) { return c != 0; }),
                "fault-free sample schedule did not commit every task");
  return schedule;
}

template Status model_check(const block::BlockMatrixT<float>&,
                            const std::vector<block::Task>&,
                            const block::Mapping&, const ModelOptions&,
                            ModelCheckResult*);
template Status model_check(const block::BlockMatrixT<double>&,
                            const std::vector<block::Task>&,
                            const block::Mapping&, const ModelOptions&,
                            ModelCheckResult*);
template ReplayResult replay_schedule(const block::BlockMatrixT<float>&,
                                      const std::vector<block::Task>&,
                                      const block::Mapping&,
                                      const ModelOptions&,
                                      const std::vector<ProtoEvent>&);
template ReplayResult replay_schedule(const block::BlockMatrixT<double>&,
                                      const std::vector<block::Task>&,
                                      const block::Mapping&,
                                      const ModelOptions&,
                                      const std::vector<ProtoEvent>&);
template std::vector<ProtoEvent> sample_complete_schedule(
    const block::BlockMatrixT<float>&, const std::vector<block::Task>&,
    const block::Mapping&, const ModelOptions&);
template std::vector<ProtoEvent> sample_complete_schedule(
    const block::BlockMatrixT<double>&, const std::vector<block::Task>&,
    const block::Mapping&, const ModelOptions&);

}  // namespace pangulu::analysis
