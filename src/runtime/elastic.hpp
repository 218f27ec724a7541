// Planned capacity changes for the simulated cluster.
//
// An ElasticPlan describes rank shrink/grow events pinned to canonical
// commit counts — the DES analogue of an operator draining a node for
// maintenance or attaching a fresh one mid-run. Unlike FaultPlan crashes
// (unplanned, detected by timeout, state lost), elastic events are
// cooperative: at the next task-graph safe point the affected rank is
// quiesced, Mapping::rebalance moves the minimal set of blocks (bounded
// movement, not a full remap), and analysis::verify_rebalance re-proves the
// mapping. Every DES replay — both factorisation schedulers and the solve
// replay — fires steps() through one protocol, runtime/cluster.hpp. Numerics
// run independently of the simulated cluster, so any valid plan yields
// bitwise-identical LU factors and solutions to the static-grid run; only
// makespan, traffic, and the final owner map change.
//
// Graceful degradation is part of the contract: a drain that would leave
// fewer than min_ranks live ranks is rejected with
// StatusCode::kResourceExhausted (load shedding) instead of deadlocking.
#pragma once

#include <vector>

#include "util/status.hpp"
#include "util/types.hpp"

namespace pangulu::runtime {

struct ElasticPlan {
  /// One capacity-change event, fired at the first safe point at or after
  /// `at_commit` canonical task commits (0 = before any task runs).
  struct Event {
    rank_t rank = 0;
    index_t at_commit = 0;
  };

  /// Ranks leaving the cluster (drained: quiesced, blocks migrated away).
  std::vector<Event> drains;
  /// Ranks joining the cluster. A rank whose *first* event is an add starts
  /// the run inactive (a provisioned-but-idle slot); a drained rank may be
  /// re-added later. Adds steal blocks from the most-loaded live ranks.
  std::vector<Event> adds;
  /// Floor on the live rank count. A drain (planned, not a crash) that
  /// would go below this is rejected with kResourceExhausted.
  rank_t min_ranks = 1;

  bool empty() const { return drains.empty() && adds.empty(); }

  /// One event of the plan, flattened.
  struct Step {
    index_t at_commit;
    rank_t rank;
    bool is_add;
  };
  /// Every event in firing order: at_commit ascending, adds before drains on
  /// equal commits (a same-instant swap never dips the live count), listing
  /// order within each kind. validate() walks this order and every DES
  /// replay fires it.
  std::vector<Step> steps() const;

  /// Structural sanity against a cluster size: rank ids in range, commit
  /// indices non-negative, 1 <= min_ranks <= n_ranks, and a chronological
  /// walk of the active set never drains an inactive rank, adds an active
  /// one, or (kResourceExhausted) dips below min_ranks.
  Status validate(rank_t n_ranks) const;

  /// Which ranks are live before the first task commits: everyone except
  /// ranks whose first scheduled event is an add.
  std::vector<char> initially_active(rank_t n_ranks) const;
};

}  // namespace pangulu::runtime
