// Planned capacity changes for the simulated cluster.
//
// An ElasticPlan describes rank shrink/grow events pinned to canonical
// commit counts — the DES analogue of an operator draining a node for
// maintenance or attaching a fresh one mid-run. Unlike FaultPlan crashes
// (unplanned, detected by timeout, state lost), elastic events are
// cooperative: the runtime quiesces the affected rank at the next task-graph
// safe point, migrates the minimal set of blocks with
// Mapping::rebalance (bounded movement, not a full remap), replays each
// migrated block's state to its new owner, and re-proves the mapping with
// analysis::verify_rebalance before continuing. Numerics run on the
// numeric engine, independent of the simulated cluster, so any valid plan
// yields bitwise-identical LU factors to the static-grid run; only makespan, traffic, and the final
// owner map change.
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
