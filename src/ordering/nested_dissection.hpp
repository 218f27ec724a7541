// Nested dissection ordering — the METIS substitute of this reproduction.
// Recursive graph bisection with multilevel and BFS level-set separators and
// minimum-degree leaf ordering; separators are numbered last, which is what
// bounds fill. Independent subtrees of the separator tree run on a thread
// pool; every node's positions are fixed by its offset in the ordering, so
// the permutation is the same at any pool size.
#pragma once

#include <vector>

#include "ordering/graph.hpp"
#include "util/types.hpp"

namespace pangulu {
class ThreadPool;
}

namespace pangulu::ordering {

struct NdOptions {
  index_t leaf_size = 64;   // subgraphs at or below this use minimum degree
  int max_depth = 32;       // recursion guard
  /// Multilevel bisection (heavy-edge matching + FM refinement, the METIS
  /// recipe) instead of plain BFS level-set splitting. Better separators,
  /// slightly more preprocessing time.
  bool use_multilevel = true;
};

/// Returns perm with perm[old] = new. The top levels of the separator tree
/// split level by level on `pool` (nullptr: the global pool), then each
/// remaining subtree is one task, largest first. Must not be called from a
/// task of the same pool. An exception from a subtree reaches the caller:
/// the one the serial recursion would have met first.
std::vector<index_t> nested_dissection(const Graph& g,
                                       const NdOptions& opts = {},
                                       ThreadPool* pool = nullptr);

}  // namespace pangulu::ordering
