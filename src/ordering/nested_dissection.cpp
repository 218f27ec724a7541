#include "ordering/nested_dissection.hpp"

#include <algorithm>
#include <exception>
#include <numeric>

#include "ordering/min_degree.hpp"
#include "ordering/multilevel.hpp"
#include "parallel/partition.hpp"

namespace pangulu::ordering {

namespace {

/// BFS level structure from `start`, restricted to the whole (sub)graph.
/// Returns levels per vertex and the visit order, which doubles as the queue.
void bfs_levels(const Graph& g, index_t start, std::vector<index_t>* level,
                std::vector<index_t>* order) {
  level->assign(static_cast<std::size_t>(g.n), -1);
  order->clear();
  order->push_back(start);
  (*level)[static_cast<std::size_t>(start)] = 0;
  for (std::size_t head = 0; head < order->size(); ++head) {
    const index_t v = (*order)[head];
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      index_t w = g.adj[static_cast<std::size_t>(p)];
      if ((*level)[static_cast<std::size_t>(w)] < 0) {
        (*level)[static_cast<std::size_t>(w)] = (*level)[static_cast<std::size_t>(v)] + 1;
        order->push_back(w);
      }
    }
  }
}

/// Pseudo-peripheral vertex: start anywhere, repeatedly jump to the deepest
/// BFS level's minimum-degree vertex until eccentricity stops growing.
index_t pseudo_peripheral(const Graph& g, index_t start) {
  std::vector<index_t> level, order;
  index_t v = start;
  index_t ecc = -1;
  for (int iter = 0; iter < 8; ++iter) {
    bfs_levels(g, v, &level, &order);
    index_t max_level = 0;
    for (index_t w : order)
      max_level = std::max(max_level, level[static_cast<std::size_t>(w)]);
    if (max_level <= ecc) break;
    ecc = max_level;
    // deepest-level vertex with minimum degree
    index_t best = -1;
    for (index_t w : order) {
      if (level[static_cast<std::size_t>(w)] == max_level &&
          (best < 0 || g.degree(w) < g.degree(best)))
        best = w;
    }
    v = best;
  }
  return v;
}

/// One node of the separator tree: a subgraph (local ids), its local->global
/// vertex map, and the first elimination position of its subtree. A node
/// with range [start, start + g.n) gives its A side [start, start + |A|),
/// its B side the next |B| positions and its separator the last ones, so
/// every position is fixed by the offsets alone, whatever order the nodes
/// run in.
struct NdNode {
  Graph g;
  std::vector<index_t> to_global;
  index_t start = 0;
  int depth = 0;
};

/// Orders a whole subgraph by minimum degree at positions start, start+1, ...
void order_by_min_degree(const Graph& g, const std::vector<index_t>& to_global,
                         index_t start, std::vector<index_t>* perm) {
  const std::vector<index_t> local = min_degree(g);
  for (index_t v = 0; v < g.n; ++v)
    (*perm)[static_cast<std::size_t>(to_global[static_cast<std::size_t>(v)])] =
        start + local[static_cast<std::size_t>(v)];
}

/// Splits one node: either orders it as a leaf (no children) or numbers its
/// separator at the end of its range and appends its A and B children to
/// `children`. Touches only perm entries of the node's own vertices.
void split_node(const Graph& g, const std::vector<index_t>& local_to_global,
                index_t start, int depth, const NdOptions& opts,
                std::vector<index_t>* perm, std::vector<NdNode>* children) {
  if (g.n == 0) return;
  if (g.n <= opts.leaf_size || depth >= opts.max_depth) {
    order_by_min_degree(g, local_to_global, start, perm);
    return;
  }

  // Multilevel candidate: METIS-style bisection, vertex separator from the
  // cut. Compared below against the BFS level-set candidate; the split with
  // the smaller separator wins (on meshes the BFS "straight line" is often
  // unbeatable, on irregular graphs the multilevel cut usually is).
  std::vector<index_t> ml_a, ml_b, ml_sep;
  bool have_ml = false;
  if (opts.use_multilevel) {
    MultilevelOptions mlo;
    mlo.seed = static_cast<std::uint64_t>(depth) * 7919 + 17;
    Bisection bis = multilevel_bisect(g, mlo);
    ml_sep = separator_from_cut(g, bis);
    std::vector<char> in_sep(static_cast<std::size_t>(g.n), 0);
    for (index_t v : ml_sep) in_sep[static_cast<std::size_t>(v)] = 1;
    for (index_t v = 0; v < g.n; ++v) {
      if (in_sep[static_cast<std::size_t>(v)]) continue;
      (bis.side[static_cast<std::size_t>(v)] == 0 ? ml_a : ml_b).push_back(v);
    }
    have_ml = !ml_a.empty() && !ml_b.empty();
  }

  // Handle disconnected pieces: bisect the component of a pseudo-peripheral
  // vertex; unreached vertices join side B.
  index_t src = pseudo_peripheral(g, 0);
  std::vector<index_t> level, order;
  bfs_levels(g, src, &level, &order);

  index_t max_level = 0;
  for (index_t w : order)
    max_level = std::max(max_level, level[static_cast<std::size_t>(w)]);

  // Choose the split level so that ~half the visited vertices are below it.
  std::vector<index_t> level_count(static_cast<std::size_t>(max_level) + 1, 0);
  for (index_t w : order) level_count[static_cast<std::size_t>(level[static_cast<std::size_t>(w)])]++;
  index_t half = static_cast<index_t>(order.size()) / 2;
  index_t split = 0, acc = 0;
  for (index_t l = 0; l <= max_level; ++l) {
    acc += level_count[static_cast<std::size_t>(l)];
    split = l;
    if (acc >= half) break;
  }

  // side A: level < split; separator: level == split; side B: level > split
  // plus any unvisited vertices (other components).
  std::vector<index_t> a_verts, b_verts, s_verts;
  for (index_t v = 0; v < g.n; ++v) {
    index_t l = level[static_cast<std::size_t>(v)];
    if (l < 0 || l > split)
      b_verts.push_back(v);
    else if (l < split)
      a_verts.push_back(v);
    else
      s_verts.push_back(v);
  }

  // Thin the separator: a level-set separator can contain vertices with no
  // neighbour in A; those can safely move to B (still no A-B edge).
  std::vector<char> in_a(static_cast<std::size_t>(g.n), 0);
  for (index_t v : a_verts) in_a[static_cast<std::size_t>(v)] = 1;
  std::vector<index_t> s_final;
  for (index_t v : s_verts) {
    bool touches_a = false;
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      if (in_a[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(p)])]) {
        touches_a = true;
        break;
      }
    }
    if (touches_a)
      s_final.push_back(v);
    else
      b_verts.push_back(v);
  }

  if ((a_verts.empty() || b_verts.empty()) && have_ml) {
    // BFS failed to split but the multilevel candidate can.
    a_verts = std::move(ml_a);
    b_verts = std::move(ml_b);
    s_final = std::move(ml_sep);
    have_ml = false;
  }
  if (a_verts.empty() || b_verts.empty()) {
    // Degenerate cut (e.g. a clique): stop recursing, order with min degree.
    order_by_min_degree(g, local_to_global, start, perm);
    return;
  }

  // Pick the candidate with the smaller separator (ties: better balance).
  if (have_ml) {
    const auto bfs_sep = s_final.size();
    const auto ml_sep_sz = ml_sep.size();
    const auto bfs_imbalance =
        std::max(a_verts.size(), b_verts.size());
    const auto ml_imbalance = std::max(ml_a.size(), ml_b.size());
    if (ml_sep_sz < bfs_sep ||
        (ml_sep_sz == bfs_sep && ml_imbalance < bfs_imbalance)) {
      a_verts = std::move(ml_a);
      b_verts = std::move(ml_b);
      s_final = std::move(ml_sep);
    }
  }

  // Separator last: the end of this node's range.
  index_t pos = start + static_cast<index_t>(a_verts.size() + b_verts.size());
  for (index_t v : s_final)
    (*perm)[static_cast<std::size_t>(
        local_to_global[static_cast<std::size_t>(v)])] = pos++;

  auto child = [&](const std::vector<index_t>& locals, index_t child_start) {
    NdNode c;
    c.g = g.induced(locals, nullptr);
    c.to_global.reserve(locals.size());
    for (index_t v : locals)
      c.to_global.push_back(local_to_global[static_cast<std::size_t>(v)]);
    c.start = child_start;
    c.depth = depth + 1;
    children->push_back(std::move(c));
  };
  child(a_verts, start);
  child(b_verts, start + static_cast<index_t>(a_verts.size()));
}

/// The failure a serial run would have reported: among the nodes that
/// threw, the first in the serial visit order (parent before children, A
/// before B), which is the smallest (start, depth).
class FirstFailure {
 public:
  void record(const NdNode& node, std::exception_ptr error)
      PANGULU_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (!error_ || node.start < start_ ||
        (node.start == start_ && node.depth < depth_)) {
      error_ = std::move(error);
      start_ = node.start;
      depth_ = node.depth;
    }
  }
  /// Call once no task is running.
  void rethrow() PANGULU_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Mutex mu_;
  std::exception_ptr error_ PANGULU_GUARDED_BY(mu_);
  index_t start_ PANGULU_GUARDED_BY(mu_) = 0;
  int depth_ PANGULU_GUARDED_BY(mu_) = 0;
};

/// split_node that never throws: a failure is recorded and the node gets no
/// children, since pool tasks must not throw.
void split_or_record(const NdNode& node, const NdOptions& opts,
                     std::vector<index_t>* perm, std::vector<NdNode>* children,
                     FirstFailure* failure) {
  try {
    split_node(node.g, node.to_global, node.start, node.depth, opts, perm,
               children);
  } catch (...) {
    children->clear();
    failure->record(node, std::current_exception());
  }
}

/// Orders a whole subtree on the calling thread, releasing each node's
/// graph before descending into its children.
void order_subtree(NdNode node, const NdOptions& opts,
                   std::vector<index_t>* perm, FirstFailure* failure) {
  std::vector<NdNode> children;
  split_or_record(node, opts, perm, &children, failure);
  node = NdNode{};
  for (NdNode& c : children) order_subtree(std::move(c), opts, perm, failure);
}

}  // namespace

std::vector<index_t> nested_dissection(const Graph& g, const NdOptions& opts,
                                       ThreadPool* pool) {
  ThreadPool& tp = effective_pool(pool);
  std::vector<index_t> perm(static_cast<std::size_t>(g.n), -1);
  FirstFailure failure;

  // The root splits on the caller: its failure is the first in any order.
  std::vector<index_t> identity(static_cast<std::size_t>(g.n));
  std::iota(identity.begin(), identity.end(), index_t(0));
  std::vector<NdNode> frontier;
  split_node(g, identity, 0, 0, opts, &perm, &frontier);

  // The next levels of the separator tree, level by level: each level's
  // nodes split in parallel, until there are enough subtrees to keep every
  // worker busy.
  // No task issues a parallel_for of its own: a waiter spins on tasks that
  // the busy workers could never pick up.
  const std::size_t wide = 4 * tp.size();
  while (!frontier.empty() && frontier.size() < wide) {
    std::vector<std::vector<NdNode>> kids(frontier.size());
    parallel_for(tp, 0, static_cast<index_t>(frontier.size()), [&](index_t i) {
      const auto k = static_cast<std::size_t>(i);
      split_or_record(frontier[k], opts, &perm, &kids[k], &failure);
    }, 1);
    frontier.clear();
    for (auto& list : kids)
      for (NdNode& c : list) frontier.push_back(std::move(c));
  }

  // Then one task per remaining subtree, largest first.
  std::stable_sort(frontier.begin(), frontier.end(),
                   [](const NdNode& x, const NdNode& y) {
                     return x.g.n > y.g.n;
                   });
  parallel_for(tp, 0, static_cast<index_t>(frontier.size()), [&](index_t i) {
    order_subtree(std::move(frontier[static_cast<std::size_t>(i)]), opts, &perm,
                  &failure);
  }, 1);

  failure.rethrow();
  PANGULU_CHECK(std::find(perm.begin(), perm.end(), index_t(-1)) == perm.end(),
                "nested dissection did not order all vertices");
  return perm;
}

}  // namespace pangulu::ordering
