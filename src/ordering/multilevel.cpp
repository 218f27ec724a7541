#include "ordering/multilevel.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/rng.hpp"

namespace pangulu::ordering {

namespace {

/// Weighted graph used on the coarse levels.
struct WGraph {
  index_t n = 0;
  std::vector<nnz_t> ptr;
  std::vector<index_t> adj;
  std::vector<std::int64_t> eweight;  // per adjacency entry
  std::vector<std::int64_t> vweight;  // per vertex

  static WGraph from_graph(const Graph& g) {
    WGraph w;
    w.n = g.n;
    w.ptr = g.ptr;
    w.adj = g.adj;
    w.eweight.assign(g.adj.size(), 1);
    w.vweight.assign(static_cast<std::size_t>(g.n), 1);
    return w;
  }
};

/// Heavy-edge matching in random visit order; match[v] = partner or v.
std::vector<index_t> heavy_edge_matching(const WGraph& g, Rng& rng) {
  std::vector<index_t> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), index_t(0));
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<index_t> match(static_cast<std::size_t>(g.n), -1);
  for (index_t v : order) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    index_t best = -1;
    std::int64_t best_w = -1;
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (u == v || match[static_cast<std::size_t>(u)] != -1) continue;
      if (g.eweight[static_cast<std::size_t>(p)] > best_w) {
        best_w = g.eweight[static_cast<std::size_t>(p)];
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
  }
  return match;
}

/// Contract matched pairs; fills coarse->fine mapping (two slots per coarse
/// vertex, second = -1 for singletons) and fine->coarse labels.
WGraph contract(const WGraph& g, const std::vector<index_t>& match,
                std::vector<index_t>* fine_to_coarse) {
  fine_to_coarse->assign(static_cast<std::size_t>(g.n), -1);
  index_t nc = 0;
  for (index_t v = 0; v < g.n; ++v) {
    if ((*fine_to_coarse)[static_cast<std::size_t>(v)] != -1) continue;
    const index_t u = match[static_cast<std::size_t>(v)];
    (*fine_to_coarse)[static_cast<std::size_t>(v)] = nc;
    (*fine_to_coarse)[static_cast<std::size_t>(u)] = nc;
    ++nc;
  }
  WGraph c;
  c.n = nc;
  c.vweight.assign(static_cast<std::size_t>(nc), 0);
  for (index_t v = 0; v < g.n; ++v)
    c.vweight[static_cast<std::size_t>(
        (*fine_to_coarse)[static_cast<std::size_t>(v)])] +=
        g.vweight[static_cast<std::size_t>(v)];

  // Aggregate edges with a marker-based merge, fine vertices in ascending
  // order. The marker is keyed by coarse vertex, so when another coarse
  // vertex's fine vertex runs between the two halves of a matched pair, the
  // second half re-adds a neighbour the first already has: rows can hold
  // duplicate entries, and the matching on the next level sees them. Each
  // row first gets room for its fine vertices' degree sum; one merge pass
  // fills the rows, and a sequential pass closes the gaps.
  const std::vector<index_t>& f2c = *fine_to_coarse;
  std::vector<nnz_t> room(static_cast<std::size_t>(nc) + 1, 0);
  for (index_t v = 0; v < g.n; ++v)
    room[static_cast<std::size_t>(f2c[static_cast<std::size_t>(v)]) + 1] +=
        g.ptr[static_cast<std::size_t>(v) + 1] -
        g.ptr[static_cast<std::size_t>(v)];
  for (index_t cv = 0; cv < nc; ++cv)
    room[static_cast<std::size_t>(cv) + 1] +=
        room[static_cast<std::size_t>(cv)];
  c.adj.resize(static_cast<std::size_t>(room.back()));
  c.eweight.resize(static_cast<std::size_t>(room.back()));
  std::vector<nnz_t> fill(room.begin(), room.end() - 1);
  std::vector<index_t> marker(static_cast<std::size_t>(nc), -1);
  std::vector<nnz_t> slot(static_cast<std::size_t>(nc), 0);
  for (index_t v = 0; v < g.n; ++v) {
    const index_t cv = f2c[static_cast<std::size_t>(v)];
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t cu =
          f2c[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(p)])];
      if (cu == cv) continue;  // contracted edge disappears
      const std::int64_t w = g.eweight[static_cast<std::size_t>(p)];
      if (marker[static_cast<std::size_t>(cu)] == cv) {
        c.eweight[static_cast<std::size_t>(
            slot[static_cast<std::size_t>(cu)])] += w;
      } else {
        marker[static_cast<std::size_t>(cu)] = cv;
        const nnz_t q = fill[static_cast<std::size_t>(cv)]++;
        slot[static_cast<std::size_t>(cu)] = q;
        c.adj[static_cast<std::size_t>(q)] = cu;
        c.eweight[static_cast<std::size_t>(q)] = w;
      }
    }
  }
  c.ptr.assign(static_cast<std::size_t>(nc) + 1, 0);
  nnz_t q = 0;
  for (index_t cv = 0; cv < nc; ++cv) {
    for (nnz_t p = room[static_cast<std::size_t>(cv)];
         p < fill[static_cast<std::size_t>(cv)]; ++p, ++q) {
      c.adj[static_cast<std::size_t>(q)] = c.adj[static_cast<std::size_t>(p)];
      c.eweight[static_cast<std::size_t>(q)] =
          c.eweight[static_cast<std::size_t>(p)];
    }
    c.ptr[static_cast<std::size_t>(cv) + 1] = q;
  }
  c.adj.resize(static_cast<std::size_t>(q));
  c.eweight.resize(static_cast<std::size_t>(q));
  return c;
}

std::int64_t total_weight(const WGraph& g) {
  std::int64_t t = 0;
  for (auto w : g.vweight) t += w;
  return t;
}

/// Initial partition: weighted BFS region growing from a pseudo-peripheral
/// vertex until side 0 holds ~half the total weight.
std::vector<char> grow_partition(const WGraph& g, Rng& rng) {
  std::vector<char> side(static_cast<std::size_t>(g.n), 1);
  if (g.n == 0) return side;
  const std::int64_t target = total_weight(g) / 2;
  const index_t start = rng.uniform_index(0, g.n - 1);
  std::vector<char> visited(static_cast<std::size_t>(g.n), 0);
  std::vector<index_t> queue{start};
  visited[static_cast<std::size_t>(start)] = 1;
  std::int64_t grown = 0;
  for (std::size_t head = 0; head < queue.size() && grown < target; ++head) {
    const index_t v = queue[head];
    side[static_cast<std::size_t>(v)] = 0;
    grown += g.vweight[static_cast<std::size_t>(v)];
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (!visited[static_cast<std::size_t>(u)]) {
        visited[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }
  // Disconnected remainder: if side 0 starved, move arbitrary vertices.
  for (index_t v = 0; v < g.n && grown < target; ++v) {
    if (side[static_cast<std::size_t>(v)] == 1 &&
        !visited[static_cast<std::size_t>(v)]) {
      side[static_cast<std::size_t>(v)] = 0;
      grown += g.vweight[static_cast<std::size_t>(v)];
    }
  }
  return side;
}

/// True when v has a neighbour on the other side.
bool on_boundary(const WGraph& g, const std::vector<char>& side, index_t v) {
  for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
       p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p)
    if (side[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(p)])] !=
        side[static_cast<std::size_t>(v)])
      return true;
  return false;
}

/// FM-style boundary refinement: each pass visits vertices in ascending
/// order and moves any with positive gain while the balance constraint
/// allows. A vertex with no neighbour on the other side has gain <= 0, so a
/// pass visits only the candidates that can have one: the boundary at the
/// start of the pass plus the later neighbours of vertices it has moved,
/// which makes the same moves as a sweep over every vertex. `cand` holds
/// distinct vertices that include the boundary on entry, and exactly the
/// boundary, ascending, on return.
void fm_refine(const WGraph& g, std::vector<char>& side, double balance,
               int passes, std::vector<index_t>* cand) {
  const std::int64_t total = total_weight(g);
  const auto max_side =
      static_cast<std::int64_t>(balance * static_cast<double>(total) / 2.0);
  std::int64_t w0 = 0;
  for (index_t v = 0; v < g.n; ++v)
    if (side[static_cast<std::size_t>(v)] == 0)
      w0 += g.vweight[static_cast<std::size_t>(v)];

  auto keep_boundary = [&] {
    std::sort(cand->begin(), cand->end());
    cand->erase(std::remove_if(cand->begin(), cand->end(),
                               [&](index_t v) {
                                 return !on_boundary(g, side, v);
                               }),
                cand->end());
  };
  // Pass stamps: queued in this pass's heap / listed for the next pass.
  std::vector<int> queued(static_cast<std::size_t>(g.n), -1);
  std::vector<int> listed(static_cast<std::size_t>(g.n), -1);
  std::vector<index_t> heap, next;
  for (int pass = 0; pass < passes; ++pass) {
    keep_boundary();
    heap = *cand;  // ascending, so already a min-heap
    for (index_t v : heap) queued[static_cast<std::size_t>(v)] = pass;
    next.clear();
    auto list = [&](index_t v) {
      if (listed[static_cast<std::size_t>(v)] == pass) return;
      listed[static_cast<std::size_t>(v)] = pass;
      next.push_back(v);
    };

    bool improved = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const index_t v = heap.back();
      heap.pop_back();
      list(v);
      // Gain: moving v to the other side changes the cut by (internal -
      // external) edge weight.
      const char sv = side[static_cast<std::size_t>(v)];
      std::int64_t internal = 0, external = 0;
      for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
           p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
        const index_t u = g.adj[static_cast<std::size_t>(p)];
        if (side[static_cast<std::size_t>(u)] == sv)
          internal += g.eweight[static_cast<std::size_t>(p)];
        else
          external += g.eweight[static_cast<std::size_t>(p)];
      }
      const std::int64_t gain = external - internal;
      if (gain <= 0) continue;
      // Balance check for the destination side.
      const std::int64_t vw = g.vweight[static_cast<std::size_t>(v)];
      const std::int64_t new_w0 = sv == 0 ? w0 - vw : w0 + vw;
      const std::int64_t new_w1 = total - new_w0;
      if (new_w0 <= 0 || new_w1 <= 0) continue;
      if (std::max(new_w0, new_w1) > max_side) continue;
      side[static_cast<std::size_t>(v)] = static_cast<char>(1 - sv);
      w0 = new_w0;
      improved = true;
      // Neighbours may have become boundary vertices: the later ones are
      // still visited in this pass, and all of them are listed for the next.
      for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
           p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
        const index_t u = g.adj[static_cast<std::size_t>(p)];
        list(u);
        if (u > v && queued[static_cast<std::size_t>(u)] != pass) {
          queued[static_cast<std::size_t>(u)] = pass;
          heap.push_back(u);
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    }
    cand->swap(next);
    if (!improved) break;
  }
  keep_boundary();
}

std::int64_t cut_of(const WGraph& g, const std::vector<char>& side) {
  std::int64_t cut = 0;
  for (index_t v = 0; v < g.n; ++v) {
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (u > v && side[static_cast<std::size_t>(u)] !=
                       side[static_cast<std::size_t>(v)])
        cut += g.eweight[static_cast<std::size_t>(p)];
    }
  }
  return cut;
}

}  // namespace

Bisection multilevel_bisect(const Graph& g, const MultilevelOptions& opts) {
  Bisection out;
  out.side.assign(static_cast<std::size_t>(g.n), 0);
  if (g.n <= 1) return out;
  Rng rng(opts.seed);

  // Coarsening phase.
  std::vector<WGraph> levels;
  std::vector<std::vector<index_t>> maps;  // fine -> coarse per level
  levels.push_back(WGraph::from_graph(g));
  while (levels.back().n > opts.coarsen_to) {
    const WGraph& cur = levels.back();
    auto match = heavy_edge_matching(cur, rng);
    std::vector<index_t> f2c;
    WGraph coarse = contract(cur, match, &f2c);
    if (coarse.n >= cur.n) break;  // matching stalled (e.g. star graphs)
    maps.push_back(std::move(f2c));
    levels.push_back(std::move(coarse));
  }

  // Initial partition on the coarsest graph, refined there first.
  std::vector<char> side = grow_partition(levels.back(), rng);
  std::vector<index_t> cand(static_cast<std::size_t>(levels.back().n));
  std::iota(cand.begin(), cand.end(), index_t(0));
  fm_refine(levels.back(), side, opts.balance, opts.refine_passes, &cand);

  // Uncoarsen with refinement at each level. A fine vertex can only be on
  // the boundary if its coarse vertex was, so the fine vertices of the
  // coarse boundary are the first pass's candidates.
  for (std::size_t lvl = maps.size(); lvl-- > 0;) {
    const auto& f2c = maps[lvl];
    std::vector<char> coarse_boundary(side.size(), 0);
    for (index_t c : cand) coarse_boundary[static_cast<std::size_t>(c)] = 1;
    std::vector<char> fine_side(f2c.size());
    cand.clear();
    for (std::size_t v = 0; v < f2c.size(); ++v) {
      const auto c = static_cast<std::size_t>(f2c[v]);
      fine_side[v] = side[c];
      if (coarse_boundary[c]) cand.push_back(static_cast<index_t>(v));
    }
    side = std::move(fine_side);
    fm_refine(levels[lvl], side, opts.balance, opts.refine_passes, &cand);
  }

  // Guarantee both sides non-empty.
  bool has0 = false, has1 = false;
  for (char s : side) (s ? has1 : has0) = true;
  if (!has0) side[0] = 0;
  if (!has1) side[0] = 1;

  out.side = std::move(side);
  out.edge_cut = cut_of(levels.front(), out.side);
  for (index_t v = 0; v < g.n; ++v) {
    if (out.side[static_cast<std::size_t>(v)] == 0)
      ++out.weight0;
    else
      ++out.weight1;
  }
  return out;
}

std::vector<index_t> separator_from_cut(const Graph& g, const Bisection& b) {
  // Greedy vertex cover of the cut edges, highest uncovered-degree first.
  std::vector<index_t> cut_degree(static_cast<std::size_t>(g.n), 0);
  for (index_t v = 0; v < g.n; ++v) {
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (b.side[static_cast<std::size_t>(u)] !=
          b.side[static_cast<std::size_t>(v)])
        cut_degree[static_cast<std::size_t>(v)]++;
    }
  }
  std::vector<index_t> order;
  for (index_t v = 0; v < g.n; ++v)
    if (cut_degree[static_cast<std::size_t>(v)] > 0) order.push_back(v);
  std::sort(order.begin(), order.end(), [&](index_t a, index_t c) {
    return cut_degree[static_cast<std::size_t>(a)] >
           cut_degree[static_cast<std::size_t>(c)];
  });

  std::vector<char> in_sep(static_cast<std::size_t>(g.n), 0);
  std::vector<index_t> sep;
  for (index_t v : order) {
    // Still covering an uncovered cut edge?
    bool needed = false;
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (b.side[static_cast<std::size_t>(u)] !=
              b.side[static_cast<std::size_t>(v)] &&
          !in_sep[static_cast<std::size_t>(u)] &&
          !in_sep[static_cast<std::size_t>(v)]) {
        needed = true;
        break;
      }
    }
    if (needed) {
      in_sep[static_cast<std::size_t>(v)] = 1;
      sep.push_back(v);
    }
  }
  return sep;
}

}  // namespace pangulu::ordering
