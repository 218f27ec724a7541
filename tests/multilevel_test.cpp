#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "matgen/generators.hpp"
#include "ordering/multilevel.hpp"
#include "ordering/nested_dissection.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/ops.hpp"
#include "symbolic/col_counts.hpp"

namespace pangulu::ordering {
namespace {

std::int64_t brute_cut(const Graph& g, const std::vector<char>& side) {
  std::int64_t cut = 0;
  for (index_t v = 0; v < g.n; ++v) {
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (u > v &&
          side[static_cast<std::size_t>(u)] != side[static_cast<std::size_t>(v)])
        ++cut;
    }
  }
  return cut;
}

TEST(Multilevel, GridBisectionIsBalancedAndNearOptimal) {
  // A 16x16 grid has an optimal bisection cut of 16 (one grid line).
  Csc m = matgen::grid2d_laplacian(16, 16);
  Graph g = Graph::from_matrix(m);
  Bisection b = multilevel_bisect(g);
  ASSERT_EQ(b.side.size(), 256u);
  EXPECT_EQ(b.weight0 + b.weight1, 256);
  EXPECT_GT(b.weight0, 256 / 4) << "side 0 too small";
  EXPECT_GT(b.weight1, 256 / 4) << "side 1 too small";
  EXPECT_EQ(b.edge_cut, brute_cut(g, b.side));
  EXPECT_LE(b.edge_cut, 3 * 16) << "cut should be within 3x of optimal";
}

TEST(Multilevel, PathGraphCutOfOne) {
  const index_t n = 200;
  Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) {
      coo.add(i + 1, i, -1.0);
      coo.add(i, i + 1, -1.0);
    }
  }
  Graph g = Graph::from_matrix(Csc::from_coo(coo));
  Bisection b = multilevel_bisect(g);
  EXPECT_LE(b.edge_cut, 4) << "a path should split with a tiny cut";
  EXPECT_GT(b.weight0, n / 4);
  EXPECT_GT(b.weight1, n / 4);
}

TEST(Multilevel, TinyGraphs) {
  for (index_t n : {1, 2, 3}) {
    Coo coo(n, n);
    for (index_t i = 0; i < n; ++i) {
      coo.add(i, i, 1.0);
      if (i + 1 < n) {
        coo.add(i + 1, i, 1.0);
        coo.add(i, i + 1, 1.0);
      }
    }
    Graph g = Graph::from_matrix(Csc::from_coo(coo));
    Bisection b = multilevel_bisect(g);
    EXPECT_EQ(b.side.size(), static_cast<std::size_t>(n));
    if (n >= 2) {
      EXPECT_GT(b.weight0, 0);
      EXPECT_GT(b.weight1, 0);
    }
  }
}

TEST(Multilevel, SeparatorCoversEveryCutEdge) {
  Csc m = matgen::circuit(300, 2.0, 2.2, 13);
  Graph g = Graph::from_matrix(m);
  Bisection b = multilevel_bisect(g);
  auto sep = separator_from_cut(g, b);
  std::vector<char> in_sep(static_cast<std::size_t>(g.n), 0);
  for (index_t v : sep) in_sep[static_cast<std::size_t>(v)] = 1;
  for (index_t v = 0; v < g.n; ++v) {
    for (nnz_t p = g.ptr[static_cast<std::size_t>(v)];
         p < g.ptr[static_cast<std::size_t>(v) + 1]; ++p) {
      const index_t u = g.adj[static_cast<std::size_t>(p)];
      if (b.side[static_cast<std::size_t>(u)] !=
          b.side[static_cast<std::size_t>(v)]) {
        EXPECT_TRUE(in_sep[static_cast<std::size_t>(u)] ||
                    in_sep[static_cast<std::size_t>(v)])
            << "uncovered cut edge (" << v << "," << u << ")";
      }
    }
  }
}

TEST(Multilevel, NdWithMultilevelBeatsBfsOnGrids) {
  Csc m = matgen::grid2d_laplacian(28, 28);
  Graph g = Graph::from_matrix(m);
  NdOptions bfs_opts;
  bfs_opts.use_multilevel = false;
  NdOptions ml_opts;
  ml_opts.use_multilevel = true;
  auto p_bfs = nested_dissection(g, bfs_opts);
  auto p_ml = nested_dissection(g, ml_opts);
  EXPECT_TRUE(is_permutation(p_bfs));
  EXPECT_TRUE(is_permutation(p_ml));
  const nnz_t fill_bfs = symbolic::estimate_fill(m.permuted(p_bfs, p_bfs));
  const nnz_t fill_ml = symbolic::estimate_fill(m.permuted(p_ml, p_ml));
  EXPECT_LE(fill_ml, static_cast<nnz_t>(1.15 * fill_bfs))
      << "multilevel separators must be competitive with BFS level sets";
}

TEST(Multilevel, NdStillValidOnIrregularGraphs) {
  for (const char* name : {"ASIC_680k", "cage12", "Si87H76"}) {
    SCOPED_TRACE(name);
    Csc m = matgen::paper_matrix(name, 0.2);
    Graph g = Graph::from_matrix(m);
    auto perm = nested_dissection(g, {});
    EXPECT_TRUE(is_permutation(perm));
  }
}

// FNV-1a over the little-endian bytes of each entry, continuing from `h`.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
std::uint64_t fnv1a(const std::vector<index_t>& perm,
                    std::uint64_t h = kFnvBasis) {
  for (index_t x : perm) {
    const auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Three 2D grids of different sizes plus isolated vertices, in one matrix.
Csc disconnected_grids() {
  const index_t n = 3000;
  Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 4.0);
  auto grid = [&](index_t off, index_t side) {
    for (index_t y = 0; y < side; ++y) {
      for (index_t x = 0; x < side; ++x) {
        const index_t v = off + y * side + x;
        if (x + 1 < side) {
          coo.add(v, v + 1, -1.0);
          coo.add(v + 1, v, -1.0);
        }
        if (y + 1 < side) {
          coo.add(v, v + side, -1.0);
          coo.add(v + side, v, -1.0);
        }
      }
    }
  };
  grid(0, 30);
  grid(900, 40);
  grid(2500, 20);
  return Csc::from_coo(coo);
}

TEST(NestedDissection, SamePermutationAtEveryPoolSize) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (std::size_t workers : {1, 2, 3, 4, 8})
    pools.push_back(std::make_unique<ThreadPool>(workers));

  struct Case {
    std::string name;
    Csc m;
  };
  std::vector<Case> cases = {
      {"grid2d", matgen::grid2d_laplacian(40, 40)},
      {"grid3d", matgen::grid3d_laplacian(10, 10, 10)},
      {"fem3d", matgen::fem3d(6, 6, 6, 3, 5)},
      {"circuit", matgen::circuit(1500, 3.0, 2.1, 680)},
      {"kkt", matgen::kkt(6, 6, 6, 3)},
      {"banded_random", matgen::banded_random(1500, 20, 0.3, 0, 5)},
      {"cage_style", matgen::cage_style(1500, 4, 7)},
      {"shifted_illcond", matgen::shifted_illcond(40, 40, 1e6)},
      {"random_sparse", matgen::random_sparse(1000, 4, 9)},
      {"leaf_size", matgen::grid2d_laplacian(8, 8)},  // 64 = leaf_size
      {"disconnected", disconnected_grids()},
  };
  for (const std::string& name : matgen::paper_matrix_names())
    cases.push_back({name, matgen::paper_matrix(name, 0.5)});
  std::uint64_t all = kFnvBasis;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Graph g = Graph::from_matrix(c.m);
    const auto ref = nested_dissection(g, {}, pools[0].get());
    ASSERT_TRUE(is_permutation(ref));
    for (std::size_t k = 1; k < pools.size(); ++k)
      EXPECT_EQ(nested_dissection(g, {}, pools[k].get()), ref)
          << pools[k]->size() << " workers";
    all = fnv1a(ref, all);
  }

  // Hashes of the permutations the serial recursion produced before the
  // ordering ran on a pool: the same bits as before, not only across pools.
  // `all` chains every case above, in order.
  EXPECT_EQ(all, 0x367e9808f2c0115bull);
  struct Pinned {
    std::string name;
    Csc m;
    std::uint64_t hash;
  };
  const Pinned pinned[] = {
      {"grid2d 200^2", matgen::grid2d_laplacian(200, 200),
       0x52d6171190de25f1ull},
      {"fem3d 12^3 x 3", matgen::fem3d(12, 12, 12, 3, 101),
       0x19347ec75f70ae09ull},
      {"circuit 6000", matgen::circuit(6000, 3.0, 2.1, 680),
       0xf8e0b0a8934ee831ull},
  };
  for (const Pinned& c : pinned) {
    SCOPED_TRACE(c.name);
    const Graph g = Graph::from_matrix(c.m);
    for (const auto& pool : pools)
      EXPECT_EQ(fnv1a(nested_dissection(g, {}, pool.get())), c.hash)
          << pool->size() << " workers";
  }
}

}  // namespace
}  // namespace pangulu::ordering
