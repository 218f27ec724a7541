#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "matgen/generators.hpp"
#include "ordering/graph.hpp"
#include "ordering/mc64.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "ordering/reorder.hpp"
#include "sparse/ops.hpp"
#include "symbolic/fill.hpp"

namespace pangulu::ordering {
namespace {

TEST(Graph, FromMatrixSymmetrisesAndDropsDiagonal) {
  Coo coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);  // one-directional edge 0-1
  coo.add(3, 2, 1.0);
  Graph g = Graph::from_matrix(Csc::from_coo(coo));
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  Csc m = matgen::grid2d_laplacian(4, 4);
  Graph g = Graph::from_matrix(m);
  std::vector<index_t> verts = {0, 1, 2, 3};  // first grid row: a path
  Graph s = g.induced(verts, nullptr);
  EXPECT_EQ(s.n, 4);
  EXPECT_EQ(s.degree(0), 1);
  EXPECT_EQ(s.degree(1), 2);
}

class Mc64P : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Mc64P, PerfectMatchingWithBoundedScaledEntries) {
  Csc a = matgen::random_sparse(60, 4, GetParam());
  Mc64Result r;
  ASSERT_TRUE(mc64(a, &r).is_ok());
  EXPECT_TRUE(is_permutation(r.row_perm));
  // Every matched entry exists.
  for (index_t j = 0; j < a.n_cols(); ++j)
    ASSERT_GE(a.find(r.row_of_col[static_cast<std::size_t>(j)], j), 0);
  // Scaled matrix: all entries <= 1 (+eps), matched entries == 1.
  Csc s = a;
  s.scale(r.row_scale, r.col_scale);
  for (index_t j = 0; j < s.n_cols(); ++j) {
    for (nnz_t p = s.col_begin(j); p < s.col_end(j); ++p) {
      EXPECT_LE(std::abs(s.values()[static_cast<std::size_t>(p)]), 1.0 + 1e-8);
    }
    EXPECT_NEAR(std::abs(s.at(r.row_of_col[static_cast<std::size_t>(j)], j)),
                1.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Mc64P, ::testing::Values(1, 2, 3, 4, 5));

TEST(Mc64, PermutationPutsLargeEntriesOnDiagonal) {
  Csc a = matgen::circuit(80, 2.0, 2.2, 11);
  Mc64Result r;
  ASSERT_TRUE(mc64(a, &r).is_ok());
  Csc p = a.permuted(r.row_perm, identity_permutation(a.n_cols()));
  for (index_t j = 0; j < p.n_cols(); ++j)
    EXPECT_NE(p.at(j, j), 0.0) << "zero diagonal after MC64 at " << j;
}

TEST(Mc64, DetectsStructuralSingularity) {
  Coo coo(3, 3);  // column 2 empty
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  Csc a = Csc::from_coo(coo);
  Mc64Result r;
  EXPECT_FALSE(mc64(a, &r).is_ok());
}

TEST(Mc64, IdentityMatrixIsFixedPoint) {
  Coo coo(5, 5);
  for (index_t i = 0; i < 5; ++i) coo.add(i, i, 2.0);
  Mc64Result r;
  ASSERT_TRUE(mc64(Csc::from_coo(coo), &r).is_ok());
  for (index_t i = 0; i < 5; ++i)
    EXPECT_EQ(r.row_perm[static_cast<std::size_t>(i)], i);
}

template <typename F>
void expect_valid_ordering(F make_perm) {
  Csc m = matgen::grid2d_laplacian(12, 12);
  Graph g = Graph::from_matrix(m);
  auto perm = make_perm(g);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(MinDegree, ProducesValidPermutation) {
  expect_valid_ordering([](const Graph& g) { return min_degree(g); });
}

TEST(Rcm, ProducesValidPermutation) {
  expect_valid_ordering([](const Graph& g) { return rcm(g); });
}

TEST(NestedDissection, ProducesValidPermutation) {
  expect_valid_ordering([](const Graph& g) { return nested_dissection(g); });
}

TEST(NestedDissection, HandlesDisconnectedGraphs) {
  // Two separate 3x3 grids in one matrix.
  Csc g1 = matgen::grid2d_laplacian(3, 3);
  Coo coo(18, 18);
  for (index_t j = 0; j < 9; ++j) {
    for (nnz_t p = g1.col_begin(j); p < g1.col_end(j); ++p) {
      index_t r = g1.row_idx()[static_cast<std::size_t>(p)];
      value_t v = g1.values()[static_cast<std::size_t>(p)];
      coo.add(r, j, v);
      coo.add(r + 9, j + 9, v);
    }
  }
  Graph g = Graph::from_matrix(Csc::from_coo(coo));
  NdOptions opts;
  opts.leaf_size = 4;
  auto perm = nested_dissection(g, opts);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(NestedDissection, ReducesFillVersusNatural) {
  Csc m = matgen::grid2d_laplacian(24, 24);
  Graph g = Graph::from_matrix(m);
  auto nd = nested_dissection(g);

  symbolic::SymbolicResult natural, dissected;
  ASSERT_TRUE(symbolic::symbolic_symmetric(m, &natural).is_ok());
  Csc pm = m.permuted(nd, nd);
  ASSERT_TRUE(symbolic::symbolic_symmetric(pm, &dissected).is_ok());
  EXPECT_LT(dissected.nnz_lu, natural.nnz_lu)
      << "ND should beat the natural ordering on a 2D grid";
}

TEST(MinDegree, ReducesFillVersusNatural) {
  Csc m = matgen::grid2d_laplacian(20, 20);
  Graph g = Graph::from_matrix(m);
  auto md = min_degree(g);
  symbolic::SymbolicResult natural, ordered;
  ASSERT_TRUE(symbolic::symbolic_symmetric(m, &natural).is_ok());
  Csc pm = m.permuted(md, md);
  ASSERT_TRUE(symbolic::symbolic_symmetric(pm, &ordered).is_ok());
  EXPECT_LT(ordered.nnz_lu, natural.nnz_lu);
}

TEST(Reorder, FullPipelineProducesConsistentMatrix) {
  Csc a = matgen::circuit(100, 2.0, 2.2, 77);
  ReorderOptions opts;
  ReorderResult r;
  ASSERT_TRUE(reorder(a, opts, &r).is_ok());
  EXPECT_TRUE(is_permutation(r.row_perm));
  EXPECT_TRUE(is_permutation(r.col_perm));
  // permuted(r2, c2) must equal row_scale[r]*a(r,c)*col_scale[c].
  for (index_t c = 0; c < a.n_cols(); ++c) {
    for (nnz_t p = a.col_begin(c); p < a.col_end(c); ++p) {
      index_t row = a.row_idx()[static_cast<std::size_t>(p)];
      value_t expect = r.row_scale[static_cast<std::size_t>(row)] *
                       a.values()[static_cast<std::size_t>(p)] *
                       r.col_scale[static_cast<std::size_t>(c)];
      EXPECT_NEAR(r.permuted.at(r.row_perm[static_cast<std::size_t>(row)],
                                r.col_perm[static_cast<std::size_t>(c)]),
                  expect, 1e-12 * (1 + std::abs(expect)));
    }
  }
  // MC64+perm must leave the diagonal structurally nonzero.
  for (index_t j = 0; j < r.permuted.n_cols(); ++j)
    EXPECT_NE(r.permuted.at(j, j), 0.0);
}

// The triplet route Csc::permuted used to take: relabel every entry, then
// one global (col, row) sort.
Csc coo_permuted(const Csc& a, const std::vector<index_t>& rp,
                 const std::vector<index_t>& cp) {
  Coo coo(a.n_rows(), a.n_cols());
  for (index_t j = 0; j < a.n_cols(); ++j)
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p)
      coo.add(rp[static_cast<std::size_t>(a.row_idx()[static_cast<std::size_t>(p)])],
              cp[static_cast<std::size_t>(j)], a.values()[static_cast<std::size_t>(p)]);
  return Csc::from_coo(coo);
}

// reorder() permutes A once and scales it in place; its output matches the
// scale, row-permute, symmetric-permute sequence it replaced bit for bit.
TEST(Reorder, SinglePermuteMatchesScaleThenTwoPermutesBitwise) {
  for (const Csc& a : {matgen::fem3d(12, 12, 12, 3, 101),
                       matgen::circuit(6000, 3.0, 2.1, 680),
                       matgen::grid2d_laplacian(200, 200)}) {
    ReorderOptions opts;
    opts.fill_reducing = FillReducing::kNestedDissection;
    ReorderResult r;
    ASSERT_TRUE(reorder(a, opts, &r).is_ok());

    Mc64Result m;
    ASSERT_TRUE(mc64(a, &m).is_ok());
    Csc work = a;
    work.scale(m.row_scale, m.col_scale);
    work = coo_permuted(work, m.row_perm, identity_permutation(a.n_cols()));
    NdOptions nd;
    nd.leaf_size = opts.nd_leaf_size;
    const auto sym = nested_dissection(Graph::from_matrix(work), nd);
    const Csc expected = coo_permuted(work, sym, sym);

    EXPECT_EQ(r.col_perm, sym);
    EXPECT_EQ(r.row_perm, compose(sym, m.row_perm));
    EXPECT_EQ(r.row_scale, m.row_scale);
    EXPECT_EQ(r.col_scale, m.col_scale);
    EXPECT_TRUE(std::ranges::equal(r.permuted.col_ptr(), expected.col_ptr()));
    EXPECT_TRUE(std::ranges::equal(r.permuted.row_idx(), expected.row_idx()));
    EXPECT_TRUE(std::ranges::equal(r.permuted.values(), expected.values()));
  }
}

TEST(Reorder, NaturalAndNoMc64IsIdentity) {
  Csc a = matgen::random_sparse(30, 3, 5);
  ReorderOptions opts;
  opts.use_mc64 = false;
  opts.fill_reducing = FillReducing::kNatural;
  ReorderResult r;
  ASSERT_TRUE(reorder(a, opts, &r).is_ok());
  EXPECT_TRUE(r.permuted.approx_equal(a, 0.0));
}

TEST(Reorder, RejectsRectangular) {
  Csc a = matgen::random_rect(4, 5, 0.5, 1);
  ReorderResult r;
  EXPECT_FALSE(reorder(a, {}, &r).is_ok());
}

}  // namespace
}  // namespace pangulu::ordering
