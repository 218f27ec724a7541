#include <gtest/gtest.h>

#include "matgen/generators.hpp"
#include "ordering/amd.hpp"
#include "ordering/mc64.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/reorder.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/ops.hpp"
#include "symbolic/col_counts.hpp"
#include "symbolic/fill.hpp"

namespace pangulu::ordering {
namespace {

class AmdP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AmdP, ValidPermutationOnRandomGraphs) {
  Csc m = matgen::random_sparse(80, 4, GetParam());
  Graph g = Graph::from_matrix(m);
  auto perm = amd(g);
  EXPECT_TRUE(is_permutation(perm));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmdP, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Amd, FillQualityNearExactMinDegree) {
  // AMD's approximate degrees may lose a little fill quality to the exact
  // algorithm but must stay in the same ballpark (and far below natural).
  for (const char* name : {"ecology1", "ASIC_680k", "nlpkkt80"}) {
    SCOPED_TRACE(name);
    Csc m = matgen::paper_matrix(name, 0.25);
    Graph g = Graph::from_matrix(m);
    auto p_amd = amd(g);
    auto p_md = min_degree(g);
    ASSERT_TRUE(is_permutation(p_amd));
    const nnz_t f_amd = symbolic::estimate_fill(m.permuted(p_amd, p_amd));
    const nnz_t f_md = symbolic::estimate_fill(m.permuted(p_md, p_md));
    const nnz_t f_nat = symbolic::estimate_fill(m);
    EXPECT_LE(f_amd, 2 * f_md) << "AMD within 2x of exact minimum degree";
    EXPECT_LT(f_amd, f_nat) << "AMD beats the natural ordering";
  }
}

TEST(Amd, SupervariablesOnCliqueyGraphs) {
  // A fem3d matrix has identical-adjacency dof groups: AMD must still emit a
  // valid permutation when coalescing kicks in.
  Csc m = matgen::fem3d(4, 4, 4, 3, 5);
  Graph g = Graph::from_matrix(m);
  auto perm = amd(g);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(Amd, TinyGraphs) {
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
    EXPECT_TRUE(is_permutation(amd(g))) << n;
  }
}

TEST(Amd, SolvesThroughFullPipeline) {
  Csc a = matgen::circuit(200, 2.0, 2.2, 77);
  ReorderOptions opts;
  opts.fill_reducing = FillReducing::kAmd;
  ReorderResult r;
  ASSERT_TRUE(reorder(a, opts, &r).is_ok());
  EXPECT_TRUE(is_permutation(r.row_perm));
  EXPECT_TRUE(is_permutation(r.col_perm));
}

TEST(Amd, FillWithinFivePercentOfExactMinDegree) {
  // One matrix per matgen family, sized so the exact (slow) minimum degree
  // finishes quickly; the paper stand-ins cover the remaining classes.
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
  };
  for (const std::string& name : matgen::paper_matrix_names())
    cases.push_back({name, matgen::paper_matrix(name, 0.25)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Graph g = Graph::from_matrix(c.m);
    auto p_amd = amd(g);
    auto p_md = min_degree(g);
    ASSERT_TRUE(is_permutation(p_amd));
    const nnz_t f_amd = symbolic::estimate_fill(c.m.permuted(p_amd, p_amd));
    const nnz_t f_md = symbolic::estimate_fill(c.m.permuted(p_md, p_md));
    EXPECT_LE(static_cast<double>(f_amd), 1.05 * static_cast<double>(f_md));
  }
}

// The graph kAuto orders: the MC64-row-permuted matrix's pattern.
Graph mc64_graph(const Csc& a, std::vector<index_t>* row_perm = nullptr) {
  Mc64Result m;
  mc64(a, &m).check();
  if (row_perm) *row_perm = m.row_perm;
  return Graph::from_matrix(a.permuted(m.row_perm, identity_permutation(a.n_cols())));
}

double predicted(const Graph& g, const std::vector<index_t>& perm) {
  return symbolic::predicted_flops(symbolic::factor_column_counts(g.ptr, g.adj, perm));
}

TEST(Reorder, PredictedFlopsEqualSymbolicFlopsForBothCandidates) {
  for (const auto& [name, a] :
       {std::pair<const char*, Csc>{"fem3d", matgen::fem3d(6, 6, 6, 3, 101)},
        {"circuit", matgen::circuit(1500, 3.0, 2.1, 680)},
        {"grid2d", matgen::grid2d_laplacian(50, 50)}}) {
    std::vector<index_t> mc64_row;
    const Graph g = mc64_graph(a, &mc64_row);
    for (const auto& [which, perm] :
         {std::pair<const char*, std::vector<index_t>>{"amd", amd(g)},
          {"nd", nested_dissection(g)}}) {
      SCOPED_TRACE(std::string(name) + " " + which);
      const Csc b = a.permuted(compose(perm, mc64_row), perm);
      symbolic::SymbolicResult sym;
      ASSERT_TRUE(symbolic::symbolic_symmetric(b, &sym).is_ok());
      EXPECT_EQ(predicted(g, perm), symbolic::factorization_flops(sym.filled));
    }
  }
}

TEST(Reorder, AutoPermutationIsIdenticalAtAnyThreadCount) {
  for (const Csc& a : {matgen::circuit(1500, 3.0, 2.1, 680),
                       matgen::fem3d(6, 6, 6, 3, 101)}) {
    std::vector<std::vector<index_t>> perms;
    for (std::size_t threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      ReorderResult r;
      ASSERT_TRUE(reorder(a, {}, &r, &pool).is_ok());
      perms.push_back(r.col_perm);
    }
    EXPECT_EQ(perms[0], perms[1]);
    EXPECT_EQ(perms[0], perms[2]);
  }
}

// kAuto keeps whichever candidate predicts fewer flops, on cases where the
// margin is at least 2x either way.
void expect_auto_picks(const Csc& a, bool amd_wins) {
  const Graph g = mc64_graph(a);
  const auto p_amd = amd(g);
  const auto p_nd = nested_dissection(g);
  const double f_amd = predicted(g, p_amd);
  const double f_nd = predicted(g, p_nd);
  if (amd_wins)
    ASSERT_LE(2 * f_amd, f_nd);
  else
    ASSERT_LE(2 * f_nd, f_amd);
  ReorderResult r;
  ASSERT_TRUE(reorder(a, {}, &r).is_ok());
  EXPECT_EQ(r.col_perm, amd_wins ? p_amd : p_nd);
}

TEST(Reorder, AutoPicksAmdWhereItPredictsFarFewerFlops) {
  expect_auto_picks(matgen::circuit(6000, 3.0, 2.1, 680), /*amd_wins=*/true);
}

TEST(Reorder, AutoKeepsNdWhereItPredictsFarFewerFlops) {
  expect_auto_picks(matgen::paper_matrix("cage12", 1.0), /*amd_wins=*/false);
}

}  // namespace
}  // namespace pangulu::ordering
