// Table 3: the test matrices — order, nnz(A), nnz(L+U) after the baseline's
// symbolic factorisation (dense-panel storage incl. padding) vs PanguLU's
// (sparse blocks, no padding), and PanguLU's numeric FLOPs.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  std::cout << "Reproducing Table 3 (matrix set statistics), scale=" << scale
            << '\n';
  TextTable t({"matrix", "domain", "n", "nnz(A)", "baseline nnz(L+U)",
               "PanguLU nnz(L+U)", "PanguLU FLOPs"});

  for (const auto& name : bench::bench_matrices()) {
    Csc a = matgen::paper_matrix(name, scale);
    auto info = matgen::paper_matrix_info(name);

    baseline::SupernodalOptions bopts;
    bopts.reorder = bench::paper_reorder();
    bopts.execute_numerics = false;
    baseline::SupernodalSolver base;
    base.factorize(a, bopts).check();

    bench::PreparedMatrix p = bench::prepare(name, scale);
    const double flops = symbolic::factorization_flops(p.symbolic.filled);

    t.add_row({name, info.domain, std::to_string(a.n_cols()),
               std::to_string(a.nnz()),
               std::to_string(base.stats().nnz_lu_stored),
               std::to_string(p.symbolic.nnz_lu), TextTable::fmt_sci(flops)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape (paper): PanguLU's nnz(L+U) is consistently "
               "below the baseline's padded panel storage (~11% fewer "
               "fill-ins on average in the paper).\n";
  return 0;
}
