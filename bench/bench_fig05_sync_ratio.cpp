// Figure 5: ratio of synchronisation time to numeric factorisation time of
// the level-set (SuperLU_DIST-style) baseline as the process count grows.
// The paper shows the ratio climbing towards ~60% at 64 processes on six
// matrices — the motivation for the sync-free strategy.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  const std::vector<std::string> matrices = {
      "Si87H76", "ASIC_680k", "nlpkkt80", "CoupCons3D", "dielFilterV3real",
      "ecology1"};
  const std::vector<rank_t> procs = {1, 2, 4, 8, 16, 32, 64};

  std::cout << "Reproducing Figure 5 (baseline sync/numeric ratio %), scale="
            << scale << '\n';
  std::vector<std::string> header = {"matrix"};
  for (rank_t p : procs) header.push_back(std::to_string(p) + "-proc");
  TextTable t(header);

  for (const auto& name : matrices) {
    Csc a = matgen::paper_matrix(name, scale);
    baseline::SupernodalOptions opts;
    opts.reorder = bench::paper_reorder();
    opts.execute_numerics = false;  // timing model only
    baseline::SupernodalSolver s;
    s.factorize(a, opts).check();
    std::vector<std::string> row = {name};
    for (rank_t p : procs) {
      runtime::SimResult sim;
      s.retime(p, opts.device, &sim).check();
      const double ratio =
          sim.makespan > 0 ? 100.0 * sim.avg_sync / sim.makespan : 0.0;
      row.push_back(TextTable::fmt(ratio, 1));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\nExpected shape (paper): ratio grows with process count, "
               "reaching tens of percent at 64 processes.\n";
  return 0;
}
