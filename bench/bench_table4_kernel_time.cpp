// Table 4: single-GPU kernel time split into panel factorisation
// (GETRF+GESSM+TSTRF) and Schur complement (SSSSM), PanguLU vs the
// supernodal baseline. The paper's point: gathering/scattering into dense
// tiles plus padded dense flops makes the baseline's Schur phase expensive —
// 6.54x geomean total kernel speedup for PanguLU, up to 46.9x on ASIC_680k.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  std::cout << "Reproducing Table 4 (single-GPU kernel time), scale=" << scale
            << '\n';
  TextTable t({"matrix", "base panel(s)", "pangu panel(s)", "base schur(s)",
               "pangu schur(s)", "base all(s)", "pangu all(s)", "speedup"});
  std::vector<double> speedups;

  const auto device = runtime::DeviceModel::a100_like();
  for (const auto& name : bench::bench_matrices()) {
    bench::PreparedMatrix p = bench::prepare(name, scale);

    auto pangu = bench::run_sim(p, 1, device, runtime::KernelPolicy::kAdaptive,
                                runtime::ScheduleMode::kSyncFree);

    baseline::SupernodalOptions bopts;
    bopts.reorder = bench::paper_reorder();
    bopts.n_ranks = 1;
    bopts.device = device;
    bopts.execute_numerics = false;
    baseline::SupernodalSolver base;
    base.factorize(p.a, bopts).check();
    const auto& bsim = base.stats().sim;

    const double base_all = bsim.panel_busy + bsim.schur_busy;
    const double pangu_all = pangu.panel_busy + pangu.schur_busy;
    const double speedup = pangu_all > 0 ? base_all / pangu_all : 0;
    speedups.push_back(speedup);
    t.add_row({name, TextTable::fmt(bsim.panel_busy, 4),
               TextTable::fmt(pangu.panel_busy, 4),
               TextTable::fmt(bsim.schur_busy, 4),
               TextTable::fmt(pangu.schur_busy, 4),
               TextTable::fmt(base_all, 4), TextTable::fmt(pangu_all, 4),
               TextTable::fmt_speedup(speedup)});
  }
  t.print(std::cout);
  std::cout << "geomean speedup: " << TextTable::fmt_speedup(geomean(speedups))
            << " (paper: 6.54x geomean; largest gains on irregular matrices "
               "like ASIC_680k and cage12)\n";
  return 0;
}
