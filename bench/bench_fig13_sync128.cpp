// Figure 13: synchronisation time on 128 GPUs — PanguLU's sync-free
// scheduling vs the baseline's per-level barriers. Paper: 2.20x average
// reduction, with near-parity on very regular matrices (audikw_1,
// Hook_1498) where supernodal level sets are already balanced.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  const rank_t ranks = 128;
  std::cout << "Reproducing Figure 13 (sync time on 128 GPUs), scale=" << scale
            << '\n';
  TextTable t({"matrix", "baseline sync(s)", "PanguLU sync(s)", "reduction"});
  std::vector<double> reductions;

  const auto device = runtime::DeviceModel::a100_like();
  for (const auto& name : bench::bench_matrices()) {
    bench::PreparedMatrix p = bench::prepare(name, scale);
    auto pangu = bench::run_sim(p, ranks, device,
                                runtime::KernelPolicy::kAdaptive,
                                runtime::ScheduleMode::kSyncFree);

    baseline::SupernodalOptions bopts;
    bopts.reorder = bench::paper_reorder();
    bopts.execute_numerics = false;
    baseline::SupernodalSolver base;
    base.factorize(p.a, bopts).check();
    runtime::SimResult bsim;
    base.retime(ranks, device, &bsim).check();

    const double bs = bsim.avg_sync;
    const double ps = pangu.avg_sync;
    const double red = ps > 0 ? bs / ps : 0;
    reductions.push_back(red);
    t.add_row({name, TextTable::fmt(bs, 5), TextTable::fmt(ps, 5),
               TextTable::fmt_speedup(red)});
  }
  t.print(std::cout);
  std::cout << "average sync-time reduction: "
            << TextTable::fmt_speedup(geomean(reductions))
            << " (paper: 2.20x average)\n";
  return 0;
}
