// Figure 12: numeric factorisation GFLOPS of PanguLU vs the supernodal
// baseline from 1 to 128 simulated GPUs, on the A100-like and MI50-like
// device models. The paper's headline: PanguLU wins 2.53x/2.79x geomean
// (up to 11.70x/17.97x on ASIC_680k) and scales to 47x/74x on 128 GPUs.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"

using namespace pangulu;

namespace {

// GFLOPS accounted on useful (sparse) flops, as the paper normalises both
// solvers by the same operation count. The baseline is factorised once per
// matrix; rank/device sweeps go through retime().
double baseline_gflops(baseline::SupernodalSolver& s, rank_t ranks,
                       const runtime::DeviceModel& device) {
  runtime::SimResult res;
  s.retime(ranks, device, &res).check();
  return s.stats().flops_sparse / res.makespan / 1e9;
}

}  // namespace

int main() {
  // Strong scaling needs enough work per rank to be meaningful at 128 ranks;
  // default to full-size stand-ins here (env PANGULU_BENCH_SCALE overrides).
  const double scale =
      std::getenv("PANGULU_BENCH_SCALE") ? bench::bench_scale() : 1.0;
  const std::vector<rank_t> gpus = {1, 2, 4, 8, 16, 32, 64, 128};
  std::cout << "Reproducing Figure 12 (scaling, GFLOPS), scale=" << scale
            << '\n';

  const auto a100 = runtime::DeviceModel::a100_like();
  const auto mi50 = runtime::DeviceModel::mi50_like();

  std::vector<double> speedup_a100, speedup_mi50, scalability;
  double best_scal = 0;
  std::string best_scal_name;
  for (const auto& name : bench::bench_matrices()) {
    bench::PreparedMatrix p = bench::prepare(name, scale);
    Csc a = p.a;

    baseline::SupernodalOptions bopts;
    bopts.reorder = bench::paper_reorder();
    bopts.execute_numerics = false;
    baseline::SupernodalSolver base;
    base.factorize(a, bopts).check();

    std::cout << "\n--- " << name << " (n=" << a.n_cols()
              << ", nnz(L+U)=" << p.symbolic.nnz_lu << ") ---\n";
    TextTable t({"GPUs", "baseline(A100)", "PanguLU(A100)", "baseline(MI50)",
                 "PanguLU(MI50)"});
    double pangu_a100_1 = 0, pangu_a100_128 = 0;
    for (rank_t g : gpus) {
      auto pa = bench::run_sim(p, g, a100, runtime::KernelPolicy::kAdaptive,
                               runtime::ScheduleMode::kSyncFree);
      auto pm = bench::run_sim(p, g, mi50, runtime::KernelPolicy::kAdaptive,
                               runtime::ScheduleMode::kSyncFree);
      const double gf_pa = p.symbolic.nnz_lu > 0
                               ? symbolic::factorization_flops(p.symbolic.filled) /
                                     pa.makespan / 1e9
                               : 0;
      const double gf_pm =
          symbolic::factorization_flops(p.symbolic.filled) / pm.makespan / 1e9;
      const double gf_ba = baseline_gflops(base, g, a100);
      const double gf_bm = baseline_gflops(base, g, mi50);
      if (g == 1) pangu_a100_1 = gf_pa;
      if (g == 128) {
        pangu_a100_128 = gf_pa;
        speedup_a100.push_back(gf_pa / gf_ba);
        speedup_mi50.push_back(gf_pm / gf_bm);
      }
      t.add_row({std::to_string(g), TextTable::fmt(gf_ba, 2),
                 TextTable::fmt(gf_pa, 2), TextTable::fmt(gf_bm, 2),
                 TextTable::fmt(gf_pm, 2)});
    }
    t.print(std::cout);
    if (pangu_a100_1 > 0) {
      const double s128 = pangu_a100_128 / pangu_a100_1;
      scalability.push_back(s128);
      if (s128 > best_scal) {
        best_scal = s128;
        best_scal_name = name;
      }
    }
  }

  std::cout << "\nSummary @128 GPUs: PanguLU vs baseline geomean speedup "
            << TextTable::fmt_speedup(geomean(speedup_a100)) << " (A100-like), "
            << TextTable::fmt_speedup(geomean(speedup_mi50))
            << " (MI50-like); paper reports 2.53x and 2.79x.\n";
  std::cout << "PanguLU self-scalability 1 -> 128 GPUs (A100-like), geomean: "
            << TextTable::fmt_speedup(geomean(scalability)) << ", best "
            << TextTable::fmt_speedup(best_scal) << " (" << best_scal_name
            << "); the paper's 47.51x/74.84x are likewise best-case, on "
               "matrices 100-1000x larger than these stand-ins.\n";
  return 0;
}
