// Figure 15: preprocessing time — the baseline's supernode/panel setup vs
// PanguLU's 2D blocking + mapping + balancing. Paper: PanguLU 1.61x faster
// on average (max 3.16x), slightly slower on a couple of matrices where the
// 2D block layout conversion dominates.
//
// The PanguLU column is broken down per phase (symbolic, blocking, mapping,
// solve-plan construction) from the solver's FactorStats, and reported for
// both the serial front-end (preprocess_threads=1) and the threaded one
// (preprocess_threads=0, global pool). Emits BENCH_fig15_preprocess.json.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/solver.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  const rank_t ranks = 128;
  std::cout << "Reproducing Figure 15 (preprocessing time), scale=" << scale
            << '\n';
  TextTable t({"matrix", "baseline (s)", "PanguLU ser (s)", "PanguLU par (s)",
               "symbolic (s)", "blocking (s)", "mapping (s)", "plan (s)",
               "speedup"});
  std::vector<double> speedups;
  std::vector<double> par_speedups;

  bench::JsonReporter json;
  json.meta("bench", "fig15_preprocess");
  json.meta("scale", scale);
  json.meta("ranks", static_cast<double>(ranks));
  json.meta("pool_threads", static_cast<double>(ThreadPool::global().size()));

  const auto device = runtime::DeviceModel::a100_like();
  // Preprocessing ends with distributing the factor structures from the
  // input rank to the process grid ("sends them to each process", §4.1);
  // the baseline ships dense panels (padding included), PanguLU ships
  // sparse blocks. Modeled as serialized sends over the cluster network.
  auto dist_time = [&](double payload_bytes) {
    return payload_bytes * (ranks - 1) / ranks / device.net_bandwidth;
  };

  for (const auto& name : bench::bench_matrices()) {
    Csc a = matgen::paper_matrix(name, scale);

    // Baseline preprocessing: supernode relaxation + dense tile build.
    baseline::SupernodalOptions bopts;
    bopts.reorder = bench::paper_reorder();
    bopts.n_ranks = ranks;
    bopts.execute_numerics = false;
    baseline::SupernodalSolver base;
    base.factorize(a, bopts).check();
    const double t_base =
        base.stats().preprocess_seconds +
        dist_time(8.0 * static_cast<double>(base.stats().nnz_lu_stored));

    // PanguLU preprocessing, serial front-end reference.
    solver::Options popts;
    popts.reorder = bench::paper_reorder();
    popts.n_ranks = ranks;
    popts.preprocess_threads = 1;
    solver::Solver ser;
    ser.factorize(a, popts).check();
    const double t_ser =
        ser.stats().preprocess_seconds +
        dist_time(12.0 * static_cast<double>(ser.stats().nnz_lu));

    // Threaded front-end on the global pool.
    popts.preprocess_threads = 0;
    solver::Solver par;
    par.factorize(a, popts).check();
    const auto& ps = par.stats();
    const double t_par =
        ps.preprocess_seconds +
        dist_time(12.0 * static_cast<double>(ps.nnz_lu));

    const double speedup = t_par > 0 ? t_base / t_par : 0;
    const double par_speedup = t_par > 0 ? t_ser / t_par : 0;
    speedups.push_back(speedup);
    par_speedups.push_back(par_speedup);
    t.add_row({name, TextTable::fmt(t_base, 4), TextTable::fmt(t_ser, 4),
               TextTable::fmt(t_par, 4), TextTable::fmt(ps.symbolic_seconds, 4),
               TextTable::fmt(ps.blocking_seconds, 4),
               TextTable::fmt(ps.mapping_seconds, 4),
               TextTable::fmt(ps.plan_seconds, 4),
               TextTable::fmt_speedup(speedup)});

    json.begin_row();
    json.field("matrix", name);
    json.field("baseline_seconds", t_base);
    json.field("pangulu_serial_seconds", t_ser);
    json.field("pangulu_parallel_seconds", t_par);
    json.field("symbolic_seconds", ps.symbolic_seconds);
    json.field("blocking_seconds", ps.blocking_seconds);
    json.field("mapping_seconds", ps.mapping_seconds);
    json.field("plan_seconds", ps.plan_seconds);
    json.field("speedup_vs_baseline", speedup);
    json.field("parallel_speedup", par_speedup);
  }
  t.print(std::cout);
  std::cout << "geomean speedup: " << TextTable::fmt_speedup(geomean(speedups))
            << " (paper: 1.61x average, max 3.16x, with a couple of matrices "
               "below 1x)\n";
  std::cout << "geomean threaded-front-end speedup: "
            << TextTable::fmt_speedup(geomean(par_speedups)) << " on "
            << ThreadPool::global().size() << " pool threads\n";
  json.meta("geomean_speedup", geomean(speedups));
  json.meta("geomean_parallel_speedup", geomean(par_speedups));
  if (!json.write_file("BENCH_fig15_preprocess.json")) {
    std::cout << "failed to write BENCH_fig15_preprocess.json\n";
    return 1;
  }
  return 0;
}
