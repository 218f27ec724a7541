// Figure 11: symbolic factorisation time, SuperLU_DIST-style (unsymmetric
// column-DFS with pruning + supernode detection) vs PanguLU (symmetrised
// pattern + symmetric pruning / etree). The paper reports a 4.45x geometric
// mean speedup for PanguLU, peaking at 6.80x on cage12.
//
// The PanguLU column is reported twice: the serial reference and the
// threaded front-end on the global pool, so the figure doubles as a
// per-phase breakdown of where the parallel symbolic stage gains.
// Emits BENCH_fig11_symbolic.json.
#include <iostream>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "symbolic/supernodes.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  std::cout << "Reproducing Figure 11 (symbolic factorisation time), scale="
            << scale << '\n';
  TextTable t({"matrix", "baseline (s)", "PanguLU ser (s)", "PanguLU par (s)",
               "speedup", "par speedup", "baseline nnz(L+U)",
               "PanguLU nnz(L+U)"});
  std::vector<double> speedups;
  std::vector<double> par_speedups;
  std::vector<double> fill_ratio;

  bench::JsonReporter json;
  json.meta("bench", "fig11_symbolic");
  json.meta("scale", scale);
  json.meta("pool_threads",
            static_cast<double>(ThreadPool::global().size()));

  for (const auto& name : bench::bench_matrices()) {
    Csc a = matgen::paper_matrix(name, scale);
    ordering::ReorderResult reorder;
    ordering::reorder(a, bench::paper_reorder(), &reorder).check();

    // The baseline pays the full column-DFS reach traversal (SuperLU-style
    // symbolic without the symmetric-pruning shortcut PanguLU relies on)
    // plus supernode detection.
    Timer timer;
    symbolic::SymbolicResult unsym;
    symbolic::symbolic_unsymmetric(reorder.permuted, /*use_pruning=*/false,
                                   &unsym)
        .check();
    // Supernode detection is part of the baseline's symbolic stage.
    auto part = symbolic::detect_supernodes(unsym.filled, 2, 256);
    const double t_base = timer.seconds();

    timer.reset();
    symbolic::SymbolicResult sym;
    symbolic::symbolic_symmetric_serial(reorder.permuted, &sym).check();
    const double t_pangu = timer.seconds();

    timer.reset();
    symbolic::SymbolicResult sym_par;
    symbolic::symbolic_symmetric(reorder.permuted, &sym_par).check();
    const double t_pangu_par = timer.seconds();

    const double speedup = t_pangu > 0 ? t_base / t_pangu : 0.0;
    const double par_speedup =
        t_pangu_par > 0 ? t_pangu / t_pangu_par : 0.0;
    speedups.push_back(speedup);
    par_speedups.push_back(par_speedup);
    fill_ratio.push_back(static_cast<double>(sym.nnz_lu) /
                         static_cast<double>(unsym.nnz_lu));
    t.add_row({name, TextTable::fmt(t_base, 4), TextTable::fmt(t_pangu, 4),
               TextTable::fmt(t_pangu_par, 4), TextTable::fmt_speedup(speedup),
               TextTable::fmt_speedup(par_speedup),
               std::to_string(unsym.nnz_lu), std::to_string(sym.nnz_lu)});

    json.begin_row();
    json.field("matrix", name);
    json.field("baseline_seconds", t_base);
    json.field("pangulu_serial_seconds", t_pangu);
    json.field("pangulu_parallel_seconds", t_pangu_par);
    json.field("speedup_vs_baseline", speedup);
    json.field("parallel_speedup", par_speedup);
    json.field("baseline_nnz_lu", static_cast<double>(unsym.nnz_lu));
    json.field("pangulu_nnz_lu", static_cast<double>(sym.nnz_lu));
    (void)part;
  }
  t.print(std::cout);
  std::cout << "geomean speedup: " << TextTable::fmt_speedup(geomean(speedups))
            << "  (paper: 4.45x geomean, max 6.80x)\n";
  std::cout << "geomean threaded-front-end speedup: "
            << TextTable::fmt_speedup(geomean(par_speedups)) << " on "
            << ThreadPool::global().size() << " pool threads\n";
  std::cout << "note: PanguLU symmetrises the pattern, so its fill can exceed "
               "the unsymmetric baseline's on very unsymmetric matrices; the "
               "paper's Table 3 comparison is against supernodal padding, see "
               "bench_table3_stats.\n";
  json.meta("geomean_speedup", geomean(speedups));
  json.meta("geomean_parallel_speedup", geomean(par_speedups));
  if (!json.write_file("BENCH_fig11_symbolic.json")) {
    std::cout << "failed to write BENCH_fig11_symbolic.json\n";
    return 1;
  }
  return 0;
}
