// Mixed-precision regression harness (DESIGN.md §14): times the numeric
// phase at FP32 against FP64 on the bandwidth-bound matgen families (the
// stamped accumulators stream value arrays, so halving the word size should
// buy real wall-clock), reports the modeled communication bytes at both
// widths, and compares a mixed-IR end-to-end solve (FP32 factors + FP64
// refinement) against the pure-FP64 pipeline with its IR iteration counts.
// Prints a table, writes BENCH_mixed_precision.json, and exits non-zero
// when the geomean FP32/FP64 numeric-phase speedup falls below the guard
// (PANGULU_PERF_GUARD, default 1.3 — the PR's acceptance target; override
// downwards on noisy shared machines).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "kernels/precision.hpp"
#include "matgen/generators.hpp"
#include "runtime/sim.hpp"
#include "solver/solver.hpp"
#include "symbolic/fill.hpp"

using namespace pangulu;

namespace {

double guard_value() {
  if (const char* s = std::getenv("PANGULU_PERF_GUARD")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.3;
}

struct Prepared {
  block::BlockMatrix bm;
  std::vector<block::Task> tasks;
  block::Mapping mapping;
};

Prepared prepare(const Csc& a, index_t block_size, rank_t ranks) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Prepared p;
  if (block_size == 0)
    block_size = block::choose_block_size(a.n_cols(), sym.filled.nnz());
  p.bm = block::BlockMatrix::from_filled(sym.filled, block_size);
  p.tasks = block::enumerate_tasks(p.bm);
  p.mapping = block::cyclic_mapping(p.bm, block::ProcessGrid::make(ranks));
  return p;
}

/// Wall-clock one numeric phase at value type V on a fresh
/// precision-converted copy of the blocked pattern (the factorisation
/// mutates its input). Returns the modeled message bytes alongside.
template <class V>
std::pair<double, std::size_t> time_numeric(const Prepared& p, rank_t ranks) {
  auto bm = block::BlockMatrixT<V>::converted_from(p.bm);
  runtime::SimOptions opts;
  opts.n_ranks = ranks;
  // Serial CPU kernels isolate the arithmetic/bandwidth cost the precision
  // switch targets: the parallel variants spin-wait on the strictly
  // sequential column chains of these dense-ish factors, an overhead that
  // is identical at both widths and only dilutes the measured ratio.
  opts.policy = runtime::KernelPolicy::kFixedCpu;
  runtime::SimResult res;
  Timer t;
  runtime::simulate_factorization(bm, p.tasks, p.mapping, opts, &res).check();
  return {t.seconds(), res.bytes};
}

/// End-to-end factorize + solve at the given precision; returns
/// (factor seconds, solve seconds, IR iterations of the solve).
struct EndToEnd {
  double factor_s = 0;
  double solve_s = 0;
  int ir_iters = 0;
};

EndToEnd end_to_end(const Csc& a, kernels::Precision prec, rank_t ranks) {
  solver::Solver s;
  solver::Options opts;
  opts.n_ranks = ranks;
  opts.precision = prec;
  EndToEnd r;
  Timer tf;
  s.factorize(a, opts).check();
  r.factor_s = tf.seconds();

  std::vector<value_t> ones(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(ones, b);
  std::vector<value_t> x(b.size());
  solver::SolveStats stats;
  Timer ts;
  s.solve(b, x, &stats).check();
  r.solve_s = ts.seconds();
  r.ir_iters = stats.refine_iterations;
  return r;
}

}  // namespace

int main() {
  const double scale = pangulu::bench::bench_scale();
  const rank_t ranks = 4;
  const int repeats = 3;
  const double guard = guard_value();

  // The bandwidth-bound families: sizes are chosen so the FP64 factor
  // (~30-50 MB of values) spills the last-level cache and the numeric phase
  // streams from DRAM — the regime the precision switch targets. Smaller,
  // cache-resident instances measure arithmetic latency instead and show
  // FP32 speedups near 1x regardless of kernel quality, so a scaled-down
  // run (PANGULU_BENCH_SCALE < 1) should pair with a lower
  // PANGULU_PERF_GUARD.
  struct Family {
    std::string name;
    Csc a;
  };
  std::vector<Family> families;
  families.push_back(
      {"banded", matgen::banded_random(
                     static_cast<index_t>(std::max(1000.0, 10000.0 * scale)),
                     static_cast<index_t>(std::max(96.0, 800.0 * scale)), 1.0,
                     0, 42)});
  const auto fem_n = static_cast<index_t>(std::max(6.0, 24.0 * scale));
  families.push_back({"fem3d", matgen::fem3d(fem_n, fem_n, fem_n, 3, 7)});
  const auto grid_n = static_cast<index_t>(std::max(10.0, 40.0 * scale));
  families.push_back(
      {"grid3d", matgen::grid3d_laplacian(grid_n, grid_n, grid_n)});

  pangulu::bench::JsonReporter json;
  json.meta("bench", "mixed_precision");
  json.meta("ranks", static_cast<double>(ranks));
  json.meta("repeats", static_cast<double>(repeats));
  json.meta("guard", guard);

  std::cout << "mixed-precision numeric phase, FP32 vs FP64 (" << ranks
            << " ranks, min of " << repeats << " interleaved repeats)\n";

  double log_speedup_sum = 0;
  for (const Family& f : families) {
    // Block size 96: large enough that the dense-column fast paths engage on
    // the filled factors of every family above, small enough that per-block
    // scheduling stays negligible.
    Prepared p = prepare(f.a, 96, ranks);
    // Min of the repeats per width, the two widths interleaved repeat by
    // repeat so a loaded stretch of a shared host lands on both sides.
    double fp64_s = std::numeric_limits<double>::infinity();
    double fp32_s = fp64_s;
    std::size_t fp64_bytes = 0;
    std::size_t fp32_bytes = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      const auto [t64, b64] = time_numeric<double>(p, ranks);
      const auto [t32, b32] = time_numeric<float>(p, ranks);
      fp64_s = std::min(fp64_s, t64);
      fp32_s = std::min(fp32_s, t32);
      fp64_bytes = b64;
      fp32_bytes = b32;
    }
    const double speedup = fp64_s / fp32_s;
    log_speedup_sum += std::log(speedup);

    const EndToEnd e64 = end_to_end(f.a, kernels::Precision::kDouble, ranks);
    const EndToEnd eir = end_to_end(f.a, kernels::Precision::kMixedIR, ranks);

    std::cout << "  " << f.name << ": fp64 " << fp64_s * 1e3 << " ms, fp32 "
              << fp32_s * 1e3 << " ms (" << speedup << "x), modeled bytes "
              << fp64_bytes << " -> " << fp32_bytes << "\n";
    std::cout << "    end-to-end solve: fp64 " << e64.solve_s * 1e3
              << " ms, mixed-IR " << eir.solve_s * 1e3 << " ms ("
              << eir.ir_iters << " IR iters)\n";

    json.begin_row();
    json.field("family", f.name);
    json.field("n", static_cast<double>(f.a.n_cols()));
    json.field("nnz", static_cast<double>(f.a.nnz()));
    json.field("fp64_numeric_seconds", fp64_s);
    json.field("fp32_numeric_seconds", fp32_s);
    json.field("fp32_speedup", speedup);
    json.field("fp64_modeled_bytes", static_cast<double>(fp64_bytes));
    json.field("fp32_modeled_bytes", static_cast<double>(fp32_bytes));
    json.field("fp64_factor_seconds", e64.factor_s);
    json.field("mixed_ir_factor_seconds", eir.factor_s);
    json.field("fp64_solve_seconds", e64.solve_s);
    json.field("mixed_ir_solve_seconds", eir.solve_s);
    json.field("mixed_ir_iterations", static_cast<double>(eir.ir_iters));

    // The modeled traffic halves exactly with the word size; a drift here
    // means the plans stopped baking sizeof(V) into message sizes.
    if (fp32_bytes >= fp64_bytes) {
      std::cerr << "FAIL: FP32 modeled bytes (" << fp32_bytes
                << ") not below FP64 (" << fp64_bytes << ") on " << f.name
                << "\n";
      return 2;
    }
  }

  const double geomean =
      std::exp(log_speedup_sum / static_cast<double>(families.size()));
  json.meta("geomean_fp32_speedup", geomean);
  std::cout << "  geomean FP32 numeric-phase speedup: " << geomean
            << "x (guard " << guard << "x)\n";

  if (!json.write_file("BENCH_mixed_precision.json")) {
    std::cerr << "FAIL: could not write BENCH_mixed_precision.json\n";
    return 2;
  }

  if (geomean < guard) {
    std::cerr << "FAIL: FP32 numeric-phase speedup " << geomean
              << "x below guard " << guard << "x\n";
    return 1;
  }
  return 0;
}
