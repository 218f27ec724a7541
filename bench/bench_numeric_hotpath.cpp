// Numeric hot-path regression harness, two sections.
//
// 1. Kernel: times an SSSSM-dominated workload with the legacy
//    Direct-addressing accumulator (dense scratch column, reproduced locally
//    below) against the stamped sparse accumulator that replaced it, plus
//    the bin-search and merge kernels for context. Exits non-zero when the
//    stamped/legacy speedup falls below the guard (PANGULU_PERF_GUARD,
//    default 1.05 — generous so the ctest `perf` label only trips on real
//    regressions; the stamped accumulator's target on a quiet machine is
//    >= 1.3x).
// 2. Engine scaling: wall-clock numeric factorisation (simulate_factorization
//    with execute_numerics, DES replay included) of the three perfbench
//    matrices at SimOptions::numeric_threads 1, 2 and 4, interleaved, min of
//    5 runs each. Exits non-zero when any thread count's factors are not
//    bitwise those of one worker, or — only on hosts with at least 4
//    hardware threads — when fem3d at 4 workers is below 1.5x of 1 worker.
//
// Both sections land in BENCH_numeric_hotpath.json.
#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/ssssm.hpp"
#include "matgen/generators.hpp"

using namespace pangulu;

namespace {

/// The pre-PR Direct inner loop, kept verbatim as the baseline: zero an
/// O(n_rows) dense scratch, scatter C(:,j) into it, accumulate the products
/// densely, gather back. The stamped accumulator replaced exactly this.
void legacy_column_direct(const Csc& a, const Csc& b, Csc& c, index_t j,
                          std::vector<value_t>& dense) {
  std::fill(dense.begin(), dense.end(), value_t(0));
  auto crows = c.row_idx();
  auto cvals = c.values_mut();
  const nnz_t cb = c.col_begin(j), ce = c.col_end(j);
  for (nnz_t p = cb; p < ce; ++p)
    dense[static_cast<std::size_t>(crows[static_cast<std::size_t>(p)])] =
        cvals[static_cast<std::size_t>(p)];
  for (nnz_t q = b.col_begin(j); q < b.col_end(j); ++q) {
    const index_t k = b.row_idx()[static_cast<std::size_t>(q)];
    const value_t bkj = b.values()[static_cast<std::size_t>(q)];
    if (bkj == value_t(0)) continue;
    for (nnz_t p = a.col_begin(k); p < a.col_end(k); ++p) {
      dense[static_cast<std::size_t>(
          a.row_idx()[static_cast<std::size_t>(p)])] -=
          a.values()[static_cast<std::size_t>(p)] * bkj;
    }
  }
  for (nnz_t p = cb; p < ce; ++p)
    cvals[static_cast<std::size_t>(p)] =
        dense[static_cast<std::size_t>(crows[static_cast<std::size_t>(p)])];
}

struct Triple {
  Csc a, b, c;
};

double guard_value() {
  if (const char* s = std::getenv("PANGULU_PERF_GUARD")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.05;
}

/// One engine-scaling matrix, preprocessed like Solver::factorize with
/// default options at 4 simulated ranks.
struct ScalingCase {
  std::string name;
  bool fp32 = false;
  block::BlockMatrix blocks;
  std::vector<block::Task> tasks;
  block::Mapping mapping;
};

ScalingCase prepare_scaling(const std::string& name, const Csc& a, bool fp32) {
  ScalingCase c;
  c.name = name;
  c.fp32 = fp32;
  ordering::ReorderResult r;
  ordering::reorder(a, bench::paper_reorder(), &r).check();
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(r.permuted, &sym).check();
  c.blocks = block::BlockMatrix::from_filled(
      sym.filled, block::choose_block_size(a.n_cols(), sym.nnz_lu));
  c.tasks = block::enumerate_tasks(c.blocks);
  const auto grid = block::ProcessGrid::make(4);
  c.mapping = block::balanced_mapping(c.blocks, c.tasks, grid,
                                      block::cyclic_mapping(c.blocks, grid));
  return c;
}

/// Factorise a fresh copy at `threads` workers: wall seconds of the call,
/// and the raw bytes of the factors in `bytes`.
template <class V>
double time_factor(const ScalingCase& c, int threads,
                   std::vector<unsigned char>* bytes) {
  auto bm = block::BlockMatrixT<V>::converted_from(c.blocks);
  runtime::SimOptions opts;
  opts.n_ranks = 4;
  opts.numeric_threads = threads;
  runtime::SimResult res;
  Timer t;
  runtime::simulate_factorization(bm, c.tasks, c.mapping, opts, &res).check();
  const double seconds = t.seconds();
  bytes->clear();
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(bm.n_blocks()); ++pos) {
    const auto vals = bm.block(pos).values();
    const auto* b = reinterpret_cast<const unsigned char*>(vals.data());
    bytes->insert(bytes->end(), b, b + vals.size() * sizeof(V));
  }
  return seconds;
}

}  // namespace

int main() {
  // Large hyper-sparse blocks: the regime the stamped accumulator targets.
  // Per column the legacy path zeroes and re-reads an n-entry dense scratch
  // while the real work is a handful of flops, so the O(n_rows) traffic
  // dominates — exactly what early-factorisation Schur blocks look like.
  const index_t n = 2048;
  const auto n_triples = static_cast<std::size_t>(
      std::max(4.0, 8.0 * pangulu::bench::bench_scale()));
  const int repeats = 9;
  const double da = 0.002, db = 0.002, dc = 0.006;

  std::vector<Triple> triples;
  for (std::size_t i = 0; i < n_triples; ++i) {
    const auto seed = static_cast<std::uint64_t>(100 + 3 * i);
    triples.push_back({matgen::random_rect(n, n, da, seed),
                       matgen::random_rect(n, n, db, seed + 1),
                       matgen::random_rect(n, n, dc, seed + 2)});
  }

  // min-of-repeats over the whole workload; the C copies stay untimed.
  std::vector<Csc> work(triples.size());
  auto time_workload = [&](auto&& body) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < repeats; ++rep) {
      for (std::size_t i = 0; i < triples.size(); ++i) work[i] = triples[i].c;
      Timer t;
      for (std::size_t i = 0; i < triples.size(); ++i)
        body(triples[i].a, triples[i].b, work[i]);
      best = std::min(best, t.seconds());
    }
    return best;
  };

  std::vector<value_t> dense(static_cast<std::size_t>(n));
  const double legacy_s = time_workload([&](const Csc& a, const Csc& b,
                                            Csc& c) {
    for (index_t j = 0; j < c.n_cols(); ++j)
      legacy_column_direct(a, b, c, j, dense);
  });
  std::vector<Csc> legacy_result = work;

  kernels::Workspace ws;
  const double stamped_s = time_workload([&](const Csc& a, const Csc& b,
                                             Csc& c) {
    kernels::ssssm(kernels::SsssmVariant::kCV1, a, b, c, ws).check();
  });
  // Both paths must produce identical values (the stamped rewrite is
  // bit-compatible); a mismatch means the benchmark is comparing wrong code.
  for (std::size_t i = 0; i < work.size(); ++i) {
    for (std::size_t p = 0; p < work[i].values().size(); ++p) {
      const double diff =
          std::abs(work[i].values()[p] - legacy_result[i].values()[p]);
      if (diff > 1e-12) {
        std::cerr << "FAIL: stamped result diverges from legacy baseline\n";
        return 2;
      }
    }
  }

  const double binsearch_s = time_workload([&](const Csc& a, const Csc& b,
                                               Csc& c) {
    kernels::ssssm(kernels::SsssmVariant::kCV2, a, b, c, ws).check();
  });
  const double merge_s = time_workload([&](const Csc& a, const Csc& b,
                                           Csc& c) {
    kernels::ssssm(kernels::SsssmVariant::kCV3, a, b, c, ws).check();
  });

  const double speedup = legacy_s / stamped_s;
  const double guard = guard_value();

  std::cout << "numeric hot path (SSSSM-dominated, n=" << n << ", "
            << n_triples << " block triples, min of " << repeats
            << " repeats)\n";
  std::cout << "  legacy dense-scratch direct : " << legacy_s * 1e3 << " ms\n";
  std::cout << "  stamped direct (C_V1)       : " << stamped_s * 1e3
            << " ms\n";
  std::cout << "  bin-search (C_V2)           : " << binsearch_s * 1e3
            << " ms\n";
  std::cout << "  merge (C_V3)                : " << merge_s * 1e3 << " ms\n";
  std::cout << "  stamped speedup over legacy : " << speedup << "x (guard "
            << guard << "x)\n";

  // --- Engine scaling ------------------------------------------------------
  const std::vector<int> thread_counts = {1, 2, 4};
  const int scaling_runs = 5;
  std::vector<ScalingCase> cases;
  cases.push_back(
      prepare_scaling("fem3d_12x3_fp64", matgen::fem3d(12, 12, 12, 3, 101),
                      false));
  cases.push_back(prepare_scaling(
      "circuit_6000_fp64", matgen::circuit(6000, 3.0, 2.1, 680), false));
  cases.push_back(prepare_scaling(
      "grid2d_200_fp32", matgen::grid2d_laplacian(200, 200), true));

  struct ScalingRow {
    std::string name;
    std::vector<double> best;  // per thread count
    bool bitwise = true;
  };
  std::vector<ScalingRow> scaling;
  for (const ScalingCase& c : cases) {
    ScalingRow row{c.name,
                   std::vector<double>(thread_counts.size(),
                                       std::numeric_limits<double>::infinity()),
                   true};
    std::vector<unsigned char> want, got;
    for (int run = 0; run < scaling_runs; ++run) {
      for (std::size_t i = 0; i < thread_counts.size(); ++i) {
        const double s =
            c.fp32 ? time_factor<float>(c, thread_counts[i], &got)
                   : time_factor<double>(c, thread_counts[i], &got);
        row.best[i] = std::min(row.best[i], s);
        if (want.empty())
          want = got;
        else if (got != want)
          row.bitwise = false;
      }
    }
    scaling.push_back(row);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const double fem_guard = 1.5;
  const double fem_speedup4 = scaling[0].best[0] / scaling[0].best[2];

  std::cout << "numeric engine scaling (wall s, min of " << scaling_runs
            << " interleaved runs, " << hw << " hardware threads)\n";
  for (const ScalingRow& r : scaling) {
    std::cout << "  " << r.name << ":";
    for (std::size_t i = 0; i < thread_counts.size(); ++i)
      std::cout << "  " << thread_counts[i] << "w " << r.best[i] << " s ("
                << r.best[0] / r.best[i] << "x)";
    std::cout << (r.bitwise ? "  bitwise" : "  NOT BITWISE") << "\n";
  }

  pangulu::bench::JsonReporter json;
  json.meta("bench", "numeric_hotpath");
  json.meta("n", static_cast<double>(n));
  json.meta("triples", static_cast<double>(n_triples));
  json.meta("repeats", static_cast<double>(repeats));
  json.meta("density_a", da);
  json.meta("density_b", db);
  json.meta("density_c", dc);
  json.meta("speedup_stamped_over_legacy", speedup);
  json.meta("guard", guard);
  json.meta("hardware_threads", static_cast<double>(hw));
  json.meta("scaling_runs", static_cast<double>(scaling_runs));
  json.meta("fem3d_speedup_4_workers", fem_speedup4);
  json.meta("fem3d_guard_4_workers", fem_guard);
  auto row = [&](const std::string& name, double seconds) {
    json.begin_row();
    json.field("section", "kernel");
    json.field("kernel", name);
    json.field("seconds", seconds);
  };
  row("legacy_dense_scratch_direct", legacy_s);
  row("stamped_direct_cv1", stamped_s);
  row("binsearch_cv2", binsearch_s);
  row("merge_cv3", merge_s);
  for (const ScalingRow& r : scaling) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      json.begin_row();
      json.field("section", "engine_scaling");
      json.field("matrix", r.name);
      json.field("numeric_threads", static_cast<double>(thread_counts[i]));
      json.field("seconds", r.best[i]);
      json.field("speedup", r.best[0] / r.best[i]);
      json.field("bitwise", r.bitwise ? 1.0 : 0.0);
    }
  }
  if (!json.write_file("BENCH_numeric_hotpath.json")) {
    std::cerr << "FAIL: could not write BENCH_numeric_hotpath.json\n";
    return 2;
  }

  int rc = 0;
  if (speedup < guard) {
    std::cerr << "FAIL: stamped accumulator speedup " << speedup
              << "x below guard " << guard << "x\n";
    rc = 1;
  }
  for (const ScalingRow& r : scaling) {
    if (!r.bitwise) {
      std::cerr << "FAIL: " << r.name
                << " factors differ across numeric_threads\n";
      rc = 1;
    }
  }
  if (hw >= 4 && fem_speedup4 < fem_guard) {
    std::cerr << "FAIL: fem3d engine speedup at 4 workers " << fem_speedup4
              << "x below guard " << fem_guard << "x\n";
    rc = 1;
  }
  return rc;
}
