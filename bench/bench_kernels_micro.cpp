// Google-benchmark microbenchmarks of the 17 sparse kernels (Table 1) at
// controlled block sizes/densities — complements bench_fig07_kernels, which
// measures the same kernels on harvested factorisation blocks.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "kernels/getrf.hpp"
#include "kernels/gessm.hpp"
#include "kernels/ssssm.hpp"
#include "kernels/tstrf.hpp"
#include "matgen/generators.hpp"
#include "symbolic/fill.hpp"

using namespace pangulu;
using namespace pangulu::kernels;

namespace {

Csc closed_block(index_t n, index_t per_col, std::uint64_t seed) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_unsymmetric(matgen::random_sparse(n, per_col, seed),
                                 false, &sym)
      .check();
  return sym.filled;
}

void BM_Getrf(benchmark::State& state) {
  const auto variant = static_cast<GetrfVariant>(state.range(0));
  const auto n = static_cast<index_t>(state.range(1));
  Csc base = closed_block(n, 4, 42);
  Workspace ws;
  for (auto _ : state) {
    Csc work = base;
    getrf(variant, work, ws, nullptr).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel(to_string(variant));
  state.counters["nnz"] = static_cast<double>(base.nnz());
  state.counters["flops"] = getrf_flops(base);
}
BENCHMARK(BM_Getrf)
    ->ArgsProduct({{0, 1, 2}, {32, 128, 256}})
    ->Unit(benchmark::kMicrosecond);

struct PanelFixture {
  Csc diag;
  Csc b_lower;  // GESSM operand
  Csc b_upper;  // TSTRF operand
  Workspace ws;
  PanelFixture(index_t n, index_t cols) {
    diag = closed_block(n, 4, 7);
    getrf(GetrfVariant::kCV1, diag, ws, nullptr).check();
    // Rectangular panels; patterns need no closure here because benchmarks
    // only measure time (all variants traverse identical entry sets).
    b_lower = matgen::random_rect(n, cols, 0.2, 8);
    b_upper = matgen::random_rect(cols, n, 0.2, 9);
  }
};

void BM_Gessm(benchmark::State& state) {
  const auto variant = static_cast<PanelVariant>(state.range(0));
  PanelFixture f(static_cast<index_t>(state.range(1)), 64);
  for (auto _ : state) {
    Csc work = f.b_lower;
    gessm(variant, f.diag, work, f.ws).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel("GESSM_" + to_string(variant));
}
BENCHMARK(BM_Gessm)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {64, 192}})
    ->Unit(benchmark::kMicrosecond);

void BM_Tstrf(benchmark::State& state) {
  const auto variant = static_cast<PanelVariant>(state.range(0));
  PanelFixture f(static_cast<index_t>(state.range(1)), 64);
  for (auto _ : state) {
    Csc work = f.b_upper;
    tstrf(variant, f.diag, work, f.ws).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel("TSTRF_" + to_string(variant));
}
BENCHMARK(BM_Tstrf)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {64, 192}})
    ->Unit(benchmark::kMicrosecond);

// Density sweep (third argument, percent): the merge kernels are predicted
// to win the band where A's columns and C's column have comparable lengths;
// Direct amortises its slot registration only above it, bin-search only
// below.
void BM_Ssssm(benchmark::State& state) {
  const auto variant = static_cast<SsssmVariant>(state.range(0));
  const auto n = static_cast<index_t>(state.range(1));
  const double d = static_cast<double>(state.range(2)) / 100.0;
  Csc a = matgen::random_rect(n, n, d, 3);
  Csc b = matgen::random_rect(n, n, d, 4);
  Csc c = matgen::random_rect(n, n, std::min(0.5, 2.5 * d), 5);
  Workspace ws;
  for (auto _ : state) {
    Csc work = c;
    ssssm(variant, a, b, work, ws).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel(to_string(variant));
  state.counters["flops"] = ssssm_flops(a, b);
}
BENCHMARK(BM_Ssssm)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {64, 192}, {2, 8, 20}})
    ->Unit(benchmark::kMicrosecond);

// 100%-dense blocks: every column takes the kernels' dense-mapping fast path,
// whose inner loop is the multiversioned kernels::axpy_sources_sub — the
// random 2-20% blocks above never reach it. The diagonal shift keeps the
// unpivoted factorisation well conditioned, so no pivot is perturbed and
// no value overflows.
Csc dense_block(index_t rows, index_t cols, std::uint64_t seed) {
  Csc m = matgen::random_rect(rows, cols, 1.0, seed);
  for (index_t j = 0; j < std::min(rows, cols); ++j)
    m.values_mut()[static_cast<std::size_t>(m.col_begin(j) + j)] +=
        static_cast<double>(rows);
  return m;
}

void BM_GetrfDense(benchmark::State& state) {
  const auto variant = static_cast<GetrfVariant>(state.range(0));
  const auto n = static_cast<index_t>(state.range(1));
  Csc base = dense_block(n, n, 42);
  Workspace ws;
  for (auto _ : state) {
    Csc work = base;
    getrf(variant, work, ws, nullptr).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel(to_string(variant) + "_dense");
  state.counters["flops"] = getrf_flops(base);
}
BENCHMARK(BM_GetrfDense)
    ->ArgsProduct({{0, 1, 2}, {64, 192}})
    ->Unit(benchmark::kMicrosecond);

struct DensePanelFixture {
  Csc diag;
  Csc b_lower;  // GESSM operand: n x 64
  Csc b_upper;  // TSTRF operand: 64 x n
  Workspace ws;
  explicit DensePanelFixture(index_t n) {
    diag = dense_block(n, n, 7);
    getrf(GetrfVariant::kCV1, diag, ws, nullptr).check();
    b_lower = dense_block(n, 64, 8);
    b_upper = dense_block(64, n, 9);
  }
};

void BM_GessmDense(benchmark::State& state) {
  const auto variant = static_cast<PanelVariant>(state.range(0));
  DensePanelFixture f(static_cast<index_t>(state.range(1)));
  for (auto _ : state) {
    Csc work = f.b_lower;
    gessm(variant, f.diag, work, f.ws).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel("GESSM_" + to_string(variant) + "_dense");
}
BENCHMARK(BM_GessmDense)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {64, 192}})
    ->Unit(benchmark::kMicrosecond);

void BM_TstrfDense(benchmark::State& state) {
  const auto variant = static_cast<PanelVariant>(state.range(0));
  DensePanelFixture f(static_cast<index_t>(state.range(1)));
  for (auto _ : state) {
    Csc work = f.b_upper;
    tstrf(variant, f.diag, work, f.ws).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel("TSTRF_" + to_string(variant) + "_dense");
}
BENCHMARK(BM_TstrfDense)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {64, 192}})
    ->Unit(benchmark::kMicrosecond);

void BM_SsssmDense(benchmark::State& state) {
  const auto variant = static_cast<SsssmVariant>(state.range(0));
  const auto n = static_cast<index_t>(state.range(1));
  Csc a = dense_block(n, n, 3);
  Csc b = dense_block(n, n, 4);
  Csc c = dense_block(n, n, 5);
  Workspace ws;
  for (auto _ : state) {
    Csc work = c;
    ssssm(variant, a, b, work, ws).check();
    benchmark::DoNotOptimize(work.values().data());
  }
  state.SetLabel(to_string(variant) + "_dense");
  state.counters["flops"] = ssssm_flops(a, b);
}
BENCHMARK(BM_SsssmDense)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {64, 192}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
