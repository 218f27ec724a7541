// Figure 4: density distribution of the matrices involved in the supernodal
// baseline's GEMM updates (C = A*B). The paper's point: on irregular
// matrices (ASIC_680k) the operand tiles are nearly empty, so dense BLAS
// wastes flops; on audikw_1 they are nearly full.
#include <iostream>

#include "baseline/supernodal.hpp"
#include "bench_common.hpp"
#include "util/histogram.hpp"

using namespace pangulu;

namespace {

void report(const std::string& name, double scale) {
  Csc a = matgen::paper_matrix(name, scale);
  baseline::SupernodalOptions opts;
  opts.reorder = bench::paper_reorder();
  opts.record_gemm_density = true;
  opts.execute_numerics = true;  // densities are measured on real values
  baseline::SupernodalSolver s;
  s.factorize(a, opts).check();

  Histogram ha = Histogram::percent10();
  Histogram hb = Histogram::percent10();
  Histogram hc = Histogram::percent10();
  for (const auto& g : s.stats().gemm_density) {
    ha.add(g.a);
    hb.add(g.b);
    hc.add(g.c);
  }
  const double total =
      std::max<double>(1.0, static_cast<double>(s.stats().gemm_density.size()));

  std::cout << "\n=== Figure 4 (" << name << "): GEMM operand density (% of "
            << "GEMMs per density decile) ===\n";
  TextTable t({"density", "Matrix A (%)", "Matrix B (%)", "Matrix C (%)"});
  for (std::size_t b = 0; b < 10; ++b) {
    t.add_row({ha.label(b), TextTable::fmt(100.0 * ha.count(b) / total, 1),
               TextTable::fmt(100.0 * hb.count(b) / total, 1),
               TextTable::fmt(100.0 * hc.count(b) / total, 1)});
  }
  t.print(std::cout);
  std::cout << "GEMM updates recorded: " << s.stats().gemm_density.size()
            << '\n';
}

}  // namespace

int main() {
  // Density structure only emerges at realistic sizes; default to full-size
  // stand-ins (env PANGULU_BENCH_SCALE overrides).
  const double scale =
      std::getenv("PANGULU_BENCH_SCALE") ? bench::bench_scale() : 1.0;
  std::cout << "Reproducing Figure 4 (GEMM density distributions), scale="
            << scale << '\n';
  for (const char* name : {"CoupCons3D", "ASIC_680k", "audikw_1"})
    report(name, scale);
  std::cout << "\nExpected shape (paper): ASIC_680k concentrated in [0,10)%, "
               "audikw_1 in [90,100]%, CoupCons3D spread with a large share "
               "under 50%.\n";
  return 0;
}
