// Preprocessing front-end scaling: serial reference vs the threaded phases
// (symbolic fill, 2D blocking, mapping/balancing) at 1/2/4/8 worker threads.
// Reordering is excluded: it is a separate pipeline stage with its own bench
// (the front-end phases here are the ones rebuilt on every re-factorisation).
//
// Doubles as the perf smoke for `ctest -L perf`: the harness exits non-zero
// when the 1-thread parallel path (which dispatches straight to the serial
// code) regresses below the no-regression guard vs the serial reference.
// Emits BENCH_preprocess.json through the JsonReporter.
#include <algorithm>
#include <iostream>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/ops.hpp"

using namespace pangulu;

namespace {

// Per-configuration phase minima across the interleaved repetitions.
struct PhaseTimes {
  double symbolic = 0;
  double blocking = 0;
  double mapping = 0;
  double total() const { return symbolic + blocking + mapping; }
};

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const int reps = 5;
  // 1-thread runs dispatch to the serial code path, so the only difference
  // from the reference is measurement jitter; the guard leaves a margin for
  // that rather than demanding a strict >= 1.0 on noisy CI hosts (a shared
  // 1-core container can swing best-of-N by 15% when the suite runs around
  // it). PANGULU_PREPROCESS_GUARD overrides the floor.
  double serial_guard = 0.85;
  if (const char* g = std::getenv("PANGULU_PREPROCESS_GUARD")) {
    const double v = std::atof(g);
    if (v > 0) serial_guard = v;
  }

  std::cout << "Preprocessing front-end scaling (tentpole), scale=" << scale
            << '\n';

  bench::JsonReporter json;
  json.meta("bench", "preprocess");
  json.meta("scale", scale);
  json.meta("reps", static_cast<double>(reps));
  json.meta("hardware_threads",
            static_cast<double>(std::thread::hardware_concurrency()));

  bool guard_ok = true;
  std::vector<double> speedup4;

  for (const char* name : {"ASIC_680k", "Si87H76", "ecology1"}) {
    const Csc raw = matgen::paper_matrix(name, scale);
    ordering::ReorderResult reorder;
    ordering::reorder(raw, bench::paper_reorder(), &reorder).check();
    const Csc& a = reorder.permuted;

    // One warm pass to obtain the structures the timed phases need.
    symbolic::SymbolicResult sym;
    symbolic::symbolic_symmetric_serial(a, &sym).check();
    const index_t bs = block::choose_block_size(a.n_cols(), sym.nnz_lu);
    block::BlockMatrix bm = block::BlockMatrix::from_filled_serial(sym.filled, bs);
    const auto tasks = block::enumerate_tasks(bm);
    const auto grid = block::ProcessGrid::make(8);

    auto time_serial = [&](PhaseTimes* out) {
      Timer t;
      symbolic::SymbolicResult r;
      symbolic::symbolic_symmetric_serial(a, &r).check();
      out->symbolic = std::min(out->symbolic, t.seconds());
      t.reset();
      auto b = block::BlockMatrix::from_filled_serial(sym.filled, bs);
      out->blocking = std::min(out->blocking, t.seconds());
      t.reset();
      auto map = block::cyclic_mapping(bm, grid);
      map = block::balanced_mapping_serial(bm, tasks, grid, map);
      out->mapping = std::min(out->mapping, t.seconds());
    };
    auto time_parallel = [&](ThreadPool& pool, PhaseTimes* out) {
      Timer t;
      symbolic::SymbolicResult r;
      symbolic::symbolic_symmetric(a, &r, &pool).check();
      out->symbolic = std::min(out->symbolic, t.seconds());
      t.reset();
      auto b = block::BlockMatrix::from_filled(sym.filled, bs, &pool);
      out->blocking = std::min(out->blocking, t.seconds());
      t.reset();
      auto map = block::cyclic_mapping(bm, grid, &pool);
      map = block::balanced_mapping(bm, tasks, grid, map, nullptr, &pool);
      out->mapping = std::min(out->mapping, t.seconds());
    };

    // The guard compares against a serial reference measured *interleaved*
    // with the 1-thread run: on a shared host, load drift between two
    // separate measurement windows easily exceeds the dispatch overhead the
    // guard is looking for, so both sides must share the same window.
    constexpr double kInit = 1e30;
    PhaseTimes ser{kInit, kInit, kInit};

    std::cout << "\n--- " << name << " (n=" << a.n_cols()
              << ", nnz(L+U)=" << sym.nnz_lu << ", bs=" << bs << ") ---\n";
    TextTable t({"threads", "symbolic (s)", "blocking (s)", "mapping (s)",
                 "total (s)", "speedup"});

    const int thread_counts[] = {1, 2, 4, 8};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    std::vector<std::pair<int, PhaseTimes>> rows;
    for (int threads : thread_counts) {
      pools.push_back(
          std::make_unique<ThreadPool>(static_cast<std::size_t>(threads)));
      rows.emplace_back(threads, PhaseTimes{kInit, kInit, kInit});
    }
    for (int i = 0; i < reps; ++i) {
      // Alternate who goes first: under cgroup CPU quotas, whichever run
      // starts later in the enforcement window gets throttled more, so a
      // fixed order would bias the serial-vs-1-thread comparison.
      if (i % 2 == 0) {
        time_serial(&ser);
        time_parallel(*pools[0], &rows[0].second);
      } else {
        time_parallel(*pools[0], &rows[0].second);
        time_serial(&ser);
      }
      for (std::size_t k = 1; k < pools.size(); ++k) {
        time_parallel(*pools[k], &rows[k].second);
      }
    }
    t.add_row({"serial", TextTable::fmt(ser.symbolic, 4),
               TextTable::fmt(ser.blocking, 4), TextTable::fmt(ser.mapping, 4),
               TextTable::fmt(ser.total(), 4), "1.00x"});

    for (const auto& [threads, par] : rows) {
      const double speedup =
          par.total() > 0 ? ser.total() / par.total() : 0.0;
      t.add_row({std::to_string(threads), TextTable::fmt(par.symbolic, 4),
                 TextTable::fmt(par.blocking, 4),
                 TextTable::fmt(par.mapping, 4),
                 TextTable::fmt(par.total(), 4),
                 TextTable::fmt_speedup(speedup)});

      json.begin_row();
      json.field("matrix", name);
      json.field("threads", static_cast<double>(threads));
      json.field("symbolic_seconds", par.symbolic);
      json.field("blocking_seconds", par.blocking);
      json.field("mapping_seconds", par.mapping);
      json.field("total_seconds", par.total());
      json.field("serial_symbolic_seconds", ser.symbolic);
      json.field("serial_blocking_seconds", ser.blocking);
      json.field("serial_mapping_seconds", ser.mapping);
      json.field("serial_total_seconds", ser.total());
      json.field("speedup", speedup);

      if (threads == 1 && speedup < serial_guard) {
        guard_ok = false;
        std::cout << "GUARD FAILED: 1-thread speedup "
                  << TextTable::fmt_speedup(speedup) << " < "
                  << TextTable::fmt_speedup(serial_guard) << '\n';
      }
      if (threads == 4) speedup4.push_back(speedup);
    }
    t.print(std::cout);
  }

  const double g4 = geomean(speedup4);
  json.meta("geomean_speedup_4_threads", g4);
  std::cout << "\ngeomean end-to-end speedup at 4 threads: "
            << TextTable::fmt_speedup(g4)
            << " (target: >= 2x on a host with 4+ cores)\n";
  if (!json.write_file("BENCH_preprocess.json")) {
    std::cout << "failed to write BENCH_preprocess.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_preprocess.json\n";
  if (!guard_ok) return 1;
  std::cout << "1-thread no-regression guard passed\n";
  return 0;
}
