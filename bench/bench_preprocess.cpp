// Preprocessing front-end scaling: serial reference vs the threaded phases
// (symbolic fill, 2D blocking, mapping/balancing) at 1/2/4/8 worker threads.
// Their total is the three phases rebuilt on every re-factorisation. Nested
// dissection, the reordering step that runs on the pool, is timed in its own
// columns outside that total: "serial" is a one-worker pool, which runs
// every subtree on the caller, so its row against the 1-thread row shows
// the timing noise. The harness exits non-zero if any pool size's ND
// permutation differs from the serial one.
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
#include "ordering/nested_dissection.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/ops.hpp"

using namespace pangulu;

namespace {

// Per-configuration phase minima across the interleaved repetitions.
struct PhaseTimes {
  double symbolic = 0;
  double blocking = 0;
  double mapping = 0;
  double nd = 0;  // nested dissection, not part of the total
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
  bool nd_same = true;
  std::vector<double> speedup4;

  for (const char* name : {"ASIC_680k", "Si87H76", "ecology1"}) {
    const Csc raw = matgen::paper_matrix(name, scale);
    ordering::ReorderResult reorder;
    ordering::reorder(raw, bench::paper_reorder(), &reorder).check();
    const Csc& a = reorder.permuted;
    const ordering::Graph nd_graph = ordering::Graph::from_matrix(raw);

    // One warm pass to obtain the structures the timed phases need.
    symbolic::SymbolicResult sym;
    symbolic::symbolic_symmetric_serial(a, &sym).check();
    const index_t bs = block::choose_block_size(a.n_cols(), sym.nnz_lu);
    block::BlockMatrix bm = block::BlockMatrix::from_filled_serial(sym.filled, bs);
    const auto tasks = block::enumerate_tasks(bm);
    const auto grid = block::ProcessGrid::make(8);

    auto time_nd = [&](ThreadPool& pool, PhaseTimes* out) {
      Timer t;
      auto perm = ordering::nested_dissection(nd_graph, {}, &pool);
      out->nd = std::min(out->nd, t.seconds());
      return perm;
    };
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
    PhaseTimes ser{kInit, kInit, kInit, kInit};
    ThreadPool serial_pool(1);
    const std::vector<index_t> serial_nd =
        ordering::nested_dissection(nd_graph, {}, &serial_pool);

    std::cout << "\n--- " << name << " (n=" << a.n_cols()
              << ", nnz(L+U)=" << sym.nnz_lu << ", bs=" << bs << ") ---\n";
    TextTable t({"threads", "symbolic (s)", "blocking (s)", "mapping (s)",
                 "total (s)", "speedup", "ND (s)", "ND speedup"});

    const int thread_counts[] = {1, 2, 4, 8};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    std::vector<std::pair<int, PhaseTimes>> rows;
    for (int threads : thread_counts) {
      pools.push_back(
          std::make_unique<ThreadPool>(static_cast<std::size_t>(threads)));
      rows.emplace_back(threads, PhaseTimes{kInit, kInit, kInit, kInit});
    }
    auto nd_at = [&](std::size_t k) {
      if (time_nd(*pools[k], &rows[k].second) != serial_nd) {
        nd_same = false;
        std::cout << "ND PERMUTATION DIFFERS: " << rows[k].first
                  << " threads vs serial\n";
      }
    };
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
      // ND the same way: serial and 1-thread alternate who goes first.
      if (i % 2 == 0) {
        time_nd(serial_pool, &ser);
        nd_at(0);
      } else {
        nd_at(0);
        time_nd(serial_pool, &ser);
      }
      for (std::size_t k = 1; k < pools.size(); ++k) nd_at(k);
    }
    t.add_row({"serial", TextTable::fmt(ser.symbolic, 4),
               TextTable::fmt(ser.blocking, 4), TextTable::fmt(ser.mapping, 4),
               TextTable::fmt(ser.total(), 4), "1.00x",
               TextTable::fmt(ser.nd, 4), "1.00x"});

    for (const auto& [threads, par] : rows) {
      const double speedup =
          par.total() > 0 ? ser.total() / par.total() : 0.0;
      const double nd_speedup = par.nd > 0 ? ser.nd / par.nd : 0.0;
      t.add_row({std::to_string(threads), TextTable::fmt(par.symbolic, 4),
                 TextTable::fmt(par.blocking, 4),
                 TextTable::fmt(par.mapping, 4),
                 TextTable::fmt(par.total(), 4),
                 TextTable::fmt_speedup(speedup), TextTable::fmt(par.nd, 4),
                 TextTable::fmt_speedup(nd_speedup)});

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
      json.field("nd_seconds", par.nd);
      json.field("serial_nd_seconds", ser.nd);
      json.field("nd_speedup", nd_speedup);

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
  if (!nd_same) return 1;
  std::cout << "ND permutation identical at every pool size\n";
  if (!guard_ok) return 1;
  std::cout << "1-thread no-regression guard passed\n";
  return 0;
}
