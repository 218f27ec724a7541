// Ablation: block size. §4.1 of the paper computes the block size "from the
// matrix order and the density of the matrix after symbolic factorisation to
// balance the computation and communication" — this harness sweeps explicit
// block sizes around the heuristic's pick and reports modeled numeric time,
// messages and bytes on 16 simulated GPUs, showing the trade-off the
// heuristic navigates.
#include <iostream>

#include "bench_common.hpp"

using namespace pangulu;

int main() {
  const double scale = bench::bench_scale();
  const rank_t ranks = 16;
  std::cout << "Block-size ablation (16 simulated GPUs), scale=" << scale
            << '\n';

  for (const char* name : {"ASIC_680k", "audikw_1", "ecology1", "Si87H76"}) {
    Csc a = matgen::paper_matrix(name, scale);
    ordering::ReorderResult reorder;
    ordering::reorder(a, bench::paper_reorder(), &reorder).check();
    symbolic::SymbolicResult sym;
    symbolic::symbolic_symmetric(reorder.permuted, &sym).check();
    const index_t heuristic =
        block::choose_block_size(a.n_cols(), sym.nnz_lu);
    const double flops = symbolic::factorization_flops(sym.filled);

    std::cout << "\n--- " << name << " (n=" << a.n_cols()
              << ", heuristic block size " << heuristic << ") ---\n";
    TextTable t({"block", "nb", "tasks", "time (s)", "GFLOPS", "messages",
                 "MiB"});
    for (index_t bs : std::vector<index_t>{heuristic / 4, heuristic / 2,
                                           heuristic, heuristic * 2,
                                           heuristic * 4}) {
      if (bs < 4) continue;
      block::BlockMatrix bm = block::BlockMatrix::from_filled(sym.filled, bs);
      auto tasks = block::enumerate_tasks(bm);
      auto grid = block::ProcessGrid::make(ranks);
      auto map = block::balanced_mapping(bm, tasks, grid,
                                         block::cyclic_mapping(bm, grid),
                                         nullptr);
      runtime::SimOptions so;
      so.n_ranks = ranks;
      so.execute_numerics = false;
      runtime::SimResult res;
      runtime::simulate_factorization(bm, tasks, map, so, &res).check();
      t.add_row({std::to_string(bs) + (bs == heuristic ? "*" : ""),
                 std::to_string(bm.nb()), std::to_string(tasks.size()),
                 TextTable::fmt(res.makespan, 5),
                 TextTable::fmt(flops / res.makespan / 1e9, 2),
                 std::to_string(res.messages),
                 TextTable::fmt(res.bytes / 1048576.0, 1)});
    }
    t.print(std::cout);
  }
  std::cout << "\n(*) heuristic choice. Expected: small blocks explode the "
               "message count, large blocks starve the 2D grid of "
               "parallelism; the heuristic sits near the sweet spot.\n";
  return 0;
}
