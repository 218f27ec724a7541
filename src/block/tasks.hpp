// Task enumeration for block LU factorisation. Every kernel invocation is a
// task attached to its target block; the time slice of a task is its
// elimination step k (Figure 6(c) of the paper shows five such slices).
#pragma once

#include <vector>

#include "block/layout.hpp"
#include "util/types.hpp"

namespace pangulu::block {

enum class TaskKind { kGetrf, kGessm, kTstrf, kSsssm };

struct Task {
  TaskKind kind;
  index_t k;        // elimination step (time slice)
  index_t bi, bj;   // target block coordinates
  nnz_t target;     // position of target block in the BlockMatrix
  nnz_t src_a = -1; // SSSSM: L-side source block (bi, k); panel: diag block
  nnz_t src_b = -1; // SSSSM: U-side source block (k, bj)
  double weight = 0;  // FLOP estimate (the paper's task weight)
};

/// Enumerate every task of the factorisation in (k, kind, bi, bj) order and
/// compute its weight from the block patterns. Templated on the block-matrix
/// type (BlockMatrixT<float> or BlockMatrixT<double>): task enumeration is
/// pattern-only, and the precision twins share identical structure, so both
/// instantiations produce the same task list (DESIGN.md §14).
template <class BM>
std::vector<Task> enumerate_tasks(const BM& bm);

/// Per-block number of incoming updates — the initialisation of the
/// synchronisation-free array (§4.4): for an off-diagonal block, the number
/// of SSSSM updates plus the one GESSM/TSTRF solve; for a diagonal block,
/// the number of SSSSM updates (GETRF fires when it reaches zero).
template <class BM>
std::vector<index_t> sync_free_array(const BM& bm,
                                     const std::vector<Task>& tasks);

/// Flattened (CSR) dependency graph over a task list, shared by the DES and
/// the numeric engine. `dep[t]` is the number of prerequisite completions
/// before task t is ready; the dependents released by t's completion are
/// `out_adj[out_ptr[t] .. out_ptr[t+1])`. Built in one counting pass plus a
/// prefix sum — no per-task vector allocations, and traversal is a single
/// contiguous scan.
///
/// Edge semantics (matching the sync-free array of §4.4): a panel solve
/// depends on its diagonal finaliser; an SSSSM depends on both source
/// blocks' finalisers and releases its target's finaliser.
struct TaskAdjacency {
  std::vector<index_t> dep;
  std::vector<nnz_t> out_ptr;   // size n_tasks + 1
  std::vector<index_t> out_adj;

  template <class BM>
  static TaskAdjacency build(const BM& bm, const std::vector<Task>& tasks);
};

/// True when executing `tasks` front to back never consumes a block before
/// the tasks producing it have run — i.e. enumeration order is a valid
/// topological order of the dependency DAG. The numeric engine relies on
/// this: its dispatch fences admit canonical prefixes, which must drain, and
/// its per-target SSSSM chain follows enumeration order; this verifies the
/// contract in tests.
template <class BM>
bool is_topological_order(const BM& bm, const std::vector<Task>& tasks);

}  // namespace pangulu::block
