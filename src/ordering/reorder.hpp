// Facade for the reordering phase (step 1 of the PanguLU pipeline, §4.1):
// MC64 row permutation + scaling for stability, then a symmetric
// fill-reducing permutation of the MC64-permuted matrix.
//
// The enumerators' numeric values are part of the snapshot format
// (io/snapshot.cpp bounds them, Solver::resume_from casts them back): append
// new ones, never renumber.
#pragma once

#include <vector>

#include "ordering/mc64.hpp"
#include "sparse/csc.hpp"
#include "util/status.hpp"

namespace pangulu {
class ThreadPool;
}

namespace pangulu::ordering {

enum class FillReducing {
  kNestedDissection,  // the paper's choice (METIS role)
  kMinDegree,         // exact minimum degree (quotient graph)
  kAmd,               // approximate minimum degree with supervariables
  kRcm,
  kNatural,
  /// kNestedDissection or kAmd, whichever predicts fewer factor flops from
  /// its column counts (a tie keeps ND). A pure function of the pattern.
  kAuto,
};

struct ReorderResult {
  /// Combined row permutation old->new (MC64 then symmetric perm).
  std::vector<index_t> row_perm;
  /// Column permutation old->new (symmetric perm only).
  std::vector<index_t> col_perm;
  /// MC64 scalings (identity when scaling disabled).
  std::vector<value_t> row_scale;
  std::vector<value_t> col_scale;
  /// The fully permuted + scaled matrix, ready for symbolic factorisation.
  Csc permuted;
};

struct ReorderOptions {
  bool use_mc64 = true;
  bool apply_scaling = true;
  FillReducing fill_reducing = FillReducing::kAuto;
  index_t nd_leaf_size = 64;
};

/// Run the reordering phase on a square matrix. `pool` feeds the parallel
/// adjacency construction (Graph::from_matrix); the orderings themselves are
/// sequential, and the result is identical at any thread count.
Status reorder(const Csc& a, const ReorderOptions& opts, ReorderResult* out,
               ThreadPool* pool = nullptr);

}  // namespace pangulu::ordering
