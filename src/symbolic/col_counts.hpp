// Column counts of the Cholesky/LU factor without computing the fill
// pattern (Gilbert, Ng & Peyton 1994, as in CSparse's cs_counts): O(nnz(A)
// alpha(n)) time, O(n) space. Lets callers size the factorisation — memory,
// block size, FLOPs — before committing to the full symbolic pass.
#pragma once

#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace pangulu::symbolic {

/// Per-column nonzero counts (diagonal included) of the lower factor L of
/// the symmetric pattern of `a` (symmetrised internally, like
/// symbolic_symmetric). counts[j] == nnz(L(:,j)).
std::vector<nnz_t> factor_column_counts(const Csc& a);

/// The same counts for the symmetric pattern given as adjacency lists
/// (vertex v's neighbours are adj[ptr[v] .. ptr[v+1]), diagonal optional)
/// under the symmetric permutation `perm` (old -> new), in the new order:
/// the counts of P A P^T without building it.
std::vector<nnz_t> factor_column_counts(std::span<const nnz_t> ptr,
                                        std::span<const index_t> adj,
                                        std::span<const index_t> perm);

/// Factorisation flops predicted from the column counts of a symmetric
/// pattern: with l_k = u_k = counts[k] - 1, the sum of l_k + 2 l_k u_k —
/// equal to factorization_flops() of the symbolic filled pattern.
double predicted_flops(std::span<const nnz_t> counts);

/// Total nnz(L+U) with the diagonal counted once — the same metric
/// SymbolicResult::nnz_lu reports, at a fraction of the cost.
nnz_t estimate_fill(const Csc& a);

}  // namespace pangulu::symbolic
