#include "symbolic/col_counts.hpp"

#include "symbolic/etree.hpp"

namespace pangulu::symbolic {

namespace {

/// cs_leaf: decide whether column j is a (first or subsequent) leaf of row
/// i's row-subtree; for subsequent leaves return the least common ancestor
/// of the previous leaf and j (with path compression on `ancestor`).
index_t leaf(index_t i, index_t j, const std::vector<index_t>& first,
             std::vector<index_t>& maxfirst, std::vector<index_t>& prevleaf,
             std::vector<index_t>& ancestor, int* jleaf) {
  *jleaf = 0;
  if (i <= j || first[static_cast<std::size_t>(j)] <=
                    maxfirst[static_cast<std::size_t>(i)]) {
    return -1;  // j is not a leaf of row i's subtree
  }
  maxfirst[static_cast<std::size_t>(i)] = first[static_cast<std::size_t>(j)];
  const index_t jprev = prevleaf[static_cast<std::size_t>(i)];
  prevleaf[static_cast<std::size_t>(i)] = j;
  *jleaf = (jprev == -1) ? 1 : 2;  // first leaf : subsequent leaf
  if (*jleaf == 1) return i;
  index_t q = jprev;
  while (q != ancestor[static_cast<std::size_t>(q)])
    q = ancestor[static_cast<std::size_t>(q)];
  for (index_t s = jprev; s != q;) {
    const index_t sparent = ancestor[static_cast<std::size_t>(s)];
    ancestor[static_cast<std::size_t>(s)] = q;
    s = sparent;
  }
  return q;  // lca(jprev, j)
}

// Column counts of a structurally symmetric pattern handed over column by
// column: for_each_entry(j, f) calls f(i) for the rows i of column j, in any
// order, with or without the diagonal.
template <class ForEachEntry>
std::vector<nnz_t> column_counts(index_t n, ForEachEntry&& for_each_entry) {
  // Elimination tree (Liu), from the entries above the diagonal.
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    for_each_entry(j, [&](index_t i) {
      for (index_t k = i; k != -1 && k < j;) {
        const index_t next = ancestor[static_cast<std::size_t>(k)];
        ancestor[static_cast<std::size_t>(k)] = j;
        if (next == -1) parent[static_cast<std::size_t>(k)] = j;
        k = next;
      }
    });
  }
  const std::vector<index_t> post = postorder(parent);

  std::vector<nnz_t> delta(static_cast<std::size_t>(n), 0);
  std::vector<index_t> first(static_cast<std::size_t>(n), -1);
  for (index_t k = 0; k < n; ++k) {
    index_t j = post[static_cast<std::size_t>(k)];
    delta[static_cast<std::size_t>(j)] =
        (first[static_cast<std::size_t>(j)] == -1) ? 1 : 0;  // leaf gets diag
    while (j != -1 && first[static_cast<std::size_t>(j)] == -1) {
      first[static_cast<std::size_t>(j)] = k;
      j = parent[static_cast<std::size_t>(j)];
    }
  }

  std::vector<index_t> maxfirst(static_cast<std::size_t>(n), -1);
  std::vector<index_t> prevleaf(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) ancestor[static_cast<std::size_t>(i)] = i;

  for (index_t k = 0; k < n; ++k) {
    const index_t j = post[static_cast<std::size_t>(k)];
    if (parent[static_cast<std::size_t>(j)] != -1)
      delta[static_cast<std::size_t>(parent[static_cast<std::size_t>(j)])]--;
    // Entries of row j (== column j: the pattern is symmetric) with i > j.
    for_each_entry(j, [&](index_t i) {
      int jleaf = 0;
      const index_t q = leaf(i, j, first, maxfirst, prevleaf, ancestor, &jleaf);
      if (jleaf >= 1) delta[static_cast<std::size_t>(j)]++;
      if (jleaf == 2) delta[static_cast<std::size_t>(q)]--;
    });
    if (parent[static_cast<std::size_t>(j)] != -1)
      ancestor[static_cast<std::size_t>(j)] = parent[static_cast<std::size_t>(j)];
  }
  // Accumulate the deltas up the elimination tree.
  for (index_t j = 0; j < n; ++j) {
    if (parent[static_cast<std::size_t>(j)] != -1)
      delta[static_cast<std::size_t>(parent[static_cast<std::size_t>(j)])] +=
          delta[static_cast<std::size_t>(j)];
  }
  return delta;
}

}  // namespace

std::vector<nnz_t> factor_column_counts(const Csc& a) {
  PANGULU_CHECK(a.n_rows() == a.n_cols(), "column counts: square matrix");
  const Csc sym = a.symmetrized();
  return column_counts(a.n_cols(), [&](index_t j, auto&& f) {
    for (nnz_t p = sym.col_begin(j); p < sym.col_end(j); ++p)
      f(sym.row_idx()[static_cast<std::size_t>(p)]);
  });
}

std::vector<nnz_t> factor_column_counts(std::span<const nnz_t> ptr,
                                        std::span<const index_t> adj,
                                        std::span<const index_t> perm) {
  const auto n = static_cast<index_t>(perm.size());
  PANGULU_CHECK(ptr.size() == perm.size() + 1, "column counts: ptr size");
  std::vector<index_t> old_of(perm.size());
  for (index_t v = 0; v < n; ++v)
    old_of[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] = v;
  return column_counts(n, [&](index_t j, auto&& f) {
    const auto v = static_cast<std::size_t>(old_of[static_cast<std::size_t>(j)]);
    for (nnz_t p = ptr[v]; p < ptr[v + 1]; ++p)
      f(perm[static_cast<std::size_t>(adj[static_cast<std::size_t>(p)])]);
  });
}

double predicted_flops(std::span<const nnz_t> counts) {
  double flops = 0;
  for (nnz_t c : counts) {
    // Symmetric pattern: column k of L and row k of U both hold c - 1
    // off-diagonal entries; same terms, same order as factorization_flops.
    const double lk = static_cast<double>(c - 1);
    const double uk = lk;
    flops += lk + 2.0 * lk * uk;
  }
  return flops;
}

nnz_t estimate_fill(const Csc& a) {
  const auto counts = factor_column_counts(a);
  nnz_t total = 0;
  for (nnz_t c : counts) total += 2 * c - 1;  // L col + U row, diag once
  return total;
}

}  // namespace pangulu::symbolic
