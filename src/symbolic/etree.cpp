#include "symbolic/etree.hpp"

#include <algorithm>

namespace pangulu::symbolic {

std::vector<index_t> elimination_tree(const Csc& a) {
  const index_t n = a.n_cols();
  PANGULU_CHECK(a.n_rows() == n, "etree: square matrix");
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      index_t i = a.row_idx()[static_cast<std::size_t>(p)];
      if (i >= j) break;  // only upper entries (rows < j) matter
      // Walk from i up to the root with path compression.
      index_t k = i;
      while (k != -1 && k != j) {
        index_t next = ancestor[static_cast<std::size_t>(k)];
        ancestor[static_cast<std::size_t>(k)] = j;
        if (next == -1) parent[static_cast<std::size_t>(k)] = j;
        k = next;
      }
    }
  }
  return parent;
}

std::vector<index_t> postorder(const std::vector<index_t>& parent) {
  const auto n = static_cast<index_t>(parent.size());
  // Child lists as linked lists in descending order, so pushing a list onto
  // the stack leaves the lowest child on top (visited first); roots are
  // taken in descending order.
  std::vector<index_t> head(static_cast<std::size_t>(n), -1);
  std::vector<index_t> next(static_cast<std::size_t>(n), -1);
  std::vector<index_t> roots;
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(p)];
    head[static_cast<std::size_t>(p)] = v;
  }
  for (index_t v = n - 1; v >= 0; --v)
    if (parent[static_cast<std::size_t>(v)] < 0) roots.push_back(v);
  std::vector<index_t> post;
  post.reserve(static_cast<std::size_t>(n));
  std::vector<index_t> stack;
  std::vector<char> expanded(static_cast<std::size_t>(n), 0);
  for (index_t r : roots) {
    stack.push_back(r);
    while (!stack.empty()) {
      index_t v = stack.back();
      if (!expanded[static_cast<std::size_t>(v)]) {
        expanded[static_cast<std::size_t>(v)] = 1;
        for (index_t c = head[static_cast<std::size_t>(v)]; c != -1;
             c = next[static_cast<std::size_t>(c)])
          stack.push_back(c);
      } else {
        stack.pop_back();
        post.push_back(v);
      }
    }
  }
  return post;
}

std::vector<index_t> tree_levels(const std::vector<index_t>& parent) {
  const auto n = static_cast<index_t>(parent.size());
  std::vector<index_t> level(static_cast<std::size_t>(n), 0);
  // Nodes are numbered so children precede parents in elimination order, so
  // one ascending pass is enough.
  for (index_t v = 0; v < n; ++v) {
    index_t p = parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      level[static_cast<std::size_t>(p)] =
          std::max(level[static_cast<std::size_t>(p)],
                   level[static_cast<std::size_t>(v)] + 1);
    }
  }
  return level;
}

}  // namespace pangulu::symbolic
