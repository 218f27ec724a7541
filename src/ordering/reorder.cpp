#include "ordering/reorder.hpp"

#include "ordering/amd.hpp"
#include "ordering/graph.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "sparse/ops.hpp"
#include "symbolic/col_counts.hpp"

namespace pangulu::ordering {

namespace {

double predicted_flops(const Graph& g, const std::vector<index_t>& perm) {
  return symbolic::predicted_flops(
      symbolic::factor_column_counts(g.ptr, g.adj, perm));
}

// kAuto: ND and AMD on the same graph, one after the other; the one with
// strictly fewer predicted flops wins, a tie keeps ND.
std::vector<index_t> cheaper_of_nd_amd(const Graph& g, const NdOptions& nd) {
  std::vector<index_t> nd_perm = nested_dissection(g, nd);
  std::vector<index_t> amd_perm = amd(g);
  return predicted_flops(g, amd_perm) < predicted_flops(g, nd_perm)
             ? std::move(amd_perm)
             : std::move(nd_perm);
}

}  // namespace

Status reorder(const Csc& a, const ReorderOptions& opts, ReorderResult* out,
               ThreadPool* pool) {
  if (a.n_rows() != a.n_cols())
    return Status::invalid_argument("reorder: square matrices only");
  const index_t n = a.n_cols();

  std::vector<index_t> mc64_row = identity_permutation(n);
  out->row_scale.assign(static_cast<std::size_t>(n), value_t(1));
  out->col_scale.assign(static_cast<std::size_t>(n), value_t(1));
  if (opts.use_mc64) {
    Mc64Result m;
    Status s = mc64(a, &m);
    if (!s.is_ok()) return s;
    mc64_row = m.row_perm;
    if (opts.apply_scaling) {
      out->row_scale = m.row_scale;
      out->col_scale = m.col_scale;
    }
  }

  // Symmetric fill-reducing permutation on the pattern of B + B', B the
  // MC64-row-permuted matrix (the orderings read no values).
  auto graph = [&] {
    if (!opts.use_mc64) return Graph::from_matrix(a, pool);
    return Graph::from_matrix(a.permuted(mc64_row, identity_permutation(n)), pool);
  };
  NdOptions nd;
  nd.leaf_size = opts.nd_leaf_size;
  std::vector<index_t> sym;
  switch (opts.fill_reducing) {
    case FillReducing::kNatural:
      sym = identity_permutation(n);
      break;
    case FillReducing::kRcm:
      sym = rcm(graph());
      break;
    case FillReducing::kMinDegree:
      sym = min_degree(graph());
      break;
    case FillReducing::kAmd:
      sym = amd(graph());
      break;
    case FillReducing::kNestedDissection:
      sym = nested_dissection(graph(), nd);
      break;
    case FillReducing::kAuto:
      sym = cheaper_of_nd_amd(graph(), nd);
      break;
  }

  // One permute of A into its final position, then the scaling carried to
  // the new positions: each entry gets the same col * row product as when
  // scaling before the permute, so the values match bit for bit.
  out->row_perm = compose(sym, mc64_row);
  out->col_perm = sym;
  out->permuted = a.permuted(out->row_perm, out->col_perm);
  if (opts.use_mc64 && opts.apply_scaling) {
    std::vector<value_t> rs(static_cast<std::size_t>(n)), cs(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      rs[static_cast<std::size_t>(out->row_perm[static_cast<std::size_t>(i)])] =
          out->row_scale[static_cast<std::size_t>(i)];
      cs[static_cast<std::size_t>(sym[static_cast<std::size_t>(i)])] =
          out->col_scale[static_cast<std::size_t>(i)];
    }
    out->permuted.scale(rs, cs);
  }
  return Status::ok();
}

}  // namespace pangulu::ordering
