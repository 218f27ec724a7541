#include "kernels/kernel_common.hpp"

/// Function multiversioning for the dense axpy loops: GCC emits an AVX2 clone
/// (x86-64-v3) next to the baseline one and an ifunc resolver picks one at
/// load time, so the default -march build runs 256-bit vectors wherever the
/// host has them. pangulu_kernels compiles with -ffp-contract=off, so the
/// v3 clone cannot fuse the multiply-subtract into an FMA: every clone
/// performs the same IEEE operations and factors never depend on the host
/// CPU. Elsewhere (other compilers, targets without ifunc) the macro is
/// empty and the loop is compiled once for the target ISA. ThreadSanitizer
/// builds also get the plain loop: GCC instruments the ifunc resolver, which
/// runs during relocation, before the TSan runtime exists, and crashes.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && \
    defined(__x86_64__) && defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define PANGULU_AXPY_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define PANGULU_AXPY_CLONES
#endif

namespace pangulu::kernels {

namespace {

// The loops every clone below inlines: y[i] -= x[i] * a, and the same for
// four columns applied in order with y[i] held in a register. Each y[i]
// sees the same rounded multiply-subtract sequence either way.
template <class V>
[[gnu::always_inline]] inline void sub1(V* PANGULU_RESTRICT y,
                                        const V* PANGULU_RESTRICT x, V a,
                                        index_t n) {
  for (index_t i = 0; i < n; ++i)
    y[static_cast<std::size_t>(i)] -= x[static_cast<std::size_t>(i)] * a;
}

template <class V>
[[gnu::always_inline]] inline void sub4(
    V* PANGULU_RESTRICT y, const V* PANGULU_RESTRICT x0,
    const V* PANGULU_RESTRICT x1, const V* PANGULU_RESTRICT x2,
    const V* PANGULU_RESTRICT x3, V a0, V a1, V a2, V a3, index_t n) {
  for (index_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    V t = y[u];
    t -= x0[u] * a0;
    t -= x1[u] * a1;
    t -= x2[u] * a2;
    t -= x3[u] * a3;
    y[u] = t;
  }
}

}  // namespace

template <class V>
PANGULU_AXPY_CLONES void axpy_sources_sub(V* PANGULU_RESTRICT y, index_t lo,
                                          const AxpySource<V>* src,
                                          index_t m) {
  // Rows [from, to) of one source.
  const auto piece = [&](const AxpySource<V>& s, index_t from, index_t to) {
    if (from < to)
      sub1(y + static_cast<std::size_t>(from - lo),
           s.x + static_cast<std::size_t>(from - s.begin), s.a, to - from);
  };
  index_t c = 0;
  for (; c + 4 <= m; c += 4) {
    const AxpySource<V>* g = src + c;
    index_t b = g[0].begin, e = g[0].end;
    for (int i = 1; i < 4; ++i) {
      b = std::max(b, g[i].begin);
      e = std::min(e, g[i].end);
    }
    if (b >= e) {
      for (int i = 0; i < 4; ++i) piece(g[i], g[i].begin, g[i].end);
      continue;
    }
    for (int i = 0; i < 4; ++i) piece(g[i], g[i].begin, b);
    const auto at = [&](int i) {
      return g[i].x + static_cast<std::size_t>(b - g[i].begin);
    };
    sub4(y + static_cast<std::size_t>(b - lo), at(0), at(1), at(2), at(3),
         g[0].a, g[1].a, g[2].a, g[3].a, e - b);
    for (int i = 0; i < 4; ++i) piece(g[i], e, g[i].end);
  }
  for (; c < m; ++c) piece(src[c], src[c].begin, src[c].end);
}

namespace {

// Lanes a panel kernel works on at a time: a chunk's multipliers or dot
// accumulators stay in a small local array, whatever the panel's width.
constexpr index_t kLanes = 16;

// Row of entry p in [b, e) of a column whose rows are first, first + 1, ...
// when first != kScatter, else rows[p].
[[gnu::always_inline]] inline index_t row_of(const index_t* rows, nnz_t b,
                                             nnz_t p, index_t first) {
  return first != SweepColumn::kScatter ? first + static_cast<index_t>(p - b)
                                        : rows[p];
}

// y[r] -= v[p] * a[c] in every lane c whose multiplier a[c] (lane c of one
// panel row) is non-zero, over the entries p in [b, e) of such a column.
// One vector (stride 1) runs the contiguous sub1 loop on a gap-free column.
template <class V>
[[gnu::always_inline]] inline void column_sub(V* y, const V* v,
                                              const index_t* rows, nnz_t b,
                                              nnz_t e, index_t first,
                                              const V* a, index_t stride,
                                              index_t k) {
  if (stride == 1) {
    const V a0 = *a;
    if (a0 == V(0)) return;
    if (first != SweepColumn::kScatter) {
      sub1(y + first, v + b, a0, static_cast<index_t>(e - b));
      return;
    }
    for (nnz_t p = b; p < e; ++p) y[rows[p]] -= v[p] * a0;
    return;
  }
  for (index_t c0 = 0; c0 < k; c0 += kLanes) {
    const index_t w = std::min(kLanes, k - c0);
    V al[kLanes];
    index_t live = 0;
    for (index_t c = 0; c < w; ++c) {
      al[c] = a[c0 + c];
      live += al[c] != V(0);
    }
    if (live == 0) continue;
    for (nnz_t p = b; p < e; ++p) {
      V* yr = y + static_cast<std::size_t>(row_of(rows, b, p, first)) *
                      stride + c0;
      const V vp = v[p];
      if (live < w) {
        for (index_t c = 0; c < w; ++c)
          if (al[c] != V(0)) yr[c] -= vp * al[c];
      } else if (w == 2) {  // a loop of two costs more than the update
        yr[0] -= vp * al[0];
        yr[1] -= vp * al[1];
      } else {
        for (index_t c = 0; c < w; ++c) yr[c] -= vp * al[c];
      }
    }
  }
}

// out[c] = finish(out[c], dot_c) in every lane c, dot_c the dot of the
// entries [b, e) of such a column with lane c of x, in row order from +0.
template <class V, class Finish>
[[gnu::always_inline]] inline void column_dots(const V* v, const index_t* rows,
                                               nnz_t b, nnz_t e, index_t first,
                                               const V* x, V* out,
                                               index_t stride, index_t k,
                                               Finish finish) {
  if (stride == 1) {
    V acc = 0;
    for (nnz_t p = b; p < e; ++p) acc += v[p] * x[row_of(rows, b, p, first)];
    *out = finish(*out, acc);
    return;
  }
  for (index_t c0 = 0; c0 < k; c0 += kLanes) {
    const index_t w = std::min(kLanes, k - c0);
    V acc[kLanes] = {};
    for (nnz_t p = b; p < e; ++p) {
      const V* xr =
          x + static_cast<std::size_t>(row_of(rows, b, p, first)) * stride +
          c0;
      const V vp = v[p];
      for (index_t c = 0; c < w; ++c) acc[c] += vp * xr[c];
    }
    for (index_t c = 0; c < w; ++c) out[c0 + c] = finish(out[c0 + c], acc[c]);
  }
}

// First row of the strictly-lower part of column j: j + 1 when the column
// has no gaps (its diagonal entry is present), else a scatter.
inline index_t lower_first(const SweepColumn& c, index_t j) {
  return c.first == SweepColumn::kScatter ? SweepColumn::kScatter : j + 1;
}

constexpr auto minus = [](auto y, auto dot) { return y - dot; };

}  // namespace

template <class V>
PANGULU_AXPY_CLONES void sweep_columns_sub(const CscT<V>& b,
                                           std::span<const SweepColumn> cols,
                                           const V* x, V* y, index_t stride,
                                           index_t k) {
  const index_t* rows = b.row_idx().data();
  const V* v = b.values().data();
  for (const SweepColumn& c : cols)
    column_sub(y, v, rows, b.col_begin(c.col), b.col_end(c.col), c.first,
               x + static_cast<std::size_t>(c.col) * stride, stride, k);
}

template <class V>
void sweep_columns_t_sub(const CscT<V>& b, std::span<const SweepColumn> cols,
                         const V* x, V* y, index_t stride, index_t k) {
  const index_t* rows = b.row_idx().data();
  const V* v = b.values().data();
  for (const SweepColumn& c : cols)
    column_dots(v, rows, b.col_begin(c.col), b.col_end(c.col), c.first, x,
                y + static_cast<std::size_t>(c.col) * stride, stride, k,
                minus);
}

template <class V>
PANGULU_AXPY_CLONES void diag_lower_sweep(const CscT<V>& d,
                                          std::span<const SweepColumn> cols,
                                          const nnz_t* diag, V* x,
                                          index_t stride, index_t k) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = 0; j < d.n_cols(); ++j)
    column_sub(x, v, rows, diag[j] + 1, d.col_end(j),
               lower_first(cols[static_cast<std::size_t>(j)], j),
               x + static_cast<std::size_t>(j) * stride, stride, k);
}

template <class V>
PANGULU_AXPY_CLONES void diag_upper_sweep(const CscT<V>& d,
                                          std::span<const SweepColumn> cols,
                                          const nnz_t* diag, V* x,
                                          index_t stride, index_t k) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = d.n_cols() - 1; j >= 0; --j) {
    const V djj = v[diag[j]];
    PANGULU_CHECK(djj != V(0), "upper solve: zero diagonal");
    V* xj = x + static_cast<std::size_t>(j) * stride;
    for (index_t c = 0; c < k; ++c) xj[c] /= djj;
    column_sub(x, v, rows, d.col_begin(j), diag[j],
               cols[static_cast<std::size_t>(j)].first, xj, stride, k);
  }
}

template <class V>
void diag_upper_t_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                        const nnz_t* diag, V* x, index_t stride, index_t k) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = 0; j < d.n_cols(); ++j) {
    const V djj = v[diag[j]];
    PANGULU_CHECK(djj != V(0), "transpose solve: zero diagonal");
    column_dots(v, rows, d.col_begin(j), diag[j],
                cols[static_cast<std::size_t>(j)].first, x,
                x + static_cast<std::size_t>(j) * stride, stride, k,
                [djj](V y, V dot) { return (y - dot) / djj; });
  }
}

template <class V>
void diag_lower_t_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                        const nnz_t* diag, V* x, index_t stride, index_t k) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = d.n_cols() - 1; j >= 0; --j)
    column_dots(v, rows, diag[j] + 1, d.col_end(j),
                lower_first(cols[static_cast<std::size_t>(j)], j), x,
                x + static_cast<std::size_t>(j) * stride, stride, k,
                minus);
}

std::string to_string(GetrfVariant v) {
  switch (v) {
    case GetrfVariant::kCV1: return "GETRF_C_V1";
    case GetrfVariant::kGV1: return "GETRF_G_V1";
    case GetrfVariant::kGV2: return "GETRF_G_V2";
  }
  return "?";
}

std::string to_string(PanelVariant v) {
  switch (v) {
    case PanelVariant::kCV1: return "C_V1";
    case PanelVariant::kCV2: return "C_V2";
    case PanelVariant::kGV1: return "G_V1";
    case PanelVariant::kGV2: return "G_V2";
    case PanelVariant::kGV3: return "G_V3";
    case PanelVariant::kGV4: return "G_V4";
  }
  return "?";
}

std::string to_string(SsssmVariant v) {
  switch (v) {
    case SsssmVariant::kCV1: return "SSSSM_C_V1";
    case SsssmVariant::kCV2: return "SSSSM_C_V2";
    case SsssmVariant::kCV3: return "SSSSM_C_V3";
    case SsssmVariant::kGV1: return "SSSSM_G_V1";
    case SsssmVariant::kGV2: return "SSSSM_G_V2";
    case SsssmVariant::kGV3: return "SSSSM_G_V3";
  }
  return "?";
}

std::string to_string(Addressing a) {
  switch (a) {
    case Addressing::kDirect: return "direct";
    case Addressing::kBinSearch: return "binsearch";
    case Addressing::kMerge: return "merge";
  }
  return "?";
}

bool is_gpu_variant(GetrfVariant v) { return v != GetrfVariant::kCV1; }
bool is_gpu_variant(PanelVariant v) {
  return v == PanelVariant::kGV1 || v == PanelVariant::kGV2 ||
         v == PanelVariant::kGV3 || v == PanelVariant::kGV4;
}
bool is_gpu_variant(SsssmVariant v) {
  return v == SsssmVariant::kGV1 || v == SsssmVariant::kGV2 ||
         v == SsssmVariant::kGV3;
}

Addressing addressing_of(GetrfVariant v) {
  switch (v) {
    case GetrfVariant::kCV1: return Addressing::kDirect;
    case GetrfVariant::kGV1: return Addressing::kBinSearch;
    case GetrfVariant::kGV2: return Addressing::kDirect;
  }
  return Addressing::kDirect;
}

Addressing addressing_of(PanelVariant v) {
  switch (v) {
    case PanelVariant::kCV1: return Addressing::kMerge;
    case PanelVariant::kCV2: return Addressing::kDirect;
    case PanelVariant::kGV1: return Addressing::kBinSearch;
    case PanelVariant::kGV2: return Addressing::kBinSearch;
    case PanelVariant::kGV3: return Addressing::kDirect;
    case PanelVariant::kGV4: return Addressing::kMerge;
  }
  return Addressing::kDirect;
}

Addressing addressing_of(SsssmVariant v) {
  switch (v) {
    case SsssmVariant::kCV1: return Addressing::kDirect;
    case SsssmVariant::kCV2: return Addressing::kBinSearch;
    case SsssmVariant::kCV3: return Addressing::kMerge;
    case SsssmVariant::kGV1: return Addressing::kBinSearch;
    case SsssmVariant::kGV2: return Addressing::kDirect;
    case SsssmVariant::kGV3: return Addressing::kMerge;
  }
  return Addressing::kDirect;
}

template <class V>
RowView RowView::build(const CscT<V>& a) {
  RowView rv;
  rv.ptr.assign(static_cast<std::size_t>(a.n_rows()) + 1, 0);
  rv.col.resize(static_cast<std::size_t>(a.nnz()));
  rv.val_pos.resize(static_cast<std::size_t>(a.nnz()));
  for (index_t r : a.row_idx()) rv.ptr[static_cast<std::size_t>(r) + 1]++;
  for (index_t i = 0; i < a.n_rows(); ++i)
    rv.ptr[static_cast<std::size_t>(i) + 1] += rv.ptr[static_cast<std::size_t>(i)];
  std::vector<nnz_t> next(rv.ptr.begin(), rv.ptr.end() - 1);
  for (index_t j = 0; j < a.n_cols(); ++j) {
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      index_t r = a.row_idx()[static_cast<std::size_t>(p)];
      nnz_t q = next[static_cast<std::size_t>(r)]++;
      rv.col[static_cast<std::size_t>(q)] = j;
      rv.val_pos[static_cast<std::size_t>(q)] = p;
    }
  }
  return rv;
}

template <class V>
flops_t getrf_flops(const CscT<V>& a) {
  // Exact right-looking count on the block's own pattern: column k
  // contributes |L_k| divisions + 2|L_k||U_k| update flops, where U_k is the
  // strictly-upper part of row k.
  const index_t n = a.n_cols();
  std::vector<nnz_t> upper_row(static_cast<std::size_t>(n), 0);
  std::vector<nnz_t> lower_col(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      index_t r = a.row_idx()[static_cast<std::size_t>(p)];
      if (r > j)
        lower_col[static_cast<std::size_t>(j)]++;
      else if (r < j)
        upper_row[static_cast<std::size_t>(r)]++;
    }
  }
  flops_t f = 0;
  for (index_t k = 0; k < n; ++k) {
    flops_t lk = static_cast<flops_t>(lower_col[static_cast<std::size_t>(k)]);
    flops_t uk = static_cast<flops_t>(upper_row[static_cast<std::size_t>(k)]);
    f += lk + 2.0 * lk * uk;
  }
  return f;
}

template <class V>
flops_t panel_solve_flops(const CscT<V>& diag, const CscT<V>& b, bool lower) {
  // For each column/row pivot k used by an entry of B, the solve applies the
  // corresponding strictly-triangular column of the diagonal block. Estimate
  // 2 * sum over B entries of the triangular column length at that row.
  const index_t n = diag.n_cols();
  std::vector<nnz_t> tri_len(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    for (nnz_t p = diag.col_begin(j); p < diag.col_end(j); ++p) {
      index_t r = diag.row_idx()[static_cast<std::size_t>(p)];
      if (lower && r > j) tri_len[static_cast<std::size_t>(j)]++;
      if (!lower && r < j) tri_len[static_cast<std::size_t>(j)]++;
    }
  }
  flops_t f = 0;
  for (index_t j = 0; j < b.n_cols(); ++j) {
    for (nnz_t p = b.col_begin(j); p < b.col_end(j); ++p) {
      index_t r = b.row_idx()[static_cast<std::size_t>(p)];
      // lower solve consumes pivot rows r of B; upper solve pivots columns.
      index_t k = lower ? r : j;
      f += 2.0 * static_cast<flops_t>(tri_len[static_cast<std::size_t>(k)]) + 1.0;
    }
  }
  return f;
}

template <class V>
flops_t ssssm_flops(const CscT<V>& a, const CscT<V>& b) {
  // 2 * sum_k |A(:,k)| * |B(k,:)|; computed via B's row counts.
  std::vector<nnz_t> b_row(static_cast<std::size_t>(b.n_rows()), 0);
  for (index_t r : b.row_idx()) b_row[static_cast<std::size_t>(r)]++;
  flops_t f = 0;
  for (index_t k = 0; k < a.n_cols(); ++k) {
    f += 2.0 * static_cast<flops_t>(a.col_end(k) - a.col_begin(k)) *
         static_cast<flops_t>(b_row[static_cast<std::size_t>(k)]);
  }
  return f;
}

template void axpy_sources_sub<float>(float*, index_t,
                                      const AxpySource<float>*, index_t);
template void axpy_sources_sub<double>(double*, index_t,
                                       const AxpySource<double>*, index_t);
template void sweep_columns_sub<float>(const CscT<float>&,
    std::span<const SweepColumn>, const float*, float*, index_t, index_t);
template void sweep_columns_sub<double>(const CscT<double>&,
    std::span<const SweepColumn>, const double*, double*, index_t, index_t);
template void sweep_columns_t_sub<float>(const CscT<float>&,
    std::span<const SweepColumn>, const float*, float*, index_t, index_t);
template void sweep_columns_t_sub<double>(const CscT<double>&,
    std::span<const SweepColumn>, const double*, double*, index_t, index_t);
template void diag_lower_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*, index_t, index_t);
template void diag_lower_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*, index_t, index_t);
template void diag_upper_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*, index_t, index_t);
template void diag_upper_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*, index_t, index_t);
template void diag_upper_t_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*, index_t, index_t);
template void diag_upper_t_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*, index_t, index_t);
template void diag_lower_t_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*, index_t, index_t);
template void diag_lower_t_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*, index_t, index_t);
template RowView RowView::build<float>(const CscT<float>&);
template RowView RowView::build<double>(const CscT<double>&);
template flops_t getrf_flops<float>(const CscT<float>&);
template flops_t getrf_flops<double>(const CscT<double>&);
template flops_t panel_solve_flops<float>(const CscT<float>&,
                                          const CscT<float>&, bool);
template flops_t panel_solve_flops<double>(const CscT<double>&,
                                           const CscT<double>&, bool);
template flops_t ssssm_flops<float>(const CscT<float>&, const CscT<float>&);
template flops_t ssssm_flops<double>(const CscT<double>&, const CscT<double>&);

}  // namespace pangulu::kernels
