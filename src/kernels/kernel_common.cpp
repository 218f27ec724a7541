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

// y[r] -= v[p] * a over the entries p in [b, e) of a column whose rows are
// first, first + 1, ... when first != kScatter, else rows[p].
template <class V>
[[gnu::always_inline]] inline void column_sub(V* y, const V* v,
                                              const index_t* rows, nnz_t b,
                                              nnz_t e, index_t first, V a) {
  if (first != SweepColumn::kScatter) {
    sub1(y + first, v + b, a, static_cast<index_t>(e - b));
    return;
  }
  for (nnz_t p = b; p < e; ++p) y[rows[p]] -= v[p] * a;
}

// The dot of entries [b, e) of such a column with x, in row order from +0.
template <class V>
[[gnu::always_inline]] inline V column_dot(const V* v, const index_t* rows,
                                           nnz_t b, nnz_t e, index_t first,
                                           const V* x) {
  V acc = 0;
  if (first != SweepColumn::kScatter) {
    for (nnz_t p = b; p < e; ++p) acc += v[p] * x[first + (p - b)];
  } else {
    for (nnz_t p = b; p < e; ++p) acc += v[p] * x[rows[p]];
  }
  return acc;
}

// First row of the strictly-lower part of column j: j + 1 when the column
// has no gaps (its diagonal entry is present), else a scatter.
inline index_t lower_first(const SweepColumn& c, index_t j) {
  return c.first == SweepColumn::kScatter ? SweepColumn::kScatter : j + 1;
}

}  // namespace

template <class V>
PANGULU_AXPY_CLONES void sweep_columns_sub(const CscT<V>& b,
                                           std::span<const SweepColumn> cols,
                                           const V* x, V* y) {
  const index_t* rows = b.row_idx().data();
  const V* v = b.values().data();
  for (const SweepColumn& c : cols) {
    const V xj = x[c.col];
    if (xj == V(0)) continue;
    column_sub(y, v, rows, b.col_begin(c.col), b.col_end(c.col), c.first, xj);
  }
}

template <class V>
void sweep_columns_t_sub(const CscT<V>& b, std::span<const SweepColumn> cols,
                         const V* x, V* y) {
  const index_t* rows = b.row_idx().data();
  const V* v = b.values().data();
  for (const SweepColumn& c : cols)
    y[c.col] -= column_dot(v, rows, b.col_begin(c.col), b.col_end(c.col),
                           c.first, x);
}

template <class V>
PANGULU_AXPY_CLONES void diag_lower_sweep(const CscT<V>& d,
                                          std::span<const SweepColumn> cols,
                                          const nnz_t* diag, V* x) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = 0; j < d.n_cols(); ++j) {
    const V xj = x[j];
    if (xj == V(0)) continue;
    column_sub(x, v, rows, diag[j] + 1, d.col_end(j),
               lower_first(cols[static_cast<std::size_t>(j)], j), xj);
  }
}

template <class V>
PANGULU_AXPY_CLONES void diag_upper_sweep(const CscT<V>& d,
                                          std::span<const SweepColumn> cols,
                                          const nnz_t* diag, V* x) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = d.n_cols() - 1; j >= 0; --j) {
    const V djj = v[diag[j]];
    PANGULU_CHECK(djj != V(0), "upper solve: zero diagonal");
    x[j] /= djj;
    const V xj = x[j];
    if (xj == V(0)) continue;
    column_sub(x, v, rows, d.col_begin(j), diag[j],
               cols[static_cast<std::size_t>(j)].first, xj);
  }
}

template <class V>
void diag_upper_t_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                        const nnz_t* diag, V* x) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = 0; j < d.n_cols(); ++j) {
    const V acc = column_dot(v, rows, d.col_begin(j), diag[j],
                             cols[static_cast<std::size_t>(j)].first, x);
    const V djj = v[diag[j]];
    PANGULU_CHECK(djj != V(0), "transpose solve: zero diagonal");
    x[j] = (x[j] - acc) / djj;
  }
}

template <class V>
void diag_lower_t_sweep(const CscT<V>& d, std::span<const SweepColumn> cols,
                        const nnz_t* diag, V* x) {
  const index_t* rows = d.row_idx().data();
  const V* v = d.values().data();
  for (index_t j = d.n_cols() - 1; j >= 0; --j)
    x[j] -= column_dot(v, rows, diag[j] + 1, d.col_end(j),
                       lower_first(cols[static_cast<std::size_t>(j)], j), x);
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
void spmm_sub_panel(const CscT<V>& blk, const V* x, index_t xstride, V* y,
                    index_t ystride, index_t k) {
  for (index_t j = 0; j < blk.n_cols(); ++j) {
    const V* xj = x + static_cast<std::size_t>(j) * xstride;
    for (nnz_t p = blk.col_begin(j); p < blk.col_end(j); ++p) {
      const index_t r = blk.row_idx()[static_cast<std::size_t>(p)];
      const V v = blk.values()[static_cast<std::size_t>(p)];
      V* yr = y + static_cast<std::size_t>(r) * ystride;
      for (index_t c = 0; c < k; ++c) {
        const V xcj = xj[c];
        if (xcj == V(0)) continue;
        yr[c] -= v * xcj;
      }
    }
  }
}

template <class V>
void spmm_t_sub_panel(const CscT<V>& blk, const V* x, index_t xstride, V* y,
                      index_t ystride, index_t k, V* acc) {
  for (index_t j = 0; j < blk.n_cols(); ++j) {
    for (index_t c = 0; c < k; ++c) acc[c] = V(0);
    for (nnz_t p = blk.col_begin(j); p < blk.col_end(j); ++p) {
      const index_t r = blk.row_idx()[static_cast<std::size_t>(p)];
      const V v = blk.values()[static_cast<std::size_t>(p)];
      const V* xr = x + static_cast<std::size_t>(r) * xstride;
      for (index_t c = 0; c < k; ++c) acc[c] += v * xr[c];
    }
    V* yj = y + static_cast<std::size_t>(j) * ystride;
    for (index_t c = 0; c < k; ++c) yj[c] -= acc[c];
  }
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
    std::span<const SweepColumn>, const float*, float*);
template void sweep_columns_sub<double>(const CscT<double>&,
    std::span<const SweepColumn>, const double*, double*);
template void sweep_columns_t_sub<float>(const CscT<float>&,
    std::span<const SweepColumn>, const float*, float*);
template void sweep_columns_t_sub<double>(const CscT<double>&,
    std::span<const SweepColumn>, const double*, double*);
template void diag_lower_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*);
template void diag_lower_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*);
template void diag_upper_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*);
template void diag_upper_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*);
template void diag_upper_t_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*);
template void diag_upper_t_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*);
template void diag_lower_t_sweep<float>(const CscT<float>&,
    std::span<const SweepColumn>, const nnz_t*, float*);
template void diag_lower_t_sweep<double>(const CscT<double>&,
    std::span<const SweepColumn>, const nnz_t*, double*);
template RowView RowView::build<float>(const CscT<float>&);
template RowView RowView::build<double>(const CscT<double>&);
template void spmm_sub_panel<float>(const CscT<float>&, const float*, index_t,
                                    float*, index_t, index_t);
template void spmm_sub_panel<double>(const CscT<double>&, const double*,
                                     index_t, double*, index_t, index_t);
template void spmm_t_sub_panel<float>(const CscT<float>&, const float*,
                                      index_t, float*, index_t, index_t,
                                      float*);
template void spmm_t_sub_panel<double>(const CscT<double>&, const double*,
                                       index_t, double*, index_t, index_t,
                                       double*);
template flops_t getrf_flops<float>(const CscT<float>&);
template flops_t getrf_flops<double>(const CscT<double>&);
template flops_t panel_solve_flops<float>(const CscT<float>&,
                                          const CscT<float>&, bool);
template flops_t panel_solve_flops<double>(const CscT<double>&,
                                           const CscT<double>&, bool);
template flops_t ssssm_flops<float>(const CscT<float>&, const CscT<float>&);
template flops_t ssssm_flops<double>(const CscT<double>&, const CscT<double>&);

}  // namespace pangulu::kernels
