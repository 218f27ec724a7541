#include "block/tasks.hpp"

#include <vector>

#include "kernels/kernel_common.hpp"

namespace pangulu::block {

namespace {

/// Strictly-lower / strictly-upper column lengths of a diagonal block,
/// cached per elimination step so panel weights cost O(nnz(B)) each.
struct DiagTriLengths {
  std::vector<nnz_t> lower;  // per column: entries below the diagonal
  std::vector<nnz_t> upper;  // per column: entries above the diagonal

  template <class C>
  explicit DiagTriLengths(const C& d)
      : lower(static_cast<std::size_t>(d.n_cols()), 0),
        upper(static_cast<std::size_t>(d.n_cols()), 0) {
    for (index_t j = 0; j < d.n_cols(); ++j) {
      for (nnz_t p = d.col_begin(j); p < d.col_end(j); ++p) {
        const index_t r = d.row_idx()[static_cast<std::size_t>(p)];
        if (r > j)
          lower[static_cast<std::size_t>(j)]++;
        else if (r < j)
          upper[static_cast<std::size_t>(j)]++;
      }
    }
  }
};

/// GESSM weight: forward solve of B against the unit-lower part of the
/// diagonal block — every B entry at row k applies L(:,k)'s strict column.
template <class C>
double gessm_weight(const DiagTriLengths& tri, const C& b) {
  double f = 0;
  for (index_t r : b.row_idx())
    f += 2.0 * static_cast<double>(tri.lower[static_cast<std::size_t>(r)]) + 1.0;
  return f;
}

/// TSTRF weight: each B column j applies U(:,j)'s strict column per entry.
template <class C>
double tstrf_weight(const DiagTriLengths& tri, const C& b) {
  double f = 0;
  for (index_t j = 0; j < b.n_cols(); ++j) {
    f += static_cast<double>(b.col_end(j) - b.col_begin(j)) *
         (2.0 * static_cast<double>(tri.upper[static_cast<std::size_t>(j)]) + 1.0);
  }
  return f;
}

/// Lazily cached per-row nonzero counts of a block (the U-side operand of
/// SSSSM weights).
template <class BM>
const std::vector<nnz_t>& row_counts(const BM& bm, nnz_t pos,
                                     std::vector<std::vector<nnz_t>>& cache) {
  auto& rc = cache[static_cast<std::size_t>(pos)];
  if (rc.empty()) {
    const auto& b = bm.block(pos);
    rc.assign(static_cast<std::size_t>(b.n_rows()) + 1, 0);
    rc[0] = 1;  // sentinel marking "computed" even for empty blocks
    for (index_t r : b.row_idx()) rc[static_cast<std::size_t>(r) + 1]++;
  }
  return rc;
}

}  // namespace

template <class BM>
std::vector<Task> enumerate_tasks(const BM& bm) {
  std::vector<Task> tasks;
  const index_t nb = bm.nb();
  std::vector<std::vector<nnz_t>> row_cnt_cache(
      static_cast<std::size_t>(bm.n_blocks()));

  for (index_t k = 0; k < nb; ++k) {
    const nnz_t diag = bm.find_block(k, k);
    PANGULU_CHECK(diag >= 0, "diagonal block missing (symbolic guarantees it)");
    const DiagTriLengths tri(bm.block(diag));

    Task getrf{TaskKind::kGetrf, k, k, k, diag, -1, -1, 0};
    getrf.weight = kernels::getrf_flops(bm.block(diag));
    tasks.push_back(getrf);

    // Panel solves: blocks right of the diagonal in block-row k (GESSM) and
    // below the diagonal in block-column k (TSTRF).
    for (nnz_t rp = bm.row_begin(k); rp < bm.row_end(k); ++rp) {
      const index_t bj = bm.row_block_col(rp);
      if (bj <= k) continue;
      const nnz_t pos = bm.row_block_pos(rp);
      Task t{TaskKind::kGessm, k, k, bj, pos, diag, -1,
             gessm_weight(tri, bm.block(pos))};
      tasks.push_back(t);
    }
    for (nnz_t cp = bm.col_begin(k); cp < bm.col_end(k); ++cp) {
      const index_t bi = bm.block_row(cp);
      if (bi <= k) continue;
      Task t{TaskKind::kTstrf, k, bi, k, cp, diag, -1,
             tstrf_weight(tri, bm.block(cp))};
      tasks.push_back(t);
    }

    // Schur updates: for every (bi > k, bj > k) with L-block (bi,k) and
    // U-block (k,bj) present.
    for (nnz_t cp = bm.col_begin(k); cp < bm.col_end(k); ++cp) {
      const index_t bi = bm.block_row(cp);
      if (bi <= k) continue;
      const auto& a = bm.block(cp);
      for (nnz_t rp = bm.row_begin(k); rp < bm.row_end(k); ++rp) {
        const index_t bj = bm.row_block_col(rp);
        if (bj <= k) continue;
        const nnz_t src_b = bm.row_block_pos(rp);
        const auto& brc = row_counts(bm, src_b, row_cnt_cache);
        // 2 * sum_k |A(:,k)| * |B(k,:)| without touching B's entry arrays.
        double w = 0;
        const index_t inner = a.n_cols();
        for (index_t kk = 0; kk < inner; ++kk) {
          const auto bk = static_cast<double>(brc[static_cast<std::size_t>(kk) + 1]);
          if (bk == 0) continue;
          w += 2.0 * static_cast<double>(a.col_end(kk) - a.col_begin(kk)) * bk;
        }
        // Two non-empty operand blocks can still have a structurally empty
        // product (no shared inner index); such updates are skipped — the
        // target block may legitimately be absent then.
        if (w == 0.0) continue;
        const nnz_t target = bm.find_block(bi, bj);
        PANGULU_CHECK(target >= 0, "SSSSM target block missing (closure)");
        Task t{TaskKind::kSsssm, k, bi, bj, target, cp, src_b, w};
        tasks.push_back(t);
      }
    }
  }
  return tasks;
}

template <class BM>
TaskAdjacency TaskAdjacency::build(const BM& bm,
                                   const std::vector<Task>& tasks) {
  TaskAdjacency g;
  const auto nt = static_cast<index_t>(tasks.size());
  g.dep.assign(static_cast<std::size_t>(nt), 0);
  g.out_ptr.assign(static_cast<std::size_t>(nt) + 1, 0);
  // The finalising task (GETRF/GESSM/TSTRF) of each block position.
  std::vector<index_t> finalizer(static_cast<std::size_t>(bm.n_blocks()), -1);

  for (index_t t = 0; t < nt; ++t) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    if (task.kind != TaskKind::kSsssm)
      finalizer[static_cast<std::size_t>(task.target)] = t;
  }
  // Pass 1: out-degree of every task (one counter bump per edge).
  auto count_edge = [&](index_t from) {
    g.out_ptr[static_cast<std::size_t>(from) + 1]++;
  };
  for (index_t t = 0; t < nt; ++t) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    switch (task.kind) {
      case TaskKind::kGetrf:
        break;  // depends only on incoming SSSSM updates (edges added below)
      case TaskKind::kGessm:
      case TaskKind::kTstrf: {
        count_edge(finalizer[static_cast<std::size_t>(task.src_a)]);
        g.dep[static_cast<std::size_t>(t)]++;
        break;
      }
      case TaskKind::kSsssm: {
        count_edge(finalizer[static_cast<std::size_t>(task.src_a)]);
        count_edge(finalizer[static_cast<std::size_t>(task.src_b)]);
        g.dep[static_cast<std::size_t>(t)] += 2;
        const index_t fin = finalizer[static_cast<std::size_t>(task.target)];
        PANGULU_CHECK(fin >= 0, "every block has a finalising task");
        count_edge(t);
        g.dep[static_cast<std::size_t>(fin)]++;
        break;
      }
    }
  }
  for (index_t t = 0; t < nt; ++t)
    g.out_ptr[static_cast<std::size_t>(t) + 1] +=
        g.out_ptr[static_cast<std::size_t>(t)];
  g.out_adj.resize(static_cast<std::size_t>(g.out_ptr.back()));
  // Pass 2: fill the adjacency with a moving cursor per source task. Edge
  // order within a source matches the per-vector build it replaces
  // (enumeration order of the dependent tasks).
  std::vector<nnz_t> next(g.out_ptr.begin(), g.out_ptr.end() - 1);
  auto add_edge = [&](index_t from, index_t to) {
    g.out_adj[static_cast<std::size_t>(next[static_cast<std::size_t>(from)]++)] =
        to;
  };
  for (index_t t = 0; t < nt; ++t) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    switch (task.kind) {
      case TaskKind::kGetrf:
        break;
      case TaskKind::kGessm:
      case TaskKind::kTstrf:
        add_edge(finalizer[static_cast<std::size_t>(task.src_a)], t);
        break;
      case TaskKind::kSsssm: {
        add_edge(finalizer[static_cast<std::size_t>(task.src_a)], t);
        add_edge(finalizer[static_cast<std::size_t>(task.src_b)], t);
        add_edge(t, finalizer[static_cast<std::size_t>(task.target)]);
        break;
      }
    }
  }
  return g;
}

template <class BM>
std::vector<index_t> sync_free_array(const BM& bm,
                                     const std::vector<Task>& tasks) {
  std::vector<index_t> arr(static_cast<std::size_t>(bm.n_blocks()), 0);
  for (const Task& t : tasks) {
    if (t.kind != TaskKind::kGetrf)
      arr[static_cast<std::size_t>(t.target)]++;
  }
  return arr;
}

template <class BM>
bool is_topological_order(const BM& bm, const std::vector<Task>& tasks) {
  std::vector<index_t> pending_updates(static_cast<std::size_t>(bm.n_blocks()),
                                       0);
  std::vector<char> finalized(static_cast<std::size_t>(bm.n_blocks()), 0);
  for (const Task& t : tasks) {
    if (t.kind == TaskKind::kSsssm)
      pending_updates[static_cast<std::size_t>(t.target)]++;
  }
  for (const Task& t : tasks) {
    switch (t.kind) {
      case TaskKind::kGetrf:
        if (pending_updates[static_cast<std::size_t>(t.target)] != 0)
          return false;  // factorised before all Schur updates landed
        finalized[static_cast<std::size_t>(t.target)] = 1;
        break;
      case TaskKind::kGessm:
      case TaskKind::kTstrf:
        if (!finalized[static_cast<std::size_t>(t.src_a)] ||
            pending_updates[static_cast<std::size_t>(t.target)] != 0)
          return false;
        finalized[static_cast<std::size_t>(t.target)] = 1;
        break;
      case TaskKind::kSsssm:
        if (!finalized[static_cast<std::size_t>(t.src_a)] ||
            !finalized[static_cast<std::size_t>(t.src_b)] ||
            finalized[static_cast<std::size_t>(t.target)])
          return false;
        pending_updates[static_cast<std::size_t>(t.target)]--;
        break;
    }
  }
  return true;
}

template std::vector<Task> enumerate_tasks(const BlockMatrixT<float>&);
template std::vector<Task> enumerate_tasks(const BlockMatrixT<double>&);
template TaskAdjacency TaskAdjacency::build(const BlockMatrixT<float>&,
                                            const std::vector<Task>&);
template TaskAdjacency TaskAdjacency::build(const BlockMatrixT<double>&,
                                            const std::vector<Task>&);
template std::vector<index_t> sync_free_array(const BlockMatrixT<float>&,
                                              const std::vector<Task>&);
template std::vector<index_t> sync_free_array(const BlockMatrixT<double>&,
                                              const std::vector<Task>&);
template bool is_topological_order(const BlockMatrixT<float>&,
                                   const std::vector<Task>&);
template bool is_topological_order(const BlockMatrixT<double>&,
                                   const std::vector<Task>&);

}  // namespace pangulu::block
