// TSTRF: B <- B U^-1 where U is the upper factor of a factorised diagonal
// block. Updates the blocks below the diagonal in block LU. Columns of B
// carry the triangular dependency (through U's pattern); rows of B are
// independent. Six variants (Table 1):
//   C_V1 — Merge addressing, serial column sweep.
//   C_V2 — Direct addressing, serial column sweep through the stamped
//          sparse accumulator (kernel_common.hpp) — O(nnz) per column.
//   G_V1 — Bin-search, warp-level column: dependency-counter column
//          scheduling on the pool (independent columns run concurrently).
//   G_V2 — Bin-search, un-sync warp-level row: each row of B solves its own
//          x U = b system, all rows in parallel, no synchronisation at all.
//   G_V3 — Direct, warp-level column: as G_V1 with stamped-slot columns
//          from a pooled workspace lease.
//   G_V4 — Merge, warp-level column: parallel C_V1.
#pragma once

#include "kernels/kernel_common.hpp"
#include "parallel/thread_pool.hpp"
#include "util/status.hpp"

namespace pangulu::kernels {

/// `diag` must hold a GETRF-factorised block; only its upper part (with
/// diagonal) is read. `b` is updated in place within its fixed pattern.
template <class V>
Status tstrf(PanelVariant variant, const CscT<V>& diag, CscT<V>& b,
             Workspace& ws, ThreadPool* pool = nullptr);

/// Dense reference (tests).
template <class V>
Status tstrf_reference(const CscT<V>& diag, CscT<V>& b);

}  // namespace pangulu::kernels
