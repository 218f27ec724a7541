// GESSM: B <- L^-1 B where L is the unit-lower factor stored in a factorised
// diagonal block (GETRF output). Updates the blocks to the right of the
// diagonal in block LU. Columns of B are independent; rows carry the
// triangular dependency. Six variants (Table 1):
//   C_V1 — Merge addressing, serial column sweep (two-pointer merges between
//          L columns and B's column pattern).
//   C_V2 — Direct addressing, serial column sweep through the stamped
//          sparse accumulator (kernel_common.hpp) — O(nnz) per column.
//   G_V1 — Bin-search, warp-level column: one "warp" (pool chunk) per column.
//   G_V2 — Bin-search, un-sync warp-level row: per-column row pipeline with
//          dependency counters (no barriers), rows released as their source
//          entries finalise.
//   G_V3 — Direct, warp-level column: stamped slots from a pooled workspace
//          lease per chunk.
//   G_V4 — Merge, warp-level column: parallel C_V1.
#pragma once

#include "kernels/kernel_common.hpp"
#include "parallel/thread_pool.hpp"
#include "util/status.hpp"

namespace pangulu::kernels {

/// `diag` must hold a GETRF-factorised block; only its unit-lower part is
/// read. `b` is updated in place within its fixed pattern.
template <class V>
Status gessm(PanelVariant variant, const CscT<V>& diag, CscT<V>& b,
             Workspace& ws, ThreadPool* pool = nullptr);

/// Dense reference (tests): forward-substitution on a dense copy.
template <class V>
Status gessm_reference(const CscT<V>& diag, CscT<V>& b);

}  // namespace pangulu::kernels
