// Decision-tree kernel selection (§4.3, Figure 8 of the paper). GETRF,
// GESSM and TSTRF select on the nonzero count of their input block; SSSSM
// selects on the FLOPs of the update. Thresholds default to the paper's
// (log10 cut-points read off Figure 8) and are configurable
// (`solver::Options::thresholds`). The selected variant prices the task in
// the runtime's cluster model and is the kernel a one-worker numeric
// engine runs; a multi-worker engine runs each family's C_V1 (DESIGN.md
// §8). Every variant writes its family's C_V1 bytes
// (kernel_equivalence_test), so a tree never changes the factors.
#pragma once

#include <cmath>

#include "kernels/kernel_common.hpp"

namespace pangulu::kernels {

struct SelectorThresholds {
  // GETRF (Figure 8a): nnz(A) cuts.
  metric_t getrf_cpu_nnz = 6310;        // 1e3.8 : below -> C_V1
  metric_t getrf_gv1_nnz = 1e4;         // below -> G_V1, else G_V2
  // GESSM (Figure 8b): nnz(B) cuts, plus the large-diagonal CPU guard.
  metric_t panel_huge_diag_nnz = 5e6;   // nnz(diag) above this -> CPU kernels
  metric_t gessm_cv1_nnz = 3981;        // 1e3.6 : below -> C_V1
  metric_t gessm_cv2_nnz = 7943;        // 1e3.9 : below -> C_V2
  metric_t gessm_gv1_nnz = 12589;       // 1e4.1 : below -> G_V1
  metric_t gessm_gv4_nnz = 12589;       // below -> G_V4 (merge); == gv1 cut by
                                      // default, i.e. an empty band unless
                                      // the caller widens it
  metric_t gessm_gv2_nnz = 19953;       // 1e4.3 : below -> G_V2, else G_V3
  // TSTRF (Figure 8c): nnz(B) cuts.
  metric_t tstrf_cv1_nnz = 3981;        // 1e3.6
  metric_t tstrf_cv2_nnz = 6310;        // 1e3.8
  metric_t tstrf_gv1_nnz = 1e4;         // 1e4.0
  metric_t tstrf_gv4_nnz = 1e4;         // merge band, empty by default (== gv1)
  metric_t tstrf_gv2_nnz = 19953;       // 1e4.3
  // SSSSM (Figure 8d): FLOP cuts.
  metric_t ssssm_cv2_flops = 63096;     // 1e4.8 : below -> C_V2
  metric_t ssssm_cv3_flops = 251189;    // 1e5.4 : below -> C_V3 (merge)
  metric_t ssssm_cv1_flops = 1e7;       // below -> C_V1
  metric_t ssssm_gv1_flops = 3.98e9;    // 1e9.6 : below -> G_V1, else G_V2
};

GetrfVariant select_getrf(nnz_t nnz_a, const SelectorThresholds& t = {});
PanelVariant select_gessm(nnz_t nnz_b, nnz_t nnz_diag,
                          const SelectorThresholds& t = {});
PanelVariant select_tstrf(nnz_t nnz_b, nnz_t nnz_diag,
                          const SelectorThresholds& t = {});
SsssmVariant select_ssssm(metric_t flops, const SelectorThresholds& t = {});

}  // namespace pangulu::kernels
