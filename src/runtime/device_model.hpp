// Calibrated device/network time model for the simulated cluster.
//
// The paper's evaluation runs on 32-node clusters of NVIDIA A100s and AMD
// MI50s; this machine has neither, so the DES runtime executes the real
// numerics on the host while *charging* virtual time from this model
// (DESIGN.md, substitution table). Costs are affine in work:
//     t = overhead + flops/rate + traversal_cost * nnz (+ bytes/bandwidth)
// with per-variant parameters, so that
//   * CPU kernels win at small sizes (no launch overhead),
//   * bin-search GPU kernels win mid-range,
//   * dense-mapping GPU kernels win at large sizes,
// reproducing the crossovers the Figure 8 decision trees encode.
#pragma once

#include <cstddef>
#include <string>

#include "kernels/kernel_common.hpp"
#include "util/types.hpp"

namespace pangulu::runtime {

struct KernelCost {
  double overhead_s = 0;      // fixed launch/dispatch cost
  double flop_rate = 1e9;     // sustained FLOP/s
  double per_nnz_s = 0;       // pattern-traversal cost per stored nonzero
  double per_dim_s = 0;       // dense-mapping scratch cost per block row

  double time(double flops, double nnz, double dim) const {
    return overhead_s + flops / flop_rate + per_nnz_s * nnz + per_dim_s * dim;
  }
};

struct DeviceModel {
  std::string name;

  KernelCost cpu_merge;      // C_V1-style serial merge kernels
  KernelCost cpu_binsearch;  // bin-search CPU kernels (C_V2-style)
  KernelCost cpu_direct;     // dense-mapped / stamped CPU kernels
  KernelCost gpu_merge;      // merge GPU kernels (G_V4 / SSSSM G_V3)
  KernelCost gpu_binsearch;  // G_V1/G_V2-style bin-search GPU kernels
  KernelCost gpu_direct;     // dense-mapping GPU kernels

  // Dense BLAS path (the supernodal baseline's GEMM) plus the gather/scatter
  // memory traffic it pays around every update. Small updates fall back to
  // the host CPU (as CPU-GPU supernodal solvers do) and skip the launch cost.
  double dense_gemm_rate = 1e12;       // FLOP/s on dense panels (GPU)
  double dense_cpu_rate = 2e10;        // FLOP/s for the small-update fallback
  double dense_cpu_threshold = 2e5;    // below this many flops: stay on CPU
  double gather_scatter_bw = 1e11;     // bytes/s for pack/unpack
  double host_copy_bw = 1e10;          // bytes/s for the CPU fallback's copies
  double dense_launch_s = 1e-5;

  // Network between ranks.
  double net_latency_s = 1.5e-6;
  double net_bandwidth = 1.2e10;  // bytes/s (~100 Gb/s links in the paper)

  // Per-level barrier cost of bulk-synchronous scheduling (log-tree allreduce).
  double barrier_base_s = 4e-6;
  double barrier_per_rank_s = 1.0e-6;

  // Fault-recovery protocol timing (see runtime/fault.hpp). The retransmit
  // timer starts at ack_timeout(bytes) — one round trip plus slack — and
  // doubles on every retry (exponential backoff). A silent rank is declared
  // dead after crash_detect_s without heartbeats; adopting one orphaned
  // block during re-mapping costs remap_per_block_s on the survivors.
  double ack_timeout_slack_s = 2e-5;
  double crash_detect_s = 1e-3;
  double remap_per_block_s = 2e-7;

  static DeviceModel a100_like();
  static DeviceModel mi50_like();

  /// Time of a sparse block kernel of the given addressing class.
  double sparse_kernel_time(bool gpu, kernels::Addressing addr, double flops,
                            double nnz, double dim) const;

  /// Legacy two-class overload (direct vs. not); the non-direct class maps
  /// to bin-search on GPU and merge on CPU, matching the pre-merge-family
  /// variant split. Kept for callers that predate Addressing.
  double sparse_kernel_time(bool gpu, bool direct_addressing, double flops,
                            double nnz, double dim) const;

  /// Time of one dense GEMM update of the supernodal baseline, including
  /// gather/scatter of `moved_bytes`.
  double dense_update_time(double flops, double moved_bytes) const;

  double message_time(std::size_t bytes) const {
    return net_latency_s + static_cast<double>(bytes) / net_bandwidth;
  }

  /// Base retransmit timeout for a message of the given size: data + ack
  /// round trip plus scheduling slack. Doubles per retry in the protocol.
  double ack_timeout(std::size_t bytes) const {
    return message_time(bytes) + net_latency_s + ack_timeout_slack_s;
  }

  double barrier_time(rank_t ranks) const;
};

/// Bytes on the wire for a sparse block with `nnz` stored entries (values +
/// row indices + a column-pointer array of `cols+1` entries). `value_bytes`
/// is the stored value width — FP32 pipelines ship half the value payload,
/// which is exactly the bandwidth saving DESIGN.md §14 banks on.
std::size_t block_message_bytes(nnz_t nnz, index_t cols,
                                std::size_t value_bytes = sizeof(value_t));

}  // namespace pangulu::runtime
