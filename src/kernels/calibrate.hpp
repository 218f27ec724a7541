// Decision-tree threshold calibration. The paper builds its Figure 8 trees
// "according to a large amount of performance data"; this module is that
// measurement step: `autotune_thresholds` microbenchmarks every kernel
// variant on synthetic blocks across an nnz/density grid, fits the
// pairwise crossover points with `fit_crossover`, and writes them into a
// `SelectorThresholds` that can be persisted with `save_thresholds` and
// loaded into a solver run via `solver::Options::thresholds_file`. The
// microbench times each variant alone, with the whole pool behind the G_
// variants; a fitted tree therefore sets the modelled costs and the
// kernels of a one-worker numeric engine (ABFT on, or one task left),
// while a multi-worker engine runs C_V1 whatever the tree (DESIGN.md §8).
//
// Calibration is precision-aware (DESIGN.md §14): FP32 kernels shift every
// crossover (half the bytes per entry moves the bandwidth/latency balance),
// so `AutotuneOptions::precision` selects the value type the microbench
// runs at and the threshold file records which precision produced it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/selector.hpp"
#include "parallel/thread_pool.hpp"
#include "util/status.hpp"

namespace pangulu::kernels {

/// One measurement: the selection metric of a block (nnz or FLOPs) and the
/// observed execution time of the two candidate kernels on it.
struct PairedSample {
  metric_t metric;
  seconds_t time_low;   // kernel preferred below the threshold
  seconds_t time_high;  // kernel preferred above the threshold
};

/// Fit the threshold minimising total execution time when every block with
/// metric < threshold runs the "low" kernel and the rest run the "high"
/// kernel. Returns the optimal cut (midpoint between adjacent metrics, or
/// +/-inf-like extremes when one kernel dominates everywhere).
metric_t fit_crossover(std::vector<PairedSample> samples);

/// Total time of a sample set under a given threshold (exposed for tests
/// and for reporting the improvement a refit achieves).
seconds_t policy_cost(const std::vector<PairedSample>& samples,
                      metric_t threshold);

/// Microbenchmark grid for autotune_thresholds. The defaults finish in a
/// few hundred milliseconds; benches widen them for better fits.
struct AutotuneOptions {
  std::vector<index_t> sizes = {48, 96, 160};    // block dimension n
  std::vector<metric_t> densities = {0.02, 0.08, 0.2};
  int repeats = 3;            // min-of-repeats wall clock per variant
  std::uint64_t seed = 1234;  // synthetic block generator seed
  /// Value type the microbenchmarks execute at. kMixedIR calibrates the
  /// FP32 kernels (its numeric phase runs entirely in FP32).
  Precision precision = Precision::kDouble;
};

/// One fitted decision boundary, for reporting/tests.
struct AutotuneEntry {
  std::string family;    // "getrf" | "gessm" | "tstrf" | "ssssm"
  std::string boundary;  // e.g. "C_V1|G_V1"
  metric_t threshold;    // fitted metric cut
  int samples;           // paired measurements behind the fit
};

struct AutotuneReport {
  std::vector<AutotuneEntry> entries;
};

/// Time every kernel variant over the grid and refit all selector
/// thresholds. Thresholds are clamped to >= 1 and made monotone along each
/// family's decision chain so the resulting tree is always well-formed;
/// every variant the tuned selector can return exists and is equivalence-
/// tested. `pool` backs the G_ variants (global pool when null).
Status autotune_thresholds(const AutotuneOptions& opts,
                           SelectorThresholds* out,
                           AutotuneReport* report = nullptr,
                           ThreadPool* pool = nullptr);

/// Persist thresholds as "key value" lines ('#' comments allowed). Values
/// round-trip exactly (17 significant digits). A `precision` line records
/// which value type the thresholds were calibrated for.
Status save_thresholds(const std::string& path, const SelectorThresholds& t,
                       Precision precision = Precision::kDouble);

/// Load thresholds written by save_thresholds. Unknown keys are an error;
/// keys absent from the file keep their current value in `out`. Files
/// written before the precision field default to FP64: `*file_precision`
/// (when requested) is kDouble unless the file carries a `precision` line.
Status load_thresholds(const std::string& path, SelectorThresholds* out,
                       Precision* file_precision = nullptr);

}  // namespace pangulu::kernels
