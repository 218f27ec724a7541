// Decision-tree threshold fitting. The paper builds its Figure 8 trees
// "according to a large amount of performance data"; `fit_crossover` is
// that fitting step for one decision boundary: given paired timings of the
// two kernels either side of a cut, it returns the cut that minimises the
// total time. `bench_fig07_kernels` uses it to refit the GETRF CPU/GPU
// crossover from its own measurements. The trees themselves keep the
// paper's cut-points (selector.hpp): they price tasks for the modelled
// device, which the host running the kernels is not (DESIGN.md §8).
#pragma once

#include <vector>

#include "kernels/precision.hpp"

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

}  // namespace pangulu::kernels
