#include "kernels/calibrate.hpp"

#include <algorithm>

namespace pangulu::kernels {

seconds_t policy_cost(const std::vector<PairedSample>& samples,
                      metric_t threshold) {
  seconds_t cost = 0;
  for (const auto& s : samples)
    cost += s.metric < threshold ? s.time_low : s.time_high;
  return cost;
}

metric_t fit_crossover(std::vector<PairedSample> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const PairedSample& a, const PairedSample& b) {
              return a.metric < b.metric;
            });
  // Suffix sums of time_high; prefix sums of time_low. Candidate thresholds
  // sit between adjacent metrics (plus the two extremes).
  const std::size_t n = samples.size();
  std::vector<seconds_t> suffix_high(n + 1, 0.0);
  for (std::size_t i = n; i > 0; --i)
    suffix_high[i - 1] = suffix_high[i] + samples[i - 1].time_high;

  seconds_t best_cost = suffix_high[0];       // threshold below everything
  metric_t best_threshold = samples.front().metric * 0.5;
  seconds_t prefix_low = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix_low += samples[i].time_low;
    const seconds_t cost = prefix_low + suffix_high[i + 1];
    if (cost < best_cost) {
      best_cost = cost;
      best_threshold = i + 1 < n
                           ? 0.5 * (samples[i].metric + samples[i + 1].metric)
                           : samples[i].metric * 2.0;
    }
  }
  return best_threshold;
}

}  // namespace pangulu::kernels
