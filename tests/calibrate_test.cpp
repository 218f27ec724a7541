#include <gtest/gtest.h>

#include "kernels/calibrate.hpp"

namespace pangulu::kernels {
namespace {

TEST(Calibrate, FindsObviousCrossover) {
  // Low kernel wins below metric 100, high kernel above.
  std::vector<PairedSample> samples;
  for (int i = 1; i <= 200; ++i) {
    const double m = i;
    const double t_low = 1.0 + 0.05 * m;   // cheap start, bad slope
    const double t_high = 5.0 + 0.01 * m;  // launch cost, good slope
    samples.push_back({m, t_low, t_high});
  }
  // Analytic crossover: 1 + 0.05m = 5 + 0.01m -> m = 100.
  const double th = fit_crossover(samples);
  EXPECT_NEAR(th, 100.0, 2.0);
  // The fitted threshold must cost no more than any probe threshold.
  for (double probe : {0.0, 50.0, 100.0, 150.0, 1e9}) {
    EXPECT_LE(policy_cost(samples, th), policy_cost(samples, probe) + 1e-9);
  }
}

TEST(Calibrate, OneKernelDominatesEverywhere) {
  std::vector<PairedSample> samples;
  for (int i = 1; i <= 50; ++i)
    samples.push_back({static_cast<double>(i), 1.0, 2.0});
  // Low kernel always wins: threshold above every metric.
  EXPECT_GT(fit_crossover(samples), 50.0);

  for (auto& s : samples) std::swap(s.time_low, s.time_high);
  // High kernel always wins: threshold below every metric.
  EXPECT_LT(fit_crossover(samples), 1.0);
}

TEST(Calibrate, EmptyAndSingleSample) {
  EXPECT_EQ(fit_crossover({}), 0.0);
  std::vector<PairedSample> one = {{10.0, 1.0, 2.0}};
  const double th = fit_crossover(one);
  EXPECT_GT(th, 10.0);  // low kernel wins -> cut above the sample
}

TEST(Calibrate, NoisyDataStillNearTrueCrossover) {
  std::vector<PairedSample> samples;
  unsigned state = 12345;
  auto noise = [&state]() {
    state = state * 1664525u + 1013904223u;
    return (static_cast<double>(state >> 16) / 65536.0 - 0.5) * 0.4;
  };
  for (int i = 1; i <= 500; ++i) {
    const double m = i * 2.0;
    samples.push_back({m, 1.0 + 0.02 * m + noise(), 9.0 + 0.002 * m + noise()});
  }
  // True crossover near m = 444.
  EXPECT_NEAR(fit_crossover(samples), 444.0, 60.0);
}

}  // namespace
}  // namespace pangulu::kernels
