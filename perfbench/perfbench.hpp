// Shared pieces of the end-to-end benchmark: workload definitions, sample
// statistics, correctness checks and the result record main.cpp prints.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "solver/session.hpp"

namespace perfbench {

using pangulu::Csc;
using pangulu::index_t;
using pangulu::nnz_t;

/// Samples of one timed quantity, reduced to order statistics.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  /// Linear interpolation between closest ranks (q in [0, 1]).
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 1;  // samples behind `value` (1 for counts)
  double q1 = 0;      // quartiles of the samples (== value for counts)
  double q3 = 0;
  std::vector<double> samples;  // in the order taken (timings only)
};
using Metrics = std::map<std::string, Metric>;

/// A timing metric: median of the samples, with their count and quartiles.
Metric timing(const Samples& s, const std::string& unit);
/// A metric that is a single value (count, size, ratio).
Metric single(double value, const std::string& unit);

struct Workload {
  std::string name;
  Csc matrix;  // seed-jittered base matrix of every epoch's setup()
  pangulu::solver::Options opts;
  int solves_per_step = 1;
  // A panel's time varies with its right-hand sides (how many columns
  // refinement keeps active), so steps with short panels run two of them.
  int panels_per_step = 1;
  int steps_per_epoch = 2;  // the last step of an epoch is the canary
  double residual_bound = 0;
};

/// Build a named workload. The sparsity pattern is fixed per workload; the
/// seed jitters the values. `tiny` shrinks the matrix for the self-test.
/// Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* w);

/// Scale every off-diagonal entry by (1 - eps * u), u uniform in [0, 1):
/// the diagonal dominance of every workload matrix survives.
void jitter_offdiagonal(const Csc& pattern, std::span<double> values,
                        double eps, pangulu::Rng& rng);

std::vector<double> random_vector(index_t n, pangulu::Rng& rng);

/// ||b - A x||_inf / (||A||_1 ||x||_inf + ||b||_inf), the backward error the
/// solver's own refinement loop targets.
double backward_error(const Csc& a, std::span<const double> b,
                         std::span<const double> x);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// A fixed dense compute loop (~10 ms) independent of the library: a
/// host-speed reference that shows drift, never a normaliser.
double host_reference_ms();

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// > 0: perturb the solution of this (1-based) single-RHS solve before
  /// its check, to prove that failed checks are counted.
  long corrupt_solve = 0;
  std::string trace_path;  // Chrome-trace output of the traced run
};

struct Result {
  long attempted = 0;
  long failed = 0;  // operations with a non-OK Status or a failed check
  Metrics metrics;      // exactly the metrics the run mode declares
  Metrics diagnostics;  // shown beside them, never gated
  std::vector<std::string> notes;  // what went wrong, for the log

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Closed-loop session run: epochs of setup + time steps until `seconds`.
Result run_untraced(const Workload& w, const RunConfig& cfg);

/// Traced run: the setup pipeline re-driven layer by layer under spans.
Result run_traced(const Workload& w, const RunConfig& cfg);

}  // namespace perfbench
