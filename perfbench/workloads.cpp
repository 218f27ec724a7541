// Workload definitions and the untraced closed-loop session run.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <sys/resource.h>

#include "matgen/generators.hpp"
#include "perfbench.hpp"
#include "sparse/ops.hpp"
#include "util/timer.hpp"

namespace perfbench {

using pangulu::Dense;
using pangulu::Rng;
using pangulu::Status;
using pangulu::Timer;
namespace kernels = pangulu::kernels;
namespace matgen = pangulu::matgen;
namespace solver = pangulu::solver;

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

Metric timing(const Samples& s, const std::string& unit) {
  return {s.median(), unit, s.size(), s.quantile(0.25), s.quantile(0.75),
          s.values()};
}

Metric single(double value, const std::string& unit) {
  return {value, unit, 1, value, value, {}};
}

bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload* w) {
  w->name = name;
  w->opts = solver::Options{};
  // The DES models the paper's cluster at four ranks on every workload.
  w->opts.n_ranks = 4;
  if (name == "fem_newton") {
    // audikw_1 / Serena class: dense 3x3 node couplings, supernode-friendly.
    const index_t m = tiny ? 4 : 12;
    w->matrix = matgen::fem3d(m, m, m, 3, 101);
    w->solves_per_step = 3;
    w->panels_per_step = 2;
    w->steps_per_epoch = 3;
    w->residual_bound = 1e-12;
  } else if (name == "circuit_transient") {
    // The ASIC_680k stand-in: power-law hubs, irregular sparse blocks.
    w->matrix = matgen::circuit(tiny ? 600 : 6000, 3.0, 2.1, 680);
    w->solves_per_step = 4;
    w->panels_per_step = 2;
    w->steps_per_epoch = 3;
    w->residual_bound = 1e-12;
  } else if (name == "grid_mixed_solve") {
    // ecology1 / G3_circuit class, FP32 factors + FP64 refinement.
    const index_t m = tiny ? 30 : 200;
    w->matrix = matgen::grid2d_laplacian(m, m);
    w->opts.precision = kernels::Precision::kMixedIR;
    w->solves_per_step = 20;
    w->steps_per_epoch = 4;
    // Ten times the refinement target (Options::ir_tolerance).
    w->residual_bound = 10 * w->opts.ir_tolerance;
  } else {
    return false;
  }
  Rng rng(seed);
  jitter_offdiagonal(w->matrix, w->matrix.values_mut(), 0.05, rng);
  return true;
}

void jitter_offdiagonal(const Csc& pattern, std::span<double> values,
                        double eps, Rng& rng) {
  const auto rows = pattern.row_idx();
  for (index_t j = 0; j < pattern.n_cols(); ++j) {
    for (nnz_t p = pattern.col_begin(j); p < pattern.col_end(j); ++p) {
      const auto i = static_cast<std::size_t>(p);
      if (rows[i] != j) values[i] *= 1.0 - eps * rng.uniform();
    }
  }
}

std::vector<double> random_vector(index_t n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double backward_error(const Csc& a, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(b.size());
  a.spmv(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double scale =
      pangulu::norm1(a) * pangulu::norm_inf(x) + pangulu::norm_inf(b);
  const double res = pangulu::norm_inf(r) / std::max(scale, 1.0);
  return std::isfinite(res) ? res : INFINITY;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double host_reference_ms() {
  constexpr std::size_t n = 288;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>(i % 7) * 0.25;
    b[i] = static_cast<double>(i % 5) * 0.5;
  }
  Timer t;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += a[i * n + k] * b[k * n + j];
  // Make the result observable so the loop cannot be folded away.
  asm volatile("" : : "g"(c.data()) : "memory");
  return t.milliseconds();
}

namespace {

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Samples of one operation, grouped by the epoch that took them. The host's
/// speed drifts in episodes of seconds to minutes, so the samples of one
/// operation are bimodal and their median jumps between the modes from run
/// to run. The median over epochs of each epoch's mean follows the mix
/// smoothly and still ignores one bad epoch.
class EpochSamples {
 public:
  void add(int epoch, double x) {
    if (by_epoch_.size() <= static_cast<std::size_t>(epoch))
      by_epoch_.resize(static_cast<std::size_t>(epoch) + 1);
    by_epoch_[static_cast<std::size_t>(epoch)].push_back(x);
    all_.add(x);
  }
  const Samples& all() const { return all_; }
  /// Median and quartiles over the epoch means; `samples` keeps every
  /// individual operation.
  Metric metric(const std::string& unit) const {
    Samples means;
    for (const std::vector<double>& e : by_epoch_)
      if (!e.empty())
        means.add(std::accumulate(e.begin(), e.end(), 0.0) /
                  static_cast<double>(e.size()));
    Metric m = timing(means, unit);
    m.samples = all_.values();
    return m;
  }

 private:
  std::vector<std::vector<double>> by_epoch_;
  Samples all_;
};

Dense random_panel(index_t n, index_t k, Rng& rng) {
  Dense p(n, k);
  for (index_t c = 0; c < k; ++c)
    for (index_t r = 0; r < n; ++r) p(r, c) = rng.uniform(-1.0, 1.0);
  return p;
}

}  // namespace

Result run_untraced(const Workload& w, const RunConfig& cfg) {
  constexpr index_t kPanel = 8;
  const index_t n = w.matrix.n_cols();
  Result res;
  Samples setup, host_ref;  // one setup per epoch already
  EpochSamples step, refactor, solve, panel;
  long solves_done = 0;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 1);
  const std::vector<double> base(w.matrix.values().begin(),
                                 w.matrix.values().end());
  // `current` holds the values of the latest factorisation, for the checks.
  Csc current = w.matrix;
  std::vector<double> x(static_cast<std::size_t>(n));
  int epochs = 0;

  // One single-RHS solve: timed alone, checked after the timer stops.
  auto timed_solve = [&](solver::Session& s, std::span<const double> b,
                         double* elapsed) {
    Timer t;
    const Status st = s.solve(b, x);
    *elapsed = t.seconds();
    solve.add(epochs, *elapsed * 1e3);
    if (++solves_done == cfg.corrupt_solve) x[0] += 1.0;
    return st.is_ok() &&
           backward_error(current, b, x) <= w.residual_bound;
  };

  Timer run;
  while (epochs == 0 || run.seconds() < cfg.seconds) {
    ++epochs;
    solver::Session s;
    Timer t;
    Status st = s.setup(w.matrix, w.opts);
    setup.add(t.seconds());
    res.op(st.is_ok());
    if (!st.is_ok()) {
      res.notes.push_back("setup failed: " + st.message());
      break;
    }
    std::copy(base.begin(), base.end(), current.values_mut().begin());
    // The post-setup answer the epoch's canary must reproduce bitwise.
    const std::vector<double> b0 = random_vector(n, rng);
    double dt = 0;
    res.op(timed_solve(s, b0, &dt));
    const std::vector<double> x0 = x;

    for (int k = 1; k <= w.steps_per_epoch; ++k) {
      // The canary step re-factorises the setup values; it closes the epoch
      // early when the run's time is up.
      const bool canary = k == w.steps_per_epoch || run.seconds() >= cfg.seconds;
      auto vals = current.values_mut();
      std::copy(base.begin(), base.end(), vals.begin());
      if (!canary) jitter_offdiagonal(current, vals, 0.02, rng);

      double step_s = 0;
      t.reset();
      st = s.refactorize(std::span<const double>(vals.data(), vals.size()));
      dt = t.seconds();
      refactor.add(epochs, dt);
      step_s += dt;
      res.op(st.is_ok());
      if (!st.is_ok()) {
        res.notes.push_back("refactorize failed: " + st.message());
        break;
      }
      for (int i = 0; i < w.solves_per_step; ++i) {
        const bool replay = canary && i == 0;
        const std::vector<double> b = replay ? b0 : random_vector(n, rng);
        bool ok = timed_solve(s, b, &dt);
        step_s += dt;
        if (replay && !bitwise_equal(x, x0)) {
          ok = false;
          res.notes.push_back("canary: refactorize(setup values) changed the "
                              "solution bits");
        }
        res.op(ok);
      }
      for (int i = 0; i < w.panels_per_step; ++i) {
        const Dense bp = random_panel(n, kPanel, rng);
        Dense xp;
        t.reset();
        st = s.solve_multi(bp, &xp);
        dt = t.seconds();
        panel.add(epochs, dt * 1e3);
        step_s += dt;
        bool ok = st.is_ok();
        for (index_t c = 0; ok && c < kPanel; ++c) {
          const std::span<const double> bc(bp.col(c), static_cast<std::size_t>(n));
          const std::span<const double> xc(xp.col(c), static_cast<std::size_t>(n));
          ok = backward_error(current, bc, xc) <= w.residual_bound;
        }
        res.op(ok);
      }
      step.add(epochs, step_s);
      // Interleaved host reference: drift shows beside the samples it hit.
      host_ref.add(host_reference_ms());
      if (canary) break;
    }
  }

  Metrics& m = res.metrics;
  m["setup_s"] = timing(setup, "s");
  m["step_s"] = step.metric("s");
  m["refactor_s"] = refactor.metric("s");
  m["solve_ms"] = solve.metric("ms");
  m["panel8_ms"] = panel.metric("ms");
  m["peak_rss_mb"] = single(peak_rss_mb(), "MB");
  m["ok_frac"] = single(
      static_cast<double>(res.attempted - res.failed) /
          static_cast<double>(std::max<long>(res.attempted, 1)),
      "frac");
  // Diagnostics: printed with the run, never gated. A tail percentile
  // needs at least ten samples beyond it.
  Metrics& d = res.diagnostics;
  if (solve.all().size() >= 100)
    d["solve_ms_p90"] = single(solve.all().quantile(0.9), "ms");
  d["host.ref_ms"] = timing(host_ref, "ms");
  d["epochs"] = single(epochs, "count");
  return res;
}

}  // namespace perfbench
