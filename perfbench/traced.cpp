// Traced run: the pipeline Session::setup runs, re-driven from here one layer
// at a time through each layer's public function, with a span around every
// call. The factors it produces must equal Session::setup's bit for bit, or
// the trace would describe a different program.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "analysis/verify.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "perfbench.hpp"
#include "util/timer.hpp"

namespace perfbench {

using pangulu::Rng;
using pangulu::Status;
using pangulu::Timer;
namespace block = pangulu::block;
namespace kernels = pangulu::kernels;
namespace runtime = pangulu::runtime;
namespace solver = pangulu::solver;

namespace {

/// Spans kept in memory and written once at exit, in the Chrome-trace
/// layout runtime::TraceRecorder uses (an array of "ph":"X" events in
/// microseconds), so the file opens in Perfetto beside a DES trace.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_us(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return (s.end_us - s.start_us) * 1e-6;
  }
  /// Direct children of `id` as (name, seconds). One thread records, so
  /// children never overlap and their sum is the time they cover.
  std::vector<std::pair<std::string, double>> children(int id) const {
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size(); ++i)
      if (spans_[i].parent == id)
        out.emplace_back(spans_[i].name, seconds(static_cast<int>(i)));
    return out;
  }

  void write_chrome_trace(std::ostream& os) const {
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "\n  {\"name\": \"" << s.name
         << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0"
         << ", \"ts\": " << s.start_us << ", \"dur\": " << s.end_us - s.start_us
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanRecorder& rec, std::string name)
      : rec_(rec), id_(rec.open(std::move(name))) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { rec_.close(id_); }
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Everything Solver::factorize derives, built layer by layer.
struct Pipeline {
  pangulu::ordering::ReorderResult reorder;
  pangulu::symbolic::SymbolicResult symbolic;
  double flops = 0;
  block::BlockMatrix factors;
  block::BlockMatrixT<float> factors32;
  std::vector<block::Task> tasks;
  block::Mapping mapping;
  runtime::SimResult sim;
  solver::SolvePlan plan;
  runtime::TrsvPlan fwd, bwd;
};

/// Mirror of Solver::factorize's pipeline (default options beyond those the
/// workload sets: no checkpoint, fault or elastic plan). Returns the root
/// span's id through `root`.
Status traced_setup(const Workload& w, SpanRecorder& rec, Pipeline* p,
                    int* root) {
  const solver::Options& o = w.opts;
  const bool fp32 = kernels::stores_fp32(o.precision);
  Scope all(rec, "setup.pipeline");
  *root = all.id();
  Status s;
  {
    Scope sp(rec, "ordering.reorder");
    s = pangulu::ordering::reorder(w.matrix, o.reorder, &p->reorder);
  }
  if (!s.is_ok()) return s;
  {
    Scope sp(rec, "symbolic.fill");
    s = pangulu::symbolic::symbolic_symmetric(p->reorder.permuted, &p->symbolic);
    if (s.is_ok())
      p->flops = pangulu::symbolic::factorization_flops(p->symbolic.filled);
  }
  if (!s.is_ok()) return s;
  {
    Scope sp(rec, "block.layout");
    const index_t n = w.matrix.n_cols();
    const nnz_t nnz_lu = p->symbolic.nnz_lu;
    const index_t bs =
        o.block_size > 0 ? o.block_size : block::choose_block_size(n, nnz_lu);
    s = block::check_blocking_bounds(n, bs, nnz_lu);
    if (s.is_ok()) {
      p->factors = block::BlockMatrix::from_filled(p->symbolic.filled, bs);
      p->tasks = block::enumerate_tasks(p->factors);
    }
  }
  if (!s.is_ok()) return s;
  const auto grid = block::ProcessGrid::make(o.n_ranks);
  {
    Scope sp(rec, "block.mapping");
    p->mapping = block::cyclic_mapping(p->factors, grid);
    if (o.balance)
      p->mapping =
          block::balanced_mapping(p->factors, p->tasks, grid, p->mapping);
  }
  {
    Scope sp(rec, "analysis.verify");
    s = pangulu::analysis::verify_task_graph(
        p->factors, p->tasks, p->mapping,
        block::sync_free_array(p->factors, p->tasks), o.verify_level);
  }
  if (!s.is_ok()) return s;
  {
    Scope sp(rec, "runtime.numeric");
    runtime::SimOptions so;
    so.device = o.device;
    so.n_ranks = o.n_ranks;
    so.policy = o.policy;
    so.schedule = o.schedule;
    so.execute_numerics = true;
    so.thresholds = o.thresholds;
    so.pivot_tol = o.pivot_tol;
    so.verify_level = o.verify_level;
    so.abft = o.abft_level;
    if (fp32) {
      p->factors32 = block::BlockMatrixT<float>::converted_from(p->factors);
      s = runtime::simulate_factorization(p->factors32, p->tasks, p->mapping,
                                          so, &p->sim);
      // The exact widening Solver keeps for its FP64 consumers.
      for (nnz_t pos = 0; s.is_ok() && pos < p->factors.n_blocks(); ++pos) {
        auto dst = p->factors.block(pos).values_mut();
        const auto src = p->factors32.block(pos).values();
        for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
      }
    } else {
      s = runtime::simulate_factorization(p->factors, p->tasks, p->mapping, so,
                                          &p->sim);
    }
  }
  if (!s.is_ok()) return s;
  Scope sp(rec, "solver.plan");
  p->plan = solver::SolvePlan::build(p->factors);
  runtime::TrsvOptions topts;
  topts.device = o.device;
  topts.n_ranks = o.n_ranks;
  topts.execute_numerics = false;
  if (fp32) {
    s = runtime::build_trsv_plan(p->factors32, p->mapping, true, topts, &p->fwd);
    if (s.is_ok())
      s = runtime::build_trsv_plan(p->factors32, p->mapping, false, topts,
                                   &p->bwd);
  } else {
    s = runtime::build_trsv_plan(p->factors, p->mapping, true, topts, &p->fwd);
    if (s.is_ok())
      s = runtime::build_trsv_plan(p->factors, p->mapping, false, topts,
                                   &p->bwd);
  }
  return s;
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <class V>
bool same_factors(const block::BlockMatrixT<V>& a,
                  const block::BlockMatrixT<V>& b) {
  if (a.nb() != b.nb() || a.n_blocks() != b.n_blocks()) return false;
  for (nnz_t pos = 0; pos < a.n_blocks(); ++pos) {
    const auto& x = a.block(pos);
    const auto& y = b.block(pos);
    if (a.block_row(pos) != b.block_row(pos) ||
        !same_bytes(x.col_ptr(), y.col_ptr()) ||
        !same_bytes(x.row_idx(), y.row_idx()) ||
        !same_bytes(x.values(), y.values()))
      return false;
  }
  return true;
}

/// Bytes the sweeps read: every block's values and both index arrays,
/// computed from the array sizes (cache behaviour not included).
template <class V>
double factor_bytes(const block::BlockMatrixT<V>& f) {
  double bytes = 0;
  for (nnz_t pos = 0; pos < f.n_blocks(); ++pos) {
    const auto& b = f.block(pos);
    bytes += static_cast<double>(b.values().size() * sizeof(V) +
                                 b.row_idx().size() * sizeof(index_t) +
                                 b.col_ptr().size() * sizeof(nnz_t));
  }
  return bytes;
}

template <class V>
bool all_finite(const std::vector<V>& v) {
  for (V x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// One single-vector direct pass and one 8-column panel pass over the
/// factors the numeric phase produced, each sweep under its own span.
template <class V>
bool traced_sweeps(const block::BlockMatrixT<V>& f, const solver::SolvePlan& plan,
                   SpanRecorder& rec, Rng& rng, Samples* lower, Samples* upper,
                   Samples* panel) {
  constexpr index_t kPanel = 8;
  const index_t n = f.grid().n;
  std::vector<V> z(static_cast<std::size_t>(n));
  for (V& v : z) v = static_cast<V>(rng.uniform(-1.0, 1.0));
  bool ok = true;
  int id = 0;
  {
    Scope pass(rec, "solver.direct_pass");
    {
      Scope sp(rec, "solver.lower_sweep");
      id = sp.id();
      ok = solver::block_lower_solve(f, plan, std::span<V>(z)).is_ok() && ok;
    }
    lower->add(rec.seconds(id) * 1e3);
    {
      Scope sp(rec, "solver.upper_sweep");
      id = sp.id();
      ok = solver::block_upper_solve(f, plan, std::span<V>(z)).is_ok() && ok;
    }
    upper->add(rec.seconds(id) * 1e3);
  }
  std::vector<V> zp(static_cast<std::size_t>(n * kPanel));
  for (V& v : zp) v = static_cast<V>(rng.uniform(-1.0, 1.0));
  {
    Scope sp(rec, "solver.panel8_sweep");
    id = sp.id();
    {
      Scope l(rec, "solver.lower_sweep_multi");
      ok = solver::block_lower_solve_multi(f, plan, zp.data(), kPanel, kPanel)
               .is_ok() && ok;
    }
    {
      Scope u(rec, "solver.upper_sweep_multi");
      ok = solver::block_upper_solve_multi(f, plan, zp.data(), kPanel, kPanel)
               .is_ok() && ok;
    }
  }
  panel->add(rec.seconds(id) * 1e3);
  return ok && all_finite(z) && all_finite(zp);
}

}  // namespace

Result run_traced(const Workload& w, const RunConfig& cfg) {
  constexpr int kSweepReps = 5;
  constexpr int kSolves = 5;
  const bool fp32 = kernels::stores_fp32(w.opts.precision);
  const index_t n = w.matrix.n_cols();
  Result res;
  SpanRecorder rec;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 2);
  std::map<std::string, Samples> layer;  // span name -> seconds
  Samples total, coverage, overhead, lower, upper, panel, solve_ms, iters,
      host_ref;
  Pipeline last;
  std::vector<double> x(static_cast<std::size_t>(n));

  Timer run;
  int rounds = 0;
  while (rounds == 0 || run.seconds() < cfg.seconds) {
    ++rounds;
    // Untraced reference: the program's own setup on the same input.
    solver::Session s;
    Timer t;
    Status st = s.setup(w.matrix, w.opts);
    const double setup_s = t.seconds();
    res.op(st.is_ok());
    if (!st.is_ok()) {
      res.notes.push_back("setup failed: " + st.message());
      break;
    }

    Pipeline p;
    int root = -1;
    st = traced_setup(w, rec, &p, &root);
    bool same = st.is_ok() && same_factors(p.factors, s.solver().factors());
    if (same && fp32) same = same_factors(p.factors32, s.solver().factors32());
    res.op(same);
    if (!st.is_ok()) {
      res.notes.push_back("traced pipeline failed: " + st.message());
      break;
    }
    if (!same)
      res.notes.push_back("traced factors differ from Session::setup's");
    const double root_s = rec.seconds(root);
    double covered = 0;
    for (const auto& [name, sec] : rec.children(root)) {
      layer[name].add(sec);
      covered += sec;
    }
    const double cover = covered / root_s;
    // The child spans must account for the traced total within 5%.
    res.op(std::abs(1.0 - cover) <= 0.05);
    if (std::abs(1.0 - cover) > 0.05)
      res.notes.push_back("child spans cover " + std::to_string(cover) +
                          " of the traced total");
    total.add(root_s);
    coverage.add(cover);
    overhead.add(root_s - setup_s);

    for (int r = 0; r < kSweepReps; ++r)
      res.op(fp32 ? traced_sweeps(p.factors32, p.plan, rec, rng, &lower,
                                  &upper, &panel)
                  : traced_sweeps(p.factors, p.plan, rec, rng, &lower, &upper,
                                  &panel));
    // Untraced solves through the session: the total the sweeps are a share
    // of, and the refinement count.
    for (int i = 0; i < kSolves; ++i) {
      const std::vector<double> b = random_vector(n, rng);
      solver::SolveStats ss;
      t.reset();
      st = s.solve(b, x, &ss);
      solve_ms.add(t.milliseconds());
      iters.add(ss.refine_iterations);
      res.op(st.is_ok() &&
             backward_error(w.matrix, b, x) <= w.residual_bound);
    }
    host_ref.add(host_reference_ms());
    last = std::move(p);
  }

  Metrics& m = res.metrics;
  // Listed, not taken from the map, so a run that failed early still
  // reports every declared metric.
  for (const char* name :
       {"ordering.reorder", "symbolic.fill", "block.layout", "block.mapping",
        "analysis.verify", "runtime.numeric", "solver.plan"})
    m[std::string(name) + "_s"] = timing(layer[name], "s");
  m["symbolic.nnz_lu"] =
      single(static_cast<double>(last.symbolic.nnz_lu), "count");
  m["symbolic.flops"] = single(last.flops, "flop");
  m["block.block_size"] =
      single(last.factors.grid().block_size, "count");
  m["block.nb"] = single(last.factors.nb(), "count");
  m["block.n_tasks"] = single(static_cast<double>(last.tasks.size()), "count");
  const double numeric_s = layer["runtime.numeric"].median();
  m["runtime.numeric_gflops"] =
      single(numeric_s > 0 ? last.flops / numeric_s * 1e-9 : 0, "GFLOP/s");
  static const char* kKinds[4] = {"getrf", "gessm", "tstrf", "ssssm"};
  for (int k = 0; k < 4; ++k)
    m[std::string("runtime.") + kKinds[k] + "_count"] =
        single(static_cast<double>(last.sim.kind_count[k]), "count");
  m["runtime.virtual_makespan_s"] = single(last.sim.makespan, "s");
  m["runtime.messages"] = single(static_cast<double>(last.sim.messages), "count");
  m["solver.lower_sweep_ms"] = timing(lower, "ms");
  m["solver.upper_sweep_ms"] = timing(upper, "ms");
  m["solver.panel8_sweep_ms"] = timing(panel, "ms");
  m["solver.refine_iters"] = timing(iters, "count");
  // Share of a session solve spent in triangular sweeps: one direct pass
  // per refinement iteration plus the first.
  m["solver.sweep_share"] = single(
      (iters.median() + 1) * (lower.median() + upper.median()) /
          solve_ms.median(),
      "frac");
  m["solver.factor_bytes"] = single(
      fp32 ? factor_bytes(last.factors32) : factor_bytes(last.factors), "B");
  m["trace.total_s"] = timing(total, "s");
  m["trace.coverage"] = timing(coverage, "frac");
  m["trace.overhead_s"] = timing(overhead, "s");
  m["host.ref_ms"] = timing(host_ref, "ms");
  res.diagnostics["rounds"] = single(rounds, "count");

  if (!cfg.trace_path.empty()) {
    std::ofstream os(cfg.trace_path);
    rec.write_chrome_trace(os);
    if (!os) res.notes.push_back("could not write " + cfg.trace_path);
  }
  return res;
}

}  // namespace perfbench
