// Shared plumbing for the experiment harnesses. Every bench binary
// regenerates one table or figure of the paper (see DESIGN.md §4) and prints
// the same rows/series the paper reports.
//
// PANGULU_BENCH_SCALE (env, default 0.5) scales the synthetic stand-in
// matrices; PANGULU_BENCH_MATRICES (comma list) restricts the matrix set.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "matgen/generators.hpp"
#include "ordering/reorder.hpp"
#include "runtime/sim.hpp"
#include "symbolic/fill.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pangulu::bench {

inline double bench_scale() {
  if (const char* s = std::getenv("PANGULU_BENCH_SCALE")) {
    double v = std::atof(s);
    if (v > 0) return v;
  }
  return 0.5;
}

inline std::vector<std::string> bench_matrices() {
  if (const char* s = std::getenv("PANGULU_BENCH_MATRICES")) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) out.push_back(tok);
    }
    if (!out.empty()) return out;
  }
  return matgen::paper_matrix_names();
}

/// Shortened matrix label like the paper's figures ("apa...", "ASI...").
inline std::string short_name(const std::string& name) {
  return name.size() <= 6 ? name : name.substr(0, 3) + "...";
}

/// Reorder + symbolic + blocking, shared by several harnesses.
struct PreparedMatrix {
  Csc a;
  ordering::ReorderResult reorder;
  symbolic::SymbolicResult symbolic;
  block::BlockMatrix blocks;           // pattern with A's values (pre-numeric)
  std::vector<block::Task> tasks;
  double reorder_seconds = 0;
  double symbolic_seconds = 0;
  double blocking_seconds = 0;
};

/// The paper's ordering. Every figure and table runs PanguLU's pipeline on
/// nested dissection (METIS's role, PAPER.md §1), not on the library
/// default's per-matrix choice between ND and AMD.
inline ordering::ReorderOptions paper_reorder() {
  ordering::ReorderOptions o;
  o.fill_reducing = ordering::FillReducing::kNestedDissection;
  return o;
}

inline PreparedMatrix prepare(const std::string& name, double scale,
                              index_t block_size = 0) {
  PreparedMatrix p;
  p.a = matgen::paper_matrix(name, scale);
  Timer t;
  ordering::reorder(p.a, paper_reorder(), &p.reorder).check();
  p.reorder_seconds = t.seconds();
  t.reset();
  symbolic::symbolic_symmetric(p.reorder.permuted, &p.symbolic).check();
  p.symbolic_seconds = t.seconds();
  t.reset();
  const index_t bs =
      block_size > 0 ? block_size
                     : block::choose_block_size(p.a.n_cols(), p.symbolic.nnz_lu);
  p.blocks = block::BlockMatrix::from_filled(p.symbolic.filled, bs);
  p.tasks = block::enumerate_tasks(p.blocks);
  p.blocking_seconds = t.seconds();
  return p;
}

/// Minimal JSON result writer so bench binaries can emit machine-readable
/// results beside their stdout tables, as BENCH_*.json files in the
/// repository root: one flat `meta` object plus an array of flat `rows`.
/// Doubles print with round-trip precision; NaN/Inf (not representable in
/// JSON) become null.
class JsonReporter {
 public:
  /// Every record opens with its provenance, set at configure time
  /// (bench/CMakeLists.txt): compiler, flags, host and git sha.
  JsonReporter() {
    meta("compiler", PANGULU_BENCH_COMPILER);
    meta("flags", PANGULU_BENCH_FLAGS);
    meta("host", PANGULU_BENCH_HOST);
    meta("git_sha", PANGULU_BENCH_GIT_SHA);
  }

  void meta(const std::string& key, const std::string& v) {
    meta_.emplace_back(key, quote(v));
  }
  void meta(const std::string& key, double v) {
    meta_.emplace_back(key, number(v));
  }
  void begin_row() { rows_.emplace_back(); }
  void field(const std::string& key, const std::string& v) {
    rows_.back().emplace_back(key, quote(v));
  }
  void field(const std::string& key, double v) {
    rows_.back().emplace_back(key, number(v));
  }

  std::string str() const {
    std::ostringstream os;
    os << "{\n  \"meta\": " << object(meta_, "  ") << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i ? ",\n    " : "\n    ") << object(rows_[i], "    ");
    }
    os << (rows_.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
  }

  /// Writes `name` (a bare BENCH_*.json file name) to the repository
  /// root, where the trajectory is kept.
  bool write_file(const std::string& name) const {
    std::ofstream out(std::string(PANGULU_BENCH_OUT_DIR) + "/" + name);
    if (!out) return false;
    out << str();
    return static_cast<bool>(out);
  }

 private:
  using Obj = std::vector<std::pair<std::string, std::string>>;

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            std::ostringstream esc;
            esc << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                << static_cast<int>(static_cast<unsigned char>(ch));
            out += esc.str();
          } else {
            out += ch;
          }
      }
    }
    out += '"';
    return out;
  }

  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
  }

  static std::string object(const Obj& o, const std::string& indent) {
    std::string out = "{";
    for (std::size_t i = 0; i < o.size(); ++i) {
      out += (i ? ",\n " : "\n ") + indent + quote(o[i].first) + ": " +
             o[i].second;
    }
    out += o.empty() ? "}" : "\n" + indent + "}";
    return out;
  }

  Obj meta_;
  std::vector<Obj> rows_;
};

/// Timing-only DES run for a given rank count / device / policy / schedule.
inline runtime::SimResult run_sim(const PreparedMatrix& p, rank_t ranks,
                                  const runtime::DeviceModel& device,
                                  runtime::KernelPolicy policy,
                                  runtime::ScheduleMode schedule,
                                  bool balance = true) {
  block::BlockMatrix bm = p.blocks;  // copy: values untouched (no numerics)
  auto grid = block::ProcessGrid::make(ranks);
  block::Mapping map = block::cyclic_mapping(bm, grid);
  if (balance)
    map = block::balanced_mapping(bm, p.tasks, grid, map, nullptr);
  runtime::SimOptions opts;
  opts.device = device;
  opts.n_ranks = ranks;
  opts.policy = policy;
  opts.schedule = schedule;
  opts.execute_numerics = false;
  runtime::SimResult res;
  runtime::simulate_factorization(bm, p.tasks, map, opts, &res).check();
  return res;
}

}  // namespace pangulu::bench
