// perfbench: end-to-end benchmark of the solver's public Session API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-solve K] [--trace-file PATH]
//
// Prints one JSON record as its last line: the metrics of the run mode (end
// to end with --trace 0, per layer with --trace 1), the operation counts,
// diagnostics and the provenance of the build. perfbench/run.py builds this
// binary, runs it and reduces the record to the benchmark's result line.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const perfbench::Metrics& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, x] : m) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
       << number(x.value) << ", \"unit\": " << quoted(x.unit)
       << ", \"n\": " << x.n << ", \"q1\": " << number(x.q1)
       << ", \"q3\": " << number(x.q3) << ", \"samples\": [";
    for (std::size_t i = 0; i < x.samples.size(); ++i)
      os << (i ? ", " : "") << number(x.samples[i]);
    os << "]}";
    first = false;
  }
  os << "}";
  return os.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-solve K] [--trace-file PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig cfg;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      tiny = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--corrupt-solve") {
      cfg.corrupt_solve = std::atol(argv[++i]);
    } else if (a == "--trace-file") {
      cfg.trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  perfbench::Workload w;
  if ((trace != 0 && trace != 1) || !(cfg.seconds > 0) ||
      !perfbench::make_workload(workload, cfg.seed, tiny, &w)) {
    std::cerr << "perfbench: bad arguments (workload '" << workload << "')\n";
    return usage();
  }

  const perfbench::Result r =
      trace ? perfbench::run_traced(w, cfg) : perfbench::run_untraced(w, cfg);

  for (const std::string& note : r.notes) std::cerr << "perfbench: " << note << "\n";
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream prov;
  prov << "{\"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"flags\": " << quoted(PERFBENCH_FLAGS)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"llc_bytes\": " << llc << ", \"seed\": " << cfg.seed
       << ", \"n\": " << w.matrix.n_cols() << ", \"nnz\": " << w.matrix.nnz()
       << "}";
  std::cout << "{\"workload\": " << quoted(workload) << ", \"trace\": " << trace
            << ", \"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(r.metrics)
            << ", \"diagnostics\": " << metrics_json(r.diagnostics)
            << ", \"provenance\": " << prov.str() << "}" << std::endl;
  return r.failed == 0 ? 0 : 1;
}
