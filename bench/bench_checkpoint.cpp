// Checkpoint/restart overhead harness: measures (a) the wall-clock cost of
// writing one snapshot and of a resume's restore path versus matrix size, and
// (b) the end-to-end overhead of factorising with checkpointing armed at the
// default cadence versus a bare factorisation.
//
// Doubles as the perf smoke for `ctest -L perf`: the harness exits non-zero
// when default-cadence checkpointing costs more than the overhead guard
// (5% of factorisation wall time by default; PANGULU_CHECKPOINT_GUARD
// overrides). Emits BENCH_checkpoint.json through the JsonReporter.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "io/snapshot.hpp"
#include "solver/solver.hpp"

using namespace pangulu;

namespace {

double factorize_seconds(const Csc& a, const solver::Options& opts,
                         solver::Solver* out) {
  Timer t;
  out->factorize(a, opts).check();
  return t.seconds();
}

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const int reps = 7;
  double guard = 0.05;
  if (const char* g = std::getenv("PANGULU_CHECKPOINT_GUARD")) {
    const double v = std::atof(g);
    if (v > 0) guard = v;
  }

  std::cout << "Checkpoint/restart overhead, scale=" << scale
            << ", guard=" << guard * 100 << "%\n";

  bench::JsonReporter json;
  json.meta("bench", "checkpoint");
  json.meta("scale", scale);
  json.meta("reps", static_cast<double>(reps));
  json.meta("overhead_guard", guard);

  TextTable table({"matrix", "n", "tasks", "factor_s", "ckpt_factor_s",
                   "overhead_%", "abft_factor_s", "abft_%", "snapshot_s",
                   "resume_restore_s", "snap_MB"});

  bool guard_ok = true;
  for (const char* name : {"ASIC_680k", "Si87H76", "ecology1"}) {
    Csc a = matgen::paper_matrix(name, scale);
    // Snapshots go to scratch storage (as they would on a cluster node), so
    // the guard measures checkpointing, not the working directory's
    // filesystem.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("BENCH_checkpoint_" + std::string(name) + ".snap"))
            .string();

    solver::Options bare;
    bare.n_ranks = 4;

    // Default cadence (interval 0 -> ceil(n_tasks/4), snapshots at
    // ~25/50/75%), checkpointing only: ABFT is a separate knob with its own
    // cost and its own column, so the guard isolates what the snapshots
    // themselves cost.
    solver::Options ck = bare;
    ck.checkpoint_path = path;

    // ABFT audit cost at the cheap level, reported alongside (not guarded:
    // audits scale with kernel reads, not with the checkpoint cadence). The
    // audited run keeps one engine worker and the bare run does not, so
    // abft_% tracks the bare path's speed as much as the audits; its own
    // factorize time is reported next to the ratio.
    solver::Options ab = bare;
    ab.abft_level = runtime::AbftLevel::kCheap;

    // Interleave the three configurations rep by rep and keep each one's
    // best: machine-load drift between early and late reps would otherwise
    // swamp a few-percent overhead delta. The bare baseline's own rep
    // spread is the measurement noise floor — a delta below it is not a
    // measurable regression, so the effective bound is max(guard, spread).
    solver::Solver clean, guarded, audited;
    double factor_s = 1e300, bare_worst = 0;
    double ckpt_factor_s = 1e300, abft_factor_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      const double b = factorize_seconds(a, bare, &clean);
      factor_s = std::min(factor_s, b);
      bare_worst = std::max(bare_worst, b);
      ckpt_factor_s = std::min(ckpt_factor_s, factorize_seconds(a, ck, &guarded));
      abft_factor_s =
          std::min(abft_factor_s, factorize_seconds(a, ab, &audited));
    }
    const auto n_tasks = static_cast<double>(clean.stats().n_tasks);
    const double overhead =
        factor_s > 0 ? (ckpt_factor_s - factor_s) / factor_s : 0.0;
    const double abft_overhead =
        factor_s > 0 ? (abft_factor_s - factor_s) / factor_s : 0.0;
    const double noise =
        factor_s > 0 ? (bare_worst - factor_s) / factor_s : 0.0;
    const double bound = std::max(guard, noise);

    // The guarded run leaves its last mid-flight snapshot on disk — unless
    // the worthiness floor decided the whole run was too small to be worth
    // checkpointing. Force one mid-run snapshot with an explicit interval in
    // that case, so the write/restore timings below always have a subject.
    if (!std::ifstream(path).good()) {
      solver::Options one = bare;
      one.checkpoint_path = path;
      one.checkpoint_interval_tasks = std::max<index_t>(
          1, static_cast<index_t>(clean.stats().n_tasks / 2));
      solver::Solver forced;
      forced.factorize(a, one).check();
    }

    // Re-reading the snapshot times the restore path, re-writing it times
    // one isolated snapshot write, and its encoded size is what a
    // checkpoint costs on disk.
    io::Snapshot snap;
    Timer t;
    io::read_snapshot_file(path, &snap).check();
    const double restore_s = t.seconds();
    double snap_bytes = 0;
    {
      std::ostringstream os;
      io::write_snapshot(os, snap).check();
      snap_bytes = static_cast<double>(os.str().size());
    }
    t.reset();
    io::write_snapshot_file(path, snap).check();
    const double snapshot_s = t.seconds();
    std::remove(path.c_str());

    const bool ok = overhead <= bound;
    guard_ok = guard_ok && ok;
    table.add_row({name, std::to_string(a.n_cols()),
                   std::to_string(static_cast<long long>(n_tasks)),
                   TextTable::fmt(factor_s), TextTable::fmt(ckpt_factor_s),
                   TextTable::fmt(overhead * 100.0),
                   TextTable::fmt(abft_factor_s),
                   TextTable::fmt(abft_overhead * 100.0),
                   TextTable::fmt(snapshot_s), TextTable::fmt(restore_s),
                   TextTable::fmt(snap_bytes / (1024.0 * 1024.0))});
    json.begin_row();
    json.field("matrix", name);
    json.field("n", static_cast<double>(a.n_cols()));
    json.field("tasks", n_tasks);
    json.field("factor_seconds", factor_s);
    json.field("checkpointed_factor_seconds", ckpt_factor_s);
    json.field("overhead_fraction", overhead);
    json.field("abft_factor_seconds", abft_factor_s);
    json.field("abft_overhead_fraction", abft_overhead);
    json.field("noise_fraction", noise);
    json.field("snapshot_write_seconds", snapshot_s);
    json.field("resume_restore_seconds", restore_s);
    json.field("snapshot_bytes", snap_bytes);
    json.field("guard_ok", ok ? 1.0 : 0.0);
    if (!ok) {
      std::cout << "GUARD: " << name << " checkpoint overhead "
                << overhead * 100.0 << "% exceeds " << bound * 100.0
                << "% (guard " << guard * 100.0 << "%, measurement noise "
                << noise * 100.0 << "%)\n";
    } else if (noise > guard) {
      std::cout << "note: " << name << " baseline noise " << noise * 100.0
                << "% exceeds the " << guard * 100.0
                << "% guard; bounding by noise\n";
    }
  }

  table.print(std::cout);
  if (!json.write_file("BENCH_checkpoint.json"))
    std::cout << "warning: could not write BENCH_checkpoint.json\n";

  if (!guard_ok) {
    std::cout << "FAIL: checkpoint overhead guard breached\n";
    return 1;
  }
  std::cout << "OK: default-cadence checkpointing within the " << guard * 100.0
            << "% overhead guard\n";
  return 0;
}
