// Checkpoint/restart + ABFT property tests: snapshots round-trip bitwise and
// reject corruption with typed errors; a factorisation killed mid-flight and
// resumed from its last checkpoint produces bitwise-identical factors and
// solutions to the uninterrupted run; injected silent bit flips are detected
// by the checksum audits and repaired by canonical replay, at every numeric
// engine worker count, finishing with the same bits as a clean run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "io/snapshot.hpp"
#include "matgen/generators.hpp"
#include "runtime/fault.hpp"
#include "runtime/sim.hpp"
#include "solver/solver.hpp"
#include "symbolic/fill.hpp"
#include "test_util.hpp"

namespace pangulu {
namespace {

using runtime::AbftLevel;
using runtime::FaultPlan;
using runtime::SimOptions;
using runtime::SimResult;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

struct Prepared {
  block::BlockMatrix bm;
  std::vector<block::Task> tasks;
  block::Mapping mapping;
};

Prepared prepare(const Csc& a, index_t block_size, rank_t ranks) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Prepared p;
  p.bm = block::BlockMatrix::from_filled(sym.filled, block_size);
  p.tasks = block::enumerate_tasks(p.bm);
  p.mapping = block::cyclic_mapping(p.bm, block::ProcessGrid::make(ranks));
  return p;
}

template <class BM>
bool bitwise_equal(const BM& x, const BM& y) {
  const auto a = x.to_csc();
  const auto b = y.to_csc();
  if (a.nnz() != b.nnz()) return false;
  for (nnz_t p = 0; p < a.nnz(); ++p) {
    if (a.values()[static_cast<std::size_t>(p)] !=
            b.values()[static_cast<std::size_t>(p)] ||
        a.row_idx()[static_cast<std::size_t>(p)] !=
            b.row_idx()[static_cast<std::size_t>(p)])
      return false;
  }
  return true;
}

Status run(Prepared& p, rank_t ranks, const SimOptions& base,
           SimResult* res) {
  SimOptions opts = base;
  opts.n_ranks = ranks;
  opts.execute_numerics = true;
  return runtime::simulate_factorization(p.bm, p.tasks, p.mapping, opts, res);
}

io::Snapshot tiny_snapshot() {
  io::Snapshot s;
  s.meta.n = 2;
  s.meta.nnz_a = 3;
  s.meta.block_size = 2;
  s.meta.n_ranks = 1;
  s.meta.pivot_tol = 1e-14;
  s.meta.n_tasks = 1;
  s.meta.tasks_done = 0;
  s.meta.perm_fingerprint = 0xF00DFACEDEADBEEFull;  // top bit set
  s.a_col_ptr = {0, 2, 3};
  s.a_row_idx = {0, 1, 1};
  s.a_values = {4.0, -1.0, 3.0};
  s.counters = {0};
  s.block_nnz = {3};
  s.block_values = {4.0, -0.25, 3.0};
  return s;
}

// ---------------------------------------------------------------------------
// Snapshot wire format.
// ---------------------------------------------------------------------------

TEST(Snapshot, ChecksumIsCrc32c) {
  // Known-answer vector (RFC 3720 §B.4): CRC-32C("123456789"). Pins the
  // polynomial so neither the hardware path nor the table fallback can
  // drift from the on-disk format.
  const char digits[] = "123456789";
  EXPECT_EQ(io::crc32(digits, 9), 0xE3069283u);
  EXPECT_EQ(io::crc32(digits, 0), 0u);
  // Length sweep across the 8-byte kernel boundary: appending one byte must
  // always change the checksum (catches a stuck length/tail handoff).
  for (std::size_t len = 1; len < 9; ++len)
    EXPECT_NE(io::crc32(digits, len), io::crc32(digits, len - 1)) << len;
}

TEST(Snapshot, RoundTripsBitwise) {
  const io::Snapshot in = tiny_snapshot();
  std::stringstream ss;
  ASSERT_TRUE(io::write_snapshot(ss, in).is_ok());
  io::Snapshot out;
  ASSERT_TRUE(io::read_snapshot(ss, &out).is_ok());
  EXPECT_EQ(out.meta.n, in.meta.n);
  EXPECT_EQ(out.meta.nnz_a, in.meta.nnz_a);
  EXPECT_EQ(out.meta.tasks_done, in.meta.tasks_done);
  EXPECT_EQ(out.meta.pivot_tol, in.meta.pivot_tol);
  EXPECT_EQ(out.meta.perm_fingerprint, in.meta.perm_fingerprint);
  EXPECT_EQ(out.a_col_ptr, in.a_col_ptr);
  EXPECT_EQ(out.a_row_idx, in.a_row_idx);
  EXPECT_EQ(out.a_values, in.a_values);
  EXPECT_EQ(out.counters, in.counters);
  EXPECT_EQ(out.block_nnz, in.block_nnz);
  EXPECT_EQ(out.block_values, in.block_values);
}

TEST(Snapshot, CrcCatchesEveryFlippedPayloadByte) {
  std::stringstream ss;
  ASSERT_TRUE(io::write_snapshot(ss, tiny_snapshot()).is_ok());
  const std::string clean = ss.str();
  // Seeded sweep over the buffer: corrupt one byte at a time and demand a
  // typed failure every time (kDataCorruption for a payload byte,
  // kIoError when the header itself is mangled).
  int corruptions = 0;
  for (std::size_t pos = 0; pos < clean.size(); pos += 13) {
    std::string bad = clean;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    std::stringstream rs(bad);
    io::Snapshot out;
    Status s = io::read_snapshot(rs, &out);
    EXPECT_FALSE(s.is_ok()) << "flip at byte " << pos << " went unnoticed";
    EXPECT_TRUE(s.code() == StatusCode::kDataCorruption ||
                s.code() == StatusCode::kIoError)
        << "flip at byte " << pos << ": " << s.message();
    ++corruptions;
  }
  EXPECT_GT(corruptions, 10);
}

TEST(Snapshot, TruncationIsIoError) {
  std::stringstream ss;
  ASSERT_TRUE(io::write_snapshot(ss, tiny_snapshot()).is_ok());
  const std::string clean = ss.str();
  for (std::size_t len : {std::size_t(0), std::size_t(3), clean.size() / 2,
                          clean.size() - 1}) {
    std::stringstream rs(clean.substr(0, len));
    io::Snapshot out;
    EXPECT_EQ(io::read_snapshot(rs, &out).code(), StatusCode::kIoError)
        << "truncated to " << len << " bytes";
  }
}

TEST(Snapshot, WrongMagicOrVersionIsIoError) {
  std::stringstream ss;
  ASSERT_TRUE(io::write_snapshot(ss, tiny_snapshot()).is_ok());
  std::string bad = ss.str();
  bad[0] = 'X';  // magic
  std::stringstream r1(bad);
  io::Snapshot out;
  EXPECT_EQ(io::read_snapshot(r1, &out).code(), StatusCode::kIoError);

  bad = ss.str();
  bad[4] = static_cast<char>(io::kSnapshotFormatVersion + 1);  // version
  std::stringstream r2(bad);
  EXPECT_EQ(io::read_snapshot(r2, &out).code(), StatusCode::kIoError);
}

TEST(Snapshot, FileWriteIsAtomic) {
  const std::string path = temp_path("snap_atomic.bin");
  ASSERT_TRUE(io::write_snapshot_file(path, tiny_snapshot()).is_ok());
  // The temp staging file must be gone after the rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  io::Snapshot out;
  EXPECT_TRUE(io::read_snapshot_file(path, &out).is_ok());
  EXPECT_EQ(out.meta.n, 2);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Kill-and-resume through the Solver.
// ---------------------------------------------------------------------------

TEST(CheckpointRestart, KillAndResumeBitwiseIdentical) {
  for (std::uint64_t seed : {3ULL, 11ULL}) {
    Csc a = matgen::circuit(180, 2.0, 2.2, seed);
    const index_t n = a.n_cols();
    std::vector<value_t> b(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      b[static_cast<std::size_t>(i)] = std::cos(static_cast<double>(i) + 1);

    solver::Options clean_opts;
    clean_opts.n_ranks = 4;
    solver::Solver clean;
    ASSERT_TRUE(clean.factorize(a, clean_opts).is_ok());
    std::vector<value_t> x_clean(static_cast<std::size_t>(n));
    ASSERT_TRUE(clean.solve(b, x_clean).is_ok());
    const auto nt = static_cast<index_t>(clean.stats().n_tasks);
    ASSERT_GT(nt, 8);

    for (double frac : {0.25, 0.5, 0.75}) {
      const auto kill = static_cast<index_t>(static_cast<double>(nt) * frac);
      const std::string path =
          temp_path("snap_kill_" + std::to_string(seed) + "_" +
                    std::to_string(kill) + ".bin");

      solver::Options kopts = clean_opts;
      kopts.checkpoint_path = path;
      kopts.checkpoint_interval_tasks = std::max<index_t>(1, nt / 16);
      kopts.abft_level = AbftLevel::kCheap;
      kopts.fault_plan.kill_after_task = kill;
      solver::Solver victim;
      Status s = victim.factorize(a, kopts);
      ASSERT_EQ(s.code(), StatusCode::kUnavailable) << s.message();

      solver::Solver revived;
      s = revived.resume_from(path);
      ASSERT_TRUE(s.is_ok()) << s.message();
      EXPECT_GT(revived.stats().resumed_from_task, 0);
      EXPECT_LE(revived.stats().resumed_from_task, kill);

      // Factors bitwise identical <=> solutions bitwise identical.
      std::vector<value_t> x_res(static_cast<std::size_t>(n));
      solver::SolveStats st_clean, st_res;
      ASSERT_TRUE(revived.solve(b, x_res, &st_res).is_ok());
      ASSERT_TRUE(clean.solve(b, x_clean, &st_clean).is_ok());
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(x_clean[static_cast<std::size_t>(i)],
                  x_res[static_cast<std::size_t>(i)])
            << "seed " << seed << " kill " << kill << " row " << i;
      EXPECT_EQ(st_clean.final_residual, st_res.final_residual);
      std::remove(path.c_str());
    }
  }
}

// The default ordering (kAuto) is re-derived on resume. On a circuit whose
// predicted flops favour AMD it takes that branch, and the resumed
// factorisation still matches the uninterrupted one bit for bit.
TEST(CheckpointRestart, AutoOrderingOnItsAmdBranchResumesBitwise) {
  Csc a = matgen::circuit(1500, 3.0, 2.1, 680);
  ordering::ReorderOptions amd_only;
  amd_only.fill_reducing = ordering::FillReducing::kAmd;
  ordering::ReorderResult by_auto, by_amd;
  ASSERT_TRUE(ordering::reorder(a, {}, &by_auto).is_ok());
  ASSERT_TRUE(ordering::reorder(a, amd_only, &by_amd).is_ok());
  ASSERT_EQ(by_auto.col_perm, by_amd.col_perm)
      << "the default ordering must take the AMD branch here";

  solver::Options clean_opts;
  clean_opts.n_ranks = 4;
  solver::Solver clean;
  ASSERT_TRUE(clean.factorize(a, clean_opts).is_ok());
  const auto nt = static_cast<index_t>(clean.stats().n_tasks);
  ASSERT_GT(nt, 8);

  const std::string path = temp_path("snap_auto_amd.bin");
  solver::Options kopts = clean_opts;
  kopts.checkpoint_path = path;
  kopts.checkpoint_interval_tasks = std::max<index_t>(1, nt / 8);
  kopts.fault_plan.kill_after_task = nt / 2;
  solver::Solver victim;
  ASSERT_EQ(victim.factorize(a, kopts).code(), StatusCode::kUnavailable);

  solver::Solver revived;
  const Status s = revived.resume_from(path);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_GT(revived.stats().resumed_from_task, 0);
  EXPECT_EQ(revived.options().reorder.fill_reducing,
            ordering::FillReducing::kAuto);
  EXPECT_TRUE(bitwise_equal(clean.factors(), revived.factors()));
  std::remove(path.c_str());
}

// Snapshots do not carry the selector thresholds. Resuming under a tree
// that picks other variants (every cut at 1: all G_ variants) changes only
// the modelled statistics: with ABFT on, the one engine worker runs those
// variants; with it off, the workers run C_V1.
TEST(CheckpointRestart, ResumeUnderOtherThresholdsIsBitwise) {
  Csc a = matgen::circuit(180, 2.0, 2.2, 3);
  const index_t n = a.n_cols();
  std::vector<value_t> b(static_cast<std::size_t>(n), 1.0);
  solver::Options clean_opts;
  clean_opts.n_ranks = 4;
  solver::Solver clean;
  ASSERT_TRUE(clean.factorize(a, clean_opts).is_ok());
  std::vector<value_t> x_clean(static_cast<std::size_t>(n));
  ASSERT_TRUE(clean.solve(b, x_clean).is_ok());
  const auto nt = static_cast<index_t>(clean.stats().n_tasks);

  for (AbftLevel abft : {AbftLevel::kOff, AbftLevel::kCheap}) {
    const std::string path = temp_path(
        "snap_thresholds_" + std::to_string(static_cast<int>(abft)) + ".bin");
    solver::Options kopts = clean_opts;
    kopts.checkpoint_path = path;
    kopts.checkpoint_interval_tasks = std::max<index_t>(1, nt / 8);
    kopts.abft_level = abft;
    kopts.fault_plan.kill_after_task = nt / 2;
    solver::Solver victim;
    ASSERT_EQ(victim.factorize(a, kopts).code(), StatusCode::kUnavailable);

    solver::Options base;
    base.thresholds = test::every_cut_at_one();
    solver::Solver revived;
    const Status s = revived.resume_from(path, base);
    ASSERT_TRUE(s.is_ok()) << s.message();
    EXPECT_GT(revived.stats().resumed_from_task, 0);
    std::vector<value_t> x_res(static_cast<std::size_t>(n));
    ASSERT_TRUE(revived.solve(b, x_res).is_ok());
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(x_clean[static_cast<std::size_t>(i)],
                x_res[static_cast<std::size_t>(i)])
          << "abft " << static_cast<int>(abft) << " row " << i;
    std::remove(path.c_str());
  }
}

TEST(CheckpointRestart, CheckpointsAreWrittenAtTheRequestedCadence) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  const std::string path = temp_path("snap_cadence.bin");
  solver::Options opts;
  opts.n_ranks = 2;
  opts.checkpoint_path = path;
  opts.checkpoint_interval_tasks = 4;
  solver::Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  const auto nt = static_cast<std::int64_t>(s.stats().n_tasks);
  // done = 4, 8, ... strictly below nt.
  EXPECT_EQ(s.stats().sim.checkpoints_written, (nt - 1) / 4);
  std::remove(path.c_str());
}

TEST(CheckpointRestart, DefaultCadenceSkipsRunsTooCheapToCheckpoint) {
  // No explicit interval: the ~25/50/75% safe points are skipped while less
  // than ~100 ms of work would be lost, which a 64-unknown run never reaches.
  Csc a = matgen::grid2d_laplacian(8, 8);
  const std::string path = temp_path("snap_default_cadence.bin");
  std::remove(path.c_str());
  solver::Options opts;
  opts.n_ranks = 2;
  opts.checkpoint_path = path;
  solver::Solver s;
  ASSERT_TRUE(s.factorize(a, opts).is_ok());
  EXPECT_EQ(s.stats().sim.checkpoints_written, 0);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(CheckpointRestart, TamperedCountersFailThePrecondition) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  const std::string path = temp_path("snap_tamper.bin");
  solver::Options opts;
  opts.n_ranks = 2;
  opts.checkpoint_path = path;
  opts.checkpoint_interval_tasks = 3;
  opts.fault_plan.kill_after_task = 6;
  solver::Solver victim;
  ASSERT_EQ(victim.factorize(a, opts).code(), StatusCode::kUnavailable);

  // Re-write the snapshot with a consistent CRC but inconsistent counters:
  // the structural cross-check (not the CRC) must reject it.
  io::Snapshot snap;
  ASSERT_TRUE(io::read_snapshot_file(path, &snap).is_ok());
  ASSERT_FALSE(snap.counters.empty());
  snap.counters[0] += 1;
  ASSERT_TRUE(io::write_snapshot_file(path, snap).is_ok());
  solver::Solver revived;
  EXPECT_EQ(revived.resume_from(path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Snapshots store no permutation; resume re-derives it. On a fully dense
// matrix every symmetric ordering fills the same blocked structure, so
// task count, block nnz and counters cannot tell two orderings apart: a
// snapshot whose ordering changed between write and resume (another build,
// or here a rewritten option slot) must still fail typed, through the
// stored permutation fingerprint, instead of landing values factored
// under one permutation onto a matrix permuted by another.
TEST(CheckpointRestart, OrderingChangedBetweenWriteAndResumeFailsTyped) {
  const index_t n = 48;
  Csc a = matgen::random_rect(n, n, 1.0, 29);
  for (index_t j = 0; j < n; ++j)
    a.values_mut()[static_cast<std::size_t>(a.col_begin(j) + j)] += n;
  ASSERT_EQ(a.nnz(), static_cast<nnz_t>(n) * n);

  const std::string path = temp_path("snap_reordered.bin");
  auto snapshot_under = [&](ordering::FillReducing f, io::Snapshot* out) {
    solver::Options opts;
    opts.n_ranks = 2;
    opts.block_size = 8;
    opts.reorder.fill_reducing = f;
    opts.checkpoint_path = path;
    opts.checkpoint_interval_tasks = 4;
    opts.fault_plan.kill_after_task = 12;
    solver::Solver victim;
    ASSERT_EQ(victim.factorize(a, opts).code(), StatusCode::kUnavailable);
    ASSERT_TRUE(io::read_snapshot_file(path, out).is_ok());
  };
  io::Snapshot natural, rcm;
  snapshot_under(ordering::FillReducing::kNatural, &natural);
  snapshot_under(ordering::FillReducing::kRcm, &rcm);
  ASSERT_NE(natural.meta.perm_fingerprint, rcm.meta.perm_fingerprint)
      << "the two orderings must differ on this matrix";
  ASSERT_EQ(natural.meta.n_tasks, rcm.meta.n_tasks);
  ASSERT_EQ(natural.block_nnz, rcm.block_nnz);

  // Written under kNatural, resumed under kRcm.
  io::Snapshot changed = natural;
  changed.meta.fill_reducing = static_cast<std::int32_t>(ordering::FillReducing::kRcm);
  ASSERT_TRUE(io::write_snapshot_file(path, changed).is_ok());
  solver::Solver revived;
  const Status st = revived.resume_from(path);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.message();

  // Without the fingerprint the structural cross-check would let it
  // through: with kRcm's fingerprint the same values resume.
  changed.meta.perm_fingerprint = rcm.meta.perm_fingerprint;
  ASSERT_TRUE(io::write_snapshot_file(path, changed).is_ok());
  solver::Solver fooled;
  EXPECT_TRUE(fooled.resume_from(path).is_ok());

  // The unchanged snapshot still resumes.
  ASSERT_TRUE(io::write_snapshot_file(path, natural).is_ok());
  solver::Solver unchanged;
  EXPECT_TRUE(unchanged.resume_from(path).is_ok());
  std::remove(path.c_str());
}

TEST(CheckpointRestart, OutOfRangeMetaScalarsAreIoError) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  const std::string path = temp_path("snap_meta_range.bin");
  solver::Options opts;
  opts.n_ranks = 2;
  opts.checkpoint_path = path;
  opts.checkpoint_interval_tasks = 3;
  opts.fault_plan.kill_after_task = 6;
  solver::Solver victim;
  ASSERT_EQ(victim.factorize(a, opts).code(), StatusCode::kUnavailable);
  io::Snapshot good;
  ASSERT_TRUE(io::read_snapshot_file(path, &good).is_ok());

  // Each enum slot one past its last enumerator (and negative), each flag
  // outside {0, 1}: a CRC-consistent snapshot must still fail typed instead
  // of casting the value into an option.
  struct Case {
    const char* name;
    std::int32_t io::SnapshotMeta::*slot;
    std::int32_t value;
  };
  const Case cases[] = {
      {"policy", &io::SnapshotMeta::policy, 9},
      {"policy", &io::SnapshotMeta::policy, -1},
      {"schedule", &io::SnapshotMeta::schedule, 5},
      {"verify_level", &io::SnapshotMeta::verify_level, 3},
      {"abft_level", &io::SnapshotMeta::abft_level, 3},
      {"fill_reducing", &io::SnapshotMeta::fill_reducing, 7},
      {"fill_reducing", &io::SnapshotMeta::fill_reducing, 6},
      {"balance", &io::SnapshotMeta::balance, 2},
      {"use_mc64", &io::SnapshotMeta::use_mc64, -1},
      {"apply_scaling", &io::SnapshotMeta::apply_scaling, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) + " = " + std::to_string(c.value));
    io::Snapshot snap = good;
    snap.meta.*c.slot = c.value;
    ASSERT_TRUE(io::write_snapshot_file(path, snap).is_ok());
    solver::Solver revived;
    const Status st = revived.resume_from(path);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.message();
  }

  // The untouched snapshot still resumes.
  ASSERT_TRUE(io::write_snapshot_file(path, good).is_ok());
  solver::Solver revived;
  EXPECT_TRUE(revived.resume_from(path).is_ok());
  std::remove(path.c_str());
}

TEST(CheckpointRestart, MissingFileIsIoError) {
  solver::Solver s;
  EXPECT_EQ(s.resume_from(temp_path("snap_nonexistent.bin")).code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// ABFT: silent corruption detected and repaired in the canonical executor.
// ---------------------------------------------------------------------------

/// First GETRF task whose target block feeds a later task (so the audit of
/// that reader sees any corruption of the factorised diagonal block).
index_t first_read_getrf(const Prepared& p) {
  for (std::size_t t = 0; t < p.tasks.size(); ++t) {
    if (p.tasks[t].kind != block::TaskKind::kGetrf) continue;
    for (std::size_t u = t + 1; u < p.tasks.size(); ++u) {
      if (p.tasks[u].src_a == p.tasks[t].target ||
          p.tasks[u].src_b == p.tasks[t].target)
        return static_cast<index_t>(t);
    }
  }
  return -1;
}

TEST(Abft, BitFlipDetectedAndRecomputed) {
  const rank_t ranks = 2;
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared clean = prepare(a, 16, ranks);
  SimResult clean_res;
  ASSERT_TRUE(run(clean, ranks, SimOptions{}, &clean_res).is_ok());

  Prepared flipped = prepare(a, 16, ranks);
  const index_t t0 = first_read_getrf(flipped);
  ASSERT_GE(t0, 0);
  FaultPlan::BitFlip flip;
  flip.after_task = t0;
  flip.block_pos = flipped.tasks[static_cast<std::size_t>(t0)].target;
  flip.value_index = 0;
  flip.bit = 52;  // mantissa-exponent boundary: a large, silent error

  // Unprotected: the flip silently lands in the factors.
  SimOptions unprot;
  unprot.faults.bitflips.push_back(flip);
  SimResult unprot_res;
  ASSERT_TRUE(run(flipped, ranks, unprot, &unprot_res).is_ok());
  EXPECT_FALSE(bitwise_equal(clean.bm, flipped.bm));
  EXPECT_EQ(unprot_res.abft_detected, 0);

  // Cheap audits: detected at the first read, recomputed, factors restored.
  Prepared guarded = prepare(a, 16, ranks);
  SimOptions prot;
  prot.faults.bitflips.push_back(flip);
  prot.abft = AbftLevel::kCheap;
  SimResult prot_res;
  Status s = run(guarded, ranks, prot, &prot_res);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_GT(prot_res.abft_audits, 0);
  EXPECT_GE(prot_res.abft_detected, 1);
  EXPECT_GE(prot_res.abft_recomputed, 1);
  EXPECT_TRUE(bitwise_equal(clean.bm, guarded.bm));
}

TEST(Abft, Fp32BitFlipDetectedAndRecomputed) {
  // The precision-aware twin of BitFlipDetectedAndRecomputed: checksums are
  // computed over the active value type (FNV-1a over FP32 bytes), the flip
  // lands at the FP32 word width, and replay repair restores the FP32
  // factors bit for bit (DESIGN.md §14).
  const rank_t ranks = 2;
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared base = prepare(a, 16, ranks);
  const index_t t0 = first_read_getrf(base);
  ASSERT_GE(t0, 0);
  FaultPlan::BitFlip flip;
  flip.after_task = t0;
  flip.block_pos = base.tasks[static_cast<std::size_t>(t0)].target;
  flip.value_index = 0;
  flip.bit = 23;  // FP32 mantissa-exponent boundary: large and silent

  auto clean = block::BlockMatrixT<float>::converted_from(base.bm);
  SimOptions copts;
  copts.n_ranks = ranks;
  SimResult cres;
  ASSERT_TRUE(runtime::simulate_factorization(clean, base.tasks, base.mapping,
                                              copts, &cres)
                  .is_ok());

  // Unprotected: the flip silently lands in the FP32 factors.
  auto flipped = block::BlockMatrixT<float>::converted_from(base.bm);
  SimOptions unprot = copts;
  unprot.faults.bitflips.push_back(flip);
  SimResult ures;
  ASSERT_TRUE(runtime::simulate_factorization(flipped, base.tasks,
                                              base.mapping, unprot, &ures)
                  .is_ok());
  EXPECT_EQ(ures.abft_detected, 0);
  EXPECT_FALSE(bitwise_equal(clean, flipped));

  // Cheap audits over the FP32 checksums: detected, recomputed, restored.
  auto guarded = block::BlockMatrixT<float>::converted_from(base.bm);
  SimOptions prot = copts;
  prot.faults.bitflips.push_back(flip);
  prot.abft = AbftLevel::kCheap;
  SimResult pres;
  Status s = runtime::simulate_factorization(guarded, base.tasks, base.mapping,
                                             prot, &pres);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_GT(pres.abft_audits, 0);
  EXPECT_GE(pres.abft_detected, 1);
  EXPECT_GE(pres.abft_recomputed, 1);
  EXPECT_TRUE(bitwise_equal(clean, guarded));
}

TEST(Abft, FinalSweepCatchesWhatCheapAuditsCannot) {
  const rank_t ranks = 2;
  Csc a = matgen::grid2d_laplacian(8, 8);
  Prepared clean = prepare(a, 16, ranks);
  SimResult clean_res;
  ASSERT_TRUE(run(clean, ranks, SimOptions{}, &clean_res).is_ok());
  const auto nt = static_cast<index_t>(clean.tasks.size());

  // Corrupt the last commit: no later task reads it, so only the full
  // level's final sweep can see it.
  FaultPlan::BitFlip flip;
  flip.after_task = nt - 1;
  flip.block_pos = clean.tasks[static_cast<std::size_t>(nt - 1)].target;
  flip.value_index = 0;
  flip.bit = 50;

  Prepared cheap = prepare(a, 16, ranks);
  SimOptions copts;
  copts.faults.bitflips.push_back(flip);
  copts.abft = AbftLevel::kCheap;
  SimResult cres;
  ASSERT_TRUE(run(cheap, ranks, copts, &cres).is_ok());
  EXPECT_EQ(cres.abft_detected, 0);
  EXPECT_FALSE(bitwise_equal(clean.bm, cheap.bm));

  Prepared full = prepare(a, 16, ranks);
  SimOptions fopts;
  fopts.faults.bitflips.push_back(flip);
  fopts.abft = AbftLevel::kFull;
  SimResult fres;
  Status s = run(full, ranks, fopts, &fres);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_GE(fres.abft_detected, 1);
  EXPECT_GE(fres.abft_recomputed, 1);
  EXPECT_TRUE(bitwise_equal(clean.bm, full.bm));
}

TEST(Abft, CleanRunsAuditWithoutFiring) {
  const rank_t ranks = 2;
  Csc a = matgen::grid2d_laplacian(8, 8);
  Prepared clean = prepare(a, 16, ranks);
  SimResult r0;
  ASSERT_TRUE(run(clean, ranks, SimOptions{}, &r0).is_ok());
  for (AbftLevel lvl : {AbftLevel::kCheap, AbftLevel::kFull}) {
    Prepared p = prepare(a, 16, ranks);
    SimOptions opts;
    opts.abft = lvl;
    SimResult res;
    ASSERT_TRUE(run(p, ranks, opts, &res).is_ok());
    EXPECT_GT(res.abft_audits, 0);
    EXPECT_EQ(res.abft_detected, 0);
    EXPECT_EQ(res.abft_recomputed, 0);
    EXPECT_TRUE(bitwise_equal(clean.bm, p.bm));
  }
}

// ---------------------------------------------------------------------------
// ABFT on the multi-worker numeric engine: audits keep their serial
// semantics (one task per dispatch fence), so replay repair restores the
// exact bits at any numeric_threads.
// ---------------------------------------------------------------------------

TEST(Abft, EngineRepairsCorruptionAtEveryThreadCount) {
  const rank_t ranks = 2;
  Csc a = matgen::grid2d_laplacian(9, 9);

  // Reference factors from a clean one-worker run.
  Prepared clean = prepare(a, 16, ranks);
  SimOptions clean_opts;
  clean_opts.numeric_threads = 1;
  SimResult clean_res;
  ASSERT_TRUE(run(clean, ranks, clean_opts, &clean_res).is_ok());

  for (int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Prepared p = prepare(a, 16, ranks);
    const index_t t0 = first_read_getrf(p);
    ASSERT_GE(t0, 0);
    SimOptions opts;
    opts.numeric_threads = threads;
    opts.abft = AbftLevel::kCheap;
    FaultPlan::BitFlip flip;
    flip.after_task = t0;
    flip.block_pos = p.tasks[static_cast<std::size_t>(t0)].target;
    flip.value_index = 0;
    flip.bit = 52;
    opts.faults.bitflips.push_back(flip);
    SimResult res;
    Status s = run(p, ranks, opts, &res);
    ASSERT_TRUE(s.is_ok()) << s.message();
    // The flip lands after the target's checksum was recorded, so the first
    // reader detects it and the replay repair restores the exact bits — the
    // corrupted run ends bitwise identical to clean.
    EXPECT_GE(res.abft_detected, 1);
    EXPECT_GE(res.abft_recomputed, 1);
    EXPECT_GT(res.abft_audits, 0);
    EXPECT_TRUE(bitwise_equal(clean.bm, p.bm));

    // A clean run audits without ever firing the repair path.
    Prepared q = prepare(a, 16, ranks);
    SimOptions qopts;
    qopts.numeric_threads = threads;
    qopts.abft = AbftLevel::kCheap;
    SimResult qres;
    ASSERT_TRUE(run(q, ranks, qopts, &qres).is_ok());
    EXPECT_EQ(qres.abft_detected, 0);
    EXPECT_EQ(qres.abft_recomputed, 0);
    EXPECT_TRUE(bitwise_equal(clean.bm, q.bm));
  }
}

}  // namespace
}  // namespace pangulu
