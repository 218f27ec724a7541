// Algorithm-based fault tolerance for the numeric phase: per-block value
// checksums, audited at task-completion boundaries.
//
// The numeric engine gives every block its canonical kernel sequence
// (runtime/sim.cpp), which makes silent-corruption recovery tractable: every
// block's current value state is a deterministic function of (its state
// when the guard was armed) and (the canonical tasks targeting it that have
// committed since). The engine runs one task per dispatch fence while the
// guard is armed, so before_task/after_task see a serial canonical run. The guard records a checksum for
// every block when armed and re-records a block's checksum each time a task
// commits into it. An audit that finds a mismatched block — a bit flipped
// under us between the commit and the read — restores the block's armed-time
// values and replays its committed tasks through the caller-supplied runner
// (which reuses the exact kernel variants of the original run, so the
// recomputed block is bitwise identical to the uncorrupted one). Only when
// replay cannot reproduce the recorded checksum, or a source block is itself
// unrecoverable, does the audit fail with StatusCode::kDataCorruption.
//
// Audit levels mirror analysis::VerifyLevel:
//   kOff   — no checksums, no audits (zero overhead).
//   kCheap — before each task, audit the blocks the task *reads* (its
//            sources); corruption is caught before it can propagate.
//   kFull  — kCheap plus an audit of the task's target before it commits,
//            and a final sweep over every block after the last task (so
//            corruption in blocks nothing reads any more is still caught).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "block/layout.hpp"
#include "block/tasks.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace pangulu::runtime {

enum class AbftLevel { kOff = 0, kCheap = 1, kFull = 2 };

/// FNV-1a 64 over the block's raw value bytes: exact (any single bit flip
/// changes the sum), cheap (one pass, no multiplies per bit), and
/// deterministic across hosts of the same endianness.
template <class V>
std::uint64_t block_checksum(const CscT<V>& blk);

struct AbftStats {
  std::int64_t audits = 0;       // blocks checksummed during audits
  std::int64_t detected = 0;     // audits that found a mismatch
  std::int64_t recomputed = 0;   // blocks successfully rebuilt by replay
};

/// Arms checksums over `bm` and audits/repairs it as canonical tasks commit.
/// `first_task` is the canonical index the run starts from (0 for a fresh
/// factorisation, `tasks_done` for a resumed one): the armed-time block
/// values are the replay baseline, so recovery only ever replays tasks in
/// [first_task, last committed].
template <class V>
class AbftGuardT {
 public:
  /// `runner(t)` must re-execute canonical task `t`'s numerics with the same
  /// kernel variant as the original run (bitwise reproducibility is the
  /// whole point); it must not touch blocks other than t's target.
  using TaskRunner = std::function<Status(index_t)>;

  AbftGuardT(block::BlockMatrixT<V>& bm, const std::vector<block::Task>& tasks,
             AbftLevel level, index_t first_task, TaskRunner runner);

  /// Audit the blocks task `t` is about to read (and, at kFull, its target).
  Status before_task(index_t t);

  /// Task `t` has committed: re-record its target's checksum and advance the
  /// replay cursor.
  void after_task(index_t t);

  /// kFull only: audit every stored block (catches flips in blocks no
  /// remaining task reads). A no-op at kCheap.
  Status final_sweep();

  const AbftStats& stats() const { return stats_; }

 private:
  /// Verify block `pos` against its recorded checksum; on mismatch, restore
  /// the armed-time values and replay its committed tasks (recursively
  /// ensuring their source blocks are clean first). `depth` bounds the
  /// recursion against pathological corruption storms.
  Status ensure_clean(nnz_t pos, int depth);

  block::BlockMatrixT<V>& bm_;
  const std::vector<block::Task>& tasks_;
  AbftLevel level_;
  index_t first_task_;
  index_t cursor_;  // tasks [first_task_, cursor_) have committed
  TaskRunner runner_;
  std::vector<std::uint64_t> sum_;            // recorded checksum per block
  std::vector<std::vector<V>> base_;          // armed-time values per block
  // CSR: tasks targeting each block, in canonical order.
  std::vector<nnz_t> by_block_ptr_;
  std::vector<index_t> by_block_task_;
  AbftStats stats_;
};

using AbftGuard = AbftGuardT<value_t>;

}  // namespace pangulu::runtime
