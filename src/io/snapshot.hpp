// Versioned, CRC-checksummed binary snapshots of an in-flight numeric
// factorisation (the checkpoint half of the checkpoint/restart subsystem).
//
// The sync-free scheduling discipline of §4.4 makes mid-flight state cheap
// to capture: because numerics execute in canonical enumeration order, the
// full progress of a factorisation is described by (a) how many canonical
// tasks have committed, (b) the live sync-free counter array, and (c) the
// current values of every stored block. A snapshot serialises exactly that,
// plus the original matrix A and the option scalars needed to rebuild the
// identical structure (reordering, symbolic pattern, blocking, mapping and
// task graph are bitwise-deterministic, so they are *recomputed* on resume
// rather than stored — see Solver::resume_from).
//
// Wire format (all integers little-endian):
//   header:  u32 magic | u32 version | u32 endian-tag | u32 field-count
//   field*:  u32 tag | u64 payload-bytes | payload | u32 crc32(payload)
// Every field payload is independently CRC-protected, so corruption is
// reported with the section that went bad. Readers reject unknown magic,
// versions and field tags outright: the format is versioned, not skippable.
//
// FORMAT DISCIPLINE (enforced by tools/lint.sh): every field is declared by
// a SNAPSHOT_FIELD(...) marker in snapshot.cpp; the marker count must equal
// kSnapshotFieldCount, and any change to the field list requires bumping
// kSnapshotFormatVersion together with tools/snapshot_format.lock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/types.hpp"

namespace pangulu::io {

/// "PGLU" in ASCII (big-endian byte order within the word).
inline constexpr std::uint32_t kSnapshotMagic = 0x50474C55u;
/// Bump whenever the field list or any payload encoding changes.
/// v2 (PR 6): incremental dirty-block snapshots — a `dirty_pos` field lists
/// the block positions whose values are encoded; `meta.incremental` flags
/// the mode. v1 files are rejected (old readers reject v2 symmetrically).
/// v3: mixed-precision factorisation — `meta.precision` records the numeric
/// storage precision (kernels::Precision) the snapshot's block values were
/// computed at. FP32-state values travel widened to FP64 (exact), so resume
/// narrows them back bit for bit. v2 files are rejected.
/// v4: `meta.perm_fingerprint` records the row and column permutations the
/// block values were computed under. The ordering is re-derived on resume,
/// and two orderings can give the same blocked structure (a dense block
/// fills the same either way), so the structural cross-check alone cannot
/// tell them apart. v3 files are rejected: they carry no fingerprint, and
/// the default ordering and `kAmd` changed since they were written.
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;
/// Written as 0x01020304; a reader seeing 0x04030201 is on a foreign-endian
/// host and rejects the file instead of mis-reading it.
inline constexpr std::uint32_t kSnapshotEndianTag = 0x01020304;
/// Number of tagged fields in a snapshot (see SNAPSHOT_FIELD in snapshot.cpp).
inline constexpr int kSnapshotFieldCount = 8;

/// Fixed-size scalar section: everything needed to re-run the deterministic
/// preprocessing pipeline and validate that the result matches the stored
/// numeric state. Enum-typed options travel as plain integers.
struct SnapshotMeta {
  index_t n = 0;
  nnz_t nnz_a = 0;
  index_t block_size = 0;
  rank_t n_ranks = 1;
  std::int32_t balance = 1;
  std::int32_t policy = 0;        // runtime::KernelPolicy
  std::int32_t schedule = 0;      // runtime::ScheduleMode
  std::int32_t verify_level = 0;  // analysis::VerifyLevel
  std::int32_t abft_level = 0;    // runtime::AbftLevel
  std::int32_t use_mc64 = 1;
  std::int32_t apply_scaling = 1;
  std::int32_t fill_reducing = 0;  // ordering::FillReducing
  std::int32_t nd_leaf_size = 0;
  std::int32_t preprocess_threads = 0;
  std::int32_t refine_iters = 3;
  value_t pivot_tol = 1e-14;
  std::int64_t checkpoint_interval = 0;
  std::int64_t n_tasks = 0;
  /// Canonical tasks committed when the snapshot was taken; resume replays
  /// tasks [tasks_done, n_tasks).
  std::int64_t tasks_done = 0;
  /// Numeric storage precision of the block values (kernels::Precision as
  /// an integer: 0 double, 1 single, 2 mixed-IR). Under FP32 storage the
  /// encoded values are exact widenings of the FP32 state.
  std::int32_t precision = 0;
  /// 0: `block_values` covers every stored block (full snapshot). 1:
  /// incremental — `block_values` holds only the blocks listed in
  /// `dirty_pos` (those mutated by tasks [0, tasks_done)); every other
  /// block still carries its initial pre-numeric values, which resume
  /// recomputes deterministically from A.
  std::int64_t incremental = 0;
  /// FNV-1a hash of the row then the column permutation of the reordering
  /// phase; resume rejects a snapshot whose re-derived ordering differs.
  std::uint64_t perm_fingerprint = 0;
};

/// In-memory image of one snapshot. The io layer deals in flat arrays only
/// (it links against sparse, not block); the solver does the (de)blocking.
struct Snapshot {
  SnapshotMeta meta;
  // The original matrix A in CSC parts (resume re-runs preprocessing on it).
  std::vector<nnz_t> a_col_ptr;
  std::vector<index_t> a_row_idx;
  std::vector<value_t> a_values;
  /// Live sync-free counter array at `meta.tasks_done` (per stored block).
  std::vector<index_t> counters;
  /// Per stored block (block-position order): its nnz, for structural
  /// cross-checking against the recomputed blocking before values land.
  /// Always covers every block, incremental or not.
  std::vector<nnz_t> block_nnz;
  /// Full mode: all block values concatenated in block-position order.
  /// Incremental mode: only the dirty blocks' values, in `dirty_pos` order.
  std::vector<value_t> block_values;
  /// Incremental mode only: ascending, duplicate-free block positions whose
  /// values are present in `block_values`. Empty in full mode.
  std::vector<nnz_t> dirty_pos;
};

/// CRC-32C (Castagnoli, reflected) of `len` bytes — hardware-accelerated on
/// SSE4.2 hosts, bit-identical table fallback elsewhere. Exposed for tests
/// and for the C API's integrity surface.
std::uint32_t crc32(const void* data, std::size_t len);

/// Serialise / parse one snapshot. Readers return StatusCode::kIoError for
/// malformed headers or truncation and StatusCode::kDataCorruption when a
/// section's CRC does not match its payload.
Status write_snapshot(std::ostream& out, const Snapshot& snap);
Status read_snapshot(std::istream& in, Snapshot* out);

/// File variants. Writing is atomic: the snapshot lands in `path + ".tmp"`
/// and is renamed over `path` only after a successful flush, so a crash
/// mid-write can never destroy the previous good checkpoint.
Status write_snapshot_file(const std::string& path, const Snapshot& snap);
Status read_snapshot_file(const std::string& path, Snapshot* out);

}  // namespace pangulu::io
