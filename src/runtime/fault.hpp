// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan describes everything that goes wrong during one DES run:
// message-level faults (drops, duplicates, reorder delays) drawn from a
// seeded RNG inside a virtual-time window, and rank-level faults (permanent
// slowdowns/stragglers, transient stalls, permanent crashes) pinned to
// chosen virtual times. The same plan always produces the same schedule,
// so fault experiments are as reproducible as fault-free ones.
//
// The recovery protocol that reacts to these faults: per-message
// ack/timeout/retransmit with exponential backoff and duplicate suppression
// on the receiver (sim.cpp), and crash detection followed by re-mapping the
// dead rank's blocks onto the survivors (Mapping::remap_failed_rank, through
// LiveCluster::crash in runtime/cluster.hpp).
// Numerics are unaffected by construction — the numeric engine runs before
// the DES replay and gives every block its canonical kernel sequence — so
// any recoverable plan yields bitwise-identical LU factors to the
// fault-free run; only makespan and traffic change.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/status.hpp"
#include "util/types.hpp"

namespace pangulu::runtime {

struct FaultPlan {
  /// Seed of the per-message RNG (drops/duplicates/reorder draws).
  std::uint64_t seed = 0;

  // --- Message-level faults -------------------------------------------
  // Applied independently to every inter-rank block transfer posted in
  // [window_begin_s, window_end_s) of virtual time.
  double drop_prob = 0;     // attempt silently lost (sender times out)
  double dup_prob = 0;      // delivered twice (receiver suppresses one)
  double reorder_prob = 0;  // delivery delayed past later messages
  double reorder_max_delay_s = 1e-4;
  double window_begin_s = 0;
  double window_end_s = std::numeric_limits<double>::infinity();
  /// Give up (StatusCode::kUnavailable) after this many sends of one
  /// message; with exponential backoff this bounds the retry storm.
  int max_attempts = 8;

  // --- Rank-level faults ----------------------------------------------
  struct Slowdown {
    rank_t rank = 0;
    double from_s = 0;   // active from this virtual time onwards
    double factor = 1;   // >1: every kernel on the rank takes factor x longer
  };
  struct Stall {
    rank_t rank = 0;
    double at_s = 0;
    double duration_s = 0;  // rank frozen in [at_s, at_s + duration_s)
  };
  struct Crash {
    rank_t rank = 0;
    double at_s = 0;  // rank dead from this virtual time; work in flight lost
  };
  std::vector<Slowdown> slowdowns;
  std::vector<Stall> stalls;
  std::vector<Crash> crashes;

  // --- Data/process faults (canonical-execution clock) -----------------
  // These are pinned to canonical task indices, not virtual time: they model
  // what happens to the *numeric state* (a silent bit flip in stored values,
  // a whole-process death mid-factorisation). The numeric engine fires them
  // at dispatch fences, where the committed tasks are exactly the canonical
  // prefix, whatever the schedule or worker count.
  struct BitFlip {
    index_t after_task = 0;  // injected right after this task commits
    nnz_t block_pos = 0;     // stored-block position in the BlockMatrix
    nnz_t value_index = 0;   // which value within the block
    int bit = 0;             // which bit of the double's 64-bit pattern
  };
  std::vector<BitFlip> bitflips;
  /// >= 0: the process "dies" (StatusCode::kUnavailable) once this many
  /// canonical tasks have committed — checkpoints written up to that point
  /// stay on disk for Solver::resume_from. -1: never.
  index_t kill_after_task = -1;

  bool empty() const {
    return drop_prob == 0 && dup_prob == 0 && reorder_prob == 0 &&
           slowdowns.empty() && stalls.empty() && crashes.empty() &&
           bitflips.empty() && kill_after_task < 0;
  }
  bool has_message_faults() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0;
  }

  /// Structural sanity against a cluster size: rank ids in range,
  /// probabilities in [0, 1], non-negative times, at least one rank left
  /// alive (a plan that crashes everyone is rejected up front rather than
  /// discovered mid-simulation).
  Status validate(rank_t n_ranks) const;

  /// Deterministic pseudo-random *recoverable* plan: a mix of message
  /// faults, one straggler, one stall, and (when `n_ranks` > 1 and
  /// `with_crash`) one crash, all derived from `seed`. `intensity` in
  /// (0, 1] scales the fault probabilities; crash/stall times are drawn
  /// inside `horizon_s` so they land within a typical run.
  static FaultPlan random(std::uint64_t seed, rank_t n_ranks,
                          double horizon_s, double intensity = 0.2,
                          bool with_crash = true);
};

}  // namespace pangulu::runtime
