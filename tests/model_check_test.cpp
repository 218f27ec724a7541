// Model-checker property tests: the explicit-state checker exhaustively
// explores small-grid protocol interleavings (sleep-set POR visits every
// reachable state with fewer transitions), classifies fault-free and
// fault-budgeted runs as safe, and — under each seeded protocol mutation —
// produces a minimal counterexample whose replay_schedule replay reproduces
// the identical violation. Random FaultPlan/ElasticPlan DES
// executions agree with the checker's reachable-and-safe verdict.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/model_check.hpp"
#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "matgen/generators.hpp"
#include "runtime/elastic.hpp"
#include "runtime/fault.hpp"
#include "runtime/sim.hpp"
#include "symbolic/fill.hpp"

namespace pangulu {
namespace {

using analysis::Counterexample;
using analysis::ModelCheckResult;
using analysis::ModelOptions;
using analysis::ProtocolMutations;
using analysis::ProtoEvent;
using analysis::ProtoEventKind;
using analysis::ProtoProperty;
using analysis::ReplayResult;
using runtime::ElasticPlan;
using runtime::FaultPlan;
using runtime::SimOptions;
using runtime::SimResult;

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

/// The acceptance-criteria grid: >= 3x3 blocks on two ranks.
Prepared grid3x3(rank_t ranks = 2) {
  return prepare(matgen::grid2d_laplacian(3, 3), 3, ranks);
}

bool bitwise_equal(const block::BlockMatrix& x, const block::BlockMatrix& y) {
  const Csc a = x.to_csc();
  const Csc b = y.to_csc();
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

// ---------------------------------------------------------------------------
// Event/property plumbing.
// ---------------------------------------------------------------------------

TEST(ProtoEvent, ToStringCoversEveryKind) {
  const ProtoEventKind kinds[] = {
      ProtoEventKind::kCommit,     ProtoEventKind::kDeliver,
      ProtoEventKind::kRetransmit, ProtoEventKind::kDrain,
      ProtoEventKind::kAdd,        ProtoEventKind::kCheckpoint,
      ProtoEventKind::kPublish,    ProtoEventKind::kDrop,
      ProtoEventKind::kDuplicate,  ProtoEventKind::kCrash,
  };
  for (ProtoEventKind k : kinds) {
    EXPECT_STRNE(analysis::to_string(k), "unknown");
    ProtoEvent e;
    e.kind = k;
    e.task = 1;
    e.edge = 2;
    e.rank = 0;
    EXPECT_FALSE(analysis::to_string(e).empty());
  }
  const ProtoProperty props[] = {
      ProtoProperty::kNone,
      ProtoProperty::kCounterNonNegative,
      ProtoProperty::kAtMostOnce,
      ProtoProperty::kPrematureExecute,
      ProtoProperty::kMappingTotality,
      ProtoProperty::kMinRanksFloor,
      ProtoProperty::kCheckpointDurability,
      ProtoProperty::kOrphanMessage,
      ProtoProperty::kDeadlock,
  };
  for (ProtoProperty p : props)
    EXPECT_STRNE(analysis::to_string(p), "unknown");
}

TEST(ProtoEvent, OrderingAndEquality) {
  ProtoEvent a{ProtoEventKind::kCommit, 1, -1, -1};
  ProtoEvent b{ProtoEventKind::kCommit, 2, -1, -1};
  ProtoEvent c{ProtoEventKind::kDeliver, -1, 0, -1};
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(analysis::proto_event_less(a, b));
  EXPECT_TRUE(analysis::proto_event_less(a, c));
  EXPECT_FALSE(analysis::proto_event_less(c, a));
}

TEST(ModelCheck, RejectsMalformedInputs) {
  Prepared p = grid3x3();
  ModelCheckResult res;
  ModelOptions mo;
  block::Mapping bad = p.mapping;
  bad.owner.pop_back();
  EXPECT_EQ(analysis::model_check(p.bm, p.tasks, bad, mo, &res).code(),
            StatusCode::kInvalidArgument);
  ModelOptions neg;
  neg.max_drops = -1;
  EXPECT_EQ(analysis::model_check(p.bm, p.tasks, p.mapping, neg, &res).code(),
            StatusCode::kInvalidArgument);
  ModelOptions floor;
  floor.min_ranks = 5;
  EXPECT_EQ(
      analysis::model_check(p.bm, p.tasks, p.mapping, floor, &res).code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Exhaustive exploration of healthy configurations.
// ---------------------------------------------------------------------------

TEST(ModelCheck, FaultFreeGridIsSafeAndComplete) {
  Prepared p = grid3x3();
  ModelOptions mo;
  ModelCheckResult res;
  ASSERT_TRUE(analysis::model_check(p.bm, p.tasks, p.mapping, mo, &res).is_ok());
  EXPECT_FALSE(res.violation);
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.stats.states, 1u);
  EXPECT_GT(res.stats.terminal_states, 0u);
}

TEST(ModelCheck, SleepSetsPreserveStatesAndPruneTransitions) {
  Prepared p = grid3x3();
  ModelOptions por;
  por.max_drops = 1;
  ModelOptions naive = por;
  naive.partial_order_reduction = false;
  ModelCheckResult rp, rn;
  ASSERT_TRUE(
      analysis::model_check(p.bm, p.tasks, p.mapping, por, &rp).is_ok());
  ASSERT_TRUE(
      analysis::model_check(p.bm, p.tasks, p.mapping, naive, &rn).is_ok());
  ASSERT_TRUE(rp.complete);
  ASSERT_TRUE(rn.complete);
  // The reduction prunes transitions, never states: every reachable state
  // is still visited, so per-state safety checking loses nothing.
  EXPECT_EQ(rp.stats.states, rn.stats.states);
  EXPECT_EQ(rp.stats.naive_transitions, rn.stats.transitions);
  EXPECT_LT(rp.stats.transitions, rn.stats.transitions);
  EXPECT_GT(rp.stats.reduction_factor(), 1.0);
  EXPECT_GT(rp.stats.sleep_pruned, 0u);
}

// The acceptance-criteria configuration: a 3x3-block grid on two ranks with
// a message-fault budget (one drop + one late duplicate) AND a planned
// elastic drain, explored exhaustively within the state budget.
TEST(ModelCheck, ExhaustiveWithFaultAndElasticEvent) {
  Prepared p = grid3x3();
  ElasticPlan plan;
  plan.drains.push_back({1, 2});
  ModelOptions mo;
  mo.elastic = runtime::flatten_elastic(plan);
  mo.min_ranks = plan.min_ranks;
  mo.max_drops = 1;
  mo.max_duplicates = 1;
  ModelCheckResult res;
  ASSERT_TRUE(
      analysis::model_check(p.bm, p.tasks, p.mapping, mo, &res).is_ok());
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation);
  EXPECT_LT(res.stats.states, mo.max_states);
  EXPECT_GT(res.stats.reduction_factor(), 1.0);
  RecordProperty("states", static_cast<int>(res.stats.states));
  RecordProperty("transitions", static_cast<int>(res.stats.transitions));
  RecordProperty("reduction_x100",
                 static_cast<int>(res.stats.reduction_factor() * 100));
}

TEST(ModelCheck, CrashBudgetExploredSafely) {
  Prepared p = prepare(matgen::grid2d_laplacian(3, 3), 3, 3);
  ModelOptions mo;
  mo.max_crashes = 1;
  ModelCheckResult res;
  ASSERT_TRUE(
      analysis::model_check(p.bm, p.tasks, p.mapping, mo, &res).is_ok());
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation);
}

TEST(ModelCheck, StateBudgetExhaustionIsInconclusiveNotWrong) {
  Prepared p = grid3x3();
  ModelOptions mo;
  mo.max_drops = 1;
  mo.max_states = 16;
  ModelCheckResult res;
  EXPECT_EQ(analysis::model_check(p.bm, p.tasks, p.mapping, mo, &res).code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(res.complete);
  EXPECT_FALSE(res.violation);
}

// ---------------------------------------------------------------------------
// Forced-schedule replay through the protocol interpreter.
// ---------------------------------------------------------------------------

TEST(ForcedSchedule, CompleteScheduleReplaysToIdenticalFactors) {
  // A sampled complete schedule replays clean to a terminal state with every
  // task committed. The replay is protocol-only; the engine's factors do not
  // depend on the schedule (runtime_test checks that bitwise).
  Prepared p = grid3x3();
  ModelOptions mo;
  const std::vector<ProtoEvent> sched = analysis::sample_complete_schedule(
      p.bm, p.tasks, p.mapping, mo);
  ASSERT_FALSE(sched.empty());
  const ReplayResult rr =
      analysis::replay_schedule(p.bm, p.tasks, p.mapping, mo, sched);
  EXPECT_TRUE(rr.feasible);
  EXPECT_EQ(rr.applied, sched.size());
  EXPECT_EQ(rr.property, ProtoProperty::kNone);
  EXPECT_TRUE(rr.terminal);
  EXPECT_TRUE(rr.all_committed);
  EXPECT_EQ(rr.commits, static_cast<index_t>(p.tasks.size()));
  EXPECT_GT(rr.messages, 0);
}

TEST(ForcedSchedule, InfeasibleAndIncompleteSchedulesAreRejected) {
  Prepared p = grid3x3();
  ModelOptions mo;
  const std::vector<ProtoEvent> full = analysis::sample_complete_schedule(
      p.bm, p.tasks, p.mapping, mo);
  ASSERT_GE(full.size(), 2u);

  // A later event hoisted to the front is inadmissible there.
  const ReplayResult bad = analysis::replay_schedule(
      p.bm, p.tasks, p.mapping, mo, {full.back()});
  EXPECT_FALSE(bad.feasible);
  EXPECT_FALSE(bad.infeasible_reason.empty());

  // A strict prefix leaves tasks uncommitted.
  const std::vector<ProtoEvent> prefix(
      full.begin(),
      full.begin() + static_cast<std::ptrdiff_t>(full.size() / 2));
  const ReplayResult part =
      analysis::replay_schedule(p.bm, p.tasks, p.mapping, mo, prefix);
  EXPECT_TRUE(part.feasible);
  EXPECT_EQ(part.property, ProtoProperty::kNone);
  EXPECT_FALSE(part.all_committed);
}

TEST(ForcedSchedule, HandForgedDoubleCommitViolatesAtMostOnce) {
  Prepared p = grid3x3();
  ModelOptions mo;
  std::vector<ProtoEvent> sched = analysis::sample_complete_schedule(
      p.bm, p.tasks, p.mapping, mo);
  ASSERT_EQ(sched.front().kind, ProtoEventKind::kCommit);
  sched.insert(sched.begin() + 1, sched.front());  // commit task 0 twice

  const ReplayResult rr =
      analysis::replay_schedule(p.bm, p.tasks, p.mapping, mo, sched);
  EXPECT_TRUE(rr.feasible);
  EXPECT_EQ(rr.property, ProtoProperty::kAtMostOnce);
}

// ---------------------------------------------------------------------------
// Mutation soundness: every seeded protocol bug is found, the
// counterexample replays to the same violation, and it is 1-minimal.
// ---------------------------------------------------------------------------

struct MutationCase {
  const char* name;
  ProtocolMutations mutations;
  ProtoProperty expect;
  int drops = 0;
  int dups = 0;
  int crashes = 0;
  int ckpts = 0;
  bool drain = false;
  rank_t min_ranks = 1;
};

std::vector<MutationCase> mutation_cases() {
  std::vector<MutationCase> cases;
  {
    MutationCase c{"skip_ack_dedup", {}, ProtoProperty::kCounterNonNegative};
    c.mutations.skip_ack_dedup = true;
    c.dups = 1;
    cases.push_back(c);
  }
  {
    MutationCase c{"counter_off_by_one", {}, ProtoProperty::kPrematureExecute};
    c.mutations.counter_off_by_one = true;
    cases.push_back(c);
  }
  {
    MutationCase c{"skip_rebalance_proof", {}, ProtoProperty::kMappingTotality};
    c.mutations.skip_rebalance_proof = true;
    c.drain = true;
    cases.push_back(c);
  }
  {
    MutationCase c{"commit_before_publish", {},
                   ProtoProperty::kCheckpointDurability};
    c.mutations.commit_before_publish = true;
    c.ckpts = 1;
    cases.push_back(c);
  }
  {
    MutationCase c{"skip_retransmit", {}, ProtoProperty::kOrphanMessage};
    c.mutations.skip_retransmit = true;
    c.drops = 1;
    cases.push_back(c);
  }
  {
    MutationCase c{"drain_ignores_min_ranks", {},
                   ProtoProperty::kMinRanksFloor};
    c.mutations.drain_ignores_min_ranks = true;
    c.drain = true;
    c.min_ranks = 2;  // any drain of the 2-rank grid dips below the floor
    cases.push_back(c);
  }
  {
    MutationCase c{"crash_remap_drops_block", {},
                   ProtoProperty::kMappingTotality};
    c.mutations.crash_remap_drops_block = true;
    c.crashes = 1;
    cases.push_back(c);
  }
  return cases;
}

ElasticPlan case_plan(const MutationCase& c) {
  ElasticPlan plan;
  plan.min_ranks = c.min_ranks;
  if (c.drain) plan.drains.push_back({1, 1});
  return plan;
}

ModelOptions case_options(const MutationCase& c, bool mutated) {
  const ElasticPlan plan = case_plan(c);
  ModelOptions mo;
  mo.elastic = runtime::flatten_elastic(plan);
  mo.min_ranks = plan.min_ranks;
  mo.max_drops = c.drops;
  mo.max_duplicates = c.dups;
  mo.max_crashes = c.crashes;
  mo.max_checkpoints = c.ckpts;
  if (mutated) mo.mutations = c.mutations;
  return mo;
}

TEST(MutationSoundness, EverySeededBugFoundMinimisedAndReplayable) {
  const std::vector<MutationCase> cases = mutation_cases();
  ASSERT_GE(cases.size(), 6u);  // >= 6 distinct mutations (AC)
  for (const MutationCase& c : cases) {
    SCOPED_TRACE(c.name);
    Prepared p = grid3x3();

    // Baseline soundness: the identical configuration without the mutation
    // is exhaustively clean — the checker only fires on the seeded bug.
    ModelCheckResult clean;
    ASSERT_TRUE(analysis::model_check(p.bm, p.tasks, p.mapping,
                                      case_options(c, false), &clean)
                    .is_ok());
    EXPECT_FALSE(clean.violation);
    EXPECT_TRUE(clean.complete);

    // The mutated protocol is caught, with the expected property.
    const ModelOptions mo = case_options(c, true);
    ModelCheckResult res;
    ASSERT_TRUE(
        analysis::model_check(p.bm, p.tasks, p.mapping, mo, &res).is_ok());
    ASSERT_TRUE(res.violation);
    EXPECT_EQ(res.cex.property, c.expect);
    ASSERT_FALSE(res.cex.schedule.empty());
    EXPECT_FALSE(res.cex.detail.empty());

    // The counterexample replays to the same violation in the model...
    const ReplayResult rr = analysis::replay_schedule(
        p.bm, p.tasks, p.mapping, mo, res.cex.schedule);
    EXPECT_TRUE(rr.feasible);
    EXPECT_EQ(rr.property, c.expect);

    // ...and is 1-minimal: removing any single event loses the violation.
    for (std::size_t i = 0; i < res.cex.schedule.size(); ++i) {
      std::vector<ProtoEvent> cand = res.cex.schedule;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      const ReplayResult sub =
          analysis::replay_schedule(p.bm, p.tasks, p.mapping, mo, cand);
      EXPECT_FALSE(sub.feasible && sub.property == c.expect)
          << "schedule not minimal: event " << i << " ("
          << analysis::to_string(res.cex.schedule[i]) << ") is removable";
    }
  }
}

// ---------------------------------------------------------------------------
// Checker/DES agreement on random fault + elastic plans.
// ---------------------------------------------------------------------------

TEST(CheckerDesAgreement, RandomFaultAndElasticPlansLandSafe) {
  // Fault-free reference factors.
  Prepared ref = grid3x3();
  SimOptions base;
  base.n_ranks = 2;
  SimResult ref_res;
  ASSERT_TRUE(runtime::simulate_factorization(ref.bm, ref.tasks, ref.mapping,
                                              base, &ref_res)
                  .is_ok());

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Prepared p = grid3x3();
    ElasticPlan plan;
    if (seed % 2 == 0) plan.drains.push_back({1, 3});

    // The DES under a random recoverable message-fault plan + the elastic
    // plan reaches completion with bitwise-identical factors...
    SimOptions opts;
    opts.n_ranks = 2;
    opts.faults = FaultPlan::random(seed, 2, 1e-3, 0.4,
                                    /*with_crash=*/false);
    opts.elastic = plan;
    SimResult res;
    ASSERT_TRUE(runtime::simulate_factorization(p.bm, p.tasks, p.mapping,
                                                opts, &res)
                    .is_ok());
    EXPECT_TRUE(bitwise_equal(ref.bm, p.bm));

    // ...and the checker proves every state reachable under the matching
    // budgets safe, so the DES cannot have visited an unsafe one.
    ModelOptions mo;
    mo.elastic = runtime::flatten_elastic(plan);
    mo.min_ranks = plan.min_ranks;
    mo.max_drops = 1;
    mo.max_duplicates = 1;
    ModelCheckResult check;
    ASSERT_TRUE(
        analysis::model_check(p.bm, p.tasks, p.mapping, mo, &check).is_ok());
    EXPECT_TRUE(check.complete);
    EXPECT_FALSE(check.violation);
  }
}

TEST(CheckerDesAgreement, CrashRecoveryAgreesOnThreeRanks) {
  Prepared ref = prepare(matgen::grid2d_laplacian(3, 3), 3, 3);
  SimOptions base;
  base.n_ranks = 3;
  SimResult ref_res;
  ASSERT_TRUE(runtime::simulate_factorization(ref.bm, ref.tasks, ref.mapping,
                                              base, &ref_res)
                  .is_ok());

  Prepared p = prepare(matgen::grid2d_laplacian(3, 3), 3, 3);
  SimOptions opts;
  opts.n_ranks = 3;
  opts.faults = FaultPlan::random(7, 3, 1e-3, 0.4, /*with_crash=*/true);
  SimResult res;
  ASSERT_TRUE(
      runtime::simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res)
          .is_ok());
  EXPECT_TRUE(bitwise_equal(ref.bm, p.bm));

  ModelOptions mo;
  mo.max_crashes = 1;
  mo.max_drops = 1;
  ModelCheckResult check;
  ASSERT_TRUE(
      analysis::model_check(p.bm, p.tasks, p.mapping, mo, &check).is_ok());
  EXPECT_TRUE(check.complete);
  EXPECT_FALSE(check.violation);
}

}  // namespace
}  // namespace pangulu
