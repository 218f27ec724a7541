// Elastic-runtime property tests: planned rank drains/adds fire at task-graph
// safe points, migrate the minimal block set, re-prove the mapping verifier,
// and leave the LU factors bitwise identical to a static-grid run; draining
// below min_ranks load-sheds with StatusCode::kResourceExhausted instead of
// deadlocking; crash/drain interleavings recover; and an early incremental
// snapshot carries fewer values than the factors and resumes to the same
// bits as an uninterrupted run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/verify.hpp"
#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "io/snapshot.hpp"
#include "matgen/generators.hpp"
#include "runtime/elastic.hpp"
#include "runtime/fault.hpp"
#include "runtime/sim.hpp"
#include "runtime/trsv_sim.hpp"
#include "solver/solver.hpp"
#include "symbolic/fill.hpp"

namespace pangulu {
namespace {

using runtime::ElasticPlan;
using runtime::FaultPlan;
using runtime::ScheduleMode;
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

Status run(Prepared& p, rank_t ranks, const SimOptions& base, SimResult* res) {
  SimOptions opts = base;
  opts.n_ranks = ranks;
  opts.execute_numerics = true;
  return runtime::simulate_factorization(p.bm, p.tasks, p.mapping, opts, res);
}

// ---------------------------------------------------------------------------
// ElasticPlan validation.
// ---------------------------------------------------------------------------

TEST(ElasticPlan, ValidatesStructure) {
  ElasticPlan ok;
  ok.drains.push_back({1, 10});
  EXPECT_TRUE(ok.validate(4).is_ok());
  EXPECT_TRUE(ElasticPlan{}.validate(1).is_ok());

  ElasticPlan bad_rank;
  bad_rank.drains.push_back({7, 0});
  EXPECT_EQ(bad_rank.validate(4).code(), StatusCode::kInvalidArgument);

  ElasticPlan neg_commit;
  neg_commit.adds.push_back({1, -3});
  EXPECT_EQ(neg_commit.validate(4).code(), StatusCode::kInvalidArgument);

  ElasticPlan bad_floor;
  bad_floor.min_ranks = 0;
  bad_floor.drains.push_back({1, 0});
  EXPECT_EQ(bad_floor.validate(4).code(), StatusCode::kInvalidArgument);
  bad_floor.min_ranks = 5;
  EXPECT_EQ(bad_floor.validate(4).code(), StatusCode::kInvalidArgument);
}

TEST(ElasticPlan, ValidatesChronology) {
  // Draining a rank twice: the second drain hits an inactive rank.
  ElasticPlan twice;
  twice.drains.push_back({1, 2});
  twice.drains.push_back({1, 8});
  EXPECT_EQ(twice.validate(4).code(), StatusCode::kInvalidArgument);

  // Adding a rank that is already active.
  ElasticPlan readd;
  readd.adds.push_back({1, 5});
  readd.drains.push_back({1, 2});  // drain first -> the add is legal
  EXPECT_TRUE(readd.validate(4).is_ok());
  ElasticPlan add_active;
  add_active.adds.push_back({1, 2});  // starts inactive, becomes active...
  add_active.adds.push_back({1, 8});  // ...so the second add is redundant
  EXPECT_EQ(add_active.validate(4).code(), StatusCode::kInvalidArgument);

  // A rank whose first event is an add starts the run inactive.
  ElasticPlan grow;
  grow.adds.push_back({3, 5});
  const std::vector<char> active = grow.initially_active(4);
  EXPECT_EQ(active, (std::vector<char>{1, 1, 1, 0}));
  EXPECT_TRUE(grow.validate(4).is_ok());
}

TEST(ElasticPlan, OverDrainingLoadSheds) {
  ElasticPlan plan;
  plan.min_ranks = 2;
  plan.drains.push_back({0, 2});
  plan.drains.push_back({1, 4});
  plan.drains.push_back({2, 6});
  EXPECT_EQ(plan.validate(4).code(), StatusCode::kResourceExhausted);
  plan.drains.pop_back();
  EXPECT_TRUE(plan.validate(4).is_ok());
}

TEST(ElasticPlan, StepsPutAddsBeforeDrainsAndKeepListingOrder) {
  ElasticPlan plan;
  plan.drains.push_back({2, 4});
  plan.drains.push_back({0, 1});
  plan.adds.push_back({3, 4});
  plan.drains.push_back({1, 4});
  plan.adds.push_back({0, 4});
  plan.adds.push_back({2, 9});
  const std::vector<ElasticPlan::Step> steps = plan.steps();
  ASSERT_EQ(steps.size(), 6u);
  const ElasticPlan::Step want[] = {{1, 0, false}, {4, 3, true},
                                    {4, 0, true},  {4, 2, false},
                                    {4, 1, false}, {9, 2, true}};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(steps[i].at_commit, want[i].at_commit);
    EXPECT_EQ(steps[i].rank, want[i].rank);
    EXPECT_EQ(steps[i].is_add, want[i].is_add);
  }
}

// ---------------------------------------------------------------------------
// Mapping::rebalance — bounded movement.
// ---------------------------------------------------------------------------

TEST(Rebalance, DrainMovesExactlyTheDrainedBlocks) {
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared p = prepare(a, 16, 4);
  block::Mapping before = p.mapping;
  block::Mapping m = p.mapping;
  std::vector<char> alive(4, 1);
  alive[1] = 0;
  std::vector<nnz_t> moved_pos;
  const nnz_t moved = m.rebalance(1, -1, alive, &moved_pos);

  nnz_t owned_before = 0;
  for (std::size_t pos = 0; pos < before.owner.size(); ++pos)
    if (before.owner[pos] == 1) ++owned_before;
  ASSERT_GT(owned_before, 0);
  EXPECT_EQ(moved, owned_before);
  EXPECT_EQ(static_cast<nnz_t>(moved_pos.size()), moved);

  for (std::size_t pos = 0; pos < m.owner.size(); ++pos) {
    EXPECT_NE(m.owner[pos], 1) << "drained rank still owns block " << pos;
    if (before.owner[pos] != 1) {
      EXPECT_EQ(m.owner[pos], before.owner[pos])
          << "block " << pos << " moved between two live ranks";
    }
  }
  // Moved list is the drained rank's blocks, ascending.
  for (std::size_t i = 0; i < moved_pos.size(); ++i) {
    EXPECT_EQ(before.owner[static_cast<std::size_t>(moved_pos[i])], 1);
    if (i > 0) {
      EXPECT_LT(moved_pos[i - 1], moved_pos[i]);
    }
  }
}

TEST(Rebalance, AddStealsUpToTheFairShare) {
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared p = prepare(a, 16, 4);
  block::Mapping m = p.mapping;
  std::vector<char> alive(4, 1);
  alive[3] = 0;
  ASSERT_GE(m.rebalance(3, -1, alive), 0);  // start with rank 3 empty
  block::Mapping before = m;

  alive[3] = 1;
  std::vector<nnz_t> moved_pos;
  const nnz_t moved = m.rebalance(3, +1, alive, &moved_pos);
  const auto total = static_cast<nnz_t>(m.owner.size());
  const nnz_t fair = total / 4;

  nnz_t newcomer = 0;
  for (std::size_t pos = 0; pos < m.owner.size(); ++pos) {
    if (m.owner[pos] == 3) ++newcomer;
    // Only blocks handed to the newcomer change owner.
    if (m.owner[pos] != 3)
      EXPECT_EQ(m.owner[pos], before.owner[pos]);
    else
      EXPECT_NE(before.owner[pos], 3);
  }
  EXPECT_EQ(moved, newcomer);
  EXPECT_EQ(static_cast<nnz_t>(moved_pos.size()), moved);
  EXPECT_LE(newcomer, fair);
  EXPECT_GE(newcomer, fair > 0 ? fair - 1 : 0);
  // Bounded movement: never more than one fair share.
  EXPECT_LE(moved, (total + 3) / 4);
}

TEST(Rebalance, DrainWithNoSurvivorFails) {
  Csc a = matgen::grid2d_laplacian(6, 6);
  Prepared p = prepare(a, 16, 1);
  std::vector<char> alive(1, 0);
  EXPECT_EQ(p.mapping.rebalance(0, -1, alive), -1);
}

// ---------------------------------------------------------------------------
// verify_rebalance — post-rebalance invariants (I6).
// ---------------------------------------------------------------------------

TEST(VerifyRebalance, ProvesALegitimateDrainAndRejectsCorruption) {
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared p = prepare(a, 16, 4);
  block::Mapping before = p.mapping;
  block::Mapping after = p.mapping;
  std::vector<char> alive(4, 1);
  alive[1] = 0;
  ASSERT_GE(after.rebalance(1, -1, alive), 0);

  EXPECT_TRUE(analysis::verify_rebalance(p.bm, p.tasks, before, after, 1, -1,
                                         alive, analysis::VerifyLevel::kFull)
                  .is_ok());

  // Hand-corruption 1: a block left on the drained rank (totality breach).
  block::Mapping orphaned = after;
  orphaned.owner[0] = 1;
  EXPECT_EQ(analysis::verify_rebalance(p.bm, p.tasks, before, orphaned, 1, -1,
                                       alive, analysis::VerifyLevel::kFull)
                .code(),
            StatusCode::kInvariantViolation);

  // Hand-corruption 2: a block moved between two live ranks (movement not
  // minimal: the diff contains a move whose source is not the drained rank).
  block::Mapping shuffled = after;
  for (std::size_t pos = 0; pos < shuffled.owner.size(); ++pos) {
    if (before.owner[pos] == 0) {
      shuffled.owner[pos] = 2;
      break;
    }
  }
  EXPECT_EQ(analysis::verify_rebalance(p.bm, p.tasks, before, shuffled, 1, -1,
                                       alive, analysis::VerifyLevel::kFull)
                .code(),
            StatusCode::kInvariantViolation);

  // Hand-corruption 3: owner rank out of range.
  block::Mapping wild = after;
  wild.owner[0] = 9;
  EXPECT_EQ(analysis::verify_rebalance(p.bm, p.tasks, before, wild, 1, -1,
                                       alive, analysis::VerifyLevel::kFull)
                .code(),
            StatusCode::kInvariantViolation);
}

// ---------------------------------------------------------------------------
// Elastic runs produce bitwise-identical factors.
// ---------------------------------------------------------------------------

TEST(Elasticity, DrainsAndGrowsAreBitwiseIdentical) {
  const rank_t ranks = 4;
  Csc a = matgen::grid2d_laplacian(9, 9);
  for (ScheduleMode mode : {ScheduleMode::kSyncFree, ScheduleMode::kLevelSet}) {
    Prepared clean = prepare(a, 16, ranks);
    SimOptions base;
    base.schedule = mode;
    SimResult clean_res;
    ASSERT_TRUE(run(clean, ranks, base, &clean_res).is_ok());
    const auto nt = static_cast<index_t>(clean.tasks.size());
    ASSERT_GT(nt, 8);

    struct Scenario {
      const char* name;
      ElasticPlan plan;
      std::int64_t drains;
      std::int64_t adds;
    };
    std::vector<Scenario> scenarios;
    {
      Scenario s{"drain-at-0", {}, 1, 0};
      s.plan.drains.push_back({1, 0});
      scenarios.push_back(s);
    }
    {
      Scenario s{"drain-mid", {}, 1, 0};
      s.plan.drains.push_back({2, nt / 2});
      scenarios.push_back(s);
    }
    {
      Scenario s{"drain-then-readd", {}, 1, 1};
      s.plan.drains.push_back({2, nt / 3});
      s.plan.adds.push_back({2, (2 * nt) / 3});
      scenarios.push_back(s);
    }
    {
      Scenario s{"grow", {}, 0, 1};
      s.plan.adds.push_back({3, nt / 4});  // rank 3 starts inactive
      scenarios.push_back(s);
    }
    {
      Scenario s{"drain-past-end", {}, 1, 0};
      s.plan.drains.push_back({0, nt + 100});
      scenarios.push_back(s);
    }

    for (const Scenario& sc : scenarios) {
      Prepared p = prepare(a, 16, ranks);
      SimOptions opts = base;
      opts.elastic = sc.plan;
      opts.verify_level = analysis::VerifyLevel::kFull;
      SimResult res;
      Status s = run(p, ranks, opts, &res);
      ASSERT_TRUE(s.is_ok()) << sc.name << ": " << s.message();
      EXPECT_TRUE(bitwise_equal(clean.bm, p.bm)) << sc.name;
      EXPECT_EQ(res.ranks_drained, sc.drains) << sc.name;
      EXPECT_EQ(res.ranks_added, sc.adds) << sc.name;
      if (sc.drains > 0) {
        EXPECT_GT(res.migrated_blocks, 0) << sc.name;
        EXPECT_GE(res.migration_time, 0.0) << sc.name;
      }
    }
  }
}

TEST(Elasticity, ZeroEventPlanChangesNothing) {
  const rank_t ranks = 4;
  Csc a = matgen::grid2d_laplacian(8, 8);
  Prepared clean = prepare(a, 16, ranks);
  SimResult r0;
  ASSERT_TRUE(run(clean, ranks, SimOptions{}, &r0).is_ok());

  Prepared p = prepare(a, 16, ranks);
  SimOptions opts;  // elastic plan defaults to empty
  SimResult res;
  ASSERT_TRUE(run(p, ranks, opts, &res).is_ok());
  EXPECT_TRUE(bitwise_equal(clean.bm, p.bm));
  EXPECT_EQ(res.makespan, r0.makespan);
  EXPECT_EQ(res.ranks_drained, 0);
  EXPECT_EQ(res.ranks_added, 0);
  EXPECT_EQ(res.migrated_blocks, 0);
  EXPECT_EQ(res.migration_time, 0.0);
}

// The sync-free, level-set and solve replays reshape the cluster through
// one protocol: on one factorised matrix and mapping, the same plan moves
// the same blocks in each, and exactly what Mapping::rebalance moves when
// applied by hand in ElasticPlan::steps() order.
TEST(Elasticity, AllThreeReplaysReshapeAlike) {
  const rank_t ranks = 4;
  Csc a = matgen::grid2d_laplacian(12, 12);
  Prepared p = prepare(a, 16, ranks);
  SimResult factored;
  ASSERT_TRUE(run(p, ranks, SimOptions{}, &factored).is_ok());

  ElasticPlan plan;
  plan.adds.push_back({3, 2});    // rank 3 starts inactive, joins at 2...
  plan.drains.push_back({1, 2});  // ...as rank 1 drains at the same commit
  plan.adds.push_back({1, 5});    // rank 1 re-added
  ASSERT_TRUE(plan.validate(ranks).is_ok());
  ASSERT_LE(5, p.bm.nb());  // the solve replay fires every step mid-sweep

  // By hand: provision the initially-inactive rank, then rebalance.
  block::Mapping m = p.mapping;
  std::vector<char> alive = plan.initially_active(ranks);
  ASSERT_EQ(alive, (std::vector<char>{1, 1, 1, 0}));
  ASSERT_GE(m.rebalance(3, -1, alive), 0);
  std::int64_t added = 0, drained = 0;
  nnz_t moved = 0;
  for (const ElasticPlan::Step& st : plan.steps()) {
    alive[static_cast<std::size_t>(st.rank)] = st.is_add ? 1 : 0;
    const nnz_t mv = m.rebalance(st.rank, st.is_add ? +1 : -1, alive);
    ASSERT_GE(mv, 0);
    moved += mv;
    ++(st.is_add ? added : drained);
  }
  EXPECT_EQ(added, 2);
  EXPECT_EQ(drained, 1);
  EXPECT_GT(moved, 0);

  for (ScheduleMode mode : {ScheduleMode::kSyncFree, ScheduleMode::kLevelSet}) {
    SCOPED_TRACE(mode == ScheduleMode::kSyncFree ? "sync-free" : "level-set");
    SimOptions opts;
    opts.n_ranks = ranks;
    opts.schedule = mode;
    opts.execute_numerics = false;  // replay only, over the factors
    opts.elastic = plan;
    SimResult res;
    Status s = runtime::simulate_factorization(p.bm, p.tasks, p.mapping, opts,
                                               &res);
    ASSERT_TRUE(s.is_ok()) << s.message();
    EXPECT_EQ(res.ranks_added, added);
    EXPECT_EQ(res.ranks_drained, drained);
    EXPECT_EQ(res.migrated_blocks, moved);
  }

  runtime::TrsvOptions topts;
  topts.n_ranks = ranks;
  topts.elastic = plan;
  topts.mapping = &p.mapping;
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()), 1.0);
  SimResult res;
  Status s = runtime::simulate_trsv(p.bm, p.mapping, /*lower=*/true,
                                    std::span<value_t>(x), topts, &res);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_EQ(res.ranks_added, added);
  EXPECT_EQ(res.ranks_drained, drained);
  EXPECT_EQ(res.migrated_blocks, moved);
}

// ---------------------------------------------------------------------------
// Fault-during-elasticity interleavings.
// ---------------------------------------------------------------------------

TEST(Elasticity, DrainOfACrashedRankIsANoOp) {
  const rank_t ranks = 4;
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared clean = prepare(a, 16, ranks);
  SimResult r0;
  ASSERT_TRUE(run(clean, ranks, SimOptions{}, &r0).is_ok());
  const auto nt = static_cast<index_t>(clean.tasks.size());

  Prepared p = prepare(a, 16, ranks);
  SimOptions opts;
  opts.device.crash_detect_s = 0;  // recovery fires at the crash instant
  opts.faults.crashes.push_back({1, 0.0});
  opts.elastic.drains.push_back({1, nt / 2});
  opts.verify_level = analysis::VerifyLevel::kFull;
  SimResult res;
  Status s = run(p, ranks, opts, &res);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_TRUE(bitwise_equal(clean.bm, p.bm));
  EXPECT_EQ(res.rank_crashes, 1);
  // The planned drain found a corpse: recovery already owns its blocks.
  EXPECT_EQ(res.ranks_drained, 0);
}

TEST(Elasticity, CrashOfADrainedRankIsHarmless) {
  const rank_t ranks = 4;
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared clean = prepare(a, 16, ranks);
  SimResult r0;
  ASSERT_TRUE(run(clean, ranks, SimOptions{}, &r0).is_ok());

  Prepared p = prepare(a, 16, ranks);
  SimOptions opts;
  opts.elastic.drains.push_back({1, 1});  // drained almost immediately
  // The crash lands long after the drain quiesced the rank.
  opts.faults.crashes.push_back({1, r0.makespan * 1e3 + 1.0});
  opts.verify_level = analysis::VerifyLevel::kFull;
  SimResult res;
  Status s = run(p, ranks, opts, &res);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_TRUE(bitwise_equal(clean.bm, p.bm));
  EXPECT_EQ(res.ranks_drained, 1);
  EXPECT_EQ(res.rank_crashes, 0);  // nothing left to crash
}

TEST(Elasticity, CrashPlusDrainBelowMinRanksLoadSheds) {
  const rank_t ranks = 4;
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared p = prepare(a, 16, ranks);
  const auto nt = static_cast<index_t>(p.tasks.size());

  SimOptions opts;
  opts.device.crash_detect_s = 0;
  opts.faults.crashes.push_back({1, 0.0});  // unplanned: 4 -> 3 live
  opts.elastic.min_ranks = 3;
  opts.elastic.drains.push_back({2, nt / 2});  // planned: 3 -> 2 < min_ranks
  // Statically the plan is fine (4 - 1 = 3 >= 3); only the crash makes the
  // drain breach the floor, so this exercises the dynamic check.
  ASSERT_TRUE(opts.elastic.validate(ranks).is_ok());
  SimResult res;
  Status s = run(p, ranks, opts, &res);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.message();
}

// ---------------------------------------------------------------------------
// Solver-level integration.
// ---------------------------------------------------------------------------

TEST(Elasticity, SolverElasticPlanSolvesIdentically) {
  Csc a = matgen::circuit(150, 2.0, 2.2, 7);
  const index_t n = a.n_cols();
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    b[static_cast<std::size_t>(i)] = std::sin(static_cast<double>(i) + 1);

  solver::Options base;
  base.n_ranks = 4;
  solver::Solver statik;
  ASSERT_TRUE(statik.factorize(a, base).is_ok());
  std::vector<value_t> x0(static_cast<std::size_t>(n));
  ASSERT_TRUE(statik.solve(b, x0).is_ok());
  const auto nt = static_cast<index_t>(statik.stats().n_tasks);

  solver::Options eopts = base;
  eopts.elastic_plan.drains.push_back({1, nt / 3});
  eopts.elastic_plan.adds.push_back({1, (2 * nt) / 3});
  solver::Solver elastic;
  Status s = elastic.factorize(a, eopts);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_EQ(elastic.stats().sim.ranks_drained, 1);
  EXPECT_EQ(elastic.stats().sim.ranks_added, 1);
  EXPECT_GT(elastic.stats().sim.migrated_blocks, 0);

  std::vector<value_t> x1(static_cast<std::size_t>(n));
  ASSERT_TRUE(elastic.solve(b, x1).is_ok());
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(x0[static_cast<std::size_t>(i)], x1[static_cast<std::size_t>(i)])
        << "row " << i;
}

TEST(Elasticity, SolverRejectsOverDrainingPlans) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  solver::Options opts;
  opts.n_ranks = 2;
  opts.elastic_plan.min_ranks = 2;
  opts.elastic_plan.drains.push_back({0, 4});
  solver::Solver s;
  EXPECT_EQ(s.factorize(a, opts).code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Incremental snapshots.
// ---------------------------------------------------------------------------

TEST(IncrementalSnapshot, SmallerFileSameBits) {
  Csc a = matgen::circuit(150, 2.0, 2.2, 13);
  const index_t n = a.n_cols();
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    b[static_cast<std::size_t>(i)] = std::cos(static_cast<double>(i) + 1);

  solver::Options base;
  base.n_ranks = 2;
  solver::Solver clean;
  ASSERT_TRUE(clean.factorize(a, base).is_ok());
  std::vector<value_t> x_clean(static_cast<std::size_t>(n));
  ASSERT_TRUE(clean.solve(b, x_clean).is_ok());
  const auto nt = static_cast<index_t>(clean.stats().n_tasks);
  const index_t kill = nt / 4;
  ASSERT_GT(kill, 2);

  const std::string path = temp_path("snap_inc.bin");
  solver::Options kopts = base;
  kopts.checkpoint_path = path;
  kopts.checkpoint_interval_tasks = std::max<index_t>(1, nt / 16);
  kopts.fault_plan.kill_after_task = kill;
  solver::Solver victim;
  ASSERT_EQ(victim.factorize(a, kopts).code(), StatusCode::kUnavailable);

  io::Snapshot snap;
  ASSERT_TRUE(io::read_snapshot_file(path, &snap).is_ok());
  EXPECT_EQ(snap.meta.incremental, 1);
  EXPECT_FALSE(snap.dirty_pos.empty());
  for (std::size_t i = 1; i < snap.dirty_pos.size(); ++i)
    EXPECT_LT(snap.dirty_pos[i - 1], snap.dirty_pos[i]);
  // An early-kill dirty set is a fraction of the blocks, so the snapshot
  // carries strictly fewer values than the factors hold.
  EXPECT_LT(snap.block_values.size(),
            static_cast<std::size_t>(clean.factors().total_nnz()));

  solver::Solver revived;
  Status s = revived.resume_from(path);
  ASSERT_TRUE(s.is_ok()) << s.message();
  std::vector<value_t> x_res(static_cast<std::size_t>(n));
  ASSERT_TRUE(revived.solve(b, x_res).is_ok());
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(x_clean[static_cast<std::size_t>(i)],
              x_res[static_cast<std::size_t>(i)])
        << "row " << i;
  std::remove(path.c_str());
}

TEST(IncrementalSnapshot, TamperedDirtyListFailsThePrecondition) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  const std::string path = temp_path("snap_dirty_tamper.bin");
  solver::Options opts;
  opts.n_ranks = 2;
  opts.checkpoint_path = path;
  opts.checkpoint_interval_tasks = 3;
  opts.fault_plan.kill_after_task = 6;
  solver::Solver victim;
  ASSERT_EQ(victim.factorize(a, opts).code(), StatusCode::kUnavailable);

  io::Snapshot snap;
  ASSERT_TRUE(io::read_snapshot_file(path, &snap).is_ok());
  ASSERT_EQ(snap.meta.incremental, 1);
  ASSERT_FALSE(snap.dirty_pos.empty());
  // Claim a different (still ascending, still nnz-consistent) dirty set by
  // dropping the last entry and its values: the reader's self-consistency
  // passes, but the cross-check against the recomputed task prefix must not.
  const auto last = static_cast<std::size_t>(snap.dirty_pos.back());
  const auto last_nnz = static_cast<std::size_t>(snap.block_nnz[last]);
  snap.dirty_pos.pop_back();
  snap.block_values.resize(snap.block_values.size() - last_nnz);
  ASSERT_TRUE(io::write_snapshot_file(path, snap).is_ok());
  solver::Solver revived;
  EXPECT_EQ(revived.resume_from(path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// StatusCode::to_string coverage.
// ---------------------------------------------------------------------------

TEST(StatusCodes, EveryCodeHasADistinctName) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kNumericalError, StatusCode::kIoError,
      StatusCode::kInternal,     StatusCode::kUnavailable,
      StatusCode::kInvariantViolation, StatusCode::kDataCorruption,
      StatusCode::kResourceExhausted};
  std::vector<std::string> names;
  for (StatusCode c : codes) {
    const std::string name = to_string(c);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    for (const std::string& prev : names) EXPECT_NE(name, prev);
    names.push_back(name);
  }
  EXPECT_EQ(std::string(to_string(StatusCode::kResourceExhausted)),
            "resource_exhausted");
  EXPECT_EQ(std::string(to_string(static_cast<StatusCode>(255))), "unknown");
}

}  // namespace
}  // namespace pangulu
