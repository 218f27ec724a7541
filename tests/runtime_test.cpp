#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "io/snapshot.hpp"
#include "kernels/getrf.hpp"
#include "kernels/selector.hpp"
#include "matgen/generators.hpp"
#include "ordering/reorder.hpp"
#include "runtime/device_model.hpp"
#include "runtime/sim.hpp"
#include "symbolic/fill.hpp"
#include "test_util.hpp"
#include "util/cancel.hpp"

namespace pangulu::runtime {
namespace {

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

/// Serial single-block reference factorisation of the same filled pattern.
Csc reference_factor(const Csc& a) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Csc f = sym.filled;
  kernels::Workspace ws;
  kernels::getrf(kernels::GetrfVariant::kCV1, f, ws, nullptr).check();
  return f;
}

/// Raw bytes of every stored factor value, block by block: the bitwise
/// witness of the determinism contract.
template <class V>
std::vector<unsigned char> factor_bytes(const block::BlockMatrixT<V>& bm) {
  std::vector<unsigned char> out;
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(bm.n_blocks()); ++pos) {
    const auto vals = bm.block(pos).values();
    const auto* b = reinterpret_cast<const unsigned char*>(vals.data());
    out.insert(out.end(), b, b + vals.size() * sizeof(V));
  }
  return out;
}

TEST(DeviceModel, CostOrderingMatchesDecisionTreeRegimes) {
  DeviceModel d = DeviceModel::a100_like();
  // Tiny kernels: CPU beats GPU (launch overhead dominates).
  EXPECT_LT(d.sparse_kernel_time(false, false, 1e3, 100, 32),
            d.sparse_kernel_time(true, false, 1e3, 100, 32));
  // Huge kernels: GPU wins on throughput.
  EXPECT_GT(d.sparse_kernel_time(false, false, 1e9, 1e6, 256),
            d.sparse_kernel_time(true, false, 1e9, 1e6, 256));
  // Very large work: dense-mapping GPU beats bin-search GPU.
  EXPECT_GT(d.sparse_kernel_time(true, false, 1e10, 3e7, 256),
            d.sparse_kernel_time(true, true, 1e10, 3e7, 256));
}

TEST(DeviceModel, Mi50SlowerThanA100) {
  DeviceModel a = DeviceModel::a100_like();
  DeviceModel m = DeviceModel::mi50_like();
  EXPECT_GT(m.sparse_kernel_time(true, true, 1e9, 1e6, 256),
            a.sparse_kernel_time(true, true, 1e9, 1e6, 256));
  EXPECT_GT(m.dense_update_time(1e9, 1e8), a.dense_update_time(1e9, 1e8));
}

TEST(DeviceModel, MessageTimeGrowsWithBytes) {
  DeviceModel d = DeviceModel::a100_like();
  EXPECT_LT(d.message_time(1024), d.message_time(1 << 24));
  EXPECT_GT(d.message_time(0), 0.0);  // latency floor
  EXPECT_GT(block_message_bytes(100, 32), 100 * sizeof(value_t));
}

class SimCorrectnessP
    : public ::testing::TestWithParam<std::tuple<rank_t, ScheduleMode>> {};

TEST_P(SimCorrectnessP, FactorsMatchSingleBlockReference) {
  auto [ranks, mode] = GetParam();
  Csc a = matgen::grid2d_laplacian(9, 9);
  Csc ref = reference_factor(a);

  Prepared p = prepare(a, 16, ranks);
  SimOptions opts;
  opts.n_ranks = ranks;
  opts.schedule = mode;
  SimResult res;
  ASSERT_TRUE(simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
  Csc assembled = p.bm.to_csc();
  EXPECT_TRUE(assembled.approx_equal(ref, 1e-9))
      << "distributed factors differ from the serial reference";
  EXPECT_GT(res.makespan, 0);
  EXPECT_GT(res.total_flops, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, SimCorrectnessP,
    ::testing::Combine(::testing::Values<rank_t>(1, 2, 4, 8),
                       ::testing::Values(ScheduleMode::kSyncFree,
                                         ScheduleMode::kLevelSet)));

TEST(Sim, PoliciesProduceSameNumbers) {
  Csc a = matgen::circuit(250, 2.0, 2.2, 5);
  std::vector<unsigned char> first;
  for (auto policy : {KernelPolicy::kFixedCpu, KernelPolicy::kFixedGpu,
                      KernelPolicy::kAdaptive}) {
    Prepared p = prepare(a, 32, 4);
    SimOptions opts;
    opts.n_ranks = 4;
    opts.policy = policy;
    SimResult res;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
    if (first.empty())
      first = factor_bytes(p.bm);
    else
      EXPECT_EQ(factor_bytes(p.bm), first) << static_cast<int>(policy);
  }
}

TEST(Sim, DeterministicAcrossRuns) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  SimResult r1, r2;
  for (auto* res : {&r1, &r2}) {
    Prepared p = prepare(a, 16, 4);
    SimOptions opts;
    opts.n_ranks = 4;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, res).is_ok());
  }
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.bytes, r2.bytes);
}

TEST(Sim, MoreRanksSpeedUpAComputeHeavyMatrix) {
  // Needs enough work per task that communication does not dominate at 8
  // ranks: a dense-band matrix gives compute-heavy blocks.
  Csc a = matgen::banded_random(900, 70, 0.5, 4, 5);
  double t1 = 0, t8 = 0;
  {
    Prepared p = prepare(a, 128, 1);
    SimOptions opts;
    opts.n_ranks = 1;
    opts.execute_numerics = false;  // timing-only run
    SimResult res;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
    t1 = res.makespan;
  }
  {
    Prepared p = prepare(a, 128, 8);
    SimOptions opts;
    opts.n_ranks = 8;
    opts.execute_numerics = false;
    SimResult res;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
    t8 = res.makespan;
  }
  EXPECT_LT(t8, t1) << "8 simulated ranks should beat 1";
}

TEST(Sim, SyncFreeBeatsLevelSetOnSyncTime) {
  Csc a = matgen::grid3d_laplacian(6, 6, 6);
  SimResult sync_free, level_set;
  {
    Prepared p = prepare(a, 24, 8);
    SimOptions opts;
    opts.n_ranks = 8;
    opts.execute_numerics = false;
    opts.schedule = ScheduleMode::kSyncFree;
    ASSERT_TRUE(simulate_factorization(p.bm, p.tasks, p.mapping, opts,
                                       &sync_free).is_ok());
  }
  {
    Prepared p = prepare(a, 24, 8);
    SimOptions opts;
    opts.n_ranks = 8;
    opts.execute_numerics = false;
    opts.schedule = ScheduleMode::kLevelSet;
    ASSERT_TRUE(simulate_factorization(p.bm, p.tasks, p.mapping, opts,
                                       &level_set).is_ok());
  }
  EXPECT_LT(sync_free.makespan, level_set.makespan);
}

TEST(Sim, KindBreakdownSumsToBusyTotals) {
  Csc a = matgen::circuit(200, 2.0, 2.2, 9);
  Prepared p = prepare(a, 32, 2);
  SimOptions opts;
  opts.n_ranks = 2;
  opts.execute_numerics = false;
  SimResult res;
  ASSERT_TRUE(
      simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
  using block::TaskKind;
  const double panel = res.kind_busy[static_cast<int>(TaskKind::kGetrf)] +
                       res.kind_busy[static_cast<int>(TaskKind::kGessm)] +
                       res.kind_busy[static_cast<int>(TaskKind::kTstrf)];
  EXPECT_NEAR(panel, res.panel_busy, 1e-12);
  EXPECT_NEAR(res.kind_busy[static_cast<int>(TaskKind::kSsssm)],
              res.schur_busy, 1e-12);
  std::int64_t total_tasks = 0;
  for (int k = 0; k < 4; ++k) total_tasks += res.kind_count[k];
  EXPECT_EQ(total_tasks, static_cast<std::int64_t>(p.tasks.size()));
  EXPECT_EQ(res.kind_count[static_cast<int>(TaskKind::kGetrf)],
            static_cast<std::int64_t>(p.bm.nb()));
}

TEST(Sim, RejectsBadRankCounts) {
  Csc a = matgen::grid2d_laplacian(4, 4);
  Prepared p = prepare(a, 8, 2);
  SimOptions opts;
  opts.n_ranks = 0;
  SimResult res;
  EXPECT_FALSE(
      simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
  opts.n_ranks = 3;  // mapping was built for 2
  EXPECT_FALSE(
      simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
}

/// Factorise a fresh copy of `p.bm` (or its FP32 twin) on the engine.
template <class V>
block::BlockMatrixT<V> engine_factor(const Prepared& p, int threads,
                                     SimOptions opts = {},
                                     SimResult* res_out = nullptr) {
  auto bm = block::BlockMatrixT<V>::converted_from(p.bm);
  opts.n_ranks = p.mapping.n_ranks;
  opts.numeric_threads = threads;
  SimResult res;
  const Status s =
      simulate_factorization(bm, p.tasks, p.mapping, opts, &res);
  EXPECT_TRUE(s.is_ok()) << s.message();
  if (res_out) *res_out = res;
  return bm;
}

class EngineThreadsP : public ::testing::TestWithParam<int> {};

TEST_P(EngineThreadsP, ConcurrentWorkersMatchReference) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  Csc ref = reference_factor(a);
  Prepared p = prepare(a, 12, 4);
  const auto one = engine_factor<value_t>(p, 1);
  const auto bm = engine_factor<value_t>(p, GetParam());
  EXPECT_TRUE(bm.to_csc().approx_equal(ref, 1e-9));
  EXPECT_EQ(factor_bytes(bm), factor_bytes(one));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EngineThreadsP,
                         ::testing::Values(1, 2, 4, 7));

TEST(Engine, RepeatedRunsAreBitwiseIdentical) {
  // Stress interleavings: every concurrent run commits each block's
  // canonical kernel sequence, so all agree with one worker bit for bit.
  Csc a = matgen::circuit(150, 2.0, 2.2, 21);
  Prepared p = prepare(a, 24, 4);
  const auto want = factor_bytes(engine_factor<value_t>(p, 1));
  for (int trial = 0; trial < 3; ++trial)
    EXPECT_EQ(factor_bytes(engine_factor<value_t>(p, 4)), want)
        << "trial " << trial;
}

TEST(Engine, ThreadCountSweepMatchesReference) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  Csc ref = reference_factor(a);
  Prepared p = prepare(a, 12, 4);
  const auto want = factor_bytes(engine_factor<value_t>(p, 1));
  for (int threads : {1, 2, 3, 4, 8}) {
    const auto bm = engine_factor<value_t>(p, threads);
    EXPECT_TRUE(bm.to_csc().approx_equal(ref, 1e-9)) << threads << " threads";
    EXPECT_EQ(factor_bytes(bm), want) << threads << " threads";
  }
}

// Regression: the removed rank-thread executor let SSSSM updates into one
// block land in any order, so on these two matrices (after the default
// MC64 + nested-dissection reordering) its factors differed from the
// canonical ones in every run. The engine's per-target chain keeps them
// bitwise.
TEST(Engine, SsssmChainKeepsUpdateOrderBitwise) {
  struct Case {
    Csc a;
    index_t block_size;
  };
  auto reordered = [](const Csc& a) {
    ordering::ReorderResult r;
    ordering::reorder(a, {}, &r).check();
    return r.permuted;
  };
  const Case cases[] = {{reordered(matgen::grid2d_laplacian(30, 30)), 32},
                        {reordered(matgen::circuit(150, 2.0, 2.2, 21)), 24}};
  for (const Case& c : cases) {
    for (rank_t ranks : {2, 4}) {
      Prepared p = prepare(c.a, c.block_size, ranks);
      const auto want = factor_bytes(engine_factor<value_t>(p, 1));
      for (int threads : {2, 4})
        EXPECT_EQ(factor_bytes(engine_factor<value_t>(p, threads)), want)
            << "n=" << c.a.n_cols() << " ranks=" << ranks
            << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine determinism gate: bitwise factors and identical virtual statistics
// at every worker count, on every matgen family, at both precisions, and
// across every dispatch-fence hook.
// ---------------------------------------------------------------------------

struct Family {
  const char* name;
  Csc a;
  index_t block_size;
};

std::vector<Family> gate_families() {
  return {{"grid2d", matgen::grid2d_laplacian(16, 16), 16},
          {"grid3d", matgen::grid3d_laplacian(6, 6, 6), 16},
          {"fem3d", matgen::fem3d(3, 3, 3, 3, 7), 16},
          {"circuit", matgen::circuit(300, 2.0, 2.2, 7), 24},
          {"kkt", matgen::kkt(3, 3, 3, 5), 16},
          {"banded", matgen::banded_random(200, 12, 0.5, 2, 3), 24},
          {"cage", matgen::cage_style(200, 3, 5), 24},
          {"illcond", matgen::shifted_illcond(14, 14, 1e5), 16},
          {"random", matgen::random_sparse(200, 4, 11), 24}};
}

template <class V>
void expect_bitwise_across_thread_counts(const Family& f) {
  Prepared p = prepare(f.a, f.block_size, 4);
  SimResult want_res;
  const auto want = factor_bytes(engine_factor<V>(p, 1, {}, &want_res));
  for (int threads : {1, 2, 3, 4, 8}) {
    for (int rep = 0; rep < 3; ++rep) {
      SimResult res;
      const auto got = factor_bytes(engine_factor<V>(p, threads, {}, &res));
      SCOPED_TRACE(std::string(f.name) + " fp" +
                   std::to_string(8 * sizeof(V)) + " threads=" +
                   std::to_string(threads) + " rep=" + std::to_string(rep));
      EXPECT_EQ(got, want);
      EXPECT_EQ(res.perturbed_pivots, want_res.perturbed_pivots);
    }
  }
}

TEST(NumericEngine, FactorsBitwiseAcrossThreadCountsFp64) {
  for (const Family& f : gate_families())
    expect_bitwise_across_thread_counts<double>(f);
}

TEST(NumericEngine, FactorsBitwiseAcrossThreadCountsFp32) {
  for (const Family& f : gate_families())
    expect_bitwise_across_thread_counts<float>(f);
}

// Executed vs modelled kernel: the tree (thresholds, policy) picks the
// variant the DES charges; one worker runs that variant and several workers
// run C_V1. The factors are the same bytes under every tree and policy at
// 1 and 4 workers, while the modelled clock differs between trees. The
// fault-free message count depends only on the mapping, so the runs drop
// messages in a virtual-time window: which transfers fall inside it, and so
// how many are resent, follows the modelled clock.
template <class V>
void expect_trees_change_model_not_factors() {
  const Csc a = matgen::fem3d(6, 6, 6, 3, 7);
  struct Tree {
    const char* name;
    KernelPolicy policy;
    kernels::SelectorThresholds thresholds;
  };
  const Tree trees[] = {{"paper", KernelPolicy::kAdaptive, {}},
                        {"all_g", KernelPolicy::kAdaptive,
                         test::every_cut_at_one()},
                        {"fixed_cpu", KernelPolicy::kFixedCpu, {}},
                        {"fixed_gpu", KernelPolicy::kFixedGpu, {}}};
  Prepared p = prepare(a, 32, 4);
  SimResult fault_free;
  engine_factor<V>(p, 1, {}, &fault_free);
  std::vector<unsigned char> want;
  std::vector<SimResult> model;
  for (const Tree& tree : trees) {
    SimOptions opts;
    opts.policy = tree.policy;
    opts.thresholds = tree.thresholds;
    opts.faults.seed = 5;
    opts.faults.drop_prob = 0.3;
    opts.faults.window_end_s = fault_free.makespan / 2;
    SimResult one;
    for (int threads : {1, 4}) {
      SimResult res;
      const auto got = factor_bytes(engine_factor<V>(p, threads, opts, &res));
      SCOPED_TRACE(std::string(tree.name) + " fp" +
                   std::to_string(8 * sizeof(V)) +
                   " threads=" + std::to_string(threads));
      if (want.empty()) want = got;
      EXPECT_EQ(got, want);
      if (threads == 1) {
        one = res;
      } else {
        EXPECT_EQ(res.makespan, one.makespan);
        EXPECT_EQ(res.messages, one.messages);
      }
    }
    model.push_back(one);
  }
  for (std::size_t i = 1; i < model.size(); ++i) {
    SCOPED_TRACE(trees[i].name);
    EXPECT_NE(model[i].makespan, model[0].makespan);
    EXPECT_NE(model[i].messages, model[0].messages);
  }
}

TEST(NumericEngine, TreesChangeTheModelNotTheFactorsFp64) {
  expect_trees_change_model_not_factors<double>();
}

TEST(NumericEngine, TreesChangeTheModelNotTheFactorsFp32) {
  expect_trees_change_model_not_factors<float>();
}

TEST(NumericEngine, VirtualStatisticsIdenticalAcrossThreadCounts) {
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);
  for (ScheduleMode mode : {ScheduleMode::kSyncFree, ScheduleMode::kLevelSet}) {
    Prepared p = prepare(a, 24, 4);
    SimOptions opts;
    opts.schedule = mode;
    SimResult want;
    engine_factor<value_t>(p, 1, opts, &want);
    for (int threads : {2, 3, 4, 8}) {
      SimResult res;
      engine_factor<value_t>(p, threads, opts, &res);
      EXPECT_EQ(res.makespan, want.makespan) << threads << " threads";
      EXPECT_EQ(res.messages, want.messages);
      EXPECT_EQ(res.bytes, want.bytes);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(res.kind_count[k], want.kind_count[k]);
        EXPECT_EQ(res.kind_busy[k], want.kind_busy[k]);
      }
    }
  }
}

TEST(NumericEngine, CheckpointFilesByteIdenticalAcrossThreadCounts) {
  // The sink writes the live blocks as a snapshot file at every safe point;
  // at 4 workers each file must be byte-identical to the one-worker run's.
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);
  Prepared p = prepare(a, 24, 4);
  auto checkpoint_files = [&](int threads) {
    block::BlockMatrix bm = p.bm;
    std::vector<std::string> files;
    SimOptions opts;
    opts.n_ranks = 4;
    opts.numeric_threads = threads;
    opts.checkpoint_interval_tasks = static_cast<index_t>(p.tasks.size() / 5);
    opts.checkpoint_sink = [&](index_t done) {
      io::Snapshot snap;
      snap.meta.n_tasks = static_cast<std::int64_t>(p.tasks.size());
      snap.meta.tasks_done = done;
      for (nnz_t pos = 0; pos < static_cast<nnz_t>(bm.n_blocks()); ++pos) {
        const auto vals = bm.block(pos).values();
        snap.block_nnz.push_back(bm.block(pos).nnz());
        snap.block_values.insert(snap.block_values.end(), vals.begin(),
                                 vals.end());
      }
      const std::string path = ::testing::TempDir() + "engine_ckpt_" +
                               std::to_string(threads) + "_" +
                               std::to_string(done) + ".pglu";
      Status ws = io::write_snapshot_file(path, snap);
      if (!ws.is_ok()) return ws;
      std::ifstream in(path, std::ios::binary);
      files.emplace_back(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
      std::remove(path.c_str());
      return Status::ok();
    };
    SimResult res;
    EXPECT_TRUE(
        simulate_factorization(bm, p.tasks, p.mapping, opts, &res).is_ok());
    EXPECT_EQ(res.checkpoints_written, static_cast<std::int64_t>(files.size()));
    return files;
  };
  const auto want = checkpoint_files(1);
  ASSERT_GE(want.size(), 4u);
  EXPECT_TRUE(checkpoint_files(4) == want);
}

TEST(NumericEngine, KillAndResumeMatchUndisturbedRun) {
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);
  Prepared p = prepare(a, 24, 4);
  const auto want = factor_bytes(engine_factor<value_t>(p, 1));
  const auto kill = static_cast<index_t>(p.tasks.size() * 2 / 5);

  // The killed one-worker run leaves exactly the canonical prefix state.
  auto killed_state = [&](int threads) {
    block::BlockMatrix bm = p.bm;
    SimOptions opts;
    opts.n_ranks = 4;
    opts.numeric_threads = threads;
    opts.faults.kill_after_task = kill;
    SimResult res;
    EXPECT_EQ(simulate_factorization(bm, p.tasks, p.mapping, opts, &res)
                  .code(),
              StatusCode::kUnavailable);
    return bm;
  };
  const auto prefix1 = killed_state(1);
  block::BlockMatrix bm = killed_state(4);
  EXPECT_EQ(factor_bytes(bm), factor_bytes(prefix1));

  SimOptions resume;
  resume.n_ranks = 4;
  resume.numeric_threads = 4;
  resume.resume_from_task = kill;
  SimResult res;
  ASSERT_TRUE(
      simulate_factorization(bm, p.tasks, p.mapping, resume, &res).is_ok());
  EXPECT_EQ(factor_bytes(bm), want);
}

TEST(NumericEngine, BitFlipRepairedByAbftAtFourThreads) {
  Csc a = matgen::grid2d_laplacian(9, 9);
  Prepared p = prepare(a, 16, 2);
  const auto want = factor_bytes(engine_factor<value_t>(p, 1));
  // Flip a finalised diagonal block that a later task still reads.
  index_t t0 = -1;
  for (std::size_t t = 0; t < p.tasks.size() && t0 < 0; ++t) {
    if (p.tasks[t].kind != block::TaskKind::kGetrf) continue;
    for (std::size_t u = t + 1; u < p.tasks.size(); ++u)
      if (p.tasks[u].src_a == p.tasks[t].target) {
        t0 = static_cast<index_t>(t);
        break;
      }
  }
  ASSERT_GE(t0, 0);
  FaultPlan::BitFlip flip;
  flip.after_task = t0;
  flip.block_pos = p.tasks[static_cast<std::size_t>(t0)].target;
  flip.bit = 52;
  for (AbftLevel lvl : {AbftLevel::kCheap, AbftLevel::kFull}) {
    SimOptions opts;
    opts.abft = lvl;
    opts.faults.bitflips.push_back(flip);
    SimResult res;
    const auto got = factor_bytes(engine_factor<value_t>(p, 4, opts, &res));
    EXPECT_GE(res.abft_detected, 1);
    EXPECT_GE(res.abft_recomputed, 1);
    EXPECT_EQ(got, want) << "abft level " << static_cast<int>(lvl);
  }
}

TEST(NumericEngine, CancelAtEverySafePointIsTypedAndCountsMatch) {
  // Sweep the token's check-countdown over every poll (one per engine
  // dispatch, plus the DES event pops). Each cancelled run fails typed;
  // the first un-cancelled run is bitwise the canonical one, and the
  // number of polls it took is the same at one and four workers.
  Csc a = matgen::grid2d_laplacian(8, 8);
  Prepared p = prepare(a, 8, 4);
  const auto want = factor_bytes(engine_factor<value_t>(p, 1));
  auto sweep = [&](int threads) -> long long {
    for (long long n = 0; n <= 100000; ++n) {
      CancelToken tok;
      tok.cancel_after_checks(n);
      block::BlockMatrix bm = p.bm;
      SimOptions opts;
      opts.n_ranks = 4;
      opts.numeric_threads = threads;
      opts.cancel = &tok;
      SimResult res;
      const Status s =
          simulate_factorization(bm, p.tasks, p.mapping, opts, &res);
      if (s.is_ok()) {
        EXPECT_EQ(factor_bytes(bm), want);
        return n;
      }
      EXPECT_EQ(s.code(), StatusCode::kCancelled) << "n=" << n;
    }
    ADD_FAILURE() << "the sweep never completed";
    return -1;
  };
  const long long polls = sweep(1);
  EXPECT_GT(polls, static_cast<long long>(p.tasks.size()));
  EXPECT_EQ(sweep(4), polls);
}

TEST(NumericEngine, KernelErrorReportsLowestCanonicalTask) {
  // Point one GESSM and a later TSTRF of the same elimination step at a
  // non-square "diagonal" (an already-finalised edge block), so both fail
  // with their own message. A huge weight puts the TSTRF's path first in
  // the bottom-level order, so the TSTRF fails first; the engine then
  // drains the tasks below it, and the GESSM's error — the one a canonical
  // run hits first — is the one reported.
  Csc a = matgen::circuit(300, 2.0, 2.2, 7);  // n = 300: edge blocks of 12
  Prepared p = prepare(a, 24, 4);
  nnz_t edge = -1;
  for (const block::Task& task : p.tasks)
    if (task.k == 0 && task.kind != block::TaskKind::kSsssm &&
        p.bm.block(task.target).n_rows() != p.bm.block(task.target).n_cols())
      edge = task.target;
  ASSERT_GE(edge, 0);
  index_t gessm = -1, tstrf = -1;
  for (std::size_t t = 0; t < p.tasks.size(); ++t) {
    const block::Task& task = p.tasks[t];
    if (task.k != 1) continue;
    if (task.kind == block::TaskKind::kGessm && gessm < 0)
      gessm = static_cast<index_t>(t);
    if (task.kind == block::TaskKind::kTstrf)
      tstrf = static_cast<index_t>(t);  // the last one of the step
  }
  ASSERT_GE(gessm, 0);
  ASSERT_GT(tstrf, gessm);
  p.tasks[static_cast<std::size_t>(gessm)].src_a = edge;
  p.tasks[static_cast<std::size_t>(tstrf)].src_a = edge;
  p.tasks[static_cast<std::size_t>(tstrf)].weight = 1e30;
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 3; ++rep) {
      block::BlockMatrix bm = p.bm;
      SimOptions opts;
      opts.n_ranks = 4;
      opts.numeric_threads = threads;
      SimResult res;
      const Status s =
          simulate_factorization(bm, p.tasks, p.mapping, opts, &res);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << threads;
      EXPECT_NE(s.message().find("gessm"), std::string::npos)
          << threads << " threads: " << s.message();
    }
  }
}

TEST(NumericEngine, RejectsNegativeThreadCount) {
  Csc a = matgen::grid2d_laplacian(4, 4);
  Prepared p = prepare(a, 8, 2);
  SimOptions opts;
  opts.n_ranks = 2;
  opts.numeric_threads = -1;
  SimResult res;
  EXPECT_EQ(simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res)
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pangulu::runtime
