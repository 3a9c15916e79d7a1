// Execution-mode equivalence (DESIGN.md S11): each matcher phase has one
// body, written over a [b, e) block, and the primitives decide per phase
// whether it runs as one inline block with plain memory or as forked
// blocks with atomics on shared counters. That choice is an execution
// strategy, NOT an algorithm: for a fixed seed the structure's entire
// trajectory -- the matching after every batch, the cumulative counters,
// the per-batch depth counters -- must be bit-identical under
// PARMATCH_EXEC_MODE=sequential (every phase inline), =parallel (every
// phase forked), and =adaptive, at every batch size. This suite drives
// small-batch churn (k = 1..64, mixed and delete-heavy) through all three
// modes via the programmatic override (parallel::set_exec_mode) and
// compares everything except CumulativeStats::fused_batches, the one
// counter that intentionally records which strategy ran.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "parallel/cost_model.h"

using namespace parmatch;
using graph::EdgeId;
using graph::kInvalidEdge;

namespace {

// Everything trajectory-visible about one batch.
struct BatchRecord {
  std::vector<EdgeId> matching;
  std::size_t work_units, samples_created, settle_rounds_cum, steal_rounds_cum,
      spec_retries_cum, stolen, bloated;
  std::size_t batch_settle_rounds, batch_steal_rounds, batch_spec_retries,
      max_greedy_rounds, parallel_phases, measured_depth;

  bool operator==(const BatchRecord&) const = default;
};

// Runs w under `mode`; with `fingerprints`, also records the state
// fingerprint after every batch.
std::vector<BatchRecord> run_workload(
    const gen::Workload& w, parallel::ExecMode mode, bool light_only = false,
    std::vector<std::uint64_t>* fingerprints = nullptr) {
  parallel::ExecMode saved = parallel::exec_mode();
  parallel::set_exec_mode(mode);
  dyn::Config cfg;
  cfg.seed = 17;
  cfg.light_only = light_only;
  dyn::DynamicMatcher dm(cfg);
  std::vector<EdgeId> live(w.master.size(), kInvalidEdge);
  std::vector<BatchRecord> out;
  for (const auto& step : w.steps) {
    if (step.is_insert) {
      graph::EdgeBatch chunk;
      for (std::size_t i : step.edges) chunk.add(w.master.edge(i));
      auto ids = dm.insert_edges(chunk);
      for (std::size_t j = 0; j < ids.size(); ++j) live[step.edges[j]] = ids[j];
    } else {
      std::vector<EdgeId> ids;
      for (std::size_t i : step.edges) ids.push_back(live[i]);
      dm.delete_edges(ids);
    }
    const auto& cs = dm.cumulative_stats();
    const auto& bs = dm.last_batch_stats();
    out.push_back(BatchRecord{
        dm.matching(), cs.work_units, cs.samples_created, cs.settle_rounds,
        cs.steal_rounds, cs.spec_retries, cs.stolen, cs.bloated,
        bs.settle_rounds, bs.steal_rounds, bs.spec_retries,
        bs.max_greedy_rounds, bs.parallel_phases, bs.measured_depth});
    if (fingerprints) fingerprints->push_back(dm.state_fingerprint());
  }
  parallel::set_exec_mode(saved);
  return out;
}

void expect_identical(const std::vector<BatchRecord>& a,
                      const std::vector<BatchRecord>& b, const char* what,
                      std::size_t k) {
  ASSERT_EQ(a.size(), b.size()) << what << " k=" << k;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(a[i] == b[i]) << what << " diverges at batch " << i
                              << " for k=" << k;
}

struct Scenario {
  const char* name;
  double p_insert;
};

const Scenario kScenarios[] = {{"mixed", 0.5}, {"delete_heavy", 0.35}};

TEST(ExecModes, SmallBatchChurnBitIdenticalAcrossModes) {
  for (const Scenario& s : kScenarios) {
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{8}, std::size_t{16},
                          std::size_t{33}, std::size_t{64}}) {
      auto w = gen::churn(gen::erdos_renyi(400, 1'600, 23), k, s.p_insert,
                          101 + k);
      auto seq = run_workload(w, parallel::ExecMode::kSequential);
      auto par = run_workload(w, parallel::ExecMode::kParallel);
      auto ad = run_workload(w, parallel::ExecMode::kAdaptive);
      expect_identical(seq, par, s.name, k);
      expect_identical(seq, ad, s.name, k);
    }
  }
}

// The light_only ablation exercises different P2/P5 branches (no growth
// tracking, deterministic settle picks); the equivalence must hold there
// too.
TEST(ExecModes, LightOnlyAblationBitIdenticalAcrossModes) {
  auto w = gen::churn(gen::erdos_renyi(300, 1'200, 29), 7, 0.5, 131);
  auto seq = run_workload(w, parallel::ExecMode::kSequential, true);
  auto par = run_workload(w, parallel::ExecMode::kParallel, true);
  auto ad = run_workload(w, parallel::ExecMode::kAdaptive, true);
  expect_identical(seq, par, "light_only", 7);
  expect_identical(seq, ad, "light_only", 7);
}

// A sliding window over a hub-heavy graph empties vertices every slide,
// so the delete pass releases whole chains (forked: onto the pending list)
// and later appends pop the recycled chunks (forked: by CAS). Chunk
// indices then depend on the schedule; the trajectory and the exported
// state must not.
TEST(ExecModes, ChainReleasingWindowBitIdenticalAcrossModes) {
  auto w = gen::sliding_window(gen::rmat(11, 12'000, 37), 500, 3);
  std::vector<std::uint64_t> fp[2];
  std::vector<BatchRecord> rec[2];
  const parallel::ExecMode modes[2] = {parallel::ExecMode::kSequential,
                                       parallel::ExecMode::kParallel};
  for (int m = 0; m < 2; ++m) {
    rec[m] = run_workload(w, modes[m], false, &fp[m]);
    EXPECT_EQ(fp[m].size(), w.steps.size());
  }
  expect_identical(rec[0], rec[1], "chain_release", 500);
  EXPECT_EQ(fp[0], fp[1]);
}

// The fused_batches diagnostic must actually engage: forced-sequential
// counts every non-empty batch, forced-parallel none (on a multi-worker
// pool) -- on a 1-worker pool every phase is inline regardless, so only
// the sequential-mode lower bound is meaningful there.
TEST(ExecModes, FusedDiagnosticReflectsMode) {
  auto w = gen::churn(gen::erdos_renyi(200, 800, 31), 4, 0.5, 7);
  parallel::ExecMode saved = parallel::exec_mode();
  parallel::set_exec_mode(parallel::ExecMode::kSequential);
  dyn::DynamicMatcher dm;
  std::vector<EdgeId> live(w.master.size(), kInvalidEdge);
  std::size_t batches = 0;
  for (const auto& step : w.steps) {
    if (step.is_insert) {
      graph::EdgeBatch chunk;
      for (std::size_t i : step.edges) chunk.add(w.master.edge(i));
      auto ids = dm.insert_edges(chunk);
      for (std::size_t j = 0; j < ids.size(); ++j) live[step.edges[j]] = ids[j];
    } else {
      std::vector<EdgeId> ids;
      for (std::size_t i : step.edges) ids.push_back(live[i]);
      dm.delete_edges(ids);
    }
    ++batches;
  }
  parallel::set_exec_mode(saved);
  EXPECT_EQ(dm.cumulative_stats().fused_batches, batches);
}

// PARMATCH_EXEC_MODE parsing (the env override the serving deployment
// uses; the cross-process path is exercised by test_thread_determinism).
TEST(ExecModes, EnvParsing) {
  using parallel::ExecMode;
  using parallel::detail::parse_exec_mode;
  EXPECT_EQ(parse_exec_mode(nullptr), ExecMode::kAdaptive);
  EXPECT_EQ(parse_exec_mode("adaptive"), ExecMode::kAdaptive);
  EXPECT_EQ(parse_exec_mode("seq"), ExecMode::kSequential);
  EXPECT_EQ(parse_exec_mode("sequential"), ExecMode::kSequential);
  EXPECT_EQ(parse_exec_mode("par"), ExecMode::kParallel);
  EXPECT_EQ(parse_exec_mode("parallel"), ExecMode::kParallel);
  EXPECT_EQ(parse_exec_mode("garbage"), ExecMode::kAdaptive);
}

}  // namespace
