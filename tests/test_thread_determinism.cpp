// Thread-count AND execution-mode determinism (DESIGN.md S7/S11): the
// batch pipeline keys every random draw by data (batch epoch, vertex,
// settle round), never by worker, and the adaptive engine's per-phase
// strategy choice (one inline block vs forked blocks) never changes
// results -- so for a fixed seed the dynamic matching after EVERY batch,
// plus the work/sample/depth counters, must be bit-identical for
// PARMATCH_NUM_THREADS=1, 2, and hardware concurrency, crossed with
// PARMATCH_EXEC_MODE=adaptive/sequential/parallel and a mid-range pinned
// PARMATCH_CUTOVER (which makes adaptive mode mix both strategies inside
// single batches).
//
// The worker count is frozen at first scheduler use, so one process cannot
// observe two counts: the parent test re-executes this binary (filtered to
// the Child test below) once per (threads, mode) combination and compares
// the per-batch fingerprint lines the children print.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <thread>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "serve/service.h"
#include "util/rng.h"

using namespace parmatch;
using graph::EdgeId;
using graph::kInvalidEdge;

namespace {

struct Scenario {
  const char* name;
  double p_insert;
};

// The ISSUE-mandated coverage: mixed and delete-heavy churn.
const Scenario kScenarios[] = {{"mixed", 0.5}, {"delete_heavy", 0.35}};

gen::Workload scenario_workload(const Scenario& s) {
  return gen::churn(gen::erdos_renyi(700, 2'800, 13), 128, s.p_insert, 31);
}

// Replays a workload, folding the sorted matching after every batch (plus
// the cumulative counters) into one hash line per batch.
void print_fingerprints(const Scenario& s) {
  auto w = scenario_workload(s);
  dyn::Config cfg;
  cfg.seed = 5;
  dyn::DynamicMatcher dm(cfg);
  std::vector<EdgeId> live(w.master.size(), kInvalidEdge);
  std::size_t step_no = 0;
  for (const auto& step : w.steps) {
    if (step.is_insert) {
      graph::EdgeBatch chunk;
      for (std::size_t i : step.edges) chunk.add(w.master.edge(i));
      auto ids = dm.insert_edges(chunk);
      for (std::size_t j = 0; j < ids.size(); ++j)
        live[step.edges[j]] = ids[j];
    } else {
      std::vector<EdgeId> ids;
      for (std::size_t i : step.edges) ids.push_back(live[i]);
      dm.delete_edges(ids);
    }
    std::uint64_t h = 0;
    for (EdgeId e : dm.matching()) h = hash64(h, e);
    h = hash64(h, dm.cumulative_stats().work_units);
    h = hash64(h, dm.cumulative_stats().samples_created);
    h = hash64(h, dm.last_batch_stats().measured_depth);
    std::printf("FP %s %zu %llu\n", s.name, step_no,
                static_cast<unsigned long long>(h));
    ++step_no;
  }
}

// Serving-layer fingerprint: the same stream through MatchService with the
// window partition PINNED (flushes on max_batch only, tail on stop()), so
// the served trajectory must be bit-identical too -- across thread counts,
// exec modes and the grain knob, like the matcher lines.
void print_serve_fingerprint(const Scenario& s) {
  auto w = scenario_workload(s);
  auto stream = gen::flatten(w);
  serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  cfg.matcher.seed = 5;
  cfg.max_vertices = 700;
  cfg.record_latencies = false;
  cfg.former.max_batch = 64;
  cfg.former.cost_flush = 1u << 20;    // unreachable: partition is exact
  cfg.former.max_delay_us = 1u << 30;  // consecutive groups of max_batch
  serve::MatchService svc(cfg);
  svc.start();
  constexpr std::uint64_t kNoTicket = ~0ull;
  std::vector<std::uint64_t> ticket(w.master.size(), kNoTicket);
  for (const gen::Update& u : stream) {
    if (u.is_insert)
      ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge));
    else
      svc.submit_delete(ticket[u.edge]);
  }
  svc.stop();
  std::uint64_t h = 0;
  for (EdgeId e : svc.matcher().matching()) h = hash64(h, e);
  for (graph::VertexId v = 0; v < 700; ++v) h = hash64(h, svc.match_of(v));
  h = hash64(h, svc.matched_count());
  h = hash64(h, svc.stats().batches);
  h = hash64(h, svc.stats().applied_inserts);
  h = hash64(h, svc.stats().applied_deletes);
  std::printf("FP serve_%s 0 %llu\n", s.name,
              static_cast<unsigned long long>(h));
}

// Child mode: emits fingerprint lines when spawned by the parent test; a
// plain `ctest` run (env unset) passes through trivially.
TEST(ThreadDeterminism, Child) {
  if (std::getenv("PARMATCH_DET_CHILD") == nullptr) GTEST_SKIP();
  for (const Scenario& s : kScenarios) print_fingerprints(s);
  for (const Scenario& s : kScenarios) print_serve_fingerprint(s);
}

// Resolved in the parent: /proc/self/exe inside popen's shell would name
// the shell, not this binary.
std::string self_path() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

// `mode_env` is prepended verbatim: "" for defaults, or e.g.
// "PARMATCH_EXEC_MODE=sequential" / "... PARMATCH_CUTOVER=8".
std::vector<std::string> run_child(int threads, const std::string& mode_env) {
  std::string self = self_path();
  if (self.empty()) return {};
  char cmd[4500];
  std::snprintf(cmd, sizeof(cmd),
                "%s PARMATCH_DET_CHILD=1 PARMATCH_NUM_THREADS=%d "
                "'%s' --gtest_filter=ThreadDeterminism.Child "
                "2>/dev/null",
                mode_env.c_str(), threads, self.c_str());
  FILE* p = popen(cmd, "r");
  if (!p) return {};
  std::vector<std::string> lines;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), p))
    if (std::strncmp(buf, "FP ", 3) == 0) lines.emplace_back(buf);
  pclose(p);
  return lines;
}

TEST(ThreadDeterminism, MatchingIdenticalAcrossThreadCountsAndExecModes) {
  if (std::getenv("PARMATCH_DET_CHILD") != nullptr) GTEST_SKIP();
#ifndef __linux__
  GTEST_SKIP() << "re-exec via /proc/self/exe is linux-only";
#endif
  unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> counts{1, 2};
  if (hw > 2) counts.push_back(static_cast<int>(hw));
  // Every execution policy the engine can take, including an adaptive run
  // with a pinned mid-range cutover so single batches mix inline and
  // forked phases. The serve_* fingerprint lines are
  // compared across the same grid.
  const std::vector<std::string> modes{
      "PARMATCH_EXEC_MODE=adaptive",
      "PARMATCH_EXEC_MODE=sequential",
      "PARMATCH_EXEC_MODE=parallel",
      "PARMATCH_EXEC_MODE=adaptive PARMATCH_CUTOVER=8",
  };
  auto reference = run_child(counts[0], modes[0]);
  ASSERT_FALSE(reference.empty()) << "child produced no fingerprints";
  // Both scenarios fingerprint every batch.
  ASSERT_GT(reference.size(), 100u);
  for (int threads : counts) {
    for (const std::string& mode : modes) {
      if (threads == counts[0] && mode == modes[0]) continue;
      auto got = run_child(threads, mode);
      ASSERT_EQ(got.size(), reference.size())
          << "threads=" << threads << " " << mode;
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(got[i], reference[i])
            << "first divergence at line " << i << " for threads=" << threads
            << " " << mode;
    }
  }
}

}  // namespace
