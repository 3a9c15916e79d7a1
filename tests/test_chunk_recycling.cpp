// Adjacency memory follows the live incidences (graph/adjacency.h,
// DESIGN.md S7): compaction returns the chunks it empties, the delete pass
// returns the whole chain of a vertex whose live degree reaches 0, and
// later appends reuse those chunks before the arena bumps fresh ones.
// These tests drive sliding-window churn over a hub-heavy R-MAT graph --
// hubs grow long chains, and each slide empties the vertices only the
// departing batch touched -- under forced-inline and forced-forked phase
// execution (forked releases go through the pending list and forked
// appends pop the free list by CAS).
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

constexpr std::size_t kCap = graph::ChunkedAdjacency::kChunkCap;

// Chunks a chain of `len` entries needs (an empty chain keeps its head).
std::size_t needed(std::size_t len) {
  return len == 0 ? 1 : (len + kCap - 1) / kCap;
}

struct ChunkCensus {
  std::size_t held = 0;      // chunks linked into some chain (walked)
  std::size_t needed = 0;    // sum over live vertices of needed(chain len)
  std::size_t kept = 0;      // vertices with no live edge holding a chunk
  std::size_t max_dead = 0;  // most chunks held by a vertex with no live edge
};

ChunkCensus census(const dyn::DynamicMatcher& dm) {
  ChunkCensus c;
  const auto& adj = dm.adjacency();
  for (const matching::VertexHot& r : dm.vertex_records()) {
    std::size_t n = adj.chain_chunks(r.adj);
    c.held += n;
    if (r.live_deg > 0) {
      c.needed += needed(r.adj.len);
    } else if (n > 0) {
      ++c.kept;
      if (n > c.max_dead) c.max_dead = n;
    }
  }
  return c;
}

// 8+ windows of a hub-heavy sliding window: insert batch i, delete batch
// i - kWindow. `check` runs after every batch.
template <typename Check>
void slide(dyn::DynamicMatcher& dm, Check&& check) {
  constexpr std::size_t kBatch = 1024, kWindow = 4;
  auto w = gen::sliding_window(gen::rmat(12, 36 * kBatch, 5), kBatch, kWindow);
  ASSERT_GE(w.steps.size(), 2 * 8 * kWindow);
  std::vector<EdgeId> live(w.master.size(), kInvalidEdge);
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
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ChunkRecycling : public ::testing::TestWithParam<parallel::ExecMode> {
 protected:
  void SetUp() override {
    saved_ = parallel::exec_mode();
    parallel::set_exec_mode(GetParam());
  }
  void TearDown() override { parallel::set_exec_mode(saved_); }

 private:
  parallel::ExecMode saved_ = parallel::ExecMode::kAdaptive;
};

// After every batch the arena's in-use count is exactly the chunks linked
// into chains, and that is at most ceil(len / 15) per vertex with a live
// edge, plus one head chunk per emptied vertex that an inline delete pass
// let keep its head (the stated slack; a forked pass keeps none). A
// retaining arena fails this as soon as the window first slides: its
// compacted chains keep spare chunks behind their tails.
TEST_P(ChunkRecycling, ChunksFollowLiveIncidences) {
  dyn::DynamicMatcher dm;
  std::size_t batches = 0, prev = 0, shrinks = 0;
  slide(dm, [&] {
    ChunkCensus c = census(dm);
    std::size_t in_use = dm.adjacency().chunks_in_use();
    ASSERT_EQ(in_use, c.held) << "batch " << batches;
    ASSERT_LE(c.held, c.needed + c.kept) << "batch " << batches;
    ASSERT_LE(c.max_dead, 1u) << "batch " << batches;
    if (in_use < prev && dm.pool().live_count() > 0) ++shrinks;
    prev = in_use;
    ++batches;
  });
  // Not vacuous: the arena gave chunks back while the window slid.
  EXPECT_GE(shrinks, 8u);
  // The stream ends with every edge deleted: no vertex with live_deg 0
  // holds more than one chunk, and only kept heads remain.
  EXPECT_EQ(dm.pool().live_count(), 0u);
  ChunkCensus end = census(dm);
  EXPECT_LE(end.max_dead, 1u);
  EXPECT_EQ(dm.adjacency().chunks_in_use(), end.kept);
}

// Kept heads are on loan: once an append finds the free list dry (the
// arena bumps fresh chunks), the next insert batch returns every kept head
// of a still-empty vertex before it appends.
TEST_P(ChunkRecycling, KeptHeadsReturnOnceTheFreeListRunsDry) {
  dyn::DynamicMatcher dm;
  slide(dm, [] {});
  if (GetParam() == parallel::ExecMode::kSequential) {
    ASSERT_GT(census(dm).kept, 0u);  // not vacuous
  }
  // Fresh vertices above the window's: each needs a head chunk, more than
  // the free list holds.
  std::size_t bumped = dm.adjacency().chunks_bumped();
  graph::EdgeBatch fresh;
  for (std::size_t i = 0; i <= bumped; ++i) {
    auto u = static_cast<graph::VertexId>(100'000 + 2 * i);
    fresh.add({u, u + 1});
  }
  dm.insert_edges(fresh);
  EXPECT_GT(dm.adjacency().chunks_bumped(), bumped);
  graph::EdgeBatch one;
  one.add({7, 8});
  dm.insert_edges(one);
  ChunkCensus c = census(dm);
  EXPECT_EQ(c.kept, 0u);
  EXPECT_EQ(dm.adjacency().chunks_in_use(), c.held);
  EXPECT_LE(c.held, c.needed);
}

INSTANTIATE_TEST_SUITE_P(
    Phases, ChunkRecycling,
    ::testing::Values(parallel::ExecMode::kSequential,
                      parallel::ExecMode::kParallel),
    [](const ::testing::TestParamInfo<parallel::ExecMode>& info) {
      return info.param == parallel::ExecMode::kSequential ? "Inline"
                                                           : "Forked";
    });

}  // namespace
