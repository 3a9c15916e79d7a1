// Steady-state allocation audit (DESIGN.md S7): once the matcher's
// workspace is warm, insert_edges / delete_edges must perform ZERO heap
// allocations. This binary replaces the global operator new/delete with
// counting versions (which is why it is a separate test executable --
// parmatch_alloc_test -- instead of a TU of the main suite) and asserts the
// counter does not move across post-warmup batches. The same counter
// bounds state_fingerprint's allocations on a large matcher.
//
// The warmup drives enough churn cycles that every named workspace vector
// reaches its high-water capacity, the bump arena its high-water footprint,
// the adjacency arena its chunk headroom, and the pool its id-space
// ceiling; afterwards the same cycle shapes repeat, so any allocation in
// the measured window is a regression in the allocation-free contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <algorithm>
#include <array>

#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "prims/speculative_for.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}

// Global replacements: every allocation in this binary funnels through
// malloc/free with a counter bump. Sized/aligned/array forms included so
// nothing bypasses the count.
void* operator new(std::size_t sz) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (sz + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
// Every replacement new above returns malloc's memory, so free is the
// matching release. GCC 12 sees operator new's pointer reach free once it
// inlines these bodies and reports a mismatch that is not there.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace parmatch;
using graph::EdgeId;

TEST(AllocFree, SteadyStateBatchesDoNotTouchTheHeap) {
  dyn::Config cfg;
  cfg.seed = 11;
  dyn::DynamicMatcher dm(cfg);

  // Prebuild everything the driver itself needs: batches, and a reusable
  // delete-id buffer with capacity reserved up front.
  std::vector<graph::EdgeBatch> batches;
  for (int b = 0; b < 4; ++b)
    batches.push_back(gen::erdos_renyi(400, 1'600, 100 + b));
  std::vector<EdgeId> pending_delete;
  pending_delete.reserve(4'000);

  auto run_cycle = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const auto& batch : batches) {
        auto ids = dm.insert_edges(batch);
        pending_delete.assign(ids.begin(), ids.end());
        dm.delete_edges(pending_delete);
      }
    }
  };

  run_cycle(12);  // warmup: reach every high-water mark

  std::uint64_t before = g_news.load(std::memory_order_relaxed);
  run_cycle(6);  // measured window: identical shapes, warm buffers
  std::uint64_t after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state batches performed " << (after - before)
      << " heap allocations (allocation-free contract, DESIGN.md S7)";

  // The scratch arena really is in use (the audit is not vacuous).
  EXPECT_GT(dm.workspace().arena.capacity(), 0u);
}

// The same contract while the adjacency arena recycles: a sliding window
// over R-MAT batches (insert batch i, delete batch i - 2) keeps emptying
// low-degree vertices, whose chains go back to the free list, and refilling
// them from it. Once the free list has absorbed the window's churn, release
// and reuse are list operations on chunks the arena already owns.
TEST(AllocFree, RecyclingWindowDoesNotTouchTheHeap) {
  dyn::Config cfg;
  cfg.seed = 19;
  dyn::DynamicMatcher dm(cfg);
  constexpr std::size_t kBatches = 6, kWindow = 2;
  std::vector<graph::EdgeBatch> batches;
  for (std::size_t b = 0; b < kBatches; ++b)
    batches.push_back(gen::rmat(10, 1'500, 200 + b));
  std::vector<std::vector<EdgeId>> ids(kBatches);
  for (auto& v : ids) v.reserve(1'500);
  std::size_t step = 0, lo = ~std::size_t{0}, hi = 0;
  auto run_steps = [&](std::size_t n) {
    for (std::size_t s = 0; s < n; ++s, ++step) {
      if (step >= kWindow) dm.delete_edges(ids[(step - kWindow) % kBatches]);
      lo = std::min(lo, dm.adjacency().chunks_in_use());
      auto got = dm.insert_edges(batches[step % kBatches]);
      ids[step % kBatches].assign(got.begin(), got.end());
      hi = std::max(hi, dm.adjacency().chunks_in_use());
    }
  };

  run_steps(12 * kBatches);  // warmup: reach every high-water mark
  lo = ~std::size_t{0};
  hi = 0;

  std::uint64_t before = g_news.load(std::memory_order_relaxed);
  run_steps(6 * kBatches);
  std::uint64_t after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "recycling batches performed " << (after - before)
      << " heap allocations (allocation-free contract, DESIGN.md S7)";
  // Not vacuous: every slide returned chunks and every insert took some.
  EXPECT_LT(lo + 20, hi);
}

// state_fingerprint folds the export stream as it is emitted instead of
// collecting it: on a matcher holding 100k+ live edges it makes at most
// one heap allocation (the chain section's has-live bitmap), where a
// collected stream would reallocate once per doubling.
TEST(AllocFree, StateFingerprintStreamsTheExport) {
  dyn::Config cfg;
  cfg.seed = 13;
  dyn::DynamicMatcher dm(cfg);
  auto ids = dm.insert_edges(gen::erdos_renyi(50'000, 120'000, 7));
  // Churn, so the pool has a free list and chains hold stale refs.
  std::vector<EdgeId> doomed(ids.begin(), ids.begin() + 15'000);
  dm.delete_edges(doomed);
  dm.insert_edges(gen::erdos_renyi(50'000, 10'000, 8));
  ASSERT_GE(dm.pool().live_count(), 100'000u);

  std::uint64_t before = g_news.load(std::memory_order_relaxed);
  std::uint64_t fp = dm.state_fingerprint();
  std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_LE(after - before, 1u)
      << "state_fingerprint performed " << (after - before)
      << " heap allocations";
  EXPECT_EQ(fp, dm.state_fingerprint());
}

// The deterministic-reservations engine's own steady state: once the arena
// has seen one invocation's high-water footprint, identical re-runs carve
// every retry queue and status buffer from warm memory -- zero heap
// allocations (the engine half of the DESIGN.md S7 contract; the batch
// pipeline half is the test above).
TEST(AllocFree, SpeculativeForSteadyStateDoesNotTouchTheHeap) {
  constexpr std::size_t kN = 600, kSlots = 150;
  struct Step {
    const std::array<std::uint32_t, 2>* wants;
    std::uint32_t* slot;
    std::uint32_t* owner;
    bool seq = true;
    void begin_round(std::uint64_t, bool s) { seq = s; }
    parmatch::prims::SpecStatus reserve(std::size_t i, bool) {
      for (std::uint32_t w : wants[i])
        if (owner[w] != parmatch::prims::kEmptySpecSlot)
          return parmatch::prims::SpecStatus::kDone;
      for (std::uint32_t w : wants[i])
        parmatch::prims::reserve_slot(slot[w], static_cast<std::uint32_t>(i),
                                      seq);
      return parmatch::prims::SpecStatus::kTryCommit;
    }
    bool commit(std::size_t i) {
      auto idx = static_cast<std::uint32_t>(i);
      bool owns = true;
      for (std::uint32_t w : wants[i])
        owns = owns && parmatch::prims::slot_holds(slot[w], idx, seq);
      for (std::uint32_t w : wants[i])
        if (owns || parmatch::prims::slot_holds(slot[w], idx, seq))
          parmatch::prims::release_slot(slot[w], seq);
      if (owns)
        for (std::uint32_t w : wants[i]) owner[w] = idx;
      return owns;
    }
    void finalize(std::size_t) {}
  };

  std::vector<std::array<std::uint32_t, 2>> wants(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    auto a = static_cast<std::uint32_t>(parmatch::hash64(77, 2 * i) % kSlots);
    auto b =
        static_cast<std::uint32_t>(parmatch::hash64(77, 2 * i + 1) % kSlots);
    if (b == a) b = (a + 1) % kSlots;
    wants[i] = {a, b};
  }
  std::vector<std::uint32_t> slot(kSlots), owner(kSlots);
  parmatch::ScratchArena arena;
  auto run_once = [&] {
    arena.reset();
    std::fill(slot.begin(), slot.end(), parmatch::prims::kEmptySpecSlot);
    std::fill(owner.begin(), owner.end(), parmatch::prims::kEmptySpecSlot);
    Step step{wants.data(), slot.data(), owner.data()};
    parmatch::prims::speculative_for(step, 0, kN, arena);
  };
  run_once();  // warmup: the arena reaches its high-water footprint

  std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 5; ++pass) run_once();
  std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "warm speculative_for invocations performed " << (after - before)
      << " heap allocations";
}

}  // namespace
