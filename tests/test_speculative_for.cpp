// Deterministic-reservations engine unit tests (prims/speculative_for.h).
// The pinned contract: the engine's final state equals a sequential loop
// over the items in index order -- regardless of thread count, execution
// mode, or prefix granularity -- and rounds/retries/commit order are
// bit-identical across execution modes for a fixed grain. The test names
// carry "SpeculativeFor" so CI's TSan repeat pass picks them up by regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/cost_model.h"
#include "prims/speculative_for.h"
#include "util/rng.h"
#include "util/scratch_arena.h"

using namespace parmatch;
using prims::kEmptySpecSlot;
using prims::SpecStats;
using prims::SpecStatus;

namespace {

// A slot-claiming step: item i wants two slots and commits (owner[w] = i)
// iff it holds both reservations -- the greedy-matching shape distilled to
// its conflict structure. Finalize records commit order.
struct ClaimStep {
  const std::array<std::uint32_t, 2>* wants;
  std::vector<std::uint32_t>* slot;   // reservation cells, kEmptySpecSlot free
  std::vector<std::uint32_t>* owner;  // committed owner, kEmptySpecSlot free
  std::vector<std::uint32_t>* won;    // finalize order (ascending per round)
  bool seq = true;

  void begin_round(std::uint64_t, bool s) { seq = s; }

  SpecStatus reserve(std::size_t i, bool) {
    for (std::uint32_t w : wants[i])
      if ((*owner)[w] != kEmptySpecSlot) return SpecStatus::kDone;
    for (std::uint32_t w : wants[i])
      prims::reserve_slot((*slot)[w], static_cast<std::uint32_t>(i), seq);
    return SpecStatus::kTryCommit;
  }

  bool commit(std::size_t i) {
    auto idx = static_cast<std::uint32_t>(i);
    bool owns = true;
    for (std::uint32_t w : wants[i])
      owns = owns && prims::slot_holds((*slot)[w], idx, seq);
    for (std::uint32_t w : wants[i])
      if (owns || prims::slot_holds((*slot)[w], idx, seq))
        prims::release_slot((*slot)[w], seq);
    if (!owns) return false;
    // Winners hold ALL their slots, so they are slot-disjoint and these
    // writes never race even in a forked commit phase.
    for (std::uint32_t w : wants[i]) (*owner)[w] = idx;
    return true;
  }

  void finalize(std::size_t i) {
    won->push_back(static_cast<std::uint32_t>(i));
  }
};

// The engine's promised semantics, spelled out as the obvious loop.
void sequential_reference(const std::vector<std::array<std::uint32_t, 2>>& w,
                          std::size_t nslots,
                          std::vector<std::uint32_t>* owner,
                          std::vector<std::uint32_t>* won) {
  owner->assign(nslots, kEmptySpecSlot);
  won->clear();
  for (std::size_t i = 0; i < w.size(); ++i) {
    bool free = true;
    for (std::uint32_t s : w[i]) free = free && (*owner)[s] == kEmptySpecSlot;
    if (!free) continue;
    for (std::uint32_t s : w[i]) (*owner)[s] = static_cast<std::uint32_t>(i);
    won->push_back(static_cast<std::uint32_t>(i));
  }
}

struct RunResult {
  std::vector<std::uint32_t> owner, won;
  SpecStats st;

  bool operator==(const RunResult& o) const {
    return owner == o.owner && won == o.won && st.rounds == o.st.rounds &&
           st.retries == o.st.retries && st.committed == o.st.committed;
  }
};

RunResult run_engine(const std::vector<std::array<std::uint32_t, 2>>& wants,
                     std::size_t nslots, std::size_t grain = 0) {
  RunResult r;
  std::vector<std::uint32_t> slot(nslots, kEmptySpecSlot);
  r.owner.assign(nslots, kEmptySpecSlot);
  ClaimStep step{wants.data(), &slot, &r.owner, &r.won};
  ScratchArena arena;
  r.st = prims::speculative_for(step, 0, wants.size(), arena, grain);
  // Every reservation was released by its round's holder.
  for (std::uint32_t s : slot) EXPECT_EQ(s, kEmptySpecSlot);
  return r;
}

std::vector<std::array<std::uint32_t, 2>> random_wants(std::size_t n,
                                                       std::size_t nslots,
                                                       std::uint64_t seed) {
  std::vector<std::array<std::uint32_t, 2>> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto a = static_cast<std::uint32_t>(hash64(seed, 2 * i) % nslots);
    auto b = static_cast<std::uint32_t>(hash64(seed, 2 * i + 1) % nslots);
    if (b == a) b = (a + 1) % static_cast<std::uint32_t>(nslots);
    w[i] = {a, b};
  }
  return w;
}

TEST(SpeculativeFor, EmptyRangeIsANoOp) {
  std::vector<std::array<std::uint32_t, 2>> wants;
  RunResult r = run_engine(wants, 4);
  EXPECT_EQ(r.st.rounds, 0u);
  EXPECT_EQ(r.st.retries, 0u);
  EXPECT_EQ(r.st.committed, 0u);
}

TEST(SpeculativeFor, MatchesSequentialReference) {
  for (std::uint64_t seed : {3u, 17u, 91u}) {
    auto wants = random_wants(500, 120, seed);
    std::vector<std::uint32_t> ref_owner, ref_won;
    sequential_reference(wants, 120, &ref_owner, &ref_won);
    RunResult r = run_engine(wants, 120);
    EXPECT_EQ(r.owner, ref_owner) << "seed " << seed;
    // Finalize order is ascending WITHIN a round (a retried low index may
    // commit after a fresh higher one), so the winner SET is what equals
    // the sequential loop's.
    std::vector<std::uint32_t> won_sorted = r.won;
    std::sort(won_sorted.begin(), won_sorted.end());
    EXPECT_EQ(won_sorted, ref_won) << "seed " << seed;
    EXPECT_EQ(r.st.committed, ref_won.size()) << "seed " << seed;
  }
}

// The strategy switch (fused plain-memory rounds vs forked CAS-min rounds)
// must not change ANY observable: state, commit order, rounds, or retries.
TEST(SpeculativeFor, ExecModesBitIdentical) {
  auto wants = random_wants(2'000, 300, 7);
  parallel::ExecMode saved = parallel::exec_mode();
  parallel::set_exec_mode(parallel::ExecMode::kSequential);
  RunResult seq = run_engine(wants, 300);
  parallel::set_exec_mode(parallel::ExecMode::kParallel);
  RunResult par = run_engine(wants, 300);
  parallel::set_exec_mode(parallel::ExecMode::kAdaptive);
  RunResult ad = run_engine(wants, 300);
  parallel::set_exec_mode(saved);
  EXPECT_TRUE(seq == par) << "sequential vs parallel diverged";
  EXPECT_TRUE(seq == ad) << "sequential vs adaptive diverged";
  EXPECT_GT(seq.st.retries, 0u) << "conflict graph too easy to mean much";
}

// Adversarial star: every item wants slot 0, so a whole prefix competes for
// one cell every round. Exactly item 0 wins; everyone else must observe the
// committed owner and drop.
TEST(SpeculativeFor, StarConflictSingleWinner) {
  constexpr std::size_t kN = 400;
  std::vector<std::array<std::uint32_t, 2>> wants(kN);
  for (std::size_t i = 0; i < kN; ++i)
    wants[i] = {0u, static_cast<std::uint32_t>(1 + i)};
  std::vector<std::uint32_t> ref_owner, ref_won;
  sequential_reference(wants, kN + 1, &ref_owner, &ref_won);
  ASSERT_EQ(ref_won, std::vector<std::uint32_t>{0u});
  RunResult r = run_engine(wants, kN + 1);
  EXPECT_EQ(r.won, ref_won);
  EXPECT_EQ(r.owner, ref_owner);
  EXPECT_GT(r.st.retries, 0u);
}

// Adversarial chain: item i wants {i, i+1}, so neighbors always conflict in
// a shared prefix. The sequential answer is the even items; losers must
// retry (the winner beside them committed) and then drop.
TEST(SpeculativeFor, ChainConflictEvenItemsWin) {
  constexpr std::size_t kN = 513;
  std::vector<std::array<std::uint32_t, 2>> wants(kN);
  for (std::size_t i = 0; i < kN; ++i)
    wants[i] = {static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(i + 1)};
  std::vector<std::uint32_t> ref_owner, ref_won;
  sequential_reference(wants, kN + 1, &ref_owner, &ref_won);
  RunResult r = run_engine(wants, kN + 1);
  EXPECT_EQ(r.won, ref_won);
  EXPECT_EQ(r.owner, ref_owner);
  for (std::uint32_t i : r.won) EXPECT_EQ(i % 2, 0u);
  EXPECT_EQ(r.won.size(), (kN + 1) / 2);
  EXPECT_GT(r.st.retries, 0u);
}

// The granularity knob changes the round structure, never the answer:
// conflicts resolve by index, so any prefix cap converges to the same
// sequential-equivalent state.
TEST(SpeculativeFor, GrainChangesRoundsNotResult) {
  auto wants = random_wants(1'000, 150, 29);
  std::vector<std::uint32_t> ref_owner, ref_won;
  sequential_reference(wants, 150, &ref_owner, &ref_won);
  std::size_t prev_rounds = 0;
  for (std::size_t grain : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    RunResult r = run_engine(wants, 150, grain);
    EXPECT_EQ(r.owner, ref_owner) << "grain " << grain;
    std::vector<std::uint32_t> won_sorted = r.won;
    std::sort(won_sorted.begin(), won_sorted.end());
    EXPECT_EQ(won_sorted, ref_won) << "grain " << grain;
    EXPECT_GE(r.st.rounds, prev_rounds) << "grain " << grain;
    prev_rounds = r.st.rounds;
  }
  EXPECT_GT(prev_rounds, 1u);  // narrow prefixes really do take more rounds
}

// A step that retries until it reaches the frontier (the steal consumer's
// "blocked until provably blocked" shape): termination and the frontier
// flag itself. Exactly one item retires per round, in index order.
struct FrontierOnlyStep {
  std::vector<std::uint32_t>* done_order;
  void begin_round(std::uint64_t, bool) {}
  SpecStatus reserve(std::size_t i, bool frontier) {
    if (!frontier) return SpecStatus::kRetry;
    done_order->push_back(static_cast<std::uint32_t>(i));
    return SpecStatus::kDone;
  }
  bool commit(std::size_t) { return true; }
  void finalize(std::size_t) {}
};

TEST(SpeculativeFor, FrontierFlagRetiresInIndexOrder) {
  constexpr std::size_t kN = 97;
  std::vector<std::uint32_t> done;
  FrontierOnlyStep step{&done};
  ScratchArena arena;
  SpecStats st = prims::speculative_for(step, 0, kN, arena);
  ASSERT_EQ(done.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(done[i], i);
  EXPECT_EQ(st.rounds, kN);  // one frontier retirement per round
  EXPECT_EQ(st.committed, 0u);
}

// Depth accounting: kSpecRoundPhases * model_depth(prefix) per round,
// identical across execution modes (it is measured structure, not timing).
TEST(SpeculativeFor, DepthChargesPerRound) {
  auto wants = random_wants(300, 80, 5);
  parallel::ExecMode saved = parallel::exec_mode();
  std::array<std::size_t, 2> depths{};
  std::array<parallel::ExecMode, 2> modes{parallel::ExecMode::kSequential,
                                          parallel::ExecMode::kParallel};
  for (std::size_t m = 0; m < 2; ++m) {
    parallel::set_exec_mode(modes[m]);
    std::vector<std::uint32_t> slot(80, kEmptySpecSlot);
    std::vector<std::uint32_t> owner(80, kEmptySpecSlot), won;
    ClaimStep step{wants.data(), &slot, &owner, &won};
    ScratchArena arena;
    SpecStats st = prims::speculative_for(step, 0, wants.size(), arena, 0,
                                          &depths[m]);
    EXPECT_GE(depths[m], st.rounds * prims::kSpecRoundPhases);
  }
  parallel::set_exec_mode(saved);
  EXPECT_EQ(depths[0], depths[1]);
}

// Warm-arena contract: after the first invocation establishes the
// high-water mark, identical re-runs must not grow the arena (the
// heap-level guarantee is pinned by parmatch_alloc_test; this checks the
// engine's own footprint is reset-stable).
TEST(SpeculativeFor, WarmArenaFootprintIsStable) {
  auto wants = random_wants(800, 200, 13);
  ScratchArena arena;
  std::vector<std::uint32_t> won0;
  for (int pass = 0; pass < 3; ++pass) {
    arena.reset();
    std::vector<std::uint32_t> slot(200, kEmptySpecSlot);
    std::vector<std::uint32_t> owner(200, kEmptySpecSlot), won;
    ClaimStep step{wants.data(), &slot, &owner, &won};
    prims::speculative_for(step, 0, wants.size(), arena);
    if (pass == 0)
      won0 = won;
    else
      EXPECT_EQ(won, won0) << "replay diverged on pass " << pass;
  }
  std::size_t high_water = arena.capacity();
  arena.reset();
  std::vector<std::uint32_t> slot(200, kEmptySpecSlot);
  std::vector<std::uint32_t> owner(200, kEmptySpecSlot), won;
  ClaimStep step{wants.data(), &slot, &owner, &won};
  prims::speculative_for(step, 0, wants.size(), arena);
  EXPECT_EQ(arena.capacity(), high_water);
}

// The prefix cap follows max(n / grain + 1, kMinSpecPrefix); grain 0 means
// kDefaultSpecGrain.
TEST(SpeculativeFor, GrainKnobAndPrefixCap) {
  EXPECT_EQ(prims::spec_prefix_cap(100, 0), prims::kMinSpecPrefix);
  EXPECT_EQ(prims::spec_prefix_cap(100, 4), prims::kMinSpecPrefix);
  EXPECT_EQ(prims::spec_prefix_cap(4'000, 4), 1'001u);
  EXPECT_EQ(prims::spec_prefix_cap(4'000, 0),
            4'000 / prims::kDefaultSpecGrain + 1);
}

}  // namespace
