// Substrate primitive tests (DESIGN.md S3): results must match their
// sequential STL references exactly, independent of worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "parallel/cost_model.h"
#include "parallel/scheduler.h"
#include "prims/filter.h"
#include "prims/group_by.h"
#include "prims/permutation.h"
#include "prims/radix_sort.h"
#include "prims/scan.h"
#include "util/rng.h"
#include "util/scratch_arena.h"

using namespace parmatch;

namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t bound,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(bound);
  return v;
}

TEST(Prims, ScanExclusiveInPlace) {
  auto v = random_values(9'999, 50, 2);
  auto ref = v;
  std::uint64_t run = 0;
  for (auto& x : ref) {
    std::uint64_t next = run + x;
    x = run;
    run = next;
  }
  ScratchArena arena;  // dirtied: block partials must not read stale bytes
  auto dirt = arena.alloc<std::uint8_t>(4096);
  std::fill(dirt.begin(), dirt.end(), std::uint8_t{0xA5});
  arena.reset();
  auto total = prims::scan_exclusive(std::span<std::uint64_t>(v), arena);
  EXPECT_EQ(total, run);
  EXPECT_EQ(v, ref);
}

TEST(Prims, RadixSortMatchesStdSort) {
  auto v = random_values(30'000, ~0ull, 4);
  auto ref = v;
  std::sort(ref.begin(), ref.end());
  prims::radix_sort(v, [](std::uint64_t x) { return x; }, 64);
  EXPECT_EQ(v, ref);
}

TEST(Prims, RadixSortIsStableOnLowBits) {
  // Sort pairs by low 8 bits only; equal keys must keep input order.
  struct P {
    std::uint64_t key;
    std::uint32_t tag;
  };
  Rng rng(5);
  std::vector<P> v(5'000);
  for (std::uint32_t i = 0; i < v.size(); ++i)
    v[i] = P{rng.next_below(16), i};
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const P& a, const P& b) { return a.key < b.key; });
  prims::radix_sort(v, [](const P& p) { return p.key; }, 8);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i].key, ref[i].key);
    EXPECT_EQ(v[i].tag, ref[i].tag);
  }
}

// Runs fn under a forced execution mode, restoring the previous one.
template <typename Fn>
void with_exec_mode(parallel::ExecMode mode, Fn&& fn) {
  parallel::ExecMode saved = parallel::exec_mode();
  parallel::set_exec_mode(mode);
  fn();
  parallel::set_exec_mode(saved);
}

const parallel::ExecMode kModes[] = {parallel::ExecMode::kSequential,
                                     parallel::ExecMode::kParallel};

// Checks one exec mode of pack_blocks / pack_blocks2 over n: the body runs
// exactly once per index (so it may carry side effects) and the kept items
// come out in index order. The arena is dirtied first, so scratch that the
// pack forgets to initialise shows up as wrong output.
void check_pack_blocks(std::size_t n) {
  SCOPED_TRACE(n);
  ScratchArena arena;
  auto dirt = arena.alloc<std::uint8_t>(16 * n + 4096);
  std::fill(dirt.begin(), dirt.end(), std::uint8_t{0xA5});
  arena.reset();
  auto visits = std::make_unique<std::atomic<int>[]>(n + 1);
  auto out = prims::pack_blocks<std::uint32_t>(
      n,
      [&](std::size_t b, std::size_t e, std::uint32_t* o) {
        std::size_t w = 0;
        for (std::size_t i = b; i < e; ++i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
          if (i % 3 == 0) o[w++] = static_cast<std::uint32_t>(i);
        }
        return w;
      },
      arena);
  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < n; i += 3)
    expect.push_back(static_cast<std::uint32_t>(i));
  EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.end()), expect);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1);

  auto [a, z] = prims::pack_blocks2<std::uint32_t>(
      n,
      [&](std::size_t b, std::size_t e, std::uint32_t* o1, std::uint32_t* o2) {
        std::size_t n1 = 0, n2 = 0;
        for (std::size_t i = b; i < e; ++i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
          if (i % 3 == 0)
            o1[n1++] = static_cast<std::uint32_t>(i);
          else if (i % 3 == 1)
            o2[n2++] = static_cast<std::uint32_t>(i);
        }
        return std::pair{n1, n2};
      },
      arena);
  std::vector<std::uint32_t> expect2;
  for (std::size_t i = 1; i < n; i += 3)
    expect2.push_back(static_cast<std::uint32_t>(i));
  EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()), expect);
  EXPECT_EQ(std::vector<std::uint32_t>(z.begin(), z.end()), expect2);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 2);
}

const std::size_t kPackSizes[] = {0, 1, 7, 64, 5000};

TEST(Prims, PackBlocksVisitsOnceAndKeepsOrder) {
  for (parallel::ExecMode mode : kModes)
    with_exec_mode(mode, [] {
      for (std::size_t n : kPackSizes) check_pack_blocks(n);
    });

  // Forked, while another external thread holds the scheduler's root: every
  // forked pass then arrives as one [0, n) chunk spanning all blocks.
  if (parallel::num_workers() < 2) return;  // 1 worker: packs run inline
  std::atomic<bool> inside{false}, release{false};
  std::thread holder([&] {
    parallel::Scheduler::instance().run(2, 1, [&](std::size_t b, std::size_t) {
      if (b != 0) return;
      inside.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  });
  struct Release {  // also on a throw, so the holder never outlives us
    std::atomic<bool>& flag;
    std::thread& t;
    ~Release() {
      flag.store(true, std::memory_order_release);
      t.join();
    }
  } guard{release, holder};
  while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();
  with_exec_mode(parallel::ExecMode::kParallel, [] {
    for (std::size_t n : kPackSizes) check_pack_blocks(n);
  });
}

// Arena group_by probes at most kGroupByProbeMax pairs and sorts above;
// both must give every key its values, in input order within the group.
TEST(Prims, ArenaGroupByMapIsTheSameBelowAndAboveProbeCutoff) {
  for (parallel::ExecMode mode : kModes) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{40},
                          prims::kGroupByProbeMax,
                          prims::kGroupByProbeMax + 1, std::size_t{3000}}) {
      SCOPED_TRACE(n);
      with_exec_mode(mode, [&] {
        auto keys = random_values(n, 23, 8 + n);
        std::map<std::uint32_t, std::vector<std::uint32_t>> expect;
        ScratchArena arena;
        auto pairs =
            arena.alloc<prims::KeyValue<std::uint32_t, std::uint32_t>>(n);
        for (std::size_t i = 0; i < n; ++i) {
          auto k = static_cast<std::uint32_t>(keys[i]);
          pairs[i] = {k, static_cast<std::uint32_t>(i)};
          expect[k].push_back(static_cast<std::uint32_t>(i));
        }
        auto g = prims::group_by(pairs, arena);
        std::map<std::uint32_t, std::vector<std::uint32_t>> got;
        for (std::size_t gi = 0; gi < g.num_groups(); ++gi) {
          auto vals = g.group(gi);
          EXPECT_TRUE(got.emplace(g.key(gi), std::vector<std::uint32_t>(
                                                 vals.begin(), vals.end()))
                          .second)
              << "key " << g.key(gi) << " split across groups";
        }
        EXPECT_EQ(got, expect);
      });
    }
  }
}

TEST(Prims, RandomPermutationIsAPermutation) {
  auto p = prims::random_permutation(10'000, 11);
  std::vector<std::uint8_t> seen(p.size(), 0);
  for (auto i : p) {
    ASSERT_LT(i, p.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
  // Deterministic in the seed, different across seeds.
  EXPECT_EQ(p, prims::random_permutation(10'000, 11));
  EXPECT_NE(p, prims::random_permutation(10'000, 12));
}

}  // namespace
