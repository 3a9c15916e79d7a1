// Concurrent external callers of the fork/join pool (DESIGN.md S10). The
// pool has one root deque: the external thread inside run() holds it and
// forks; any other external thread that calls in meanwhile runs its range
// inline as one chunk. These tests drive exactly that from plain
// std::threads: result correctness per caller, overlap-in-time evidence,
// uneven grains, nested forking from several callers at once, a churn
// stress on the root claim, and the cost model's phase decision staying put
// while another thread holds the root. All of it must be TSan-clean (the
// tsan CI job re-runs this binary) and, apart from the phase-decision test
// (which needs forking to exist), must hold on a 1-worker pool too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "parallel/cost_model.h"
#include "parallel/parallel_for.h"
#include "parallel/scheduler.h"

using namespace parmatch;

namespace {

// N external threads, each covering its own array with a different range
// length (uneven grain trees). Every index must be hit exactly once by its
// own caller -- the root's chunks may run on any worker, and the other
// callers run inline, but never against the wrong array.
TEST(SchedulerConcurrentCallers, ConcurrentCallersCoverTheirOwnRanges) {
  constexpr int kCallers = 4;
  constexpr std::size_t kBase = 100'000;
  std::vector<std::vector<std::uint8_t>> hit(kCallers);
  std::vector<std::thread> callers;
  for (int r = 0; r < kCallers; ++r) {
    std::size_t n = kBase + static_cast<std::size_t>(r) * 33'331;
    hit[r].assign(n, 0);
    callers.emplace_back([&, r, n] {
      parallel::parallel_for(0, n, [&, r](std::size_t i) { ++hit[r][i]; });
    });
  }
  for (auto& t : callers) t.join();
  for (int r = 0; r < kCallers; ++r)
    for (std::size_t i = 0; i < hit[r].size(); ++i)
      ASSERT_EQ(hit[r][i], 1) << "caller " << r << " index " << i;
}

// Two callers provably INSIDE their parallel regions at the same time:
// each loop body sets its own flag and then waits (bounded) to observe the
// other's flag. A pool that serialized external callers on a lock would
// time out here. Works on a 1-worker pool too: each caller runs inline on
// its own external thread, so the two bodies still overlap in time.
TEST(SchedulerConcurrentCallers, TwoCallersOverlapInTime) {
  std::atomic<bool> a_inside{false}, b_inside{false};
  std::atomic<int> overlaps{0};
  auto wait_for = [](std::atomic<bool>& flag) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!flag.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  std::thread a([&] {
    parallel::parallel_for(0, 1, [&](std::size_t) {
      a_inside.store(true, std::memory_order_release);
      if (wait_for(b_inside)) overlaps.fetch_add(1);
    });
  });
  std::thread b([&] {
    parallel::parallel_for(0, 1, [&](std::size_t) {
      b_inside.store(true, std::memory_order_release);
      if (wait_for(a_inside)) overlaps.fetch_add(1);
    });
  });
  a.join();
  b.join();
  EXPECT_EQ(overlaps.load(), 2) << "callers serialized: no overlap observed";
}

// Several callers forking three levels deep with grain 1 -- the heaviest
// deque traffic -- while sharing the pool. A caller that starts inline
// may claim the root for a nested level once it frees up. Checks coverage
// and per-caller sums (no bleed into the wrong accumulator).
TEST(SchedulerConcurrentCallers, NestedThreeLevelsFromConcurrentCallers) {
  constexpr int kCallers = 3;
  constexpr std::size_t kA = 8, kB = 8, kC = 8;
  std::vector<std::atomic<std::uint64_t>> sum(kCallers);
  for (auto& s : sum) s.store(0);
  std::vector<std::thread> callers;
  for (int r = 0; r < kCallers; ++r) {
    callers.emplace_back([&, r] {
      parallel::parallel_for(
          0, kA,
          [&, r](std::size_t i) {
            parallel::parallel_for(
                0, kB,
                [&, r, i](std::size_t j) {
                  parallel::parallel_for(
                      0, kC,
                      [&, r, i, j](std::size_t k) {
                        sum[r].fetch_add(i * kB * kC + j * kC + k + 1,
                                         std::memory_order_relaxed);
                      },
                      1);
                },
                1);
          },
          1);
    });
  }
  for (auto& t : callers) t.join();
  constexpr std::uint64_t kN = kA * kB * kC;
  for (int r = 0; r < kCallers; ++r)
    EXPECT_EQ(sum[r].load(), kN * (kN + 1) / 2) << "caller " << r;
}

// Uneven grains across concurrent callers: one floods the deques with
// grain-1 chunks while another uses coarse chunks and a third runs a size
// below the break-even (inline fast path). All must complete correctly.
TEST(SchedulerConcurrentCallers, MixedGrainsAndInlineFastPathCoexist) {
  std::vector<std::uint8_t> fine(20'000, 0), coarse(200'000, 0);
  std::vector<std::uint32_t> tiny(64, 0);
  std::thread t1([&] {
    parallel::parallel_for(0, fine.size(),
                           [&](std::size_t i) { ++fine[i]; }, 1);
  });
  std::thread t2([&] {
    parallel::parallel_for(0, coarse.size(),
                           [&](std::size_t i) { ++coarse[i]; }, 4096);
  });
  std::thread t3([&] {
    for (int rep = 0; rep < 1000; ++rep)
      parallel::parallel_for(0, tiny.size(), [&](std::size_t i) {
        ++tiny[i];
      });
  });
  t1.join();
  t2.join();
  t3.join();
  for (auto v : fine) ASSERT_EQ(v, 1);
  for (auto v : coarse) ASSERT_EQ(v, 1);
  for (auto v : tiny) ASSERT_EQ(v, 1000u);
}

// Root churn: many threads, each calling in a tight loop, so the root is
// claimed and released constantly while the losers run inline. No call is
// lost and every sum is exact.
TEST(SchedulerConcurrentCallers, RootChurnStress) {
  constexpr int kThreads = 20;
  constexpr int kReps = 200;
  constexpr std::size_t kN = 2'000;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        std::atomic<std::uint64_t> local{0};
        parallel::parallel_for(
            0, kN,
            [&](std::size_t i) {
              local.fetch_add(i + 1, std::memory_order_relaxed);
            },
            64);
        ASSERT_EQ(local.load(), kN * (kN + 1) / 2);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kThreads) * kReps);
}

// The cost model's phase decision must not move while another thread holds
// the root: matcher bodies ask run_phase_seq(n) to pick plain or atomic
// memory and then call parallel_for, which asks again, so a flip between
// the two calls would fork a body that chose plain memory. Sweeps n over
// [cutover/2, 2*cutover] with the root free, then again while a second
// thread blocks inside a forked Scheduler::run (a parallel_for that small
// would run inline and hold nothing), and requires identical answers.
TEST(SchedulerConcurrentCallers, PhaseDecisionIgnoresConcurrentCallers) {
  if (parallel::num_workers() < 2)
    GTEST_SKIP() << "1-worker pool: every phase runs inline";
  const parallel::ExecMode saved = parallel::exec_mode();
  parallel::set_exec_mode(parallel::ExecMode::kAdaptive);
  const std::size_t cut = parallel::CostModel::instance().phase_cutover();
  const std::size_t lo = cut / 2 > 0 ? cut / 2 : 1;
  const std::size_t hi = cut > 0 ? 2 * cut : 64;
  const std::size_t step = (hi - lo) / 96 > 0 ? (hi - lo) / 96 : 1;
  auto sweep = [&] {
    std::vector<std::uint8_t> out;
    for (std::size_t n = lo; n <= hi; n += step) {
      out.push_back(parallel::run_phase_seq(n));
      out.push_back(parallel::run_spec_round_seq(n));
    }
    return out;
  };
  const std::vector<std::uint8_t> free_root = sweep();

  std::atomic<bool> inside{false}, release{false};
  std::thread holder([&] {
    parallel::Scheduler::instance().run(2, 1, [&](std::size_t b, std::size_t) {
      if (b != 0) return;
      inside.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!inside.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  const bool held = inside.load(std::memory_order_acquire);
  const std::vector<std::uint8_t> held_root = sweep();
  release.store(true, std::memory_order_release);
  holder.join();
  parallel::set_exec_mode(saved);

  ASSERT_TRUE(held) << "holder never entered its region";
  ASSERT_EQ(held_root.size(), free_root.size());
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < free_root.size(); ++i)
    flipped += held_root[i] != free_root[i];
  EXPECT_EQ(flipped, 0u) << "of " << free_root.size()
                         << " answers over n in [" << lo << ", " << hi
                         << "], cutover " << cut;
}

}  // namespace
