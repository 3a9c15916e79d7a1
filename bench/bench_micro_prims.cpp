// Micro-benchmarks of the substrate primitives the matcher runs (DESIGN.md
// S2-S4), in their arena forms, so that substrate regressions are visible
// independently of the core algorithm.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "prims/filter.h"
#include "prims/group_by.h"
#include "prims/permutation.h"
#include "prims/radix_sort.h"
#include "prims/scan.h"
#include "util/rng.h"
#include "util/scratch_arena.h"

using namespace parmatch;

namespace {

std::vector<std::uint64_t> make_values(std::size_t n, std::uint64_t bound) {
  Rng rng(n);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(bound);
  return v;
}

void BM_ScanExclusive(benchmark::State& state) {
  auto v = make_values(static_cast<std::size_t>(state.range(0)), 1000);
  ScratchArena arena;
  for (auto _ : state) {
    auto copy = v;
    arena.reset();
    benchmark::DoNotOptimize(
        prims::scan_exclusive(std::span<std::uint64_t>(copy), arena));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanExclusive)->Range(1 << 14, 1 << 22);

void BM_PackBlocks(benchmark::State& state) {
  auto v = make_values(static_cast<std::size_t>(state.range(0)), 1000);
  ScratchArena arena;
  for (auto _ : state) {
    arena.reset();
    auto out = prims::pack_blocks<std::uint64_t>(
        v.size(),
        [&](std::size_t b, std::size_t e, std::uint64_t* o) {
          std::size_t w = 0;
          for (std::size_t i = b; i < e; ++i)
            if (v[i] % 3 == 0) o[w++] = v[i];
          return w;
        },
        arena);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackBlocks)->Range(1 << 14, 1 << 22);

void BM_RadixSort64(benchmark::State& state) {
  auto v = make_values(static_cast<std::size_t>(state.range(0)), ~0ull);
  for (auto _ : state) {
    auto copy = v;
    prims::radix_sort(copy, [](std::uint64_t x) { return x; }, 64);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixSort64)->Range(1 << 14, 1 << 21);

void BM_GroupBy(benchmark::State& state) {
  using KV = prims::KeyValue<std::uint32_t, std::uint32_t>;
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto keys = make_values(n, n / 16 + 1);
  std::vector<KV> input(n);
  for (std::size_t i = 0; i < n; ++i)
    input[i] = KV{static_cast<std::uint32_t>(keys[i]),
                  static_cast<std::uint32_t>(i)};
  ScratchArena arena;
  for (auto _ : state) {
    arena.reset();
    auto pairs = arena.alloc<KV>(n);  // group_by reorders its pairs
    std::copy(input.begin(), input.end(), pairs.begin());
    auto g = prims::group_by(pairs, arena, n / 16 + 1);
    benchmark::DoNotOptimize(g.values.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupBy)->Range(1 << 14, 1 << 20);

void BM_RandomPermutation(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto p = prims::random_permutation(
        static_cast<std::size_t>(state.range(0)), seed++);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RandomPermutation)->Range(1 << 14, 1 << 20);

}  // namespace

BENCHMARK_MAIN();
