// micro/scheduler -- substrate costs of the work-stealing fork/join pool
// (DESIGN.md S2): fork/join launch overhead across loop sizes, nested
// parallel_for (which the old shared-cursor pool flattened to sequential),
// and skewed per-iteration grains (stealing balance). Table bench with
// --seed/--json like E1-E10 so runs land in the BENCH_*.json trajectory.
//
// It forces ExecMode::kParallel: in adaptive mode every loop up to
// parallel::kPhaseCutover items runs inline, so the forkjoin rows at small
// n, the nested rows and the skewed row would time a plain loop. Forced,
// every row forks, and the us/launch column at small n is the pool's
// fork/join launch + join cost.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "parallel/cost_model.h"
#include "parallel/parallel_for.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace parmatch;
using namespace parmatch::bench;

namespace {

// A body heavy enough that the loop cannot be optimized out, cheap enough
// that launch overhead is visible at small n.
inline std::uint64_t spin(std::uint64_t x, int iters) {
  for (int i = 0; i < iters; ++i) x = hash64(x, i);
  return x;
}

double time_best_of(int reps, double (*fn)(std::size_t), std::size_t n) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    double t = fn(n);
    if (t < best) best = t;
  }
  return best;
}

std::atomic<std::uint64_t> g_sink{0};

double flat_parallel(std::size_t n) {
  std::vector<std::uint64_t> out(n);
  Timer t;
  parallel::parallel_for(0, n, [&](std::size_t i) { out[i] = spin(i, 8); });
  double s = t.elapsed();
  g_sink += out[n / 2];
  return s;
}

double flat_sequential(std::size_t n) {
  std::vector<std::uint64_t> out(n);
  Timer t;
  for (std::size_t i = 0; i < n; ++i) out[i] = spin(i, 8);
  double s = t.elapsed();
  g_sink += out[n / 2];
  return s;
}

double nested_parallel(std::size_t n) {  // n = inner size, 32 outer rows
  constexpr std::size_t kOuter = 32;
  std::vector<std::uint64_t> out(kOuter * n);
  Timer t;
  parallel::parallel_for(
      0, kOuter,
      [&](std::size_t i) {
        parallel::parallel_for(0, n, [&](std::size_t j) {
          out[i * n + j] = spin(i * n + j, 8);
        });
      },
      1);
  double s = t.elapsed();
  g_sink += out[n];
  return s;
}

double skewed_parallel(std::size_t n) {
  // Iteration i costs ~i units: the triangular profile that starves a
  // static partition and exercises range stealing.
  std::vector<std::uint64_t> out(n);
  Timer t;
  parallel::parallel_for(
      0, n,
      [&](std::size_t i) { out[i] = spin(i, static_cast<int>(i % 512)); },
      16);
  double s = t.elapsed();
  g_sink += out[n / 2];
  return s;
}

double skewed_sequential(std::size_t n) {
  std::vector<std::uint64_t> out(n);
  Timer t;
  for (std::size_t i = 0; i < n; ++i)
    out[i] = spin(i, static_cast<int>(i % 512));
  double s = t.elapsed();
  g_sink += out[n / 2];
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench_init(argc, argv, "micro_scheduler");
  parallel::set_exec_mode(parallel::ExecMode::kParallel);
  std::printf(
      "micro/scheduler: fork/join substrate costs at %d workers.\n"
      "  forkjoin: parallel_for vs plain loop (launch overhead + per-item)\n"
      "  nested:   32 outer x n inner forked loops (old pool: sequential)\n"
      "  skewed:   triangular per-iteration cost, grain 16\n\n",
      parallel::num_workers());

  Table table({"case", "n", "us/launch", "ns/item", "speedup_vs_seq"});
  for (std::size_t n : {1u << 10, 1u << 14, 1u << 18}) {
    double seq = time_best_of(5, flat_sequential, n);
    double par = time_best_of(5, flat_parallel, n);
    table.row({"forkjoin", Table::num(n), Table::num(par * 1e6, 2),
               Table::num(par * 1e9 / static_cast<double>(n), 2),
               Table::num(seq / par, 2)});
  }
  for (std::size_t n : {1u << 8, 1u << 12}) {
    double seq = time_best_of(5, flat_sequential, 32 * n);
    double par = time_best_of(5, nested_parallel, n);
    table.row({"nested", Table::num(n), Table::num(par * 1e6, 2),
               Table::num(par * 1e9 / static_cast<double>(32 * n), 2),
               Table::num(seq / par, 2)});
  }
  {
    std::size_t n = 1u << 14;
    double seq = time_best_of(5, skewed_sequential, n);
    double par = time_best_of(5, skewed_parallel, n);
    table.row({"skewed", Table::num(n), Table::num(par * 1e6, 2),
               Table::num(par * 1e9 / static_cast<double>(n), 2),
               Table::num(seq / par, 2)});
  }
  std::printf("\n(sink %llu)\n",
              static_cast<unsigned long long>(g_sink.load()));
  return 0;
}
