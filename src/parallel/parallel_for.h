// parallel/parallel_for.h -- the parallel loop every primitive and matcher
// phase is written against (DESIGN.md S2). parallel_for(lo, hi, f) applies
// f(i) to every index; parallel_for_blocked hands out [b, e) chunks when the
// body wants to keep per-chunk accumulators.
//
// Complexity contract: n iterations of an O(1) body cost O(n) work and
// O(grain + n/P) span; with PARMATCH_NUM_THREADS=1 both collapse to a plain
// loop.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>

#include "parallel/cost_model.h"
#include "parallel/scheduler.h"

namespace parmatch::parallel {

// Span of one data-parallel primitive over n items in the binary-forking
// model the paper assumes (Section 2): a balanced fork tree of depth
// ceil(log2 n) plus the constant body. The dynamic matcher charges this per
// phase to report measured per-batch depth (dyn/stats.h) instead of the old
// rounds-only proxy.
inline std::size_t model_depth(std::size_t n) {
  return n <= 1 ? 1 : 1 + static_cast<std::size_t>(std::bit_width(n - 1));
}

// Default grain targets ~8 chunks per worker. Chunking never affects
// results (determinism contract, S2), only the schedule.
inline std::size_t default_grain(std::size_t n) {
  std::size_t g = n / (8 * static_cast<std::size_t>(num_workers())) + 1;
  return g < 2048 ? g : 2048;
}

// parallel_for_blocked's default work argument: the phase's item count.
inline constexpr std::size_t kWorkIsItems = static_cast<std::size_t>(-1);

// f(begin, end) over [lo, hi) in chunks. Adaptive: a phase of at most
// kPhaseCutover work (parallel/cost_model.h), too little to amortize the
// fork/join launch, is delivered as one inline chunk on the calling thread
// -- same contract as the 1-worker fast path, so the blocked primitives
// need no changes. The work is hi - lo unless the caller passes `work`, for
// a phase whose items cost very different amounts (settle's harvest passes
// the incidences it will scan); a body that branches on run_phase_seq
// passes it the same value its loop passes.
template <typename F>
void parallel_for_blocked(std::size_t lo, std::size_t hi, F&& f,
                          std::size_t grain = 0,
                          std::size_t work = kWorkIsItems) {
  if (hi <= lo) return;
  std::size_t n = hi - lo;
  if (run_phase_seq(work == kWorkIsItems ? n : work)) {
    f(lo, hi);
    return;
  }
  if (grain == 0) grain = default_grain(n);
  Scheduler::instance().run(n, grain, [lo, &f](std::size_t b, std::size_t e) {
    f(lo + b, lo + e);
  });
}

// f(i) for every i in [lo, hi).
template <typename F>
void parallel_for(std::size_t lo, std::size_t hi, F&& f,
                  std::size_t grain = 0) {
  parallel_for_blocked(
      lo, hi,
      [&f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) f(i);
      },
      grain);
}

}  // namespace parmatch::parallel
