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

// True when the pool has exactly one worker (PARMATCH_NUM_THREADS=1 or a
// 1-core host). Parallel phases then run inline on the caller, so hot loops
// may take plain-memory fallbacks for their CAS/fetch-add sites -- the
// results are identical by the determinism contract (DESIGN.md S2), but the
// lock-prefixed instructions are pure overhead without concurrency.
inline bool sequential_mode() { return num_workers() == 1; }

// Default grain targets ~8 chunks per worker available to THIS loop's
// root: when R top-level roots share the pool (DESIGN.md S10) each sees
// ~P/R effective workers, so the grain coarsens and the fork tree shrinks
// instead of flooding the shared deques with chunks nobody is free to
// steal. Chunking never affects results (determinism contract, S2), only
// the schedule.
inline std::size_t default_grain(std::size_t n) {
  Scheduler& s = Scheduler::instance();
  std::size_t p = static_cast<std::size_t>(s.workers());
  int roots = s.active_roots() + (Scheduler::inside_pool() ? 0 : 1);
  if (roots > 1) {
    p /= static_cast<std::size_t>(roots);
    if (p == 0) p = 1;
  }
  std::size_t g = n / (8 * p) + 1;
  return g < 2048 ? g : 2048;
}

// f(begin, end) over [lo, hi) in chunks. Adaptive: when the cost model says
// a phase of this size cannot amortize the fork/join launch
// (parallel/cost_model.h), the whole range is delivered as one inline chunk
// on the calling thread -- same contract as the 1-worker fast path, so the
// blocked primitives need no changes.
template <typename F>
void parallel_for_blocked(std::size_t lo, std::size_t hi, F&& f,
                          std::size_t grain = 0) {
  if (hi <= lo) return;
  std::size_t n = hi - lo;
  if (run_phase_seq(n)) {
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
