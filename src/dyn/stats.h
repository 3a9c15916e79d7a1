// dyn/stats.h -- observable counters for the batch-dynamic matcher. These
// are what the experiment harnesses (DESIGN.md Section 4) read: E1/E2
// divide work_units and samples_created by total_updates() to check the
// amortized O(1) / O(r^3) claims, E3 reads the per-batch depth counters
// against the O(log^3 m) bound, E10 reads stolen/bloated to show the lazy
// machinery engaging.
#pragma once

#include <cstddef>

namespace parmatch::dyn {

struct CumulativeStats {
  std::size_t inserts = 0;          // edges inserted
  std::size_t deletes = 0;          // edges deleted
  std::size_t work_units = 0;       // edges touched across all phases
  std::size_t samples_created = 0;  // random priorities drawn
  std::size_t settle_rounds = 0;    // settle reserve/commit rounds, all
                                    // batches
  std::size_t steal_rounds = 0;     // steal reserve/commit rounds, all
                                    // batches
  std::size_t spec_retries = 0;     // deterministic-reservations retries
                                    // (prims/speculative_for.h) across the
                                    // settle, steal, and greedy engines
  std::size_t stolen = 0;           // matches displaced by a lower-priority
                                    // inserted edge (greedy-order repair)
  std::size_t bloated = 0;          // matches resettled because their
                                    // neighborhood outgrew the level bound
  std::size_t max_batch_depth = 0;  // deepest measured batch span so far
  std::size_t fused_batches = 0;    // non-empty batches whose size k is
                                    // at or below the cost model's cutover
                                    // (parallel::run_phase_seq(k));
                                    // perfbench reports the share as
                                    // fused_frac. Their phases over at
                                    // most k items and insert P2 run
                                    // inline; settle, steal and greedy
                                    // phases larger than the cutover still
                                    // fork, and so does a settle harvest
                                    // that scans more incidences than it.
                                    // Execution diagnostics only: this is
                                    // the ONE counter that legitimately
                                    // differs across PARMATCH_EXEC_MODE
                                    // settings (tests/test_exec_modes.cpp
                                    // excludes it from the bit-identical
                                    // contract).

  std::size_t total_updates() const { return inserts + deletes; }
};

// Per-batch observables, reset at the start of every insert/delete batch.
// measured_depth is instrumented span, not a proxy: every data-parallel
// phase the batch launches charges parallel::model_depth(n) -- the
// binary-forking fork-tree depth over its n items -- so the value is
// (phases executed) x (primitive depth), the quantity Theorem 1.1 bounds
// by O(log^3 m) whp.
struct BatchStats {
  std::size_t settle_rounds = 0;      // settle reserve/commit rounds
  std::size_t steal_rounds = 0;       // steal reserve/commit rounds
  std::size_t spec_retries = 0;       // reservation retries, all engines
  std::size_t max_greedy_rounds = 0;  // deepest greedy invocation this batch
  std::size_t parallel_phases = 0;    // data-parallel phase launches
  std::size_t measured_depth = 0;     // sum of model_depth over phases
};

}  // namespace parmatch::dyn
