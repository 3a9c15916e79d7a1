// parallel/cost_model.h -- the adaptive batch-execution switch (DESIGN.md
// S11). The paper's bounds are batch-size-agnostic, but a real fork/join
// pool charges a fixed launch + barrier latency per data-parallel phase.
// For a phase over n items that tax only pays off past a crossover; below
// it the phase should run inline on the driver thread with plain memory
// operations. This header owns that decision:
//
//  * ExecMode -- the process-wide execution policy. kAdaptive (default)
//    compares each phase's size against the cutover; kSequential forces
//    every phase inline (one block per phase body); kParallel forces the
//    work-stealing path regardless of size. Resolved once from
//    PARMATCH_EXEC_MODE ("adaptive" | "seq"/"sequential" |
//    "par"/"parallel"); set_exec_mode() overrides it programmatically
//    (tests compare all three modes for bit-identical trajectories).
//
//  * kPhaseCutover / kSpecCutover -- the crossovers, fixed in the source
//    like parlay's speculative_for granularity: nothing is timed at
//    runtime, so every process of every machine runs one schedule.
//    PARMATCH_CUTOVER=n pins both to n (0 disables the sequential cutover
//    entirely) for reproducible runs; CostModel holds the pin or the
//    constants.
//
//  * run_phase_seq(work) -- the per-phase decision every parallel_for
//    makes (parallel/parallel_for.h consults it internally): true means
//    the phase WILL run inline on the calling thread, so loop bodies may
//    take their plain-memory fallbacks for CAS/fetch-add sites. A phase's
//    work is its item count unless its items differ widely in cost (settle's
//    harvest passes the incidences it scans). The decision never changes
//    results -- the plain and atomic variants compute the same values by
//    the determinism contract (DESIGN.md S2) -- only the schedule, so
//    matchings and stats stay bit-identical across modes. It is a function
//    of the work, the mode and the cutover alone: no concurrent caller can
//    flip it between a body's question and its parallel_for's.
//
// Complexity contract: run_phase_seq, run_spec_round_seq and
// parallel_break_even are each one relaxed load of a bound folded from the
// pool size, the mode and the cutover.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "parallel/scheduler.h"

namespace parmatch::parallel {

enum class ExecMode : int { kAdaptive = 0, kSequential = 1, kParallel = 2 };

// Phases of at most this much work run inline in adaptive mode. At 8192 a
// batch of up to 2^13 updates runs each of its per-update phases as one
// inline block; larger batches, and settle harvests that scan more
// incidences, fork.
// BENCH_cutover.json sweeps other values, BENCH_phased.json records the
// A/B that set this one.
inline constexpr std::size_t kPhaseCutover = 1u << 13;

// Rounds of the deterministic-reservations engine (prims/speculative_for.h)
// fork above this many items. Each item of a round does a keyed RNG draw,
// several shared-slot CAS/min-writes and a candidate prune, several times
// the work of a plain phase item, so the launch amortizes over fewer items.
inline constexpr std::size_t kSpecCutover = kPhaseCutover / 4;

namespace detail {

inline ExecMode parse_exec_mode(const char* s) {
  if (s == nullptr) return ExecMode::kAdaptive;
  if (std::strcmp(s, "seq") == 0 || std::strcmp(s, "sequential") == 0)
    return ExecMode::kSequential;
  if (std::strcmp(s, "par") == 0 || std::strcmp(s, "parallel") == 0)
    return ExecMode::kParallel;
  return ExecMode::kAdaptive;  // "adaptive" and anything unrecognized
}

inline std::atomic<int>& exec_mode_slot() {
  static std::atomic<int> mode{static_cast<int>(
      parse_exec_mode(std::getenv("PARMATCH_EXEC_MODE")))};
  return mode;
}

}  // namespace detail

// The process-wide execution policy (PARMATCH_EXEC_MODE at startup).
inline ExecMode exec_mode() {
  return static_cast<ExecMode>(
      detail::exec_mode_slot().load(std::memory_order_relaxed));
}

// The adaptive-mode cutovers: PARMATCH_CUTOVER's pin for both when it is
// set, kPhaseCutover and kSpecCutover otherwise.
class CostModel {
 public:
  static const CostModel& instance() {
    static CostModel cm;
    return cm;
  }

  // 0 disables the sequential cutover (every phase forks).
  std::size_t phase_cutover() const { return phase_cutover_; }
  std::size_t spec_cutover() const { return spec_cutover_; }

 private:
  CostModel() {
    if (const char* env = std::getenv("PARMATCH_CUTOVER"))
      phase_cutover_ = spec_cutover_ = std::strtoull(env, nullptr, 10);
  }

  std::size_t phase_cutover_ = kPhaseCutover;
  std::size_t spec_cutover_ = kSpecCutover;
};

namespace detail {

// The three decisions below, folded per mode into one bound each: a phase
// (or speculation round) of n items runs inline iff n <= its bound.
// Unbounded on a 1-worker pool and in sequential mode, 0 in parallel mode,
// the cutover in adaptive mode. Phase bodies ask several times per batch,
// so each answer is one load, not a walk over lazily built singletons.
constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

inline std::size_t inline_bound(ExecMode m, std::size_t cutover) {
  if (num_workers() == 1 || m == ExecMode::kSequential) return kUnbounded;
  return m == ExecMode::kParallel ? 0 : cutover;
}

inline std::atomic<std::size_t>& phase_bound_slot() {
  static std::atomic<std::size_t> bound{
      inline_bound(exec_mode(), CostModel::instance().phase_cutover())};
  return bound;
}

inline std::atomic<std::size_t>& spec_bound_slot() {
  static std::atomic<std::size_t> bound{
      inline_bound(exec_mode(), CostModel::instance().spec_cutover())};
  return bound;
}

}  // namespace detail

// Programmatic override; takes effect for every subsequent phase. Changing
// the mode never changes results, so tests flip it mid-process to compare
// execution paths on one structure.
inline void set_exec_mode(ExecMode m) {
  detail::exec_mode_slot().store(static_cast<int>(m),
                                 std::memory_order_relaxed);
  const CostModel& cm = CostModel::instance();
  detail::phase_bound_slot().store(detail::inline_bound(m, cm.phase_cutover()),
                                   std::memory_order_relaxed);
  detail::spec_bound_slot().store(detail::inline_bound(m, cm.spec_cutover()),
                                  std::memory_order_relaxed);
}

// The per-phase decision: true when a phase of this much work runs inline
// on the calling thread (so plain-memory fallbacks are safe), false when it
// takes the work-stealing path. parallel_for consults this internally; a
// body that branches on run_phase_seq passes the same value its loop passes
// (the item count, or the loop's work argument). The answer depends only on
// the work, the mode and the cutover -- never on what other threads are
// doing -- so a body and the parallel_for it then calls always agree. (Zero
// work counts as inline in every mode.)
inline bool run_phase_seq(std::size_t work) {
  return work <= detail::phase_bound_slot().load(std::memory_order_relaxed);
}

// The per-round decision for the deterministic-reservations engine
// (prims/speculative_for.h): true means the round's reserve/commit/pack
// phases all run inline on the caller with plain memory ops (the engine's
// fused strategy), false means each phase forks. Identical shape to
// run_phase_seq but against kSpecCutover. Like every execution-mode
// decision this never changes results or the engine's round/retry counters
// -- a fused round replays the same reserve-all-then-commit-all phase order
// the forked round barriers into.
inline bool run_spec_round_seq(std::size_t n) {
  return n <= detail::spec_bound_slot().load(std::memory_order_relaxed);
}

// The smallest phase size at which the work-stealing path is predicted to
// beat inline execution -- the dual question to run_phase_seq, asked by the
// serving layer's batch former (serve/batch_former.h, DESIGN.md S12): once
// a forming window reaches this size, waiting longer buys no per-update
// throughput (the fork/join path already amortizes its launch), it only
// adds ingest-to-commit latency, so the former flushes. Returns 0 when
// there is no such size (1-worker pool, or forced-sequential mode): then
// only the deadline and max-batch criteria flush.
inline std::size_t parallel_break_even() {
  // kUnbounded + 1 wraps to 0.
  return detail::phase_bound_slot().load(std::memory_order_relaxed) + 1;
}

}  // namespace parmatch::parallel
