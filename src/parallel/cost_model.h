// parallel/cost_model.h -- the adaptive batch-execution switch (DESIGN.md
// S11). The paper's bounds are batch-size-agnostic, but a real fork/join
// pool charges a fixed launch + barrier latency per data-parallel phase.
// For a phase over n items that tax only pays off past a machine-dependent
// crossover; below it the phase should run inline on the driver thread with
// plain memory operations. This header owns that decision:
//
//  * ExecMode -- the process-wide execution policy. kAdaptive (default)
//    consults the calibrated cost model per phase; kSequential forces every
//    phase inline (one block per phase body); kParallel forces the
//    work-stealing path regardless of size. Resolved once from
//    PARMATCH_EXEC_MODE ("adaptive" | "seq"/"sequential" |
//    "par"/"parallel"); set_exec_mode() overrides it programmatically
//    (tests compare all three modes for bit-identical trajectories).
//
//  * CostModel -- calibrated once per process, lazily, on the first
//    adaptive-mode query of a multi-worker pool. The micro-probe measures
//    (a) the per-item cost of a trivial memory-touching loop body and
//    (b) the median launch + join latency of a forked loop across the
//    pool's workers, then solves n* = launch / (item * (1 - 1/P)) -- the
//    size where parallel execution first breaks even -- clamped to
//    [kMinCutover, kMaxCutover]. PARMATCH_CUTOVER=n pins the crossover
//    (0 disables the sequential cutover entirely) for reproducible runs.
//
//  * run_phase_seq(n) -- the per-phase decision every parallel_for makes
//    (parallel/parallel_for.h consults it internally): true means the
//    phase WILL run inline on the calling thread, so loop bodies may take
//    their plain-memory fallbacks for CAS/fetch-add sites. The decision
//    never changes results -- the plain and atomic variants compute the
//    same values by the determinism contract (DESIGN.md S2) -- only the
//    schedule, so matchings and stats stay bit-identical across modes. It
//    is a function of n, the mode and the one calibrated cutover alone:
//    no concurrent caller can flip it between a body's question and its
//    parallel_for's.
//
// Complexity contract: run_phase_seq is O(1) after the one-time probe
// (~1 ms); calibration never runs on a 1-worker pool (the decision is
// forced there) or outside adaptive mode.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "parallel/scheduler.h"

namespace parmatch::parallel {

enum class ExecMode : int { kAdaptive = 0, kSequential = 1, kParallel = 2 };

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

class CostModel {
 public:
  static const CostModel& instance() {
    static CostModel cm;
    return cm;
  }

  // Phase sizes <= this run inline in adaptive mode. 0 disables the
  // sequential cutover (every phase takes the work-stealing path).
  std::size_t phase_cutover() const { return phase_cutover_; }

  // Probe readings (diagnostics; 0 when pinned by PARMATCH_CUTOVER or on a
  // 1-worker pool where the probe never runs).
  double launch_ns() const { return launch_ns_; }
  double item_ns() const { return item_ns_; }

  // True when PARMATCH_CUTOVER pinned the crossover: the speculative
  // cutover must then return the pin verbatim so a pinned run exercises
  // exactly one execution shape.
  bool pinned() const { return pinned_; }

  // Break-even for one reserve/commit round of the deterministic-
  // reservations engine (prims/speculative_for.h). The probe's trivial body
  // understates a speculation round by a large constant -- each item does a
  // keyed RNG draw, several shared-slot CAS/min-writes, and a candidate
  // prune, i.e. several times the per-item cost the phase crossover was
  // solved for -- so the true crossover sits lower by that body factor.
  // Dividing the calibrated cutover keeps the one-probe design (no second
  // calibration pass, nothing new to drift) while letting mid-size rounds
  // fork. The divided value is floored at kMinSpecCutover: below that the
  // launch tax dominates even an expensive body.
  std::size_t spec_cutover() const {
    std::size_t c = phase_cutover_;
    if (pinned_ || c == 0) return c;  // pin / "always fork" pass through
    c /= kSpecBodyFactor;
    return c < kMinSpecCutover ? kMinSpecCutover : c;
  }

 private:
  // Crossover clamps: below kMin the launch tax always dominates on any
  // plausible machine; above kMax even an expensive, cache-missy body has
  // amortized the launch, so the model must not keep big phases sequential
  // on the strength of a trivial-body probe.
  static constexpr std::size_t kMinCutover = 128;
  static constexpr std::size_t kMaxCutover = 1u << 15;
  // Speculation-round body cost relative to the probe body, and the floor
  // the divided cutover never drops below (see spec_cutover).
  static constexpr std::size_t kSpecBodyFactor = 4;
  static constexpr std::size_t kMinSpecCutover = 32;

  CostModel() {
    if (const char* env = std::getenv("PARMATCH_CUTOVER")) {
      phase_cutover_ = std::strtoull(env, nullptr, 10);
      pinned_ = true;
      return;
    }
    int p = Scheduler::instance().workers();
    if (p <= 1) return;  // run_phase_seq short-circuits; probe pointless
    calibrate(p);
  }

  static double now_ns() {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void calibrate(int p) {
    // (a) per-item cost of a trivial body over memory that fits in L1/L2:
    // the floor any real phase body sits above.
    constexpr std::size_t kItems = 1u << 14;
    std::vector<std::uint32_t> buf(kItems, 1);
    double best = 1e18;
    for (int rep = 0; rep < 8; ++rep) {
      double t0 = now_ns();
      for (std::size_t i = 0; i < kItems; ++i)
        buf[i] += static_cast<std::uint32_t>(i);
      double dt = now_ns() - t0;
      if (dt < best) best = dt;
    }
    item_ns_ = best / kItems;
    if (item_ns_ < 0.25) item_ns_ = 0.25;
    sink_ = buf[kItems / 2];

    // (b) launch + join latency of a real fork across the pool: grain 1
    // over a few items per worker forces the full fork tree, steals, and
    // the joining barrier. Median of repeated runs after a short warmup,
    // so the figure reflects a warm (spinning, not parked) pool -- the
    // steady state between consecutive phases of one batch. If another
    // thread holds the root meanwhile, the probe runs inline and the
    // cutover floors at kMinCutover: a slower schedule, never a different
    // result.
    const std::size_t n = static_cast<std::size_t>(p) * 4;
    auto launch_once = [&] {
      Scheduler::instance().run(n, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          std::atomic_ref<std::uint32_t>(buf[i])
              .fetch_add(1, std::memory_order_relaxed);
      });
    };
    constexpr int kWarmup = 16, kTimed = 64;
    for (int i = 0; i < kWarmup; ++i) launch_once();
    double samples[kTimed];
    for (int i = 0; i < kTimed; ++i) {
      double t0 = now_ns();
      launch_once();
      samples[i] = now_ns() - t0;
    }
    // Median by insertion sort (kTimed is tiny).
    for (int i = 1; i < kTimed; ++i) {
      double x = samples[i];
      int j = i;
      for (; j > 0 && samples[j - 1] > x; --j) samples[j] = samples[j - 1];
      samples[j] = x;
    }
    launch_ns_ = samples[kTimed / 2];

    // Break-even: sequential costs n*item, parallel launch + n*item/p.
    double star = launch_ns_ / (item_ns_ * (1.0 - 1.0 / p));
    std::size_t cut = static_cast<std::size_t>(star);
    if (cut < kMinCutover) cut = kMinCutover;
    if (cut > kMaxCutover) cut = kMaxCutover;
    phase_cutover_ = cut;
  }

  std::size_t phase_cutover_ = 0;
  bool pinned_ = false;
  double launch_ns_ = 0;
  double item_ns_ = 0;
  volatile std::uint32_t sink_ = 0;  // keeps the probe loops observable
};

namespace detail {

// run_phase_seq's answer for every n, folded into one bound: a phase of n
// items runs inline iff n <= the bound. Unbounded on a 1-worker pool and in
// sequential mode, 0 in parallel mode, the calibrated cutover in adaptive
// mode. Phase bodies ask the question several times per batch, so it is one
// load, not a walk over three lazily built singletons.
inline std::size_t inline_phase_bound(ExecMode m) {
  if (num_workers() == 1 || m == ExecMode::kSequential)
    return static_cast<std::size_t>(-1);
  if (m == ExecMode::kParallel) return 0;
  return CostModel::instance().phase_cutover();
}

inline std::atomic<std::size_t>& inline_phase_bound_slot() {
  static std::atomic<std::size_t> bound{inline_phase_bound(exec_mode())};
  return bound;
}

}  // namespace detail

// Programmatic override; takes effect for every subsequent phase. Changing
// the mode never changes results, so tests flip it mid-process to compare
// execution paths on one structure.
inline void set_exec_mode(ExecMode m) {
  detail::exec_mode_slot().store(static_cast<int>(m),
                                 std::memory_order_relaxed);
  detail::inline_phase_bound_slot().store(detail::inline_phase_bound(m),
                                          std::memory_order_relaxed);
}

// The per-phase decision: true when a phase of n items runs inline on the
// calling thread (so plain-memory fallbacks are safe), false when it takes
// the work-stealing path. parallel_for consults this internally; phase
// bodies that branch on it must pass the SAME n as their loop bound. The
// answer depends only on n, the mode and the calibrated cutover -- never on
// what other threads are doing -- so a body and the parallel_for it then
// calls always agree. (An empty phase counts as inline in every mode; no
// primitive runs one.)
inline bool run_phase_seq(std::size_t n) {
  return n <= detail::inline_phase_bound_slot().load(std::memory_order_relaxed);
}

// The per-round decision for the deterministic-reservations engine
// (prims/speculative_for.h): true means the round's reserve/commit/pack
// phases all run inline on the caller with plain memory ops (the engine's
// fused strategy), false means each phase forks. Identical shape to
// run_phase_seq but against the speculation-round break-even, whose body is
// several times the probe's (see CostModel::spec_cutover). Like every
// execution-mode decision this never changes results or the engine's
// round/retry counters -- a fused round replays the same reserve-all-then-
// commit-all phase order the forked round barriers into.
inline bool run_spec_round_seq(std::size_t n) {
  if (num_workers() == 1) return true;
  switch (exec_mode()) {
    case ExecMode::kSequential:
      return true;
    case ExecMode::kParallel:
      return false;
    case ExecMode::kAdaptive:
    default:
      return n <= CostModel::instance().spec_cutover();
  }
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
  if (Scheduler::instance().workers() == 1) return 0;
  switch (exec_mode()) {
    case ExecMode::kSequential:
      return 0;
    case ExecMode::kParallel:
      return 1;
    case ExecMode::kAdaptive:
    default: {
      std::size_t cut = CostModel::instance().phase_cutover();
      return cut == 0 ? 1 : cut + 1;
    }
  }
}

}  // namespace parmatch::parallel
