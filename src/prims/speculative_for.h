// prims/speculative_for.h -- the deterministic-reservations fixed-point
// engine (Blelloch-Fineman-Gibbons-Shun, "Internally deterministic parallel
// algorithms can be fast"; parlaylib's speculative_for is the reference
// idiom). A computation over items [start, end) where each item wants to
// acquire a set of shared slots and perform a commit, and conflicts are
// resolved BY ITEM INDEX: lower index always wins, so the final state is
// exactly what a sequential loop over the items in index order would
// produce, regardless of thread count, schedule, or prefix size.
//
// The engine runs rounds over a sliding prefix of the index range. Each
// round has three data-parallel phases plus one sequential bookkeeping
// sweep, all over the current prefix:
//
//   1. reserve:  step.reserve(i, frontier) inspects shared state and either
//                finishes the item (kDone), asks to be retried without
//                competing (kRetry), or writes index-min reservations into
//                its slots and asks for a commit attempt (kTryCommit).
//                `frontier` is true exactly for the lowest still-active
//                index, i.e. when every lower item has already finished --
//                the one situation where "blocked right now" is known to be
//                "blocked in the sequential order" (the steal consumer's
//                drop rule).
//   2. commit:   step.commit(i) checks its reservations; holding every slot
//                means no lower-index item in flight competes for them, so
//                the item may apply any vertex-/slot-local writes and
//                return true. Losers release the slots they hold and return
//                false (retried next round).
//   3. finalize: step.finalize(i), sequentially in ascending index order,
//                for every item whose commit succeeded -- the hook for
//                order-sensitive bookkeeping (list appends, delta sinks,
//                keyed redraws) that must not run inside a forked phase.
//   4. pack:     failed items are packed, order-preserving, into the retry
//                queue and lead the next round's prefix; fresh indices
//                refill the tail. Progress is guaranteed: the frontier item
//                either finishes in reserve or wins every slot it wants.
//
// Round structure is a pure function of (items, shared state, prefix cap):
// the retry queue is packed in index order and reservations are
// commutative min-writes, so rounds, retries, and every step decision are
// bit-identical across thread counts and PARMATCH_EXEC_MODE settings. The
// prefix cap -- max(n / grain + 1, kMinSpecPrefix), parlay's granularity
// rule with a small-input floor -- IS part of the trajectory (a retried
// item may key RNG draws by round), so its grain is a compile-time
// constant (or the caller's explicit argument), never machine-derived.
//
// Execution strategy (DESIGN.md S11): each round consults
// parallel::run_spec_round_seq(size) once; up to parallel::kSpecCutover
// (2048) items all three phases run inline with plain memory ops, above it
// they fork, with the reservation helpers switching between plain
// min-writes and CAS-min on std::atomic_ref. Scratch (two retry queues, the
// status bytes, the pack counters) is carved from a caller ScratchArena
// once per invocation, so a warm engine allocates nothing
// (tests/test_alloc_free.cpp).
//
// Complexity contract: O(n + retries) work; each round charges
// kSpecRoundPhases * model_depth(prefix) of measured depth through the
// optional depth pointer. Expected retries are O(n) for the matching-style
// consumers (a conflict loser's competitor committed, so conflicts halve).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>

#include "parallel/cost_model.h"
#include "parallel/parallel_for.h"
#include "prims/filter.h"
#include "util/scratch_arena.h"

namespace parmatch::prims {

// What reserve(i) tells the engine (see the round anatomy above).
enum class SpecStatus : std::uint8_t {
  kDone = 0,       // finished: already satisfied / nothing left to want
  kRetry = 1,      // cannot decide yet; retry next round without reserving
  kTryCommit = 2,  // reservations written; attempt commit this round
};

struct SpecStats {
  std::size_t rounds = 0;     // reserve/commit rounds executed
  std::size_t retries = 0;    // item-rounds carried into a retry queue
  std::size_t committed = 0;  // items whose commit succeeded
};

// Phases charged per round (reserve + commit + retry pack; the sequential
// finalize sweep rides the commit charge like every other sequential
// bookkeeping site).
inline constexpr std::size_t kSpecRoundPhases = 3;

// Granularity: the prefix cap is max(n / grain + 1, kMinSpecPrefix),
// so `grain` is roughly the number of rounds a large conflict-free run
// takes. Small grain = wide prefixes = more parallelism but more
// speculation; large grain = narrow prefixes closer to the sequential
// order. The floor keeps small inputs (the latency-serving regime's k<=64
// batches) in a single round instead of degenerating to one item per
// round. The default follows parlay's granularity rule-of-thumb. Because
// the prefix shape is part of the deterministic trajectory, neither value
// may ever be machine-derived.
inline constexpr std::size_t kDefaultSpecGrain = 8;
inline constexpr std::size_t kMinSpecPrefix = 64;

inline std::size_t spec_prefix_cap(std::size_t n, std::size_t grain) {
  std::size_t cap = n / (grain == 0 ? kDefaultSpecGrain : grain) + 1;
  return cap < kMinSpecPrefix ? kMinSpecPrefix : cap;
}

// ---- reservation slot helpers -------------------------------------------
//
// A slot is any 32-bit cell whose empty value is kEmptySpecSlot (which
// doubles as graph::kInvalidEdge, so VertexHot::min_edge serves directly as
// a reservation slot). Reservations are index-min writes: plain memory when
// the round runs inline (`seq`), CAS-min otherwise -- both converge to the
// same minimum, the determinism contract's usual pairing.

inline constexpr std::uint32_t kEmptySpecSlot = 0xFFFF'FFFFu;

inline void reserve_slot(std::uint32_t& slot, std::uint32_t idx, bool seq) {
  if (seq) {
    if (idx < slot) slot = idx;  // empty is the max value, so min-write
    return;
  }
  std::atomic_ref<std::uint32_t> a(slot);
  std::uint32_t cur = a.load(std::memory_order_relaxed);
  while (idx < cur) {
    if (a.compare_exchange_weak(cur, idx, std::memory_order_acq_rel)) break;
  }
}

inline bool slot_holds(const std::uint32_t& slot, std::uint32_t idx,
                       bool seq) {
  if (seq) return slot == idx;
  return std::atomic_ref<const std::uint32_t>(slot).load(
             std::memory_order_acquire) == idx;
}

// Release a slot this item holds. Safe concurrently with other items'
// slot_holds reads: the slot can only transition idx -> empty, and every
// reader compares against its OWN index, so observing either value yields
// the correct (losing) answer.
inline void release_slot(std::uint32_t& slot, bool seq) {
  if (seq) {
    slot = kEmptySpecSlot;
    return;
  }
  std::atomic_ref<std::uint32_t>(slot).store(kEmptySpecSlot,
                                             std::memory_order_release);
}

// ---- the engine ---------------------------------------------------------
//
// Step contract (all four members required):
//   void begin_round(std::uint64_t round, bool seq);
//       Sequential, once per round before the reserve phase. `round` is
//       0-based within this invocation; `seq` tells the step which memory
//       discipline the round's phases will use (pass it to the slot
//       helpers). Typical use: bump a round epoch for keyed RNG draws.
//   SpecStatus reserve(std::size_t i, bool frontier);
//   bool commit(std::size_t i);   // true = success (finalize follows)
//   void finalize(std::size_t i); // sequential, ascending, successes only
//
// `grain` 0 means kDefaultSpecGrain. `depth` (optional)
// accumulates kSpecRoundPhases * model_depth(prefix) per round.
template <typename Step>
SpecStats speculative_for(Step& step, std::size_t start, std::size_t end,
                          ScratchArena& arena, std::size_t grain = 0,
                          std::size_t* depth = nullptr) {
  SpecStats st;
  if (end <= start) return st;
  std::size_t n = end - start;
  if (end >= kEmptySpecSlot) {
    // Item indices are written into 32-bit reservation slots; past the
    // empty sentinel the cast truncates and reservations silently collide,
    // so fail loudly in every build instead of assert-only.
    std::fprintf(stderr,
                 "parmatch: speculative_for range end %zu does not fit the "
                 "32-bit reservation slots\n",
                 end);
    std::abort();
  }
  std::size_t cap = spec_prefix_cap(n, grain);
  if (cap > n) cap = n;
  // Ping-pong retry queues + per-item round status, allocated once. The
  // pack grain is captured here and reused for every round: default_grain
  // is non-monotone in n, so sizing the counters from one call and packing
  // with another could need more blocks than were allocated.
  auto carry_a = arena.alloc<std::uint32_t>(cap);
  auto carry_b = arena.alloc<std::uint32_t>(cap);
  auto status = arena.alloc<std::uint8_t>(cap);
  std::size_t pack_grain = parallel::default_grain(cap);
  std::size_t max_blocks = (cap + pack_grain - 1) / pack_grain;
  auto counts = arena.alloc<std::size_t>(max_blocks);

  // Status bytes: SpecStatus::kDone (0) and kRetry (1) pass through; a
  // successful commit rewrites kTryCommit to kStCommitted. Done bytes are
  // never inspected again, so only the latter two get named here.
  constexpr std::uint8_t kStRetry = 1, kStCommitted = 3;
  std::uint32_t* cur = carry_a.data();
  std::uint32_t* nxt = carry_b.data();
  std::size_t nkeep = 0;
  std::size_t next = start;
  std::uint64_t round = 0;

  while (nkeep > 0 || next < end) {
    std::size_t size = nkeep + (end - next);
    if (size > cap) size = cap;
    std::size_t fresh = size - nkeep;
    const bool seq = parallel::run_spec_round_seq(size);
    step.begin_round(round, seq);
    // The retry queue is packed in index order and every retried index is
    // below `next`, so item(0) is the globally lowest active index.
    auto item = [&](std::size_t i) -> std::size_t {
      return i < nkeep ? cur[i] : next + (i - nkeep);
    };
    if (seq) {
      for (std::size_t i = 0; i < size; ++i)
        status[i] = static_cast<std::uint8_t>(step.reserve(item(i), i == 0));
      for (std::size_t i = 0; i < size; ++i)
        if (status[i] == static_cast<std::uint8_t>(SpecStatus::kTryCommit))
          status[i] = step.commit(item(i)) ? kStCommitted : kStRetry;
    } else {
      parallel::parallel_for_blocked(0, size,
                                     [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          status[i] =
              static_cast<std::uint8_t>(step.reserve(item(i), i == 0));
      });
      parallel::parallel_for_blocked(0, size,
                                     [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          if (status[i] == static_cast<std::uint8_t>(SpecStatus::kTryCommit))
            status[i] = step.commit(item(i)) ? kStCommitted : kStRetry;
      });
    }
    for (std::size_t i = 0; i < size; ++i)
      if (status[i] == kStCommitted) {
        step.finalize(item(i));
        ++st.committed;
      }
    // Pack the retries (order-preserving, so the queue stays index-sorted).
    std::size_t kept;
    if (seq) {
      kept = 0;
      for (std::size_t i = 0; i < size; ++i)
        if (status[i] == kStRetry)
          nxt[kept++] = static_cast<std::uint32_t>(item(i));
    } else {
      std::size_t blocks = (size + pack_grain - 1) / pack_grain;
      auto keep = [&](std::size_t i) { return status[i] == kStRetry; };
      kept =
          detail::pack_offsets(size, pack_grain, counts.first(blocks), keep);
      detail::pack_scatter(
          size, pack_grain,
          std::span<const std::size_t>(counts.first(blocks)), nxt, keep,
          [&](std::size_t i) {
            return static_cast<std::uint32_t>(item(i));
          });
    }
    if (depth) *depth += kSpecRoundPhases * parallel::model_depth(size);
    st.retries += kept;
    ++st.rounds;
    ++round;
    next += fresh;
    nkeep = kept;
    std::swap(cur, nxt);
  }
  return st;
}

}  // namespace parmatch::prims
