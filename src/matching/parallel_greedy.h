// matching/parallel_greedy.h -- parallelGreedyMatch (paper Lemma 1.3 /
// Theorem 3.2): maximal hypergraph matching by random priorities, computed
// as exactly the sequential greedy matching for those priorities.
//
// The claim loop is an instance of the deterministic-reservations engine
// (prims/speculative_for.h): the active edges are sorted by (priority, id)
// -- two stable radix passes, O(n) work -- and the engine runs reserve/
// commit rounds over a sliding prefix of that order. An edge reserves every
// endpoint's VertexHot::min_edge slot with its ORDER INDEX (index-min =
// priority-min, because the prefix order IS the priority order); holding
// all slots at commit means no better in-flight edge wants any endpoint,
// so the edge matches and takes its vertices. Losers retry in the next
// round's prefix; edges that see a taken endpoint drop out. Lower index
// always winning makes the result sequentially equivalent, and O(log m)
// rounds whp follow from Fischer-Noever exactly as for the local-minima
// formulation.
//
// Per-vertex state lives in the packed VertexHot record
// (matching/vertex_hot.h): taken_by and the min_edge reservation slot share
// a cache line. Execution strategy per round comes from
// parallel::run_spec_round_seq (fused plain-memory rounds up to
// parallel::kSpecCutover items, forked phases with CAS-min reservations
// above); either way the matching, rounds, and retries are bit-identical.
//
// Complexity contract: O(m' + retries) work with E[retries] = O(m'), depth
// O(log^2 m') whp: O(log m') rounds of O(log) span phases.
// greedy_match_rounds is the reusable core the dynamic matcher drives with
// its own persistent vertex state.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/edge.h"
#include "graph/edge_pool.h"
#include "matching/match_result.h"
#include "matching/vertex_hot.h"
#include "parallel/parallel_for.h"
#include "prims/radix_sort.h"
#include "prims/speculative_for.h"
#include "util/rng.h"
#include "util/scratch_arena.h"

namespace parmatch::matching {

namespace detail {

// (priority, id) lexicographic compare so ties cannot double-match a vertex.
inline bool beats(std::uint64_t pa, graph::EdgeId a, std::uint64_t pb,
                  graph::EdgeId b) {
  return pa < pb || (pa == pb && a < b);
}

// The greedy claim loop's reservation step (contract in
// prims/speculative_for.h). Items are positions in the (priority, id)-
// sorted order, so index-min reservations implement priority-min claims.
struct GreedyClaimStep {
  const graph::EdgePool& pool;
  std::span<const graph::EdgeId> order;
  VertexHot* vstate;
  std::vector<graph::EdgeId>* matched_out;
  bool seq = true;

  void begin_round(std::uint64_t, bool s) { seq = s; }

  prims::SpecStatus reserve(std::size_t i, bool) {
    graph::EdgeId e = order[i];
    // taken_by is stable within a round (written only in commit, behind a
    // phase barrier), so this read is race-free and mode-identical.
    for (graph::VertexId v : pool.vertices(e))
      if (vstate[v].taken_by != graph::kInvalidEdge)
        return prims::SpecStatus::kDone;
    for (graph::VertexId v : pool.vertices(e))
      prims::reserve_slot(vstate[v].min_edge, static_cast<std::uint32_t>(i),
                          seq);
    return prims::SpecStatus::kTryCommit;
  }

  bool commit(std::size_t i) {
    graph::EdgeId e = order[i];
    auto idx = static_cast<std::uint32_t>(i);
    bool owns = true;
    for (graph::VertexId v : pool.vertices(e))
      owns = owns && prims::slot_holds(vstate[v].min_edge, idx, seq);
    // Release every slot this edge holds (the winner holds all of them),
    // restoring the min_edge == kInvalidEdge invariant for the next round;
    // slots this edge lost are the new owner's to release.
    for (graph::VertexId v : pool.vertices(e))
      if (owns || prims::slot_holds(vstate[v].min_edge, idx, seq))
        prims::release_slot(vstate[v].min_edge, seq);
    if (!owns) return false;
    // Winners are vertex-disjoint (each owned ALL its slots), so the
    // taken_by writes are unconcurrent even in a forked commit phase.
    for (graph::VertexId v : pool.vertices(e)) vstate[v].taken_by = e;
    return true;
  }

  void finalize(std::size_t i) {
    if (matched_out) matched_out->push_back(order[i]);
  }
};

}  // namespace detail

// Phases charged for the (priority, id) ordering sort: an id-width radix
// pass (1x the 32-bit radix model) plus a full 64-bit priority pass (2x)
// -- the same charging convention as the dynamic matcher's steal-order
// sort, so measured_depth compares across the two claim loops.
inline constexpr std::size_t kGreedySortPhases = 3 * prims::kRadixSortPhases32;

// Runs the deterministic-reservations claim loop over `active` against
// caller-owned vertex state.
//  * pri(e)      -- priority of edge e (stable within the call);
//  * vstate      -- packed per-vertex records, sized >= pool.vertex_bound();
//                   taken_by of newly matched edges is written; min_edge
//                   must be kInvalidEdge on entry and is restored on exit;
//  * matched_out -- newly matched ids are appended (if non-null) in commit
//                   order: ascending (priority, id) within each engine
//                   round (a retried edge can land after a later-sorted one
//                   that committed a round earlier);
//  * arena       -- scratch for the sort and the engine's retry queues; the
//                   caller must keep it alive (and not reset it) for the
//                   duration of the call;
//  * work        -- accumulates item-rounds processed, n + retries (if
//                   non-null);
//  * depth       -- accumulates measured span (if non-null): the ordering
//                   sort plus prims::kSpecRoundPhases primitives per
//                   engine round, regardless of execution strategy;
//  * retries     -- accumulates the engine's retry count (if non-null).
// Returns the number of reserve/commit rounds. Allocation-free given warm
// buffers: all scratch comes from the arena, matched_out reuses capacity.
template <typename PriFn>
std::size_t greedy_match_rounds(const graph::EdgePool& pool,
                                std::span<const graph::EdgeId> active,
                                PriFn&& pri, std::vector<VertexHot>& vstate,
                                std::vector<graph::EdgeId>* matched_out,
                                ScratchArena& arena,
                                std::size_t* work = nullptr,
                                std::size_t* depth = nullptr,
                                std::size_t* retries = nullptr) {
  using graph::EdgeId;
  std::size_t n = active.size();
  if (n == 0) return 0;
  if (work) *work += n;
  if (n == 1) {
    // A lone candidate claims every (free, by the caller's contract)
    // endpoint unopposed: the whole engine collapses to the commit. Taken
    // in every exec mode, so counters stay mode-identical -- the k=1
    // serving fast path (DESIGN.md S11).
    EdgeId e = active[0];
    for (graph::VertexId v : pool.vertices(e)) vstate[v].taken_by = e;
    if (matched_out) matched_out->push_back(e);
    if (depth) *depth += prims::kSpecRoundPhases * parallel::model_depth(1);
    return 1;
  }
  // Prefix order = priority order: copy, then two stable radix passes
  // (by id, then by priority) give ascending (pri, id). The engine's
  // index-min reservations are then exactly priority-min claims.
  auto order = arena.alloc<EdgeId>(n);
  parallel::parallel_for_blocked(0, n, [&](std::size_t b, std::size_t e) {
    std::memcpy(order.data() + b, active.data() + b, (e - b) * sizeof(EdgeId));
  });
  int id_bits = pool.id_bound() <= 1
                    ? 1
                    : static_cast<int>(std::bit_width(pool.id_bound() - 1));
  prims::radix_sort(
      std::span<EdgeId>(order),
      [](EdgeId e) { return static_cast<std::uint64_t>(e); }, id_bits, arena);
  prims::radix_sort(
      std::span<EdgeId>(order), [&](EdgeId e) { return pri(e); }, 64, arena);
  if (depth) *depth += kGreedySortPhases * parallel::model_depth(n);
  detail::GreedyClaimStep step{pool, order, vstate.data(), matched_out};
  prims::SpecStats st = prims::speculative_for(step, 0, n, arena, 0, depth);
  if (work) *work += st.retries;
  if (retries) *retries += st.retries;
  return st.rounds;
}

// Vector-friendly wrapper (static matcher and tests): scratch comes from a
// call-local arena.
template <typename PriFn>
std::size_t greedy_match_rounds(const graph::EdgePool& pool,
                                std::vector<graph::EdgeId> active,
                                PriFn&& pri, std::vector<VertexHot>& vstate,
                                std::vector<graph::EdgeId>* matched_out,
                                std::size_t* work = nullptr,
                                std::size_t* depth = nullptr) {
  ScratchArena arena;
  return greedy_match_rounds(pool, std::span<const graph::EdgeId>(active),
                             pri, vstate, matched_out, arena, work, depth);
}

// Static maximal matching over `ids` with fresh priorities drawn from
// `seed`. Fills the full MatchResult contract (samples + eliminators).
inline MatchResult parallel_greedy_match(const graph::EdgePool& pool,
                                         const std::vector<graph::EdgeId>& ids,
                                         std::uint64_t seed) {
  using graph::EdgeId;
  using graph::kInvalidEdge;
  MatchResult r;
  r.samples.assign(pool.id_bound(), kNoSample);
  r.eliminator.assign(pool.id_bound(), kInvalidEdge);
  parallel::parallel_for(0, ids.size(), [&](std::size_t i) {
    r.samples[ids[i]] = parmatch::hash64(seed, ids[i]);
  });
  std::vector<VertexHot> vstate(pool.vertex_bound());
  r.rounds = greedy_match_rounds(
      pool, ids, [&](EdgeId e) { return r.samples[e]; }, vstate, &r.matched);
  std::sort(r.matched.begin(), r.matched.end());
  // Eliminators: for an unmatched edge, the minimum-priority matched edge at
  // any of its vertices (it exists, else the edge would have matched).
  parallel::parallel_for(0, ids.size(), [&](std::size_t i) {
    EdgeId e = ids[i];
    EdgeId elim = kInvalidEdge;
    for (graph::VertexId v : pool.vertices(e)) {
      EdgeId t = vstate[v].taken_by;
      if (t == kInvalidEdge) continue;
      if (t == e) {
        elim = e;
        break;
      }
      if (elim == kInvalidEdge ||
          detail::beats(r.samples[t], t, r.samples[elim], elim))
        elim = t;
    }
    r.eliminator[e] = elim;
  });
  return r;
}

}  // namespace parmatch::matching
