// dyn/dynamic_matcher.h -- the paper's parallel batch-dynamic maximal
// matching structure (Sections 4-5): O(1) amortized work per update at rank
// 2 (O(r^3) general, Theorem 1.1) against an oblivious adversary, with
// O(log^3 m) depth per batch whp.
//
// The structure maintains, per vertex, a lazily compacted incidence list
// (graph/adjacency.h's chunked arena), and per live edge a random priority
// (its "sample"). Invariant after every batch: the matched set is maximal.
// The three mechanisms that make the amortized bound work:
//
//  * randomSettle (Section 4): when deletions free the vertices of a
//    matched edge, each freed vertex samples a uniformly random free
//    incident edge and the sampled edges run one claim round of
//    random-priority greedy; losers resample next round. Because the new
//    match is uniform over ~d candidates, an oblivious adversary needs ~d
//    more deletions in the neighborhood before it hits it, which pays for
//    the O(d) rescan (Lemma 3.3's 2-coins-per-early-delete argument --
//    matching/price_audit.h replays the static version of the accounting).
//
//  * levels with gap alpha = Config::level_gap (Section 5): a match settled
//    when its neighborhood had size s gets level floor(log_alpha s), i.e.
//    the size is remembered only up to the gap. If inserts grow the
//    neighborhood past Config::heavy_factor * alpha^(level+1), the match is
//    "bloated": its sample is stale relative to the neighborhood, so it is
//    resettled (unmatched + resampled) to restore the randomness the
//    adversary argument needs. Config::light_only disables levels, bloat
//    tracking and resampling (footnote 8's "treat everything as light"
//    variant): still maximal, but settling becomes deterministic and the
//    adversarial benches show the work blowup.
//
//  * steal on insert: a batch-inserted edge whose priority beats the
//    priority of every matched edge on its taken vertices displaces them
//    (stats.stolen) and the freed vertices resettle. The stealers run to
//    the greedy fixed point in priority order (deterministic reservations,
//    prims/speculative_for.h), so displaced chains resolve inside the
//    batch and insertions cannot park adversarially useful edges behind
//    stale matches.
//
// Every batch runs as a fixed sequence of data-parallel phases over batch
// primitives (group_by / filter / claim rounds), never as a per-edge
// sequential loop:
//
//   insert: [P1] draw priorities  [P2] group the batch by endpoint and
//   apply adjacency appends / live_deg / growth bumps per vertex-group
//   [P3] classify edges into all-free candidates and steal candidates
//   [P4] resolve steals to the greedy fixed point: priority-ordered
//   reserve/commit rounds over per-vertex reservation slots
//   [P5] resettle bloated matches  [P6] greedy over the candidates
//   [P7] settle the freed vertices.
//
//   delete: filter live ids -> unmatch deleted matches -> parallel
//   live_deg decrements -> batch slot free -> settle.
//
//   settle: ONE adjacency harvest caches each pending vertex's free
//   candidates (compacting the chain as it goes), then the
//   deterministic-reservations engine (prims/speculative_for.h) runs
//   reserve/commit rounds: each still-free vertex prunes its cached slice
//   in place, draws a uniform surviving candidate keyed (vertex, settle
//   epoch), and reserves its endpoints; commit winners match and redraw
//   their edge's sample, losers carry the pruned slice forward. No
//   candidate list is rescanned from adjacency after the harvest.
//
// Adaptive execution (DESIGN.md S11): that phase plan is a *logical*
// schedule, and each phase has ONE body, written over a [b, e) block.
// Whether a phase runs as one inline block with plain memory ops or as
// forked blocks is decided only inside the primitives that run the body
// (parallel_for_blocked, prims::pack_blocks, group_by, speculative_for),
// from parallel/cost_model.h's cutover. A body that shares a
// counter across blocks asks run_phase_seq of the same n whether it needs
// an atomic; insert P2 instead follows its batch size and hands that one
// answer to its primitives and its body (apply_adjacency). Every phase makes the SAME keyed RNG draws and charges the
// SAME model depth either way, so the trajectory (matching, stats, depth
// counters) is bit-identical across PARMATCH_EXEC_MODE=sequential/parallel/
// adaptive and any thread count (tests/test_exec_modes.cpp,
// tests/test_thread_determinism.cpp), and an 8-update batch still makes
// only a few passes over its data.
//
// All randomness is keyed, not sequenced: priority and reservoir draws come
// from parallel::RngStream draws (util/rng.h 3-arg hash64) keyed by
// (epoch, position) / (vertex, round), so the structure's entire trajectory
// -- matching, stats, work counters -- is bit-identical at any worker
// count. Shared counters (growth bumps, live_deg decrements, work units)
// use atomic fetch-add on the parallel strategy and plain memory on the
// inline one; everything else is per-vertex or per-edge ownership.
//
// Hot-state packing (DESIGN.md S11): the per-vertex fields the claim and
// settle loops touch (taken_by / match_pos / min_edge / live_deg, plus the
// embedded incidence-chain header) live in one 32-byte matching::VertexHot
// record, and each match's bloat state (edge / growth / threshold) in one
// 16-byte MatchHot record of the dense match list, at the vertex's
// match_pos -- so each batch-random vertex or match costs one cache line,
// prefetched kPrefetchAhead iterations early in the scanning loops, and
// the bloat state costs 16 B per match, not per edge id.
//
// Memory follows the live state (DESIGN.md S7): the adjacency arena
// recycles the chunks a compaction empties and the chain of a vertex whose
// live degree reaches 0 (the delete pass's decrement to 0 owns that
// release; an inline pass lends the vertex its head chunk until the free
// list runs dry), so the chunks held track the live incidences, not each
// vertex's high-water degree.
//
// Allocation discipline (DESIGN.md S7): every transient buffer comes from
// the per-matcher BatchWorkspace (dyn/workspace.h) -- named vectors that
// keep their capacity plus a bump ScratchArena reset at batch start and
// settle start -- and every hot-path sort/dedup is prims::radix_sort (with
// its small-n insertion fallback) plus a dedup pack, so a steady-state
// batch touches the heap zero times (tests/test_alloc_free.cpp).
//
// Complexity contract per batch of k updates: expected O(k * r^3) amortized
// work, O(log^3 m) depth whp (settle rounds x greedy claim rounds x O(log)
// primitives); lazy incidence compaction charges each dead entry once to
// the deletion that killed it. BatchStats::measured_depth instruments the
// depth claim directly: every logical phase charges
// parallel::model_depth(n) whether it ran forked or inline.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "graph/adjacency.h"
#include "graph/edge.h"
#include "graph/edge_batch.h"
#include "graph/edge_pool.h"
#include "dyn/stats.h"
#include "dyn/workspace.h"
#include "matching/parallel_greedy.h"
#include "matching/vertex_hot.h"
#include "parallel/cost_model.h"
#include "parallel/parallel_for.h"
#include "parallel/rng_stream.h"
#include "prims/filter.h"
#include "prims/group_by.h"
#include "prims/radix_sort.h"
#include "prims/scan.h"
#include "prims/speculative_for.h"
#include "util/prefetch.h"
#include "util/rng.h"

namespace parmatch::dyn {

struct Config {
  std::uint64_t seed = 1;
  std::size_t max_rank = 2;      // r: maximum hyperedge rank accepted
  std::size_t level_gap = 2;     // alpha: geometric gap between levels
  std::size_t heavy_factor = 4;  // resettle when growth exceeds this times
                                 // the level-quantized settle size
  bool light_only = false;       // footnote-8 ablation: no levels/resampling
};

// One entry of the dense match list: the matched edge and its bloat
// machinery (threshold already encodes the level-quantized settle size, so
// the raw size needs no slot of its own). Each endpoint's
// VertexHot::match_pos indexes it, so the growth bump, the commit and the
// unmatch each touch ONE line of it, and the list costs 16 B per match
// instead of per edge id.
struct MatchHot {
  graph::EdgeId edge = graph::kInvalidEdge;
  std::uint32_t growth = 0;     // neighborhood inserts since settle
  std::uint64_t threshold = 0;  // bloat threshold for the current match
};
static_assert(sizeof(MatchHot) == 16);

class DynamicMatcher {
  using EdgeId = graph::EdgeId;
  using VertexId = graph::VertexId;
  static constexpr EdgeId kInvalid = graph::kInvalidEdge;

 public:
  DynamicMatcher() : DynamicMatcher(Config{}) {}
  explicit DynamicMatcher(const Config& cfg)
      : cfg_(cfg),
        pool_(cfg.max_rank),
        insert_pri_(hash64(cfg.seed ^ 0xA02B'DBF7'BB3C'0A7ull, 1)),
        settle_draw_(hash64(cfg.seed ^ 0xA02B'DBF7'BB3C'0A7ull, 2)),
        settle_pri_(hash64(cfg.seed ^ 0xA02B'DBF7'BB3C'0A7ull, 3)) {}

  // Inserts a batch; returns the id assigned to each edge, batch order.
  // The span aliases workspace storage: valid until the next batch call.
  std::span<const EdgeId> insert_edges(const graph::EdgeBatch& batch) {
    begin_batch();
    std::uint64_t epoch = ++insert_epoch_;
    pool_.add_edges(batch, ws_.ids);
    ensure_bounds();
    std::span<const EdgeId> ids(ws_.ids);
    std::size_t k = ids.size();
    stats_.inserts += k;
    stats_.work_units += batch.total_cardinality();
    if (k == 0) return ids;

    // Diagnostics only: the batch is at or below the cutover, so its
    // phases run inline (parbench reports the share as fused_frac).
    if (parallel::run_phase_seq(k)) ++stats_.fused_batches;

    // P1: every inserted edge draws its sample, keyed (batch epoch, slot).
    // Recycled ids land at random positions in pri_, so the lines are
    // prefetched ahead of the writes.
    charge_phase(k);
    parallel::parallel_for_blocked(0, k, [&](std::size_t b, std::size_t e) {
      sweep_block(
          b, e, [&](std::size_t i) { prefetch_write(&pri_[ids[i]]); },
          [&](std::size_t i) { pri_[ids[i]] = insert_pri_.word(epoch, i); });
    });
    stats_.samples_created += k;

    // P2: adjacency -- appends, live_deg and growth bumps per endpoint group.
    std::span<const EdgeId> bloated = apply_adjacency(batch, ids);

    // P3: classify against the pre-batch matching. An edge is a greedy
    // candidate if every endpoint is free, a steal candidate if some
    // endpoint is taken and its sample beats every match it touches. One
    // pass classifies and splits both sets. P2's group apply already pulled
    // the vertex records and the matched edges' priority lines (apply_group),
    // so only a block longer than the prefetch window looks ahead.
    charge_phases(3, k);
    auto [candidates, stealers] = prims::pack_blocks2<EdgeId>(
        k,
        [&](std::size_t b, std::size_t e, EdgeId* cand, EdgeId* steal) {
          std::size_t nc = 0, nst = 0;
          for (std::size_t i = b; i < e; ++i) {
            if (i + kPrefetchAhead < e)
              for (VertexId v : pool_.vertices(ids[i + kPrefetchAhead]))
                prefetch_read(&vh_[v]);
            std::uint8_t c = classify(ids[i]);
            if (c == 1)
              cand[nc++] = ids[i];
            else if (c == 2)
              steal[nst++] = ids[i];
          }
          return std::pair{nc, nst};
        },
        ws_.arena);

    // P4: steal rounds -- winners displace their victims.
    resolve_steals(stealers);

    // P5: resettle bloated matches through the random-sampling path (not
    // run_greedy with the stale sample): the whole point is a fresh draw
    // over the grown neighborhood, so the freed vertices go through
    // settle() below.
    for (EdgeId b : bloated) {
      if (vh_[pool_.vertices(b)[0]].taken_by != b) continue;  // displaced
      ++stats_.bloated;
      unmatch(b);
    }

    run_greedy(candidates);
    settle();
    finish_batch();
    return ids;
  }

  // Braced-list convenience: delete_edges({a, b}).
  void delete_edges(std::initializer_list<EdgeId> ids) {
    delete_edges(std::span<const EdgeId>(ids.begin(), ids.size()));
  }

  // Deletes previously returned ids (each must be live).
  void delete_edges(std::span<const EdgeId> ids) {
    begin_batch();
    std::size_t k = ids.size();
    stats_.deletes += k;
    if (k != 0 && parallel::run_phase_seq(k)) ++stats_.fused_batches;
    // Liveness filter. Every later phase reads the batch's pool records,
    // so the scan pulls them into cache as it goes.
    charge_phase(k);
    std::span<EdgeId> live = prims::pack_blocks<EdgeId>(
        k,
        [&](std::size_t b, std::size_t e, EdgeId* out) {
          std::size_t w = 0;
          sweep_block(
              b, e, [&](std::size_t i) { pool_.prefetch_record(ids[i]); },
              [&](std::size_t i) {
                if (pool_.live(ids[i])) out[w++] = ids[i];
              });
          return w;
        },
        ws_.arena);
    // The same id may legally appear more than once in a batch; deletion
    // order is immaterial, so dedup after an ascending sort.
    charge_phases(kRadixPhases + 1, live.size());
    prims::radix_sort(live, [](EdgeId e) { return std::uint64_t(e); },
                      id_bits(), ws_.arena);
    std::span<const EdgeId> lv = prims::pack_blocks<EdgeId>(
        live.size(),
        [&](std::size_t b, std::size_t e, EdgeId* out) {
          std::size_t w = 0;
          for (std::size_t i = b; i < e; ++i)
            if (i == 0 || live[i] != live[i - 1]) out[w++] = live[i];
          return w;
        },
        ws_.arena);
    if (lv.empty()) {
      finish_batch();
      return;
    }

    // Rank sum (work accounting), victim scan, and live_deg decrements are
    // three logical phases run as ONE pass over the batch: their fields
    // are disjoint, matched edges are vertex-disjoint, and the victim test
    // reads only taken_by, which the pass never writes -- so any
    // interleaving computes the same state. An endpoint may lose several
    // edges of this batch, hence fetch-sub when the blocks fork. The
    // decrement that takes live_deg to 0 owns the vertex's chain, whose
    // entries are all stale now: a forked pass returns the whole chain to
    // the adjacency arena, an inline one empties it but keeps its head
    // chunk for the vertex's refill (see reclaim_kept_heads).
    std::size_t n = lv.size();
    charge_phases(2, n);  // rank map + reduce
    charge_phase(n);      // victim scan
    charge_phase(n);      // live_deg decrements
    const bool seq = parallel::run_phase_seq(n);
    std::size_t rank_sum = 0;
    std::span<const EdgeId> victims = prims::pack_blocks<EdgeId>(
        n,
        [&](std::size_t b, std::size_t e, EdgeId* out) {
          std::size_t w = 0, sum = 0;
          sweep_block(
              b, e,
              [&](std::size_t i) {
                for (VertexId v : pool_.vertices(lv[i]))
                  prefetch_write(&vh_[v]);
              },
              [&](std::size_t i) {
                EdgeId d = lv[i];
                auto vs = pool_.vertices(d);
                sum += vs.size();
                if (vh_[vs[0]].taken_by == d) out[w++] = d;
                for (VertexId v : vs) {
                  std::uint32_t left;
                  if (seq)
                    left = --vh_[v].live_deg;
                  else
                    left = std::atomic_ref<std::uint32_t>(vh_[v].live_deg)
                               .fetch_sub(1, std::memory_order_relaxed) -
                           1;
                  if (left != 0) continue;
                  if (seq) {
                    adj_.clear_keep_head(vh_[v].adj);
                    kept_heads_.push_back(v);
                  } else {
                    adj_.release_chain(vh_[v].adj, false);
                  }
                }
              });
          add_block_sum(rank_sum, sum, seq);
          return w;
        },
        ws_.arena);
    stats_.work_units += rank_sum;
    // Deleted matches free their vertices (matched edges are disjoint, so
    // the victim set needs no dedup).
    unmatch_all(victims);
    charge_phase(n);
    pool_.remove_edges(lv);
    settle();
    finish_batch();
  }

  // The current matching (ascending ids). O(|M|): the matched set is
  // maintained explicitly, never rebuilt by scanning the id space.
  std::vector<EdgeId> matching() const {
    std::vector<EdgeId> out(matches_.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = matches_[i].edge;
    prims::radix_sort(out, [](EdgeId e) { return std::uint64_t(e); },
                      id_bits());
    return out;
  }

  bool is_matched(EdgeId id) const {
    return pool_.live(id) && vh_[pool_.vertices(id)[0]].taken_by == id;
  }

  // The matched edge taking vertex v, or kInvalidEdge when v is free (or
  // has never been seen). The per-vertex read the serving layer's snapshot
  // publisher (serve/service.h) republishes after each batch.
  EdgeId match_of(VertexId v) const {
    return v < vh_.size() ? vh_[v].taken_by : kInvalid;
  }

  // Optional matching-delta hook: when set, every vertex whose taken_by
  // changes (unmatch or commit) is appended to the sink, so a caller can
  // mirror the matching incrementally in O(touched) instead of O(V) per
  // batch. Duplicates are possible (a vertex freed then rematched in one
  // batch appears twice); read the final state through match_of. The sink
  // is appended from the sequential bookkeeping sites only, never from
  // inside a forked phase, and a null sink (the default) costs nothing.
  void set_delta_sink(std::vector<VertexId>* sink) { delta_sink_ = sink; }

  std::size_t matched_count() const { return matches_.size(); }
  const graph::EdgePool& pool() const { return pool_; }
  const Config& config() const { return cfg_; }
  const CumulativeStats& cumulative_stats() const { return stats_; }
  const BatchStats& last_batch_stats() const { return batch_; }

  // Scratch high-water diagnostics (tests/test_alloc_free.cpp).
  const BatchWorkspace& workspace() const { return ws_; }

  // Bytes of state the structure proper holds: the edge-record pool, the
  // adjacency chunks linked into chains, and the per-vertex, per-edge and
  // per-match arrays, each counted by size, not capacity (the benches'
  // bytes-per-live-edge accounting; free adjacency chunks, vector slack
  // and the scratch workspace -- bounded by the largest batch, not the
  // graph -- are excluded).
  std::size_t memory_bytes() const {
    return pool_.memory_bytes() + adj_.memory_bytes() +
           pri_.size() * sizeof(std::uint64_t) +
           vh_.size() * sizeof(matching::VertexHot) +
           matches_.size() * sizeof(MatchHot) +
           kept_heads_.size() * sizeof(VertexId);
  }

  // Diagnostics for the memory tests: the adjacency arena and the
  // per-vertex hot records (chain headers, live degrees).
  const graph::ChunkedAdjacency& adjacency() const { return adj_; }
  std::span<const matching::VertexHot> vertex_records() const { return vh_; }

  // ---- checkpoint serialization (DESIGN.md S14) ------------------------
  //
  // export_words/import_state move the matcher's LOGICAL state -- every
  // word a future batch's trajectory can depend on -- through a flat u64
  // stream: the two RNG epoch counters (the streams themselves are
  // stateless keyed hashes, so the counters ARE the stream positions), the
  // pool's slot records verbatim plus its free list in order (add_edges'
  // deterministic id assignment pops the tail back-to-front, so free-list
  // ORDER is trajectory state), each live edge's current sample, the
  // matched list in list order (unmatch swaps with the back, so order is
  // observable) with each match's bloat threshold/growth, and each
  // vertex's live incidence refs in chain order (settle's uniform draw is
  // an index into the harvest of exactly that order). Cumulative stats,
  // scratch workspace, and stale chain entries are deliberately NOT state:
  // a recovered matcher replays the same trajectory bit-for-bit but may
  // charge different compaction work_units, because import rebuilds every
  // chain pre-compacted. The stream is position-independent and
  // self-validating.
  //
  // The chain section is sparse: [vb][k] then [v][cnt][ids...] for the k
  // vertices with live incidences only, in ascending v. Those vertices are
  // found from the live slots' endpoints through a vb/64-word bitmap, so
  // an export costs O(id_bound + vb/64 + live incidences), not a visit and
  // a word per vertex below the bound -- a service with a 2^20 vertex
  // bound and a few thousand live edges writes thousands of words, not a
  // million.
  //
  // export_words is the one body: it hands each word to `put(uint64_t)` in
  // stream order and never revisits one, so a sink can fold or write the
  // stream without holding it. Counts therefore come before what they
  // count: k is the bitmap's popcount, and each record's cnt is a counting
  // walk of the chain (stale refs skipped) ahead of the emitting walk. Its
  // only allocation is the bitmap. export_state appends the same words to
  // a vector; state_fingerprint folds them.
  template <class Put>
  void export_words(Put&& put) const {
    put(kStateMagic);
    put(kStateVersion);
    put(cfg_.seed);
    put(cfg_.max_rank);
    put(cfg_.level_gap);
    put(cfg_.heavy_factor);
    put(cfg_.light_only ? 1 : 0);
    put(insert_epoch_);
    put(settle_epoch_);
    pool_.export_words(put);
    std::size_t ib = pool_.id_bound();
    put(pool_.live_count());
    for (std::size_t id = 0; id < ib; ++id)
      if (pool_.live(static_cast<EdgeId>(id))) put(pri_[id]);
    put(matches_.size());
    for (const MatchHot& mh : matches_) {
      put(mh.edge);
      put(mh.threshold);
      put(mh.growth);
    }
    std::size_t vb = vh_.size();
    put(vb);
    std::vector<std::uint64_t> has_live((vb + 63) / 64);
    for (std::size_t id = 0; id < ib; ++id) {
      if (!pool_.live(static_cast<EdgeId>(id))) continue;
      for (VertexId v : pool_.vertices(static_cast<EdgeId>(id)))
        has_live[v / 64] |= std::uint64_t{1} << (v % 64);
    }
    std::uint64_t k = 0;
    for (std::uint64_t bits : has_live) k += std::popcount(bits);
    put(k);
    for (std::size_t w = 0; w < has_live.size(); ++w) {
      for (std::uint64_t bits = has_live[w]; bits != 0; bits &= bits - 1) {
        std::size_t v = w * 64 + std::countr_zero(bits);
        std::uint64_t cnt = 0;  // == live_deg > 0 by the chain invariant
        adj_.visit(vh_[v].adj,
                   [&](std::uint64_t ref) { cnt += pool_.ref_valid(ref); });
        put(v);
        put(cnt);
        adj_.visit(vh_[v].adj, [&](std::uint64_t ref) {
          if (pool_.ref_valid(ref)) put(graph::EdgePool::ref_id(ref));
        });
      }
    }
  }

  void export_state(std::vector<std::uint64_t>& out) const {
    export_words([&out](std::uint64_t w) { out.push_back(w); });
  }

  // Restores a stream produced by export_words into a FRESHLY constructed
  // matcher with the same Config (the stream carries the config words and
  // refuses a mismatch -- replaying under different knobs would silently
  // diverge). A stream whose vertex bound exceeds `vertex_limit` is
  // rejected before any per-vertex array is sized: the sparse chain
  // section no longer backs the bound with words, so the caller's own
  // vertex contract is what keeps a short stream from sizing vh_ by 2^32.
  // Returns false on any malformed or inconsistent stream, leaving the
  // matcher unusable; callers treat that as a corrupt checkpoint and fall
  // back to an older one.
  bool import_state(std::span<const std::uint64_t> in,
                    std::size_t vertex_limit) {
    assert(pool_.live_count() == 0 && insert_epoch_ == 0 &&
           settle_epoch_ == 0 && matches_.empty() &&
           "import into a used matcher");
    std::size_t p = 0;
    auto need = [&](std::uint64_t n) { return in.size() - p >= n; };
    if (!need(9)) return false;
    if (in[p++] != kStateMagic || in[p++] != kStateVersion) return false;
    if (in[p++] != cfg_.seed || in[p++] != cfg_.max_rank ||
        in[p++] != cfg_.level_gap || in[p++] != cfg_.heavy_factor ||
        in[p++] != static_cast<std::uint64_t>(cfg_.light_only ? 1 : 0))
      return false;
    insert_epoch_ = in[p++];
    settle_epoch_ = in[p++];
    std::size_t consumed = 0;
    if (!pool_.import_state(in.subspan(p), &consumed)) return false;
    p += consumed;
    if (pool_.vertex_bound() > vertex_limit) return false;
    ensure_bounds();
    std::size_t ib = pool_.id_bound();
    if (!need(1)) return false;
    std::uint64_t nlive = in[p++];
    if (nlive != pool_.live_count() || !need(nlive)) return false;
    for (std::size_t id = 0; id < ib; ++id)
      if (pool_.live(static_cast<EdgeId>(id))) pri_[id] = in[p++];
    if (!need(1)) return false;
    std::uint64_t nm = in[p++];
    if (nm > nlive || !need(3 * nm)) return false;
    for (std::uint64_t i = 0; i < nm; ++i) {
      EdgeId e = static_cast<EdgeId>(in[p++]);
      if (!pool_.live(e)) return false;
      for (VertexId v : pool_.vertices(e))
        if (vh_[v].taken_by != kInvalid) return false;
      MatchHot mh{e, 0, in[p++]};
      mh.growth = static_cast<std::uint32_t>(in[p++]);
      for (VertexId v : pool_.vertices(e)) {
        vh_[v].taken_by = e;
        vh_[v].match_pos = static_cast<std::uint32_t>(matches_.size());
      }
      matches_.push_back(mh);
    }
    if (!need(2)) return false;
    std::uint64_t vb = in[p++];
    std::uint64_t k = in[p++];
    if (vb != vh_.size()) return false;
    // Chain rebuild: one slab reservation for the whole incidence volume,
    // then per-vertex appends in exported order. Refs are recomputed from
    // the restored pool (slot generations included), so only edge ids
    // travel in the stream. Each record must name a distinct vertex in
    // ascending order and hold exactly its live incidences (the degree
    // counted from the pool, into live_deg), and the records together must
    // cover every incidence, so no vertex with live edges is left without
    // its chain and the appends never outgrow the reservation.
    std::size_t total = 0;
    for (std::size_t id = 0; id < ib; ++id) {
      if (!pool_.live(static_cast<EdgeId>(id))) continue;
      for (VertexId v : pool_.vertices(static_cast<EdgeId>(id)))
        ++vh_[v].live_deg;
      total += pool_.rank(static_cast<EdgeId>(id));
    }
    if (k > vb || k > total) return false;
    adj_.reserve_for(total, static_cast<std::size_t>(k));
    std::uint64_t covered = 0;
    std::uint64_t next_v = 0;  // records ascend strictly
    for (std::uint64_t r = 0; r < k; ++r) {
      if (!need(2)) return false;
      std::uint64_t v = in[p++];
      std::uint64_t cnt = in[p++];
      if (v < next_v || v >= vb) return false;
      next_v = v + 1;
      auto& h = vh_[static_cast<std::size_t>(v)];
      if (cnt == 0 || cnt != h.live_deg || !need(cnt)) return false;
      for (std::uint64_t j = 0; j < cnt; ++j) {
        EdgeId e = static_cast<EdgeId>(in[p++]);
        if (!pool_.live(e)) return false;
        auto vs = pool_.vertices(e);
        if (std::find(vs.begin(), vs.end(), v) == vs.end()) return false;
        adj_.append(h.adj, pool_.packed_ref(e), true);
      }
      covered += cnt;
    }
    return covered == total && p == in.size();
  }

  // RNG stream positions (DESIGN.md S2: the keyed streams are stateless,
  // so these counters are the complete RNG state). The journal records
  // them post-apply as a replay cross-check.
  std::uint64_t insert_epochs() const { return insert_epoch_; }
  std::uint64_t settle_epochs() const { return settle_epoch_; }

  // Order-sensitive fold of exactly the exported logical state, hashed
  // word by word as export_words emits it (the stream is never stored, so
  // the only allocation is the chain bitmap). Equal fingerprints mean
  // equal replay trajectories (the recovery bit-identity check of
  // DESIGN.md S14); cumulative stats, which recovery legitimately perturbs,
  // are excluded by construction.
  std::uint64_t state_fingerprint() const {
    std::uint64_t h = 0x5EED'F00D'CAFE'D00Dull;
    export_words([&h](std::uint64_t w) { h = hash64(h, w); });
    return h;
  }

 private:
  static constexpr std::uint64_t kStateMagic = 0x504D'5354'4154'4531ull;
  static constexpr std::uint64_t kStateVersion = 2;

  // ---- batch lifecycle -------------------------------------------------

  void begin_batch() {
    batch_ = BatchStats{};
    ws_.arena.reset();
    ws_.freed.clear();
  }

  void finish_batch() {
    if (batch_.measured_depth > stats_.max_batch_depth)
      stats_.max_batch_depth = batch_.measured_depth;
  }

  // ---- id/vertex array maintenance -------------------------------------

  void ensure_bounds() {
    std::size_t ib = pool_.id_bound();
    if (pri_.size() < ib) pri_.resize(ib, 0);
    std::size_t vb = pool_.vertex_bound();
    if (vh_.size() < vb) vh_.resize(vb);
  }

  // ---- depth instrumentation ------------------------------------------

  // Every logical data-parallel phase charges its binary-forking span; the
  // sum is the batch's measured depth (dyn/stats.h). Multi-pass primitives
  // (radix sort, scan, semisort) charge one phase per internal parallel
  // loop. Charges are independent of the execution strategy: a phase run
  // inline by the cost model charges the same span it would have forked
  // with, so depth stays a schedule property, not a clock artifact.
  void charge_phase(std::size_t n) { charge_phases(1, n); }

  void charge_phases(std::size_t count, std::size_t n) {
    batch_.parallel_phases += count;
    batch_.measured_depth += count * parallel::model_depth(n);
  }

  // Sets at most this large get a full upfront prefetch sweep instead of a
  // rolling lookahead window (which never fires when the set is shorter
  // than the window) -- the batched-miss pattern of DESIGN.md S11.
  static constexpr std::size_t kSweepSmall = 32;

  // One block's scan under that pattern: prefetch(i) pulls item i's lines,
  // visit(i) uses them. A block of at most kSweepSmall items prefetches
  // all of them up front; a longer one primes kPrefetchAhead items and
  // then stays kPrefetchAhead ahead of the visits.
  template <typename Prefetch, typename Visit>
  static void sweep_block(std::size_t b, std::size_t e, Prefetch&& prefetch,
                          Visit&& visit) {
    const bool small = e - b <= kSweepSmall;
    std::size_t head = small ? e : b + kPrefetchAhead;
    for (std::size_t i = b; i < head; ++i) prefetch(i);
    for (std::size_t i = b; i < e; ++i) {
      if (!small && i + kPrefetchAhead < e) prefetch(i + kPrefetchAhead);
      visit(i);
    }
  }

  // Adds one block's partial sum into a phase total: plain memory when the
  // phase runs inline, a fetch-add when its blocks fork. `seq` must be
  // parallel::run_phase_seq of the phase's own n.
  static void add_block_sum(std::size_t& total, std::size_t x, bool seq) {
    if (seq)
      total += x;
    else
      std::atomic_ref<std::size_t>(total).fetch_add(
          x, std::memory_order_relaxed);
  }

  // Shared 32-bit radix-sort charge (prims/radix_sort.h); 64-bit sorts
  // charge 2x.
  static constexpr std::size_t kRadixPhases = prims::kRadixSortPhases32;

  // Bits needed to cover every allocated edge id (radix sort key width).
  int id_bits() const {
    return std::bit_width(static_cast<std::uint64_t>(pool_.id_bound()) | 1);
  }

  // prims::group_by = pair fill + radix over the key bits actually used +
  // value copy + boundary pack + key/offset fill.
  std::size_t group_by_phases(std::uint64_t max_key) const {
    return 4 + 2 * ((std::bit_width(max_key | 1) + 7) / 8);
  }

  // ---- match bookkeeping ----------------------------------------------

  // Writes new match e into match-list slot pos and its endpoints'
  // records. Safe to run in parallel over a vertex-disjoint winner set
  // whose slots the caller has already sized (commit_matches).
  void commit_match(EdgeId e, std::size_t pos) {
    std::size_t nbhd = 0;
    for (VertexId v : pool_.vertices(e)) {
      vh_[v].taken_by = e;
      vh_[v].match_pos = static_cast<std::uint32_t>(pos);
      nbhd += vh_[v].live_deg;
    }
    // Level quantization: remember the settle size only up to the gap.
    // Saturate instead of wrapping: a pathological neighborhood (or a huge
    // heavy_factor) must yield "never bloats", not a tiny threshold.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t gap = cfg_.level_gap < 2 ? 2 : cfg_.level_gap;
    std::uint64_t cap = gap;
    bool saturated = false;
    while (cap < nbhd) {
      if (cap > kMax / gap) {
        saturated = true;
        break;
      }
      cap *= gap;
    }
    std::uint64_t hf = cfg_.heavy_factor;
    std::uint64_t threshold =
        (saturated || (hf != 0 && cap > kMax / hf)) ? kMax : hf * cap;
    matches_[pos] = MatchHot{e, 0, threshold};
  }

  // Appends match e at the back of the match list (the sequential
  // finalize steps).
  void push_match(EdgeId e) {
    matches_.emplace_back();
    commit_match(e, matches_.size() - 1);
  }

  // Applies a vertex-disjoint winner set: the match list grows by the
  // winners in winner order, and the (possibly forked) phase fills their
  // slots and endpoint records. The single application loop shared by the
  // steal and greedy paths.
  void commit_matches(std::span<const EdgeId> winners) {
    charge_phase(winners.size());
    std::size_t base = matches_.size();
    matches_.resize(base + winners.size());
    parallel::parallel_for_blocked(
        0, winners.size(), [&](std::size_t b, std::size_t e) {
          sweep_block(
              b, e,
              [&](std::size_t i) {
                for (VertexId v : pool_.vertices(winners[i]))
                  prefetch_write(&vh_[v]);
              },
              [&](std::size_t i) { commit_match(winners[i], base + i); });
        });
    if (delta_sink_)
      for (EdgeId e : winners)
        for (VertexId v : pool_.vertices(e)) delta_sink_->push_back(v);
  }

  // Frees matched e's vertices into the batch's pending-settle set
  // (ws_.freed) and fills e's match-list slot with the back entry, whose
  // endpoints learn their new match_pos.
  void unmatch(EdgeId e) {
    assert(vh_[pool_.vertices(e)[0]].taken_by == e);
    std::uint32_t idx = vh_[pool_.vertices(e)[0]].match_pos;
    for (VertexId v : pool_.vertices(e)) {
      if (vh_[v].taken_by == e) {
        vh_[v].taken_by = kInvalid;
        ws_.freed.push_back(v);
        if (delta_sink_) delta_sink_->push_back(v);
      }
    }
    const MatchHot& last = matches_.back();
    for (VertexId v : pool_.vertices(last.edge)) vh_[v].match_pos = idx;
    matches_[idx] = last;
    matches_.pop_back();
  }

  bool all_endpoints_free(EdgeId e) const {
    for (VertexId v : pool_.vertices(e))
      if (vh_[v].taken_by != kInvalid) return false;
    return true;
  }

  // ---- insert phases ---------------------------------------------------

  // The per-vertex-group body of insert P2: amortized owner-side
  // compaction, adjacency appends, live_deg bump, and the bloat-threshold
  // crossing check. `ref_at(j)` is the j-th packed edge-ref of this group;
  // `seq` is whether the group phase runs inline; `comp_scanned` reports
  // the compaction scan length; `bloat_out` the (unique) bloated match this
  // group observed crossing, or kInvalid.
  template <typename RefAt>
  void apply_group(VertexId v, std::uint32_t cnt, RefAt&& ref_at, bool seq,
                   std::size_t& comp_scanned, EdgeId& bloat_out) {
    // Amortized owner-side compaction: valid entries number exactly
    // live_deg, so a chain more than twice that (plus slack) is mostly
    // stale refs -- drop them now, charged to the appends that grew the
    // chain. This bounds every chain (and the arena) to O(live incident
    // edges), which is what keeps steady-state batches allocation-free;
    // the trigger depends only on schedule-independent lengths, so the
    // trajectory stays deterministic (DESIGN.md S2). Settle's lazy
    // compaction still handles the vertices this owner never touches.
    comp_scanned = 0;
    std::size_t len = vh_[v].adj.len;
    if (len >= 16 + 2 * (static_cast<std::size_t>(vh_[v].live_deg) + cnt))
      comp_scanned = adj_.compact_visit(vh_[v].adj, seq, [&](std::uint64_t ref) {
        return pool_.ref_valid(ref);
      });
    for (std::uint32_t j = 0; j < cnt; ++j)
      adj_.append(vh_[v].adj, ref_at(j), seq);
    vh_[v].live_deg += cnt;
    bloat_out = kInvalid;
    EdgeId t = vh_[v].taken_by;
    if (t == kInvalid) return;
    // P3's classify will compare against this match's priority; pull the
    // line now, while P2 still has the record in hand.
    prefetch_read(&pri_[t]);
    if (cfg_.light_only) return;
    // The neighborhood of match t grew; check the level bound. Exactly
    // one fetch-add interval straddles the threshold, so each bloated
    // edge is reported by exactly one group (plain add when inline).
    MatchHot& h = matches_[vh_[v].match_pos];
    std::uint64_t before;
    if (seq) {
      before = h.growth;
      h.growth += cnt;
    } else {
      before = std::atomic_ref<std::uint32_t>(h.growth)
                   .fetch_add(cnt, std::memory_order_relaxed);
    }
    if (before <= h.threshold && before + cnt > h.threshold) bloat_out = t;
  }

  // P2 of insert_edges: fill the batch's flat (endpoint, edge-ref)
  // incidence, group it by endpoint, and let one owner per vertex-group
  // apply apply_group, so appends and live_deg bumps are race-free; growth
  // bumps target per-match counters shared between groups (fetch-add when
  // the groups fork). Group ORDER is free: appends, live_deg, and
  // compaction triggers are per-vertex; growth is an order-independent sum
  // whose threshold crossing fires exactly once in any accumulation order;
  // and the bloated set is returned sorted by id, so downstream processing
  // is schedule-independent.
  //
  // P2 runs inline whenever its batch does (run_phase_seq(k)): its emit and
  // group apply cover the batch's rank * k incidences and their groups,
  // which pass the cutover inside batches that do not, and forking them
  // there cost matcher_large's below-cutover rounds ~11% updates/s
  // (DESIGN.md S11). Above the cutover each step decides by its own size.
  std::span<const EdgeId> apply_adjacency(const graph::EdgeBatch& batch,
                                          std::span<const EdgeId> ids) {
    std::size_t k = ids.size();
    std::size_t total = batch.total_cardinality();
    const bool batch_seq = parallel::run_phase_seq(k);
    // The batch's own CSR offsets are the scanned per-edge offsets.
    charge_phase(k);      // offsets fill
    charge_phases(2, k);  // offsets scan
    charge_phase(total);  // flat (endpoint, ref) fill
    auto pairs =
        ws_.arena.alloc<prims::KeyValue<VertexId, std::uint64_t>>(total);
    parallel::parallel_for_blocked(0, k, [&](std::size_t b, std::size_t e) {
      std::size_t pos = batch.offset(b);
      for (std::size_t i = b; i < e; ++i) {
        std::uint64_t ref = pool_.packed_ref(ids[i]);
        for (VertexId v : batch.edge(i)) {
          // Batched-miss sweep, issued before the grouping so the vertex
          // records (which embed the adjacency headers) land while it runs.
          prefetch_write(&vh_[v]);
          pairs[pos++] = {v, ref};
        }
      }
    });
    charge_phases(group_by_phases(pool_.vertex_bound()), total);
    auto groups =
        prims::group_by(pairs, ws_.arena, pool_.vertex_bound(),
                        batch_seq || parallel::run_phase_seq(total));

    std::size_t ng = groups.num_groups();
    // Slab headroom for the appends below, sized before the group phase so
    // chunk allocation is a free-list pop or a pure bump, never a slab
    // (graph/adjacency.h).
    if (adj_.chunks_bumped() != bumped_seen_ ||
        kept_heads_.size() >= vh_.size())
      reclaim_kept_heads();
    adj_.reserve_for(total, ng);
    charge_phases(2, ng);  // group apply + compaction-scan reduce
    charge_phase(ng);      // bloated-match filter
    const bool seq = batch_seq || parallel::run_phase_seq(ng);
    std::size_t comp_total = 0;
    std::span<EdgeId> bloated = prims::pack_blocks<EdgeId>(
        ng,
        [&](std::size_t b, std::size_t e, EdgeId* out) {
          std::size_t w = 0, comp_sum = 0;
          for (std::size_t g = b; g < e; ++g) {
            // The append cursor line needs the (now resident) header to
            // locate; the bloat counter of the next groups' matches needs
            // their (resident) vertex records.
            if (g + 4 < e)
              adj_.prefetch_append_target(vh_[groups.key(g + 4)].adj);
            if (g + 3 < e) {
              const auto& r = vh_[groups.key(g + 3)];
              if (!r.free()) prefetch_write(&matches_[r.match_pos]);
            }
            auto refs = groups.group(g);
            std::size_t comp = 0;
            EdgeId bm = kInvalid;
            apply_group(
                groups.key(g), static_cast<std::uint32_t>(refs.size()),
                [&](std::size_t j) { return refs[j]; }, seq, comp, bm);
            comp_sum += comp;
            if (bm != kInvalid) out[w++] = bm;
          }
          add_block_sum(comp_total, comp_sum, seq);
          return w;
        },
        ws_.arena, seq);
    stats_.work_units += comp_total;
    charge_phases(kRadixPhases, bloated.size());
    prims::radix_sort(bloated, [](EdgeId e) { return std::uint64_t(e); },
                      id_bits(), ws_.arena);
    return bloated;
  }

  // Returns the head chunks that inline delete passes kept for emptied
  // vertices (kept_heads_) to the adjacency free list. Keeping them spares
  // a small-batch stream the free-list round trip (two cold chunk lines)
  // of every vertex that empties and refills (DESIGN.md S7); reclaiming
  // them whenever the free list has run dry since the last reclaim (the
  // arena bumped fresh chunks), or the list has grown to the vertex bound,
  // keeps them from holding memory that appends elsewhere need. Entries
  // whose vertex has refilled, or that repeat, are skipped.
  void reclaim_kept_heads() {
    sweep_block(
        0, kept_heads_.size(),
        [&](std::size_t i) { prefetch_write(&vh_[kept_heads_[i]]); },
        [&](std::size_t i) {
          auto& r = vh_[kept_heads_[i]];
          if (r.live_deg == 0) adj_.release_chain(r.adj, true);
        });
    kept_heads_.clear();
    bumped_seen_ = adj_.chunks_bumped();
  }

  // P3 body: 0 = blocked, 1 = all-free greedy candidate, 2 = steal
  // candidate. Reads only pre-batch matching state, so both strategies
  // agree regardless of evaluation order.
  std::uint8_t classify(EdgeId e) const {
    bool any_taken = false, steals_all = true;
    for (VertexId v : pool_.vertices(e)) {
      EdgeId t = vh_[v].taken_by;
      if (t == kInvalid) continue;
      any_taken = true;
      if (!matching::detail::beats(pri_[e], e, pri_[t], t)) {
        steals_all = false;
        break;
      }
    }
    return !any_taken ? 1 : (steals_all ? 2 : 0);
  }

  // The steal engine's reservation step (contract in
  // prims/speculative_for.h). Items are positions in the (priority, id)-
  // sorted stealer order. A stealer blocked by a better match RETRIES
  // rather than dropping -- the blocker may itself be displaced through
  // its other vertices by a better stealer, freeing the vertex -- and
  // finalizes as blocked only at the frontier, where every better stealer
  // has already resolved, i.e. exactly when the sequential greedy repair
  // would have dropped it. Victims are unmatched in finalize (sequential):
  // the taken_by re-read there dedups a victim two winners displace
  // through different vertices.
  struct StealStep {
    DynamicMatcher& m;
    std::span<const EdgeId> order;
    std::size_t stolen = 0;
    bool seq = true;

    void begin_round(std::uint64_t, bool s) { seq = s; }

    prims::SpecStatus reserve(std::size_t i, bool frontier) {
      EdgeId e = order[i];
      for (VertexId v : m.pool_.vertices(e)) {
        EdgeId t = m.vh_[v].taken_by;
        if (t != kInvalid &&
            !matching::detail::beats(m.pri_[e], e, m.pri_[t], t))
          return frontier ? prims::SpecStatus::kDone
                          : prims::SpecStatus::kRetry;
      }
      for (VertexId v : m.pool_.vertices(e))
        prims::reserve_slot(m.vh_[v].min_edge, static_cast<std::uint32_t>(i),
                            seq);
      return prims::SpecStatus::kTryCommit;
    }

    bool commit(std::size_t i) {
      EdgeId e = order[i];
      auto idx = static_cast<std::uint32_t>(i);
      bool owns = true;
      for (VertexId v : m.pool_.vertices(e))
        owns = owns && prims::slot_holds(m.vh_[v].min_edge, idx, seq);
      for (VertexId v : m.pool_.vertices(e))
        if (owns || prims::slot_holds(m.vh_[v].min_edge, idx, seq))
          prims::release_slot(m.vh_[v].min_edge, seq);
      return owns;
    }

    void finalize(std::size_t i) {
      EdgeId e = order[i];
      bool displaced = false;
      for (VertexId v : m.pool_.vertices(e)) {
        EdgeId t = m.vh_[v].taken_by;
        if (t != kInvalid) {
          m.unmatch(t);
          displaced = true;
        }
      }
      if (displaced) ++stolen;
      m.push_match(e);
      if (m.delta_sink_)
        for (VertexId v : m.pool_.vertices(e)) m.delta_sink_->push_back(v);
    }
  };

  // P4 of insert_edges: iterate the stealers to the greedy fixed point.
  // Sorted by (priority, id), the stealers run reserve/commit rounds whose
  // index-min reservations implement priority-min claims, so the result is
  // exactly the sequential greedy repair in priority order -- displaced
  // chains resolve inside the batch instead of leaking to the next settle.
  void resolve_steals(std::span<const EdgeId> stealers) {
    if (stealers.empty()) return;
    std::size_t ns = stealers.size();
    stats_.work_units += ns;
    auto order = ws_.arena.alloc<EdgeId>(ns);
    charge_phase(ns);
    parallel::parallel_for_blocked(0, ns, [&](std::size_t b, std::size_t e) {
      std::memcpy(order.data() + b, stealers.data() + b,
                  (e - b) * sizeof(EdgeId));
    });
    // (pri, id) order via two stable radix passes: id width, then the full
    // 64-bit priority (charged at 2x the 32-bit radix model).
    charge_phases(3 * kRadixPhases, ns);
    prims::radix_sort(std::span<EdgeId>(order),
                      [](EdgeId e) { return std::uint64_t(e); }, id_bits(),
                      ws_.arena);
    prims::radix_sort(std::span<EdgeId>(order),
                      [&](EdgeId e) { return pri_[e]; }, 64, ws_.arena);
    StealStep step{*this, order};
    prims::SpecStats st = prims::speculative_for(step, 0, ns, ws_.arena, 0,
                                                 &batch_.measured_depth);
    batch_.parallel_phases += prims::kSpecRoundPhases * st.rounds;
    stats_.steal_rounds += st.rounds;
    batch_.steal_rounds += st.rounds;
    stats_.spec_retries += st.retries;
    batch_.spec_retries += st.retries;
    stats_.work_units += st.retries;
    stats_.stolen += step.stolen;
  }

  // ---- greedy over a candidate set ------------------------------------

  void run_greedy(std::span<const EdgeId> candidates) {
    if (candidates.empty()) return;
    charge_phase(candidates.size());
    std::span<const EdgeId> still_free = prims::pack_blocks<EdgeId>(
        candidates.size(),
        [&](std::size_t b, std::size_t e, EdgeId* out) {
          std::size_t w = 0;
          for (std::size_t i = b; i < e; ++i)
            if (all_endpoints_free(candidates[i])) out[w++] = candidates[i];
          return w;
        },
        ws_.arena);
    if (still_free.empty()) return;
    ws_.matched.clear();
    std::size_t retries = 0;
    std::size_t rounds = matching::greedy_match_rounds(
        pool_, still_free, [&](EdgeId e) { return pri_[e]; }, vh_,
        &ws_.matched, ws_.arena, &stats_.work_units, &batch_.measured_depth,
        &retries);
    batch_.parallel_phases +=
        (still_free.size() > 1 ? matching::kGreedySortPhases : 0) +
        prims::kSpecRoundPhases * rounds;
    batch_.spec_retries += retries;
    stats_.spec_retries += retries;
    if (rounds > batch_.max_greedy_rounds) batch_.max_greedy_rounds = rounds;
    commit_matches(ws_.matched);
  }

  // ---- randomSettle (Section 4) ---------------------------------------

  // all_endpoints_free for an edge known to be incident to the (free)
  // vertex v: v's own record never needs re-reading, so the check chases
  // one fewer line per scanned entry at rank 2.
  bool free_beyond(VertexId v, EdgeId e) const {
    for (VertexId u : pool_.vertices(e))
      if (u != v && vh_[u].taken_by != kInvalid) return false;
    return true;
  }

  // Settle's one adjacency pass: compacts adj_'s chain for the free vertex
  // pending[i] (each dead entry is dropped exactly once) and caches every
  // free incident edge into this vertex's workspace candidate slice.
  // Returns the scan length for work accounting. `seq` is whether the
  // harvest phase runs inline.
  std::size_t harvest_candidates(std::size_t i, VertexId v, bool seq) {
    std::uint32_t w = 0;
    EdgeId* out = ws_.cand_pool.data() + ws_.cand_off[i];
    std::size_t scanned = adj_.compact_visit(
        vh_[v].adj, seq,
        [&](std::uint64_t entry) {
          if (!pool_.ref_valid(entry)) return false;  // stale: compact away
          EdgeId e = graph::EdgePool::ref_id(entry);
          if (free_beyond(v, e)) out[w++] = e;
          return true;
        },
        // Far peek: the visitor's first-level loads are the packed pool
        // slot (validation) and the vertex row (free-ness check); pull
        // both kPeekAhead entries early so the misses overlap.
        [&](std::uint64_t entry) {
          EdgeId e = graph::EdgePool::ref_id(entry);
          pool_.prefetch_record(e);
        },
        // Near peek: by now the slot and vertex row are resident, so read
        // them (speculatively -- stale refs yield an empty row) and pull
        // the second-level endpoint records the free-ness check chases.
        [&](std::uint64_t entry) {
          EdgeId e = graph::EdgePool::ref_id(entry);
          for (VertexId u : pool_.vertices_if_live(e))
            if (u != v) prefetch_read(&vh_[u]);
        });
    ws_.cand_len[i] = w;
    return scanned;
  }

  // unmatch with its dependent lines staged ahead: tiny sweeps turn the
  // miss chains (victim record -> its match-list slot; back entry -> its
  // pool record -> its endpoints' records, which learn their new
  // match_pos) into overlapped misses before the serial loop. The victim
  // records are resident from the delete pass; the back entries moved
  // into the freed slots are the last |victims| ones, give or take the
  // victims among them.
  void unmatch_all(std::span<const EdgeId> victims) {
    std::size_t nb = std::min(victims.size(), matches_.size());
    const MatchHot* back = matches_.data() + matches_.size() - nb;
    for (std::size_t j = 0; j < nb; ++j) pool_.prefetch_record(back[j].edge);
    for (EdgeId e : victims)
      prefetch_write(&matches_[vh_[pool_.vertices(e)[0]].match_pos]);
    for (std::size_t j = 0; j < nb; ++j)
      for (VertexId v : pool_.vertices(back[j].edge)) prefetch_write(&vh_[v]);
    for (EdgeId e : victims) unmatch(e);
  }

  // The settle engine's reservation step (contract in
  // prims/speculative_for.h). Items index ws_.freed; each still-free
  // vertex prunes its cached candidate slice in place (settle only adds
  // matches, so a candidate that goes un-free never comes back -- the
  // prune is monotone and nothing is ever rescanned from adjacency),
  // draws a uniform survivor keyed (vertex, settle epoch), and reserves
  // the drawn edge's endpoints. An empty slice means settled free, which
  // is exactly maximality at this vertex. Winners match in finalize and
  // (unless light_only) redraw the edge's sample keyed (edge, epoch);
  // losers carry the pruned slice into the next round and redraw there.
  struct SettleStep {
    DynamicMatcher& m;
    const VertexId* pending;
    EdgeId* choice;
    std::size_t work = 0;     // candidate prune touches, all rounds
    std::uint64_t epoch = 0;  // global settle epoch of the current round
    bool seq = true;

    void begin_round(std::uint64_t, bool s) {
      seq = s;
      epoch = ++m.settle_epoch_;
    }

    prims::SpecStatus reserve(std::size_t i, bool) {
      VertexId v = pending[i];
      if (m.vh_[v].taken_by != kInvalid) return prims::SpecStatus::kDone;
      EdgeId* c = m.ws_.cand_pool.data() + m.ws_.cand_off[i];
      std::uint32_t n = m.ws_.cand_len[i];
      std::uint32_t w = 0;
      for (std::uint32_t j = 0; j < n; ++j)
        if (m.free_beyond(v, c[j])) c[w++] = c[j];
      m.ws_.cand_len[i] = w;
      if (seq)
        work += n;
      else
        std::atomic_ref<std::size_t>(work).fetch_add(
            n, std::memory_order_relaxed);
      if (w == 0) return prims::SpecStatus::kDone;  // settled free: maximal
      EdgeId e;
      if (m.cfg_.light_only) {
        e = c[0];
        for (std::uint32_t j = 1; j < w; ++j)
          if (matching::detail::beats(m.pri_[c[j]], c[j], m.pri_[e], e))
            e = c[j];
      } else {
        e = c[m.settle_draw_.stream(v, epoch).next_below(w)];
      }
      choice[i] = e;
      for (VertexId u : m.pool_.vertices(e))
        prims::reserve_slot(m.vh_[u].min_edge, static_cast<std::uint32_t>(i),
                            seq);
      return prims::SpecStatus::kTryCommit;
    }

    bool commit(std::size_t i) {
      EdgeId e = choice[i];
      auto idx = static_cast<std::uint32_t>(i);
      bool owns = true;
      for (VertexId u : m.pool_.vertices(e))
        owns = owns && prims::slot_holds(m.vh_[u].min_edge, idx, seq);
      for (VertexId u : m.pool_.vertices(e))
        if (owns || prims::slot_holds(m.vh_[u].min_edge, idx, seq))
          prims::release_slot(m.vh_[u].min_edge, seq);
      return owns;
    }

    void finalize(std::size_t i) {
      EdgeId e = choice[i];
      if (!m.cfg_.light_only) {
        // The fresh sample (the lazy machinery's coin), keyed (edge,
        // epoch) -- drawn only for the edge that actually matches.
        m.pri_[e] = m.settle_pri_.word(e, epoch);
        ++m.stats_.samples_created;
      }
      m.push_match(e);
      if (m.delta_sink_)
        for (VertexId u : m.pool_.vertices(e)) m.delta_sink_->push_back(u);
    }
  };

  // Settles ws_.freed: one adjacency harvest fills the workspace candidate
  // cache, then the deterministic-reservations engine runs SettleStep to
  // the fixed point. The arena resets ONCE here (the engine's retry queues
  // and the cached slices live across rounds; every earlier-phase span is
  // dead by now). The harvest keeps the three-stage prefetch pipeline:
  // header + record first, then (for still-free vertices only) the chain's
  // first chunk, then the first entries' slots and vertex rows, so each
  // scan starts primed instead of paying a cold dependent-miss ramp.
  void settle() {
    std::vector<VertexId>& pending = ws_.freed;
    if (pending.empty()) return;
    ws_.arena.reset();
    std::size_t np = pending.size();

    // Candidate-slice offsets: live_deg bounds each free vertex's harvest.
    ws_.cand_off.resize(np);
    ws_.cand_len.resize(np);
    charge_phases(3, np);  // bound fill + scan up/down sweeps
    std::span<std::size_t> off(ws_.cand_off.data(), np);
    parallel::parallel_for(0, np, [&](std::size_t i) {
      const auto& h = vh_[pending[i]];
      off[i] = h.taken_by == kInvalid ? h.live_deg : 0;
    });
    std::size_t total = prims::scan_exclusive(off, ws_.arena);
    if (ws_.cand_pool.size() < total) ws_.cand_pool.resize(total);

    charge_phase(np);
    const bool seq = parallel::run_phase_seq(np);
    std::size_t scanned_total = 0;
    auto peek_entry = [&](std::uint64_t entry) {
      pool_.prefetch_record(graph::EdgePool::ref_id(entry));
    };
    parallel::parallel_for_blocked(0, np, [&](std::size_t b, std::size_t e) {
      const bool sweep_all = e - b <= kSweepSmall;
      if (sweep_all) {
        for (std::size_t i = b; i < e; ++i) prefetch_read(&vh_[pending[i]]);
        for (std::size_t i = b; i < e; ++i)
          if (vh_[pending[i]].free()) adj_.prefetch_chain(vh_[pending[i]].adj);
        for (std::size_t i = b; i < e; ++i)
          if (vh_[pending[i]].free())
            adj_.peek_prefix(vh_[pending[i]].adj,
                             graph::ChunkedAdjacency::kPeekAhead, peek_entry);
      }
      std::size_t scanned = 0;
      for (std::size_t i = b; i < e; ++i) {
        if (!sweep_all) {
          if (i + kPrefetchAhead < e)
            prefetch_read(&vh_[pending[i + kPrefetchAhead]]);
          if (i + kPrefetchAhead / 2 < e) {
            const auto& f = vh_[pending[i + kPrefetchAhead / 2]];
            if (f.free()) adj_.prefetch_chain(f.adj);
          }
          if (i + 1 < e && vh_[pending[i + 1]].free())
            adj_.peek_prefix(vh_[pending[i + 1]].adj,
                             graph::ChunkedAdjacency::kPeekAhead, peek_entry);
        }
        VertexId v = pending[i];
        if (vh_[v].taken_by == kInvalid)
          scanned += harvest_candidates(i, v, seq);
        else
          ws_.cand_len[i] = 0;
      }
      add_block_sum(scanned_total, scanned, seq);
    });
    stats_.work_units += scanned_total;

    auto choice = ws_.arena.alloc<EdgeId>(np);
    SettleStep step{*this, pending.data(), choice.data()};
    prims::SpecStats st = prims::speculative_for(step, 0, np, ws_.arena, 0,
                                                 &batch_.measured_depth);
    batch_.parallel_phases += prims::kSpecRoundPhases * st.rounds;
    stats_.settle_rounds += st.rounds;
    batch_.settle_rounds += st.rounds;
    stats_.spec_retries += st.retries;
    batch_.spec_retries += st.retries;
    stats_.work_units += step.work;
    pending.clear();
  }

  Config cfg_;
  graph::EdgePool pool_;
  // Independent keyed streams (parallel/rng_stream.h): insert priorities
  // by (batch epoch, slot), settle reservoir draws by (vertex, round),
  // resettle priorities by (edge, round). No shared sequential RNG state
  // survives anywhere in the batch path.
  parallel::RngStream insert_pri_;
  parallel::RngStream settle_draw_;
  parallel::RngStream settle_pri_;
  std::uint64_t insert_epoch_ = 0;  // insert batches seen
  std::uint64_t settle_epoch_ = 0;  // settle rounds seen, all batches
  CumulativeStats stats_;
  BatchStats batch_;
  BatchWorkspace ws_;
  std::vector<VertexId>* delta_sink_ = nullptr;  // serve-layer mirror hook

  std::vector<std::uint64_t> pri_;       // id -> current sample
  std::vector<matching::VertexHot> vh_;  // vertex -> packed hot record
  graph::ChunkedAdjacency adj_;          // vertex -> (gen, id) packed refs
  std::vector<MatchHot> matches_;        // the matching, unordered
  std::vector<VertexId> kept_heads_;     // emptied vertices keeping a head
  std::size_t bumped_seen_ = 0;          // chunks_bumped() at last reclaim
};

}  // namespace parmatch::dyn
