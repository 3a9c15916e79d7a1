// graph/adjacency.h -- chunked-arena incidence lists for the dynamic
// matcher (DESIGN.md S7/S11). Replaces the old vector<vector<uint64_t>>
// per-vertex adjacency: entries live in fixed-size chunks carved out of
// slab storage, so appends never touch the general-purpose allocator, a
// vertex's entries sit on whole cache lines instead of pointer-chased heap
// nodes, and lazy compaction (sample_candidate's stale-entry drop) rewrites
// the vertex's own chunk chain in place.
//
// The per-vertex chain header (AdjHead) is CALLER-owned: the matcher
// embeds it in the packed per-vertex VertexHot record so the hot loops
// read vertex state and chain location in one cache line (DESIGN.md S11).
// The arena itself owns only the chunk slabs and the bump cursor; every
// chain operation takes the header by reference.
//
// Chunk storage is a list of fixed-size slabs (512 KiB each), never a
// single growing vector: growth appends a slab without copying or
// value-initializing the ones before it, so existing chunks stay pinned in
// memory while a parallel phase runs and arena growth is O(new slab), not
// O(everything so far).
//
// Concurrency contract (matches the matcher's phase structure):
//  * append/compact/release_chain on a given header (vertex) are
//    owner-exclusive -- exactly one worker touches a vertex within a phase
//    (the per-vertex-group ownership of insert P2, the per-pending-vertex
//    ownership of settle sampling, and in the delete pass the decrement
//    that takes the vertex's live degree to 0).
//  * Different vertices append and release concurrently; the only shared
//    state is the free list, the pending list and the bump cursor, each
//    touched by one relaxed RMW per chunk or released segment when the
//    phase forks and by plain memory when it runs inline. Slabs are
//    pre-sized by reserve_for() BEFORE a phase that appends, so the slab
//    list never mutates under concurrent appends.
//  * Chunk indices assigned to a vertex depend on the schedule, but the
//    entry SEQUENCE of each vertex does not -- iteration order is append
//    order -- so everything the matcher derives from a scan (reservoir
//    draws, compaction) is schedule-independent (DESIGN.md S2).
//
// Retention follows the live incidences, not their history. A chain holds
// exactly max(1, ceil(len / kChunkCap)) chunks: compaction returns the
// chunks past its new tail, and release_chain returns a whole chain (the
// matcher's delete pass calls it when a vertex's live degree reaches 0;
// an inline pass calls clear_keep_head instead, which keeps the head
// chunk for the vertex's refill until the matcher reclaims it). Returned
// chunks go to an intrusive free list linked through Chunk::next, and
// allocation pops that list before it bumps the slab cursor. Slabs are never freed,
// so once the arena has seen a workload's high-water chain total, later
// batches neither grow it nor touch the general-purpose allocator.
//
// Recycling under the concurrency contract: every operation that may
// allocate or release takes `seq`, the phase's run_phase_seq answer. An
// inline phase pushes and pops the free list with plain memory, so a chunk
// it releases may be handed out again at once. A forked phase pops the
// free list by compare-and-swap on a word that packs the list's head and
// length, and pushes what it releases onto a separate pending list, so the
// free list is pop-only while the phase runs (no ABA: a popped chunk
// cannot come back to the head) and no released chunk is reused before
// the phase ends. reserve_for, which runs between phases, splices the
// pending list back onto the free list. Chunk::next is read and written
// through relaxed atomic_ref, because a forked pop may still read the link
// of a chunk another worker has just popped and is relinking.
//
// Complexity contract: append amortized O(1); compact_visit O(len);
// release_chain O(1) (a chain is one linked segment, and its chunk count
// follows from len); memory O(sum over vertices of ceil(chain len /
// kChunkCap)) chunks in chains, plus the free list, whose length is at
// most the arena's high-water chain total minus the current one.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/edge.h"
#include "util/prefetch.h"

namespace parmatch::graph {

// Per-vertex chain header. Owned and stored by the CALLER, not the arena:
// the matcher embeds it in the packed VertexHot record
// (matching/vertex_hot.h), so reading a vertex's hot state and locating
// its incidence chain is one cache line, not two (DESIGN.md S11).
struct AdjHead {
  static constexpr std::uint32_t kNull = 0xFFFF'FFFFu;
  std::uint32_t head = kNull;  // first chunk of the chain
  std::uint32_t tail = kNull;  // chunk holding entry len-1 (== head if empty)
  std::uint32_t len = 0;       // live + not-yet-compacted entries
};

class ChunkedAdjacency {
 public:
  // 15 entries + next link = 128 bytes, two cache lines per chunk.
  static constexpr std::size_t kChunkCap = 15;
  static constexpr std::uint32_t kNull = AdjHead::kNull;

  // Guarantees the arena can absorb `extra_entries` appended entries spread
  // over at most `touched_vertices` vertices without growing its slab
  // list, and returns the chunks that earlier forked phases released to
  // the free list. Call before any phase that appends. Not concurrent.
  void reserve_for(std::size_t extra_entries, std::size_t touched_vertices) {
    splice_pending();
    std::size_t want = extra_entries / kChunkCap + 2 * touched_vertices;
    std::size_t have = list_len(free_);
    if (want <= have) return;
    std::size_t need = cursor_ + (want - have);
    while (slabs_.size() * kSlabChunks < need)
      slabs_.push_back(std::make_unique_for_overwrite<Chunk[]>(kSlabChunks));
  }

  // Prefetch hooks for the batched-miss pipeline (DESIGN.md S11). The
  // header itself lives in the caller's record (one prefetch covers both);
  // these stages require it to be resident already: pull the first chunk
  // of the chain (scans) or the append cursor's line (inserts).
  void prefetch_chain(const AdjHead& h) const {
    if (h.head == kNull || h.len == 0) return;
    const Chunk* c = &chunk_at(h.head);
    prefetch_read(c);
    prefetch_read(reinterpret_cast<const char*>(c) + 64);
  }

  void prefetch_append_target(const AdjHead& h) const {
    if (h.head == kNull) return;
    std::size_t pos = h.len % kChunkCap;
    prefetch_write(reinterpret_cast<const char*>(&chunk_at(h.tail)) +
                   (pos * sizeof(std::uint64_t) & ~std::size_t{63}));
  }

  // Stage 3 of the scan pipeline: the chain's first chunk is resident
  // (prefetch_chain issued earlier), so hand its first `limit` entries to
  // `f` -- the caller prefetches their dependent lines before the real
  // scan reaches the vertex. Read-only.
  template <typename F>
  void peek_prefix(const AdjHead& h, std::size_t limit, F&& f) const {
    std::size_t n = h.len < limit ? h.len : limit;
    if (n == 0) return;
    const Chunk& c = chunk_at(h.head);
    if (n > kChunkCap) n = kChunkCap;
    for (std::size_t i = 0; i < n; ++i) f(c.entry[i]);
  }

  // Owner-exclusive append of one packed (generation, id) entry. `seq` is
  // whether the calling phase runs inline.
  void append(AdjHead& h, std::uint64_t entry, bool seq) {
    if (h.head == kNull) {
      h.head = h.tail = alloc_chunk(seq);
    } else if (h.len % kChunkCap == 0 && h.len != 0) {
      // Tail chunk full: the chain ends there, so link a new chunk.
      std::uint32_t nxt = alloc_chunk(seq);
      set_next(chunk(h.tail), nxt);
      h.tail = nxt;
    }
    chunk(h.tail).entry[h.len % kChunkCap] = entry;
    ++h.len;
  }

  // Owner-exclusive release of the whole chain to the free list; leaves
  // the header empty.
  void release_chain(AdjHead& h, bool seq) {
    if (h.head == kNull) return;
    release_segment(h.head, h.tail, chunks_for(h.len), seq);
    h = AdjHead{};
  }

  // Owner-exclusive emptying of a chain whose entries are all stale, for
  // inline phases: the head chunk stays with the vertex (len 0), so a
  // refill appends into it without touching the free list, and only the
  // chunks past the head go back. The caller remembers the vertex and
  // returns the head with release_chain once the free list runs dry.
  void clear_keep_head(AdjHead& h) {
    if (h.head == kNull) return;
    if (h.len > kChunkCap) {
      Chunk& head = chunk(h.head);
      release_segment(next_of(head), h.tail, chunks_for(h.len) - 1, true);
      set_next(head, kNull);
    }
    h.len = 0;
    h.tail = h.head;
  }

  // Owner-exclusive scan + in-place compaction: visit(entry) decides
  // whether the entry is kept; kept entries are repacked in order at the
  // front of the chain, and the chunks the shrink empties go back to the
  // free list. Returns the pre-compaction length (the scan cost the caller
  // charges to its work accounting).
  template <typename Visit>
  std::size_t compact_visit(AdjHead& h, bool seq, Visit&& visit) {
    return compact_visit(
        h, seq, visit, [](std::uint64_t) {}, [](std::uint64_t) {});
  }

  // compact_visit with two lookahead hooks forming a prefetch pipeline:
  // peek_far(entry) fires kPeekAhead entries before visit(entry) -- issue
  // address-only prefetches (slot records, vertex rows); peek_near(entry)
  // fires kPeekAhead/2 entries before -- by then the far prefetches have
  // landed, so it can cheaply READ those lines and prefetch one dependency
  // level deeper (e.g. the endpoint's vertex record). Hooks must not
  // mutate anything.
  template <typename Visit, typename PeekFar, typename PeekNear>
  std::size_t compact_visit(AdjHead& h, bool seq, Visit&& visit,
                            PeekFar&& peek_far, PeekNear&& peek_near) {
    std::size_t len = h.len;
    if (len == 0) return 0;
    std::uint32_t rc = h.head, wc = h.head;
    std::size_t ri = 0, wi = 0, kept = 0;
    const Chunk* rch = &chunk(rc);
    Chunk* wch = &chunk(wc);
    if (len <= kPeekAhead) {
      // Short chain (one partial chunk): the cursor machinery below is
      // pure overhead. Run the near hook over every entry, then visit.
      for (std::size_t k = 0; k < len; ++k) peek_near(rch->entry[k]);
      for (std::size_t k = 0; k < len; ++k) {
        std::uint64_t e = rch->entry[k];
        if (visit(e)) wch->entry[kept++] = e;
      }
      h.len = static_cast<std::uint32_t>(kept);
      return len;
    }
    // Far cursor runs kPeekAhead entries in front of the read cursor; a
    // small ring of already-far-peeked entries feeds the near hook at
    // half that distance. Compaction writes trail the read cursor, so the
    // peeks always see unmodified entries.
    std::uint32_t pc = rc;
    std::size_t pi = 0, peeked = 0;
    const Chunk* pch = rch;
    std::uint64_t ring[kPeekAhead];
    auto advance_peek = [&] {
      if (peeked >= len) return;
      if (pi == kChunkCap) {
        pc = next_of(*pch);
        pch = &chunk(pc);
        pi = 0;
      }
      std::uint64_t e = pch->entry[pi++];
      peek_far(e);
      ring[peeked % kPeekAhead] = e;
      ++peeked;
    };
    for (std::size_t w = 0; w < kPeekAhead && w < len; ++w) advance_peek();
    constexpr std::size_t kNear = kPeekAhead / 2;
    for (std::size_t k = 0; k < len; ++k) {
      advance_peek();
      if (k + kNear < peeked) peek_near(ring[(k + kNear) % kPeekAhead]);
      if (ri == kChunkCap) {
        rc = next_of(*rch);
        rch = &chunk(rc);
        ri = 0;
      }
      std::uint64_t e = rch->entry[ri++];
      if (visit(e)) {
        if (wi == kChunkCap) {
          wc = next_of(*wch);
          wch = &chunk(wc);
          wi = 0;
        }
        wch->entry[wi++] = e;
        ++kept;
      }
    }
    // The chunks past wc (the chunk holding the last kept entry, or the
    // head when nothing is kept) run to the old tail: one segment.
    std::size_t drop = chunks_for(len) - chunks_for(kept);
    if (drop != 0) {
      release_segment(next_of(*wch), h.tail, drop, seq);
      set_next(*wch, kNull);
    }
    h.len = static_cast<std::uint32_t>(kept);
    h.tail = wc;
    return len;
  }

  // Read-only walk of a chain's full entry sequence in append order (the
  // order every deterministic draw indexes into -- DESIGN.md S2), for the
  // checkpoint exporter and the state fingerprint (DESIGN.md S14). No
  // compaction, no mutation.
  template <typename F>
  void visit(const AdjHead& h, F&& f) const {
    std::size_t len = h.len;
    if (len == 0) return;
    std::uint32_t c = h.head;
    const Chunk* ch = &chunk_at(c);
    std::size_t i = 0;
    for (std::size_t k = 0; k < len; ++k) {
      if (i == kChunkCap) {
        c = next_of(*ch);
        ch = &chunk_at(c);
        i = 0;
      }
      f(ch->entry[i++]);
    }
  }

  // How far the scan's far peek cursor runs ahead of the visit cursor.
  static constexpr std::size_t kPeekAhead = 4;

  // Diagnostics: chunks linked into some chain (handed out and not back on
  // the free or pending list).
  std::size_t chunks_in_use() const {
    return cursor_ - list_len(free_) - list_len(pending_);
  }

  // Chunks ever carved from fresh slab space. It grows only when an
  // allocation finds the free list dry.
  std::size_t chunks_bumped() const { return cursor_; }

  // Diagnostics: chunks linked into h's chain, counted by walking it.
  std::size_t chain_chunks(const AdjHead& h) const {
    std::size_t n = 0;
    for (std::uint32_t c = h.head; c != kNull; c = next_of(chunk_at(c))) ++n;
    return n;
  }

  // Bytes of the chunks in use (the benches' memory accounting). Free
  // chunks and slab tails never handed out are excluded: a free chunk's
  // lines stay resident, but they are reused before the slab list grows.
  std::size_t memory_bytes() const { return chunks_in_use() * sizeof(Chunk); }

 private:
  struct alignas(64) Chunk {  // whole cache lines: no cross-chunk false
    std::uint64_t entry[kChunkCap];  // sharing between concurrent owners
    std::uint32_t next;
  };
  static_assert(sizeof(Chunk) == 128 && alignof(Chunk) == 64);

  static constexpr std::size_t kSlabChunks = 1u << 12;  // 512 KiB per slab

  // A free or pending list is one word: (length << 32) | first chunk.
  static constexpr std::uint64_t kEmptyList = kNull;
  static std::uint32_t list_head(std::uint64_t w) {
    return static_cast<std::uint32_t>(w);
  }
  static std::size_t list_len(std::uint64_t w) { return w >> 32; }
  static std::uint64_t make_list(std::size_t len, std::uint32_t head) {
    return std::uint64_t{len} << 32 | head;
  }

  // Chunks in a chain of `len` entries (an empty chain keeps its head).
  static std::size_t chunks_for(std::size_t len) {
    return len == 0 ? 1 : (len + kChunkCap - 1) / kChunkCap;
  }

  static std::uint32_t next_of(const Chunk& c) {
    return std::atomic_ref<std::uint32_t>(const_cast<std::uint32_t&>(c.next))
        .load(std::memory_order_relaxed);
  }
  static void set_next(Chunk& c, std::uint32_t n) {
    std::atomic_ref<std::uint32_t>(c.next).store(n,
                                                 std::memory_order_relaxed);
  }

  Chunk& chunk(std::uint32_t i) {
    return slabs_[i / kSlabChunks][i % kSlabChunks];
  }

  const Chunk& chunk_at(std::uint32_t i) const {
    return slabs_[i / kSlabChunks][i % kSlabChunks];
  }

  // Pops the free list, else bumps the cursor. The new chunk ends its
  // chain (next == kNull); the owner links it from there.
  std::uint32_t alloc_chunk(bool seq) {
    std::uint32_t i = seq ? pop_inline() : pop_forked();
    if (i == kNull) {
      std::size_t c =
          seq ? cursor_++
              : std::atomic_ref<std::size_t>(cursor_).fetch_add(
                    1, std::memory_order_relaxed);
      assert(c < slabs_.size() * kSlabChunks &&
             "reserve_for not called before appends");
      i = static_cast<std::uint32_t>(c);
    }
    set_next(chunk(i), kNull);
    return i;
  }

  std::uint32_t pop_inline() {
    std::uint32_t i = list_head(free_);
    if (i != kNull) free_ = make_list(list_len(free_) - 1, next_of(chunk(i)));
    return i;
  }

  // Forked phases only push to the pending list, so the free list is
  // pop-only here and a successful CAS proves `nxt` was i's link.
  std::uint32_t pop_forked() {
    std::atomic_ref<std::uint64_t> top(free_);
    std::uint64_t w = top.load(std::memory_order_relaxed);
    while (list_head(w) != kNull) {
      std::uint32_t nxt = next_of(chunk(list_head(w)));
      if (top.compare_exchange_weak(w, make_list(list_len(w) - 1, nxt),
                                    std::memory_order_relaxed))
        return list_head(w);
    }
    return kNull;
  }

  // Returns the n linked chunks first..last (last's link is overwritten).
  // Inline phases push onto the free list; forked phases onto the pending
  // list, whose first-pushed segment's last chunk is remembered so that
  // splice_pending can link the whole list in O(1).
  void release_segment(std::uint32_t first, std::uint32_t last,
                       std::size_t n, bool seq) {
    if (seq) {
      set_next(chunk(last), list_head(free_));
      free_ = make_list(list_len(free_) + n, first);
      return;
    }
    std::atomic_ref<std::uint64_t> top(pending_);
    std::uint64_t w = top.load(std::memory_order_relaxed);
    do {
      set_next(chunk(last), list_head(w));
    } while (!top.compare_exchange_weak(w, make_list(list_len(w) + n, first),
                                        std::memory_order_relaxed));
    if (list_head(w) == kNull) pending_last_ = last;  // exactly one pusher
  }

  void splice_pending() {
    if (list_head(pending_) == kNull) return;
    set_next(chunk(pending_last_), list_head(free_));
    free_ = make_list(list_len(free_) + list_len(pending_),
                      list_head(pending_));
    pending_ = kEmptyList;
    pending_last_ = kNull;
  }

  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  std::size_t cursor_ = 0;               // chunks ever handed out by bump
  std::uint64_t free_ = kEmptyList;      // reusable now
  std::uint64_t pending_ = kEmptyList;   // released by a forked phase
  std::uint32_t pending_last_ = kNull;   // last chunk of the pending list
};

}  // namespace parmatch::graph
