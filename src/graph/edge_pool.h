// graph/edge_pool.h -- slab storage for live hyperedges with free-list id
// recycling (DESIGN.md S3). The dynamic matcher needs edge ids that are
// stable while an edge is alive and reusable after it dies; recycling keeps
// the id space -- and therefore every id-indexed array -- proportional to
// the maximum number of simultaneously live edges, which is what makes the
// paper's O(1) space-per-live-edge accounting hold.
//
// Because ids are recycled, lazy references (e.g. adjacency entries held by
// the matcher) must be validated: each slot carries a generation counter,
// bumped on every free, so a stale (id, generation) pair can be rejected in
// O(1) without eagerly unlinking it (the constant-work deletion path in
// paper Section 5 depends on this).
//
// Storage layout (DESIGN.md S11): ONE record per id --
// [generation][rank][vertices...] at a fixed stride -- instead of separate
// generation/rank/vertex arrays. The settle scan's innermost step
// (validate a ref, then read its vertices) and the delete path's
// liveness-then-vertices chase each touch a single cache line at rank 2
// (16-byte records, line-aligned since the stride divides 64), where the
// split arrays cost two to three.
//
// Complexity contract: add/remove are O(r) per edge; vertices() is O(1).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge.h"
#include "graph/edge_batch.h"
#include "parallel/parallel_for.h"
#include "util/prefetch.h"

namespace parmatch::graph {

class EdgePool {
 public:
  // max_rank is capped at 255 as a sanity bound on the record stride. The
  // paper's regime is small constant r, so the cap is a storage contract,
  // not a real limit.
  explicit EdgePool(std::size_t max_rank)
      : max_rank_(max_rank),
        // 2 header words (gen, rank) + one word per vertex, padded to an
        // even word count so records stay 8-byte aligned and the rank-2
        // record is exactly 16 bytes (never straddles a cache line).
        stride_((2 + max_rank + 1) & ~std::size_t{1}) {
    assert(max_rank_ >= 1 && max_rank_ <= 255);
  }

  EdgeId add_edge(std::span<const VertexId> vertices) {
    assert(vertices.size() >= 1 && vertices.size() <= max_rank_);
    EdgeId id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<EdgeId>(nslots_++);
      data_.resize(nslots_ * stride_, 0);
    }
    rank_at(id) = static_cast<std::uint32_t>(vertices.size());
    VertexId* dst = row(id);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      dst[i] = vertices[i];
      if (vertices[i] + 1 > vertex_bound_) vertex_bound_ = vertices[i] + 1;
    }
    ++live_;
    return id;
  }

  // Batch insert into a caller-owned id buffer (reuses its capacity, so a
  // steady-state batch allocates nothing). Id assignment is a reserved-range
  // pop: the batch claims the tail `f` entries of the free list plus a
  // fresh range of the id space up front, then every slot -- id pick and
  // vertex fill alike -- is written in parallel. ids[i] equals what k
  // sequential add_edge calls would have assigned (free-list tail popped
  // back-to-front, then fresh ids in batch order) at any worker count.
  void add_edges(const EdgeBatch& batch, std::vector<EdgeId>& ids) {
    std::size_t k = batch.size();
    ids.resize(k);
    std::size_t f = k < free_.size() ? k : free_.size();
    std::size_t free_top = free_.size();  // pops come off the tail
    std::size_t fresh0 = nslots_;         // first fresh id
    nslots_ += k - f;
    data_.resize(nslots_ * stride_, 0);
    // Recycled ids land at random records; sweep their lines into cache
    // before the fill loop chases them one by one.
    for (std::size_t i = 0; i < f; ++i)
      prefetch_write(&data_[free_[free_top - 1 - i] * stride_]);
    const bool seq = parallel::run_phase_seq(k);
    std::atomic<VertexId> vb(vertex_bound_);
    parallel::parallel_for(0, k, [&](std::size_t i) {
      auto vs = batch.edge(i);
      assert(vs.size() >= 1 && vs.size() <= max_rank_);
      EdgeId id = i < f ? free_[free_top - 1 - i]
                        : static_cast<EdgeId>(fresh0 + (i - f));
      ids[i] = id;
      rank_at(id) = static_cast<std::uint32_t>(vs.size());
      VertexId* dst = row(id);
      VertexId local = 0;
      for (std::size_t j = 0; j < vs.size(); ++j) {
        dst[j] = vs[j];
        if (vs[j] + 1 > local) local = vs[j] + 1;
      }
      if (seq) {  // plain max: the loop runs inline (run_phase_seq)
        if (local > vb.load(std::memory_order_relaxed))
          vb.store(local, std::memory_order_relaxed);
        return;
      }
      VertexId cur = vb.load(std::memory_order_relaxed);
      while (local > cur &&
             !vb.compare_exchange_weak(cur, local, std::memory_order_relaxed)) {
      }
    });
    free_.resize(free_top - f);
    vertex_bound_ = vb.load(std::memory_order_relaxed);
    live_ += k;
  }

  std::vector<EdgeId> add_edges(const EdgeBatch& batch) {
    std::vector<EdgeId> ids;
    add_edges(batch, ids);
    return ids;
  }

  void remove_edge(EdgeId id) {
    assert(live(id));
    rank_at(id) = 0;
    ++gen_at(id);
    free_.push_back(id);
    --live_;
  }

  // Batch delete: slot frees in parallel, free-list append as one bulk
  // scatter (free_[base + i] = ids[i]) so recycling order stays the batch
  // order regardless of worker count. Ids must be live and distinct.
  void remove_edges(std::span<const EdgeId> ids) {
    std::size_t base = free_.size();
    free_.resize(base + ids.size());
    parallel::parallel_for(0, ids.size(), [&](std::size_t i) {
      EdgeId id = ids[i];
      assert(live(id));
      rank_at(id) = 0;
      ++gen_at(id);
      free_[base + i] = id;
    });
    live_ -= ids.size();
  }

  bool live(EdgeId id) const { return id < nslots_ && rank_at(id) != 0; }

  std::span<const VertexId> vertices(EdgeId id) const {
    assert(live(id));
    const VertexId* p = row(id);
    return {p, p + rank_at(id)};
  }

  std::size_t rank(EdgeId id) const { return rank_at(id); }

  // Generation of a slot; bumped each time the slot is freed, so a stale
  // (id, generation) reference can be detected in O(1).
  std::uint32_t generation(EdgeId id) const { return gen_at(id); }

  // Packed (generation << 32 | id) reference for lazily maintained
  // adjacency lists: holders never unlink eagerly; they drop entries whose
  // ref_valid() went false (the slot was freed, maybe recycled) instead.
  std::uint64_t packed_ref(EdgeId id) const {
    return (static_cast<std::uint64_t>(gen_at(id)) << 32) | id;
  }
  static EdgeId ref_id(std::uint64_t ref) { return static_cast<EdgeId>(ref); }
  bool ref_valid(std::uint64_t ref) const {
    EdgeId id = ref_id(ref);
    if (id >= nslots_) return false;
    // Header and vertices share the record (and, at rank 2, the cache
    // line), so the validate-then-read-vertices chase costs one miss.
    return rank_at(id) != 0 &&
           gen_at(id) == static_cast<std::uint32_t>(ref >> 32);
  }

  // Like vertices(), but id may name a freed or never-allocated slot
  // (empty span) -- for speculative reads on possibly-stale refs, e.g. the
  // settle scan's prefetch pipeline.
  std::span<const VertexId> vertices_if_live(EdgeId id) const {
    if (id >= nslots_) return {};
    const VertexId* p = row(id);
    return {p, p + rank_at(id)};
  }

  // Prefetch hook for the scanning loops: pulls the whole record --
  // validation header and vertex row -- a few iterations early. Records
  // wider than a line (rank > 14) get their tail line too.
  void prefetch_record(EdgeId id) const {
    if (id >= nslots_) return;
    const std::uint32_t* p = &data_[static_cast<std::size_t>(id) * stride_];
    prefetch_read(p);
    if constexpr (sizeof(std::uint32_t) == 4) {
      if (stride_ > 16) prefetch_read(p + 16);
    }
  }

  // One past the largest vertex id ever stored.
  VertexId vertex_bound() const { return vertex_bound_; }

  // One past the largest edge id ever allocated (live or recycled).
  std::size_t id_bound() const { return nslots_; }

  std::size_t live_count() const { return live_; }
  std::size_t max_rank() const { return max_rank_; }

  // Bytes of the pool's records and free list, by size, not capacity (the
  // benches' bytes-per-live-edge accounting).
  std::size_t memory_bytes() const {
    return data_.size() * sizeof(std::uint32_t) +
           free_.size() * sizeof(EdgeId);
  }

  // --- checkpoint serialization (DESIGN.md S14) -------------------------
  //
  // The pool's id-assignment determinism contract (add_edges pops the free
  // list back-to-front, then fresh ids) means bit-identical replay needs
  // the free list IN ORDER and every slot's generation -- not just the
  // live edges. The record slab is therefore dumped verbatim: dead slots
  // carry their generation (rank 0), live slots carry everything.
  // Word stream layout, all u64:
  //   [nslots][vertex_bound][live][nfree][free ids...][data words packed
  //    2 x u32 per u64, (nslots * stride + 1) / 2 words]
  // Each word goes to `put(std::uint64_t)` in stream order; nothing is
  // buffered (DynamicMatcher::export_words).
  template <class Put>
  void export_words(Put&& put) const {
    put(nslots_);
    put(vertex_bound_);
    put(live_);
    put(free_.size());
    for (EdgeId id : free_) put(id);
    const std::size_t nwords = nslots_ * stride_;
    for (std::size_t i = 0; i < nwords; i += 2) {
      std::uint64_t w = data_[i];
      if (i + 1 < nwords) w |= static_cast<std::uint64_t>(data_[i + 1]) << 32;
      put(w);
    }
  }

  // Restores a stream produced by export_words on a pool constructed with
  // the SAME max_rank (the stream has no stride of its own). Only valid on
  // a fresh pool. Returns false on a malformed stream; `consumed` gets the
  // number of words read on success. A stream can pass its checkpoint CRC
  // and still be wrong, so nothing in it is trusted: every size is bounded
  // by the words actually present before it is multiplied, the live count
  // is recounted from the slot ranks, every live slot must have rank
  // 1..max_rank and vertex ids below the vertex bound, and the free list
  // must name each dead slot exactly once.
  bool import_state(std::span<const std::uint64_t> in, std::size_t* consumed) {
    assert(nslots_ == 0 && live_ == 0 && "import into a used pool");
    if (in.size() < 4) return false;
    const std::uint64_t nslots = in[0];
    const std::uint64_t vb = in[1];
    const std::uint64_t live = in[2];
    const std::uint64_t nfree = in[3];
    const std::size_t avail = in.size() - 4;
    // Ids and vertex ids are 32-bit; with nslots bounded the slab size
    // below cannot wrap (stride_ <= 258).
    if (nslots > kInvalidEdge || vb > kInvalidVertex) return false;
    if (live > nslots || nfree != nslots - live || nfree > avail)
      return false;
    const std::size_t nwords = static_cast<std::size_t>(nslots) * stride_;
    const std::size_t ndata = (nwords + 1) / 2;
    if (ndata > avail - nfree) return false;
    std::size_t p = 4;
    free_.assign(in.begin() + p, in.begin() + p + nfree);
    p += nfree;
    data_.resize(nwords);
    for (std::size_t i = 0; i < nwords; i += 2) {
      std::uint64_t w = in[p + i / 2];
      data_[i] = static_cast<std::uint32_t>(w);
      if (i + 1 < nwords) data_[i + 1] = static_cast<std::uint32_t>(w >> 32);
    }
    p += ndata;
    nslots_ = static_cast<std::size_t>(nslots);
    std::size_t counted = 0;
    for (std::size_t id = 0; id < nslots_; ++id) {
      std::uint32_t r = rank_at(static_cast<EdgeId>(id));
      if (r == 0) continue;
      if (r > max_rank_) return false;
      const VertexId* vs = row(static_cast<EdgeId>(id));
      for (std::uint32_t j = 0; j < r; ++j)
        if (vs[j] >= vb) return false;
      ++counted;
    }
    if (counted != live) return false;
    // With nfree == nslots - live, distinct dead ids make the free list
    // exactly the dead set.
    std::vector<bool> listed(nslots_);
    for (EdgeId id : free_) {
      if (id >= nslots_ || rank_at(id) != 0 || listed[id]) return false;
      listed[id] = true;
    }
    vertex_bound_ = static_cast<VertexId>(vb);
    live_ = static_cast<std::size_t>(live);
    if (consumed) *consumed = p;
    return true;
  }

 private:
  std::uint32_t& gen_at(EdgeId id) {
    return data_[static_cast<std::size_t>(id) * stride_];
  }
  const std::uint32_t& gen_at(EdgeId id) const {
    return data_[static_cast<std::size_t>(id) * stride_];
  }
  std::uint32_t& rank_at(EdgeId id) {
    return data_[static_cast<std::size_t>(id) * stride_ + 1];
  }
  const std::uint32_t& rank_at(EdgeId id) const {
    return data_[static_cast<std::size_t>(id) * stride_ + 1];
  }
  VertexId* row(EdgeId id) {
    return data_.data() + static_cast<std::size_t>(id) * stride_ + 2;
  }
  const VertexId* row(EdgeId id) const {
    return data_.data() + static_cast<std::size_t>(id) * stride_ + 2;
  }

  std::size_t max_rank_;
  std::size_t stride_;  // record width in 32-bit words
  std::vector<std::uint32_t> data_;  // [gen][rank][vertices...] per id
  std::size_t nslots_ = 0;
  std::vector<EdgeId> free_;
  VertexId vertex_bound_ = 0;
  std::size_t live_ = 0;
};

}  // namespace parmatch::graph
