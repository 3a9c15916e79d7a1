// graph/edge_batch.h -- a flat, append-only sequence of hyperedges, the unit
// of update the paper's interface takes (Section 2: updates arrive as batches
// of edge insertions/deletions). CSR layout: one offsets array into one
// vertex array, so iterating a batch is a linear scan.
//
// Complexity contract: add() is amortized O(r); edge(i) is O(1); the whole
// batch occupies m' + m + O(1) words where m' is total cardinality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "graph/edge.h"

namespace parmatch::graph {

class EdgeBatch {
 public:
  EdgeBatch() : offsets_(1, 0) {}

  void add(std::span<const VertexId> vertices) {
    verts_.insert(verts_.end(), vertices.begin(), vertices.end());
    offsets_.push_back(static_cast<std::uint32_t>(verts_.size()));
  }

  void add(std::initializer_list<VertexId> vertices) {
    add(std::span<const VertexId>(vertices.begin(), vertices.size()));
  }

  // Empties the batch but keeps both buffers' capacity, so a serving loop
  // can refill the same batch object allocation-free.
  void clear() {
    verts_.clear();
    offsets_.resize(1);
  }

  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  std::span<const VertexId> edge(std::size_t i) const {
    return {verts_.data() + offsets_[i],
            verts_.data() + offsets_[i + 1]};
  }

  // Position of edge i's first vertex in the flat vertex array: the
  // exclusive prefix sum of the ranks before it.
  std::size_t offset(std::size_t i) const { return offsets_[i]; }

  // m' in the paper's bounds: the sum of edge ranks.
  std::size_t total_cardinality() const { return verts_.size(); }

  // Largest rank of any edge in the batch (0 when empty).
  std::size_t max_rank() const {
    std::size_t r = 0;
    for (std::size_t i = 0; i + 1 < offsets_.size(); ++i)
      r = std::max<std::size_t>(r, offsets_[i + 1] - offsets_[i]);
    return r;
  }

  // One past the largest vertex id mentioned (0 when empty).
  VertexId vertex_bound() const {
    VertexId b = 0;
    for (VertexId v : verts_)
      if (v + 1 > b) b = v + 1;
    return b;
  }

 private:
  std::vector<VertexId> verts_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace parmatch::graph
