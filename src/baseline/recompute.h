// baseline/recompute.h -- recompute-from-scratch baseline (E9b): after
// every batch, throw the matching away and run the static parallel greedy
// matcher (Lemma 1.3) over all live edges. Work-optimal per RUN but
// Theta(m) per BATCH, so it can only compete when batches approach the live
// graph size -- the crossover E9b plots against the dynamic structure.
//
// Complexity contract: insert/delete batch of k edges costs O(k + m')
// expected work where m' is the live total cardinality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/edge.h"
#include "graph/edge_batch.h"
#include "graph/edge_pool.h"
#include "matching/parallel_greedy.h"

namespace parmatch::baseline {

class RecomputeMatcher {
  using EdgeId = graph::EdgeId;

 public:
  RecomputeMatcher(std::size_t max_rank, std::uint64_t seed)
      : pool_(max_rank), seed_(seed) {}

  std::vector<EdgeId> insert_edges(const graph::EdgeBatch& batch) {
    auto ids = pool_.add_edges(batch);
    for (EdgeId id : ids) note_live(id);
    recompute();
    return ids;
  }

  void delete_edges(const std::vector<EdgeId>& ids) {
    for (EdgeId id : ids) {
      if (!pool_.live(id)) continue;
      drop_live(id);
      pool_.remove_edge(id);
    }
    recompute();
  }

  std::vector<EdgeId> matching() const { return last_.matched; }
  const graph::EdgePool& pool() const { return pool_; }

 private:
  void note_live(EdgeId id) {
    if (pos_.size() < pool_.id_bound()) pos_.resize(pool_.id_bound(), kNone);
    pos_[id] = live_.size();
    live_.push_back(id);
  }
  void drop_live(EdgeId id) {
    std::size_t p = pos_[id];
    live_[p] = live_.back();
    pos_[live_[p]] = p;
    live_.pop_back();
    pos_[id] = kNone;
  }
  void recompute() {
    last_ = matching::parallel_greedy_match(pool_, live_, seed_++);
  }

  static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);
  graph::EdgePool pool_;
  std::vector<EdgeId> live_;
  std::vector<std::size_t> pos_;
  matching::MatchResult last_;
  std::uint64_t seed_;
};

}  // namespace parmatch::baseline
