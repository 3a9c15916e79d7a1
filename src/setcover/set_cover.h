// setcover/set_cover.h -- r-approximate set cover by maximal matching
// (paper Corollaries 1.4 / 1.5). An element that belongs to at most r sets
// is a hyperedge of rank <= r over sets-as-vertices; a maximal matching M
// of those hyperedges gives the classic sandwich
//
//     |M|  <=  OPT  <=  |cover|  <=  r * |M|,
//
// where the cover is every set touched by a matched element: matched
// elements are pairwise set-disjoint (so OPT needs one set per matched
// element), and every element shares a set with some matched element (else
// M was not maximal), so the touched sets cover everything.
//
// DynamicSetCover maintains this under element insertions/deletions by
// delegating to dyn::DynamicMatcher -- O(r^3) amortized work per element
// update (Corollary 1.4); static_set_cover runs the static greedy matcher
// for O(m') expected work (Corollary 1.5). Both gather the cover with
// touched_sets: one radix sort of the matched elements' sets, then unique.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "graph/edge.h"
#include "graph/edge_batch.h"
#include "graph/edge_pool.h"
#include "matching/parallel_greedy.h"
#include "prims/radix_sort.h"

namespace parmatch::setcover {

using SetId = graph::VertexId;        // sets play the role of vertices
using ElementId = graph::EdgeId;      // elements play the role of edges
using ElementBatch = graph::EdgeBatch;

// The sets touched by the matched elements, ascending and without repeats.
// Matched elements share no set, so a repeat comes only from an element
// that lists a set twice. O(|matched| * r) work: the 32-bit radix sort is
// linear.
inline std::vector<SetId> touched_sets(const graph::EdgePool& pool,
                                       std::span<const ElementId> matched) {
  std::vector<SetId> sets;
  for (ElementId e : matched)
    for (SetId s : pool.vertices(e)) sets.push_back(s);
  prims::radix_sort(sets, [](SetId s) { return std::uint64_t{s}; }, 32);
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  return sets;
}

class DynamicSetCover {
 public:
  // max_freq is r: the maximum number of sets any element belongs to.
  DynamicSetCover(std::size_t max_freq, std::uint64_t seed)
      : matcher_(make_config(max_freq, seed)) {}

  std::vector<ElementId> insert_elements(const ElementBatch& batch) {
    auto ids = matcher_.insert_edges(batch);  // span into matcher scratch
    return {ids.begin(), ids.end()};
  }

  void delete_elements(const std::vector<ElementId>& ids) {
    matcher_.delete_edges(ids);
  }

  const dyn::DynamicMatcher& matcher() const { return matcher_; }

  std::size_t matching_size() const { return matcher_.matched_count(); }

  // Sets touched by matched elements, ascending. O(matching * r) per call.
  std::vector<SetId> cover() const {
    return touched_sets(matcher_.pool(), matcher_.matching());
  }

  std::size_t cover_size() const { return cover().size(); }

 private:
  static dyn::Config make_config(std::size_t max_freq, std::uint64_t seed) {
    dyn::Config cfg;
    cfg.max_rank = max_freq;
    cfg.seed = seed;
    return cfg;
  }

  dyn::DynamicMatcher matcher_;
};

struct StaticCoverResult {
  std::vector<SetId> cover;
  std::size_t matching_size = 0;
};

inline StaticCoverResult static_set_cover(const ElementBatch& system,
                                          std::size_t r, std::uint64_t seed) {
  graph::EdgePool pool(r);
  auto ids = pool.add_edges(system);
  auto match = matching::parallel_greedy_match(pool, ids, seed);
  StaticCoverResult out;
  out.cover = touched_sets(pool, match.matched);
  out.matching_size = match.matched.size();
  return out;
}

}  // namespace parmatch::setcover
