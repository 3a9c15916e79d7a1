// Set-cover-via-matching tests (paper Corollaries 1.4 / 1.5): the cover
// must cover every live element, be exactly the sets the matched elements
// touch (ascending, no repeats) and be within a factor r of the matching
// lower bound, statically and under element churn.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/edge_pool.h"
#include "matching/parallel_greedy.h"
#include "setcover/set_cover.h"
#include "util/rng.h"

using namespace parmatch;
using setcover::ElementBatch;
using setcover::ElementId;
using setcover::SetId;

namespace {

ElementBatch random_system(SetId sets, std::size_t elements, std::size_t r,
                           std::uint64_t seed) {
  Rng rng(seed);
  ElementBatch batch;
  std::vector<SetId> picks;
  for (std::size_t i = 0; i < elements; ++i) {
    std::size_t k = 1 + rng.next_below(r);
    picks.clear();
    while (picks.size() < k) {
      auto s = static_cast<SetId>(rng.next_below(sets));
      bool dup = false;
      for (SetId p : picks) dup = dup || p == s;
      if (!dup) picks.push_back(s);
    }
    batch.add(std::span<const SetId>(picks));
  }
  return batch;
}

void check_cover(const std::vector<SetId>& cover, const ElementBatch& system,
                 const std::vector<bool>& live) {
  std::vector<std::uint8_t> in_cover;
  for (SetId s : cover) {
    if (in_cover.size() <= s) in_cover.resize(s + 1, 0);
    in_cover[s] = 1;
  }
  for (std::size_t i = 0; i < system.size(); ++i) {
    if (!live[i]) continue;
    bool covered = false;
    for (SetId s : system.edge(i))
      covered = covered || (s < in_cover.size() && in_cover[s]);
    ASSERT_TRUE(covered) << "element " << i << " uncovered";
  }
}

// std::set reference for the cover: every set a matched element touches,
// ascending, each once.
std::vector<SetId> touched_reference(const graph::EdgePool& pool,
                                     const std::vector<ElementId>& matched) {
  std::set<SetId> sets;
  for (ElementId e : matched)
    for (SetId s : pool.vertices(e)) sets.insert(s);
  return {sets.begin(), sets.end()};
}

TEST(SetCover, StaticCoverIsValidAndRApprox) {
  const std::size_t r = 4;
  auto system = random_system(400, 3'000, r, 3);
  auto res = setcover::static_set_cover(system, r, 13);
  ASSERT_GT(res.matching_size, 0u);
  EXPECT_LE(res.cover.size(), r * res.matching_size);
  std::vector<bool> live(system.size(), true);
  check_cover(res.cover, system, live);

  // The same matching, run outside static_set_cover (same pool, same seed).
  graph::EdgePool pool(r);
  auto ids = pool.add_edges(system);
  auto match = matching::parallel_greedy_match(pool, ids, 13);
  ASSERT_EQ(match.matched.size(), res.matching_size);
  EXPECT_EQ(res.cover, touched_reference(pool, match.matched));
}

TEST(SetCover, ElementListingASetTwiceAddsItOnce) {
  ElementBatch system;
  for (std::vector<SetId> sets : {std::vector<SetId>{3, 3},
                                  std::vector<SetId>{7, 5}})
    system.add(std::span<const SetId>(sets));
  const std::vector<SetId> expect{3, 5, 7};
  EXPECT_EQ(setcover::static_set_cover(system, 2, 1).cover, expect);
  setcover::DynamicSetCover cover(2, 1);
  cover.insert_elements(system);
  EXPECT_EQ(cover.cover(), expect);
}

TEST(SetCover, DynamicChurnKeepsCoverValid) {
  const std::size_t r = 3;
  auto system = random_system(300, 2'400, r, 7);
  setcover::DynamicSetCover cover(r, 17);
  Rng rng(29);
  std::vector<bool> live(system.size(), false);
  std::vector<std::pair<std::size_t, ElementId>> live_ids;
  std::size_t cursor = 0;
  while (cursor < system.size()) {
    ElementBatch chunk;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < 256 && cursor < system.size(); ++i) {
      chunk.add(system.edge(cursor));
      members.push_back(cursor++);
    }
    auto ids = cover.insert_elements(chunk);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      live[members[j]] = true;
      live_ids.emplace_back(members[j], ids[j]);
    }
    if (live_ids.size() > 1'000) {
      std::vector<ElementId> victims;
      for (int i = 0; i < 400; ++i) {
        std::size_t j = rng.next_below(live_ids.size());
        std::swap(live_ids[j], live_ids.back());
        live[live_ids.back().first] = false;
        victims.push_back(live_ids.back().second);
        live_ids.pop_back();
      }
      cover.delete_elements(victims);
    }
    check_cover(cover.cover(), system, live);
    EXPECT_EQ(cover.cover(), touched_reference(cover.matcher().pool(),
                                               cover.matcher().matching()));
    EXPECT_LE(cover.cover_size(), r * cover.matching_size());
  }
  EXPECT_GT(cover.matching_size(), 0u);
  EXPECT_GT(cover.matcher().cumulative_stats().total_updates(), 0u);
}

}  // namespace
