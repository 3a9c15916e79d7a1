// prims/group_by.h -- semisort: bucket values by integer key (DESIGN.md
// S3). The matcher uses this to turn a flat (vertex, edge) incidence list
// into per-vertex groups in one shot -- the Section 2 "collect by endpoint"
// primitive.
//
// Complexity contract: O(n) work via radix sort on the key bits actually
// used (at most kGroupByProbeMax pairs are bucketed by linear probes
// instead); deterministic output, grouped values contiguous and in input
// order within each group.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "parallel/parallel_for.h"
#include "prims/filter.h"
#include "prims/radix_sort.h"
#include "util/scratch_arena.h"

namespace parmatch::prims {

// The matcher's insert P2 semisort. The caller fills the (key, value)
// pairs in place -- no separate key and value arrays to zip -- and every
// buffer (sort scratch, outputs) is carved from its ScratchArena. Each
// distinct key gets one group whose values keep their input order; the
// ORDER of the groups is unspecified (callers that need an order sort what
// they derive from the groups). View spans are valid until the arena
// resets.
template <typename K, typename V>
struct KeyValue {
  K key;
  V value;
};

template <typename K, typename V>
struct GroupedView {
  struct Group {
    K key;
    std::uint32_t start;  // first value of this group in `values`
  };
  std::span<const Group> groups;  // one per distinct key, ascending start
  std::span<const V> values;      // each group's values contiguous

  std::size_t num_groups() const { return groups.size(); }
  K key(std::size_t g) const { return groups[g].key; }
  std::span<const V> group(std::size_t g) const {
    std::size_t end =
        g + 1 < groups.size() ? groups[g + 1].start : values.size();
    return {values.data() + groups[g].start, values.data() + end};
  }
};

// Up to this many pairs, group_by buckets by first occurrence -- a linear
// probe over the groups seen so far, no sort. Sorting loses there: an
// insertion sort of the pairs measured ~8% slower on 8-update batches.
inline constexpr std::size_t kGroupByProbeMax = 64;

namespace detail {

// group_by above kGroupByProbeMax pairs: a stable radix sort on the key
// bits in use, then one pass that emits the values and the group
// boundaries.
template <typename K, typename V>
GroupedView<K, V> group_by_sorted(std::span<KeyValue<K, V>> pairs,
                                  ScratchArena& arena,
                                  std::uint64_t max_key_bound, bool seq) {
  using Group = typename GroupedView<K, V>::Group;
  std::size_t n = pairs.size();
  std::uint64_t maxk = max_key_bound;
  if (maxk == 0) {
    for (std::size_t i = 0; i < n; ++i) {  // fallback: sequential max
      if (static_cast<std::uint64_t>(pairs[i].key) > maxk)
        maxk = static_cast<std::uint64_t>(pairs[i].key);
    }
  }
  int bits = std::bit_width(maxk);
  if (bits == 0) bits = 1;
  radix_sort(
      pairs,
      [](const KeyValue<K, V>& p) { return static_cast<std::uint64_t>(p.key); },
      bits, arena);
  auto vals = arena.alloc<V>(n);
  auto groups = pack_blocks<Group>(
      n,
      [&](std::size_t b, std::size_t e, Group* out) {
        std::size_t w = 0;
        for (std::size_t i = b; i < e; ++i) {
          vals[i] = pairs[i].value;
          if (i == 0 || pairs[i].key != pairs[i - 1].key)
            out[w++] = Group{pairs[i].key, static_cast<std::uint32_t>(i)};
        }
        return w;
      },
      arena, seq);
  return {groups, vals};
}

}  // namespace detail

// `max_key_bound`, when nonzero, is a caller-known upper bound on the keys
// (e.g. the graph's vertex bound) and skips the sequential max scan. The
// pairs are reordered in place. `seq` says whether the emit pass runs
// inline, as pack_blocks' argument of that name; the sort decides by its
// own size.
template <typename K, typename V>
GroupedView<K, V> group_by(std::span<KeyValue<K, V>> pairs,
                           ScratchArena& arena, std::uint64_t max_key_bound,
                           bool seq) {
  if (pairs.size() > kGroupByProbeMax)
    return detail::group_by_sorted(pairs, arena, max_key_bound, seq);
  using Group = typename GroupedView<K, V>::Group;
  std::size_t n = pairs.size();
  auto vals = arena.alloc<V>(n);
  auto groups = arena.alloc<Group>(n);
  auto cursor = arena.alloc<std::uint32_t>(n);
  auto slot = arena.alloc<std::uint32_t>(n);
  std::size_t ng = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t g = 0;
    while (g < ng && groups[g].key != pairs[i].key) ++g;
    if (g == ng) {
      groups[ng] = Group{pairs[i].key, 0};
      cursor[ng++] = 0;
    }
    slot[i] = static_cast<std::uint32_t>(g);
    ++cursor[g];
  }
  std::uint32_t off = 0;
  for (std::size_t g = 0; g < ng; ++g) {
    groups[g].start = off;
    off += cursor[g];
    cursor[g] = groups[g].start;
  }
  for (std::size_t i = 0; i < n; ++i) vals[cursor[slot[i]]++] = pairs[i].value;
  return {groups.first(ng), vals};
}

template <typename K, typename V>
GroupedView<K, V> group_by(std::span<KeyValue<K, V>> pairs,
                           ScratchArena& arena,
                           std::uint64_t max_key_bound = 0) {
  return group_by(pairs, arena, max_key_bound,
                  parallel::run_phase_seq(pairs.size()));
}

}  // namespace parmatch::prims
