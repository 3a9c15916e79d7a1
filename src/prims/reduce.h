// prims/reduce.h -- reduction, exclusive scan, and iota (DESIGN.md S3).
// These are the textbook O(n) work / O(log n) span building blocks the
// paper's Section 2 primitives table assumes; here they are blocked
// two-pass implementations over the scheduler.
//
// Complexity contract: reduce and scan_exclusive do O(n) work, O(P + n/P)
// span on P workers; iota is O(n) work.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "parallel/parallel_for.h"
#include "util/scratch_arena.h"

namespace parmatch::prims {

namespace detail {

template <typename T>
T reduce_blocked(std::span<const T> in, std::span<T> partial,
                 std::size_t grain) {
  // Zero first: the sequential fast path delivers one [0, n) chunk and
  // writes only partial[0]; arena scratch arrives uninitialized.
  std::fill(partial.begin(), partial.end(), T{});
  parallel::parallel_for_blocked(
      0, in.size(),
      [&](std::size_t b, std::size_t e) {
        T acc{};
        for (std::size_t i = b; i < e; ++i) acc = acc + in[i];
        partial[b / grain] = acc;
      },
      grain);
  T total{};
  for (T p : partial) total = total + p;
  return total;
}

}  // namespace detail

template <typename T>
T reduce(std::span<const T> in) {
  std::size_t n = in.size();
  if (n == 0) return T{};
  std::size_t grain = parallel::default_grain(n);
  std::size_t blocks = (n + grain - 1) / grain;
  std::vector<T> partial(blocks, T{});
  return detail::reduce_blocked(in, std::span<T>(partial), grain);
}

namespace detail {

template <typename T>
T scan_exclusive_blocked(std::span<T> v, std::span<T> partial,
                         std::size_t grain) {
  std::size_t n = v.size();
  std::size_t blocks = partial.size();
  std::fill(partial.begin(), partial.end(), T{});  // see reduce_blocked
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        T acc{};
        for (std::size_t i = b; i < e; ++i) acc = acc + v[i];
        partial[b / grain] = acc;
      },
      grain);
  T total{};
  for (std::size_t i = 0; i < blocks; ++i) {
    T next = total + partial[i];
    partial[i] = total;
    total = next;
  }
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        T acc = partial[b / grain];
        for (std::size_t i = b; i < e; ++i) {
          T next = acc + v[i];
          v[i] = acc;
          acc = next;
        }
      },
      grain);
  return total;
}

}  // namespace detail

// In-place exclusive prefix sum; returns the total.
template <typename T>
T scan_exclusive(std::span<T> v) {
  std::size_t n = v.size();
  if (n == 0) return T{};
  std::size_t grain = parallel::default_grain(n);
  std::size_t blocks = (n + grain - 1) / grain;
  std::vector<T> partial(blocks, T{});
  return detail::scan_exclusive_blocked(v, std::span<T>(partial), grain);
}

// Allocation-free variant: block partials live in the arena.
template <typename T>
T scan_exclusive(std::span<T> v, ScratchArena& arena) {
  std::size_t n = v.size();
  if (n == 0) return T{};
  std::size_t grain = parallel::default_grain(n);
  std::size_t blocks = (n + grain - 1) / grain;
  auto partial = arena.alloc<T>(blocks);
  return detail::scan_exclusive_blocked(v, partial, grain);
}

template <typename T>
std::vector<T> iota(std::size_t n) {
  std::vector<T> v(n);
  parallel::parallel_for(0, n,
                         [&](std::size_t i) { v[i] = static_cast<T>(i); });
  return v;
}

}  // namespace parmatch::prims
