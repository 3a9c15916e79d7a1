// prims/scan.h -- exclusive prefix sum (DESIGN.md S3): the textbook O(n)
// work / O(log n) span building block the paper's Section 2 primitives
// table assumes, as a blocked two-pass scan over the scheduler. The
// matcher's settle harvest runs it for its candidate-slice offsets.
//
// Complexity contract: O(n) work, O(P + n/P) span on P workers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "parallel/parallel_for.h"
#include "util/scratch_arena.h"

namespace parmatch::prims {

namespace detail {

template <typename T>
T scan_exclusive_blocked(std::span<T> v, std::span<T> partial,
                         std::size_t grain) {
  std::size_t n = v.size();
  std::size_t blocks = partial.size();
  // Zero first: the sequential fast path delivers one [0, n) chunk and
  // writes only partial[0]; arena scratch arrives uninitialized.
  std::fill(partial.begin(), partial.end(), T{});
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

// In-place exclusive prefix sum; returns the total. Allocation-free: the
// block partials live in the arena.
template <typename T>
T scan_exclusive(std::span<T> v, ScratchArena& arena) {
  std::size_t n = v.size();
  if (n == 0) return T{};
  std::size_t grain = parallel::default_grain(n);
  std::size_t blocks = (n + grain - 1) / grain;
  auto partial = arena.alloc<T>(blocks);
  return detail::scan_exclusive_blocked(v, partial, grain);
}

}  // namespace parmatch::prims
