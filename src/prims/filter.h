// prims/filter.h -- stable parallel pack/filter (DESIGN.md S3): the
// primitive behind every "keep the still-active items" step of a batch.
//
// pack_blocks hands the caller's body whole [b, e) blocks: the body scans
// its block once, may update state as it goes, and writes its kept items
// in order. Whether the phase runs as one inline block or as forked blocks
// is decided here, from parallel::run_phase_seq(n) unless the caller passes
// its own answer, so a phase written over a block has one body for both
// executions; its output and staging come from a caller ScratchArena
// (DESIGN.md S7's zero-allocation batch contract).
//
// Complexity contract: O(n) work, O(P + n/P) span, output order preserved
// (per-block counts + scan + placement, so results are deterministic
// across P).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "parallel/parallel_for.h"
#include "util/scratch_arena.h"

namespace parmatch::prims {

namespace detail {

// Blocked count+scan over [0, n): after the call, count[b] is the output
// offset of block b's first kept element; returns the total kept.
template <typename KeepFn>
std::size_t pack_offsets(std::size_t n, std::size_t grain,
                         std::span<std::size_t> count, KeepFn&& keep) {
  std::size_t blocks = count.size();
  // Zero first: the sequential fast path delivers one [0, n) chunk and
  // writes only count[0]; arena scratch arrives uninitialized.
  std::fill(count.begin(), count.end(), std::size_t{0});
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        std::size_t c = 0;
        for (std::size_t i = b; i < e; ++i) c += keep(i) ? 1 : 0;
        count[b / grain] = c;
      },
      grain);
  std::size_t total = 0;
  for (std::size_t i = 0; i < blocks; ++i) {
    std::size_t c = count[i];
    count[i] = total;
    total += c;
  }
  return total;
}

template <typename T, typename KeepFn, typename MapFn>
void pack_scatter(std::size_t n, std::size_t grain,
                  std::span<const std::size_t> count, T* out, KeepFn&& keep,
                  MapFn&& map) {
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        std::size_t pos = count[b / grain];
        for (std::size_t i = b; i < e; ++i)
          if (keep(i)) out[pos++] = map(i);
      },
      grain);
}

// Forked half of pack_blocks: block i of [0, n) left count[i] items at
// staging + i * grain. Turns the counts into output offsets and copies
// each slice into place, forking on the same blocks. A chunk may span
// several blocks (the scheduler hands a caller that finds the root taken
// one [0, n) chunk), so each chunk copies every block it covers.
template <typename T>
std::span<T> place_blocks(std::size_t n, std::size_t grain,
                          std::span<std::size_t> count, const T* staging,
                          ScratchArena& arena) {
  std::size_t total = 0;
  for (std::size_t& c : count) {
    std::size_t k = c;
    c = total;
    total += k;
  }
  auto out = arena.alloc<T>(total);
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b / grain; i * grain < e; ++i) {
          std::size_t end = i + 1 < count.size() ? count[i + 1] : total;
          const T* slice = staging + i * grain;
          std::copy(slice, slice + (end - count[i]), out.data() + count[i]);
        }
      },
      grain);
  return out;
}

// The forked halves of pack_blocks / pack_blocks2, kept out of their
// inline fast path so that path stays small enough to inline at its call
// sites. The counts are zeroed first: a chunk that spans several blocks
// (see place_blocks) writes only its first block's count, and arena
// scratch arrives uninitialized.
template <typename T, typename Body>
std::span<T> pack_forked(std::size_t n, Body& body, ScratchArena& arena) {
  std::size_t grain = parallel::default_grain(n);
  auto staging = arena.alloc<T>(n);
  auto count = arena.alloc<std::size_t>((n + grain - 1) / grain);
  std::fill(count.begin(), count.end(), std::size_t{0});
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        count[b / grain] = body(b, e, staging.data() + b);
      },
      grain);
  return place_blocks<T>(n, grain, count, staging.data(), arena);
}

template <typename T, typename Body>
std::pair<std::span<T>, std::span<T>> pack2_forked(std::size_t n, Body& body,
                                                   ScratchArena& arena) {
  std::size_t grain = parallel::default_grain(n);
  std::size_t blocks = (n + grain - 1) / grain;
  auto staging1 = arena.alloc<T>(n);
  auto staging2 = arena.alloc<T>(n);
  auto count1 = arena.alloc<std::size_t>(blocks);
  auto count2 = arena.alloc<std::size_t>(blocks);
  std::fill(count1.begin(), count1.end(), std::size_t{0});
  std::fill(count2.begin(), count2.end(), std::size_t{0});
  parallel::parallel_for_blocked(
      0, n,
      [&](std::size_t b, std::size_t e) {
        auto [c1, c2] = body(b, e, staging1.data() + b, staging2.data() + b);
        count1[b / grain] = c1;
        count2[b / grain] = c2;
      },
      grain);
  return {place_blocks<T>(n, grain, count1, staging1.data(), arena),
          place_blocks<T>(n, grain, count2, staging2.data(), arena)};
}

}  // namespace detail

// One-pass blocked pack: body(b, e, out) scans [b, e) once, writes the
// items it keeps to out[0, 1, ...] in index order, and returns how many it
// wrote. Inline (parallel::run_phase_seq(n)) the whole range is one block
// that writes straight into the result. Forked, each grain-aligned block
// writes into its own slice of an arena staging buffer, and a scan of the
// block counts plus one copy pass place the slices in block order. The
// body runs exactly once per index either way, so it may carry side
// effects; a body that shares state across blocks must use atomics unless
// the pack runs inline. Output and scratch live in the arena.
//
// `seq` is the inline-or-forked answer, run_phase_seq(n) by default. A
// caller that runs a whole step inline on a smaller decision size (insert
// P2 follows its batch size k) passes its own answer, and its body's
// plain-or-atomic choice reads the same bool.
template <typename T, typename Body>
std::span<T> pack_blocks(std::size_t n, Body&& body, ScratchArena& arena,
                         bool seq) {
  if (!seq) return detail::pack_forked<T>(n, body, arena);
  auto out = arena.alloc<T>(n);
  return out.first(body(std::size_t{0}, n, out.data()));
}

template <typename T, typename Body>
std::span<T> pack_blocks(std::size_t n, Body&& body, ScratchArena& arena) {
  return pack_blocks<T>(n, body, arena, parallel::run_phase_seq(n));
}

// Two-output pack_blocks: body(b, e, out1, out2) returns the pair of
// counts it wrote to each (insert P3's candidate/stealer split).
template <typename T, typename Body>
std::pair<std::span<T>, std::span<T>> pack_blocks2(std::size_t n, Body&& body,
                                                   ScratchArena& arena) {
  if (!parallel::run_phase_seq(n))
    return detail::pack2_forked<T>(n, body, arena);
  auto out1 = arena.alloc<T>(n);
  auto out2 = arena.alloc<T>(n);
  auto [n1, n2] = body(std::size_t{0}, n, out1.data(), out2.data());
  return {out1.first(n1), out2.first(n2)};
}

}  // namespace parmatch::prims
