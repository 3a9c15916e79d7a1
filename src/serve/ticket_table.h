// serve/ticket_table.h -- the ticket -> live-edge-id map of the serving
// front-end (DESIGN.md S12). Producers get a TICKET back from
// submit_insert (pool ids are only assigned when the batch applies); the
// drain pipeline's matcher stage resolves deletes through this table and
// tests inspect it through MatchService::edge_of_ticket.
//
// This replaces the PR 5 dense vector indexed by ticket, which grew one
// word per insert EVER submitted -- unbounded for a long-lived service
// (the ROADMAP ticket-recycling item). The table is a tombstoned
// open-addressing map: memory tracks the LIVE ticket count, not the
// stream length. A delete tombstones its slot; when live + tombstones
// reach half the capacity the table rehashes to a size chosen from the
// live count alone, which both reclaims every tombstone and shrinks after
// churn spikes. Long-lived steady churn therefore cycles inside one fixed
// allocation (asserted by the recycling tests in tests/test_serve.cpp).
//
// Single-owner structure: exactly one thread (MatchService's matcher
// stage) mutates it; idle-time readers follow the same safety rule as
// MatchService::matcher(). Tickets are unique (an atomic counter) and
// never reused, so put() never sees a duplicate key.
//
// Complexity contract: put / take / find are expected O(1) at the
// maintained load factor (<= 1/2 live+tombs); rehash is O(capacity),
// amortized O(1) per operation by the usual doubling/halving argument.
// Capacity is bounded by O(max simultaneous live tickets), never by
// stream length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "graph/edge.h"
#include "util/rng.h"

namespace parmatch::serve {

class TicketTable {
 public:
  TicketTable() { allocate(kMinCap); }

  std::size_t capacity() const { return cap_; }
  std::size_t live() const { return live_; }

  // Maps a freshly applied insert's ticket to its pool id. Tickets are
  // unique by construction (monotone counter), so this is always a fresh
  // key.
  void put(std::uint64_t ticket, graph::EdgeId id) {
    if ((live_ + tombs_ + 1) * 2 > cap_) rehash(live_ + 1);
    std::size_t i = probe_insert(ticket);
    keys_[i] = ticket;
    vals_[i] = id;
    ++live_;
  }

  // Resolves and removes a ticket: returns its live edge id, or
  // kInvalidEdge when the ticket was never applied or already deleted
  // (the caller counts those as dropped deletes).
  graph::EdgeId take(std::uint64_t ticket) {
    std::size_t i;
    if (!probe_find(ticket, &i)) return graph::kInvalidEdge;
    graph::EdgeId id = vals_[i];
    keys_[i] = kTomb;
    --live_;
    ++tombs_;
    return id;
  }

  // Read-only lookup (MatchService::edge_of_ticket).
  graph::EdgeId find(std::uint64_t ticket) const {
    std::size_t i;
    return probe_find(ticket, &i) ? vals_[i] : graph::kInvalidEdge;
  }

  // Read-only visit of every live (ticket, edge id) pair, in probe-table
  // order (callers needing a canonical order sort by ticket). Used by the
  // checkpoint exporter and the recovery fingerprint (DESIGN.md S14) --
  // probe layout is an implementation detail and deliberately NOT part of
  // the serialized state; content equality is the durable contract.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < cap_; ++i)
      if (keys_[i] != kEmpty && keys_[i] != kTomb) f(keys_[i], vals_[i]);
  }

 private:
  static constexpr std::size_t kMinCap = 64;  // power of two
  static constexpr std::uint64_t kEmpty = ~0ull;
  static constexpr std::uint64_t kTomb = ~0ull - 1;

  std::size_t slot(std::uint64_t ticket) const {
    return static_cast<std::size_t>(hash64(ticket, 0x7454'1C37u)) & mask_;
  }

  // First free (empty or tombstone) slot for a key known to be absent.
  std::size_t probe_insert(std::uint64_t ticket) const {
    std::size_t i = slot(ticket);
    while (keys_[i] != kEmpty && keys_[i] != kTomb) i = (i + 1) & mask_;
    return i;
  }

  bool probe_find(std::uint64_t ticket, std::size_t* out) const {
    std::size_t i = slot(ticket);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == ticket) {
        *out = i;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  void allocate(std::size_t cap) {
    cap_ = cap;
    mask_ = cap - 1;
    keys_ = std::make_unique<std::uint64_t[]>(cap);
    vals_ = std::make_unique<graph::EdgeId[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) keys_[i] = kEmpty;
    tombs_ = 0;
  }

  // Rebuilds at a capacity derived from the live count alone (4x head
  // room, so the next rehash is at least a doubling's worth of operations
  // away in either direction). Grows, shrinks, and clears tombstones with
  // the same code path.
  void rehash(std::size_t live_target) {
    std::size_t want = kMinCap;
    while (want < live_target * 4) want <<= 1;
    auto old_keys = std::move(keys_);
    auto old_vals = std::move(vals_);
    std::size_t old_cap = cap_;
    allocate(want);
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_keys[i] == kEmpty || old_keys[i] == kTomb) continue;
      std::size_t j = probe_insert(old_keys[i]);
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::unique_ptr<std::uint64_t[]> keys_;
  std::unique_ptr<graph::EdgeId[]> vals_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace parmatch::serve
