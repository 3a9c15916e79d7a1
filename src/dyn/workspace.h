// dyn/workspace.h -- reusable scratch state for one DynamicMatcher
// (DESIGN.md S7's allocation-free batch contract). Every transient buffer
// the insert/delete/settle pipeline needs lives here: either as a named
// std::vector whose capacity survives across batches (results that must
// outlive an arena reset, e.g. the returned id buffer or the settle
// ping-pong sets), or inside the bump ScratchArena (everything consumed
// within a batch phase). After warm-up -- once every vector has reached its
// high-water capacity and the arena its high-water footprint -- a
// steady-state batch performs zero heap allocations
// (tests/test_alloc_free.cpp pins this with a counting operator new).
//
// Arena reset points: the start of every batch and the start of settle
// (once, before the candidate harvest -- NOT per settle round: the engine's
// retry queues and the harvested candidate slices live across rounds).
// Spans handed out by the arena are dead at those points by construction of
// the phase order; cross-batch state rides in the named vectors.
//
// Both executions of a phase body (DESIGN.md S11) draw from the same
// workspace: an inline block carves its pair staging, class splits, and
// settle draws out of the identical arena the forked blocks use, so the
// zero-allocation contract holds for every PARMATCH_EXEC_MODE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/edge.h"
#include "util/scratch_arena.h"

namespace parmatch::dyn {

struct BatchWorkspace {
  ScratchArena arena;

  std::vector<graph::EdgeId> ids;      // insert: ids handed back to the caller
                                       // (valid until the next batch)
  std::vector<graph::VertexId> freed;  // vertices freed this batch; doubles as
                                       // the settle pending set
  std::vector<graph::EdgeId> matched;  // winners of one greedy invocation

  // Settle candidate cache (DynamicMatcher::settle): one adjacency harvest
  // per pending vertex fills cand_pool with its live candidates at
  // [cand_off[i], cand_off[i] + cand_len[i]); the reservation rounds then
  // prune each slice in place instead of rescanning adjacency every round.
  // cand_off is size_t: it is the exclusive scan of the pending vertices'
  // live degrees, whose sum can exceed 32 bits even though any one slice
  // (cand_len) cannot.
  std::vector<graph::EdgeId> cand_pool;
  std::vector<std::size_t> cand_off;
  std::vector<std::uint32_t> cand_len;
};

}  // namespace parmatch::dyn
