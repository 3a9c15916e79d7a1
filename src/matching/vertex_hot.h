// matching/vertex_hot.h -- the packed per-vertex hot record shared by the
// greedy claim rounds (matching/parallel_greedy.h) and the batch-dynamic
// matcher (dyn/dynamic_matcher.h). DESIGN.md S11.
//
// The claim/commit/settle loops touch, per endpoint: its current match
// (taken_by) and that match's slot in the matcher's dense match list
// (match_pos), the claim scratch slot (min_edge), its live incident count
// (live_deg), and -- on the adjacency-owning paths (insert P2's appends,
// settle's sampling scan, the delete pass's chain release) -- the vertex's
// incidence-chain header. As separate std::vector arrays that is three to
// four cache misses per batch-random vertex; packed into one 32-byte
// record it is one line shared by two vertices, and the loops
// software-prefetch the whole record a few iterations ahead
// (util/prefetch.h). The embedded graph::AdjHead is what lets the settle
// pipeline start a vertex's scan with zero extra header miss, and
// match_pos is what lets the growth bump reach its match's bloat state
// without a per-edge-id array.
//
// Concurrency contract: min_edge is the only contended field -- claim
// rounds CAS-min it via std::atomic_ref (4-byte aligned by layout below);
// live_deg is fetch-subbed by the forked delete pass; taken_by, match_pos
// and adj follow the matcher's per-vertex ownership phases. Plain-memory
// fallbacks apply whenever the phase runs inline (parallel::run_phase_seq).
#pragma once

#include <cstdint>

#include "graph/adjacency.h"
#include "graph/edge.h"

namespace parmatch::matching {

struct VertexHot {
  graph::EdgeId taken_by = graph::kInvalidEdge;  // vertex -> its match
  graph::EdgeId min_edge = graph::kInvalidEdge;  // claim-round scratch
  std::uint32_t live_deg = 0;                    // live incident edges
  std::uint32_t match_pos = 0;                   // taken_by's match slot
  graph::AdjHead adj;                            // incidence-chain header
  std::uint32_t pad_ = 0;                        // pads the record to 32B

  bool free() const { return taken_by == graph::kInvalidEdge; }
};

// 32 bytes so records never straddle a cache line (allocations are 16-byte
// aligned, so records sit at 0/32 within every line) and vector growth
// stays a flat memcpy; the claim loops' atomic_ref on min_edge needs its
// natural 4-byte alignment, which the layout guarantees.
static_assert(sizeof(VertexHot) == 32 && alignof(VertexHot) == 4);

}  // namespace parmatch::matching
