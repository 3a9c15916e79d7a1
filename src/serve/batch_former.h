// serve/batch_former.h -- turns the asynchronous update stream into the
// EdgeBatches the matcher consumes (DESIGN.md S12). The drain loop pops
// requests from the MPSC queue (serve/update_queue.h) into a *window*; the
// former decides when the window flushes and resolves conflicts inside it
// before it becomes a matcher batch.
//
// Flush policy -- the first criterion that holds wins:
//   * max batch:   the window reached FormerConfig::max_batch
//     (PARMATCH_MAX_BATCH). Hard cap on apply latency and workspace size.
//   * cost model:  the window reached parallel::parallel_break_even() --
//     the phase size where the fork/join path is predicted to beat inline
//     execution. Past that point batching buys no more per-update
//     throughput, so holding the window only adds latency. 0 (1-worker
//     pool or forced-sequential mode) disables this criterion. At the
//     defaults the break-even (parallel::kPhaseCutover + 1 = 32769) lies
//     above max_batch (8192), so this criterion fires only when
//     PARMATCH_MAX_BATCH is raised past it.
//   * deadline:    the OLDEST request in the window has waited
//     FormerConfig::max_delay_us (PARMATCH_MAX_DELAY_US) since its
//     *enqueue* instant -- queue wait counts against the deadline, not
//     just window wait. While the drain keeps backlog under one window,
//     ingest-to-commit latency is therefore bounded by max_delay plus the
//     in-flight apply plus the request's own apply. Under sustained
//     overload (backlog of B > max_batch requests) no deadline can help:
//     a request waits ~B/max_batch window applies, i.e. backlog-drain
//     time, until the ring fills and backpressure pushes the overload
//     back into the producers (E12's unpaced row shows exactly this
//     regime).
//
// Conflict window semantics (form()): within one window,
//   * an insert and a delete of the SAME ticket annihilate -- the edge
//     would be born and revoked inside one matcher batch, so neither side
//     reaches the matcher (both still count as committed for latency).
//     FIFO ingestion guarantees a delete never precedes its insert.
//   * duplicate deletes of one ticket collapse to the first occurrence.
//   * with an admit budget set (PARMATCH_ADMIT_BUDGET_US), inserts older
//     than the budget at form time are shed as stale (annihilation wins
//     over staleness; deletes are never shed) -- see FormerConfig.
//   * surviving inserts keep arrival order; ticket -> id mapping is the
//     service's job (the former never talks to the matcher).
//
// Complexity contract: add() is O(1) amortized; form() is O(w log w) in the
// window size w (two sorts over reused scratch). All buffers keep their
// capacity across windows, so a steady-state former does not allocate.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "graph/edge_batch.h"
#include "parallel/cost_model.h"
#include "serve/update_queue.h"

namespace parmatch::serve {

struct FormerConfig {
  std::size_t max_batch = 8192;    // hard window cap (PARMATCH_MAX_BATCH)
  std::uint64_t max_delay_us = 200;  // oldest-request deadline
                                     // (PARMATCH_MAX_DELAY_US)
  // Cost-model flush size; 0 = derive from parallel::parallel_break_even()
  // at construction (32769 at the default cutover, above the default
  // max_batch, so only a raised max_batch lets this flush fire).
  std::size_t cost_flush = 0;
  // Deadline-aware admission budget (PARMATCH_ADMIT_BUDGET_US): an insert
  // that has already waited longer than this when its window forms is shed
  // as stale instead of applied -- under backlog its commit would land far
  // past any SLO, so applying it only delays fresher work. 0 disables
  // (default: every admitted insert is applied no matter how late).
  // Deletes are exempt -- revocations must land regardless of age
  // (serve/admission.h's never-shed-deletes rule).
  std::uint64_t admit_budget_us = 0;

  // Env-var overrides, applied on top of the field defaults.
  static FormerConfig from_env() {
    FormerConfig c;
    if (const char* e = std::getenv("PARMATCH_MAX_BATCH"))
      c.max_batch = std::strtoull(e, nullptr, 10);
    if (c.max_batch == 0) c.max_batch = 1;
    if (const char* e = std::getenv("PARMATCH_MAX_DELAY_US"))
      c.max_delay_us = std::strtoull(e, nullptr, 10);
    if (const char* e = std::getenv("PARMATCH_ADMIT_BUDGET_US"))
      c.admit_budget_us = std::strtoull(e, nullptr, 10);
    return c;
  }
};

// Why a window flushed (ServiceStats histograms these).
enum class FlushReason { kFull, kCostModel, kDeadline, kDrain };

// One conflict-resolved window, ready for the matcher. `inserts` and the
// per-insert arrays are index-aligned; absorbed_enqueue_ns carries the
// enqueue stamps of annihilated/deduplicated requests, which commit
// trivially at flush time and still count toward latency accounting.
struct FormedBatch {
  graph::EdgeBatch inserts;
  std::vector<std::uint64_t> insert_tickets;
  std::vector<std::uint64_t> insert_enqueue_ns;
  std::vector<std::uint8_t> insert_lanes;
  std::vector<std::uint64_t> delete_tickets;
  std::vector<std::uint64_t> delete_enqueue_ns;
  std::vector<std::uint8_t> delete_lanes;
  std::vector<std::uint64_t> absorbed_enqueue_ns;
  std::vector<std::uint8_t> absorbed_lanes;
  std::size_t raw_requests = 0;  // window size before conflict resolution
  std::size_t annihilated = 0;   // insert+delete pairs absorbed
  std::size_t deduped = 0;       // duplicate deletes collapsed
  std::size_t shed_stale = 0;    // inserts shed by the admit budget
  // Per-priority-lane breakdown of this window (ServiceStats aggregates).
  std::array<std::uint32_t, kMaxLanes> lane_requests = {};
  std::array<std::uint32_t, kMaxLanes> lane_stale = {};

  std::size_t update_count() const {
    return inserts.size() + delete_tickets.size();
  }

  void clear() {
    inserts.clear();
    insert_tickets.clear();
    insert_enqueue_ns.clear();
    insert_lanes.clear();
    delete_tickets.clear();
    delete_enqueue_ns.clear();
    delete_lanes.clear();
    absorbed_enqueue_ns.clear();
    absorbed_lanes.clear();
    raw_requests = 0;
    annihilated = 0;
    deduped = 0;
    shed_stale = 0;
    lane_requests.fill(0);
    lane_stale.fill(0);
  }
};

class BatchFormer {
 public:
  explicit BatchFormer(const FormerConfig& cfg) : cfg_(cfg) {
    if (cfg_.cost_flush == 0) {
      std::size_t be = parallel::parallel_break_even();
      cfg_.cost_flush = be == 0 ? kNever : be;
    }
    if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  }

  const FormerConfig& config() const { return cfg_; }

  bool empty() const { return window_.empty(); }
  bool window_full() const { return window_.size() >= cfg_.max_batch; }

  void add(const UpdateRequest& r) {
    if (window_.empty() || r.t_enqueue_ns < oldest_ns_)
      oldest_ns_ = r.t_enqueue_ns;
    window_.push_back(r);
  }

  // The flush decision for the current window at steady-clock instant
  // `now_ns`; `why` reports the first criterion that held.
  bool should_flush(std::uint64_t now_ns, FlushReason* why = nullptr) const {
    if (window_.empty()) return false;
    if (window_.size() >= cfg_.max_batch) {
      if (why) *why = FlushReason::kFull;
      return true;
    }
    if (window_.size() >= cfg_.cost_flush) {
      if (why) *why = FlushReason::kCostModel;
      return true;
    }
    if (now_ns - oldest_ns_ >= cfg_.max_delay_us * 1000ull) {
      if (why) *why = FlushReason::kDeadline;
      return true;
    }
    return false;
  }

  // Conflict-resolves the window into `out` (cleared first) and resets the
  // window. Deterministic in the window contents plus `now_ns`: the
  // steady-clock form instant drives the admit-budget staleness check
  // (0 = skip staleness, used by callers with the budget disabled).
  void form(FormedBatch& out, std::uint64_t now_ns = 0) {
    out.clear();
    out.raw_requests = window_.size();
    if (window_.empty()) return;
    for (const UpdateRequest& r : window_)
      ++out.lane_requests[r.lane < kMaxLanes ? r.lane : kMaxLanes - 1];

    // Tickets deleted in this window, sorted; duplicates collapse here.
    scratch_del_.clear();
    for (const UpdateRequest& r : window_)
      if (!r.is_insert()) scratch_del_.push_back(r.ticket);
    std::sort(scratch_del_.begin(), scratch_del_.end());

    // Inserts whose ticket is also deleted in-window annihilate; the
    // matching deletes are consumed with them. Annihilation is checked
    // BEFORE staleness: a stale insert whose delete is already here
    // absorbs normally (cheaper and equivalent -- the pair is a no-op
    // either way, and shedding it would orphan the delete).
    std::uint64_t stale_before =
        cfg_.admit_budget_us != 0 && now_ns > cfg_.admit_budget_us * 1000ull
            ? now_ns - cfg_.admit_budget_us * 1000ull
            : 0;
    scratch_gone_.clear();
    for (const UpdateRequest& r : window_) {
      if (!r.is_insert()) continue;
      if (std::binary_search(scratch_del_.begin(), scratch_del_.end(),
                             r.ticket)) {
        scratch_gone_.push_back(r.ticket);
        ++out.annihilated;
        out.absorbed_enqueue_ns.push_back(r.t_enqueue_ns);
        out.absorbed_lanes.push_back(r.lane);
        continue;
      }
      if (stale_before != 0 && r.t_enqueue_ns < stale_before) {
        // Shed stale: past its admission budget before the window even
        // formed. Not stamped into any latency series (it never commits);
        // its eventual delete will miss in the ticket table and count as
        // a dropped delete -- the tolerated revoke-of-unknown path.
        ++out.shed_stale;
        ++out.lane_stale[r.lane < kMaxLanes ? r.lane : kMaxLanes - 1];
        continue;
      }
      out.inserts.add(std::span<const graph::VertexId>(r.v, r.rank));
      out.insert_tickets.push_back(r.ticket);
      out.insert_enqueue_ns.push_back(r.t_enqueue_ns);
      out.insert_lanes.push_back(r.lane);
    }
    std::sort(scratch_gone_.begin(), scratch_gone_.end());

    // Surviving deletes: first occurrence of each not-annihilated ticket.
    // An annihilated pair's delete is absorbed with its insert (stamped,
    // not counted as a duplicate); repeated deletes of a surviving ticket
    // collapse onto the first occurrence. First-occurrence is tracked with
    // an emitted flag per UNIQUE deleted ticket (scratch_del_ is already
    // sorted), keeping form() within its O(w log w) contract.
    uniq_del_.clear();
    for (std::size_t i = 0; i < scratch_del_.size(); ++i)
      if (i == 0 || scratch_del_[i] != scratch_del_[i - 1])
        uniq_del_.push_back(scratch_del_[i]);
    emitted_.assign(uniq_del_.size(), 0);
    for (const UpdateRequest& r : window_) {
      if (r.is_insert()) continue;
      if (std::binary_search(scratch_gone_.begin(), scratch_gone_.end(),
                             r.ticket)) {
        out.absorbed_enqueue_ns.push_back(r.t_enqueue_ns);
        out.absorbed_lanes.push_back(r.lane);
        continue;
      }
      std::size_t slot = static_cast<std::size_t>(
          std::lower_bound(uniq_del_.begin(), uniq_del_.end(), r.ticket) -
          uniq_del_.begin());
      if (emitted_[slot]) {
        ++out.deduped;
        out.absorbed_enqueue_ns.push_back(r.t_enqueue_ns);
        out.absorbed_lanes.push_back(r.lane);
        continue;
      }
      emitted_[slot] = 1;
      out.delete_tickets.push_back(r.ticket);
      out.delete_enqueue_ns.push_back(r.t_enqueue_ns);
      out.delete_lanes.push_back(r.lane);
    }
    window_.clear();
    oldest_ns_ = std::numeric_limits<std::uint64_t>::max();
  }

 private:
  static constexpr std::size_t kNever =
      std::numeric_limits<std::size_t>::max();

  FormerConfig cfg_;
  std::vector<UpdateRequest> window_;
  std::uint64_t oldest_ns_ = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> scratch_del_;   // all deleted tickets, sorted
  std::vector<std::uint64_t> scratch_gone_;  // annihilated tickets, sorted
  std::vector<std::uint64_t> uniq_del_;      // unique deleted tickets, sorted
  std::vector<std::uint8_t> emitted_;        // per-uniq first-occurrence flag
};

}  // namespace parmatch::serve
