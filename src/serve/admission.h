// serve/admission.h -- admission control and overload protection for the
// serving front-end (DESIGN.md S13). The constant-work-per-update bound
// only reaches users if the layer in front of the matcher survives
// traffic that exceeds it: before this layer, a full ingestion ring just
// made producers spin forever, so sustained overload meant unbounded
// producer stall with no per-class latency story and no measured
// degradation mode. This header turns the full-ring condition into a
// policy decision (PARMATCH_SHED):
//
//   PARMATCH_SHED=none        (default) legacy backpressure: producers
//                             block (bounded exponential backoff) until
//                             space frees. Nothing is ever shed.
//   PARMATCH_SHED=reject-new  a full lane sheds the NEW insert at the
//                             door: submit returns kShed immediately and
//                             the producer learns synchronously. Keeps
//                             queue wait -- and therefore admitted-request
//                             latency -- bounded by the lane depth.
//   PARMATCH_SHED=drop-oldest a full lane admits the new insert and the
//                             drain sheds the OLDEST queued insert
//                             instead (freshness wins over seniority --
//                             the policy for feeds where a stale update
//                             is worthless). Implemented with eviction
//                             credits: the producer bumps the lane's
//                             credit and blocks briefly; the single
//                             consumer redeems credits by popping and
//                             shedding head-of-lane inserts, preserving
//                             the ring's single-consumer discipline.
//
// Deletes are NEVER shed by any policy: a revocation frees structure
// memory, and shedding it would leak the edge for the lifetime of the
// service. Deletes block under backpressure instead (and an evicted pop
// that lands on a delete is delivered onward, not shed).
//
// Priority lanes: 1..kMaxLanes bounded rings (lane 0 highest priority),
// routed by UpdateRequest::lane, drained weighted-high-first -- the
// consumer serves the highest-priority non-empty lane, except every
// `drain_weight`-th pop is offered to the lowest-priority non-empty lane
// first, so lower classes collectively keep >= 1/drain_weight of the
// drain bandwidth under saturation (no starvation). FIFO holds per lane;
// an insert and its delete must therefore use the same lane (the service
// API threads the lane through submit_delete for exactly this reason).
//
// Shed accounting is exactly conservative and the overload bench gates on
// it: every offered request is counted at submit (per lane), and each one
// terminates in exactly one of {applied through a window, absorbed
// in-window, shed at admission, shed by eviction, shed stale at form
// time, refused by the service's input contract}. offered == accepted +
// shed + refused and accepted == applied, where
// "applied" includes absorbed conflict-window pairs and dropped dead
// tickets (they were processed, not shed).
//
// Complexity contract: admit() is O(1) plus policy backoff; try_pop() is
// O(lanes) per call; counters are relaxed atomics. All memory is
// allocated at construction (lane rings never grow).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "serve/fault_inject.h"
#include "serve/update_queue.h"

namespace parmatch::serve {

enum class ShedPolicy { kNone, kRejectNew, kDropOldest };

// Producer-side submit outcome -- the typed contract replacing the ad-hoc
// try_push spin loops (DESIGN.md S13). kTimedOut only occurs when the
// caller passed a deadline to push_with_backoff.
enum class PushResult { kAccepted, kShed, kTimedOut };

// The service's degradation state machine (ARCHITECTURE.md walkthrough):
//   kHealthy    backlog under half the admission capacity, no recent shed
//   kBacklogged backlog at or above half capacity -- latency is absorbing
//               the excess, nothing lost yet
//   kShedding   a shed occurred recently (admission reject, eviction, or
//               stale drop); decays back after kSheddingHoldNs quiet
// Transitions are evaluated by the drain (former) loop, published through
// an atomic, readable from any thread at any time.
enum class OverloadState { kHealthy, kBacklogged, kShedding };

inline const char* overload_state_name(OverloadState s) {
  switch (s) {
    case OverloadState::kHealthy: return "healthy";
    case OverloadState::kBacklogged: return "backlogged";
    default: return "shedding";
  }
}

inline const char* shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kRejectNew: return "reject-new";
    case ShedPolicy::kDropOldest: return "drop-oldest";
    default: return "none";
  }
}

struct AdmissionConfig {
  ShedPolicy policy = ShedPolicy::kNone;
  std::size_t lanes = 1;             // 1..kMaxLanes, lane 0 highest priority
  std::size_t lane_capacity = 0;     // 0 = take ServiceConfig::queue_capacity
  std::size_t drain_weight = 8;      // high-lane pops per low-lane offer

  // Env-var overrides: PARMATCH_SHED=reject-new|drop-oldest|none,
  // PARMATCH_LANES=1..4, PARMATCH_LANE_WEIGHT=N.
  static AdmissionConfig from_env() {
    AdmissionConfig c;
    if (const char* e = std::getenv("PARMATCH_SHED")) {
      if (std::strcmp(e, "reject-new") == 0)
        c.policy = ShedPolicy::kRejectNew;
      else if (std::strcmp(e, "drop-oldest") == 0)
        c.policy = ShedPolicy::kDropOldest;
      else
        c.policy = ShedPolicy::kNone;
    }
    if (const char* e = std::getenv("PARMATCH_LANES")) {
      c.lanes = std::strtoull(e, nullptr, 10);
      if (c.lanes < 1) c.lanes = 1;
      if (c.lanes > kMaxLanes) c.lanes = kMaxLanes;
    }
    if (const char* e = std::getenv("PARMATCH_LANE_WEIGHT")) {
      c.drain_weight = std::strtoull(e, nullptr, 10);
      if (c.drain_weight < 1) c.drain_weight = 1;
    }
    return c;
  }
};

// Bounded-backoff push: the producer-side contract. Spins a short budget,
// then yields, then sleeps with exponentially growing pauses (capped at
// kMaxPauseUs) so a saturated producer stops burning its core while the
// drain catches up. deadline_ns (steady-clock instant, 0 = wait forever)
// turns unbounded blocking into kTimedOut -- the knob the benches use to
// report producer stall instead of hiding it.
template <typename Ring, typename T>
inline PushResult push_with_backoff(Ring& q, const T& item,
                                    std::uint64_t deadline_ns = 0) {
  constexpr std::size_t kSpins = 64;       // cheap retries before yielding
  constexpr std::size_t kYields = 64;      // yields before sleeping
  constexpr std::uint64_t kMaxPauseUs = 256;
  std::size_t attempt = 0;
  std::uint64_t pause_us = 1;
  for (;;) {
    if (q.try_push(item)) return PushResult::kAccepted;
    ++attempt;
    if (attempt <= kSpins) continue;
    if (deadline_ns != 0) {
      std::uint64_t now = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
      if (now >= deadline_ns) return PushResult::kTimedOut;
    }
    if (attempt <= kSpins + kYields) {
      std::this_thread::yield();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
    if (pause_us < kMaxPauseUs) pause_us <<= 1;
  }
}

// Per-lane bounded rings + shed policy + weighted drain + exact per-lane
// admission counters. Producers call admit() from any thread; exactly one
// consumer (MatchService's former stage) calls try_pop().
class AdmissionQueue {
 public:
  AdmissionQueue(const AdmissionConfig& cfg, std::size_t default_capacity,
                 FaultInjector* fi = nullptr)
      : cfg_(cfg), fi_(fi) {
    if (cfg_.lanes < 1) cfg_.lanes = 1;
    if (cfg_.lanes > kMaxLanes) cfg_.lanes = kMaxLanes;
    if (cfg_.lane_capacity == 0) cfg_.lane_capacity = default_capacity;
    if (cfg_.drain_weight < 1) cfg_.drain_weight = 1;
    for (std::size_t l = 0; l < cfg_.lanes; ++l)
      lanes_[l] = std::make_unique<UpdateQueue>(cfg_.lane_capacity);
  }

  const AdmissionConfig& config() const { return cfg_; }
  std::size_t lanes() const { return cfg_.lanes; }
  std::size_t capacity() const {
    return lanes_[0]->capacity() * cfg_.lanes;
  }

  // ---- producer side (any thread) --------------------------------------

  // Admits one request into its lane under the configured policy. Only
  // inserts are ever shed; deletes block until space. Returns kAccepted
  // once the request occupies a ring slot, kShed when the policy rejected
  // it (reject-new, full lane). Counters: offered is bumped for every
  // call, shed_reject for rejected inserts.
  PushResult admit(const UpdateRequest& r) {
    std::size_t l = r.lane < cfg_.lanes ? r.lane : cfg_.lanes - 1;
    offered_[l].fetch_add(1, std::memory_order_relaxed);
    UpdateQueue& q = *lanes_[l];
    bool forced_full = fi_ && fi_->force_ring_full();
    bool pushed = !forced_full && q.try_push(r);
    if (pushed) return PushResult::kAccepted;
    if (r.is_insert()) {
      if (cfg_.policy == ShedPolicy::kRejectNew) {
        shed_reject_[l].fetch_add(1, std::memory_order_relaxed);
        return PushResult::kShed;
      }
      if (cfg_.policy == ShedPolicy::kDropOldest) {
        // Grant the consumer one eviction credit, then wait for the slot
        // it frees. The shed is counted when the consumer actually drops
        // a head-of-lane insert -- exact accounting, single consumer.
        evict_credit_[l].fetch_add(1, std::memory_order_relaxed);
      }
    }
    // kNone, drop-oldest, and every delete: block with bounded backoff.
    push_with_backoff(q, r);
    return PushResult::kAccepted;
  }

  // Counts a request the caller refused before admission (MatchService's
  // input contract): offered on its lane, never enqueued, never shed.
  void refuse(std::size_t lane) {
    std::size_t l = lane < cfg_.lanes ? lane : cfg_.lanes - 1;
    offered_[l].fetch_add(1, std::memory_order_relaxed);
    refused_[l].fetch_add(1, std::memory_order_relaxed);
  }

  // ---- consumer side (the single drain / former thread) ----------------

  // Weighted-high-first pop. Redeems pending drop-oldest eviction credits
  // first: head-of-lane INSERTS are shed (counted in shed_evict and in
  // *shed_now so the caller can retire them from its completion
  // accounting), head-of-lane deletes are returned as normal pops.
  // *popped_now counts every request this call consumed from the rings,
  // shed or returned -- the former's drained-everything bookkeeping.
  bool try_pop(UpdateRequest& out, std::uint64_t* popped_now = nullptr,
               std::uint64_t* shed_now = nullptr) {
    if (cfg_.policy == ShedPolicy::kDropOldest) {
      for (std::size_t l = 0; l < cfg_.lanes; ++l) {
        std::uint64_t credit =
            evict_credit_[l].load(std::memory_order_relaxed);
        while (credit != 0) {
          UpdateRequest r;
          if (!lanes_[l]->try_pop(r)) {
            // Lane drained under the credit: space exists, the blocked
            // producer will land; the leftover credit is moot.
            evict_credit_[l].store(0, std::memory_order_relaxed);
            break;
          }
          evict_credit_[l].fetch_sub(1, std::memory_order_relaxed);
          --credit;
          if (popped_now) ++*popped_now;
          if (r.is_insert()) {
            shed_evict_[l].fetch_add(1, std::memory_order_relaxed);
            if (shed_now) ++*shed_now;
          } else {
            out = r;  // deletes are never shed
            return true;
          }
        }
      }
    }
    // Priority order, except every drain_weight-th pop starts from the
    // lowest-priority lane so saturation upstairs cannot starve the
    // lower classes entirely.
    bool low_first = cfg_.lanes > 1 &&
                     pop_seq_ % cfg_.drain_weight == cfg_.drain_weight - 1;
    if (low_first) {
      for (std::size_t l = cfg_.lanes; l-- > 0;)
        if (lanes_[l]->try_pop(out)) {
          ++pop_seq_;
          if (popped_now) ++*popped_now;
          return true;
        }
      return false;
    }
    for (std::size_t l = 0; l < cfg_.lanes; ++l)
      if (lanes_[l]->try_pop(out)) {
        ++pop_seq_;
        if (popped_now) ++*popped_now;
        return true;
      }
    return false;
  }

  // ---- monitoring (any thread; racy by design) -------------------------

  std::size_t approx_size() const {
    std::size_t n = 0;
    for (std::size_t l = 0; l < cfg_.lanes; ++l)
      n += lanes_[l]->approx_size();
    return n;
  }

  std::uint64_t offered(std::size_t lane) const {
    return offered_[lane].load(std::memory_order_relaxed);
  }
  std::uint64_t shed_reject(std::size_t lane) const {
    return shed_reject_[lane].load(std::memory_order_relaxed);
  }
  std::uint64_t shed_evict(std::size_t lane) const {
    return shed_evict_[lane].load(std::memory_order_relaxed);
  }
  std::uint64_t refused(std::size_t lane) const {
    return refused_[lane].load(std::memory_order_relaxed);
  }
  // Outstanding drop-oldest credits a blocked producer has granted but the
  // consumer has not yet redeemed. Observable so tests (and diagnostics)
  // can sequence against the producer reaching its blocked state.
  std::uint64_t evict_credit(std::size_t lane) const {
    return evict_credit_[lane].load(std::memory_order_relaxed);
  }
  std::uint64_t total_shed() const {
    std::uint64_t n = 0;
    for (std::size_t l = 0; l < cfg_.lanes; ++l)
      n += shed_reject(l) + shed_evict(l);
    return n;
  }

  // Stats reset (callers must have producers quiesced -- same safety rule
  // as MatchService::reset_stats).
  void reset_counters() {
    for (std::size_t l = 0; l < kMaxLanes; ++l) {
      offered_[l].store(0, std::memory_order_relaxed);
      shed_reject_[l].store(0, std::memory_order_relaxed);
      shed_evict_[l].store(0, std::memory_order_relaxed);
      refused_[l].store(0, std::memory_order_relaxed);
    }
  }

 private:
  AdmissionConfig cfg_;
  FaultInjector* fi_;
  std::unique_ptr<UpdateQueue> lanes_[kMaxLanes];
  std::uint64_t pop_seq_ = 0;  // consumer-owned
  std::atomic<std::uint64_t> offered_[kMaxLanes] = {};
  std::atomic<std::uint64_t> shed_reject_[kMaxLanes] = {};
  std::atomic<std::uint64_t> shed_evict_[kMaxLanes] = {};
  std::atomic<std::uint64_t> refused_[kMaxLanes] = {};
  std::atomic<std::uint64_t> evict_credit_[kMaxLanes] = {};
};

}  // namespace parmatch::serve
