// Overload-protection tests (DESIGN.md S13): the admission layer's shed
// policies and priority lanes (serve/admission.h), the former's
// admit-budget staleness shedding, the bounded latency histogram's
// documented error, the overload state machine, and -- the load-bearing
// invariant -- EXACT shed-accounting conservation: every offered request
// terminates in exactly one of {committed, shed at admission, shed by
// eviction, shed stale}, in both drain topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/batch_former.h"
#include "serve/service.h"
#include "serve/update_queue.h"
#include "util/latency_hist.h"

namespace {

using namespace parmatch;
using serve::AdmissionConfig;
using serve::AdmissionQueue;
using serve::MatchService;
using serve::PushResult;
using serve::ServiceConfig;
using serve::ShedPolicy;
using serve::UpdateRequest;

UpdateRequest insert_req(std::uint64_t ticket, graph::VertexId u,
                         graph::VertexId v, std::uint8_t lane = 0) {
  UpdateRequest r;
  r.ticket = ticket;
  r.rank = 2;
  r.v[0] = u;
  r.v[1] = v;
  r.lane = lane;
  return r;
}

UpdateRequest delete_req(std::uint64_t ticket, std::uint8_t lane = 0) {
  UpdateRequest r;
  r.ticket = ticket;
  r.rank = 0;
  r.lane = lane;
  return r;
}

// ---- push_with_backoff ----------------------------------------------------

TEST(PushWithBackoff, AcceptsWhenSpaceExists) {
  serve::UpdateQueue q(64);
  EXPECT_EQ(serve::push_with_backoff(q, insert_req(1, 0, 1)),
            PushResult::kAccepted);
  UpdateRequest out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.ticket, 1u);
}

TEST(PushWithBackoff, DeadlineTimesOutOnFullRing) {
  serve::UpdateQueue q(64);
  while (q.try_push(insert_req(0, 0, 1))) {
  }
  std::uint64_t deadline = serve::now_ns() + 5'000'000;  // 5 ms
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(serve::push_with_backoff(q, insert_req(1, 2, 3), deadline),
            PushResult::kTimedOut);
  auto waited = std::chrono::steady_clock::now() - t0;
  // Must have honored the deadline (with backoff-sleep slop), not spun
  // forever and not returned instantly.
  EXPECT_LT(waited, std::chrono::milliseconds(1000));
}

TEST(PushWithBackoff, BlocksUntilConsumerFreesSpace) {
  serve::UpdateQueue q(64);
  while (q.try_push(insert_req(0, 0, 1))) {
  }
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    UpdateRequest out;
    ASSERT_TRUE(q.try_pop(out));
  });
  EXPECT_EQ(serve::push_with_backoff(q, insert_req(7, 2, 3)),
            PushResult::kAccepted);
  consumer.join();
}

// ---- latency histogram ----------------------------------------------------

TEST(LatencyHistogram, QuantileWithinDocumentedError) {
  // Log-uniform samples over ~6 decades; the histogram's quantile must be
  // within one bucket width (2^(1/8) ~ 9.05%) of the exact order
  // statistic -- the documented contract the serving stats rely on.
  util::LatencyHistogram h;
  std::vector<double> exact;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double u = static_cast<double>(x >> 11) * 0x1p-53;
    double v = std::pow(10.0, u * 6.0 - 1.0);  // 0.1us .. 1e5us
    h.record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (double p : {0.5, 0.9, 0.99}) {
    double want = exact[static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(exact.size()))) - 1];
    double got = h.quantile(p);
    EXPECT_NEAR(got / want, 1.0, 0.0905) << "p=" << p;
  }
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_DOUBLE_EQ(h.min(), exact.front());
  EXPECT_DOUBLE_EQ(h.max(), exact.back());
}

TEST(LatencyHistogram, MergeAndClampAndEmpty) {
  util::LatencyHistogram a, b;
  EXPECT_EQ(a.quantile(0.99), 0.0);
  a.record(10.0);
  b.record(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  // Quantiles clamp into [min, max] of the observed samples.
  EXPECT_GE(a.quantile(0.0), 10.0 * 0.9);
  EXPECT_LE(a.quantile(1.0), 1000.0 * 1.1);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
}

// ---- admission queue: lanes, drain order, policies ------------------------

TEST(AdmissionQueue, RoutesByLaneAndDrainsHighFirst) {
  AdmissionConfig cfg;
  cfg.lanes = 2;
  cfg.drain_weight = 4;  // every 4th pop offers the low lane first
  AdmissionQueue q(cfg, 64);
  // 8 low-lane requests, then 4 high-lane ones.
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(q.admit(insert_req(100 + i, 0, 1, 1)), PushResult::kAccepted);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(q.admit(insert_req(i, 0, 1, 0)), PushResult::kAccepted);

  std::vector<std::uint64_t> order;
  UpdateRequest out;
  while (q.try_pop(out)) order.push_back(out.ticket);
  ASSERT_EQ(order.size(), 12u);
  // High-priority lane drains ahead of the backlog EXCEPT at the weighted
  // slots: pops 0..2 high, pop 3 low-first, then the remaining high.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 100u);  // the weighted low-lane slot
  EXPECT_EQ(order[4], 3u);
  // All high-lane requests landed within the first 5 pops; low lane kept
  // its FIFO order.
  std::vector<std::uint64_t> low(order.begin() + 3, order.end());
  low.erase(std::remove(low.begin(), low.end(), 3u), low.end());
  for (std::size_t i = 0; i < low.size(); ++i)
    EXPECT_EQ(low[i], 100 + i);
}

TEST(AdmissionQueue, RejectNewShedsInsertsNeverDeletes) {
  AdmissionConfig cfg;
  cfg.policy = ShedPolicy::kRejectNew;
  cfg.lanes = 1;
  AdmissionQueue q(cfg, 64);
  std::size_t cap = 0;
  while (q.admit(insert_req(cap, 0, 1)) == PushResult::kAccepted) ++cap;
  EXPECT_EQ(cap, 64u);  // ring capacity, then the first shed
  EXPECT_EQ(q.shed_reject(0), 1u);
  EXPECT_EQ(q.admit(insert_req(999, 2, 3)), PushResult::kShed);
  EXPECT_EQ(q.shed_reject(0), 2u);
  // A delete must block, not shed: free one slot from a helper thread
  // while the delete is waiting.
  std::thread helper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    UpdateRequest out;
    ASSERT_TRUE(q.try_pop(out));
  });
  EXPECT_EQ(q.admit(delete_req(0)), PushResult::kAccepted);
  helper.join();
  EXPECT_EQ(q.shed_reject(0), 2u);  // unchanged: the delete was admitted
  EXPECT_EQ(q.offered(0), cap + 2 + 1);
}

TEST(AdmissionQueue, DropOldestEvictsHeadInsertExactly) {
  AdmissionConfig cfg;
  cfg.policy = ShedPolicy::kDropOldest;
  cfg.lanes = 1;
  AdmissionQueue q(cfg, 64);
  for (std::uint64_t i = 0; i < 64; ++i)
    ASSERT_EQ(q.admit(insert_req(i, 0, 1)), PushResult::kAccepted);
  // The 65th insert grants an eviction credit and blocks until the
  // consumer redeems it.
  std::thread producer(
      [&] { EXPECT_EQ(q.admit(insert_req(64, 2, 3)), PushResult::kAccepted); });
  // Wait for the credit grant BEFORE popping: if the consumer outran the
  // producer and drained the lane first, the (documented, benign) skip
  // path would clear the credit and no eviction would happen -- valid at
  // runtime, but not the path under test here.
  while (q.evict_credit(0) == 0) std::this_thread::yield();
  std::vector<std::uint64_t> survivors;
  std::uint64_t popped = 0, shed = 0;
  // Consume until the producer has landed and the rings are dry.
  for (;;) {
    UpdateRequest out;
    if (q.try_pop(out, &popped, &shed)) {
      survivors.push_back(out.ticket);
      continue;
    }
    if (survivors.size() + shed >= 65) break;
    std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(shed, 1u);
  EXPECT_EQ(q.shed_evict(0), 1u);
  EXPECT_EQ(popped, 65u);  // every consumed request counted, shed or not
  ASSERT_EQ(survivors.size(), 64u);
  // The OLDEST insert (ticket 0) was the one shed; order preserved after.
  EXPECT_EQ(survivors.front(), 1u);
  EXPECT_EQ(survivors.back(), 64u);
}

// ---- former: admit-budget staleness ---------------------------------------

TEST(BatchFormer, AdmitBudgetShedsStaleInsertsOnly) {
  serve::FormerConfig fc;
  fc.max_batch = 64;
  fc.admit_budget_us = 1000;  // 1 ms
  serve::BatchFormer former(fc);
  std::uint64_t now = 10'000'000'000ull;

  auto stamped = [&](UpdateRequest r, std::uint64_t age_us) {
    r.t_enqueue_ns = now - age_us * 1000;
    return r;
  };
  former.add(stamped(insert_req(1, 0, 1, 0), 5000));   // stale -> shed
  former.add(stamped(insert_req(2, 2, 3, 1), 10));     // fresh -> survives
  former.add(stamped(insert_req(3, 4, 5, 1), 5000));   // stale, but...
  former.add(stamped(delete_req(3, 1), 4000));         // ...annihilates
  former.add(stamped(delete_req(99, 0), 5000));        // prior-window ticket:
                                                       // deletes never stale

  serve::FormedBatch out;
  former.form(out, now);
  EXPECT_EQ(out.raw_requests, 5u);
  EXPECT_EQ(out.shed_stale, 1u);       // only ticket 1's insert
  EXPECT_EQ(out.annihilated, 1u);      // ticket 3: annihilation wins
  EXPECT_EQ(out.inserts.size(), 1u);   // ticket 2 survives
  ASSERT_EQ(out.delete_tickets.size(), 1u);
  EXPECT_EQ(out.delete_tickets[0], 99u);  // flows on despite its age
  EXPECT_EQ(out.lane_stale[0], 1u);
  EXPECT_EQ(out.lane_stale[1], 0u);
  EXPECT_EQ(out.lane_requests[0], 2u);
  EXPECT_EQ(out.lane_requests[1], 3u);
  // Budget disabled (now = 0 or budget 0): nothing is ever stale.
  former.add(stamped(insert_req(9, 6, 7), 5000));
  former.form(out, 0);
  EXPECT_EQ(out.shed_stale, 0u);
  EXPECT_EQ(out.inserts.size(), 1u);
}

// ---- service-level: conservation, shutdown, state machine -----------------

// Fills the (not yet started) service past its ring capacity so reject-new
// sheds deterministically, then starts, drains, and checks that every
// offered request is accounted for exactly once.
TEST(Overload, ShedConservationRejectNew) {
  constexpr std::size_t kOffered = 300;
  ServiceConfig cfg;
  cfg.matcher.seed = 42;
  cfg.max_vertices = 4096;
  cfg.queue_capacity = 64;
  cfg.admission.policy = ShedPolicy::kRejectNew;
  MatchService svc(cfg);
  std::size_t shed_submits = 0;
  std::vector<std::uint64_t> tickets;
  for (std::size_t i = 0; i < kOffered; ++i) {
    std::uint64_t t = svc.submit_insert(
        static_cast<graph::VertexId>(2 * i),
        static_cast<graph::VertexId>(2 * i + 1));
    if (t == MatchService::kShedTicket)
      ++shed_submits;
    else
      tickets.push_back(t);
  }
  EXPECT_EQ(tickets.size(), 64u);  // exactly the ring capacity landed
  svc.start();
  svc.drain_until_idle();
  // Revoke half of what landed, through the same accounting.
  for (std::size_t i = 0; i < tickets.size(); i += 2)
    svc.submit_delete(tickets[i]);
  svc.drain_until_idle();
  svc.stop();

  auto lr = svc.lane_report(0);
  EXPECT_EQ(lr.offered, kOffered + tickets.size() / 2);
  EXPECT_EQ(lr.offered, lr.committed + lr.shed_reject + lr.shed_evict +
                            lr.shed_stale);
  EXPECT_EQ(lr.shed_reject, shed_submits);
  EXPECT_EQ(svc.completed_updates(), svc.submitted_updates());
  const serve::ServiceStats& st = svc.stats();
  std::uint64_t applied = st.applied_inserts + st.applied_deletes +
                          st.dropped_deletes + 2 * st.annihilated +
                          st.deduped_deletes;
  EXPECT_EQ(lr.committed, applied);
  EXPECT_EQ(st.applied_inserts, 64u);
  EXPECT_EQ(st.applied_deletes, 32u);
}

// Drop-oldest through the full service: overfill pre-start, then let the
// drain redeem the eviction credits. The blocked producer needs the drain
// running, so the overflow submits happen from a helper thread.
TEST(Overload, DropOldestConservationThroughService) {
  ServiceConfig cfg;
  cfg.matcher.seed = 7;
  cfg.max_vertices = 4096;
  cfg.queue_capacity = 64;
  cfg.admission.policy = ShedPolicy::kDropOldest;
  MatchService svc(cfg);
  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_NE(svc.submit_insert(static_cast<graph::VertexId>(2 * i),
                                static_cast<graph::VertexId>(2 * i + 1)),
              MatchService::kShedTicket);
  std::thread overflow([&] {
    for (std::size_t i = 64; i < 96; ++i)
      EXPECT_NE(svc.submit_insert(static_cast<graph::VertexId>(2 * i),
                                  static_cast<graph::VertexId>(2 * i + 1)),
                MatchService::kShedTicket);
  });
  svc.start();
  overflow.join();
  svc.drain_until_idle();
  svc.stop();

  auto lr = svc.lane_report(0);
  EXPECT_EQ(lr.offered, 96u);
  EXPECT_EQ(lr.offered,
            lr.committed + lr.shed_reject + lr.shed_evict + lr.shed_stale);
  EXPECT_EQ(lr.shed_reject, 0u);  // drop-oldest never rejects at the door
  EXPECT_EQ(svc.completed_updates(), svc.submitted_updates());
}

TEST(Overload, StaleShedUnderBudgetAndAnnihilationWins) {
  ServiceConfig cfg;
  cfg.matcher.seed = 3;
  cfg.max_vertices = 256;
  cfg.former.admit_budget_us = 1000;  // 1 ms
  cfg.former.max_delay_us = 0;        // flush immediately once started
  MatchService svc(cfg);
  // Backlog ages past the budget before the drain ever runs.
  std::uint64_t t_dead = svc.submit_insert(0, 1);
  std::uint64_t t_pair = svc.submit_insert(2, 3);
  svc.submit_delete(t_pair);  // same-window pair: annihilates, not stale
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.start();
  svc.drain_until_idle();
  // The stale insert's late delete lands on a dead ticket -- dropped.
  svc.submit_delete(t_dead);
  svc.drain_until_idle();
  svc.stop();

  const serve::ServiceStats& st = svc.stats();
  EXPECT_EQ(st.shed_stale, 1u);
  EXPECT_EQ(st.annihilated, 1u);
  EXPECT_EQ(st.applied_inserts, 0u);
  EXPECT_EQ(st.dropped_deletes, 1u);
  EXPECT_EQ(svc.matched_count(), 0u);
  auto lr = svc.lane_report(0);
  EXPECT_EQ(lr.offered,
            lr.committed + lr.shed_reject + lr.shed_evict + lr.shed_stale);
  EXPECT_EQ(svc.completed_updates(), svc.submitted_updates());
}

// Priority lanes end-to-end: per-lane accounting matches the per-lane
// submissions, and an insert+delete pair on a non-zero lane works.
TEST(Overload, PriorityLanesAccountPerLane) {
  ServiceConfig cfg;
  cfg.matcher.seed = 11;
  cfg.max_vertices = 4096;
  cfg.admission.lanes = 2;
  MatchService svc(cfg);
  svc.start();
  std::vector<std::uint64_t> lane1;
  for (std::size_t i = 0; i < 40; ++i) {
    std::uint8_t lane = i % 4 == 0 ? 0 : 1;
    std::uint64_t t = svc.submit_insert(
        static_cast<graph::VertexId>(2 * i),
        static_cast<graph::VertexId>(2 * i + 1), lane);
    if (lane == 1) lane1.push_back(t);
  }
  svc.drain_until_idle();
  for (std::uint64_t t : lane1) svc.submit_delete(t, 1);
  svc.drain_until_idle();
  svc.stop();

  auto l0 = svc.lane_report(0);
  auto l1 = svc.lane_report(1);
  EXPECT_EQ(l0.offered, 10u);
  EXPECT_EQ(l1.offered, 30u + 30u);  // inserts + their deletes
  EXPECT_EQ(l0.offered, l0.committed);
  EXPECT_EQ(l1.offered, l1.committed);
  EXPECT_EQ(l0.latency->count() + l1.latency->count(),
            svc.stats().latency.count());
  // Out-of-range lane ids clamp to the lowest-priority lane.
  svc.submit_insert(100, 101, 9);
}

// Shutdown while saturated: many producers hammer a tiny ring with
// shedding active; stop() must terminate cleanly with every submitted
// request accounted for. (Race-stressed: in the TSan 5x repeat list.)
TEST(Overload, StopUnderSaturation) {
  ServiceConfig cfg;
  cfg.matcher.seed = 17;
  cfg.max_vertices = 1u << 16;
  cfg.queue_capacity = 128;
  cfg.admission.policy = ShedPolicy::kRejectNew;
  cfg.record_latencies = false;
  MatchService svc(cfg);
  svc.start();
  constexpr int kProducers = 4;
  constexpr std::size_t kPer = 5000;
  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> sheds{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPer; ++i) {
        graph::VertexId base = static_cast<graph::VertexId>(
            (p * kPer + i) * 2);
        std::uint64_t t = svc.submit_insert(base, base + 1);
        if (t == MatchService::kShedTicket) {
          sheds.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (i % 3 == 0) svc.submit_delete(t);
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();  // drains everything still queued; must not hang
  EXPECT_EQ(svc.completed_updates(), svc.submitted_updates());
  auto lr = svc.lane_report(0);
  EXPECT_EQ(lr.offered,
            lr.committed + lr.shed_reject + lr.shed_evict + lr.shed_stale);
  EXPECT_EQ(lr.shed_reject, sheds.load());
}

// Deadline flush keeps firing under a sustained trickle backlog: with a
// short max_delay and arrivals far apart, every request still commits
// within a bounded wait instead of waiting for a full window.
TEST(Overload, DeadlineFlushUnderSustainedBacklog) {
  ServiceConfig cfg;
  cfg.matcher.seed = 23;
  cfg.max_vertices = 256;
  cfg.former.max_batch = 1u << 14;  // never fills from this trickle
  cfg.former.max_delay_us = 200;
  cfg.former.cost_flush = 1u << 20;  // cost-model flush disabled
  MatchService svc(cfg);
  svc.start();
  for (int i = 0; i < 8; ++i) {
    svc.submit_insert(static_cast<graph::VertexId>(2 * i),
                      static_cast<graph::VertexId>(2 * i + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc.drain_until_idle();
  svc.stop();
  const serve::ServiceStats& st = svc.stats();
  EXPECT_EQ(st.applied_inserts, 8u);
  // The trickle must have flushed on deadlines (possibly plus one final
  // drain flush), never on window-full.
  EXPECT_GE(st.flush_deadline, 1u);
  EXPECT_EQ(st.flush_full, 0u);
  // Every commit waited at most max_delay + drain slack, far under the
  // 1ms inter-arrival gap times the backlog length.
  EXPECT_GT(st.latency.count(), 0u);
}

// The degradation state machine: healthy -> shedding on a shed event,
// decay back after the hold once the overload clears.
TEST(Overload, StateMachineShedsThenRecovers) {
  ServiceConfig cfg;
  cfg.matcher.seed = 29;
  cfg.max_vertices = 4096;
  cfg.queue_capacity = 64;
  cfg.admission.policy = ShedPolicy::kRejectNew;
  MatchService svc(cfg);
  EXPECT_EQ(svc.overload_state(), serve::OverloadState::kHealthy);
  // Overfill pre-start so sheds deterministically occur at the door.
  for (std::size_t i = 0; i < 128; ++i)
    svc.submit_insert(static_cast<graph::VertexId>(2 * i),
                      static_cast<graph::VertexId>(2 * i + 1));
  svc.start();
  // The drain notices the shed within its first iterations.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.overload_state() != serve::OverloadState::kShedding &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(svc.overload_state(), serve::OverloadState::kShedding);
  svc.drain_until_idle();
  // After the hold expires with no new sheds and an empty queue, the
  // state decays. Keep the drain iterating by submitting a slow trickle.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.overload_state() != serve::OverloadState::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    svc.submit_insert(1, 2);
    svc.drain_until_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(svc.overload_state(), serve::OverloadState::kHealthy);
  EXPECT_GE(svc.overload_transitions(), 2u);
  svc.stop();
}

}  // namespace
