// Service-layer tests (DESIGN.md S12): the open-loop serving front-end
// (serve/update_queue.h, serve/batch_former.h, serve/service.h).
//
// What is asserted, per the serving determinism contract: the batch
// PARTITION the former produces is timing-dependent, so the matching is
// not expected to be bit-identical between a served stream and a serial
// replay. What must hold regardless of timing:
//   * the final live GRAPH equals the serial replay's (every submitted
//     update applied exactly once, conflicts resolved correctly);
//   * the service's matching is valid and maximal on that graph
//     (cross-checked against baseline/recompute.h on the same live set);
//   * the published snapshot equals the matcher's state once idle;
//   * snapshot reads racing applies are safe (the TSan target) and a
//     read_consistent bracket never observes a mid-publish epoch.
// The former's flush policy and conflict-window semantics are pure
// functions of (window, clock), so those are unit-tested exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/recompute.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "parallel/cost_model.h"
#include "serve/batch_former.h"
#include "serve/service.h"
#include "serve/ticket_table.h"
#include "serve/update_queue.h"
#include "util/rng.h"

using namespace parmatch;
using graph::EdgeId;
using graph::VertexId;
using graph::kInvalidEdge;

namespace {

serve::UpdateRequest insert_req(std::uint64_t ticket, VertexId u, VertexId v,
                                std::uint64_t t_ns = 0) {
  serve::UpdateRequest r;
  r.ticket = ticket;
  r.rank = 2;
  r.v[0] = u;
  r.v[1] = v;
  r.t_enqueue_ns = t_ns;
  return r;
}

serve::UpdateRequest delete_req(std::uint64_t ticket, std::uint64_t t_ns = 0) {
  serve::UpdateRequest r;
  r.ticket = ticket;
  r.rank = 0;
  r.t_enqueue_ns = t_ns;
  return r;
}

// ---- UpdateQueue ----------------------------------------------------------

TEST(UpdateQueue, FifoAndBoundedCapacity) {
  serve::UpdateQueue q(64);
  EXPECT_EQ(q.capacity(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i)
    EXPECT_TRUE(q.try_push(insert_req(i, 0, 1)));
  EXPECT_FALSE(q.try_push(insert_req(99, 0, 1)));  // full: backpressure
  serve::UpdateRequest r;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(q.try_pop(r));
    EXPECT_EQ(r.ticket, i);  // FIFO
  }
  EXPECT_FALSE(q.try_pop(r));
  // Recycled cells accept a second lap.
  EXPECT_TRUE(q.try_push(delete_req(7)));
  ASSERT_TRUE(q.try_pop(r));
  EXPECT_EQ(r.rank, 0u);
  EXPECT_EQ(r.ticket, 7u);
}

TEST(UpdateQueue, MultiProducerDrainsEveryRequestOnce) {
  serve::UpdateQueue q(1u << 10);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPer = 5000;
  std::vector<std::thread> ps;
  for (int p = 0; p < kProducers; ++p)
    ps.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        serve::UpdateRequest r =
            insert_req(static_cast<std::uint64_t>(p) * kPer + i, 0, 1);
        while (!q.try_push(r)) std::this_thread::yield();
      }
    });
  std::vector<std::uint64_t> seen;
  serve::UpdateRequest r;
  while (seen.size() < kProducers * kPer)
    if (q.try_pop(r)) seen.push_back(r.ticket);
  for (auto& t : ps) t.join();
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < kProducers * kPer; ++i)
    ASSERT_EQ(seen[i], i);  // every ticket exactly once
}

// ---- SpscRing: pipeline stage handoff ------------------------------------

TEST(SpscRing, FifoBoundedAndRecycles) {
  serve::SpscRing<int> r(4);
  EXPECT_EQ(r.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(99));  // full: stage backpressure
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(r.try_pop(v));
    EXPECT_EQ(v, i);  // FIFO
  }
  EXPECT_FALSE(r.try_pop(v));
  // Several laps through the same slots.
  for (int lap = 0; lap < 10; ++lap) {
    EXPECT_TRUE(r.try_push(lap * 7));
    ASSERT_TRUE(r.try_pop(v));
    EXPECT_EQ(v, lap * 7);
  }
}

TEST(SpscRing, ProducerConsumerThreadsTransferEverything) {
  serve::SpscRing<std::uint64_t> r(8);
  constexpr std::uint64_t kItems = 50'000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i)
      while (!r.try_push(i)) std::this_thread::yield();
  });
  std::uint64_t expect = 0, v = 0;
  while (expect < kItems) {
    if (r.try_pop(v)) {
      ASSERT_EQ(v, expect);  // FIFO, nothing lost or duplicated
      ++expect;
    } else {
      std::this_thread::yield();  // 1-core hosts: let the producer run
    }
  }
  producer.join();
}

// ---- TicketTable: bounded ticket recycling -------------------------------

TEST(TicketTable, PutTakeFindSemantics) {
  serve::TicketTable t;
  EXPECT_EQ(t.find(42), kInvalidEdge);
  EXPECT_EQ(t.take(42), kInvalidEdge);  // unknown ticket: dropped
  t.put(42, 7);
  t.put(43, 8);
  EXPECT_EQ(t.find(42), 7u);
  EXPECT_EQ(t.live(), 2u);
  EXPECT_EQ(t.take(42), 7u);
  EXPECT_EQ(t.take(42), kInvalidEdge);  // double-delete: dropped
  EXPECT_EQ(t.find(42), kInvalidEdge);
  EXPECT_EQ(t.find(43), 8u);
  EXPECT_EQ(t.live(), 1u);
}

// Memory tracks the LIVE count, never the stream length: a monotone
// ticket stream with matching deletes cycles inside a bounded capacity,
// and after a mass delete the next put shrinks the table back down.
TEST(TicketTable, CapacityTracksLiveCountNotStreamLength) {
  serve::TicketTable t;
  std::uint64_t next = 0;
  std::size_t hwm = 0;
  for (int epoch = 0; epoch < 50; ++epoch) {
    std::vector<std::uint64_t> mine;
    for (int i = 0; i < 1000; ++i) {
      t.put(next, static_cast<EdgeId>(i));
      mine.push_back(next++);
    }
    for (std::uint64_t k : mine) ASSERT_NE(t.take(k), kInvalidEdge);
    if (t.capacity() > hwm) hwm = t.capacity();
  }
  // 50k tickets streamed; capacity bounded by the 1000-live working set
  // (4x headroom rounded to a power of two), not by the stream.
  EXPECT_LE(hwm, 8192u);
  EXPECT_EQ(t.live(), 0u);
  // Tombstones from the mass deletes force the NEXT threshold-crossing put
  // to rehash at a live count of ~1, which shrinks the table back toward
  // its floor instead of compounding (keep putting without deleting until
  // a rehash must have fired: capacity ends far below the tombstone-free
  // doubling trajectory of a fresh 50k-key table).
  for (int i = 0; i < 100; ++i) t.put(next++, 1);
  EXPECT_LE(t.capacity(), 8192u);
  EXPECT_EQ(t.live(), 100u);
}

// ---- BatchFormer: flush policy -------------------------------------------

TEST(BatchFormer, EmptyWindowNeverFlushes) {
  serve::FormerConfig cfg;
  cfg.max_delay_us = 1;
  cfg.cost_flush = 1;  // most aggressive criteria possible
  cfg.max_batch = 1;
  serve::BatchFormer f(cfg);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.should_flush(/*now_ns=*/1u << 30));
  serve::FormedBatch out;
  f.form(out);  // form on an empty window is a no-op
  EXPECT_EQ(out.raw_requests, 0u);
  EXPECT_EQ(out.update_count(), 0u);
}

TEST(BatchFormer, DeadlineCountsFromOldestEnqueue) {
  serve::FormerConfig cfg;
  cfg.max_delay_us = 100;                 // 100'000 ns
  cfg.cost_flush = 1u << 20;              // out of reach
  cfg.max_batch = 1u << 20;
  serve::BatchFormer f(cfg);
  f.add(insert_req(0, 1, 2, /*t_ns=*/1'000'000));
  f.add(insert_req(1, 3, 4, /*t_ns=*/1'050'000));
  serve::FlushReason why;
  EXPECT_FALSE(f.should_flush(1'099'999, &why));
  EXPECT_TRUE(f.should_flush(1'100'000, &why));  // oldest hit the deadline
  EXPECT_EQ(why, serve::FlushReason::kDeadline);
}

TEST(BatchFormer, CostModelAndMaxBatchFlush) {
  serve::FormerConfig cfg;
  cfg.max_delay_us = 1u << 30;
  cfg.cost_flush = 3;
  cfg.max_batch = 5;
  serve::BatchFormer f(cfg);
  serve::FlushReason why;
  f.add(insert_req(0, 1, 2));
  f.add(insert_req(1, 3, 4));
  EXPECT_FALSE(f.should_flush(0, &why));
  f.add(insert_req(2, 5, 6));
  EXPECT_TRUE(f.should_flush(0, &why));  // window reached the break-even
  EXPECT_EQ(why, serve::FlushReason::kCostModel);
  f.add(insert_req(3, 7, 8));
  f.add(insert_req(4, 9, 10));
  EXPECT_TRUE(f.window_full());
  EXPECT_TRUE(f.should_flush(0, &why));
  EXPECT_EQ(why, serve::FlushReason::kFull);  // full outranks cost-model
}

// ---- BatchFormer: conflict-window semantics ------------------------------

TEST(BatchFormer, InsertThenDeleteOfSameTicketAnnihilates) {
  serve::FormerConfig cfg;
  serve::BatchFormer f(cfg);
  f.add(insert_req(10, 1, 2, 100));
  f.add(insert_req(11, 3, 4, 110));
  f.add(delete_req(10, 120));  // revokes ticket 10 inside the window
  serve::FormedBatch out;
  f.form(out);
  EXPECT_EQ(out.raw_requests, 3u);
  EXPECT_EQ(out.annihilated, 1u);
  ASSERT_EQ(out.inserts.size(), 1u);  // only ticket 11 survives
  EXPECT_EQ(out.insert_tickets[0], 11u);
  EXPECT_TRUE(out.delete_tickets.empty());
  // Both sides of the pair are stamped for latency accounting.
  EXPECT_EQ(out.absorbed_enqueue_ns.size(), 2u);
  EXPECT_TRUE(f.empty());  // window reset
}

TEST(BatchFormer, DuplicateDeletesCollapseToFirst) {
  serve::FormerConfig cfg;
  serve::BatchFormer f(cfg);
  f.add(delete_req(5, 100));
  f.add(delete_req(5, 200));
  f.add(delete_req(6, 300));
  f.add(delete_req(5, 400));
  serve::FormedBatch out;
  f.form(out);
  EXPECT_EQ(out.raw_requests, 4u);
  EXPECT_EQ(out.deduped, 2u);
  ASSERT_EQ(out.delete_tickets.size(), 2u);
  EXPECT_EQ(out.delete_tickets[0], 5u);
  EXPECT_EQ(out.delete_enqueue_ns[0], 100u);  // first occurrence kept
  EXPECT_EQ(out.delete_tickets[1], 6u);
  EXPECT_EQ(out.absorbed_enqueue_ns.size(), 2u);
}

TEST(BatchFormer, AnnihilationWithDuplicateDeletes) {
  serve::FormerConfig cfg;
  serve::BatchFormer f(cfg);
  f.add(insert_req(10, 1, 2, 100));
  f.add(delete_req(10, 110));
  f.add(delete_req(10, 120));  // double-delete of an annihilated ticket
  serve::FormedBatch out;
  f.form(out);
  EXPECT_EQ(out.annihilated, 1u);
  EXPECT_EQ(out.update_count(), 0u);
  EXPECT_EQ(out.absorbed_enqueue_ns.size(), 3u);  // all three stamped once
}

// Regression (ISSUE 15 satellite): an insert and its delete submitted on
// DIFFERENT priority lanes but landing in the same window must annihilate
// exactly once -- not zero times (delete dropped as unknown-ticket because
// the insert rode another lane) and not twice (both the per-lane and the
// merged path counting the pair). Pinned partition: nothing flushes before
// stop(), so each pair provably shares its window.
TEST(MatchService, CrossLanePairAnnihilatesExactlyOnceInSameWindow) {
  constexpr std::size_t kPairs = 8;
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 3;
  cfg.max_vertices = 256;
  cfg.record_latencies = false;
  cfg.admission.lanes = 4;  // PARMATCH_LANES=4 equivalent
  cfg.former.max_batch = 64;
  cfg.former.cost_flush = 1u << 20;
  cfg.former.max_delay_us = 1u << 30;
  serve::MatchService svc(cfg);
  svc.start();

  // kPairs annihilating cross-lane pairs (insert on lane i%4, delete on
  // lane (i+2)%4) interleaved with kPairs surviving inserts.
  std::vector<std::uint64_t> doomed, kept;
  for (std::size_t i = 0; i < kPairs; ++i) {
    VertexId a = static_cast<VertexId>(4 * i);
    VertexId vs1[2] = {a, static_cast<VertexId>(a + 1)};
    VertexId vs2[2] = {static_cast<VertexId>(a + 2),
                       static_cast<VertexId>(a + 3)};
    std::uint8_t in_lane = static_cast<std::uint8_t>(i % 4);
    std::uint8_t del_lane = static_cast<std::uint8_t>((i + 2) % 4);
    doomed.push_back(
        svc.submit_insert(std::span<const VertexId>(vs1, 2), in_lane));
    kept.push_back(
        svc.submit_insert(std::span<const VertexId>(vs2, 2), in_lane));
    svc.submit_delete(doomed.back(), del_lane);
  }
  svc.stop();  // flushes the single pinned window

  const serve::ServiceStats& st = svc.stats();
  EXPECT_EQ(st.annihilated, kPairs) << "each cross-lane pair exactly once";
  EXPECT_EQ(st.applied_inserts, kPairs);  // only the survivors
  EXPECT_EQ(st.applied_deletes, 0u);
  EXPECT_EQ(st.dropped_deletes, 0u);
  for (std::uint64_t t : doomed)
    EXPECT_EQ(svc.edge_of_ticket(t), kInvalidEdge);
  for (std::uint64_t t : kept) {
    EdgeId e = svc.edge_of_ticket(t);
    ASSERT_NE(e, kInvalidEdge);
    EXPECT_TRUE(svc.matcher().pool().live(e));
  }
  // Lane conservation across the annihilation: every offered request
  // commits on the lane it was submitted on; sheds stay zero.
  std::uint64_t offered = 0, committed = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    auto lr = svc.lane_report(l);
    EXPECT_EQ(lr.offered, lr.committed) << "lane " << l;
    EXPECT_EQ(lr.shed_reject + lr.shed_evict + lr.shed_stale, 0u)
        << "lane " << l;
    offered += lr.offered;
    committed += lr.committed;
  }
  EXPECT_EQ(offered, 3 * kPairs);
  EXPECT_EQ(committed, offered);
}

// ---- MatchService: end-to-end --------------------------------------------

// Replays a flattened churn stream through (a) the service with producers
// and (b) a serial one-update-per-batch DynamicMatcher, then asserts the
// final live graphs are identical and the service matching is valid and
// maximal (recompute cross-check).
struct StreamResult {
  std::multiset<std::pair<VertexId, VertexId>> live_edges;
};

std::pair<VertexId, VertexId> canon(std::span<const VertexId> vs) {
  VertexId a = vs[0], b = vs[1];
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

TEST(MatchService, SingleProducerEqualsSerialStream) {
  constexpr VertexId kN = 512;
  constexpr std::size_t kM = 1536;
  gen::Workload w = gen::churn(gen::erdos_renyi(kN, kM, 77), 1, 0.5, 78);
  auto stream = gen::flatten(w);

  // (a) through the service.
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 9;
  cfg.max_vertices = kN;
  cfg.former.max_delay_us = 50;  // small windows, many flushes
  serve::MatchService svc(cfg);
  svc.start();
  constexpr std::uint64_t kNoTicket = ~0ull;
  std::vector<std::uint64_t> ticket(w.master.size(), kNoTicket);
  for (const gen::Update& u : stream) {
    if (u.is_insert)
      ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge));
    else
      svc.submit_delete(ticket[u.edge]);
  }
  svc.drain_until_idle();
  svc.stop();

  // (b) serial replay: one matcher batch per update.
  dyn::Config mcfg;
  mcfg.seed = 9;
  dyn::DynamicMatcher serial(mcfg);
  std::vector<EdgeId> live(w.master.size(), kInvalidEdge);
  for (const gen::Update& u : stream) {
    if (u.is_insert) {
      graph::EdgeBatch b;
      b.add(w.master.edge(u.edge));
      live[u.edge] = serial.insert_edges(b)[0];
    } else {
      serial.delete_edges({live[u.edge]});
      live[u.edge] = kInvalidEdge;
    }
  }

  // Identical final live graphs (as canonical endpoint multisets). A
  // ticket maps to a live edge iff the serial replay kept it live.
  std::multiset<std::pair<VertexId, VertexId>> served, replayed;
  for (std::size_t i = 0; i < w.master.size(); ++i) {
    EdgeId se = ticket[i] == kNoTicket ? kInvalidEdge
                                       : svc.edge_of_ticket(ticket[i]);
    if (live[i] != kInvalidEdge) {
      ASSERT_NE(se, kInvalidEdge) << "edge " << i << " lost by the service";
      EXPECT_TRUE(svc.matcher().pool().live(se));
      served.insert(canon(svc.matcher().pool().vertices(se)));
      replayed.insert(canon(serial.pool().vertices(live[i])));
    } else {
      // never inserted, or deleted: the ticket must not map to a live edge
      EXPECT_EQ(se, kInvalidEdge);
    }
  }
  EXPECT_EQ(served, replayed);

  // Served matching is valid + maximal on the live graph (recompute
  // cross-check on the identical live set).
  const auto& dm = svc.matcher();
  auto matched = dm.matching();
  std::set<VertexId> taken;
  for (EdgeId e : matched) {
    ASSERT_TRUE(dm.pool().live(e));
    for (VertexId v : dm.pool().vertices(e))
      EXPECT_TRUE(taken.insert(v).second) << "vertex matched twice";
  }
  for (std::size_t i = 0; i < w.master.size(); ++i) {
    if (ticket[i] == kNoTicket) continue;
    EdgeId se = svc.edge_of_ticket(ticket[i]);
    if (se == kInvalidEdge || !dm.pool().live(se)) continue;
    bool blocked = false;
    for (VertexId v : dm.pool().vertices(se))
      blocked = blocked || taken.count(v) != 0;
    EXPECT_TRUE(blocked) << "live edge with all endpoints free: not maximal";
  }
}

TEST(MatchService, MultiProducerIngestionAppliesEveryUpdateOnce) {
  constexpr VertexId kN = 1024;
  constexpr int kProducers = 4;
  constexpr std::size_t kPerProducer = 1500;

  serve::ServiceConfig cfg;
  cfg.matcher.seed = 5;
  cfg.max_vertices = kN;
  serve::MatchService svc(cfg);
  svc.start();

  // Each producer inserts kPerProducer edges in its own vertex stripe and
  // deletes every third one, so the expected final graph is exact.
  std::vector<std::vector<std::uint64_t>> tickets(kProducers);
  std::vector<std::thread> ps;
  for (int p = 0; p < kProducers; ++p)
    ps.emplace_back([&, p] {
      Rng rng(1000 + static_cast<std::uint64_t>(p));
      VertexId base = static_cast<VertexId>(p) * (kN / kProducers);
      VertexId span = kN / kProducers;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        VertexId u = base + static_cast<VertexId>(rng.next_below(span));
        VertexId v = base + static_cast<VertexId>(rng.next_below(span));
        if (v == u) v = base + ((u - base + 1) % span);
        tickets[p].push_back(svc.submit_insert(u, v));
        if (i % 3 == 2) svc.submit_delete(tickets[p][i - 1]);
      }
    });
  for (auto& t : ps) t.join();
  svc.drain_until_idle();
  svc.stop();

  const serve::ServiceStats& st = svc.stats();
  std::size_t submitted = kProducers * (kPerProducer + kPerProducer / 3);
  EXPECT_EQ(svc.submitted_updates(), submitted);
  EXPECT_EQ(svc.completed_updates(), submitted);
  // Conservation: every insert either lives, was deleted, or annihilated.
  EXPECT_EQ(st.applied_inserts + st.annihilated,
            static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(st.dropped_deletes, 0u);

  // Exact expected live set per producer stripe.
  for (int p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      bool deleted = i % 3 == 1;  // ticket i deleted by step i+1
      EdgeId e = svc.edge_of_ticket(tickets[p][i]);
      if (deleted) {
        EXPECT_TRUE(e == kInvalidEdge || !svc.matcher().pool().live(e));
      } else {
        ASSERT_NE(e, kInvalidEdge);
        EXPECT_TRUE(svc.matcher().pool().live(e));
      }
    }

  // Snapshot agrees with the matcher once idle.
  const auto& dm = svc.matcher();
  EXPECT_EQ(svc.matched_count(), dm.matched_count());
  for (VertexId v = 0; v < kN; ++v) EXPECT_EQ(svc.match_of(v), dm.match_of(v));

  // Recompute cross-check: maximality on the final live graph.
  baseline::RecomputeMatcher rc(2, 123);
  graph::EdgeBatch liveb;
  for (int p = 0; p < kProducers; ++p)
    for (std::uint64_t t : tickets[p]) {
      EdgeId e = svc.edge_of_ticket(t);
      if (e != kInvalidEdge && dm.pool().live(e)) {
        auto vs = dm.pool().vertices(e);
        liveb.add(vs);
      }
    }
  rc.insert_edges(liveb);
  // Factor-r sandwich on matching sizes (r = 2).
  std::size_t rc_size = rc.matching().size();
  EXPECT_LE(rc_size, 2 * dm.matched_count());
  EXPECT_LE(dm.matched_count(), 2 * rc_size);
}

TEST(MatchService, DeleteInLaterWindowRemovesEdge) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 3;
  cfg.max_vertices = 16;
  serve::MatchService svc(cfg);
  svc.start();
  std::uint64_t t1 = svc.submit_insert(1, 2);
  std::uint64_t t2 = svc.submit_insert(3, 4);
  svc.drain_until_idle();  // window applied: both live
  EXPECT_NE(svc.edge_of_ticket(t1), kInvalidEdge);
  EXPECT_TRUE(svc.is_matched(1));
  EXPECT_TRUE(svc.is_matched(3));
  svc.submit_delete(t1);
  svc.drain_until_idle();
  svc.stop();
  EXPECT_EQ(svc.edge_of_ticket(t1), kInvalidEdge);
  EXPECT_FALSE(svc.is_matched(1));
  EXPECT_FALSE(svc.is_matched(2));
  EXPECT_NE(svc.edge_of_ticket(t2), kInvalidEdge);
  EXPECT_EQ(svc.matched_count(), 1u);
  // Double-delete of a dead ticket is dropped, not applied.
  EXPECT_EQ(svc.stats().dropped_deletes, 0u);
}

// The TSan target: reader threads hammer the snapshot while producers
// submit and the drain thread applies. Asserts only invariants that hold
// at any instant; the synchronization itself is what is under test.
TEST(MatchService, SnapshotReadsRaceApplies) {
  constexpr VertexId kN = 256;
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 11;
  cfg.max_vertices = kN;
  cfg.former.max_delay_us = 20;  // flush often: many publishes
  cfg.record_latencies = false;
  serve::MatchService svc(cfg);
  svc.start();

  std::atomic<bool> go{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&, r] {
      Rng rng(99 + static_cast<std::uint64_t>(r));
      while (go.load(std::memory_order_acquire)) {
        // Single-word reads are always safe.
        VertexId v = static_cast<VertexId>(rng.next_below(kN));
        EdgeId e = svc.match_of(v);
        (void)e;
        // Consistent multi-word read: epoch must be even and stable
        // around the bracket by construction of read_consistent.
        auto pair = svc.read_consistent([&] {
          return std::make_pair(svc.snapshot_epoch(), svc.matched_count());
        });
        EXPECT_EQ(pair.first % 2, 0u);
        EXPECT_LE(pair.second, static_cast<std::size_t>(kN) / 2);
      }
    });

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      Rng rng(7 + static_cast<std::uint64_t>(p));
      std::vector<std::uint64_t> mine;
      for (int i = 0; i < 4000; ++i) {
        if (mine.empty() || rng.next_below(3) != 0) {
          VertexId u = static_cast<VertexId>(rng.next_below(kN));
          VertexId v = static_cast<VertexId>(rng.next_below(kN));
          if (u == v) v = (v + 1) % kN;
          mine.push_back(svc.submit_insert(u, v));
        } else {
          std::size_t j = rng.next_below(mine.size());
          svc.submit_delete(mine[j]);
          mine[j] = mine.back();
          mine.pop_back();
        }
      }
    });
  for (auto& t : producers) t.join();
  svc.drain_until_idle();
  go.store(false, std::memory_order_release);
  for (auto& t : readers) t.join();
  svc.stop();

  // Settled state: snapshot == matcher.
  for (VertexId v = 0; v < kN; ++v)
    EXPECT_EQ(svc.match_of(v), svc.matcher().match_of(v));
  EXPECT_EQ(svc.matched_count(), svc.matcher().matched_count());
}

// The serve layer carries endpoints inline in ring cells, so it caps the
// matcher rank it will serve at UpdateRequest::kMaxRank regardless of the
// requested config.
TEST(MatchService, MatcherRankCappedToInlineRequestCapacity) {
  serve::ServiceConfig cfg;
  cfg.matcher.max_rank = 8;  // legal for the pool, not servable inline
  cfg.max_vertices = 16;
  serve::MatchService svc(cfg);
  EXPECT_EQ(svc.config().matcher.max_rank, serve::UpdateRequest::kMaxRank);
  svc.start();
  VertexId quad[4] = {0, 1, 2, 3};
  std::uint64_t t = svc.submit_insert(std::span<const VertexId>(quad, 4));
  svc.drain_until_idle();
  svc.stop();
  EXPECT_NE(svc.edge_of_ticket(t), kInvalidEdge);
  EXPECT_EQ(svc.matcher().pool().vertices(svc.edge_of_ticket(t)).size(), 4u);
}

// Sets one environment variable for a scope and restores what was there.
struct EnvKnob {
  const char* name;
  std::optional<std::string> saved;
  EnvKnob(const char* n, const char* v) : name(n) {
    if (const char* old = std::getenv(n)) saved = old;
    if (v != nullptr)
      setenv(n, v, 1);
    else
      unsetenv(n);
  }
  ~EnvKnob() {
    if (saved)
      setenv(name, saved->c_str(), 1);
    else
      unsetenv(name);
  }
};

// ServiceConfig::from_env reads ten service knobs: each value lands in its
// field, out-of-range counts clamp, and unknown policy names fall back to
// none/off.
TEST(ServiceConfig, FromEnvReadsEveryServiceKnob) {
  using serve::JournalPolicy;
  using serve::ShedPolicy;
  const char* kKnobs[] = {"PARMATCH_MAX_BATCH",      "PARMATCH_MAX_DELAY_US",
                          "PARMATCH_ADMIT_BUDGET_US", "PARMATCH_SHED",
                          "PARMATCH_LANES",          "PARMATCH_LANE_WEIGHT",
                          "PARMATCH_JOURNAL",        "PARMATCH_JOURNAL_DIR",
                          "PARMATCH_FSYNC_EVERY_US", "PARMATCH_CKPT_EVERY"};
  std::vector<std::unique_ptr<EnvKnob>> cleared;
  for (const char* k : kKnobs)
    cleared.push_back(std::make_unique<EnvKnob>(k, nullptr));

  serve::ServiceConfig defaults = serve::ServiceConfig::from_env();
  EXPECT_EQ(defaults.admission.policy, ShedPolicy::kNone);
  EXPECT_EQ(defaults.admission.lanes, 1u);
  EXPECT_EQ(defaults.journal.policy, JournalPolicy::kOff);
  EXPECT_TRUE(defaults.journal.dir.empty());

  struct Row {
    const char* knob;
    const char* value;
    std::function<bool(const serve::ServiceConfig&)> holds;
  };
  const Row rows[] = {
      {"PARMATCH_MAX_BATCH", "77",
       [](const auto& c) { return c.former.max_batch == 77; }},
      {"PARMATCH_MAX_BATCH", "0",
       [](const auto& c) { return c.former.max_batch == 1; }},
      {"PARMATCH_MAX_DELAY_US", "1234",
       [](const auto& c) { return c.former.max_delay_us == 1234; }},
      {"PARMATCH_ADMIT_BUDGET_US", "950",
       [](const auto& c) { return c.former.admit_budget_us == 950; }},
      {"PARMATCH_SHED", "reject-new",
       [](const auto& c) {
         return c.admission.policy == ShedPolicy::kRejectNew;
       }},
      {"PARMATCH_SHED", "drop-oldest",
       [](const auto& c) {
         return c.admission.policy == ShedPolicy::kDropOldest;
       }},
      {"PARMATCH_SHED", "bogus",
       [](const auto& c) { return c.admission.policy == ShedPolicy::kNone; }},
      {"PARMATCH_LANES", "3",
       [](const auto& c) { return c.admission.lanes == 3; }},
      {"PARMATCH_LANES", "0",
       [](const auto& c) { return c.admission.lanes == 1; }},
      {"PARMATCH_LANES", "9",
       [](const auto& c) { return c.admission.lanes == serve::kMaxLanes; }},
      {"PARMATCH_LANE_WEIGHT", "5",
       [](const auto& c) { return c.admission.drain_weight == 5; }},
      {"PARMATCH_LANE_WEIGHT", "0",
       [](const auto& c) { return c.admission.drain_weight == 1; }},
      {"PARMATCH_JOURNAL", "async",
       [](const auto& c) { return c.journal.policy == JournalPolicy::kAsync; }},
      {"PARMATCH_JOURNAL", "commit",
       [](const auto& c) {
         return c.journal.policy == JournalPolicy::kCommit;
       }},
      {"PARMATCH_JOURNAL", "bogus",
       [](const auto& c) { return c.journal.policy == JournalPolicy::kOff; }},
      {"PARMATCH_JOURNAL_DIR", "/var/lib/parmatch",
       [](const auto& c) { return c.journal.dir == "/var/lib/parmatch"; }},
      {"PARMATCH_FSYNC_EVERY_US", "250",
       [](const auto& c) { return c.journal.fsync_every_us == 250; }},
      {"PARMATCH_CKPT_EVERY", "0",
       [](const auto& c) { return c.journal.ckpt_every == 0; }},
  };
  for (const Row& r : rows) {
    EnvKnob knob(r.knob, r.value);
    EXPECT_TRUE(r.holds(serve::ServiceConfig::from_env()))
        << r.knob << "=" << r.value;
  }
}

// An idle service parks its drain thread; a submit must wake it (a lost
// wakeup would stall this test until its timed-wait backstop, a hang
// would fail the suite timeout).
TEST(MatchService, WakesFromIdleParkOnSubmit) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 4;
  cfg.max_vertices = 8;
  serve::MatchService svc(cfg);
  svc.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it park
  std::uint64_t t = svc.submit_insert(0, 1);
  svc.drain_until_idle();
  EXPECT_NE(svc.edge_of_ticket(t), kInvalidEdge);
  EXPECT_TRUE(svc.is_matched(0));
  svc.stop();
}

// reset_stats and drain-on-stop: stop() must flush a below-threshold
// window rather than dropping it.
TEST(MatchService, StopFlushesPendingWindow) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 2;
  cfg.max_vertices = 8;
  cfg.former.max_delay_us = 1u << 30;  // deadline unreachable
  cfg.former.cost_flush = 1u << 20;    // cost flush unreachable
  serve::MatchService svc(cfg);
  svc.start();
  std::uint64_t t = svc.submit_insert(0, 1);
  svc.stop();  // must drain the window
  EXPECT_NE(svc.edge_of_ticket(t), kInvalidEdge);
  EXPECT_EQ(svc.matched_count(), 1u);
  EXPECT_EQ(svc.stats().flush_drain, 1u);
}

// ---- drain vs direct replay ----------------------------------------------

// With flushes pinned to the max-batch criterion alone (cost and deadline
// unreachable) the window PARTITION of a single-producer stream is exactly
// consecutive groups of `window` requests in submit order -- independent
// of drain timing. Under a fixed partition the service must be
// BIT-identical to a direct replay of those windows on the test thread:
// same matching (as edge ids), same snapshot, same deterministic counters.
// stop() flushes the partial tail window.
struct DrainResult {
  std::vector<EdgeId> matching;
  std::vector<EdgeId> snapshot;       // match_of per vertex
  std::size_t matched_count = 0;
  std::vector<std::uint8_t> ticket_live;  // per master edge
  std::size_t batches = 0;
  std::size_t applied_inserts = 0;
  std::size_t applied_deletes = 0;
  std::size_t annihilated = 0;
  std::size_t deduped = 0;
  std::size_t dropped = 0;
};

constexpr std::uint64_t kMatcherSeed = 21;
constexpr std::uint64_t kNoTicket = ~0ull;

serve::FormerConfig fixed_partition(std::size_t window) {
  serve::FormerConfig f;
  f.max_batch = window;
  f.cost_flush = 1u << 20;    // unreachable
  f.max_delay_us = 1u << 30;  // unreachable
  return f;
}

DrainResult run_fixed_partition(const gen::Workload& w,
                                const std::vector<gen::Update>& stream,
                                VertexId n_vertices, std::size_t window) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = kMatcherSeed;
  cfg.max_vertices = n_vertices;
  cfg.record_latencies = false;
  cfg.former = fixed_partition(window);
  serve::MatchService svc(cfg);
  svc.start();
  std::vector<std::uint64_t> ticket(w.master.size(), kNoTicket);
  for (const gen::Update& u : stream) {
    if (u.is_insert)
      ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge));
    else
      svc.submit_delete(ticket[u.edge]);
  }
  svc.stop();  // drains + flushes the tail window through every stage

  DrainResult r;
  r.matching = svc.matcher().matching();
  r.matched_count = svc.matched_count();
  r.snapshot.reserve(n_vertices);
  for (VertexId v = 0; v < n_vertices; ++v)
    r.snapshot.push_back(svc.match_of(v));
  r.ticket_live.reserve(w.master.size());
  for (std::size_t i = 0; i < w.master.size(); ++i) {
    EdgeId e = ticket[i] == kNoTicket ? kInvalidEdge
                                      : svc.edge_of_ticket(ticket[i]);
    r.ticket_live.push_back(e != kInvalidEdge &&
                            svc.matcher().pool().live(e));
  }
  const serve::ServiceStats& st = svc.stats();
  r.batches = st.batches;
  r.applied_inserts = st.applied_inserts;
  r.applied_deletes = st.applied_deletes;
  r.annihilated = st.annihilated;
  r.deduped = st.deduped_deletes;
  r.dropped = st.dropped_deletes;
  return r;
}

// The reference: the same partition applied by hand on the test thread --
// a bare DynamicMatcher, a BatchFormer cut every `window` requests, and a
// plain map for the tickets (numbered in insert order, as the service
// hands them out). It shares nothing with the service's drain but the
// former and the matcher themselves.
DrainResult direct_replay(const gen::Workload& w,
                          const std::vector<gen::Update>& stream,
                          VertexId n_vertices, std::size_t window) {
  dyn::Config mcfg;
  mcfg.seed = kMatcherSeed;
  dyn::DynamicMatcher dm(mcfg);
  serve::BatchFormer former(fixed_partition(window));
  serve::FormedBatch fb;
  std::unordered_map<std::uint64_t, EdgeId> edge_of;
  std::vector<std::uint64_t> ticket(w.master.size(), kNoTicket);
  std::uint64_t next_ticket = 0;
  DrainResult r;
  auto apply_window = [&] {
    former.form(fb);
    if (!fb.inserts.empty()) {
      auto ids = dm.insert_edges(fb.inserts);
      for (std::size_t i = 0; i < ids.size(); ++i)
        edge_of[fb.insert_tickets[i]] = ids[i];
    }
    std::vector<EdgeId> dels;
    for (std::uint64_t t : fb.delete_tickets) {
      auto it = edge_of.find(t);
      if (it == edge_of.end()) {
        ++r.dropped;
        continue;
      }
      dels.push_back(it->second);
      edge_of.erase(it);
    }
    if (!dels.empty()) dm.delete_edges(std::span<const EdgeId>(dels));
    ++r.batches;
    r.applied_inserts += fb.inserts.size();
    r.applied_deletes += dels.size();
    r.annihilated += fb.annihilated;
    r.deduped += fb.deduped;
  };
  for (const gen::Update& u : stream) {
    serve::UpdateRequest req;
    if (u.is_insert) {
      auto vs = w.master.edge(u.edge);
      ticket[u.edge] = next_ticket;
      req.ticket = next_ticket++;
      req.rank = static_cast<std::uint32_t>(vs.size());
      std::copy(vs.begin(), vs.end(), req.v);
    } else {
      req.ticket = ticket[u.edge];
      req.rank = 0;
    }
    former.add(req);
    if (former.window_full()) apply_window();
  }
  if (!former.empty()) apply_window();  // the tail stop() flushes

  r.matching = dm.matching();
  r.matched_count = dm.matched_count();
  r.snapshot.reserve(n_vertices);
  for (VertexId v = 0; v < n_vertices; ++v)
    r.snapshot.push_back(dm.match_of(v));
  r.ticket_live.reserve(w.master.size());
  for (std::size_t i = 0; i < w.master.size(); ++i) {
    auto it = ticket[i] == kNoTicket ? edge_of.end() : edge_of.find(ticket[i]);
    r.ticket_live.push_back(it != edge_of.end() &&
                            dm.pool().live(it->second));
  }
  return r;
}

void expect_bit_identical(const DrainResult& a, const DrainResult& b,
                          const char* label) {
  EXPECT_EQ(a.matching, b.matching) << label;
  EXPECT_EQ(a.snapshot, b.snapshot) << label;
  EXPECT_EQ(a.matched_count, b.matched_count) << label;
  EXPECT_EQ(a.ticket_live, b.ticket_live) << label;
  EXPECT_EQ(a.batches, b.batches) << label;
  EXPECT_EQ(a.applied_inserts, b.applied_inserts) << label;
  EXPECT_EQ(a.applied_deletes, b.applied_deletes) << label;
  EXPECT_EQ(a.annihilated, b.annihilated) << label;
  EXPECT_EQ(a.deduped, b.deduped) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
}

TEST(MatchService, DrainBitIdenticalToDirectReplayMixedChurn) {
  constexpr VertexId kN = 512;
  gen::Workload w = gen::churn(gen::erdos_renyi(kN, 1536, 77), 96, 0.5, 79);
  auto stream = gen::flatten(w);
  DrainResult ref = direct_replay(w, stream, kN, 64);
  DrainResult got = run_fixed_partition(w, stream, kN, 64);
  EXPECT_GT(ref.batches, 10u);  // the partition really is multi-window
  expect_bit_identical(ref, got, "mixed churn, window 64");
  // A different pinned partition must also agree with its replay.
  DrainResult ref7 = direct_replay(w, stream, kN, 7);
  DrainResult got7 = run_fixed_partition(w, stream, kN, 7);
  expect_bit_identical(ref7, got7, "mixed churn, window 7");
}

TEST(MatchService, DrainBitIdenticalToDirectReplayDeleteHeavy) {
  constexpr VertexId kN = 400;
  // p_insert 0.25: windows dominated by deletes, including same-window
  // insert+delete annihilations and unmatch/rematch cascades.
  gen::Workload w = gen::churn(gen::erdos_renyi(kN, 1200, 13), 80, 0.25, 31);
  auto stream = gen::flatten(w);
  DrainResult ref = direct_replay(w, stream, kN, 48);
  DrainResult got = run_fixed_partition(w, stream, kN, 48);
  expect_bit_identical(ref, got, "delete-heavy churn");
}

// The determinism contract must also hold across exec modes: forced
// sequential, forced parallel, and adaptive phases all produce the same
// trajectory (DESIGN.md S2), served or replayed directly.
TEST(MatchService, DrainBitIdenticalToDirectReplayAcrossExecModes) {
  constexpr VertexId kN = 384;
  gen::Workload w = gen::churn(gen::erdos_renyi(kN, 1100, 5), 64, 0.5, 17);
  auto stream = gen::flatten(w);
  parallel::ExecMode saved = parallel::exec_mode();
  parallel::set_exec_mode(parallel::ExecMode::kSequential);
  DrainResult ref_seq = direct_replay(w, stream, kN, 32);
  DrainResult got_seq = run_fixed_partition(w, stream, kN, 32);
  parallel::set_exec_mode(parallel::ExecMode::kParallel);
  DrainResult ref_par = direct_replay(w, stream, kN, 32);
  DrainResult got_par = run_fixed_partition(w, stream, kN, 32);
  parallel::set_exec_mode(saved);
  expect_bit_identical(ref_seq, got_seq, "seq mode");
  expect_bit_identical(ref_seq, ref_par, "replay across modes");
  expect_bit_identical(ref_seq, got_par, "par mode");
}

// ---- pipeline races, restart and bounds ----------------------------------

// The pipeline TSan target: reader threads hammer the snapshot while the
// PUBLISHER stage (a different thread from the matcher stage) runs the
// epoch seqlock concurrently with the matcher applying the next window.
// Aggressive deadline so publishes are frequent; asserts only instants
// that must hold under any interleaving.
TEST(MatchService, SnapshotReadsRaceAsyncPublish) {
  constexpr VertexId kN = 256;
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 31;
  cfg.max_vertices = kN;
  cfg.former.max_delay_us = 10;  // flush constantly: many async publishes
  cfg.former.max_batch = 64;     // small windows: stages stay busy together
  cfg.record_latencies = false;
  serve::MatchService svc(cfg);
  svc.start();

  std::atomic<bool> go{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&, r] {
      Rng rng(123 + static_cast<std::uint64_t>(r));
      while (go.load(std::memory_order_acquire)) {
        VertexId v = static_cast<VertexId>(rng.next_below(kN));
        (void)svc.match_of(v);
        auto pair = svc.read_consistent([&] {
          return std::make_pair(svc.snapshot_epoch(), svc.matched_count());
        });
        EXPECT_EQ(pair.first % 2, 0u);
        EXPECT_LE(pair.second, static_cast<std::size_t>(kN) / 2);
      }
    });

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p)
    producers.emplace_back([&, p] {
      Rng rng(17 + static_cast<std::uint64_t>(p));
      std::vector<std::uint64_t> mine;
      for (int i = 0; i < 4000; ++i) {
        if (mine.empty() || rng.next_below(3) != 0) {
          VertexId u = static_cast<VertexId>(rng.next_below(kN));
          VertexId v = static_cast<VertexId>(rng.next_below(kN));
          if (u == v) v = (v + 1) % kN;
          mine.push_back(svc.submit_insert(u, v));
        } else {
          std::size_t j = rng.next_below(mine.size());
          svc.submit_delete(mine[j]);
          mine[j] = mine.back();
          mine.pop_back();
        }
      }
    });
  for (auto& t : producers) t.join();
  svc.drain_until_idle();
  go.store(false, std::memory_order_release);
  for (auto& t : readers) t.join();
  svc.stop();

  // Settled state: snapshot == matcher, every update accounted for.
  for (VertexId v = 0; v < kN; ++v)
    EXPECT_EQ(svc.match_of(v), svc.matcher().match_of(v));
  EXPECT_EQ(svc.matched_count(), svc.matcher().matched_count());
  EXPECT_EQ(svc.completed_updates(), svc.submitted_updates());
}

// A stopped service starts again, and the second stop() drains the
// second run's updates just as the first did. Each stop() runs under a
// bounded wait, so a wedged shutdown fails here instead of hanging the
// suite.
TEST(MatchService, StopStartStopDrainsEveryUpdate) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 3;
  cfg.max_vertices = 16;
  auto svc = std::make_unique<serve::MatchService>(cfg);
  auto stop_within_10s = [&] {
    auto stopped = std::make_unique<std::future<void>>(std::async(
        std::launch::async, [s = svc.get()] { s->stop(); }));
    if (stopped->wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready)
      return true;
    // Wedged: leak the service and the future -- destroying either would
    // block on the stuck stage threads.
    (void)svc.release();
    (void)stopped.release();
    return false;
  };
  svc->start();
  svc->submit_insert(0, 1);
  ASSERT_TRUE(stop_within_10s()) << "first stop() did not return";
  svc->start();
  svc->submit_insert(2, 3);
  ASSERT_TRUE(stop_within_10s()) << "stop() after a restart did not return";
  EXPECT_EQ(svc->completed_updates(), svc->submitted_updates());
  EXPECT_EQ(svc->matched_count(), 2u);
}

// The long-lived-service recycling bound (ROADMAP ticket): repeated
// insert/delete epochs must cycle inside a bounded ticket-table capacity
// -- memory tracks the live working set, never the 60k-ticket stream.
// (Asserting table capacity rather than raw RSS: it is the structure that
// grew with the stream before, and capacity is deterministic where RSS is
// allocator- and platform-noise.)
TEST(MatchService, LongLivedServiceRecyclesTicketsBounded) {
  constexpr VertexId kN = 256;
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 8;
  cfg.max_vertices = kN;
  cfg.record_latencies = false;  // the other stream-growth structure: off
  serve::MatchService svc(cfg);
  svc.start();

  Rng rng(4242);
  std::size_t cap_hwm = 0;
  constexpr int kEpochs = 30;
  constexpr int kPerEpoch = 1000;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<std::uint64_t> mine;
    mine.reserve(kPerEpoch);
    for (int i = 0; i < kPerEpoch; ++i) {
      VertexId u = static_cast<VertexId>(rng.next_below(kN));
      VertexId v = static_cast<VertexId>(rng.next_below(kN));
      if (u == v) v = (v + 1) % kN;
      mine.push_back(svc.submit_insert(u, v));
    }
    for (std::uint64_t t : mine) svc.submit_delete(t);
    svc.drain_until_idle();  // idle + quiesced: table reads are safe
    if (svc.ticket_table().capacity() > cap_hwm)
      cap_hwm = svc.ticket_table().capacity();
  }
  svc.stop();

  EXPECT_EQ(svc.ticket_table().live(), 0u);  // every epoch fully revoked
  // Working set <= kPerEpoch live tickets; 30'000 tickets streamed. The
  // bound is the working set's (4x headroom, power of two, plus one
  // tombstone-deferred crossing) -- an order of magnitude under the
  // stream-proportional dense table this replaced.
  EXPECT_LE(cap_hwm, 8192u);
  EXPECT_EQ(svc.completed_updates(),
            static_cast<std::uint64_t>(kEpochs) * kPerEpoch * 2);
  EXPECT_EQ(svc.stats().dropped_deletes, 0u);
}

}  // namespace
