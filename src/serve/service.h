// serve/service.h -- the open-loop serving front-end (DESIGN.md S12): the
// first layer above the matcher, turning an asynchronous stream of
// insert/delete requests from many producer threads into the batches the
// batch-dynamic structure consumes.
//
// The drain is a three-stage pipeline:
//
//   producers --> AdmissionQueue (priority-lane MPSC rings + shed policy)
//     --> FORMER thread:   pop + window + conflict resolution
//     --> MATCHER thread:  insert_edges / delete_edges, ticket table,
//                          capture the touched-vertex snapshot values
//     --> PUBLISHER thread: epoch-seqlock snapshot publish, stats,
//                           completion accounting
//
// Adjacent stages hand off Window records over SPSC rings
// (update_queue.h); a small fixed pool of Windows recycles through
// free -> apply -> publish -> free, so the steady state allocates nothing
// and the former can run at most kWindows windows ahead of the matcher
// (internal backpressure). Window N+1 forms while window N applies and
// window N-1 publishes -- the matcher thread, the only stage running
// fork/join phases, stops paying form and publish time between batches.
// Construction-time recovery replays the journal through the matcher
// stage's own apply body (apply_batch), so live apply and replay cannot
// drift apart.
//
// Producer API: submit_insert returns a TICKET immediately (the edge id is
// not known until the batch applies); submit_delete revokes a ticket. A
// producer may delete a ticket only after its submit_insert returned --
// FIFO ingestion then guarantees the drain sees the insert first, and a
// same-window pair annihilates in the former. The ticket -> edge-id table
// (serve/ticket_table.h, tombstoned open addressing: memory tracks LIVE
// tickets, not stream length) is owned by the matcher stage; producers
// never touch matcher state.
//
// Snapshot reads: is_matched / match_of / matched_count are served from a
// service-owned array of atomics, safe to call from any thread at any
// time. Only the vertices a batch touched are republished (the matcher
// reports them through its delta sink -- O(batch), not O(V)) under an
// epoch seqlock: epoch goes odd -> cells -> even. The matcher stage
// CAPTURES each touched vertex's post-batch value into the Window while
// it still owns the structure, and the publisher writes those captured
// values -- it never reads live matcher state, so publish for window N-1
// cannot race the apply of window N. Single-word reads need no protocol
// (each cell is one atomic word); a multi-word consistent view uses
// read_consistent(), which retries while the epoch is odd or moved.
// Every access is an atomic on both sides, so the protocol is TSan-clean
// by construction, not by suppression.
//
// Shutdown: stop() drains the queue and the window, then flows a sentinel
// Window through the stages so each exits after its last real window;
// every submitted update is applied exactly once, and a stopped service
// may start() again. drain_until_idle() is the test/bench barrier
// (submitted == completed, bumped by the LAST stage, so completion still
// implies snapshot visibility).
//
// Determinism contract (DESIGN.md S2/S12): windows flow former -> matcher
// -> publisher strictly FIFO and exactly one thread mutates the matcher,
// so for a FIXED partition of the stream into windows the service is
// bit-identical to applying those windows directly to a DynamicMatcher
// (tests pin the partition by flushing on max_batch only and replay it on
// the test thread). Under timing-dependent flushes the partition itself
// may differ between runs -- then, as before, runs agree on the live
// graph and validity/maximality, not bit-equal matchings.
//
// Complexity contract: submit_* is O(1) plus backpressure spin when the
// ring is full; a drained window of w requests costs the matcher's batch
// price plus O(w log w) conflict resolution on the former stage; snapshot
// publish is O(batch touched vertices); reads are O(1). An idle service
// parks its stage threads (timed condition-variable wait after a bounded
// spin) and costs ~zero CPU.
//
// Overload protection (DESIGN.md S13): ingestion goes through an
// AdmissionQueue (serve/admission.h) -- 1..kMaxLanes priority-class rings
// with a configurable shed policy. submit_insert reports a shed
// synchronously by returning kShedTicket; deletes are never shed. On top,
// the former applies the deadline-aware admit budget
// (PARMATCH_ADMIT_BUDGET_US): inserts older than the budget at form time
// are shed as stale. Before any of that, submit_insert refuses an edge
// that breaks the input contract (validate(): the same check journal
// replay applies) and returns kRefusedTicket. Accounting is exactly
// conservative --
//     offered == committed + shed_admission + shed_evict + shed_stale
//                + refused
// where committed covers applied, absorbed, and dropped-dead-ticket
// requests; the E13 bench and the admission tests gate on the equality.
// The drain also publishes a degradation state machine
// (overload_state(): healthy / backlogged / shedding with a shed-decay
// hold), readable from any thread. The default configuration (1 lane,
// policy none, no budget) is behavior-identical to the pre-admission
// service: every request blocks under backpressure and nothing is shed.
//
// ServiceStats memory is bounded: latency quantiles come from fixed-size
// log-bucketed histograms (util/latency_hist.h, +-4.5% documented
// quantile error), never per-sample vectors, so a long-lived service's
// stats footprint is O(1) in the stream length. The former ticket-table
// stream-growth limitation is likewise fixed (ticket recycling, tests
// assert the bound).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "graph/edge.h"
#include "serve/admission.h"
#include "serve/batch_former.h"
#include "serve/checkpoint.h"
#include "serve/fault_inject.h"
#include "serve/journal.h"
#include "serve/ticket_table.h"
#include "serve/update_queue.h"
#include "util/latency_hist.h"

namespace parmatch::serve {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ServiceConfig {
  dyn::Config matcher;
  FormerConfig former;
  // Admission layer: shed policy, priority-lane count, drain weighting
  // (serve/admission.h). The default -- 1 lane, ShedPolicy::kNone -- is
  // behavior-identical to plain bounded-backpressure ingestion.
  AdmissionConfig admission;
  std::size_t queue_capacity = 1u << 16;  // per-lane ring capacity
  // Snapshot capacity: one atomic word per vertex, fixed at construction
  // so reads never race a reallocation. Submitting a vertex >= this bound
  // is a caller error: asserted in debug builds, refused with
  // kRefusedTicket in release builds. It also bounds recovery:
  // a checkpoint whose vertex bound exceeds it is rejected as corrupt
  // before the matcher sizes any per-vertex array.
  graph::VertexId max_vertices = 1u << 20;
  // Record latency histograms (the serving benches' p50/p99 source).
  // Bounded memory either way (fixed-size log buckets); off skips the
  // per-commit record() calls entirely -- used by the race-stress tests.
  bool record_latencies = true;
  // Durability layer (DESIGN.md S14): write-ahead batch journal +
  // periodic checkpoints (serve/journal.h, serve/checkpoint.h). The
  // default -- policy off -- is the pre-S14 service: no journal I/O, no
  // recovery at construction.
  JournalConfig journal;
  static ServiceConfig from_env() {
    ServiceConfig c;
    c.former = FormerConfig::from_env();
    c.admission = AdmissionConfig::from_env();
    c.journal = JournalConfig::from_env();
    return c;
  }
};

// Publisher-stage-owned observables. Stable to read only when the service
// is idle (after stop() or drain_until_idle() with producers quiesced).
// All fields are fixed-footprint: quantiles come from log-bucketed
// histograms (+-4.5% documented error, util/latency_hist.h), per-window
// sizes from sum/max counters -- nothing here grows with the stream.
struct ServiceStats {
  util::LatencyHistogram latency;   // ingest-to-commit, all lanes
  std::array<util::LatencyHistogram, kMaxLanes> lane_latency;
  std::size_t batch_updates_sum = 0;  // committed updates over all windows
  std::size_t batch_updates_max = 0;  // largest single window
  std::size_t batches = 0;
  std::size_t applied_inserts = 0;
  std::size_t applied_deletes = 0;
  std::size_t annihilated = 0;      // insert+delete pairs absorbed in-window
  std::size_t deduped_deletes = 0;  // duplicate deletes collapsed
  std::size_t dropped_deletes = 0;  // dead/unknown tickets skipped
  std::size_t shed_stale = 0;       // inserts shed by the admit budget
  // Per-priority-lane commit accounting (admission-side shed counters
  // live on the AdmissionQueue; MatchService::lane_report merges both).
  std::array<std::uint64_t, kMaxLanes> lane_committed = {};
  std::array<std::uint64_t, kMaxLanes> lane_shed_stale = {};
  std::size_t flush_full = 0;
  std::size_t flush_cost = 0;
  std::size_t flush_deadline = 0;
  std::size_t flush_drain = 0;
  std::size_t queue_hwm = 0;        // high-water mark of approx_size
  std::uint64_t first_enqueue_ns = 0;
  std::uint64_t last_commit_ns = 0;

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batch_updates_sum) /
                              static_cast<double>(batches);
  }

  void clear() { *this = ServiceStats{}; }
};

// The serving front-end over one dyn::DynamicMatcher.
class MatchService {
  using VertexId = graph::VertexId;
  using EdgeId = graph::EdgeId;

 public:
  // Producer-visible sentinel: submit_insert returns this when the
  // admission layer shed the request (reject-new policy, full lane).
  // Deleting kShedTicket is a no-op by construction -- it can never match
  // a live ticket -- but callers should simply skip the delete.
  static constexpr std::uint64_t kShedTicket = ~0ull;
  // Producer-visible sentinel: submit_insert returns this when the edge
  // breaks the input contract (see validate()). Nothing was enqueued and
  // no ticket was spent; the lane counts the request as refused. Like
  // kShedTicket it never matches a live ticket.
  static constexpr std::uint64_t kRefusedTicket = ~0ull - 1;

  explicit MatchService(const ServiceConfig& cfg)
      : cfg_(capped(cfg)),
        dm_(cfg_.matcher),
        queue_(cfg_.admission, cfg_.queue_capacity, &fi_),
        former_(cfg_.former),
        snap_match_(
            std::make_unique<std::atomic<EdgeId>[]>(cfg_.max_vertices)),
        free_ring_(kWindows),
        apply_ring_(kWindows),
        publish_ring_(kWindows) {
    for (VertexId v = 0; v < cfg_.max_vertices; ++v)
      snap_match_[v].store(graph::kInvalidEdge, std::memory_order_relaxed);
    dm_.set_delta_sink(&delta_);
    for (std::size_t i = 0; i < kWindows; ++i) {
      pool_[i] = std::make_unique<Window>();
      free_ring_.try_push(pool_[i].get());
    }
    if (cfg_.journal.enabled()) {
      std::error_code ec;
      std::filesystem::create_directories(cfg_.journal.dir, ec);
      recover();
      journal_.open(cfg_.journal);
      ckpt_writer_.start(cfg_.journal.dir);
    }
  }

  ~MatchService() { stop(); }

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  // ---- lifecycle -------------------------------------------------------

  void start() {
    if (running_) return;
    stop_.store(false, std::memory_order_release);
    running_ = true;
    former_thread_ = std::thread([this] { former_loop(); });
    matcher_thread_ = std::thread([this] { matcher_loop(); });
    publisher_thread_ = std::thread([this] { publisher_loop(); });
    // Async durability: the timed group sync runs on its own thread so an
    // fdatasync never sits in any drain stage's critical path. Commit
    // policy needs no syncer -- the publisher's ensure_durable barrier
    // owns the device there.
    if (journal_.active() &&
        cfg_.journal.policy == JournalPolicy::kAsync)
      syncer_thread_ = std::thread([this] { syncer_loop(); });
  }

  // Drains everything already submitted, then joins. Idempotent.
  void stop() {
    if (!running_) return;
    stop_.store(true, std::memory_order_release);
    wake_former();
    wake_stages();
    {
      std::lock_guard<std::mutex> lk(sync_mu_);
      sync_cv_.notify_all();
    }
    former_thread_.join();
    matcher_thread_.join();
    publisher_thread_.join();
    if (syncer_thread_.joinable()) syncer_thread_.join();
    // Clean-shutdown barrier: every appended record becomes durable
    // regardless of policy (stage threads are joined, so the writer fd is
    // quiescent), and any pending checkpoint finishes on its own thread.
    journal_.sync_all();
    running_ = false;
  }

  // Blocks until every update submitted so far has been applied (or
  // absorbed). Producers may keep submitting; the barrier covers only
  // submissions that happened-before the call.
  void drain_until_idle() const {
    std::uint64_t target = submitted_.load(std::memory_order_acquire);
    while (completed_.load(std::memory_order_acquire) < target)
      std::this_thread::yield();
  }

  // Clears the stats (prewarm separation in the benches). Blocks until the
  // publisher acknowledges (a reset MARKER flows through all three
  // stages, so every window formed before the call is folded in before
  // the clear); call only from outside the stage threads, ideally when
  // idle.
  // (Also re-zeroes the admission-side lane counters and the overload
  // tracking, so post-reset conservation starts from a clean slate.)
  void reset_stats() {
    if (!running_) {
      stats_.clear();
      reset_overload_tracking();
      return;
    }
    reset_pending_.store(true, std::memory_order_release);
    wake_former();
    wake_stages();
    while (reset_pending_.load(std::memory_order_acquire))
      std::this_thread::yield();
  }

  // ---- producer API (any thread) ---------------------------------------

  // Submits one edge insertion on priority lane `lane` (0 = highest, and
  // the default). Returns its ticket, kRefusedTicket when the edge breaks
  // the input contract (validate()), or kShedTicket when the admission
  // policy shed the request at the door (reject-new, full lane). With the
  // default policy (kNone) it blocks under backpressure (bounded-backoff
  // spin) and returns a real ticket for every valid edge.
  std::uint64_t submit_insert(std::span<const VertexId> vs,
                              std::uint8_t lane = 0) {
    assert(vs.size() >= 1 && vs.size() <= UpdateRequest::kMaxRank &&
           vs.size() <= cfg_.matcher.max_rank);
    UpdateRequest r;
    r.lane = lane_of(lane);
    // The assert's release-build counterpart: a malformed edge must never
    // reach the inline endpoint array, the journal, or the matcher.
    if (!validate(vs)) {
      queue_.refuse(r.lane);
      return kRefusedTicket;
    }
    r.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    r.rank = static_cast<std::uint32_t>(vs.size());
    for (std::size_t i = 0; i < vs.size(); ++i) {
      assert(vs[i] < cfg_.max_vertices);
      r.v[i] = vs[i];
    }
    if (push(r) == PushResult::kShed) return kShedTicket;
    return r.ticket;
  }

  std::uint64_t submit_insert(VertexId u, VertexId v,
                              std::uint8_t lane = 0) {
    VertexId vs[2] = {u, v};
    return submit_insert(std::span<const VertexId>(vs, 2), lane);
  }

  // Revokes a previously returned ticket. Must happen after the owning
  // submit_insert returned, and on the SAME lane (FIFO holds per lane);
  // deleting a ticket twice is tolerated (the second is dropped and
  // counted in ServiceStats::dropped_deletes), as is deleting a ticket
  // whose insert was shed (stale or evicted) -- the revoke simply misses.
  // Deletes are never shed: this always blocks until admitted.
  void submit_delete(std::uint64_t ticket, std::uint8_t lane = 0) {
    UpdateRequest r;
    r.ticket = ticket;
    r.rank = 0;
    r.lane = lane_of(lane);
    push(r);
  }

  // ---- snapshot reads (any thread, concurrent with applies) ------------

  // Epoch is even between publishes, odd during one. Single-word reads
  // below are always safe; bracket multi-word reads with read_consistent.
  std::uint64_t snapshot_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // The matched edge taking vertex v in the last published snapshot, or
  // kInvalidEdge when v is free (or out of snapshot range).
  EdgeId match_of(VertexId v) const {
    if (v >= cfg_.max_vertices) return graph::kInvalidEdge;
    return snap_match_[v].load(std::memory_order_acquire);
  }

  bool is_matched(VertexId v) const {
    return match_of(v) != graph::kInvalidEdge;
  }

  std::size_t matched_count() const {
    return snap_matched_.load(std::memory_order_acquire);
  }

  // Runs f() against a single snapshot epoch: retries while a publish is
  // in flight or one completed mid-read. f must only read through the
  // accessors above and must be side-effect-free on retry.
  template <typename F>
  auto read_consistent(F&& f) const {
    for (;;) {
      std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
      if (e & 1) {
        std::this_thread::yield();
        continue;
      }
      auto r = f();
      if (epoch_.load(std::memory_order_seq_cst) == e) return r;
    }
  }

  // ---- idle-time inspection (tests / benches) --------------------------

  // The structure underneath. Safe only while the stage threads are idle
  // (after stop() or a drain_until_idle() with producers quiesced).
  const dyn::DynamicMatcher& matcher() const { return dm_; }

  // Live edge id of a ticket, kInvalidEdge if never applied or deleted.
  // Same safety rule as matcher().
  EdgeId edge_of_ticket(std::uint64_t ticket) const {
    return tickets_.find(ticket);
  }

  // The ticket -> edge-id map itself (capacity/live bounds in the
  // recycling tests). Same safety rule as matcher().
  const TicketTable& ticket_table() const { return tickets_; }

  const ServiceStats& stats() const { return stats_; }
  const ServiceConfig& config() const { return cfg_; }

 private:
  // The serve layer carries edge endpoints inline in the ring cells, so
  // the matcher rank it can serve is capped at UpdateRequest::kMaxRank
  // regardless of what the underlying pool would accept.
  static ServiceConfig capped(ServiceConfig cfg) {
    if (cfg.matcher.max_rank > UpdateRequest::kMaxRank)
      cfg.matcher.max_rank = UpdateRequest::kMaxRank;
    // Lane bounds mirrored here so the submit-side clamp and the
    // AdmissionQueue's own clamp agree.
    if (cfg.admission.lanes < 1) cfg.admission.lanes = 1;
    if (cfg.admission.lanes > kMaxLanes) cfg.admission.lanes = kMaxLanes;
    return cfg;
  }

  // Clamp ONCE at the API edge so the admission counters and the
  // former's per-lane accounting agree on the request's class.
  std::uint8_t lane_of(std::uint8_t lane) const {
    return lane < cfg_.admission.lanes
               ? lane
               : static_cast<std::uint8_t>(cfg_.admission.lanes - 1);
  }

  // The one input contract for an inserted edge, checked by submit_insert
  // and by journal replay so live apply never accepts what replay would
  // refuse: 1..max_rank endpoints (cfg_ caps max_rank at the ring cells'
  // UpdateRequest::kMaxRank; EdgePool's fixed-stride rows only assert it)
  // and every vertex below max_vertices (a vertex near 2^32 would wrap
  // the matcher's vertex bound). An empty span would otherwise turn into
  // a rank-0 request, which the former reads as a delete.
  bool validate(std::span<const VertexId> vs) const {
    if (vs.empty() || vs.size() > cfg_.matcher.max_rank) return false;
    for (VertexId v : vs)
      if (v >= cfg_.max_vertices) return false;
    return true;
  }

 public:

  // Live monitoring counters (any thread).
  std::uint64_t submitted_updates() const {
    return submitted_.load(std::memory_order_acquire);
  }
  std::uint64_t completed_updates() const {
    return completed_.load(std::memory_order_acquire);
  }

  // The degradation state machine (any thread, always current to within
  // one drain-loop iteration). See serve/admission.h for the states.
  OverloadState overload_state() const {
    return overload_.load(std::memory_order_acquire);
  }
  std::uint64_t overload_transitions() const {
    return overload_transitions_.load(std::memory_order_acquire);
  }

  // The admission layer's own view (per-lane offered/shed counters, lane
  // occupancy). Counters are live atomics; exact only when idle.
  const AdmissionQueue& admission() const { return queue_; }

  // Merged per-lane accounting: admission-side counters + commit-side
  // stats. Conservation -- offered == committed + shed_reject +
  // shed_evict + shed_stale + refused -- holds exactly when the service is
  // idle and producers are quiesced (same safety rule as stats()).
  struct LaneReport {
    std::uint64_t offered = 0;      // submit_* calls routed to this lane
    std::uint64_t shed_reject = 0;  // rejected at admission (reject-new)
    std::uint64_t shed_evict = 0;   // evicted oldest (drop-oldest)
    std::uint64_t shed_stale = 0;   // admit-budget sheds at form time
    std::uint64_t refused = 0;      // malformed inserts (kRefusedTicket)
    std::uint64_t committed = 0;    // applied + absorbed + dropped-dead
    const util::LatencyHistogram* latency = nullptr;  // committed only
  };
  LaneReport lane_report(std::size_t lane) const {
    LaneReport lr;
    lr.offered = queue_.offered(lane);
    lr.shed_reject = queue_.shed_reject(lane);
    lr.shed_evict = queue_.shed_evict(lane);
    lr.shed_stale = stats_.lane_shed_stale[lane];
    lr.refused = queue_.refused(lane);
    lr.committed = stats_.lane_committed[lane];
    lr.latency = &stats_.lane_latency[lane];
    return lr;
  }

  // ---- durability / recovery (DESIGN.md S14) ---------------------------

  // The fault injector wired through admission, drain, and journal (fired
  // counters via fi_.report(); all-zero when injection is compiled out).
  const FaultInjector& fault_injector() const { return fi_; }

  // The write-ahead journal (appended/durable watermarks, sync and byte
  // counters; inert when the policy is off).
  const Journal& journal() const { return journal_; }

  std::uint64_t checkpoints_written() const { return ckpt_writer_.written(); }
  // Snapshots dropped because the background writer was still busy --
  // checkpoint lag lengthens replay but never stalls the drain.
  std::uint64_t checkpoints_skipped() const { return ckpt_skipped_; }

  // What construction-time recovery did (all-default when the journal is
  // off or the directory was empty: a cold start).
  struct RecoveryInfo {
    bool ran = false;  // a checkpoint was imported or a record replayed
    std::uint64_t checkpoint_seqno = 0;  // 0 = no (valid) checkpoint found
    std::uint64_t replayed_windows = 0;  // journal records re-applied
    // Post-apply epoch cross-checks that missed during replay. Always 0
    // on an intact log; nonzero means the log and the matcher disagree
    // about the trajectory (a logic bug or a cross-version file).
    std::uint64_t epoch_mismatches = 0;
    bool import_failed = false;  // frame-valid checkpoint failed import
    // Replay stopped at a CRC-valid journal record the matcher cannot
    // take: a malformed payload, an edge over the matcher's rank, or a
    // vertex at or past max_vertices. Nothing from that record on was
    // applied.
    bool rejected_record = false;
  };
  const RecoveryInfo& recovery_info() const { return recovery_; }

  // Order-canonical digest of the durable logical state: the matcher's
  // state fingerprint folded with the sorted live (ticket, edge id)
  // pairs. Equal fingerprints between a crashed+recovered service and an
  // uncrashed one are the bit-identity acceptance check (DESIGN.md S14).
  // Same idle-only safety rule as matcher().
  std::uint64_t recovery_fingerprint() const {
    auto ts = sorted_tickets();
    std::uint64_t h = dm_.state_fingerprint();
    h = hash64(h, ts.size());
    for (const auto& [t, id] : ts) h = hash64(h, hash64(t, id));
    return h;
  }

 private:
  // One in-flight unit of the pipeline. The former fills `formed` (plus
  // the bookkeeping samples), the matcher stage fills the applied counts
  // and the captured snapshot values, the publisher folds everything into
  // stats_ and recycles the record. Buffers keep their capacity across
  // laps, so a steady-state pipeline does not allocate.
  struct Window {
    FormedBatch formed;
    FlushReason why = FlushReason::kDrain;
    std::size_t queue_hwm_sample = 0;
    std::uint64_t first_enqueue_ns = 0;
    bool reset_marker = false;   // publisher clears stats, nothing applies
    bool shutdown = false;       // sentinel: each stage exits after it
    // Matcher-stage capture: post-batch values of the touched vertices.
    // The publisher writes THESE under the seqlock -- never live matcher
    // state, which window N's apply may be mutating concurrently.
    std::vector<std::pair<VertexId, EdgeId>> snap_updates;
    std::size_t matched_count = 0;
    bool has_publish = false;
    std::size_t applied_inserts = 0;
    std::size_t applied_deletes = 0;
    std::size_t dropped_deletes = 0;
    // Journal sequence number of this window, 0 when it was not journaled
    // (journal off, or an all-absorbed window). The publisher's
    // commit-policy durability barrier keys on it.
    std::uint64_t seqno = 0;
  };

  // Window pool depth = how far the former may run ahead of the matcher.
  // Small: each extra window is one more batch of ingest-to-commit latency
  // hidden in the pipe before backpressure reaches the producers.
  static constexpr std::size_t kWindows = 4;

  PushResult push(UpdateRequest& r) {
    r.t_enqueue_ns = now_ns();
    // fetch_add BEFORE the ring push: drain_until_idle's target must cover
    // this request once push() returns. admitted_ is bumped optimistically
    // for the same reason -- the former's shutdown drain waits for
    // popped == admitted_, and the count must cover a producer that has
    // claimed but not yet landed its ring slot; a shed rolls it back.
    submitted_.fetch_add(1, std::memory_order_acq_rel);
    admitted_.fetch_add(1, std::memory_order_acq_rel);
    PushResult pr = queue_.admit(r);
    if (pr == PushResult::kShed) {
      // Rejected at the door: never entered a ring, terminal right here.
      // completed_ advances so drain_until_idle's conservation holds.
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
      completed_.fetch_add(1, std::memory_order_acq_rel);
      return pr;
    }
    wake_former();
    return pr;
  }

  // Cheap on the hot path: one relaxed-ish load; the mutex+notify only
  // when the former actually parked.
  void wake_former() {
    if (parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(park_mu_);
      park_cv_.notify_one();
    }
  }

  // Downstream-stage wakeup (matcher/publisher park on stage_cv_). Called
  // after every inter-stage push; the timed wait below bounds any wakeup
  // lost to the parked-flag race at one timeout, never a hang.
  void wake_stages() {
    if (stage_parked_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lk(stage_mu_);
      stage_cv_.notify_all();
    }
  }

  // ---- stage threads ---------------------------------------------------

  // Consecutive empty iterations before a stage thread parks on its
  // condition variable. Large enough that a loaded service never parks
  // between windows; small enough that an idle service stops burning its
  // cores within microseconds.
  static constexpr std::size_t kIdleSpinsBeforePark = 4096;

  Window* acquire_free_window() {
    Window* w = nullptr;
    while (!free_ring_.try_pop(w)) std::this_thread::yield();
    return w;
  }

  void send_to_matcher(Window* w) {
    while (!apply_ring_.try_push(w)) std::this_thread::yield();
    wake_stages();
  }

  // Stage 1: pop the MPSC ring, form windows, decide flushes. Owns
  // former_, popped_ and the per-window bookkeeping samples. Exits by
  // flowing a shutdown sentinel to the downstream stages.
  void former_loop() {
    UpdateRequest r;
    std::size_t idle_spins = 0;
    // Counted in a local and saved on exit: a member written on every pop
    // would share its cache line with the producers' counters.
    std::uint64_t popped = popped_;
    std::size_t hwm_accum = 0;
    std::uint64_t first_accum = 0;
    bool reset_sent = false;
    for (;;) {
      // Sample the backlog BEFORE draining it into the window: sampling
      // after the pop loop would only ever see the >max_batch leftover and
      // report hwm 0 for any burst the window absorbed.
      std::size_t qs = queue_.approx_size();
      if (qs > hwm_accum) hwm_accum = qs;
      bool progressed = false;
      std::uint64_t evict_shed = 0;
      while (!former_.window_full() &&
             queue_.try_pop(r, &popped, &evict_shed)) {
        if (first_accum == 0) first_accum = r.t_enqueue_ns;
        former_.add(r);
        progressed = true;
      }
      if (evict_shed != 0) {
        // Drop-oldest evictions: consumed from the rings and terminal
        // right here -- they never enter a window, so this stage, not the
        // publisher, retires them.
        completed_.fetch_add(evict_shed, std::memory_order_acq_rel);
        progressed = true;
      }

      std::uint64_t now = now_ns();
      bool stopping = stop_.load(std::memory_order_acquire);
      FlushReason why = FlushReason::kDrain;
      bool flush = former_.should_flush(now, &why);
      if (!flush && stopping && !former_.empty() &&
          queue_.approx_size() == 0) {
        flush = true;
        why = FlushReason::kDrain;
      }
      if (flush) {
        Window* w = acquire_free_window();
        former_.form(w->formed, now);
        drained_stale_ += w->formed.shed_stale;
        w->why = why;
        w->reset_marker = false;
        w->shutdown = false;
        w->queue_hwm_sample = hwm_accum;
        w->first_enqueue_ns = first_accum;
        hwm_accum = 0;
        first_accum = 0;
        send_to_matcher(w);
        progressed = true;
      }
      update_overload_state(qs, now);

      if (reset_pending_.load(std::memory_order_acquire)) {
        // One marker per request: reset_pending_ stays up until the
        // publisher clears it, well after this iteration.
        if (!reset_sent && former_.empty()) {
          Window* w = acquire_free_window();
          w->reset_marker = true;
          w->shutdown = false;
          send_to_matcher(w);
          reset_sent = true;
          hwm_accum = 0;
          first_accum = 0;
          reset_overload_tracking();
          progressed = true;
        }
      } else {
        reset_sent = false;
      }

      if (!progressed) {
        // Exit only when every ADMITTED update has been popped, not
        // merely when the ring looks empty: a producer in push() may have
        // bumped admitted_ without having landed its ring slot yet (the
        // counter is incremented before the push for exactly this
        // reason), and exiting then would strand its update and hang any
        // later drain_until_idle. (Rejected-at-the-door sheds roll
        // admitted_ back, so they can't wedge this wait.)
        if (stopping && former_.empty() &&
            popped == admitted_.load(std::memory_order_acquire)) {
          popped_ = popped;
          Window* w = acquire_free_window();
          w->shutdown = true;
          w->reset_marker = false;
          send_to_matcher(w);
          return;
        }
        // Truly idle (no window aging toward its deadline): spin briefly,
        // then park instead of burning the core forever. The park is a
        // TIMED wait, so even a wakeup lost to the store/load race between
        // a producer's push and parked_ going up costs one timeout, never
        // a hang; a pending window keeps the thread yielding instead (its
        // deadline is the clock that matters there).
        if (former_.empty() && !stopping &&
            ++idle_spins >= kIdleSpinsBeforePark) {
          std::unique_lock<std::mutex> lk(park_mu_);
          parked_.store(true, std::memory_order_seq_cst);
          if (queue_.approx_size() == 0 &&
              !stop_.load(std::memory_order_acquire) &&
              !reset_pending_.load(std::memory_order_acquire))
            park_cv_.wait_for(lk, std::chrono::milliseconds(10));
          parked_.store(false, std::memory_order_seq_cst);
          // idle_spins stays saturated: a timeout wake with still-nothing
          // re-parks on the next iteration instead of respinning the full
          // budget (which would burn ~10% of a core while "idle").
        } else {
          std::this_thread::yield();
        }
      } else {
        idle_spins = 0;
      }
    }
  }

  // Bounded idle wait for the two downstream stages: spin, then a timed
  // park on the shared stage_cv_ (upstream pushes notify via
  // wake_stages).
  void stage_idle(std::size_t& spins) {
    if (++spins < kIdleSpinsBeforePark) {
      std::this_thread::yield();
      return;
    }
    std::unique_lock<std::mutex> lk(stage_mu_);
    stage_parked_.fetch_add(1, std::memory_order_seq_cst);
    stage_cv_.wait_for(lk, std::chrono::milliseconds(10));
    stage_parked_.fetch_sub(1, std::memory_order_seq_cst);
    // spins stays saturated; see the former's park comment.
  }

  // Stage 2: the only thread that mutates the matcher, the ticket table,
  // and the delta buffer. Applies windows in FIFO order, each through
  // apply_batch -- the same sequence recovery replays, hence the
  // bit-identical contract.
  void matcher_loop() {
    std::size_t spins = 0;
    for (;;) {
      Window* w = nullptr;
      if (!apply_ring_.try_pop(w)) {
        stage_idle(spins);
        continue;
      }
      spins = 0;
      if (!w->reset_marker && !w->shutdown) apply_formed(*w);
      bool last = w->shutdown;  // w is unowned after the push below
      while (!publish_ring_.try_push(w)) std::this_thread::yield();
      wake_stages();
      if (last) return;
    }
  }

  // Stage 3: owns stats_ and the published snapshot; recycles windows.
  void publisher_loop() {
    std::size_t spins = 0;
    for (;;) {
      Window* w = nullptr;
      if (!publish_ring_.try_pop(w)) {
        stage_idle(spins);
        continue;
      }
      spins = 0;
      if (w->shutdown) {
        // Return the sentinel too, so a stopped service can restart with
        // its full window pool.
        free_ring_.try_push(w);
        return;
      }
      if (w->reset_marker) {
        stats_.clear();
        reset_pending_.store(false, std::memory_order_release);
      } else {
        publish_window(*w);
      }
      free_ring_.try_push(w);  // never full: only kWindows circulate
    }
  }

  // ---- overload state machine (former-driven) ---------------------------

  // Quiet period after the newest shed before kShedding decays. Long
  // enough that a sustained-overload run reads as one shedding episode,
  // short enough that the service reports recovery within human-visible
  // time after the burst ends.
  static constexpr std::uint64_t kSheddingHoldNs = 10'000'000;  // 10 ms

  // Called once per former-loop iteration by the former thread.
  // occupancy is the backlog sample taken at the top of the iteration;
  // `now` the iteration's steady-clock instant.
  void update_overload_state(std::size_t occupancy, std::uint64_t now) {
    std::uint64_t shed = queue_.total_shed() + drained_stale_;
    // '>' rather than '!=' so a counter reset (reset_stats) cannot fake a
    // fresh shed: after a reset `shed` restarts below shed_seen_ and the
    // tracking is re-zeroed by reset_overload_tracking().
    if (shed > shed_seen_) {
      shed_seen_ = shed;
      last_shed_ns_ = now;
    }
    OverloadState s = OverloadState::kHealthy;
    if (last_shed_ns_ != 0 && now - last_shed_ns_ < kSheddingHoldNs)
      s = OverloadState::kShedding;
    else if (occupancy * 2 >= queue_.capacity())
      s = OverloadState::kBacklogged;
    if (s != overload_.load(std::memory_order_relaxed)) {
      overload_.store(s, std::memory_order_release);
      overload_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void reset_overload_tracking() {
    queue_.reset_counters();  // producers are quiesced per the reset rule
    drained_stale_ = 0;
    shed_seen_ = 0;
    last_shed_ns_ = 0;
  }

  // ---- stage bodies ----------------------------------------------------

  // The one apply sequence, run by the matcher stage for every window and
  // by recover() for every journal record: insert the batch and bind its
  // tickets, then revoke the delete tickets and delete their edges. A
  // delete whose ticket is dead or unknown is dropped, not applied; the
  // return value counts those. delta_ collects the touched vertices.
  std::size_t apply_batch(const graph::EdgeBatch& inserts,
                          const std::vector<std::uint64_t>& insert_tickets,
                          const std::vector<std::uint64_t>& delete_tickets) {
    delta_.clear();
    if (!inserts.empty()) {
      auto ids = dm_.insert_edges(inserts);
      for (std::size_t i = 0; i < ids.size(); ++i)
        tickets_.put(insert_tickets[i], ids[i]);
    }
    del_ids_.clear();
    std::size_t dropped = 0;
    for (std::uint64_t t : delete_tickets) {
      EdgeId id = tickets_.take(t);
      if (id == graph::kInvalidEdge) {
        ++dropped;
        continue;
      }
      del_ids_.push_back(id);
    }
    if (!del_ids_.empty())
      dm_.delete_edges(std::span<const EdgeId>(del_ids_));
    return dropped;
  }

  // Matcher-stage body: apply one formed window, capture the
  // touched-vertex snapshot values into it, and journal it.
  void apply_formed(Window& w) {
    fi_.maybe_stall_drain();  // fault injection: simulate a lagging drain
    w.dropped_deletes = apply_batch(w.formed.inserts, w.formed.insert_tickets,
                                    w.formed.delete_tickets);
    w.applied_inserts = w.formed.inserts.size();
    w.applied_deletes = w.formed.delete_tickets.size() - w.dropped_deletes;
    w.snap_updates.clear();
    for (VertexId v : delta_) {
      if (v >= cfg_.max_vertices) continue;  // outside the snapshot window
      w.snap_updates.emplace_back(v, dm_.match_of(v));
    }
    w.matched_count = dm_.matched_count();
    w.has_publish = !delta_.empty() || w.formed.update_count() != 0;

    // Journal the committed window (DESIGN.md S14). The FormedBatch is
    // post-shed and post-annihilation, so sheds never enter the journal by
    // construction; an all-absorbed window (update_count 0) leaves no
    // matcher state behind and is not worth a record. The epochs recorded
    // are POST-apply -- replay's per-record cross-check. Durability (when
    // the policy demands it) is the publisher's job, keyed on w.seqno.
    w.seqno = 0;
    if (journal_.active() && w.formed.update_count() != 0) {
      std::uint64_t seq = ++window_seqno_;
      journal_.append_window(w.formed, seq, dm_.insert_epochs(),
                             dm_.settle_epochs(), fi_);
      w.seqno = seq;
      maybe_checkpoint();
    }
  }

  // Publisher-stage body: epoch-seqlock publish of the captured values,
  // then fold the window into stats_ and the completion counter.
  void publish_window(const Window& w) {
    if (w.has_publish) {
      std::uint64_t e = epoch_.load(std::memory_order_relaxed);
      epoch_.store(e + 1, std::memory_order_seq_cst);
      for (const auto& [v, id] : w.snap_updates)
        snap_match_[v].store(id, std::memory_order_release);
      snap_matched_.store(w.matched_count, std::memory_order_release);
      epoch_.store(e + 2, std::memory_order_seq_cst);
    }

    // Durability barrier BEFORE the commit instant is stamped: under
    // policy commit, a window's completion (and its recorded latency)
    // includes the group fsync that made its journal record durable --
    // nothing is acknowledged ahead of the device. Under async this is a
    // no-op: the background syncer thread owns the timed group sync, so
    // the drain never blocks on the device (on one core a publisher-side
    // fdatasync would stall the whole pipeline for its duration).
    if (w.seqno != 0) journal_.ensure_durable(w.seqno);

    // Commit instant: every request of this window (applied or absorbed)
    // is now observable through the snapshot.
    std::uint64_t commit = now_ns();
    stats_.last_commit_ns = commit;
    if (stats_.first_enqueue_ns == 0 && w.first_enqueue_ns != 0)
      stats_.first_enqueue_ns = w.first_enqueue_ns;
    if (w.queue_hwm_sample > stats_.queue_hwm)
      stats_.queue_hwm = w.queue_hwm_sample;
    if (cfg_.record_latencies) {
      auto rec = [&](const std::vector<std::uint64_t>& ts,
                     const std::vector<std::uint8_t>& lanes) {
        for (std::size_t i = 0; i < ts.size(); ++i) {
          double us = static_cast<double>(commit - ts[i]) * 1e-3;
          stats_.latency.record(us);
          std::uint8_t l = i < lanes.size() ? lanes[i] : 0;
          stats_.lane_latency[l < kMaxLanes ? l : kMaxLanes - 1].record(us);
        }
      };
      rec(w.formed.insert_enqueue_ns, w.formed.insert_lanes);
      rec(w.formed.delete_enqueue_ns, w.formed.delete_lanes);
      rec(w.formed.absorbed_enqueue_ns, w.formed.absorbed_lanes);
    }
    ++stats_.batches;
    std::size_t upd = w.formed.update_count();
    stats_.batch_updates_sum += upd;
    if (upd > stats_.batch_updates_max) stats_.batch_updates_max = upd;
    stats_.applied_inserts += w.applied_inserts;
    stats_.applied_deletes += w.applied_deletes;
    stats_.dropped_deletes += w.dropped_deletes;
    stats_.annihilated += w.formed.annihilated;
    stats_.deduped_deletes += w.formed.deduped;
    stats_.shed_stale += w.formed.shed_stale;
    for (std::size_t l = 0; l < kMaxLanes; ++l) {
      // Everything in the window except its stale-shed inserts commits.
      stats_.lane_committed[l] +=
          w.formed.lane_requests[l] - w.formed.lane_stale[l];
      stats_.lane_shed_stale[l] += w.formed.lane_stale[l];
    }
    switch (w.why) {
      case FlushReason::kFull: ++stats_.flush_full; break;
      case FlushReason::kCostModel: ++stats_.flush_cost; break;
      case FlushReason::kDeadline: ++stats_.flush_deadline; break;
      case FlushReason::kDrain: ++stats_.flush_drain; break;
    }
    completed_.fetch_add(w.formed.raw_requests, std::memory_order_acq_rel);
  }

  // ---- durability (DESIGN.md S14) --------------------------------------

  // Construction-time recovery: import the newest valid checkpoint (if
  // any) into the fresh matcher, then replay the journal suffix with
  // seqno greater than the checkpoint's through apply_batch -- the same
  // body the matcher stage runs for every live window -- so the
  // recovered trajectory is the uncrashed one bit-for-bit (the keyed RNG
  // streams make the epoch counters the whole RNG position; the recovery
  // tests check via recovery_fingerprint).
  // Runs strictly before any stage thread exists.
  void recover() {
    std::uint64_t ticket_bound = 0;
    CheckpointData ck;
    if (load_newest_checkpoint(cfg_.journal.dir, ck)) {
      if (!dm_.import_state(ck.matcher_words(), cfg_.max_vertices)) {
        // A frame-valid checkpoint that fails matcher-level validation can
        // only be a logic bug or a cross-version file. The matcher may be
        // partially populated, so stop and surface it rather than replay
        // on top.
        recovery_.import_failed = true;
        return;
      }
      recovery_.ran = true;
      recovery_.checkpoint_seqno = ck.seqno();
      window_seqno_ = ck.seqno();
      ticket_bound = ck.next_ticket();
      ck.for_each_ticket(
          [&](std::uint64_t t, EdgeId id) { tickets_.put(t, id); });
    }
    JournalReplay rp(cfg_.journal.dir);
    JournalRecord rec;
    while (rp.next(rec)) {
      if (rec.seqno <= recovery_.checkpoint_seqno) continue;
      if (!replayable(rec.inserts)) {
        recovery_.rejected_record = true;
        break;
      }
      recovery_.ran = true;
      apply_batch(rec.inserts, rec.insert_tickets, rec.delete_tickets);
      if (dm_.insert_epochs() != rec.insert_epoch ||
          dm_.settle_epochs() != rec.settle_epoch)
        ++recovery_.epoch_mismatches;
      ++recovery_.replayed_windows;
      window_seqno_ = rec.seqno;
      for (std::uint64_t t : rec.insert_tickets)
        if (t + 1 > ticket_bound) ticket_bound = t + 1;
    }
    if (rp.malformed()) recovery_.rejected_record = true;
    delta_.clear();
    // Safe upper bound: the pre-crash run may have handed out higher
    // tickets (sheds consume tickets but never journal); all that matters
    // is that no new ticket collides with a journaled or live one.
    next_ticket_.store(ticket_bound, std::memory_order_release);
    if (recovery_.ran) {
      // Rebuild the published snapshot from the recovered matcher. Single
      // threaded here, but the epoch still moves odd -> even so the
      // seqlock invariant holds from the first published state on.
      std::uint64_t e = epoch_.load(std::memory_order_relaxed);
      epoch_.store(e + 1, std::memory_order_seq_cst);
      for (VertexId v = 0; v < cfg_.max_vertices; ++v)
        snap_match_[v].store(dm_.match_of(v), std::memory_order_relaxed);
      snap_matched_.store(dm_.matched_count(), std::memory_order_release);
      epoch_.store(e + 2, std::memory_order_seq_cst);
    }
  }

  // Whether every insert of a decoded journal record passes the same
  // validate() that submit_insert applies. Checked before apply_batch.
  bool replayable(const graph::EdgeBatch& inserts) const {
    for (std::size_t i = 0; i < inserts.size(); ++i)
      if (!validate(inserts.edge(i))) return false;
    return true;
  }

  // Matcher-stage checkpoint cadence: every ckpt_every journaled windows,
  // encode the matcher + ticket table BETWEEN windows (an in-memory walk;
  // the matcher thread owns both structures right here) straight into
  // the checkpoint payload, and hand it to the background writer, which
  // writes those words as they are and does all disk I/O. If the writer
  // is still busy the snapshot is skipped and counted, never queued.
  void maybe_checkpoint() {
    if (cfg_.journal.ckpt_every == 0) return;
    if (++windows_since_ckpt_ < cfg_.journal.ckpt_every) return;
    windows_since_ckpt_ = 0;
    auto ts = sorted_tickets();
    CheckpointData d = encode_checkpoint(
        window_seqno_, next_ticket_.load(std::memory_order_acquire),
        [&](auto&& put) { dm_.export_words(put); }, ts);
    if (!ckpt_writer_.submit(std::move(d))) ++ckpt_skipped_;
  }

  // Live (ticket, edge id) pairs in ticket order: the canonical order the
  // checkpoint and recovery_fingerprint both use.
  std::vector<std::pair<std::uint64_t, EdgeId>> sorted_tickets() const {
    std::vector<std::pair<std::uint64_t, EdgeId>> ts;
    tickets_.for_each(
        [&](std::uint64_t t, EdgeId id) { ts.emplace_back(t, id); });
    std::sort(ts.begin(), ts.end());
    return ts;
  }

  // Async-policy durability thread: one fdatasync per fsync_every_us,
  // entirely off the drain's critical path. Writes to the journal fd
  // (matcher-stage appends) compose with fdatasync from here without
  // extra locking -- the kernel orders them -- and Journal's durable_seq_
  // accounting is a CAS-max over atomics. Commit policy never starts this
  // thread; there the publisher's per-window ensure_durable barrier is
  // the only syncer.
  void syncer_loop() {
    std::unique_lock<std::mutex> lk(sync_mu_);
    while (!stop_.load(std::memory_order_acquire)) {
      sync_cv_.wait_for(lk,
                        std::chrono::microseconds(cfg_.journal.fsync_every_us));
      if (stop_.load(std::memory_order_acquire)) break;
      lk.unlock();
      journal_.sync_all();
      lk.lock();
    }
  }

  ServiceConfig cfg_;
  dyn::DynamicMatcher dm_;
  FaultInjector fi_;  // declared before queue_ (AdmissionQueue keeps &fi_)
  AdmissionQueue queue_;
  BatchFormer former_;

  std::thread former_thread_;
  std::thread matcher_thread_;
  std::thread publisher_thread_;
  std::thread syncer_thread_;        // async journal policy only
  std::mutex sync_mu_;               // syncer sleep/wake handshake
  std::condition_variable sync_cv_;
  bool running_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> reset_pending_{false};
  std::mutex park_mu_;               // former idle-park handshake
  std::condition_variable park_cv_;
  std::atomic<bool> parked_{false};
  std::mutex stage_mu_;              // matcher/publisher idle-park
  std::condition_variable stage_cv_;
  std::atomic<int> stage_parked_{0};

  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};  // landed (or landing) in a ring
  std::atomic<std::uint64_t> completed_{0};
  // Former-owned: every request ever consumed from the rings, as of the
  // last stop(). Like admitted_ it spans the service's whole life, not
  // one start()..stop(), so the former's shutdown test also holds after a
  // restart.
  std::uint64_t popped_ = 0;

  // Overload state machine. The tracking fields are former-owned; the
  // state and transition count are published through atomics for
  // any-thread reads.
  std::uint64_t drained_stale_ = 0;   // admit-budget sheds seen by the drain
  std::uint64_t shed_seen_ = 0;       // last total-shed count observed
  std::uint64_t last_shed_ns_ = 0;    // instant of the newest shed
  std::atomic<OverloadState> overload_{OverloadState::kHealthy};
  std::atomic<std::uint64_t> overload_transitions_{0};

  // Matcher-stage-owned.
  TicketTable tickets_;
  std::vector<EdgeId> del_ids_;
  std::vector<VertexId> delta_;  // matcher's per-window touched vertices

  // Durability layer (DESIGN.md S14). The journal fd is shared between
  // the matcher stage (appends) and the publisher stage (syncs) -- its
  // watermarks are atomics; the seqno/cadence fields below are
  // matcher-stage-owned after construction.
  Journal journal_;
  CheckpointWriter ckpt_writer_;
  std::uint64_t window_seqno_ = 0;       // last journaled window
  std::uint64_t windows_since_ckpt_ = 0;
  std::uint64_t ckpt_skipped_ = 0;       // writer-busy checkpoint skips
  RecoveryInfo recovery_;

  // Publisher-stage-owned.
  ServiceStats stats_;

  // Snapshot (epoch seqlock over atomics; readers on any thread).
  std::unique_ptr<std::atomic<EdgeId>[]> snap_match_;
  std::atomic<std::size_t> snap_matched_{0};
  std::atomic<std::uint64_t> epoch_{0};

  // Window pool and inter-stage rings (free -> apply -> publish -> free).
  std::unique_ptr<Window> pool_[kWindows];
  SpscRing<Window*> free_ring_;
  SpscRing<Window*> apply_ring_;
  SpscRing<Window*> publish_ring_;
};

}  // namespace parmatch::serve
