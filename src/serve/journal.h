// serve/journal.h -- the write-ahead batch journal of the durable serving
// layer (DESIGN.md S14). The matcher stage appends one record per
// COMMITTED window -- the post-shed, post-annihilation edge ops that
// actually reached the matcher, plus the window's sequence number and the
// matcher's post-apply RNG epochs -- and the publisher stage decides when
// those bytes become durable. Because the record is built from the
// FormedBatch, sheds never enter the journal by construction: a request
// rejected at admission, evicted by drop-oldest, or shed stale by the
// former was filtered before the batch formed, so recovery can never
// resurrect work the live service refused.
//
// Durability policy (PARMATCH_JOURNAL):
//   off     no journal: no appends, no recovery -- the pre-S14 service.
//   async   appends ride the page cache; MatchService runs a dedicated
//           background syncer thread that issues one fdatasync per
//           PARMATCH_FSYNC_EVERY_US microseconds (group commit on a
//           timer, entirely off the drain's critical path). Crash loses
//           at most the unsynced suffix -- bounded, non-zero data loss
//           for near-zero overhead.
//   commit  a window's completion accounting waits until its record is
//           durable: the publisher calls ensure_durable(seqno) before
//           stamping the commit time. Group commit still applies: ONE
//           fdatasync covers every record appended since the last one
//           (the publisher runs behind the matcher, so under load a
//           single sync typically retires several windows), but nothing
//           is acknowledged ahead of the device.
//
// Threading: the matcher stage appends (append_window); syncs come from
// exactly one other thread per policy -- the publisher's ensure_durable
// barrier under commit, MatchService's background syncer under async --
// plus the stop path's sync_all after every worker joined. POSIX
// write/fdatasync on one fd are thread-safe; the appended/durable
// watermarks are atomics.
//
// Record payload, little-endian u64 words (framed + checksummed by
// util/io/record_log.h):
//   [seqno][insert_epoch][settle_epoch][n_ins][n_del]
//   per insert: [ticket][rank][vertex] * rank
//   per delete: [ticket]
// The epochs are the matcher's POST-apply counters -- pure redundancy, a
// per-record cross-check that replay really did land in the bit-identical
// state (the keyed RNG streams make the epoch counters the entire RNG
// position; DESIGN.md S2).
//
// Fault injection: each append consults FaultInjector::journal_append_fault
// (crash-at-Nth-append, torn tail, post-CRC byte flip -- all no-ops unless
// the PARMATCH_FI_* knob is set); a planned crash SIGKILLs AFTER the
// (possibly torn) bytes are written, which is exactly the torn-write state
// RecordWriter::open truncates away.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "graph/edge_batch.h"
#include "serve/batch_former.h"
#include "serve/fault_inject.h"
#include "util/io/record_log.h"

namespace parmatch::serve {

enum class JournalPolicy { kOff, kAsync, kCommit };

struct JournalConfig {
  JournalPolicy policy = JournalPolicy::kOff;
  std::string dir;  // journal + checkpoint directory; empty = disabled
  // Async group-commit cadence: at most one fdatasync per this many
  // microseconds (PARMATCH_FSYNC_EVERY_US). Ignored by commit (every
  // completion waits) and off.
  std::uint64_t fsync_every_us = 5000;
  // Checkpoint every N journaled windows (PARMATCH_CKPT_EVERY); 0 keeps
  // journaling without checkpoints (recovery replays the whole log).
  std::uint64_t ckpt_every = 256;

  bool enabled() const { return policy != JournalPolicy::kOff && !dir.empty(); }

  static JournalConfig from_env() {
    JournalConfig c;
    if (const char* e = std::getenv("PARMATCH_JOURNAL")) {
      if (std::strcmp(e, "async") == 0) c.policy = JournalPolicy::kAsync;
      else if (std::strcmp(e, "commit") == 0) c.policy = JournalPolicy::kCommit;
      else c.policy = JournalPolicy::kOff;  // "off" and anything unknown
    }
    if (const char* e = std::getenv("PARMATCH_JOURNAL_DIR")) c.dir = e;
    if (const char* e = std::getenv("PARMATCH_FSYNC_EVERY_US"))
      c.fsync_every_us = std::strtoull(e, nullptr, 10);
    if (const char* e = std::getenv("PARMATCH_CKPT_EVERY"))
      c.ckpt_every = std::strtoull(e, nullptr, 10);
    return c;
  }
};

inline std::string journal_path(const std::string& dir) {
  return dir + "/wal.log";
}

// One decoded journal record (the replay side's view).
struct JournalRecord {
  std::uint64_t seqno = 0;
  std::uint64_t insert_epoch = 0;  // matcher epochs AFTER this window
  std::uint64_t settle_epoch = 0;
  graph::EdgeBatch inserts;
  std::vector<std::uint64_t> insert_tickets;  // aligned with inserts
  std::vector<std::uint64_t> delete_tickets;
};

class Journal {
 public:
  // Opens (and heals: truncate-to-last-valid-record) <dir>/wal.log for
  // appending. The same log survives across service lifetimes -- seqnos
  // keep climbing and recovery filters by checkpoint seqno -- so open
  // never truncates valid history.
  bool open(const JournalConfig& cfg) {
    cfg_ = cfg;
    if (!cfg_.enabled()) return true;
    return writer_.open(journal_path(cfg_.dir));
  }

  const JournalConfig& config() const { return cfg_; }
  bool active() const { return writer_.is_open(); }

  // Matcher-stage append of one committed window. Only windows with
  // update_count() != 0 are worth a record (an all-absorbed window leaves
  // no matcher state behind; replay re-derives nothing from it).
  // `insert_epoch`/`settle_epoch` are the matcher's post-apply counters.
  // Returns false on I/O error (the service keeps running; durability is
  // degraded, not correctness).
  bool append_window(const FormedBatch& f, std::uint64_t seqno,
                     std::uint64_t insert_epoch, std::uint64_t settle_epoch,
                     FaultInjector& fi) {
    if (!writer_.is_open()) return false;
    buf_.clear();
    buf_.push_back(seqno);
    buf_.push_back(insert_epoch);
    buf_.push_back(settle_epoch);
    buf_.push_back(f.inserts.size());
    buf_.push_back(f.delete_tickets.size());
    for (std::size_t i = 0; i < f.inserts.size(); ++i) {
      auto vs = f.inserts.edge(i);
      buf_.push_back(f.insert_tickets[i]);
      buf_.push_back(vs.size());
      for (graph::VertexId v : vs) buf_.push_back(v);
    }
    for (std::uint64_t t : f.delete_tickets) buf_.push_back(t);

    JournalFaultPlan plan = fi.journal_append_fault();
    util::io::AppendFault fault;
    fault.flip_byte = plan.flip_byte;
    fault.torn_after = plan.torn_after;
    bool have_fault = plan.flip_byte >= 0 || plan.torn_after >= 0;
    bool ok = writer_.append(buf_.data(), buf_.size() * sizeof(std::uint64_t),
                             have_fault ? &fault : nullptr);
    if (plan.crash_after) fi.crash_now(plan.torn_after >= 0);  // no return
    if (ok) appended_seq_.store(seqno, std::memory_order_release);
    return ok;
  }

  // Publisher-stage commit barrier (policy kCommit): returns once every
  // record up to `seqno` is durable. Group commit: one fdatasync covers
  // the whole appended prefix, so consecutive windows usually find their
  // records already durable.
  void ensure_durable(std::uint64_t seqno) {
    if (cfg_.policy != JournalPolicy::kCommit || !writer_.is_open()) return;
    if (durable_seq_.load(std::memory_order_acquire) >= seqno) return;
    sync_now();
  }

  // Final barrier at service stop: everything appended becomes durable
  // regardless of policy (a clean shutdown should never lose acked work).
  void sync_all() {
    if (writer_.is_open()) sync_now();
  }

  std::uint64_t appended_seq() const {
    return appended_seq_.load(std::memory_order_acquire);
  }
  std::uint64_t durable_seq() const {
    return durable_seq_.load(std::memory_order_acquire);
  }
  std::uint64_t syncs() const { return syncs_; }
  std::uint64_t bytes() const { return writer_.bytes(); }
  std::uint64_t records() const { return writer_.records(); }
  std::uint64_t truncated_bytes() const { return writer_.truncated_bytes(); }

 private:
  void sync_now() {
    // Load the appended watermark BEFORE the fdatasync: the sync covers at
    // least everything appended before it was issued.
    std::uint64_t covered = appended_seq_.load(std::memory_order_acquire);
    if (writer_.sync()) {
      ++syncs_;
      // Monotone max: the matcher may have appended (and a concurrent
      // barrier published) past `covered` meanwhile.
      std::uint64_t cur = durable_seq_.load(std::memory_order_relaxed);
      while (cur < covered && !durable_seq_.compare_exchange_weak(
                                  cur, covered, std::memory_order_acq_rel)) {
      }
    }
  }

  JournalConfig cfg_;
  util::io::RecordWriter writer_;
  std::vector<std::uint64_t> buf_;
  std::atomic<std::uint64_t> appended_seq_{0};
  std::atomic<std::uint64_t> durable_seq_{0};
  // Written only by whichever single thread syncs in the active policy
  // (publisher barrier under commit, MatchService's background syncer
  // under async) plus the stop-path sync_all after those threads joined;
  // read only after stop(). Never concurrent, so plain u64 is fine.
  std::uint64_t syncs_ = 0;
};

// Sequential decoder over <dir>/wal.log. next() yields records until the
// first torn/corrupt frame or end of log; malformed payloads inside a
// checksum-valid frame (impossible without a logic bug, but cheap to
// reject) also terminate.
class JournalReplay {
 public:
  explicit JournalReplay(const std::string& dir) {
    reader_.open(journal_path(dir));
  }

  // Decodes the next record. False at the end of the valid log, or when
  // a CRC-valid record does not decode; malformed() tells the two apart.
  bool next(JournalRecord& rec) {
    if (!reader_.next(raw_)) return false;
    malformed_ = !decode(rec);
    return !malformed_;
  }

  // The last next() stopped at a CRC-valid record whose payload is not a
  // well-formed window (bad counts, a rank of 0 or over 255, a vertex word
  // that does not fit a VertexId).
  bool malformed() const { return malformed_; }

 private:
  bool decode(JournalRecord& rec) {
    if (raw_.size() % sizeof(std::uint64_t) != 0) return false;
    std::size_t n = raw_.size() / sizeof(std::uint64_t);
    const std::uint64_t* w =
        reinterpret_cast<const std::uint64_t*>(raw_.data());
    std::size_t p = 0;
    auto need = [&](std::uint64_t k) { return n - p >= k; };
    if (!need(5)) return false;
    rec.seqno = w[p++];
    rec.insert_epoch = w[p++];
    rec.settle_epoch = w[p++];
    std::uint64_t n_ins = w[p++];
    std::uint64_t n_del = w[p++];
    rec.inserts.clear();
    rec.insert_tickets.clear();
    rec.delete_tickets.clear();
    for (std::uint64_t i = 0; i < n_ins; ++i) {
      if (!need(2)) return false;
      std::uint64_t ticket = w[p++];
      std::uint64_t rank = w[p++];
      if (rank == 0 || rank > 255 || !need(rank)) return false;
      vs_.clear();
      for (std::uint64_t j = 0; j < rank; ++j) {
        std::uint64_t v = w[p++];
        if (v > std::numeric_limits<graph::VertexId>::max()) return false;
        vs_.push_back(static_cast<graph::VertexId>(v));
      }
      rec.inserts.add(std::span<const graph::VertexId>(vs_));
      rec.insert_tickets.push_back(ticket);
    }
    if (!need(n_del)) return false;
    for (std::uint64_t i = 0; i < n_del; ++i)
      rec.delete_tickets.push_back(w[p++]);
    return p == n;
  }

  util::io::RecordReader reader_;
  std::vector<unsigned char> raw_;
  std::vector<graph::VertexId> vs_;
  bool malformed_ = false;
};

}  // namespace parmatch::serve
