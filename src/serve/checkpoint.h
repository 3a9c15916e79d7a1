// serve/checkpoint.h -- durable snapshots of the serving state (DESIGN.md
// S14): the matcher's exported logical state (dyn/dynamic_matcher.h
// export_words -- pool, samples, matched set, chain orders, RNG epochs),
// the live ticket -> edge-id pairs, the window sequence number the snapshot
// is consistent WITH, and the producer ticket counter. A checkpoint plus
// the journal suffix with seqno greater than its own reconstructs the
// pre-crash matcher bit-identically (the recovery proof sketch in
// DESIGN.md S14).
//
// Write protocol, crash-safe by construction:
//   encode the payload once (matcher stage, in memory)  -->  background
//   writer thread: write those words to ckpt-<seqno>.tmp  -->  fdatasync
//   -->  rename to ckpt-<seqno>.ckpt
// The rename is atomic, so a reader never sees a half-written checkpoint
// file under its final name; the payload is one CRC32C-framed record, so
// even a corrupted file (bit rot, torn rename on a broken fs) fails
// validation instead of poisoning recovery -- load_newest_checkpoint walks
// candidates newest-first and falls back to the next older one. The last
// kKeepDefault checkpoints are retained; older ones are pruned after each
// successful write.
//
// The snapshot-epoch split is what keeps checkpointing off the drain's
// critical path: the matcher stage encodes BETWEEN windows (it owns the
// structure, so the copy is consistent by exclusion -- an O(live state)
// memory walk, no I/O), and all disk work happens on the writer thread.
// That encoded payload is the only copy of the matcher words until the
// record writer frames it.
// If the writer is still busy with the previous checkpoint, the snapshot
// is SKIPPED, never queued: falling behind on checkpoints lengthens
// replay, it must not stall serving.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/edge.h"
#include "util/io/record_log.h"

namespace parmatch::serve {

namespace detail {

inline constexpr std::uint64_t kCkptMagic = 0x504D'434B'5054'3031ull;
inline constexpr std::uint64_t kCkptVersion = 1;

}  // namespace detail

// One checkpoint payload in its on-disk word layout:
//   [magic][version][seqno][next_ticket][nm][nm matcher words]
//   [nt][nt x (ticket, edge id)]
// The matcher words are DynamicMatcher::export_words' stream. The tickets
// are the live (ticket, edge id) pairs sorted by ticket -- canonical
// order, so the checkpoint bytes (and any fingerprint over them) are
// independent of the table's probe layout.
//
// The payload exists once on each side of the disk: encode_checkpoint
// streams the matcher into `words` on the matcher stage, the writer
// frames `words` as they are, and load_newest_checkpoint reads the record
// into `words`, whose sections the accessors below view in place.
struct CheckpointData {
  std::vector<std::uint64_t> words;

  // The accessors need a well-formed payload: one from encode_checkpoint,
  // or one load_newest_checkpoint accepted.
  std::uint64_t seqno() const { return words[2]; }  // windows 1..seqno applied
  std::uint64_t next_ticket() const { return words[3]; }  // safe resume point
  std::span<const std::uint64_t> matcher_words() const {
    return {words.data() + 5, static_cast<std::size_t>(words[4])};
  }
  template <class F>  // f(ticket, edge id), ascending ticket
  void for_each_ticket(F&& f) const {
    const std::size_t p = 5 + static_cast<std::size_t>(words[4]);
    for (std::size_t i = p + 1; i < words.size(); i += 2)
      f(words[i], static_cast<graph::EdgeId>(words[i + 1]));
  }

  // Whether `words` frames the layout above exactly. A payload can pass
  // its CRC and still be wrong, so every count is checked against the
  // words actually present before anything is sized or read by it.
  bool well_formed() const {
    const std::size_t n = words.size();
    if (n < 6 || words[0] != detail::kCkptMagic ||
        words[1] != detail::kCkptVersion)
      return false;
    const std::uint64_t nm = words[4];
    if (nm > n - 6) return false;  // the matcher words, then [nt]
    const std::size_t p = 6 + static_cast<std::size_t>(nm);
    const std::uint64_t nt = words[p - 1];
    return nt <= (n - p) / 2 && p + 2 * nt == n;
  }
};

// Encodes a checkpoint payload. `export_matcher(put)` hands the matcher's
// state words to `put` in stream order (DynamicMatcher::export_words);
// `tickets` are sorted by ticket.
template <class ExportMatcher>
CheckpointData encode_checkpoint(
    std::uint64_t seqno, std::uint64_t next_ticket,
    ExportMatcher&& export_matcher,
    std::span<const std::pair<std::uint64_t, graph::EdgeId>> tickets) {
  CheckpointData d;
  auto& w = d.words;
  w = {detail::kCkptMagic, detail::kCkptVersion, seqno, next_ticket, 0};
  export_matcher([&w](std::uint64_t x) { w.push_back(x); });
  w[4] = w.size() - 5;
  w.push_back(tickets.size());
  for (const auto& [t, id] : tickets) {
    w.push_back(t);
    w.push_back(id);
  }
  return d;
}

inline std::string checkpoint_path(const std::string& dir,
                                   std::uint64_t seqno) {
  return dir + "/ckpt-" + std::to_string(seqno) + ".ckpt";
}

// Writes `d` crash-safely into `dir` (tmp + fdatasync + atomic rename).
// Synchronous; the service wraps it in CheckpointWriter to keep it off the
// drain. Returns false on any I/O failure (the tmp file is best-effort
// removed; a stale .tmp is ignored by recovery either way).
inline bool write_checkpoint(const std::string& dir, const CheckpointData& d) {
  std::string tmp = checkpoint_path(dir, d.seqno()) + ".tmp";
  {
    util::io::RecordWriter w;
    if (!w.open(tmp)) return false;
    if (!w.append(d.words.data(), d.words.size() * sizeof(std::uint64_t)) ||
        !w.sync()) {
      w.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, checkpoint_path(dir, d.seqno()), ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Every ckpt-<seqno>.ckpt in `dir`, seqnos ascending.
inline std::vector<std::uint64_t> list_checkpoints(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& ent : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.size() <= 10 || name.compare(0, 5, "ckpt-") != 0 ||
        name.compare(name.size() - 5, 5, ".ckpt") != 0)
      continue;
    const std::string mid = name.substr(5, name.size() - 10);
    if (mid.empty() ||
        mid.find_first_not_of("0123456789") != std::string::npos)
      continue;
    seqs.push_back(std::strtoull(mid.c_str(), nullptr, 10));
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

// Loads the newest checkpoint in `dir` that frames, checksums, and decodes
// cleanly, falling back to older ones on any validation failure. Returns
// false when none exists or none survives validation (cold start).
inline bool load_newest_checkpoint(const std::string& dir,
                                   CheckpointData& out) {
  auto seqs = list_checkpoints(dir);
  for (std::size_t i = seqs.size(); i-- > 0;) {
    util::io::RecordReader r;
    if (!r.open(checkpoint_path(dir, seqs[i]))) continue;
    if (!r.next(out.words)) continue;  // torn/corrupt: fall back to older
    if (out.well_formed() && out.seqno() == seqs[i]) return true;
  }
  out.words.clear();
  return false;
}

// Removes all but the newest `keep` checkpoints.
inline void prune_checkpoints(const std::string& dir, std::size_t keep) {
  auto seqs = list_checkpoints(dir);
  if (seqs.size() <= keep) return;
  for (std::size_t i = 0; i + keep < seqs.size(); ++i)
    std::remove(checkpoint_path(dir, seqs[i]).c_str());
}

// Depth-one background writer. submit() hands over a serialized snapshot
// if the worker is idle and returns false (skip, don't queue) otherwise --
// checkpointing must lag, never backpressure, the drain.
class CheckpointWriter {
 public:
  static constexpr std::size_t kKeepDefault = 2;

  CheckpointWriter() = default;
  ~CheckpointWriter() { stop(); }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void start(std::string dir, std::size_t keep = kKeepDefault) {
    if (running_) return;
    dir_ = std::move(dir);
    keep_ = keep;
    stop_ = false;
    running_ = true;
    worker_ = std::thread([this] { loop(); });
  }

  // Matcher-stage hand-off. Moves `d` in on success; false = worker busy
  // (the caller keeps counting windows and retries at the next interval).
  bool submit(CheckpointData&& d) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_ || has_pending_) return false;
      pending_ = std::move(d);
      has_pending_ = true;
    }
    cv_.notify_one();
    return true;
  }

  // Finishes any pending write, then joins. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
      stop_ = true;
    }
    cv_.notify_one();
    worker_.join();
    running_ = false;
  }

  std::uint64_t written() const {
    return written_.load(std::memory_order_acquire);
  }
  std::uint64_t failed() const {
    return failed_.load(std::memory_order_acquire);
  }

 private:
  void loop() {
    for (;;) {
      CheckpointData d;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return has_pending_ || stop_; });
        if (!has_pending_) return;  // stop with nothing pending
        d = std::move(pending_);
        has_pending_ = false;
      }
      if (write_checkpoint(dir_, d)) {
        written_.fetch_add(1, std::memory_order_acq_rel);
        prune_checkpoints(dir_, keep_);
      } else {
        failed_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  }

  std::string dir_;
  std::size_t keep_ = kKeepDefault;
  std::thread worker_;
  bool running_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool has_pending_ = false;
  CheckpointData pending_;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> failed_{0};
};

}  // namespace parmatch::serve
