// serve/checkpoint.h -- durable snapshots of the serving state (DESIGN.md
// S14): the matcher's exported logical state (dyn/dynamic_matcher.h
// export_state -- pool, samples, matched set, chain orders, RNG epochs),
// the live ticket -> edge-id pairs, the window sequence number the snapshot
// is consistent WITH, and the producer ticket counter. A checkpoint plus
// the journal suffix with seqno greater than its own reconstructs the
// pre-crash matcher bit-identically (the recovery proof sketch in
// DESIGN.md S14).
//
// Write protocol, crash-safe by construction:
//   serialize (matcher stage, in memory)  -->  background writer thread:
//   write ckpt-<seqno>.tmp  -->  fdatasync  -->  rename to ckpt-<seqno>.ckpt
// The rename is atomic, so a reader never sees a half-written checkpoint
// file under its final name; the payload is one CRC32C-framed record, so
// even a corrupted file (bit rot, torn rename on a broken fs) fails
// validation instead of poisoning recovery -- load_newest_checkpoint walks
// candidates newest-first and falls back to the next older one. The last
// kKeepDefault checkpoints are retained; older ones are pruned after each
// successful write.
//
// The snapshot-epoch split is what keeps checkpointing off the drain's
// critical path: the matcher stage serializes BETWEEN windows (it owns the
// structure, so the copy is consistent by exclusion -- an O(live state)
// memory walk, no I/O), and all disk work happens on the writer thread.
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
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/edge.h"
#include "util/io/record_log.h"

namespace parmatch::serve {

struct CheckpointData {
  std::uint64_t seqno = 0;        // consistent with windows 1..seqno applied
  std::uint64_t next_ticket = 0;  // safe resume point for the ticket counter
  std::vector<std::uint64_t> matcher_words;  // DynamicMatcher::export_state
  // Live (ticket, edge id) pairs sorted by ticket -- canonical order, so
  // the checkpoint bytes (and any fingerprint over them) are independent
  // of the table's probe layout.
  std::vector<std::pair<std::uint64_t, graph::EdgeId>> tickets;
};

inline std::string checkpoint_path(const std::string& dir,
                                   std::uint64_t seqno) {
  return dir + "/ckpt-" + std::to_string(seqno) + ".ckpt";
}

namespace detail {

inline constexpr std::uint64_t kCkptMagic = 0x504D'434B'5054'3031ull;
inline constexpr std::uint64_t kCkptVersion = 1;

inline void encode_checkpoint(const CheckpointData& d,
                              std::vector<std::uint64_t>& out) {
  out.clear();
  out.push_back(kCkptMagic);
  out.push_back(kCkptVersion);
  out.push_back(d.seqno);
  out.push_back(d.next_ticket);
  out.push_back(d.matcher_words.size());
  out.insert(out.end(), d.matcher_words.begin(), d.matcher_words.end());
  out.push_back(d.tickets.size());
  for (const auto& [t, id] : d.tickets) {
    out.push_back(t);
    out.push_back(id);
  }
}

inline bool decode_checkpoint(const std::vector<unsigned char>& raw,
                              CheckpointData& d) {
  if (raw.size() % sizeof(std::uint64_t) != 0) return false;
  std::size_t n = raw.size() / sizeof(std::uint64_t);
  const std::uint64_t* w = reinterpret_cast<const std::uint64_t*>(raw.data());
  std::size_t p = 0;
  auto need = [&](std::uint64_t k) { return n - p >= k; };
  if (!need(5)) return false;
  if (w[p++] != kCkptMagic || w[p++] != kCkptVersion) return false;
  d.seqno = w[p++];
  d.next_ticket = w[p++];
  std::uint64_t nm = w[p++];
  if (!need(nm + 1)) return false;
  d.matcher_words.assign(w + p, w + p + nm);
  p += nm;
  std::uint64_t nt = w[p++];
  if (!need(2 * nt)) return false;
  d.tickets.clear();
  d.tickets.reserve(static_cast<std::size_t>(nt));
  for (std::uint64_t i = 0; i < nt; ++i) {
    std::uint64_t t = w[p++];
    std::uint64_t id = w[p++];
    d.tickets.emplace_back(t, static_cast<graph::EdgeId>(id));
  }
  return p == n;
}

}  // namespace detail

// Writes `d` crash-safely into `dir` (tmp + fdatasync + atomic rename).
// Synchronous; the service wraps it in CheckpointWriter to keep it off the
// drain. Returns false on any I/O failure (the tmp file is best-effort
// removed; a stale .tmp is ignored by recovery either way).
inline bool write_checkpoint(const std::string& dir, const CheckpointData& d) {
  std::string tmp = checkpoint_path(dir, d.seqno) + ".tmp";
  {
    util::io::RecordWriter w;
    if (!w.open(tmp)) return false;
    std::vector<std::uint64_t> words;
    detail::encode_checkpoint(d, words);
    if (!w.append(words.data(), words.size() * sizeof(std::uint64_t)) ||
        !w.sync()) {
      w.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, checkpoint_path(dir, d.seqno), ec);
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
    std::vector<unsigned char> raw;
    if (!r.next(raw)) continue;  // torn/corrupt: fall back to older
    if (detail::decode_checkpoint(raw, out) && out.seqno == seqs[i])
      return true;
  }
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
