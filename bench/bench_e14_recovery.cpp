// E14 -- durability overhead and crash recovery (DESIGN.md S14). Two
// questions a serving operator asks before turning the journal on:
//
//   1. What does durability cost? Table 1 re-runs the E12 poisson row at a
//      pinned rate with the journal off / async / commit and reports the
//      ingest-to-commit p50/p99 plus the overhead factor vs off (CI's
//      bench-smoke gates async p50 at <= 1.5x off via --gate-overhead).
//      The journal byte/sync counters, the latency-histogram overflow
//      count, and the fault-injection fired counters ride along in the
//      table, so a recorded BENCH_E14.json is self-describing about
//      clipping and injection.
//
//   2. How long is recovery? Table 2 builds a journal of fixed length
//      under several checkpoint intervals (0 = no checkpoints: replay the
//      whole log), then measures the construction-time recovery of a
//      fresh service on the same directory and asserts the recovered
//      fingerprint equals the stopped service's -- the bit-identity
//      acceptance check, run as part of the bench, not only the tests.
//      ckpt_kb is the size of the newest checkpoint file the run left on
//      disk (0 when the interval never fired).
//
// CI crash-matrix helpers (used by the ASan workflow job's crash arms):
//
//   --crash-run --dir=D [--updates=N] [--max-batch=B]
//       Insert-only deterministic stream, pinned window partition (flushes
//       on max_batch only), journal policy commit on D. With
//       PARMATCH_FI_CRASH_AT / _TORN_TAIL / _FLIP_BYTE set the process
//       SIGKILLs itself at the injected journal append; CI asserts the
//       137 exit.
//   --recover-check --dir=D [--updates=N] [--max-batch=B]
//       Recovers from D, then proves bit-identity two independent ways:
//       (a) against an UNCRASHED run of the journaled prefix -- the pinned
//       partition makes "the first S windows" reproducible as "the first
//       S*B submits" -- and (b) against a pure-replay recovery of the same
//       wal.log with no checkpoint, which pits checkpoint import against
//       batch replay. Exits nonzero on any mismatch. D is left in place;
//       the pure-replay copy (e14_scratch_replay_only) is removed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "serve/service.h"
#include "util/timer.h"

using namespace parmatch;
using namespace parmatch::bench;

namespace {

constexpr graph::VertexId kN = 32768;
constexpr std::size_t kM = 3u * kN;

void reset_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

// The bench's own journal directory, e14_scratch_<tag> in the working
// directory: emptied on entry and removed on scope exit, so no run leaves
// one behind. Declare it before the services that use it. A directory the
// caller passes with --dir is never one of these.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const char* tag)
      : path("e14_scratch_" + std::string(tag)) {
    reset_dir(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

// ---- Table 1: journal overhead on the E12 poisson row ---------------------

struct OverheadRow {
  double ach_commit = 0, p50_us = 0, p99_us = 0;
  std::uint64_t wal_bytes = 0, syncs = 0, ckpts = 0;
  std::uint64_t hist_overflow = 0, fi_fired = 0;
};

OverheadRow run_overhead(const gen::Workload& w,
                         const std::vector<gen::Update>& stream,
                         const std::vector<std::uint64_t>& arrivals,
                         std::size_t warm, std::uint64_t seed,
                         serve::JournalPolicy policy) {
  serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  cfg.matcher.seed = seed;
  cfg.max_vertices = kN;
  cfg.journal.policy = policy;
  ScratchDir scratch("overhead");
  if (policy != serve::JournalPolicy::kOff) cfg.journal.dir = scratch.path;
  serve::MatchService svc(cfg);
  svc.start();

  std::vector<std::uint64_t> ticket(w.master.size(), 0);
  auto submit = [&](const gen::Update& u) {
    if (u.is_insert)
      ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge));
    else
      svc.submit_delete(ticket[u.edge]);
  };

  for (std::size_t i = 0; i < warm; ++i) submit(stream[i]);
  svc.drain_until_idle();
  svc.reset_stats();

  std::size_t n = stream.size() - warm;
  std::uint64_t t0 = serve::now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t due = t0 + arrivals[i];
    for (;;) {
      std::uint64_t now = serve::now_ns();
      if (now >= due) break;
      if (due - now > 2'000) std::this_thread::yield();
    }
    submit(stream[warm + i]);
  }
  svc.drain_until_idle();
  svc.stop();

  const serve::ServiceStats& st = svc.stats();
  OverheadRow r;
  double secs = static_cast<double>(st.last_commit_ns - t0) * 1e-9;
  r.ach_commit = secs > 0 ? static_cast<double>(n) / secs : 0;
  r.p50_us = st.latency.quantile(0.50);
  r.p99_us = st.latency.quantile(0.99);
  r.wal_bytes = svc.journal().bytes();
  r.syncs = svc.journal().syncs();
  r.ckpts = svc.checkpoints_written();
  r.hist_overflow = st.latency.overflow_count();
  r.fi_fired = svc.fault_injector().report().total();
  return r;
}

// ---- Table 2: recovery time vs journal length x checkpoint interval ------

struct RecoveryRow {
  std::uint64_t records = 0, ckpt_seqno = 0, replayed = 0;
  double ckpt_kb = 0;  // newest checkpoint file on disk, 0 when none
  double recover_ms = 0;
  bool fp_match = false;
};

RecoveryRow run_recovery(const gen::Workload& w,
                         const std::vector<gen::Update>& stream,
                         std::size_t n, std::uint64_t seed,
                         std::uint64_t ckpt_every) {
  serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  cfg.matcher.seed = seed;
  cfg.max_vertices = kN;
  // Small windows on purpose: the sweep is about journal length x
  // checkpoint interval, so the stream must journal enough windows for
  // every ckpt_every in the sweep to actually trip (with the default
  // batch sizing 60k updates form fewer than 16 windows and the
  // checkpoint axis degenerates to "never fired").
  cfg.former.max_batch = 512;
  cfg.journal.policy = serve::JournalPolicy::kAsync;
  ScratchDir scratch("recovery");
  cfg.journal.dir = scratch.path;
  cfg.journal.ckpt_every = ckpt_every;

  RecoveryRow r;
  std::uint64_t fp_before = 0;
  {
    serve::MatchService svc(cfg);
    svc.start();
    std::vector<std::uint64_t> ticket(w.master.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const gen::Update& u = stream[i];
      if (u.is_insert)
        ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge));
      else
        svc.submit_delete(ticket[u.edge]);
    }
    svc.drain_until_idle();
    svc.stop();
    fp_before = svc.recovery_fingerprint();
  }
  auto ckpts = serve::list_checkpoints(cfg.journal.dir);
  if (!ckpts.empty()) {
    std::error_code ec;
    auto bytes = std::filesystem::file_size(
        serve::checkpoint_path(cfg.journal.dir, ckpts.back()), ec);
    if (!ec) r.ckpt_kb = static_cast<double>(bytes) / 1024;
  }

  Timer t;
  serve::MatchService recovered(cfg);
  r.recover_ms = t.elapsed() * 1e3;
  r.records = recovered.journal().records();
  r.ckpt_seqno = recovered.recovery_info().checkpoint_seqno;
  r.replayed = recovered.recovery_info().replayed_windows;
  r.fp_match = recovered.recovery_fingerprint() == fp_before &&
               recovered.recovery_info().epoch_mismatches == 0 &&
               !recovered.recovery_info().import_failed;
  return r;
}

// ---- CI crash-matrix helpers ---------------------------------------------

// Deterministic insert-only stream with a pinned window partition: flushes
// happen on max_batch only (deadline and cost-model flushes disabled), the
// single producer submits in a fixed order, so window k is exactly submits
// [k*B, (k+1)*B) and journal seqno S covers the first S*B submits.
serve::ServiceConfig pinned_config(std::uint64_t seed, std::size_t max_batch,
                                   const std::string& dir,
                                   serve::JournalPolicy policy) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = seed;
  cfg.max_vertices = kN;
  cfg.former.max_batch = max_batch;
  cfg.former.max_delay_us = 1u << 30;
  cfg.former.cost_flush = 1u << 20;
  cfg.journal.policy = policy;
  cfg.journal.dir = dir;
  cfg.journal.ckpt_every = 16;  // exercise checkpoints in the matrix too
  return cfg;
}

int crash_run(const std::string& dir, std::size_t updates,
              std::size_t max_batch, std::uint64_t seed) {
  reset_dir(dir);
  graph::EdgeBatch edges = gen::erdos_renyi(kN, kM, seed + 7);
  serve::ServiceConfig cfg = pinned_config(seed, max_batch, dir,
                                           serve::JournalPolicy::kCommit);
  serve::MatchService svc(cfg);
  svc.start();
  for (std::size_t i = 0; i < updates; ++i)
    svc.submit_insert(edges.edge(i % edges.size()));
  // With a crash knob armed the process never reaches this line; without
  // one this is a clean journaled run (the matrix's control arm). stop()
  // rather than drain_until_idle(): the pinned partition's trailing
  // partial window only flushes via stop()'s kDrain.
  svc.stop();
  std::printf("e14 crash-run: completed without crash (%zu updates)\n",
              updates);
  return 0;
}

int recover_check(const std::string& dir, std::size_t updates,
                  std::size_t max_batch, std::uint64_t seed) {
  graph::EdgeBatch edges = gen::erdos_renyi(kN, kM, seed + 7);

  // Recover from the (possibly crashed, possibly torn) directory.
  serve::ServiceConfig cfg = pinned_config(seed, max_batch, dir,
                                           serve::JournalPolicy::kCommit);
  serve::MatchService recovered(cfg);
  const auto& info = recovered.recovery_info();
  if (info.import_failed || info.epoch_mismatches != 0) {
    std::fprintf(stderr,
                 "e14 recover-check: FAILED (import_failed=%d "
                 "epoch_mismatches=%" PRIu64 ")\n",
                 info.import_failed ? 1 : 0, info.epoch_mismatches);
    return 1;
  }
  std::uint64_t last_seq = info.checkpoint_seqno + info.replayed_windows;
  std::uint64_t fp_recovered = recovered.recovery_fingerprint();

  // (a) Bit-identity against an UNCRASHED run of the journaled prefix:
  // the pinned partition makes seqno S mean "the first S*B submits".
  std::size_t prefix = static_cast<std::size_t>(last_seq) * max_batch;
  if (prefix > updates) prefix = updates;
  serve::ServiceConfig ref_cfg = pinned_config(seed, max_batch, "",
                                               serve::JournalPolicy::kOff);
  serve::MatchService reference(ref_cfg);
  reference.start();
  for (std::size_t i = 0; i < prefix; ++i)
    reference.submit_insert(edges.edge(i % edges.size()));
  reference.stop();  // kDrain flush covers a trailing partial window
  std::uint64_t fp_reference = reference.recovery_fingerprint();
  bool ok_uncrashed = fp_recovered == fp_reference;

  // (b) Checkpoint-vs-replay equivalence: the same wal.log alone, no
  // checkpoint, must recover to the same state.
  ScratchDir replay_dir("replay_only");
  std::error_code ec;
  std::filesystem::copy_file(serve::journal_path(dir),
                             serve::journal_path(replay_dir.path),
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  bool ok_replay = true;
  if (!ec) {
    serve::ServiceConfig rp_cfg = pinned_config(
        seed, max_batch, replay_dir.path, serve::JournalPolicy::kCommit);
    serve::MatchService replay_only(rp_cfg);
    ok_replay = replay_only.recovery_fingerprint() == fp_recovered;
  }

  std::printf("e14 recover-check: ckpt_seqno=%" PRIu64 " replayed=%" PRIu64
              " truncated_bytes=%" PRIu64
              " uncrashed_match=%d replay_match=%d\n",
              info.checkpoint_seqno, info.replayed_windows,
              recovered.journal().truncated_bytes(), ok_uncrashed ? 1 : 0,
              ok_replay ? 1 : 0);
  if (!ok_uncrashed || !ok_replay) {
    std::fprintf(stderr, "e14 recover-check: FAILED (fingerprints)\n");
    return 1;
  }
  std::printf("e14 recover-check: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = bench_init(argc, argv, "e14");
  std::size_t rate = 1'000'000;
  double gate_overhead = 0;  // 0 = no gate
  bool crash_mode = false, recover_mode = false;
  std::string dir;
  std::size_t updates = 4096, max_batch = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rate=", 7) == 0)
      rate = std::strtoull(argv[i] + 7, nullptr, 10);
    else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc)
      rate = std::strtoull(argv[i + 1], nullptr, 10);
    else if (std::strncmp(argv[i], "--gate-overhead=", 16) == 0)
      gate_overhead = std::strtod(argv[i] + 16, nullptr);
    else if (std::strcmp(argv[i], "--crash-run") == 0)
      crash_mode = true;
    else if (std::strcmp(argv[i], "--recover-check") == 0)
      recover_mode = true;
    else if (std::strncmp(argv[i], "--dir=", 6) == 0)
      dir = argv[i] + 6;
    else if (std::strncmp(argv[i], "--updates=", 10) == 0)
      updates = std::strtoull(argv[i] + 10, nullptr, 10);
    else if (std::strncmp(argv[i], "--max-batch=", 12) == 0)
      max_batch = std::strtoull(argv[i] + 12, nullptr, 10);
  }
  if (crash_mode || recover_mode) {
    if (dir.empty()) {
      std::fprintf(stderr, "e14: --crash-run/--recover-check need --dir\n");
      return 2;
    }
    return crash_mode ? crash_run(dir, updates, max_batch, seed)
                      : recover_check(dir, updates, max_batch, seed);
  }

  std::printf(
      "E14: durability overhead and crash recovery. n=%u, m=%zu.\n"
      "    Table 1: E12 poisson row at %zu/s, journal off/async/commit.\n"
      "    Table 2: recovery time vs checkpoint interval (fp_match=1 is\n"
      "    the bit-identity check).\n\n",
      kN, kM, rate);

  JsonSink::instance().note("harness", "durability");
  JsonSink::instance().note("pinned_rate_per_s", std::to_string(rate));
  JsonSink::instance().note("latency_quantile_rel_err", "0.045");

  gen::Workload w =
      gen::churn(gen::erdos_renyi(kN, kM, seed + 7), 1, 0.5, seed + 11);
  std::vector<gen::Update> stream = gen::flatten(w);
  std::size_t warm = stream.size() / 3;
  auto arrivals =
      gen::arrival_times_ns(stream.size() - warm, static_cast<double>(rate),
                            gen::ArrivalModel::kPoisson, seed + 13);

  Table t1({"journal", "ach_commit", "p50_us", "p99_us", "overhead_x",
            "wal_mb", "syncs", "ckpts", "ovfl", "fi_fired"});
  double p50_off = 0, overhead_async = 0;
  std::uint64_t fi_total = 0, ovfl_total = 0;
  for (auto [policy, name] :
       {std::pair{serve::JournalPolicy::kOff, "off"},
        std::pair{serve::JournalPolicy::kAsync, "async"},
        std::pair{serve::JournalPolicy::kCommit, "commit"}}) {
    OverheadRow r = run_overhead(w, stream, arrivals, warm, seed, policy);
    if (policy == serve::JournalPolicy::kOff) p50_off = r.p50_us;
    double ox = p50_off > 0 ? r.p50_us / p50_off : 0;
    if (policy == serve::JournalPolicy::kAsync) overhead_async = ox;
    fi_total += r.fi_fired;
    ovfl_total += r.hist_overflow;
    t1.row({name, Table::num(r.ach_commit, 0), Table::num(r.p50_us),
            Table::num(r.p99_us), Table::num(ox, 3),
            Table::num(static_cast<double>(r.wal_bytes) / (1 << 20), 2),
            Table::num(static_cast<std::size_t>(r.syncs)),
            Table::num(static_cast<std::size_t>(r.ckpts)),
            Table::num(static_cast<std::size_t>(r.hist_overflow)),
            Table::num(static_cast<std::size_t>(r.fi_fired))});
  }
  JsonSink::instance().note("fi_fired_total", std::to_string(fi_total));
  JsonSink::instance().note("latency_overflow_total",
                            std::to_string(ovfl_total));

  std::printf("\n");
  Table t2({"ckpt_every", "wal_records", "ckpt_seqno", "replayed",
            "ckpt_kb", "recover_ms", "fp_match"});
  std::size_t rec_n = stream.size() < 60'000 ? stream.size() : 60'000;
  bool all_match = true;
  for (std::uint64_t ck : {std::uint64_t{0}, std::uint64_t{64},
                           std::uint64_t{16}}) {
    RecoveryRow r = run_recovery(w, stream, rec_n, seed, ck);
    all_match = all_match && r.fp_match;
    t2.row({Table::num(static_cast<std::size_t>(ck)),
            Table::num(static_cast<std::size_t>(r.records)),
            Table::num(static_cast<std::size_t>(r.ckpt_seqno)),
            Table::num(static_cast<std::size_t>(r.replayed)),
            Table::num(r.ckpt_kb), Table::num(r.recover_ms),
            r.fp_match ? "1" : "0"});
  }
  if (!all_match) {
    std::fprintf(stderr, "E14: recovery fingerprint mismatch\n");
    return 1;
  }
  if (gate_overhead > 0 && overhead_async > gate_overhead) {
    std::fprintf(stderr,
                 "E14: async journal p50 overhead %.3fx exceeds the %.2fx "
                 "gate\n",
                 overhead_async, gate_overhead);
    return 1;
  }
  return 0;
}
