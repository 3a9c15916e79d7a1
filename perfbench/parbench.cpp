// perfbench/parbench.cpp -- one round of one benchmark workload.
//
// A round generates its inputs from --seed (never timed), sets up the
// matcher or service, runs a fixed amount of timed work from a single
// generator thread, checks the outputs, and prints one JSON object with
// its raw figures as the last line of stdout. perfbench/run.py launches
// rounds as separate processes and aggregates them; every round of one
// seed runs exactly the same inputs.
//
//   parbench --workload matcher_small|matcher_large|serve_durable
//            --seed N [--trace 0|1] [--trace-out FILE] [--tmp DIR]
//
// --trace-out receives the spans of a traced round; --tmp holds the input
// cache and the service's journal directory.
//
// Exit code 0: every check passed. 1: a check failed (the JSON line says
// which). 2: bad arguments or a PARMATCH_* variable in the environment.
//
// Only public library calls are made, each timed from outside:
// dyn::DynamicMatcher::{ctor, insert_edges, delete_edges} and
// serve::MatchService::{ctor, submit_insert, submit_delete,
// drain_until_idle, stop}; everything else is read from public counters.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "graph/edge.h"
#include "parallel/cost_model.h"
#include "parallel/scheduler.h"
#include "serve/service.h"
#include "trace.h"
#include "util/mem_stats.h"

extern char** environ;

namespace {

using namespace parmatch;
using perfbench::Layer;
using perfbench::now_ns;
using perfbench::Scope;
using perfbench::Tracer;

// ---- output ---------------------------------------------------------------

class JsonObj {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    add(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    add(k, "\"" + v + "\"");
  }
  void boolean(const std::string& k, bool v) { add(k, v ? "true" : "false"); }
  void obj(const std::string& k, const JsonObj& o) { add(k, o.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

// Nearest-rank p50 and tail quantile of nanosecond samples, in microseconds.
struct Quantiles {
  double p50 = 0, tail = 0;
  std::size_t n = 0, beyond = 0;  // samples, and samples above `tail`
};

Quantiles quantiles(std::vector<std::uint64_t> v, double tail_q) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto at = [&](double p) {
    std::size_t r = static_cast<std::size_t>(std::ceil(p * double(v.size())));
    return v[r == 0 ? 0 : r - 1];
  };
  q.p50 = double(at(0.5)) * 1e-3;
  std::uint64_t t = at(tail_q);
  q.tail = double(t) * 1e-3;
  q.beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), t));
  return q;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// ---- shared round state ---------------------------------------------------

struct Round {
  std::vector<std::string> errors;
  double setup_s = 0;
  std::size_t updates = 0;  // updates in the timed part (= attempted ops)
  double updates_per_s = 0;
  Quantiles lat;            // batch latency (matcher) / commit (serve)
  double tail_q = 0.99;
  std::string fingerprint;
  std::vector<std::pair<std::string, double>> layer;  // per-layer metrics

  void fail(const std::string& e) { errors.push_back(e); }
  void set(const std::string& k, double v) { layer.emplace_back(k, v); }
};

// The matching is valid (every matched edge live, no vertex in two), maximal
// (every live edge has a matched endpoint), and its three views agree:
// matching(), matched_count(), and per-vertex match_of().
template <typename M>
void check_matching(const M& dm, std::size_t expect_live, Tracer& tr,
                    Round& r) {
  Scope s(tr, "graph.pool_walk", Layer::kGraph);
  const graph::EdgePool& pool = dm.pool();
  if (pool.live_count() != expect_live)
    r.fail("live edge count " + std::to_string(pool.live_count()) +
           " != script's " + std::to_string(expect_live));
  std::size_t live = 0, matched_live = 0;
  for (std::size_t i = 0; i < pool.id_bound(); ++i) {
    auto id = static_cast<graph::EdgeId>(i);
    if (!pool.live(id)) continue;
    ++live;
    bool covered = false;
    for (graph::VertexId v : pool.vertices(id))
      covered = covered || dm.match_of(v) != graph::kInvalidEdge;
    if (!covered) {
      r.fail("not maximal: live edge " + std::to_string(id) + " is free");
      return;
    }
    if (dm.is_matched(id)) ++matched_live;
  }
  if (live != pool.live_count()) r.fail("pool walk disagrees with live_count");
  std::vector<graph::EdgeId> m = dm.matching();
  if (m.size() != dm.matched_count() || m.size() != matched_live)
    r.fail("matching size " + std::to_string(m.size()) + ", matched_count " +
           std::to_string(dm.matched_count()) + ", matched live edges " +
           std::to_string(matched_live));
  std::size_t matched_vertices = 0;
  for (graph::EdgeId e : m) {
    if (!pool.live(e)) {
      r.fail("matched edge " + std::to_string(e) + " is not live");
      return;
    }
    for (graph::VertexId v : pool.vertices(e)) {
      ++matched_vertices;
      if (dm.match_of(v) != e) {
        r.fail("not disjoint: vertex " + std::to_string(v) +
               " claimed by two matched edges");
        return;
      }
    }
  }
  std::size_t taken = 0;
  for (graph::VertexId v = 0; v < pool.vertex_bound(); ++v)
    taken += dm.match_of(v) != graph::kInvalidEdge;
  if (taken != matched_vertices)
    r.fail("match_of marks " + std::to_string(taken) + " vertices, matching " +
           "covers " + std::to_string(matched_vertices));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Matcher counters over the timed part (difference of two snapshots).
void dyn_counters(const dyn::CumulativeStats& a, const dyn::CumulativeStats& b,
                  std::size_t batches, Round& r) {
  double upd = double(b.total_updates() - a.total_updates());
  double settle = double(b.settle_rounds - a.settle_rounds);
  double steal = double(b.steal_rounds - a.steal_rounds);
  r.set("dyn.work_per_upd", ratio(double(b.work_units - a.work_units), upd));
  r.set("dyn.samples_per_upd",
        ratio(double(b.samples_created - a.samples_created), upd));
  r.set("dyn.settle_rounds_per_batch", ratio(settle, double(batches)));
  r.set("dyn.steal_rounds_per_batch", ratio(steal, double(batches)));
  r.set("dyn.spec_retry_ratio",
        ratio(double(b.spec_retries - a.spec_retries), settle + steal));
  r.set("dyn.fused_frac",
        ratio(double(b.fused_batches - a.fused_batches), double(batches)));
  r.set("dyn.stolen_per_upd", ratio(double(b.stolen - a.stolen), upd));
  r.set("dyn.bloated_per_upd", ratio(double(b.bloated - a.bloated), upd));
}

void machine_counters(std::size_t mem_bytes, std::size_t live, Round& r) {
  r.set("parallel.workers", parallel::num_workers());
  r.set("parallel.phase_cutover",
        double(parallel::CostModel::instance().phase_cutover()));
  r.set("parallel.hardware_concurrency",
        double(std::thread::hardware_concurrency()));
  r.set("graph.bytes_per_live_edge",
        ratio(double(mem_bytes), double(std::max<std::size_t>(live, 1))));
}

// ---- input cache -----------------------------------------------------------

// Generation takes 1.7 s of a 4.7 s matcher_large round (gen::rmat) and
// 0.6 s of a 2.3 s serve_durable round (gen::churn), so the first round of a
// seed saves its inputs as `n` values of T under `path` and later rounds
// read them back. run.py empties the directory at the start of every run.
template <typename T, typename Make>
std::vector<T> cached(const std::string& path, std::size_t n, Make make) {
  std::vector<T> v(n);
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    bool whole = std::fread(v.data(), sizeof(T), n, f) == n &&
                 std::fgetc(f) == EOF;
    std::fclose(f);
    if (whole) return v;
  }
  v = make();
  const std::string part = path + ".part";
  if (std::FILE* f = std::fopen(part.c_str(), "wb")) {
    bool written = std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
    if (std::fclose(f) == 0 && written) std::rename(part.c_str(), path.c_str());
  }
  return v;
}

graph::EdgeBatch rmat_cached(std::size_t scale, std::size_t m,
                             std::uint64_t seed, const std::string& dir) {
  const std::string path = dir + "/rmat" + std::to_string(scale) + "-" +
                           std::to_string(m) + "-" + std::to_string(seed);
  auto ends = cached<graph::VertexId>(path, 2 * m, [&] {
    graph::EdgeBatch g = gen::rmat(scale, m, seed);
    std::vector<graph::VertexId> out;
    for (std::size_t i = 0; i < m; ++i)
      out.insert(out.end(), g.edge(i).begin(), g.edge(i).end());
    return out;
  });
  graph::EdgeBatch g;
  for (std::size_t i = 0; i < m; ++i) g.add({ends[2 * i], ends[2 * i + 1]});
  return g;
}

// ---- matcher workloads (closed loop) --------------------------------------

// Closed loop: the generator hands DynamicMatcher the next batch as soon as
// the previous call returns. Steps [0, warm) are the untimed warm-up prefix;
// [warm, end) are timed.
void run_matcher(const std::string& workload, std::uint64_t seed,
                 const std::string& tmp, Tracer& tr, Round& r) {
  const bool small = workload == "matcher_small";
  r.tail_q = small ? 0.99 : 0.90;

  gen::Workload w;
  std::vector<graph::EdgeBatch> batch;  // per insert step
  std::size_t warm = 0, end = 0, masters = 0, expect_live = 0;
  {
    Scope s(tr, "gen.script", Layer::kGen);
    if (small) {
      constexpr graph::VertexId kN = 1u << 17;
      w = gen::churn(gen::erdos_renyi(kN, 3u * kN, seed), 8, 0.5, seed + 1);
      warm = w.steps.size() / 4;
      end = w.steps.size();
    } else {
      constexpr std::size_t kBatch = 1u << 14, kWindow = 64;
      w = gen::sliding_window(rmat_cached(19, 1u << 22, seed, tmp), kBatch,
                              kWindow);
      // Warm-up fills the window; the drain tail of kWindow - 1 deletes is
      // not part of the steady state and is skipped.
      warm = kWindow;
      end = w.steps.size() - (kWindow - 1);
    }
    masters = w.master.size();
    batch.resize(end);
    for (std::size_t i = 0; i < end; ++i) {
      const gen::Step& st = w.steps[i];
      if (!st.is_insert) {
        expect_live -= st.edges.size();
        continue;
      }
      expect_live += st.edges.size();
      for (std::size_t e : st.edges) batch[i].add(w.master.edge(e));
    }
    w.master = graph::EdgeBatch{};  // the steps now carry the edges
  }

  std::vector<graph::EdgeId> id_of(masters, graph::kInvalidEdge);
  std::vector<graph::EdgeId> del;
  std::vector<std::uint64_t> lat;
  std::uint64_t ins_ns = 0, del_ns = 0;
  std::size_t ins_upd = 0, del_upd = 0, depth = 0, phases = 0, calls = 0;
  std::unique_ptr<dyn::DynamicMatcher> dm;

  auto apply = [&](std::size_t i, bool timed) {
    const gen::Step& st = w.steps[i];
    std::uint64_t t0, t1;
    if (st.is_insert) {
      t0 = now_ns();
      std::span<const graph::EdgeId> ids = dm->insert_edges(batch[i]);
      t1 = now_ns();
      for (std::size_t j = 0; j < ids.size(); ++j) id_of[st.edges[j]] = ids[j];
    } else {
      del.clear();
      for (std::size_t e : st.edges) del.push_back(id_of[e]);
      t0 = now_ns();
      dm->delete_edges(std::span<const graph::EdgeId>(del));
      t1 = now_ns();
    }
    tr.leaf(st.is_insert ? "dyn.insert_edges" : "dyn.delete_edges", Layer::kDyn,
            i, t0, t1);
    if (!timed) return;
    lat.push_back(t1 - t0);
    (st.is_insert ? ins_ns : del_ns) += t1 - t0;
    (st.is_insert ? ins_upd : del_upd) += st.edges.size();
    depth += dm->last_batch_stats().measured_depth;
    phases += dm->last_batch_stats().parallel_phases;
    ++calls;
  };

  {
    Scope s(tr, "bench.setup", Layer::kBench);
    std::uint64_t t0 = now_ns();
    {
      Scope c(tr, "dyn.ctor", Layer::kDyn);
      dm = std::make_unique<dyn::DynamicMatcher>();
    }
    for (std::size_t i = 0; i < warm; ++i) apply(i, false);
    r.setup_s = double(now_ns() - t0) * 1e-9;
  }

  dyn::CumulativeStats before = dm->cumulative_stats();
  lat.reserve(end - warm);
  {
    Scope s(tr, "bench.timed", Layer::kBench);
    std::uint64_t t0 = now_ns();
    for (std::size_t i = warm; i < end; ++i) apply(i, true);
    r.updates = ins_upd + del_upd;
    r.updates_per_s = ratio(double(r.updates), double(now_ns() - t0) * 1e-9);
  }
  r.lat = quantiles(std::move(lat), r.tail_q);

  {
    Scope s(tr, "bench.check", Layer::kBench);
    check_matching(*dm, expect_live, tr, r);
    Scope f(tr, "dyn.state_fingerprint", Layer::kDyn);
    r.fingerprint = hex(dm->state_fingerprint());
  }

  dyn_counters(before, dm->cumulative_stats(), calls, r);
  r.set("dyn.insert_us_per_upd", ratio(double(ins_ns) * 1e-3, double(ins_upd)));
  r.set("dyn.delete_us_per_upd", ratio(double(del_ns) * 1e-3, double(del_upd)));
  r.set("dyn.depth_per_batch", ratio(double(depth), double(calls)));
  r.set("dyn.phases_per_batch", ratio(double(phases), double(calls)));
  r.set("dyn.batch_p50_us", r.lat.p50);
  machine_counters(dm->memory_bytes(), dm->pool().live_count(), r);
}

// ---- serve_durable (open loop) --------------------------------------------

// One producer replays a flattened churn script into a durable MatchService:
// an unpaced warm-up prefix (set-up), a Poisson-paced phase at kRate, then an
// unpaced phase. Each insert keeps its ticket; the matching delete revokes it.
void run_serve(std::uint64_t seed, const std::string& tmp_root, Tracer& tr,
               Round& r) {
  constexpr graph::VertexId kN = 1u << 20;
  constexpr std::size_t kM = 1u << 20;
  constexpr std::size_t kWarm = 1u << 18, kPaced = 1u << 19,
                        kUnpaced = 1u << 21;
  constexpr double kRate = 1e6;             // updates/s, Poisson
  constexpr std::uint32_t kSubmitSample = 16;  // traced submit spans: 1 in 16
  r.tail_q = 0.99;

  // The flattened churn script, one word per update: master edge << 1 |
  // is_insert. gen::churn runs 3 * kM updates, more than the round uses.
  static_assert(3 * kM >= kWarm + kPaced + kUnpaced);
  graph::EdgeBatch master;
  std::vector<std::uint64_t> stream, arrival;
  std::size_t expect_live = 0;
  {
    Scope s(tr, "gen.script", Layer::kGen);
    master = gen::erdos_renyi(kN, kM, seed);
    stream = cached<std::uint64_t>(
        tmp_root + "/churn-" + std::to_string(seed), kWarm + kPaced + kUnpaced,
        [&] {
          std::vector<std::uint64_t> out;
          for (const gen::Update& u :
               gen::flatten(gen::churn(master, 1, 0.5, seed + 1)))
            out.push_back(std::uint64_t(u.edge) << 1 | (u.is_insert ? 1 : 0));
          out.resize(kWarm + kPaced + kUnpaced);
          return out;
        });
    arrival = gen::arrival_times_ns(kPaced, kRate, gen::ArrivalModel::kPoisson,
                                    seed + 2);
    for (std::uint64_t u : stream)
      expect_live = u & 1 ? expect_live + 1 : expect_live - 1;
  }

  std::string dir = tmp_root + "/serve-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  serve::ServiceConfig cfg;  // library defaults, durability switched on
  cfg.max_vertices = kN;
  cfg.journal.policy = serve::JournalPolicy::kAsync;
  cfg.journal.dir = dir;

  std::vector<std::uint64_t> ticket(master.size(), 0);
  std::vector<std::uint64_t> submit_ns;
  std::unique_ptr<serve::MatchService> svc;
  auto submit = [&](std::size_t i) {
    const bool insert = stream[i] & 1;
    const std::size_t e = stream[i] >> 1;
    const bool sampled = tr.enabled() && i % kSubmitSample == 0;
    std::uint64_t t0 = sampled ? now_ns() : 0;
    if (insert)
      ticket[e] = svc->submit_insert(master.edge(e));
    else
      svc->submit_delete(ticket[e]);
    if (!sampled) return;
    std::uint64_t t1 = now_ns();
    submit_ns.push_back(t1 - t0);
    tr.leaf(insert ? "serve.submit_insert" : "serve.submit_delete",
            Layer::kServe, i, t0, t1, kSubmitSample);
  };
  auto drain = [&] {
    Scope s(tr, "serve.drain_until_idle", Layer::kServe);
    svc->drain_until_idle();
  };

  std::uint64_t life0 = 0;
  {
    Scope s(tr, "bench.setup", Layer::kBench);
    std::uint64_t t0 = now_ns();
    {
      Scope c(tr, "serve.ctor_start", Layer::kServe);
      svc = std::make_unique<serve::MatchService>(cfg);
      svc->start();
    }
    life0 = now_ns();
    for (std::size_t i = 0; i < kWarm; ++i) submit(i);
    drain();
    svc->reset_stats();
    r.setup_s = double(now_ns() - t0) * 1e-9;
  }
  dyn::CumulativeStats before = svc->matcher().cumulative_stats();

  // Paced phase. Request i is due at t0 + arrival[i]; it commits when the
  // generator sees completed_updates() reach its 1-based submit index (one
  // lane: windows commit FIFO). The generator polls while it waits for the
  // next due time and after every send.
  std::vector<std::uint64_t> due(kPaced), commit(kPaced), lag(kPaced);
  serve::ServiceStats paced;
  {
    Scope s(tr, "bench.paced", Layer::kBench);
    const std::uint64_t base = svc->completed_updates();
    std::size_t seen = 0;
    auto poll = [&] {
      std::uint64_t c = svc->completed_updates() - base;
      if (c <= seen) return;
      std::uint64_t t = now_ns();
      while (seen < c) commit[seen++] = t;
    };
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kPaced; ++i) {
      due[i] = t0 + arrival[i];
      std::uint64_t now;
      for (;;) {
        poll();
        now = now_ns();
        if (now >= due[i]) break;
        // Donate slack beyond 2 us so the drain threads are not starved.
        if (due[i] - now > 2'000) std::this_thread::yield();
      }
      lag[i] = now - due[i];
      submit(kWarm + i);
      poll();
    }
    while (seen < kPaced) poll();
    drain();
    paced = svc->stats();  // idle: no producer, every window published
  }

  // Unpaced phase: saturation commit rate.
  double sat = 0;
  {
    Scope s(tr, "bench.unpaced", Layer::kBench);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kUnpaced; ++i) submit(kWarm + kPaced + i);
    drain();
    sat = double(kUnpaced) / (double(now_ns() - t0) * 1e-9);
  }
  r.updates = kPaced + kUnpaced;
  r.updates_per_s = sat;

  for (std::size_t i = 0; i < kPaced; ++i) commit[i] -= due[i];
  r.lat = quantiles(std::move(commit), r.tail_q);
  std::size_t late = 0;
  for (std::uint64_t l : lag) late += l > 10'000;
  Quantiles lq = quantiles(lag, 0.99);
  Quantiles sq = quantiles(std::move(submit_ns), 0.99);

  {
    Scope s(tr, "bench.check", Layer::kBench);
    {
      Scope c(tr, "serve.stop", Layer::kServe);
      svc->stop();
    }
    double life_s = double(now_ns() - life0) * 1e-9;
    if (svc->submitted_updates() != svc->completed_updates())
      r.fail("submitted " + std::to_string(svc->submitted_updates()) +
             " != completed " + std::to_string(svc->completed_updates()));
    auto lr = svc->lane_report(0);
    if (lr.shed_reject + lr.shed_evict + lr.shed_stale != 0)
      r.fail("lane 0 shed requests");
    if (lr.offered !=
        lr.committed + lr.shed_reject + lr.shed_evict + lr.shed_stale)
      r.fail("lane 0 conservation: offered " + std::to_string(lr.offered) +
             " != committed " + std::to_string(lr.committed) + " + sheds");
    for (graph::VertexId v = 0; v < kN; ++v)
      if (svc->match_of(v) != svc->matcher().match_of(v)) {
        r.fail("snapshot disagrees with matcher at vertex " +
               std::to_string(v));
        break;
      }
    check_matching(svc->matcher(), expect_live, tr, r);
    const std::uint64_t fp = svc->recovery_fingerprint();
    r.fingerprint = hex(fp);

    // A window makes up to two matcher calls (inserts, then deletes); the
    // per-batch counters count two per window.
    const serve::ServiceStats& st = svc->stats();
    dyn_counters(before, svc->matcher().cumulative_stats(), 2 * st.batches, r);
    machine_counters(svc->matcher().memory_bytes(),
                     svc->matcher().pool().live_count(), r);
    r.set("journal.bytes_per_upd", ratio(double(svc->journal().bytes()),
                                         double(svc->submitted_updates())));
    r.set("journal.syncs_per_s", ratio(double(svc->journal().syncs()), life_s));
    r.set("ckpt.written", double(svc->checkpoints_written()));
    r.set("ckpt.skipped", double(svc->checkpoints_skipped()));
    if (std::uint64_t n = st.latency.overflow_count(); n != 0)
      std::fprintf(stderr, "parbench: FLAG: %llu service latency samples "
                   "overflowed the histogram\n", static_cast<unsigned long long>(n));

    // Durability round-trip: reopen on the same directory; recovery must
    // land on the pre-stop state.
    svc.reset();
    std::uint64_t t0 = now_ns();
    {
      Scope c(tr, "ckpt.recover", Layer::kCkpt);
      svc = std::make_unique<serve::MatchService>(cfg);
    }
    r.set("ckpt.recover_ms", double(now_ns() - t0) * 1e-6);
    if (svc->recovery_fingerprint() != fp)
      r.fail("recovered fingerprint " + hex(svc->recovery_fingerprint()) +
             " != pre-stop " + hex(fp));
    if (svc->recovery_info().epoch_mismatches != 0 ||
        svc->recovery_info().import_failed)
      r.fail("recovery replay mismatch");
    svc.reset();
    std::filesystem::remove_all(dir, ec);
    if (ec) r.fail("could not remove " + dir);
  }

  std::size_t flushes = paced.flush_full + paced.flush_cost +
                        paced.flush_deadline + paced.flush_drain;
  if (tr.enabled()) r.set("serve.submit_p99_ns", sq.tail * 1e3);
  r.set("serve.window_mean", paced.mean_batch());
  r.set("serve.window_max", double(paced.batch_updates_max));
  r.set("serve.flush_deadline_frac",
        ratio(double(paced.flush_deadline), double(flushes)));
  r.set("serve.flush_cost_frac",
        ratio(double(paced.flush_cost), double(flushes)));
  r.set("serve.flush_full_frac",
        ratio(double(paced.flush_full), double(flushes)));
  r.set("serve.queue_hwm", double(paced.queue_hwm));
  r.set("serve.annihilated_frac",
        ratio(2.0 * double(paced.annihilated), double(kPaced)));
  r.set("serve.commit_p50_us", r.lat.p50);
  r.set("serve.svc_p50_us", paced.latency.quantile(0.50));
  r.set("serve.svc_p99_us", paced.latency.quantile(0.99));
  r.set("gen.lag_p99_us", lq.tail);
  r.set("gen.late_frac", ratio(double(late), double(kPaced)));
}

bool parmatch_env_set() {
  bool any = false;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "PARMATCH_", 9) == 0) {
      std::fprintf(stderr, "parbench: refusing to run with %s set\n", *e);
      any = true;
    }
  return any;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out, tmp = ".";
  std::uint64_t seed = 1;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--trace") trace = v == "1";
    else if (k == "--trace-out") trace_out = v;
    else if (k == "--tmp") tmp = v;
    else {
      std::fprintf(stderr, "parbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (workload != "matcher_small" && workload != "matcher_large" &&
      workload != "serve_durable") {
    std::fprintf(stderr, "parbench: --workload must be matcher_small, "
                         "matcher_large or serve_durable\n");
    return 2;
  }
  if (parmatch_env_set()) return 2;

  Tracer tr(trace);
  Round r;
  {
    Scope s(tr, "bench.round", Layer::kBench);
    if (workload == "serve_durable")
      run_serve(seed, tmp, tr, r);
    else
      run_matcher(workload, seed, tmp, tr, r);
  }

  // "metrics" holds the end-to-end figures and "layer" the per-layer ones,
  // named as in BENCHMARK.json. "layer" has only what this workload has a
  // counterpart for, and self times only for layers that recorded spans;
  // run.py reports the rest as not applicable.
  std::vector<double> self_ns = tr.self_ns();
  for (std::size_t l = 0; l < self_ns.size(); ++l)
    if (self_ns[l] > 0)
      r.set(std::string("self.") + perfbench::layer_name(static_cast<Layer>(l)) +
                "_ms",
            self_ns[l] * 1e-6);
  if (trace && !trace_out.empty() && !tr.write_tsv(trace_out))
    r.fail("could not write " + trace_out);

  JsonObj metrics;
  metrics.num("setup_s", r.setup_s);
  metrics.num("updates_per_s", r.updates_per_s);
  metrics.num("latency_tail_us", r.lat.tail);
  metrics.num("peak_rss_mb", double(util::peak_rss_bytes()) / double(1u << 20));
  JsonObj layer;
  for (const auto& [k, v] : r.layer) layer.num(k, v);
  std::string errors;
  for (const std::string& e : r.errors) errors += (errors.empty() ? "" : "; ") + e;
  JsonObj out;
  out.str("workload", workload);
  out.num("seed", double(seed));
  out.boolean("traced", trace);
  out.boolean("ok", r.errors.empty());
  out.str("errors", errors);
  out.num("updates", double(r.updates));
  out.num("lat_p50_us", r.lat.p50);
  out.num("lat_tail_q", r.tail_q);
  out.num("lat_samples", double(r.lat.n));
  out.num("lat_beyond", double(r.lat.beyond));
  out.str("fingerprint", r.fingerprint);
  out.num("spans", double(tr.spans().size()));
  out.obj("metrics", metrics);
  out.obj("layer", layer);
  std::printf("%s\n", out.text().c_str());
  return r.errors.empty() ? 0 : 1;
}
