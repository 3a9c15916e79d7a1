// E12 -- the open-loop serving regime (DESIGN.md S12). E1-E11 are
// closed-loop: they hand the matcher pre-formed batches and the next batch
// waits for the last. A serving system faces the opposite shape: updates
// arrive asynchronously at a rate the system does not control, and the
// batch former (serve/batch_former.h) must re-form batches from the
// arrival stream under a latency deadline. This harness drives the full
// front-end -- producer thread -> MPSC queue -> batch former ->
// DynamicMatcher -> snapshot publish -- with Poisson and bursty arrivals
// over a flattened churn script, and reports what a serving operator would
// ask: ingest-to-commit latency percentiles, the batch-size distribution
// the former actually produced, achieved vs offered rate, and the queue
// high-water mark (bounded-queue check).
//
// Method: the first third of the churn stream (insert-heavy: churn starts
// empty) is applied unpaced as warmup, stats reset, then the remainder is
// submitted on an arrival schedule (gen::arrival_times_ns). The producer
// never runs ahead of the schedule; when it falls behind (1-core
// containers time-slice the producer against the drain thread) the
// shortfall shows up as achieved_in < offered rather than being hidden.
// A final unpaced row measures saturation throughput. --rate=N restricts
// the sweep to one target rate (CI's gate row); --json records everything,
// with the arrival models and target rates noted at the top level so the
// recorded document stays self-describing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "serve/service.h"

using namespace parmatch;
using namespace parmatch::bench;

namespace {

constexpr graph::VertexId kN = 32768;
constexpr std::size_t kM = 3u * kN;

struct RowResult {
  double achieved_in = 0, achieved_commit = 0;
  double p50_us = 0, p99_us = 0;
  double batch_mean = 0;
  std::size_t batch_max = 0, queue_hwm = 0;
  std::size_t updates = 0;
  std::size_t mem_bytes = 0;  // matcher structure bytes after the run
  std::uint64_t hist_overflow = 0;  // top-bucket latency clamps (clipped!)
  std::uint64_t fi_fired = 0;       // fault injections that actually fired
};

// Drives one serving run: warmup (unpaced first third), then the paced
// remainder on `arrivals` (empty = saturation: submit as fast as possible).
RowResult run_stream(const gen::Workload& w,
                     const std::vector<gen::Update>& stream,
                     const std::vector<std::uint64_t>& arrivals,
                     std::size_t warm, std::uint64_t seed) {
  serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  cfg.matcher.seed = seed;
  cfg.max_vertices = kN;
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
    if (!arrivals.empty()) {
      std::uint64_t due = t0 + arrivals[i];
      // Wait out the schedule. Any slack beyond ~2us is donated to the
      // drain thread via yield: on machines with fewer cores than threads
      // a spin-waiting producer would otherwise hold the core for its full
      // scheduling quantum and the measured latency would be the OS time
      // slice, not the pipeline's.
      for (;;) {
        std::uint64_t now = serve::now_ns();
        if (now >= due) break;
        if (due - now > 2'000)
          std::this_thread::yield();
      }
    }
    submit(stream[warm + i]);
  }
  std::uint64_t t_in_end = serve::now_ns();
  svc.drain_until_idle();
  svc.stop();

  const serve::ServiceStats& st = svc.stats();
  RowResult r;
  r.updates = n;
  double in_secs = static_cast<double>(t_in_end - t0) * 1e-9;
  r.achieved_in = static_cast<double>(n) / in_secs;
  double commit_secs =
      static_cast<double>(st.last_commit_ns - t0) * 1e-9;
  r.achieved_commit = static_cast<double>(n) / commit_secs;
  // Histogram quantiles: +-4.5% documented bucket error
  // (util/latency_hist.h) -- far inside the CI gate factors.
  r.p50_us = st.latency.quantile(0.50);
  r.p99_us = st.latency.quantile(0.99);
  r.batch_mean = st.mean_batch();
  r.batch_max = st.batch_updates_max;
  r.queue_hwm = st.queue_hwm;
  r.mem_bytes = svc.matcher().memory_bytes();
  r.hist_overflow = st.latency.overflow_count();
  r.fi_fired = svc.fault_injector().report().total();
  return r;
}

const char* model_name(gen::ArrivalModel m) {
  return m == gen::ArrivalModel::kPoisson ? "poisson" : "bursty";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = bench_init(argc, argv, "e12");
  std::size_t only_rate = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc)
      only_rate = std::strtoull(argv[i + 1], nullptr, 10);
    else if (std::strncmp(argv[i], "--rate=", 7) == 0)
      only_rate = std::strtoull(argv[i] + 7, nullptr, 10);
  }

  const std::vector<std::size_t> rates =
      only_rate ? std::vector<std::size_t>{only_rate}
                : std::vector<std::size_t>{250'000, 1'000'000, 2'000'000};

  std::printf(
      "E12: open-loop serving (producer -> MPSC queue -> batch former ->\n"
      "    matcher) over flattened churn, n=%u, m=%zu. Rows: arrival model\n"
      "    x target rate, plus unpaced saturation. Latency is ingest (the\n"
      "    submit call) to commit (snapshot publish of the applying\n"
      "    window).\n\n",
      kN, kM);

  // Self-describing json: the offered-load model behind every latency row.
  {
    std::string rs;
    for (std::size_t r : rates) rs += (rs.empty() ? "" : ",") + std::to_string(r);
    JsonSink::instance().note("harness", "open-loop");
    JsonSink::instance().note("arrival_models", "poisson,bursty,unpaced");
    JsonSink::instance().note("target_rates_per_s", rs);
    JsonSink::instance().note(
        "max_delay_us",
        std::to_string(serve::FormerConfig::from_env().max_delay_us));
    // Quantiles come from the fixed-footprint log-bucketed histogram;
    // record the documented error bound next to the numbers it bounds.
    JsonSink::instance().note("latency_quantile_rel_err", "0.045");
  }

  gen::Workload w =
      gen::churn(gen::erdos_renyi(kN, kM, seed + 7), 1, 0.5, seed + 11);
  std::vector<gen::Update> stream = gen::flatten(w);
  std::size_t warm = stream.size() / 3;

  Table table({"arrival", "rate", "updates", "ach_in", "ach_commit",
               "p50_us", "p99_us", "batch_mean", "batch_max", "q_hwm",
               "mem_bytes"});
  // Run-wide fault-injection and histogram-clipping accounting, noted at
  // the json top level (and printed) so a CI FI smoke can assert injection
  // actually FIRED and a clipped p99 is never silently trusted.
  std::uint64_t fi_fired_total = 0, overflow_total = 0;
  auto emit = [&](const char* arrival, std::size_t rate,
                  const RowResult& r) {
    fi_fired_total += r.fi_fired;
    overflow_total += r.hist_overflow;
    table.row({arrival, Table::num(rate), Table::num(r.updates),
               Table::num(r.achieved_in, 0), Table::num(r.achieved_commit, 0),
               Table::num(r.p50_us), Table::num(r.p99_us),
               Table::num(r.batch_mean, 1), Table::num(r.batch_max),
               Table::num(r.queue_hwm), Table::num(r.mem_bytes)});
  };

  for (gen::ArrivalModel model :
       {gen::ArrivalModel::kPoisson, gen::ArrivalModel::kBursty}) {
    for (std::size_t rate : rates) {
      auto arrivals = gen::arrival_times_ns(
          stream.size() - warm, static_cast<double>(rate), model, seed + 13);
      emit(model_name(model), rate,
           run_stream(w, stream, arrivals, warm, seed));
    }
  }
  // Saturation: no pacing; the producer and the drain pipeline run flat
  // out. achieved_commit is the front-end's max sustainable throughput.
  emit("unpaced", 0, run_stream(w, stream, {}, warm, seed));
  JsonSink::instance().note("fi_fired_total", std::to_string(fi_fired_total));
  JsonSink::instance().note("latency_overflow_total",
                            std::to_string(overflow_total));
  std::printf("\nfi_fired_total=%llu latency_overflow_total=%llu\n",
              static_cast<unsigned long long>(fi_fired_total),
              static_cast<unsigned long long>(overflow_total));
  return 0;
}
