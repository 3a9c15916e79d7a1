// E3 -- Theorem 1.1 / Lemma 5.11: O(log^3 m) depth per batch whp.
//
// Since the batch pipeline became phased-parallel, depth is *instrumented*,
// not proxied: BatchStats::measured_depth sums parallel::model_depth(n)
// (the binary-forking fork-tree span) over every data-parallel phase a
// batch launches, i.e. (phase rounds) x (primitive depth). Three views:
//  (a) settle rounds + measured depth per deletion batch (bounded
//      O(log m) rounds): hubs of growing degree force the heavy path;
//  (b) parallelGreedyMatch reserve/commit rounds (~grain prefix rounds +
//      O(log m) whp conflict rounds) on batch insertions of growing size;
//  (c) measured per-batch depth as the *batch size* grows 64x over a fixed
//      graph: the claim is polylog in m -- flat-ish in k -- while the
//      per-edge sequential loop it replaced was Theta(k).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "graph/edge_pool.h"
#include "matching/parallel_greedy.h"

using namespace parmatch;
using namespace parmatch::bench;

int main(int argc, char** argv) {
  std::uint64_t seed = bench_init(argc, argv, "e3");
  std::printf(
      "E3a: settle rounds and measured depth per deletion batch on hub\n"
      "     graphs (the heavy path). Claim: rounds stay O(log m) and\n"
      "     measured depth stays polylog -- observed far below.\n\n");
  {
    Table table({"spokes", "log2(m)", "settle_rounds", "spec_retries",
                 "max_greedy", "measured_depth", "depth/log3(m)"});
    for (std::size_t spokes : {1ul << 10, 1ul << 12, 1ul << 14, 1ul << 16}) {
      dyn::Config cfg;
      cfg.seed = seed + 5;
      dyn::DynamicMatcher dm(cfg);
      dm.insert_edges(
          gen::hub_graph(4, static_cast<graph::VertexId>(spokes)));
      std::size_t max_settles = 0, max_retries = 0, max_greedy = 0,
                  max_depth = 0;
      for (int round = 0; round < 4; ++round) {
        auto victims = dm.matching();
        if (victims.empty()) break;
        dm.delete_edges(victims);
        max_settles =
            std::max(max_settles, dm.last_batch_stats().settle_rounds);
        max_retries =
            std::max(max_retries, dm.last_batch_stats().spec_retries);
        max_greedy =
            std::max(max_greedy, dm.last_batch_stats().max_greedy_rounds);
        max_depth =
            std::max(max_depth, dm.last_batch_stats().measured_depth);
      }
      double log_m = std::log2(4.0 * (double)spokes);
      table.row({Table::num(spokes), Table::num(log_m, 1),
                 Table::num(max_settles), Table::num(max_retries),
                 Table::num(max_greedy), Table::num(max_depth),
                 Table::num((double)max_depth / (log_m * log_m * log_m), 2)});
    }
  }

  std::printf(
      "\nE3b: parallelGreedyMatch reserve/commit rounds vs batch size m.\n"
      "     The deterministic-reservations engine takes ~kDefaultSpecGrain\n"
      "     (8) rounds to slide its prefix over a conflict-free input, plus\n"
      "     O(log m) whp conflict rounds (Fischer-Noever). Claim: rounds\n"
      "     stay grain + O(log m) -- near-flat in m.\n\n");
  {
    Table table({"m", "log2(m)", "greedy_rounds", "rounds/log2(m)"});
    for (int logm = 12; logm <= 19; ++logm) {
      std::size_t m = 1ull << logm;
      graph::EdgePool pool(2);
      auto ids = pool.add_edges(gen::erdos_renyi(
          static_cast<graph::VertexId>(m / 3), m, seed + logm));
      auto result = matching::parallel_greedy_match(pool, ids, seed + 17);
      table.row({Table::num(m), Table::num((double)logm, 1),
                 Table::num(result.rounds),
                 Table::num((double)result.rounds / (double)logm, 2)});
    }
  }

  std::printf(
      "\nE3c: measured per-batch depth vs batch size k on mixed churn over\n"
      "     a fixed graph. Claim: depth stays polylog in m while k grows\n"
      "     64x (the retired sequential pipeline was Theta(k)).\n\n");
  {
    Table table({"batch_k", "max_depth", "avg_depth", "depth/log3(m)"});
    const std::size_t n = 1u << 15, m = 3u << 15;
    double log_m = std::log2((double)m);
    double log3 = log_m * log_m * log_m;
    for (std::size_t k = 64; k <= 4096; k *= 4) {
      auto w = gen::churn(
          gen::erdos_renyi(static_cast<graph::VertexId>(n), m, seed + 23), k,
          0.5, seed + 29);
      dyn::Config cfg;
      cfg.seed = seed + 31;
      dyn::DynamicMatcher dm(cfg);
      std::vector<graph::EdgeId> live(w.master.size());
      std::size_t max_depth = 0, sum_depth = 0, batches = 0;
      for (const auto& step : w.steps) {
        if (step.edges.empty()) continue;
        if (step.is_insert) {
          graph::EdgeBatch chunk;
          for (std::size_t i : step.edges) chunk.add(w.master.edge(i));
          auto ids = dm.insert_edges(chunk);
          for (std::size_t j = 0; j < step.edges.size(); ++j)
            live[step.edges[j]] = ids[j];
        } else {
          std::vector<graph::EdgeId> ids;
          ids.reserve(step.edges.size());
          for (std::size_t i : step.edges) ids.push_back(live[i]);
          dm.delete_edges(ids);
        }
        std::size_t d = dm.last_batch_stats().measured_depth;
        max_depth = std::max(max_depth, d);
        sum_depth += d;
        ++batches;
      }
      table.row({Table::num(k), Table::num(max_depth),
                 Table::num((double)sum_depth / (double)batches, 1),
                 Table::num((double)max_depth / log3, 2)});
    }
  }
  return 0;
}
