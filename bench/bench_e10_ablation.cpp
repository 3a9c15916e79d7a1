// E10 -- ablations over the design choices called out in Section 5:
//
//  * level gap alpha = 2 (paper) vs 4 vs 8: wider gaps make matches heavy
//    later, shifting work from settles to light rematch floods;
//  * heavy threshold factor 4 (paper) vs 1 vs 16: when to give up on a
//    match's neighborhood and resample;
//  * light-only (footnote 8): correct but abandons the lazy machinery --
//    the work blowup shows why random settling exists.
//
// Workloads: the adversarial targeted teardown (settle-heavy) and a neutral
// churn (balanced), both rank 2.
#include <cstdio>

#include "baseline/targeted.h"
#include "bench_common.h"
#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "gen/workloads.h"

using namespace parmatch;
using namespace parmatch::bench;

namespace {

struct Variant {
  const char* name;
  dyn::Config cfg;
};

std::vector<Variant> variants(std::uint64_t seed) {
  std::vector<Variant> out;
  dyn::Config base;
  base.seed = seed;
  {
    Variant v{"paper(a2,h4)", base};
    out.push_back(v);
  }
  {
    Variant v{"gap_a4", base};
    v.cfg.level_gap = 4;
    out.push_back(v);
  }
  {
    Variant v{"gap_a8", base};
    v.cfg.level_gap = 8;
    out.push_back(v);
  }
  {
    Variant v{"heavy_f1", base};
    v.cfg.heavy_factor = 1;
    out.push_back(v);
  }
  {
    Variant v{"heavy_f16", base};
    v.cfg.heavy_factor = 16;
    out.push_back(v);
  }
  {
    Variant v{"light_only", base};
    v.cfg.light_only = true;
    out.push_back(v);
  }
  return out;
}

void run_table(const char* title, std::uint64_t seed,
               const gen::Workload& w) {
  std::printf("%s\n\n", title);
  Table table({"variant", "us/update", "work/update", "samples/upd",
               "settles", "steal_rds", "retries", "stolen", "bloated"});
  for (const auto& v : variants(seed)) {
    dyn::DynamicMatcher dm(v.cfg);
    double secs = drive_workload(dm, w);
    const auto& st = dm.cumulative_stats();
    double updates = static_cast<double>(st.total_updates());
    table.row({v.name, Table::num(secs * 1e6 / updates),
               Table::num(static_cast<double>(st.work_units) / updates, 2),
               Table::num(static_cast<double>(st.samples_created) / updates,
                          2),
               Table::num(st.settle_rounds), Table::num(st.steal_rounds),
               Table::num(st.spec_retries), Table::num(st.stolen),
               Table::num(st.bloated)});
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = bench_init(argc, argv, "e10");
  std::printf(
      "E10: ablations of Section 5's design choices (gap, heavy factor,\n"
      "     light-only). Claim: the paper's configuration is on the\n"
      "     efficient frontier for adversarial deletions.\n\n");
  // Adversarial with mixed degrees: the oblivious sequence precomputed
  // against the folklore matcher, on a skewed RMAT graph, hits hubs of many
  // different sizes -- levels, settles and steals all engage.
  auto adversarial =
      baseline::targeted_teardown(gen::rmat(13, 24'576, seed + 3));
  run_table("-- adversarial: targeted teardown of an RMAT graph (m=24576)",
            seed, adversarial);
  // Sustained hub churn: spokes of eight degree-2048 hubs stream through a
  // sliding window, so matched spokes keep getting deleted while the hub
  // degree stays high -- the heavy/settle path fires continuously.
  auto sliding = gen::sliding_window(gen::hub_graph(8, 2'048), 512, 4);
  run_table("-- sustained: sliding window over 8 hubs of degree 2048",
            seed, sliding);
  return 0;
}
