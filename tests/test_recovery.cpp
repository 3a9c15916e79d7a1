// Durability and crash recovery (DESIGN.md S14): the CRC-framed record
// log's torn-tail/bit-flip tolerance, the matcher state export/import
// round trip, checkpoint write/load/prune, journal replay fidelity through
// MatchService, checkpoint-vs-pure-replay equivalence, recovery under the
// admission shed policies (sheds never enter the journal; PR 8
// conservation re-checked on the recovered service), and real SIGKILL
// crash points (mid-window, post-checkpoint, torn tail, header-torn,
// post-checksum byte flip) driven through child re-exec, with the
// recovered state checked bit-identical to an uncrashed run of the
// journaled prefix.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dyn/dynamic_matcher.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "serve/checkpoint.h"
#include "serve/journal.h"
#include "serve/service.h"
#include "util/io/record_log.h"
#include "util/rng.h"

using namespace parmatch;
using graph::EdgeId;
using graph::VertexId;

namespace {

std::string temp_dir(const char* tag) {
  std::string d = (std::filesystem::temp_directory_path() /
                   ("parmatch_recovery_" + std::string(tag) + "_" +
                    std::to_string(::getpid())))
                      .string();
  std::error_code ec;
  std::filesystem::remove_all(d, ec);
  std::filesystem::create_directories(d, ec);
  return d;
}

struct DirGuard {
  std::string dir;
  explicit DirGuard(std::string d) : dir(std::move(d)) {}
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// Valid + maximal + count-consistent: every matched edge is live and owns
// each of its endpoints, no live edge has all endpoints free, and
// matched_count() agrees with the matched-edge list.
bool matching_is_valid_and_maximal(const dyn::DynamicMatcher& dm) {
  const auto& pool = dm.pool();
  auto matched = dm.matching();
  if (matched.size() != dm.matched_count()) return false;
  std::set<EdgeId> in_matching(matched.begin(), matched.end());
  for (EdgeId e : matched) {
    if (!pool.live(e)) return false;
    for (VertexId v : pool.vertices(e))
      if (dm.match_of(v) != e) return false;
  }
  for (std::size_t id = 0; id < pool.id_bound(); ++id) {
    EdgeId e = static_cast<EdgeId>(id);
    if (!pool.live(e) || in_matching.count(e) != 0) continue;
    bool blocked = false;
    for (VertexId v : pool.vertices(e))
      blocked = blocked || dm.match_of(v) != graph::kInvalidEdge;
    if (!blocked) return false;
  }
  return true;
}

// Drives `n` fresh inserts over four priority lanes into a started
// service, stops it, and checks shed conservation per lane -- offered ==
// committed + shed_reject + shed_evict + shed_stale + refused -- plus a
// valid, maximal matching. Used on freshly recovered services.
void expect_post_recovery_conservation(serve::MatchService& svc,
                                       std::size_t n, VertexId nv,
                                       std::uint64_t salt) {
  svc.start();
  for (std::size_t i = 0; i < n; ++i) {
    VertexId a = static_cast<VertexId>(hash64(salt, i) % nv);
    VertexId b = static_cast<VertexId>(hash64(salt + 1, i) % nv);
    if (a == b) b = (b + 1) % nv;
    VertexId vs[2] = {a, b};
    svc.submit_insert(std::span<const VertexId>(vs, 2),
                      static_cast<std::uint8_t>(i % 4));
  }
  svc.drain_until_idle();
  svc.stop();
  std::uint64_t off = 0, com = 0, shed = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    auto lr = svc.lane_report(l);
    off += lr.offered;
    com += lr.committed;
    shed += lr.shed_reject + lr.shed_evict + lr.shed_stale + lr.refused;
    EXPECT_EQ(lr.offered, lr.committed + lr.shed_reject + lr.shed_evict +
                              lr.shed_stale + lr.refused)
        << "lane " << l << " post-recovery conservation";
  }
  EXPECT_EQ(off, com + shed);
  EXPECT_TRUE(matching_is_valid_and_maximal(svc.matcher()));
}

// ---- record log ----------------------------------------------------------

TEST(RecordLog, RoundTripAndCounters) {
  DirGuard g(temp_dir("log_roundtrip"));
  std::string path = g.dir + "/log";
  std::vector<std::vector<unsigned char>> recs;
  for (std::size_t i = 0; i < 17; ++i) {
    std::vector<unsigned char> r(i * 7 + 1);
    for (std::size_t j = 0; j < r.size(); ++j)
      r[j] = static_cast<unsigned char>(hash64(i, j));
    recs.push_back(std::move(r));
  }
  {
    util::io::RecordWriter w;
    ASSERT_TRUE(w.open(path));
    for (const auto& r : recs) ASSERT_TRUE(w.append(r.data(), r.size()));
    ASSERT_TRUE(w.sync());
    EXPECT_EQ(w.records(), recs.size());
    EXPECT_EQ(w.truncated_bytes(), 0u);
  }
  util::io::RecordReader rd;
  ASSERT_TRUE(rd.open(path));
  std::vector<unsigned char> out;
  for (const auto& r : recs) {
    ASSERT_TRUE(rd.next(out));
    EXPECT_EQ(out, r);
  }
  EXPECT_FALSE(rd.next(out));
  EXPECT_EQ(rd.records_read(), recs.size());
}

TEST(RecordLog, TornTailTruncatesOnOpenWithoutAborting) {
  DirGuard g(temp_dir("log_torn"));
  std::string path = g.dir + "/log";
  const char payload[] = "durable-window-record";
  {
    util::io::RecordWriter w;
    ASSERT_TRUE(w.open(path));
    ASSERT_TRUE(w.append(payload, sizeof payload));
    ASSERT_TRUE(w.append(payload, sizeof payload));
    // Torn third append: only 5 bytes of the frame (mid-header) hit disk.
    util::io::AppendFault fault;
    fault.torn_after = 5;
    ASSERT_TRUE(w.append(payload, sizeof payload, &fault));
  }
  // Reader: two records, then clean end-of-log -- never an abort.
  {
    util::io::RecordReader rd;
    ASSERT_TRUE(rd.open(path));
    std::vector<unsigned char> out;
    EXPECT_TRUE(rd.next(out));
    EXPECT_TRUE(rd.next(out));
    EXPECT_FALSE(rd.next(out));
  }
  // Re-open for append: the torn tail is healed by truncation.
  util::io::RecordWriter w2;
  ASSERT_TRUE(w2.open(path));
  EXPECT_EQ(w2.records(), 2u);
  EXPECT_EQ(w2.truncated_bytes(), 5u);
  ASSERT_TRUE(w2.append(payload, sizeof payload));
  util::io::RecordReader rd2;
  ASSERT_TRUE(rd2.open(path));
  std::vector<unsigned char> out;
  int n = 0;
  while (rd2.next(out)) ++n;
  EXPECT_EQ(n, 3);
}

TEST(RecordLog, FlippedByteStopsReplayAtTheCorruptRecord) {
  DirGuard g(temp_dir("log_flip"));
  std::string path = g.dir + "/log";
  const char payload[] = "bit-rot-target";
  {
    util::io::RecordWriter w;
    ASSERT_TRUE(w.open(path));
    ASSERT_TRUE(w.append(payload, sizeof payload));
    util::io::AppendFault fault;
    fault.flip_byte = 3;  // post-CRC corruption inside record 1
    ASSERT_TRUE(w.append(payload, sizeof payload, &fault));
    ASSERT_TRUE(w.append(payload, sizeof payload));
  }
  util::io::RecordReader rd;
  ASSERT_TRUE(rd.open(path));
  std::vector<unsigned char> out;
  EXPECT_TRUE(rd.next(out));   // record 0 intact
  EXPECT_FALSE(rd.next(out));  // record 1 fails its checksum: replay stops
  EXPECT_EQ(rd.records_read(), 1u);
  // The writer's open-time scan truncates the corrupt suffix (record 2 is
  // unreachable behind the bad frame, so it goes too -- standard WAL
  // prefix semantics).
  util::io::RecordWriter w2;
  ASSERT_TRUE(w2.open(path));
  EXPECT_EQ(w2.records(), 1u);
  EXPECT_GT(w2.truncated_bytes(), 0u);
}

// ---- matcher state serialization -----------------------------------------

TEST(MatcherState, ExportImportPreservesTrajectory) {
  gen::Workload w = gen::churn(gen::erdos_renyi(600, 2'400, 17), 48, 0.5, 23);
  dyn::Config cfg;
  cfg.seed = 9;
  dyn::DynamicMatcher a(cfg);
  std::vector<EdgeId> live(w.master.size(), graph::kInvalidEdge);
  // Split the workload: first half builds the state to serialize, second
  // half must replay bit-identically on the imported copy.
  std::size_t half = w.steps.size() / 2;
  auto apply_step = [&](dyn::DynamicMatcher& m, const gen::Step& s) {
    if (s.is_insert) {
      graph::EdgeBatch chunk;
      for (std::size_t i : s.edges) chunk.add(w.master.edge(i));
      auto ids = m.insert_edges(chunk);
      for (std::size_t j = 0; j < ids.size(); ++j) live[s.edges[j]] = ids[j];
    } else {
      std::vector<EdgeId> ids;
      for (std::size_t i : s.edges) ids.push_back(live[i]);
      m.delete_edges(ids);
    }
  };
  for (std::size_t i = 0; i < half; ++i) apply_step(a, w.steps[i]);

  std::vector<std::uint64_t> words;
  a.export_state(words);
  dyn::DynamicMatcher b(cfg);
  ASSERT_TRUE(b.import_state(words, 600));
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());

  // The future trajectory must agree bit-for-bit: same edge ids, same
  // matching after every subsequent batch.
  std::vector<EdgeId> live_a = live;
  for (std::size_t i = half; i < w.steps.size(); ++i) {
    const auto& s = w.steps[i];
    live = live_a;
    apply_step(a, s);
    std::vector<EdgeId> after_a = live;
    live = live_a;
    apply_step(b, s);
    live_a = live;
    EXPECT_EQ(after_a, live_a) << "edge-id divergence at step " << i;
    ASSERT_EQ(a.state_fingerprint(), b.state_fingerprint())
        << "state divergence at step " << i;
  }
  EXPECT_EQ(a.matching(), b.matching());
}

TEST(MatcherState, ImportRejectsConfigMismatchAndGarbage) {
  dyn::Config cfg;
  cfg.seed = 4;
  dyn::DynamicMatcher a(cfg);
  graph::EdgeBatch batch;
  batch.add({1, 2});
  batch.add({2, 3});
  a.insert_edges(batch);
  std::vector<std::uint64_t> words;
  a.export_state(words);

  dyn::Config other = cfg;
  other.seed = 5;
  dyn::DynamicMatcher wrong_seed(other);
  EXPECT_FALSE(wrong_seed.import_state(words, 4));

  std::vector<std::uint64_t> truncated(words.begin(), words.end() - 1);
  dyn::DynamicMatcher fresh(cfg);
  EXPECT_FALSE(fresh.import_state(truncated, 4));
}

// state_fingerprint folds export_words' stream without storing it; it must
// stay the fold of export_state's words exactly.
std::uint64_t fold_of_export(const dyn::DynamicMatcher& m) {
  std::vector<std::uint64_t> words;
  m.export_state(words);
  std::uint64_t h = 0x5EED'F00D'CAFE'D00Dull;
  for (std::uint64_t w : words) h = hash64(h, w);
  return h;
}

TEST(MatcherState, FingerprintIsTheFoldOfTheExport) {
  dyn::Config cfg;
  cfg.seed = 8;
  {
    dyn::DynamicMatcher empty(cfg);
    EXPECT_EQ(empty.state_fingerprint(), fold_of_export(empty));
  }
  {
    // Mixed churn over a workload script.
    gen::Workload w = gen::churn(gen::erdos_renyi(400, 1'600, 3), 3, 0.5, 4);
    dyn::DynamicMatcher m(cfg);
    std::vector<EdgeId> live(w.master.size(), graph::kInvalidEdge);
    for (const gen::Step& s : w.steps) {
      if (s.is_insert) {
        graph::EdgeBatch chunk;
        for (std::size_t i : s.edges) chunk.add(w.master.edge(i));
        auto ids = m.insert_edges(chunk);
        for (std::size_t j = 0; j < ids.size(); ++j) live[s.edges[j]] = ids[j];
      } else {
        std::vector<EdgeId> ids;
        for (std::size_t i : s.edges) ids.push_back(live[i]);
        m.delete_edges(ids);
      }
      ASSERT_EQ(m.state_fingerprint(), fold_of_export(m));
    }
  }
  {
    // Stale chain entries: a star whose hub stays matched while its
    // unmatched spokes are deleted. Chains compact lazily, on a scan, and
    // nothing rescans the hub, so its chain keeps the dead refs and the
    // export's counting walk must skip them. The stream still imports,
    // and the imported matcher's chains are compact: resettling the hub
    // later costs it fewer work units than the original.
    constexpr VertexId kSpokes = 40;
    dyn::DynamicMatcher a(cfg);
    graph::EdgeBatch star;
    for (VertexId v = 1; v <= kSpokes; ++v) star.add({0, v});
    auto ids = a.insert_edges(star);
    EdgeId hub_match = a.match_of(0);
    ASSERT_NE(hub_match, graph::kInvalidEdge);
    std::vector<EdgeId> spokes;
    for (EdgeId e : ids)
      if (e != hub_match && spokes.size() + 2 < kSpokes) spokes.push_back(e);
    a.delete_edges(spokes);
    ASSERT_EQ(a.match_of(0), hub_match);
    EXPECT_EQ(a.state_fingerprint(), fold_of_export(a));

    std::vector<std::uint64_t> words;
    a.export_state(words);
    dyn::DynamicMatcher b(cfg);
    ASSERT_TRUE(b.import_state(words, kSpokes + 1));
    EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());

    std::size_t work_a = a.cumulative_stats().work_units;
    std::size_t work_b = b.cumulative_stats().work_units;
    std::vector<EdgeId> hub = {hub_match};
    a.delete_edges(hub);
    b.delete_edges(hub);
    EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
    EXPECT_GT(a.cumulative_stats().work_units - work_a,
              b.cumulative_stats().work_units - work_b)
        << "the hub's chain held no stale entries to skip";
  }
}

// Offsets into a DynamicMatcher::export_state stream of rank-2 edges: 9
// header words, then the pool -- [nslots][vertex_bound][live][nfree][free
// ids][slot data packed 2 x u32 per word] -- then [nlive][priorities][nm]
// [(edge, threshold, growth) x nm], then the sparse chain section [vb][k]
// and k records [v][cnt][cnt edge ids], ascending v, cnt > 0.
struct StreamLayout {
  static constexpr std::size_t kPool = 9;
  static constexpr std::size_t kStride = 4;  // rank-2 record: gen, rank, v0, v1
  std::size_t data = 0;                      // first slot-data word
  std::size_t nlive_at = 0;                  // [nlive]
  std::size_t nm_at = 0;                     // [nm]
  std::size_t vb_at = 0;                     // [vb], then [k]
  std::vector<std::size_t> records;          // each chain record's [v]

  explicit StreamLayout(const std::vector<std::uint64_t>& w) {
    data = kPool + 4 + w[kPool + 3];
    nlive_at = data + (w[kPool] * kStride + 1) / 2;
    nm_at = nlive_at + 1 + w[nlive_at];
    vb_at = nm_at + 1 + 3 * w[nm_at];
    std::size_t r = vb_at + 2;
    for (std::uint64_t i = 0; i < w[vb_at + 1]; ++i) {
      records.push_back(r);
      r += 2 + w[r + 1];
    }
  }
};

// A checkpoint stream can pass its CRC and still be wrong (a buggy or
// version-skewed writer). Each crafted stream below starts from a valid
// export and breaks exactly one invariant the importer must verify rather
// than trust; every one must be rejected cleanly -- no UB, no silently
// accepted state.
TEST(MatcherState, ImportRejectsCraftedStreams) {
  constexpr std::size_t kPool = StreamLayout::kPool;
  constexpr VertexId kN = 200;
  dyn::Config cfg;
  cfg.seed = 6;
  dyn::DynamicMatcher a(cfg);
  a.insert_edges(gen::erdos_renyi(kN, 600, 21));
  std::vector<std::uint64_t> good;
  a.export_state(good);
  const StreamLayout at(good);

  const std::uint64_t nslots = good[kPool];
  const std::uint64_t vbound = good[kPool + 1];
  ASSERT_GE(good[at.nm_at], 2u) << "need two matched edges to cross-wire";
  auto matched = [&](std::size_t i) {
    return static_cast<EdgeId>(good[at.nm_at + 1 + 3 * i]);
  };
  // 32-bit word `field` (0 gen, 1 rank, 2.. vertices) of slot `id`.
  auto set_slot = [&](std::vector<std::uint64_t>& w, EdgeId id,
                      std::size_t field, std::uint32_t value) {
    std::size_t i = static_cast<std::size_t>(id) * StreamLayout::kStride +
                    field;
    std::uint64_t& word = w[at.data + i / 2];
    unsigned shift = (i % 2) * 32;
    word = (word & ~(0xFFFF'FFFFull << shift)) |
           (static_cast<std::uint64_t>(value) << shift);
  };
  auto slot = [&](EdgeId id, std::size_t field) {
    std::size_t i = static_cast<std::size_t>(id) * StreamLayout::kStride +
                    field;
    return static_cast<std::uint32_t>(good[at.data + i / 2] >> ((i % 2) * 32));
  };
  auto rejects = [&](const std::vector<std::uint64_t>& w) {
    dyn::DynamicMatcher m(cfg);
    return !m.import_state(w, kN);
  };

  {
    dyn::DynamicMatcher m(cfg);
    ASSERT_TRUE(m.import_state(good, kN));
    ASSERT_EQ(m.state_fingerprint(), a.state_fingerprint());
  }
  {
    // nslots * stride wraps to the true slab size: the size check alone
    // would pass and the matcher would size its arrays by 2^62 slots.
    auto w = good;
    w[kPool] = nslots + (1ull << 62);
    EXPECT_TRUE(rejects(w)) << "slot-count overflow accepted";
  }
  {
    // A live count the slot ranks do not back up (matcher's copy agrees).
    auto w = good;
    w[kPool + 2] -= 1;
    w[at.nlive_at] -= 1;
    EXPECT_TRUE(rejects(w)) << "unrecounted live count accepted";
  }
  {
    // A live slot whose rank exceeds max_rank.
    auto w = good;
    set_slot(w, matched(0), 1, 0xFFFF'FFFFu);
    EXPECT_TRUE(rejects(w)) << "out-of-range rank accepted";
  }
  {
    // A live slot naming a vertex past the stream's vertex bound.
    auto w = good;
    set_slot(w, matched(0), 2, static_cast<std::uint32_t>(vbound + 5));
    EXPECT_TRUE(rejects(w)) << "out-of-range vertex id accepted";
  }
  {
    // Two matched edges sharing their SECOND endpoint: the first endpoint
    // is free at the check, so only a check of every endpoint catches it.
    auto w = good;
    set_slot(w, matched(1), 3, slot(matched(0), 3));
    EXPECT_TRUE(rejects(w)) << "vertex matched twice accepted";
  }
  {
    // A vertex bound past the caller's limit, consistent everywhere else
    // in the stream: only the limit stops the importer from sizing its
    // per-vertex arrays by it (at 2^32 - 1, 128 GB from a short stream).
    for (std::uint64_t vb : {std::uint64_t{kN} + 1,
                             std::uint64_t{graph::kInvalidVertex}}) {
      auto w = good;
      w[kPool + 1] = vb;
      w[at.vb_at] = vb;
      EXPECT_TRUE(rejects(w)) << "vertex bound " << vb << " over the limit";
    }
  }
  {
    // More chain records than vertices below the bound.
    auto w = good;
    w[at.vb_at + 1] = w[at.vb_at] + 1;
    EXPECT_TRUE(rejects(w)) << "k > vb accepted";
  }
  {
    // A chain record naming a vertex at the bound (the last record, so
    // the order check alone cannot catch it).
    auto w = good;
    w[at.records.back()] = w[at.vb_at];
    EXPECT_TRUE(rejects(w)) << "chain vertex >= vb accepted";
  }
  {
    // A duplicated vertex: a later record replaced by a copy of an earlier
    // one of the same length, so every count and the incidence total still
    // agree -- only strict ascent catches it (the replaced vertex's chain
    // would be left empty, the copied one's doubled).
    auto w = good;
    bool crafted = false;
    for (std::size_t i = 0; i < at.records.size() && !crafted; ++i) {
      for (std::size_t j = i + 1; j < at.records.size(); ++j) {
        std::size_t ri = at.records[i], rj = at.records[j];
        if (good[ri + 1] != good[rj + 1]) continue;
        std::copy(good.begin() + ri, good.begin() + ri + 2 + good[ri + 1],
                  w.begin() + rj);
        crafted = true;
        break;
      }
    }
    ASSERT_TRUE(crafted) << "need two chains of equal length";
    EXPECT_TRUE(rejects(w)) << "duplicate chain vertex accepted";
  }
  {
    // A vertex with live incidences left out: its record dropped and k
    // lowered to match, so the stream is otherwise well formed.
    auto w = good;
    std::size_t last = at.records.back();
    w.erase(w.begin() + last, w.begin() + last + 2 + good[last + 1]);
    w[at.vb_at + 1] -= 1;
    EXPECT_TRUE(rejects(w)) << "missing chain accepted";
  }

  // The remaining cases need fewer chain records than incidences and
  // isolated vertices below the bound: a sparse matcher whose three
  // touched vertices carry four incidences under a bound of 152.
  dyn::DynamicMatcher s(cfg);
  {
    graph::EdgeBatch batch;
    batch.add({0, 150});
    batch.add({0, 151});
    s.insert_edges(batch);
  }
  std::vector<std::uint64_t> sparse;
  s.export_state(sparse);
  const StreamLayout sat(sparse);
  ASSERT_EQ(sparse[sat.vb_at], 152u);
  ASSERT_EQ(sparse[sat.vb_at + 1], 3u);
  ASSERT_FALSE(rejects(sparse));
  {
    // More chain records than incidences (but fewer than vertices).
    auto w = sparse;
    w[sat.vb_at + 1] = 5;
    EXPECT_TRUE(rejects(w)) << "k > total incidences accepted";
  }
  {
    // An empty record for an isolated vertex: its count matches its zero
    // degree and the incidence total is unchanged, so only the cnt > 0
    // rule rejects it.
    auto w = sparse;
    std::size_t second = sat.records[1];
    ASSERT_EQ(sparse[second], 150u);
    std::uint64_t empty[] = {100, 0};
    w.insert(w.begin() + second, std::begin(empty), std::end(empty));
    w[sat.vb_at + 1] += 1;
    EXPECT_TRUE(rejects(w)) << "cnt == 0 record accepted";
  }
}

// The chain section is sparse, so an export follows the live state: a
// vertex bound of 2^20 left behind by one deleted edge must not cost a
// word per vertex below it, and the sparse stream must still round-trip
// the bound and the future trajectory.
TEST(MatcherState, ExportTracksLiveStateNotVertexBound) {
  constexpr VertexId kHigh = (1u << 20) - 1;
  dyn::Config cfg;
  cfg.seed = 12;
  dyn::DynamicMatcher a(cfg);
  {
    graph::EdgeBatch batch;
    batch.add({0, kHigh});
    auto ids = a.insert_edges(batch);
    a.delete_edges(std::vector<EdgeId>(ids.begin(), ids.end()));
  }
  {
    graph::EdgeBatch batch;
    for (VertexId v = 0; v < 8; ++v) batch.add({v, (v + 3) % 10});
    a.insert_edges(batch);
  }
  ASSERT_EQ(a.pool().vertex_bound(), kHigh + 1);

  std::vector<std::uint64_t> words;
  a.export_state(words);
  EXPECT_LT(words.size(), 200u);

  dyn::DynamicMatcher b(cfg);
  ASSERT_TRUE(b.import_state(words, kHigh + 1));
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  EXPECT_EQ(b.pool().vertex_bound(), a.pool().vertex_bound());

  // Further batches, including one reaching the high vertex again, give
  // the same edge ids and the same matching on both matchers.
  for (std::uint64_t round = 0; round < 4; ++round) {
    graph::EdgeBatch batch;
    for (VertexId v = 0; v < 6; ++v)
      batch.add({v, static_cast<VertexId>(10 + round * 6 + v)});
    if (round == 2) batch.add({5, kHigh});
    auto sa = a.insert_edges(batch);
    std::vector<EdgeId> ia(sa.begin(), sa.end());
    auto sb = b.insert_edges(batch);
    std::vector<EdgeId> ib(sb.begin(), sb.end());
    ASSERT_EQ(ia, ib) << "edge-id divergence in round " << round;
    std::vector<EdgeId> doomed = {ia[0], ia[round % ia.size()]};
    if (doomed[0] == doomed[1]) doomed.pop_back();
    a.delete_edges(doomed);
    b.delete_edges(doomed);
    ASSERT_EQ(a.matching(), b.matching()) << "matching divergence in round "
                                          << round;
    ASSERT_EQ(a.state_fingerprint(), b.state_fingerprint());
  }
}

// ---- checkpoint files ----------------------------------------------------

std::vector<std::pair<std::uint64_t, EdgeId>> tickets_of(
    const serve::CheckpointData& d) {
  std::vector<std::pair<std::uint64_t, EdgeId>> ts;
  d.for_each_ticket(
      [&](std::uint64_t t, EdgeId id) { ts.emplace_back(t, id); });
  return ts;
}

TEST(Checkpoint, WriteLoadFallbackAndPrune) {
  DirGuard g(temp_dir("ckpt"));
  const std::vector<std::pair<std::uint64_t, EdgeId>> ts = {{1, 10}, {2, 20}};
  for (std::uint64_t seq : {5ull, 9ull, 12ull}) {
    serve::CheckpointData d = serve::encode_checkpoint(
        seq, seq * 100,
        [&](auto&& put) {
          for (std::uint64_t w : {seq, seq + 1, seq + 2}) put(w);
        },
        ts);
    ASSERT_TRUE(serve::write_checkpoint(g.dir, d));
  }
  serve::CheckpointData out;
  ASSERT_TRUE(serve::load_newest_checkpoint(g.dir, out));
  EXPECT_EQ(out.seqno(), 12u);
  EXPECT_EQ(out.next_ticket(), 1200u);
  EXPECT_EQ(std::vector<std::uint64_t>(out.matcher_words().begin(),
                                       out.matcher_words().end()),
            (std::vector<std::uint64_t>{12, 13, 14}));
  EXPECT_EQ(tickets_of(out), ts);

  // Corrupt the newest file: load must fall back to seqno 9, not abort.
  {
    FILE* f = std::fopen(serve::checkpoint_path(g.dir, 12).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  ASSERT_TRUE(serve::load_newest_checkpoint(g.dir, out));
  EXPECT_EQ(out.seqno(), 9u);

  serve::prune_checkpoints(g.dir, 2);
  EXPECT_EQ(serve::list_checkpoints(g.dir).size(), 2u);
  EXPECT_FALSE(
      std::filesystem::exists(serve::checkpoint_path(g.dir, 5)));
}

// The one-copy path end to end: the matcher streams straight into the
// payload, the file holds exactly that payload in one frame, and the load
// views the matcher words in the record it read -- which import into a
// fresh matcher with the same fingerprint.
TEST(Checkpoint, EncodedMatcherRoundTripsThroughOneCopy) {
  DirGuard g(temp_dir("ckpt_matcher"));
  constexpr VertexId kN = 300;
  dyn::Config cfg;
  cfg.seed = 9;
  dyn::DynamicMatcher a(cfg);
  auto ids = a.insert_edges(gen::erdos_renyi(kN, 900, 31));
  a.delete_edges(std::vector<EdgeId>(ids.begin(), ids.begin() + 200));
  const std::vector<std::pair<std::uint64_t, EdgeId>> ts = {
      {3, 7}, {8, 2}, {40, 11}};
  serve::CheckpointData d = serve::encode_checkpoint(
      17, 41, [&](auto&& put) { a.export_words(put); }, ts);
  ASSERT_TRUE(d.well_formed());
  std::vector<std::uint64_t> words;
  a.export_state(words);
  EXPECT_TRUE(std::ranges::equal(d.matcher_words(), words));
  ASSERT_TRUE(serve::write_checkpoint(g.dir, d));
  EXPECT_EQ(std::filesystem::file_size(serve::checkpoint_path(g.dir, 17)),
            util::io::kFrameHeaderBytes + d.words.size() * 8);

  serve::CheckpointData out;
  ASSERT_TRUE(serve::load_newest_checkpoint(g.dir, out));
  EXPECT_EQ(out.words, d.words);
  EXPECT_EQ(out.seqno(), 17u);
  EXPECT_EQ(out.next_ticket(), 41u);
  EXPECT_EQ(tickets_of(out), ts);
  dyn::DynamicMatcher b(cfg);
  ASSERT_TRUE(b.import_state(out.matcher_words(), kN));
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
}

// A checkpoint payload can pass its CRC and still be wrong. Counts that
// overrun the payload -- including ones whose doubling or +1 wraps -- and
// trailing words must read as corrupt, so the load falls back to the
// older good checkpoint instead of sizing or reading by them.
TEST(Checkpoint, LoadRejectsMalformedPayloads) {
  DirGuard g(temp_dir("ckpt_malformed"));
  const std::vector<std::pair<std::uint64_t, EdgeId>> ts = {{1, 10}};
  auto encode = [&](std::uint64_t seq) {
    return serve::encode_checkpoint(
        seq, 100, [](auto&& put) { put(std::uint64_t{77}); }, ts);
  };
  ASSERT_TRUE(serve::write_checkpoint(g.dir, encode(3)));
  // encode(4).words: [magic][version][4][100][1][77][1][1][10]
  auto crafted = [&](auto edit) {
    serve::CheckpointData d = encode(4);
    edit(d.words);
    {
      util::io::RecordWriter w;
      EXPECT_TRUE(w.open(serve::checkpoint_path(g.dir, 4)));
      EXPECT_TRUE(w.append(d.words.data(), d.words.size() * 8));
    }
    serve::CheckpointData out;
    bool loaded = serve::load_newest_checkpoint(g.dir, out);
    std::filesystem::remove(serve::checkpoint_path(g.dir, 4));
    return loaded ? out.seqno() : 0;
  };
  EXPECT_EQ(crafted([](auto&) {}), 4u) << "the unedited payload must load";
  EXPECT_EQ(crafted([](auto& w) { w[4] = ~0ull; }), 3u) << "nm + 1 wraps";
  EXPECT_EQ(crafted([](auto& w) { w[4] = 4; }), 3u) << "nm overruns";
  EXPECT_EQ(crafted([](auto& w) { w[6] = 1ull << 63; }), 3u)
      << "2 * nt wraps";
  EXPECT_EQ(crafted([](auto& w) { w[6] = 2; }), 3u) << "nt overruns";
  EXPECT_EQ(crafted([](auto& w) { w.push_back(0); }), 3u)
      << "trailing word";
  EXPECT_EQ(crafted([](auto& w) { w[1] += 1; }), 3u) << "version";
  EXPECT_EQ(crafted([](auto& w) { w.resize(5); }), 3u) << "short header";
}

// ---- service-level recovery ----------------------------------------------

// Pinned window partition (flushes on max_batch only): the journaled
// sequence of windows is reproducible, so fingerprints compare runs, not
// timing accidents.
serve::ServiceConfig pinned_cfg(const std::string& dir,
                                serve::JournalPolicy policy,
                                std::uint64_t ckpt_every = 0) {
  serve::ServiceConfig cfg;
  cfg.matcher.seed = 5;
  cfg.max_vertices = 700;
  cfg.record_latencies = false;
  cfg.former.max_batch = 64;
  cfg.former.cost_flush = 1u << 20;
  cfg.former.max_delay_us = 1u << 30;
  cfg.journal.policy = policy;
  cfg.journal.dir = dir;
  cfg.journal.ckpt_every = ckpt_every;
  return cfg;
}

// Drives the flattened churn stream through a service; returns its idle
// fingerprint after stop(). Each update rides lane edge % lanes, so a delete
// always shares its insert's lane (per-lane FIFO is the API contract).
std::uint64_t run_serve_stream(const serve::ServiceConfig& cfg,
                               const gen::Workload& w,
                               const std::vector<gen::Update>& stream) {
  serve::MatchService svc(cfg);
  svc.start();
  std::vector<std::uint64_t> ticket(w.master.size(), 0);
  for (const gen::Update& u : stream) {
    auto lane = static_cast<std::uint8_t>(u.edge % cfg.admission.lanes);
    if (u.is_insert)
      ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge), lane);
    else
      svc.submit_delete(ticket[u.edge], lane);
  }
  // stop(), not drain_until_idle(): under the pinned partition a partial
  // final window only ever flushes via stop()'s kDrain.
  svc.stop();
  return svc.recovery_fingerprint();
}

TEST(ServiceRecovery, CleanRunReplaysBitIdentically) {
  DirGuard g(temp_dir("svc_replay"));
  gen::Workload w = gen::churn(gen::erdos_renyi(700, 2'800, 13), 1, 0.5, 31);
  auto stream = gen::flatten(w);
  std::uint64_t fp =
      run_serve_stream(pinned_cfg(g.dir, serve::JournalPolicy::kCommit), w,
                       stream);

  // A fresh service on the same directory recovers by replaying the whole
  // log through the normal batch path -- bit-identical state, zero epoch
  // mismatches.
  serve::MatchService recovered(
      pinned_cfg(g.dir, serve::JournalPolicy::kCommit));
  EXPECT_TRUE(recovered.recovery_info().ran);
  EXPECT_FALSE(recovered.recovery_info().import_failed);
  EXPECT_EQ(recovered.recovery_info().epoch_mismatches, 0u);
  EXPECT_GT(recovered.recovery_info().replayed_windows, 0u);
  EXPECT_EQ(recovered.recovery_fingerprint(), fp);
  // The published snapshot was rebuilt too.
  std::size_t snap = 0;
  for (VertexId v = 0; v < 700; ++v)
    if (recovered.is_matched(v)) ++snap;
  EXPECT_EQ(recovered.matched_count(), recovered.matcher().matched_count());
  EXPECT_GT(snap, 0u);
}

// Checkpoint import + journal suffix lands on the same state as a pure
// replay of the whole log -- with one lane, and with four priority lanes
// (whose drain interleaving shapes the windows the journal records).
TEST(ServiceRecovery, CheckpointPlusSuffixEqualsPureReplay) {
  gen::Workload w = gen::churn(gen::erdos_renyi(700, 2'800, 13), 1, 0.5, 31);
  auto stream = gen::flatten(w);
  for (std::uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(lanes);
    DirGuard ga(temp_dir("svc_ckpt"));
    DirGuard gb(temp_dir("svc_pure"));
    auto cfg_for = [&](const std::string& dir, std::uint64_t ckpt_every) {
      serve::ServiceConfig c =
          pinned_cfg(dir, serve::JournalPolicy::kAsync, ckpt_every);
      c.admission.lanes = lanes;
      return c;
    };
    std::uint64_t fp = run_serve_stream(cfg_for(ga.dir, 4), w, stream);

    // Route 1: checkpoint + journal suffix.
    serve::MatchService from_ckpt(cfg_for(ga.dir, 4));
    EXPECT_GT(from_ckpt.recovery_info().checkpoint_seqno, 0u)
        << "checkpoint was never taken; the equivalence below is vacuous";
    EXPECT_FALSE(from_ckpt.recovery_info().import_failed);
    EXPECT_EQ(from_ckpt.recovery_info().epoch_mismatches, 0u);
    EXPECT_EQ(from_ckpt.recovery_fingerprint(), fp);
    EXPECT_TRUE(matching_is_valid_and_maximal(from_ckpt.matcher()));

    // Route 2: the same wal.log alone, no checkpoint -- full replay.
    std::error_code ec;
    std::filesystem::copy_file(
        serve::journal_path(ga.dir), serve::journal_path(gb.dir),
        std::filesystem::copy_options::overwrite_existing, ec);
    ASSERT_FALSE(ec);
    serve::MatchService pure(cfg_for(gb.dir, 0));
    EXPECT_EQ(pure.recovery_info().checkpoint_seqno, 0u);
    EXPECT_EQ(pure.recovery_fingerprint(), fp);
  }
}

TEST(ServiceRecovery, TornJournalTailHealsAndRecoversThePrefix) {
  DirGuard g(temp_dir("svc_torn"));
  gen::Workload w = gen::churn(gen::erdos_renyi(700, 2'800, 13), 1, 0.5, 31);
  auto stream = gen::flatten(w);
  run_serve_stream(pinned_cfg(g.dir, serve::JournalPolicy::kCommit), w,
                   stream);

  // Tear the log's tail mid-frame, as a crash inside an append would.
  std::string wal = serve::journal_path(g.dir);
  auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 11);

  serve::MatchService recovered(
      pinned_cfg(g.dir, serve::JournalPolicy::kCommit));
  EXPECT_TRUE(recovered.recovery_info().ran);
  EXPECT_EQ(recovered.recovery_info().epoch_mismatches, 0u);
  // The torn final record is gone; everything before it replayed, and the
  // writer healed the file on open.
  EXPECT_GT(recovered.recovery_info().replayed_windows, 0u);
  EXPECT_GT(recovered.journal().truncated_bytes(), 0u);
}

// Sheds never enter the journal: under each shed policy with 4 priority
// lanes, the journal replays to exactly the committed state, and PR 8's
// shed conservation holds again on the recovered service's fresh traffic.
TEST(ServiceRecovery, ShedPoliciesJournalOnlyCommittedOps) {
  for (serve::ShedPolicy policy :
       {serve::ShedPolicy::kRejectNew, serve::ShedPolicy::kDropOldest}) {
    DirGuard g(temp_dir(policy == serve::ShedPolicy::kRejectNew
                            ? "svc_shed_reject"
                            : "svc_shed_drop"));
    gen::Workload w =
        gen::churn(gen::erdos_renyi(700, 2'800, 13), 1, 0.6, 31);
    auto stream = gen::flatten(w);

    serve::ServiceConfig cfg = pinned_cfg(g.dir, serve::JournalPolicy::kCommit);
    cfg.admission.policy = policy;
    cfg.admission.lanes = 4;
    cfg.queue_capacity = 64;  // tiny lanes: overload is reachable
    // Deadline flushes allowed here -- shedding needs real backlog, and
    // the bit-identity claim is fingerprint-vs-replay, not run-vs-run.
    cfg.former.max_delay_us = 200;

    std::uint64_t fp_stop = 0, offered = 0, committed = 0, shed = 0;
    std::uint64_t journaled_updates = 0;
    {
      serve::MatchService svc(cfg);
      svc.start();
      std::vector<std::uint64_t> ticket(w.master.size(),
                                        serve::MatchService::kShedTicket);
      for (const gen::Update& u : stream) {
        // Lane keyed on the edge, not submit order: a delete must ride the
        // SAME lane as its insert (per-lane FIFO is the API contract).
        std::uint8_t lane = static_cast<std::uint8_t>(u.edge % 4);
        if (u.is_insert) {
          ticket[u.edge] = svc.submit_insert(w.master.edge(u.edge), lane);
        } else {
          if (ticket[u.edge] == serve::MatchService::kShedTicket) continue;
          svc.submit_delete(ticket[u.edge], lane);
        }
      }
      svc.drain_until_idle();
      svc.stop();
      fp_stop = svc.recovery_fingerprint();
      for (std::size_t l = 0; l < 4; ++l) {
        auto lr = svc.lane_report(l);
        offered += lr.offered;
        committed += lr.committed;
        shed += lr.shed_reject + lr.shed_evict + lr.shed_stale;
        EXPECT_EQ(lr.offered,
                  lr.committed + lr.shed_reject + lr.shed_evict +
                      lr.shed_stale)
            << "lane " << l;
      }
      EXPECT_EQ(offered, committed + shed);
    }

    // Count the updates the journal actually carries: they must be
    // exactly the committed-to-matcher ops -- never a shed request.
    serve::JournalReplay rp(g.dir);
    serve::JournalRecord rec;
    while (rp.next(rec))
      journaled_updates += rec.inserts.size() + rec.delete_tickets.size();
    EXPECT_LE(journaled_updates, committed);

    // Replay lands on the stopped service's exact state...
    serve::MatchService recovered(cfg);
    EXPECT_EQ(recovered.recovery_info().epoch_mismatches, 0u);
    EXPECT_EQ(recovered.recovery_fingerprint(), fp_stop);

    // ...and the recovered service still keeps shed conservation, per
    // lane, on fresh traffic (counters restart at zero; the invariant must
    // hold anew).
    expect_post_recovery_conservation(recovered, 2'000, 700, 77);
  }
}

// Crafted journals: one well-formed window inserting edge (10, 11), then a
// CRC-valid record carrying `bad_edge`, which the matcher cannot take.
// Replay must apply the first window, stop before the second, and say so.
void expect_replay_rejects(const char* tag,
                           const std::vector<std::uint64_t>& bad_edge) {
  DirGuard g(temp_dir(tag));
  auto window = [](std::uint64_t seqno, std::uint64_t ticket,
                   const std::vector<std::uint64_t>& edge) {
    std::vector<std::uint64_t> w = {seqno, 0, 0, 1, 0, ticket, edge.size()};
    w.insert(w.end(), edge.begin(), edge.end());
    return w;
  };
  {
    util::io::RecordWriter wr;
    ASSERT_TRUE(wr.open(serve::journal_path(g.dir)));
    for (const auto& rec : {window(1, 0, {10, 11}), window(2, 1, bad_edge)})
      ASSERT_TRUE(
          wr.append(rec.data(), rec.size() * sizeof(std::uint64_t)));
    ASSERT_TRUE(wr.sync());
  }
  serve::MatchService svc(pinned_cfg(g.dir, serve::JournalPolicy::kCommit));
  EXPECT_EQ(svc.recovery_info().replayed_windows, 1u);
  EXPECT_EQ(svc.matcher().pool().live_count(), 1u);
  EXPECT_EQ(svc.matcher().matched_count(), 1u);
  EXPECT_TRUE(svc.recovery_info().rejected_record);
}

// A vertex word of 2^32 + 5 must not replay as vertex 5.
TEST(ServiceRecovery, ReplayRejectsVertexWordPast32Bits) {
  expect_replay_rejects("rej_wide", {(std::uint64_t{1} << 32) + 5, 6});
}

// A rank-3 edge does not fit a rank-2 matcher's fixed-stride pool rows.
TEST(ServiceRecovery, ReplayRejectsRankOverMatcherRank) {
  expect_replay_rejects("rej_rank", {7, 8, 9});
}

// Vertex 2^32 - 1 would wrap the matcher's vertex bound to 0; anything at
// or past max_vertices is refused before apply.
TEST(ServiceRecovery, ReplayRejectsVertexPastMaxVertices) {
  expect_replay_rejects("rej_vmax", {0xFFFF'FFFFull, 3});
}

// ---- the submit input contract --------------------------------------------

// submit_insert applies the same validate() as journal replay. Submits two
// out-of-range vertices (707 against max_vertices 700, and 2^32 - 1), an
// empty span and an edge over the matcher's rank, each between two valid
// inserts, the bad ones on the last lane. Each bad submit must be refused
// on the spot and counted, the service must keep committing, and a
// restart must recover every acknowledged edge -- no rejected record -- at
// the stopped service's fingerprint.
void expect_submit_refuses_what_replay_rejects(const char* tag,
                                               std::size_t max_batch,
                                               std::size_t lanes) {
  DirGuard g(temp_dir(tag));
  serve::ServiceConfig cfg = pinned_cfg(g.dir, serve::JournalPolicy::kCommit);
  cfg.former.max_batch = max_batch;
  cfg.admission.lanes = lanes;
  const auto bad_lane = static_cast<std::uint8_t>(lanes - 1);
  const VertexId past_bound[2] = {3, 707};
  const VertexId wraps[2] = {3, 0xFFFF'FFFFu};
  const VertexId over_rank[3] = {7, 8, 9};
  const std::span<const VertexId> bad[] = {
      {past_bound, 2}, {wraps, 2}, {}, {over_rank, 3}};
  std::vector<std::uint64_t> acked;
  std::uint64_t fp_stop = 0;
  {
    serve::MatchService svc(cfg);
    svc.start();
    VertexId next = 10;
    auto submit_valid = [&] {
      std::uint64_t t = svc.submit_insert(next, next + 1);
      next += 2;
      EXPECT_LT(t, serve::MatchService::kRefusedTicket);
      acked.push_back(t);
    };
    submit_valid();
    for (std::span<const VertexId> vs : bad) {
      EXPECT_EQ(svc.submit_insert(vs, bad_lane),
                serve::MatchService::kRefusedTicket);
      submit_valid();
    }
    svc.stop();
    EXPECT_EQ(svc.lane_report(bad_lane).refused, std::size(bad));
    for (std::size_t l = 0; l < lanes; ++l) {
      auto lr = svc.lane_report(l);
      EXPECT_EQ(lr.offered, lr.committed + lr.shed_reject + lr.shed_evict +
                                lr.shed_stale + lr.refused)
          << "lane " << l;
    }
    EXPECT_EQ(svc.matcher().pool().live_count(), acked.size());
    fp_stop = svc.recovery_fingerprint();
  }
  serve::MatchService recovered(cfg);
  EXPECT_FALSE(recovered.recovery_info().rejected_record);
  EXPECT_EQ(recovered.recovery_info().epoch_mismatches, 0u);
  EXPECT_EQ(recovered.matcher().pool().live_count(), acked.size());
  for (std::uint64_t t : acked)
    EXPECT_NE(recovered.edge_of_ticket(t), graph::kInvalidEdge)
        << "acknowledged ticket " << t << " lost in recovery";
  EXPECT_EQ(recovered.recovery_fingerprint(), fp_stop);
}

// One update per window: a bad submit that got through would be its own
// journal record, and replay would stop there.
TEST(SubmitContract, RefusesWhatReplayRejectsOneUpdatePerWindow) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert the submit contract instead";
#endif
  expect_submit_refuses_what_replay_rejects("contract_w1", 1, 1);
}

// Every valid insert shares one window with the others; the refusals are
// counted on their own lane.
TEST(SubmitContract, RefusesWhatReplayRejectsInASharedWindow) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert the submit contract instead";
#endif
  expect_submit_refuses_what_replay_rejects("contract_w64", 64, 2);
}

// ---- real SIGKILL crash points -------------------------------------------

constexpr std::size_t kCrashBatch = 16;
constexpr std::size_t kCrashUpdates = 600;
constexpr VertexId kCrashN = 512;

// Four priority lanes, so the recovered service's post-recovery traffic
// exercises per-lane conservation. The crash stream itself rides lane 0
// only: with several active lanes, window composition depends on lane-drain
// interleaving (run-vs-run identity is NOT claimed there -- see
// ShedPoliciesJournalOnlyCommittedOps), and the crash test compares against
// a separately-run uncrashed reference.
serve::ServiceConfig crash_cfg(const std::string& dir,
                               serve::JournalPolicy policy) {
  serve::ServiceConfig cfg = pinned_cfg(dir, policy, /*ckpt_every=*/8);
  cfg.matcher.seed = 7;
  cfg.max_vertices = kCrashN;
  cfg.former.max_batch = kCrashBatch;
  cfg.admission.lanes = 4;
  return cfg;
}

// Insert-only pinned-partition stream: journal seqno S covers exactly the
// first S*kCrashBatch submits, so the parent can reproduce the journaled
// prefix uncrashed.
void crash_child_body(const std::string& dir) {
  graph::EdgeBatch edges = gen::erdos_renyi(kCrashN, 2'000, 99);
  serve::MatchService svc(crash_cfg(dir, serve::JournalPolicy::kCommit));
  svc.start();
  for (std::size_t i = 0; i < kCrashUpdates; ++i)
    svc.submit_insert(edges.edge(i % edges.size()));
  svc.stop();  // unreachable when a crash knob is armed
}

TEST(RecoveryCrash, Child) {
  const char* dir = std::getenv("PARMATCH_RECOVERY_CHILD_DIR");
  if (dir == nullptr) GTEST_SKIP();
  crash_child_body(dir);
}

std::string self_path() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

// Runs the crash child with `fi_env` (e.g. "PARMATCH_FI_CRASH_AT=3")
// prepended; returns the raw wait status.
int run_crash_child(const std::string& dir, const std::string& fi_env) {
  std::string self = self_path();
  if (self.empty()) return -1;
  std::string cmd = fi_env + " PARMATCH_RECOVERY_CHILD_DIR=" + dir + " '" +
                    self + "' --gtest_filter=RecoveryCrash.Child " +
                    ">/dev/null 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (!p) return -1;
  char buf[128];
  while (std::fgets(buf, sizeof buf, p)) {
  }
  return pclose(p);
}

struct CrashScenario {
  const char* name;
  const char* fi_env;
  bool expect_truncation;
};

TEST(RecoveryCrash, BitIdenticalAfterEveryInjectedCrashPoint) {
  if (std::getenv("PARMATCH_RECOVERY_CHILD_DIR") != nullptr) GTEST_SKIP();
#ifndef __linux__
  GTEST_SKIP() << "re-exec via /proc/self/exe is linux-only";
#endif
  const CrashScenario scenarios[] = {
      // Clean kill after a fully written record (mid-stream window).
      {"mid_window", "PARMATCH_FI_CRASH_AT=3", false},
      // Crash past the first checkpoint, so recovery exercises
      // checkpoint-import + suffix replay, not just replay.
      {"post_ckpt", "PARMATCH_FI_CRASH_AT=13", false},
      // Torn tail: 11 bytes of the dying append reach the file.
      {"torn_tail", "PARMATCH_FI_CRASH_AT=5 PARMATCH_FI_TORN_TAIL=11", true},
      // Header-torn: not even the frame header survives.
      {"torn_header", "PARMATCH_FI_CRASH_AT=4 PARMATCH_FI_TORN_TAIL=3", true},
      // Nothing of the final frame written (crash between windows).
      {"torn_empty", "PARMATCH_FI_CRASH_AT=6 PARMATCH_FI_TORN_TAIL=0", false},
      // Record 6's payload flipped after its checksum, then a kill at
      // append 8: the open-time scan truncates at the corrupt record and
      // replay recovers the prefix before it.
      {"flip", "PARMATCH_FI_CRASH_AT=8 PARMATCH_FI_FLIP_BYTE=6", true},
  };
  for (const CrashScenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    DirGuard g(temp_dir((std::string("crash_") + sc.name).c_str()));
    int status = run_crash_child(g.dir, sc.fi_env);
    ASSERT_NE(status, -1);
    // The injected crash is a real SIGKILL, not an exit path. Depending on
    // whether the popen shell exec'd the test binary directly, the kill
    // surfaces as a signal status or as the shell's 128+SIGKILL exit code.
    bool killed = (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ||
                  (WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL);
    ASSERT_TRUE(killed) << "child exited cleanly instead of crashing; "
                        << "raw wait status " << status;

    // Recover.
    graph::EdgeBatch edges = gen::erdos_renyi(kCrashN, 2'000, 99);
    serve::MatchService recovered(
        crash_cfg(g.dir, serve::JournalPolicy::kCommit));
    const auto& info = recovered.recovery_info();
    EXPECT_TRUE(info.ran);
    EXPECT_FALSE(info.import_failed);
    EXPECT_EQ(info.epoch_mismatches, 0u);
    if (sc.expect_truncation) {
      EXPECT_GT(recovered.journal().truncated_bytes(), 0u);
    }

    // Uncrashed reference over exactly the journaled prefix.
    std::uint64_t last_seq =
        info.checkpoint_seqno + info.replayed_windows;
    ASSERT_GT(last_seq, 0u);
    std::size_t prefix = static_cast<std::size_t>(last_seq) * kCrashBatch;
    ASSERT_LE(prefix, kCrashUpdates);
    serve::MatchService reference(crash_cfg("", serve::JournalPolicy::kOff));
    reference.start();
    for (std::size_t i = 0; i < prefix; ++i)
      reference.submit_insert(edges.edge(i % edges.size()));
    reference.stop();  // kDrain flush covers a trailing partial window
    EXPECT_EQ(recovered.recovery_fingerprint(),
              reference.recovery_fingerprint())
        << "recovered state diverges from the uncrashed run";

    // 32 full windows: drain_until_idle never waits on a partial window
    // the pinned partition would hold back until stop().
    expect_post_recovery_conservation(recovered, 32 * kCrashBatch, kCrashN,
                                      91);
  }
}

}  // namespace
