// Tests for the warm-subgraph cache (core/subgraph_cache.h): LRU and
// keying unit tests mirroring query_cache_test.cc, the repeat-miss
// admission rule, eviction that never destroys a snapshot under the lock,
// the end-to-end warm path (a warm resume answers exactly what a cold
// search answers, across k values and the measures sharing a fixed
// point), exact epoch-based invalidation against a mutating DynamicGraph,
// and the FLOS_AUDIT backstop that a stale-epoch snapshot is never served.

#include "core/subgraph_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "core/measure_traits.h"
#include "graph/accessor.h"
#include "graph/dynamic_graph.h"
#include "measures/exact.h"
#include "tests/test_util.h"
#include "util/check.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

SubgraphCache::Key TestKey(NodeId seed, uint64_t epoch = 0) {
  SubgraphCache::Key key;
  key.seed = seed;
  key.family = BoundFamily::kFixedPoint;
  key.alpha = 0.5;
  key.horizon = 0;
  key.epoch = epoch;
  return key;
}

std::shared_ptr<const SubgraphSnapshot> FakeSnapshot(NodeId seed) {
  auto snap = std::make_shared<SubgraphSnapshot>();
  snap->local.query = seed;
  snap->local.query_count = 1;
  snap->local.local_to_global = {seed, seed + 1};
  snap->bounds = {1.0, 1.0, 0.1, 0.4};
  return snap;
}

TEST(SubgraphCacheTest, MissThenHitReturnsStoredSnapshot) {
  SubgraphCache cache(4);
  EXPECT_EQ(cache.Lookup(TestKey(7)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.Insert(TestKey(7), FakeSnapshot(7));
  EXPECT_EQ(cache.size(), 1u);
  const auto snap = cache.Lookup(TestKey(7));
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(snap->local.query, 7u);
  EXPECT_EQ(snap->bounds.size(), 2 * snap->local.Size());
}

TEST(SubgraphCacheTest, KeyFieldsAllDiscriminate) {
  SubgraphCache cache(16);
  cache.Insert(TestKey(7), FakeSnapshot(7));
  SubgraphCache::Key other = TestKey(8);
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = TestKey(7);
  other.family = BoundFamily::kHorizonDp;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = TestKey(7);
  other.alpha = 0.6;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = TestKey(7);
  other.horizon = 10;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = TestKey(7);
  other.epoch = 1;
  EXPECT_EQ(cache.Lookup(other), nullptr)
      << "a bumped epoch must never match an older snapshot";
}

TEST(SubgraphCacheTest, SharedFixedPointMeasuresShareKeys) {
  // PHP at c, EI/DHT at 1-c, and RWR at the same alpha reduce to the same
  // internal fixed point — MakeKey must collapse them to one entry, and
  // THT must key separately (horizon, not alpha). Sharing happens when the
  // resulting alphas are bit-identical; a dyadic c makes 1 - c exact so
  // the identity is testable without fp slack.
  const double c = 0.25;
  const auto php = BoundTraitsFor(Measure::kPhp, c, 12);
  const auto ei = BoundTraitsFor(Measure::kEi, 1.0 - c, 12);
  const auto dht = BoundTraitsFor(Measure::kDht, 1.0 - c, 12);
  const auto tht = BoundTraitsFor(Measure::kTht, c, 12);
  const auto k_php = SubgraphCache::MakeKey(5, php, 0);
  EXPECT_EQ(k_php, SubgraphCache::MakeKey(5, ei, 0));
  EXPECT_EQ(k_php, SubgraphCache::MakeKey(5, dht, 0));
  const auto k_tht = SubgraphCache::MakeKey(5, tht, 0);
  EXPECT_FALSE(k_php == k_tht);
  EXPECT_EQ(k_tht.alpha, 0.0) << "horizon family must not key on alpha";
  EXPECT_EQ(k_tht.horizon, 12);
}

TEST(SubgraphCacheTest, EvictsLeastRecentlyUsed) {
  SubgraphCache cache(2);
  cache.Insert(TestKey(1), FakeSnapshot(1));
  cache.Insert(TestKey(2), FakeSnapshot(2));
  ASSERT_NE(cache.Lookup(TestKey(1)), nullptr);  // freshen 1 -> 2 is LRU
  cache.Insert(TestKey(3), FakeSnapshot(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(TestKey(2)), nullptr)
      << "key 2 was least recently used and must be evicted";
  EXPECT_NE(cache.Lookup(TestKey(1)), nullptr);
  EXPECT_NE(cache.Lookup(TestKey(3)), nullptr);
}

TEST(SubgraphCacheTest, ZeroCapacityDisablesAdmission) {
  SubgraphCache cache(0);
  EXPECT_FALSE(cache.Admit(TestKey(1)));
  EXPECT_FALSE(cache.Admit(TestKey(1))) << "capacity 0 admits nothing";
  cache.Insert(TestKey(1), FakeSnapshot(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(TestKey(1)), nullptr);
}

TEST(SubgraphCacheTest, SnapshotSurvivesEviction) {
  // shared_ptr<const> contract: a snapshot handed to a reader stays valid
  // after the LRU drops the entry.
  SubgraphCache cache(1);
  cache.Insert(TestKey(1), FakeSnapshot(1));
  const auto held = cache.Lookup(TestKey(1));
  ASSERT_NE(held, nullptr);
  cache.Insert(TestKey(2), FakeSnapshot(2));  // evicts key 1
  EXPECT_EQ(cache.Lookup(TestKey(1)), nullptr);
  EXPECT_EQ(held->local.query, 1u) << "held snapshot must stay readable";
}

TEST(SubgraphCacheTest, FirstMissIsRecordedNotAdmitted) {
  SubgraphCache cache(4);
  EXPECT_FALSE(cache.Admit(TestKey(7)))
      << "a seed seen once must not pay for a snapshot";
  EXPECT_FALSE(cache.Admit(TestKey(8)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SubgraphCacheTest, SecondMissIsAdmitted) {
  SubgraphCache cache(4);
  ASSERT_FALSE(cache.Admit(TestKey(7)));
  EXPECT_TRUE(cache.Admit(TestKey(7)))
      << "a repeat miss must be admitted";
  EXPECT_FALSE(cache.Admit(TestKey(7, /*epoch=*/1)))
      << "the epoch is part of the key: a new topology starts over";
}

TEST(SubgraphCacheTest, CachedKeyIsAdmitted) {
  // A warm run that moved past its entry refreshes it without first
  // being recorded as a miss.
  SubgraphCache cache(4);
  cache.Insert(TestKey(7), FakeSnapshot(7));
  EXPECT_TRUE(cache.Admit(TestKey(7)));
}

TEST(SubgraphCacheTest, EvictedSnapshotIsFreedOutsideTheLock) {
  // The snapshot's deleter runs wherever its last reference dies, here
  // inside the Insert that evicts it. It waits up to 2 s for a Lookup on
  // another thread; that Lookup can only finish meanwhile if Insert has
  // released the cache lock before destroying what it evicted.
  SubgraphCache cache(1);
  std::atomic<bool> deleting{false};
  std::atomic<bool> lookup_done{false};
  bool lookup_finished_first = false;
  cache.Insert(
      TestKey(1),
      std::shared_ptr<const SubgraphSnapshot>(
          new SubgraphSnapshot(*FakeSnapshot(1)),
          [&](const SubgraphSnapshot* snap) {
            deleting = true;
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(2);
            while (!lookup_done && std::chrono::steady_clock::now() < give_up) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            lookup_finished_first = lookup_done;
            delete snap;
          }));
  std::thread reader([&] {
    while (!deleting) std::this_thread::yield();
    (void)cache.Lookup(TestKey(3));
    lookup_done = true;
  });
  cache.Insert(TestKey(2), FakeSnapshot(2));  // evicts key 1
  reader.join();
  EXPECT_TRUE(lookup_finished_first)
      << "a Lookup stalled behind the destruction of an evicted snapshot";
  EXPECT_NE(cache.Lookup(TestKey(2)), nullptr);
}

// --------------------------------------------------------------------------
// End-to-end warm path through FlosEngine.

std::vector<NodeId> SortedNodes(const FlosResult& r) {
  std::vector<NodeId> nodes;
  for (const ScoredNode& s : r.topk) nodes.push_back(s.node);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

TEST(SubgraphCacheTest, WarmResumeAnswersEqualColdGroundTruth) {
  const Graph g = RandomConnectedGraph(400, 1600, 19);
  DynamicGraph dyn{g};
  SubgraphCache cache(16);
  FlosEngine engine(&dyn);
  engine.set_subgraph_cache(&cache);
  const NodeId q = 5;
  FlosOptions options;
  options.measure = Measure::kPhp;

  const FlosResult first = ValueOrDie(engine.TopK(q, 10, options));
  ASSERT_TRUE(first.stats.exact);
  EXPECT_FALSE(first.stats.subgraph_deposited);
  EXPECT_EQ(cache.size(), 0u) << "a first miss only records the seed";

  const FlosResult cold = ValueOrDie(engine.TopK(q, 10, options));
  ASSERT_TRUE(cold.stats.exact);
  EXPECT_FALSE(cold.stats.subgraph_hit);
  EXPECT_TRUE(cold.stats.subgraph_deposited);
  EXPECT_EQ(cache.size(), 1u) << "certified repeat miss must deposit";

  const FlosResult warm = ValueOrDie(engine.TopK(q, 10, options));
  EXPECT_TRUE(warm.stats.subgraph_hit);
  EXPECT_FALSE(warm.stats.cache_hit)
      << "no result cache attached; the warm run recomputed the answer";
  ASSERT_TRUE(warm.stats.exact);
  EXPECT_EQ(warm.stats.expansions, 0u)
      << "a warm seed must skip the expansion phase entirely";
  EXPECT_EQ(SortedNodes(warm), SortedNodes(cold));
  const auto exact = ValueOrDie(ExactPhp(g, q, 0.5));
  for (const ScoredNode& s : warm.topk) {
    EXPECT_GE(exact[s.node], s.lower - 1e-7);
    EXPECT_LE(exact[s.node], s.upper + 1e-7);
  }
}

TEST(SubgraphCacheTest, SnapshotRoundTripIsLosslessAndCertifies) {
  const Graph g = RandomConnectedGraph(2000, 8000, 43);
  InMemoryAccessor accessor(&g);
  SubgraphCache cache(4);
  FlosEngine engine(&accessor);
  engine.set_subgraph_cache(&cache);
  FlosOptions options;
  options.measure = Measure::kPhp;
  const NodeId q = 11;
  (void)ValueOrDie(engine.TopK(q, 10, options));  // records the seed
  const FlosResult cold = ValueOrDie(engine.TopK(q, 10, options));
  ASSERT_TRUE(cold.stats.exact);
  const auto deposit = cache.Lookup(SubgraphCache::MakeKey(
      q, BoundTraitsFor(options.measure, options.c, options.tht_length),
      accessor.Epoch()));
  ASSERT_NE(deposit, nullptr);
  const LocalGraphSnapshot& saved = deposit->local;
  ASSERT_GT(saved.Size(), 1u);
  ASSERT_EQ(saved.neighbor_offsets.size(), saved.Size() + 1);
  ASSERT_EQ(saved.neighbor_list.size(), saved.neighbor_offsets.back());

  // Restore into a workspace that already served a larger query, so the
  // restore lands on longer list and row arenas holding stale entries.
  InMemoryAccessor other(&g);
  LocalGraph local(&other);
  FLOS_ASSERT_OK(local.Init(q + 1));
  for (LocalId u = 0; u < local.Size() && local.Size() < 2 * saved.Size();
       ++u) {
    FLOS_ASSERT_OK(local.Expand(u).status());
  }
  local.Reset();
  local.RestoreSnapshot(saved);  // AuditBookkeeping runs here under audit
  ASSERT_EQ(local.Size(), saved.Size());
  for (LocalId i = 0; i < local.Size(); ++i) {
    ASSERT_EQ(local.LocalIndex(saved.local_to_global[i]), i);
  }
  LocalGraphSnapshot again;
  local.SaveSnapshot(&again);
  EXPECT_EQ(again.neighbor_offsets, saved.neighbor_offsets);
  EXPECT_TRUE(again.neighbor_list == saved.neighbor_list);
  EXPECT_EQ(again.arena_idx, saved.arena_idx);
  EXPECT_EQ(again.arena_weight, saved.arena_weight);
  EXPECT_TRUE(again == saved) << "save -> restore -> save must be lossless";

  // The engine's own restore of the deposit certifies the cold answer.
  const FlosResult warm = ValueOrDie(engine.TopK(q, 10, options));
  EXPECT_TRUE(warm.stats.subgraph_hit);
  ASSERT_TRUE(warm.stats.exact);
  EXPECT_EQ(warm.stats.expansions, 0u);
  EXPECT_EQ(SortedNodes(warm), SortedNodes(cold));
}

TEST(SubgraphCacheTest, SnapshotServesDifferentKAndSharedMeasures) {
  const Graph g = RandomConnectedGraph(400, 1600, 29);
  DynamicGraph dyn{g};
  SubgraphCache cache(16);
  FlosEngine engine(&dyn);
  engine.set_subgraph_cache(&cache);
  FlosOptions options;
  options.measure = Measure::kPhp;
  options.c = 0.5;
  (void)ValueOrDie(engine.TopK(8, 10, options));  // records the seed
  const FlosResult cold = ValueOrDie(engine.TopK(8, 10, options));
  ASSERT_TRUE(cold.stats.exact);
  ASSERT_EQ(cache.size(), 1u);

  // Same seed, different k: keying ignores k, so this must warm-hit.
  const FlosResult smaller_k = ValueOrDie(engine.TopK(8, 5, options));
  EXPECT_TRUE(smaller_k.stats.subgraph_hit);
  ASSERT_TRUE(smaller_k.stats.exact);

  // RWR at alpha = 1 - c solves the same fixed point; the snapshot is
  // shared even though the ranking (degree-weighted) differs.
  FlosOptions rwr = options;
  rwr.measure = Measure::kRwr;
  const FlosResult rwr_result = ValueOrDie(engine.TopK(8, 10, rwr));
  EXPECT_TRUE(rwr_result.stats.subgraph_hit);
  ASSERT_TRUE(rwr_result.stats.exact);
  const auto exact_rwr = ValueOrDie(ExactRwr(g, 8, 0.5));
  testing::ExpectTopKMatchesScores(
      [&] {
        std::vector<NodeId> nodes;
        for (const auto& s : rwr_result.topk) nodes.push_back(s.node);
        return nodes;
      }(),
      exact_rwr, 8, 10, Direction::kMaximize, 1e-6);
}

TEST(SubgraphCacheTest, EpochBumpInvalidatesExactly) {
  const Graph g = RandomConnectedGraph(300, 1200, 37);
  DynamicGraph dyn{g};
  SubgraphCache cache(16);
  FlosEngine engine(&dyn);
  engine.set_subgraph_cache(&cache);
  FlosOptions options;
  const NodeId q = 5;
  const FlosResult first = ValueOrDie(engine.TopK(q, 8, options));
  ASSERT_TRUE(first.stats.exact);

  const uint64_t epoch_before = dyn.Epoch();
  FLOS_ASSERT_OK(dyn.AddEdge(q, 250, 3.0));
  ASSERT_GT(dyn.Epoch(), epoch_before);

  const FlosResult after = ValueOrDie(engine.TopK(q, 8, options));
  EXPECT_FALSE(after.stats.subgraph_hit)
      << "a graph update must invalidate the warm snapshot";
  ASSERT_TRUE(after.stats.exact);
  const FlosResult fresh = ValueOrDie(FlosTopK(&dyn, q, 8, options));
  ASSERT_EQ(after.topk.size(), fresh.topk.size());
  for (size_t i = 0; i < fresh.topk.size(); ++i) {
    EXPECT_EQ(after.topk[i].node, fresh.topk[i].node);
    EXPECT_NEAR(after.topk[i].score, fresh.topk[i].score, 1e-12);
  }
  // The post-update run was a first miss under the new epoch; the next
  // one deposits, and the query after that is warm.
  EXPECT_FALSE(after.stats.subgraph_deposited);
  const FlosResult again = ValueOrDie(engine.TopK(q, 8, options));
  EXPECT_TRUE(again.stats.subgraph_deposited);
  const FlosResult warm = ValueOrDie(engine.TopK(q, 8, options));
  EXPECT_TRUE(warm.stats.subgraph_hit);
}

TEST(SubgraphCacheTest, ClippedQueriesAreNotEligible) {
  const Graph g = RandomConnectedGraph(300, 1200, 43);
  DynamicGraph dyn{g};
  SubgraphCache cache(16);
  FlosEngine engine(&dyn);
  engine.set_subgraph_cache(&cache);
  // Snapshots must describe the full best-first expansion for their key;
  // clipped searches (visited caps, shard halo limits) may neither
  // deposit nor consume. Each runs twice, so a repeat miss would have been
  // admitted had it been eligible.
  FlosOptions clipped;
  clipped.max_visited = 16;
  for (int run = 0; run < 2; ++run) {
    const FlosResult capped = ValueOrDie(engine.TopK(5, 8, clipped));
    EXPECT_FALSE(capped.stats.subgraph_hit);
    EXPECT_FALSE(capped.stats.subgraph_deposited);
  }
  EXPECT_EQ(cache.size(), 0u);
  FlosOptions limited;
  limited.expandable_limit = 64;
  for (int run = 0; run < 2; ++run) {
    (void)ValueOrDie(engine.TopK(5, 8, limited));
  }
  EXPECT_EQ(cache.size(), 0u);
}

#if FLOS_AUDIT_ENABLED

using SubgraphCacheDeathTest = ::testing::Test;

TEST(SubgraphCacheDeathTest, ServingAStaleEpochTripsTheAudit) {
  SubgraphCache cache(4);
  cache.Insert(TestKey(7), FakeSnapshot(7));
  // Simulate the impossible: an entry whose stored epoch disagrees with
  // the key it is filed under (only corruption or an invalidation bug can
  // produce this). The audit tier must refuse to serve it.
  ASSERT_TRUE(cache.CorruptEpochForTest(TestKey(7), /*stored_epoch=*/99));
  EXPECT_DEATH(cache.Lookup(TestKey(7)),
               "subgraph cache serving a stale graph epoch");
}

#endif  // FLOS_AUDIT_ENABLED

}  // namespace
}  // namespace flos
