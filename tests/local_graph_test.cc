// Tests for the LocalGraph visited-set bookkeeping.

#include "core/local_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "storage/disk_builder.h"
#include "storage/disk_graph.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::PaperExampleGraph;
using testing::RandomConnectedGraph;
using testing::SpreadWeightGraph;
using testing::ValueOrDie;

/// Checks every visited node's maintained OutMass and LoopMass against a
/// fresh scan of its fetched list, probing each unvisited neighbor's degree
/// through `accessor` (the coefficient refresh's former definition).
void ExpectMassesMatchScan(const LocalGraph& local, GraphAccessor* accessor,
                           const std::string& where) {
  for (LocalId i = 0; i < local.Size(); ++i) {
    const double wi = local.WeightedDegree(i);
    double out = 0;
    double loop = 0;
    for (const Neighbor& nb : local.Neighbors(i)) {
      if (local.Contains(nb.id)) continue;
      out += nb.weight / wi;
      loop += nb.weight / wi * (nb.weight / accessor->WeightedDegree(nb.id));
    }
    ASSERT_NEAR(local.OutMass(i), out, 1e-12) << where << ", local " << i;
    ASSERT_NEAR(local.LoopMass(i), loop, 1e-12) << where << ", local " << i;
  }
}

/// Checks every visited node's arena list against a fresh fetch of the
/// same node through `accessor`.
void ExpectListsMatchFetch(const LocalGraph& local, GraphAccessor* accessor,
                           const std::string& where) {
  std::vector<Neighbor> fresh;
  for (LocalId i = 0; i < local.Size(); ++i) {
    ASSERT_TRUE(accessor->CopyNeighbors(local.GlobalId(i), &fresh).ok());
    ASSERT_TRUE(std::ranges::equal(local.Neighbors(i), fresh))
        << where << ", local " << i;
  }
}

/// Expands every node in visit order (breadth first) until S holds
/// `target` nodes or nothing is left, calling `check(where)` after Init and
/// after each step.
template <typename Check>
void ExpandChecking(LocalGraph& local, uint32_t target, const Check& check) {
  ASSERT_NO_FATAL_FAILURE(check("Init"));
  for (LocalId u = 0; u < local.Size() && local.Size() < target; ++u) {
    ASSERT_TRUE(local.Expand(u).ok());
    ASSERT_NO_FATAL_FAILURE(
        check("after expanding local " + std::to_string(u)));
  }
}

void ExpandCheckingMasses(LocalGraph& local, GraphAccessor* accessor,
                          uint32_t target) {
  ExpandChecking(local, target, [&](const std::string& where) {
    ExpectMassesMatchScan(local, accessor, where);
  });
}

void ExpandCheckingLists(LocalGraph& local, GraphAccessor* accessor,
                         uint32_t target) {
  ExpandChecking(local, target, [&](const std::string& where) {
    ExpectListsMatchFetch(local, accessor, where);
  });
}

/// `snap` with the row arenas' dead entries zeroed. Abandoned slabs and
/// unused slab tails hold whatever the workspace's arena held before, so
/// two snapshots of one search state agree only on the live entries.
LocalGraphSnapshot LiveEntriesOnly(LocalGraphSnapshot snap) {
  std::vector<bool> live(snap.arena_used, false);
  for (LocalId i = 0; i < snap.Size(); ++i) {
    for (uint32_t e = 0; e < snap.row_len[i]; ++e) {
      live[snap.row_start[i] + e] = true;
    }
  }
  for (uint32_t e = 0; e < snap.arena_used; ++e) {
    if (live[e]) continue;
    snap.arena_idx[e] = 0;
    snap.arena_weight[e] = 0;
  }
  return snap;
}

/// Expands local ids [from, to) in order, stopping early if S runs out.
void ExpandRange(LocalGraph& local, LocalId from, LocalId to) {
  for (LocalId u = from; u < to && u < local.Size(); ++u) {
    FLOS_ASSERT_OK(local.Expand(u).status());
  }
}

TEST(LocalGraphTest, InitAddsQueryOnly) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  EXPECT_EQ(local.Size(), 1u);
  EXPECT_TRUE(local.Contains(0));
  EXPECT_FALSE(local.Contains(1));
  EXPECT_EQ(local.LocalIndex(0), 0u);
  EXPECT_EQ(local.LocalIndex(1), kInvalidLocal);
  EXPECT_EQ(local.GlobalId(0), 0u);
  EXPECT_TRUE(local.IsBoundary(0)) << "query has unvisited neighbors";
  EXPECT_EQ(local.OutsideCount(0), 2u);  // neighbors 2,3 (paper ids)
  EXPECT_DOUBLE_EQ(local.WeightedDegree(0), 2.0);
  EXPECT_FALSE(local.Init(0).ok()) << "double init must fail";
}

TEST(LocalGraphTest, ExpandTracksBoundaryAndRows) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  // Expand the query: S = {1,2,3} in paper ids.
  EXPECT_EQ(ValueOrDie(local.Expand(0)), 2u);
  EXPECT_EQ(local.Size(), 3u);
  EXPECT_FALSE(local.IsBoundary(0)) << "all of q's neighbors visited";
  // Node 2 (paper) has neighbors {1,4}: 4 unvisited.
  const LocalId l2 = local.LocalIndex(1);
  EXPECT_EQ(local.OutsideCount(l2), 1u);
  // Row of node 2 contains only the visited neighbor q with p = 1/2.
  const LocalRow row = local.Row(l2);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row.idx[0], local.LocalIndex(0));
  EXPECT_DOUBLE_EQ(row.weight[0], 0.5);
  EXPECT_FALSE(local.Exhausted());
}

TEST(LocalGraphTest, ReverseRowsArePatchedOnJoin) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  FLOS_ASSERT_OK(local.Expand(0).status());
  // Expand node 3 (paper): adds 4 and 5.
  const LocalId l3 = local.LocalIndex(2);
  FLOS_ASSERT_OK(local.Expand(l3).status());
  EXPECT_EQ(local.Size(), 5u);
  // Node 2's row must now also contain node 4 (p = 1/2).
  const LocalRow row2 = local.Row(local.LocalIndex(1));
  EXPECT_EQ(row2.size(), 2u);
  // Node 4's row has visited neighbors {2,3} with p = 1/4 each.
  const LocalRow row4 = local.Row(local.LocalIndex(3));
  EXPECT_EQ(row4.size(), 2u);
  for (uint32_t e = 0; e < row4.len; ++e) {
    EXPECT_DOUBLE_EQ(row4.weight[e], 0.25);
  }
}

TEST(LocalGraphTest, ExhaustionOnFullVisit) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  while (true) {
    LocalId pick = kInvalidLocal;
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (local.IsBoundary(i)) {
        pick = i;
        break;
      }
    }
    if (pick == kInvalidLocal) break;
    FLOS_ASSERT_OK(local.Expand(pick).status());
  }
  EXPECT_TRUE(local.Exhausted());
  EXPECT_EQ(local.BoundaryCount(), 0u);
  EXPECT_EQ(local.Size(), g.NumNodes());
  for (LocalId i = 0; i < local.Size(); ++i) {
    EXPECT_EQ(local.OutsideCount(i), 0u);
  }
  // Visited count equals accessor fetches.
  EXPECT_EQ(accessor.stats().neighbor_fetches, g.NumNodes());
}

TEST(LocalGraphTest, MaintainedBoundaryCountMatchesScan) {
  // The O(1) Exhausted()/BoundaryCount() must agree with a full scan of
  // the outside counts after EVERY expansion, across random graphs.
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Graph g = RandomConnectedGraph(120, 360, seed);
    InMemoryAccessor accessor(&g);
    LocalGraph local(&accessor);
    FLOS_ASSERT_OK(local.Init(static_cast<NodeId>(seed % g.NumNodes())));
    Rng rng(seed);
    while (!local.Exhausted()) {
      uint32_t scanned = 0;
      for (LocalId i = 0; i < local.Size(); ++i) {
        if (local.OutsideCount(i) > 0) ++scanned;
      }
      ASSERT_EQ(local.BoundaryCount(), scanned);
      ASSERT_EQ(local.Exhausted(), scanned == 0);
      // Expand a random boundary node.
      std::vector<LocalId> boundary;
      for (LocalId i = 0; i < local.Size(); ++i) {
        if (local.IsBoundary(i)) boundary.push_back(i);
      }
      ASSERT_FALSE(boundary.empty());
      const LocalId pick =
          boundary[rng.NextBounded(static_cast<uint64_t>(boundary.size()))];
      FLOS_ASSERT_OK(local.Expand(pick).status());
    }
    uint32_t scanned = 0;
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (local.OutsideCount(i) > 0) ++scanned;
    }
    EXPECT_EQ(scanned, 0u);
    EXPECT_EQ(local.BoundaryCount(), 0u);
  }
}

TEST(LocalGraphTest, RowInMassMatchesRowScan) {
  const Graph g = RandomConnectedGraph(100, 300, 5);
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(3));
  for (int step = 0; step < 12 && !local.Exhausted(); ++step) {
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (local.IsBoundary(i)) {
        FLOS_ASSERT_OK(local.Expand(i).status());
        break;
      }
    }
    for (LocalId i = 0; i < local.Size(); ++i) {
      const LocalRow row = local.Row(i);
      double sum = 0;
      for (uint32_t e = 0; e < row.len; ++e) sum += row.weight[e];
      ASSERT_DOUBLE_EQ(local.RowInMass(i), sum)
          << "maintained in-mass diverged from the row at node " << i;
    }
  }
}

TEST(LocalGraphTest, RowsSurviveSlabGrowthAndReset) {
  // A star center's row grows far past the minimum slab; every entry must
  // survive the copies, and a Reset+reinit must rebuild cleanly on the
  // kept arena.
  GraphBuilder builder;
  const int kLeaves = 70;
  for (int i = 1; i <= kLeaves; ++i) {
    builder.AddEdge(0, static_cast<NodeId>(i), 1.0);
  }
  const Graph g = ValueOrDie(std::move(builder).Build());
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  for (int round = 0; round < 3; ++round) {
    FLOS_ASSERT_OK(local.Init(1));  // a leaf: center joins, then leaves
    FLOS_ASSERT_OK(local.Expand(0).status());
    const LocalId center = local.LocalIndex(0);
    FLOS_ASSERT_OK(local.Expand(center).status());
    ASSERT_EQ(local.Size(), static_cast<uint32_t>(kLeaves + 1));
    const LocalRow row = local.Row(center);
    ASSERT_EQ(row.size(), static_cast<uint32_t>(kLeaves));
    double sum = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      EXPECT_DOUBLE_EQ(row.weight[e], 1.0 / kLeaves);
      sum += row.weight[e];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_TRUE(local.Exhausted());
    local.Reset();
  }
}

TEST(LocalGraphTest, ExpansionProbesOneDegreePerVisitedNode) {
  // Joining S reads the new node's own degree and nothing else per
  // neighbor: no probes for unvisited neighbors, no per-neighbor cache.
  GeneratorOptions rand;
  rand.num_nodes = 10000;
  rand.num_edges = 50000;
  rand.seed = 3;
  const Graph graphs[] = {PaperExampleGraph(),
                          ValueOrDie(GenerateErdosRenyi(rand))};
  for (const Graph& g : graphs) {
    InMemoryAccessor accessor(&g);
    LocalGraph local(&accessor);
    FLOS_ASSERT_OK(local.Init(0));
    EXPECT_EQ(accessor.stats().degree_probes, local.Size());
    // Breadth-first expansion in visit order until S holds ~2000 nodes
    // (the whole component of the paper graph).
    for (LocalId u = 0; u < local.Size() && local.Size() < 2000; ++u) {
      FLOS_ASSERT_OK(local.Expand(u).status());
      ASSERT_EQ(accessor.stats().degree_probes, local.Size())
          << "after expanding local " << u;
    }
    EXPECT_GT(local.Size(), 1u);
    EXPECT_EQ(accessor.stats().neighbor_fetches, local.Size());
  }
}

TEST(LocalGraphTest, BoundaryMassesMatchScanOnErAndHubGraphs) {
  GeneratorOptions rand;
  rand.num_nodes = 2000;
  rand.num_edges = 10000;
  rand.seed = 5;
  const Graph graphs[] = {ValueOrDie(GenerateErdosRenyi(rand)),
                          SpreadWeightGraph(2000, 6000, 7, /*hub_degree=*/800)};
  for (const Graph& g : graphs) {
    InMemoryAccessor accessor(&g);
    LocalGraph local(&accessor);
    // Node 0 is the hub of the second graph: the query row is wide from
    // the start, and every hub neighbor's join subtracts from it.
    for (const NodeId q : {NodeId{0}, NodeId{17}}) {
      FLOS_ASSERT_OK(local.Init(q));
      ASSERT_NO_FATAL_FAILURE(ExpandCheckingMasses(local, &accessor, 600));
      local.Reset();
    }
  }
}

TEST(LocalGraphTest, BoundaryMassesSurviveSnapshotRoundTrip) {
  const Graph g = SpreadWeightGraph(1000, 4000, 9, /*hub_degree=*/200);
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(3));
  for (LocalId u = 0; u < 5; ++u) FLOS_ASSERT_OK(local.Expand(u).status());
  LocalGraphSnapshot snap;
  local.SaveSnapshot(&snap);
  LocalGraph restored(&accessor);
  restored.RestoreSnapshot(snap);
  ASSERT_EQ(restored.Size(), local.Size());
  for (LocalId i = 0; i < local.Size(); ++i) {
    EXPECT_EQ(restored.OutMass(i), local.OutMass(i));
    EXPECT_EQ(restored.LoopMass(i), local.LoopMass(i));
  }
  // The restored workspace keeps maintaining them as it grows.
  ASSERT_NO_FATAL_FAILURE(ExpandCheckingMasses(restored, &accessor, 400));
}

TEST(LocalGraphTest, BoundaryMassesMatchScanOnTruncatedShardRows) {
  const Graph g = SpreadWeightGraph(600, 1500, 11);
  PartitionOptions options;
  options.num_shards = 2;
  options.halo_hops = 1;
  const GraphPartition part = ValueOrDie(PartitionGraph(g, options));
  for (const ShardPart& shard : part.shards) {
    ShardAccessor accessor(&shard.graph, &shard.meta);
    LocalGraph local(&accessor);
    NodeId q = 0;  // a core node with edges
    while (shard.graph.Degree(q) == 0) ++q;
    ASSERT_LT(q, shard.meta.num_core);
    FLOS_ASSERT_OK(local.Init(q));
    ASSERT_NO_FATAL_FAILURE(ExpandCheckingMasses(local, &accessor, 10000));
    // Breadth first from a core node reaches the fringe, whose visible
    // lists sum to less than the global degree.
    EXPECT_TRUE(local.HasTruncatedRows());
  }
}

TEST(LocalGraphTest, BoundaryMassesMatchScanOnDiskGraph) {
  const Graph g = SpreadWeightGraph(1000, 4000, 13, /*hub_degree=*/200);
  const std::string path = ::testing::TempDir() + "/local_graph_masses.fdg";
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  auto disk = ValueOrDie(DiskGraph::Open(path, DiskGraphOptions{}));
  LocalGraph local(disk.get());
  FLOS_ASSERT_OK(local.Init(0));
  ASSERT_NO_FATAL_FAILURE(ExpandCheckingMasses(local, disk.get(), 500));
  // Through the default TwoStepReturn the masses equal the in-memory ones.
  InMemoryAccessor accessor(&g);
  LocalGraph in_memory(&accessor);
  FLOS_ASSERT_OK(in_memory.Init(0));
  for (LocalId u = 0; u < in_memory.Size() && in_memory.Size() < local.Size();
       ++u) {
    FLOS_ASSERT_OK(in_memory.Expand(u).status());
  }
  ASSERT_EQ(in_memory.Size(), local.Size());
  for (LocalId i = 0; i < local.Size(); ++i) {
    EXPECT_EQ(in_memory.OutMass(i), local.OutMass(i));
    EXPECT_EQ(in_memory.LoopMass(i), local.LoopMass(i));
  }
}

TEST(LocalGraphTest, ArenaListsMatchFreshFetchOnEveryAccessor) {
  GeneratorOptions rand;
  rand.num_nodes = 2000;
  rand.num_edges = 10000;
  rand.seed = 21;
  const Graph graphs[] = {ValueOrDie(GenerateErdosRenyi(rand)),
                          SpreadWeightGraph(2000, 6000, 23, /*hub_degree=*/800)};
  for (const Graph& g : graphs) {
    InMemoryAccessor accessor(&g);
    LocalGraph local(&accessor);
    // The second query reuses the first one's arena: stale lists past the
    // tail must never show through.
    for (const NodeId q : {NodeId{0}, NodeId{17}}) {
      FLOS_ASSERT_OK(local.Init(q));
      ASSERT_NO_FATAL_FAILURE(ExpandCheckingLists(local, &accessor, 500));
      local.Reset();
    }
  }

  const Graph sharded = SpreadWeightGraph(600, 1500, 25);
  PartitionOptions options;
  options.num_shards = 2;
  options.halo_hops = 1;
  const GraphPartition part = ValueOrDie(PartitionGraph(sharded, options));
  for (const ShardPart& shard : part.shards) {
    ShardAccessor accessor(&shard.graph, &shard.meta);
    LocalGraph local(&accessor);
    NodeId q = 0;
    while (shard.graph.Degree(q) == 0) ++q;
    FLOS_ASSERT_OK(local.Init(q));
    ASSERT_NO_FATAL_FAILURE(ExpandCheckingLists(local, &accessor, 10000));
  }

  const Graph on_disk = SpreadWeightGraph(1000, 4000, 27, /*hub_degree=*/200);
  const std::string path = ::testing::TempDir() + "/local_graph_lists.fdg";
  FLOS_ASSERT_OK(WriteDiskGraph(on_disk, path));
  auto disk = ValueOrDie(DiskGraph::Open(path, DiskGraphOptions{}));
  LocalGraph local(disk.get());
  FLOS_ASSERT_OK(local.Init(0));
  ASSERT_NO_FATAL_FAILURE(ExpandCheckingLists(local, disk.get(), 400));
}

TEST(LocalGraphTest, ResetAndRerunReproducesTheSnapshot) {
  const Graph g = SpreadWeightGraph(3000, 12000, 29, /*hub_degree=*/400);
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  LocalGraphSnapshot first;
  FLOS_ASSERT_OK(local.Init(5));
  ASSERT_NO_FATAL_FAILURE(ExpandRange(local, 0, 40));
  local.SaveSnapshot(&first);
  local.Reset();
  // A larger query in between leaves every arena longer than the rerun.
  FLOS_ASSERT_OK(local.Init(0));
  ASSERT_NO_FATAL_FAILURE(ExpandRange(local, 0, 200));
  ASSERT_GT(local.Size(), first.Size());
  local.Reset();
  LocalGraphSnapshot again;
  FLOS_ASSERT_OK(local.Init(5));
  ASSERT_NO_FATAL_FAILURE(ExpandRange(local, 0, 40));
  local.SaveSnapshot(&again);
  EXPECT_TRUE(again.neighbor_list == first.neighbor_list);
  EXPECT_TRUE(LiveEntriesOnly(again) == LiveEntriesOnly(first));
}

TEST(LocalGraphTest, RestoreThenExpandEqualsAnUninterruptedRun) {
  const Graph g = SpreadWeightGraph(3000, 12000, 31, /*hub_degree=*/400);
  InMemoryAccessor accessor(&g);
  LocalGraph uninterrupted(&accessor);
  FLOS_ASSERT_OK(uninterrupted.Init(7));
  ASSERT_NO_FATAL_FAILURE(ExpandRange(uninterrupted, 0, 10));
  LocalGraphSnapshot midway;
  uninterrupted.SaveSnapshot(&midway);
  ASSERT_NO_FATAL_FAILURE(ExpandRange(uninterrupted, 10, 60));
  LocalGraphSnapshot want;
  uninterrupted.SaveSnapshot(&want);

  // Restore into a workspace that served another query first, so the
  // restored lists land over stale arena contents.
  LocalGraph resumed(&accessor);
  FLOS_ASSERT_OK(resumed.Init(0));
  ASSERT_NO_FATAL_FAILURE(ExpandRange(resumed, 0, 100));
  resumed.Reset();
  resumed.RestoreSnapshot(midway);
  ASSERT_NO_FATAL_FAILURE(ExpandRange(resumed, 10, 60));
  LocalGraphSnapshot got;
  resumed.SaveSnapshot(&got);
  EXPECT_TRUE(got.neighbor_list == want.neighbor_list);
  EXPECT_TRUE(LiveEntriesOnly(got) == LiveEntriesOnly(want));
  ASSERT_NO_FATAL_FAILURE(ExpectListsMatchFetch(resumed, &accessor, "resumed"));
}

TEST(LocalGraphTest, RejectsBadIds) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  LocalGraph local(&accessor);
  EXPECT_FALSE(local.Init(100).ok());
  LocalGraph local2(&accessor);
  FLOS_ASSERT_OK(local2.Init(0));
  EXPECT_FALSE(local2.Expand(55).ok());
}

}  // namespace
}  // namespace flos
