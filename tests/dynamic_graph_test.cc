// Tests for the updatable DynamicGraph: merged views, online degree
// maintenance, equivalence with rebuilt static graphs, and FLoS answering
// correctly immediately after updates (the paper's no-preprocessing
// motivation).

#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/flos.h"
#include "measures/exact.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

TEST(DynamicGraphTest, StartsEqualToBase) {
  const Graph base = RandomConnectedGraph(100, 300, 3);
  DynamicGraph dyn{Graph(base)};
  EXPECT_EQ(dyn.NumNodes(), base.NumNodes());
  EXPECT_EQ(dyn.NumEdges(), base.NumEdges());
  EXPECT_EQ(dyn.delta_edges(), 0u);
  std::vector<Neighbor> got;
  InMemoryAccessor mem(&base);
  std::vector<Neighbor> expected;
  for (NodeId u = 0; u < base.NumNodes(); ++u) {
    FLOS_ASSERT_OK(dyn.CopyNeighbors(u, &got));
    FLOS_ASSERT_OK(mem.CopyNeighbors(u, &expected));
    ASSERT_EQ(got, expected) << "node " << u;
    EXPECT_DOUBLE_EQ(dyn.WeightedDegree(u), base.WeightedDegree(u));
  }
  EXPECT_EQ(dyn.DegreeOrder(), base.DegreeOrder());
}

TEST(DynamicGraphTest, InsertionsMergeAndAccumulate) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 1.0));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2, 2.0));
  DynamicGraph dyn{ValueOrDie(std::move(builder).Build())};
  // New edge.
  FLOS_ASSERT_OK(dyn.AddEdge(0, 2, 3.0));
  EXPECT_EQ(dyn.NumEdges(), 3u);
  // Weight increment on a base edge: edge count unchanged.
  FLOS_ASSERT_OK(dyn.AddEdge(0, 1, 0.5));
  EXPECT_EQ(dyn.NumEdges(), 3u);
  std::vector<Neighbor> nbs;
  FLOS_ASSERT_OK(dyn.CopyNeighbors(0, &nbs));
  ASSERT_EQ(nbs.size(), 2u);
  EXPECT_EQ(nbs[0].id, 1u);
  EXPECT_DOUBLE_EQ(nbs[0].weight, 1.5);
  EXPECT_EQ(nbs[1].id, 2u);
  EXPECT_DOUBLE_EQ(nbs[1].weight, 3.0);
  EXPECT_DOUBLE_EQ(dyn.WeightedDegree(0), 4.5);
  // Increment on a delta edge.
  FLOS_ASSERT_OK(dyn.AddEdge(2, 0, 1.0));
  FLOS_ASSERT_OK(dyn.CopyNeighbors(0, &nbs));
  EXPECT_DOUBLE_EQ(nbs[1].weight, 4.0);
  EXPECT_EQ(dyn.NumEdges(), 3u);
}

TEST(DynamicGraphTest, RejectsBadInsertions) {
  DynamicGraph dyn{testing::RandomConnectedGraph(10, 15, 1)};
  EXPECT_FALSE(dyn.AddEdge(0, 0).ok());
  EXPECT_FALSE(dyn.AddEdge(0, 99).ok());
  EXPECT_FALSE(dyn.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(dyn.AddEdge(0, 1, -2.0).ok());
}

TEST(DynamicGraphTest, AddNodeGrowsIdSpace) {
  DynamicGraph dyn{testing::RandomConnectedGraph(10, 15, 2)};
  const NodeId fresh = dyn.AddNode();
  EXPECT_EQ(fresh, 10u);
  EXPECT_EQ(dyn.NumNodes(), 11u);
  EXPECT_DOUBLE_EQ(dyn.WeightedDegree(fresh), 0.0);
  FLOS_ASSERT_OK(dyn.AddEdge(fresh, 3, 2.0));
  std::vector<Neighbor> nbs;
  FLOS_ASSERT_OK(dyn.CopyNeighbors(fresh, &nbs));
  ASSERT_EQ(nbs.size(), 1u);
  EXPECT_EQ(nbs[0].id, 3u);
}

TEST(DynamicGraphTest, RandomUpdatesMatchRebuiltStaticGraph) {
  const Graph base = RandomConnectedGraph(150, 300, 5);
  DynamicGraph dyn{Graph(base)};
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
    const auto v = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
    if (u == v) continue;
    FLOS_ASSERT_OK(dyn.AddEdge(u, v, 0.25 + rng.NextDouble()));
  }
  const Graph snapshot = ValueOrDie(dyn.Snapshot());
  InMemoryAccessor mem(&snapshot);
  std::vector<Neighbor> got;
  std::vector<Neighbor> expected;
  for (NodeId u = 0; u < dyn.NumNodes(); ++u) {
    FLOS_ASSERT_OK(dyn.CopyNeighbors(u, &got));
    FLOS_ASSERT_OK(mem.CopyNeighbors(u, &expected));
    ASSERT_EQ(got.size(), expected.size()) << "node " << u;
    for (size_t e = 0; e < got.size(); ++e) {
      EXPECT_EQ(got[e].id, expected[e].id);
      EXPECT_NEAR(got[e].weight, expected[e].weight, 1e-12);
    }
    EXPECT_NEAR(dyn.WeightedDegree(u), snapshot.WeightedDegree(u), 1e-9);
  }
  EXPECT_EQ(dyn.DegreeOrder(), snapshot.DegreeOrder());
  EXPECT_NEAR(dyn.MaxWeightedDegree(), snapshot.MaxWeightedDegree(), 1e-9);
}

TEST(DynamicGraphTest, CompactPreservesTheView) {
  const Graph base = RandomConnectedGraph(80, 160, 7);
  DynamicGraph dyn{Graph(base)};
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
    const auto v = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
    if (u != v) FLOS_ASSERT_OK(dyn.AddEdge(u, v, 1.0));
  }
  const Graph before = ValueOrDie(dyn.Snapshot());
  const uint64_t edges_before = dyn.NumEdges();
  FLOS_ASSERT_OK(dyn.Compact());
  EXPECT_EQ(dyn.delta_edges(), 0u);
  EXPECT_EQ(dyn.NumEdges(), edges_before);
  const Graph after = ValueOrDie(dyn.Snapshot());
  EXPECT_TRUE(std::ranges::equal(before.neighbors(), after.neighbors()));
}

TEST(DynamicGraphTest, FlosIsCorrectImmediatelyAfterUpdates) {
  // The paper's motivating property: no index to invalidate. Insert edges,
  // query at once, and check against ground truth on a fresh snapshot.
  const Graph base = RandomConnectedGraph(250, 600, 13);
  DynamicGraph dyn{Graph(base)};
  Rng rng(17);
  FlosOptions options;
  options.measure = Measure::kPhp;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 30; ++i) {
      const auto u = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
      const auto v = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
      if (u != v) FLOS_ASSERT_OK(dyn.AddEdge(u, v, 0.5 + rng.NextDouble()));
    }
    const auto query = static_cast<NodeId>(rng.NextBounded(dyn.NumNodes()));
    const FlosResult result = ValueOrDie(FlosTopK(&dyn, query, 8, options));
    EXPECT_TRUE(result.stats.exact);
    const Graph snapshot = ValueOrDie(dyn.Snapshot());
    const auto exact = ValueOrDie(ExactPhp(snapshot, query, 0.5));
    std::vector<NodeId> nodes;
    for (const auto& s : result.topk) nodes.push_back(s.node);
    testing::ExpectTopKMatchesScores(nodes, exact, query, 8,
                                     Direction::kMaximize, 1e-6);
  }
}

}  // namespace
}  // namespace flos
