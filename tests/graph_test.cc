// Unit tests for the CSR graph, builder semantics, and accessor.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/accessor.h"
#include "storage/disk_builder.h"
#include "storage/disk_graph.h"
#include "tests/test_util.h"
#include "util/huge_page_allocator.h"

namespace flos {
namespace {

using testing::SpreadWeightGraph;
using testing::ValueOrDie;

/// Forwards the pure virtuals to an InMemoryAccessor but inherits the
/// default TwoStepReturn, which probes degrees through this accessor.
class DefaultTwoStepAccessor final : public GraphAccessor {
 public:
  explicit DefaultTwoStepAccessor(const Graph* g) : inner_(g) {}
  uint64_t NumNodes() const override { return inner_.NumNodes(); }
  uint64_t NumEdges() const override { return inner_.NumEdges(); }
  double WeightedDegree(NodeId u) override {
    ++stats_.degree_probes;
    return inner_.WeightedDegree(u);
  }
  Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) override {
    return inner_.CopyNeighbors(u, out);
  }
  const std::vector<NodeId>& DegreeOrder() const override {
    return inner_.DegreeOrder();
  }
  double MaxWeightedDegree() const override {
    return inner_.MaxWeightedDegree();
  }

 private:
  InMemoryAccessor inner_;
};

TEST(GraphBuilderTest, BuildsSymmetricCsr) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 2.0));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2, 3.0));
  const Graph g = ValueOrDie(std::move(builder).Build());
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.NumDirectedEdges(), 4u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 5.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.0);
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphBuilderTest, DuplicateEdgesAccumulateWeight) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 1.0));
  FLOS_ASSERT_OK(builder.AddEdge(1, 0, 2.5));
  const Graph g = ValueOrDie(std::move(builder).Build());
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 3.5);
}

TEST(GraphBuilderTest, RejectsSelfLoopsAndBadWeights) {
  GraphBuilder builder;
  EXPECT_FALSE(builder.AddEdge(3, 3).ok());
  EXPECT_FALSE(builder.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(builder.AddEdge(0, 1, -1.0).ok());
}

TEST(GraphBuilderTest, IgnoreSelfLoopOption) {
  GraphBuilder::Options options;
  options.ignore_self_loops = true;
  GraphBuilder builder(options);
  FLOS_ASSERT_OK(builder.AddEdge(2, 2));
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  const Graph g = ValueOrDie(std::move(builder).Build());
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphBuilderTest, FixedNodeCount) {
  GraphBuilder::Options options;
  options.num_nodes = 10;
  GraphBuilder builder(options);
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(0, 10).ok());
  const Graph g = ValueOrDie(std::move(builder).Build());
  EXPECT_EQ(g.NumNodes(), 10u);
  EXPECT_EQ(g.Degree(9), 0u);
}

TEST(GraphBuilderTest, EmptyBuilderYieldsEmptyGraph) {
  GraphBuilder builder;
  const Graph g = ValueOrDie(std::move(builder).Build());
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(g.MaxWeightedDegree(), 0.0);
}

TEST(GraphTest, NeighborListsAreSorted) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(5, 2));
  FLOS_ASSERT_OK(builder.AddEdge(5, 9));
  FLOS_ASSERT_OK(builder.AddEdge(5, 1));
  const Graph g = ValueOrDie(std::move(builder).Build());
  const auto ids = g.NeighborIds(5);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 1u);
  EXPECT_EQ(ids[1], 2u);
  EXPECT_EQ(ids[2], 9u);
}

TEST(GraphTest, DegreeOrderIsDescending) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  FLOS_ASSERT_OK(builder.AddEdge(0, 2));
  FLOS_ASSERT_OK(builder.AddEdge(0, 3));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2));
  const Graph g = ValueOrDie(std::move(builder).Build());
  const auto& order = g.DegreeOrder();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0u);  // degree 3
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(g.WeightedDegree(order[i - 1]), g.WeightedDegree(order[i]));
  }
  EXPECT_DOUBLE_EQ(g.MaxWeightedDegree(), 3.0);
}

TEST(GraphFromCsrPartsTest, AcceptsValidAndRejectsCorrupt) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 2.0));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2, 1.0));
  const Graph g = ValueOrDie(std::move(builder).Build());
  // Round-trip through raw parts.
  const Graph g2 = ValueOrDie(GraphFromCsrParts(
      {g.offsets().begin(), g.offsets().end()},
      {g.neighbors().begin(), g.neighbors().end()},
      {g.weights().begin(), g.weights().end()}));
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(g2.EdgeWeight(0, 1), 2.0);

  // Asymmetric: 0->1 without 1->0.
  EXPECT_FALSE(GraphFromCsrParts({0, 1, 1}, {1}, {1.0}).ok());
  // Out-of-range neighbor.
  EXPECT_FALSE(GraphFromCsrParts({0, 1, 2}, {5, 0}, {1.0, 1.0}).ok());
  // Non-positive weight.
  EXPECT_FALSE(GraphFromCsrParts({0, 1, 2}, {1, 0}, {0.0, 0.0}).ok());
  // Unsorted neighbors.
  EXPECT_FALSE(
      GraphFromCsrParts({0, 2, 3, 5}, {2, 1, 0, 0, 1}, {1, 1, 1, 1, 1}).ok());
}

void ExpectSameCsr(const Graph& got, const Graph& want, const char* path) {
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets())) << path;
  EXPECT_TRUE(std::ranges::equal(got.neighbors(), want.neighbors())) << path;
  EXPECT_TRUE(std::ranges::equal(got.weights(), want.weights())) << path;
  for (NodeId u = 0; u < want.NumNodes(); ++u) {
    ASSERT_EQ(got.WeightedDegree(u), want.WeightedDegree(u)) << path;
    ASSERT_EQ(got.TwoStepReturn(u), want.TwoStepReturn(u)) << path;
  }
}

TEST(GraphFromCsrPartsTest, BuilderPartsAndDiskRoundTripAgree) {
  // Large enough that the weight array (8 bytes per half-edge) is
  // huge-page mapped while the offsets stay on the heap.
  const Graph g = SpreadWeightGraph(40000, 160000, 3, /*hub_degree=*/2000);
  ASSERT_TRUE(HugePageAllocator<double>::IsMapped(g.NumDirectedEdges()));
  ASSERT_FALSE(HugePageAllocator<uint64_t>::IsMapped(g.NumNodes() + 1));

  // Moved-in parts: the Graph adopts the buffers.
  HugePageVector<uint64_t> offsets(g.offsets().begin(), g.offsets().end());
  HugePageVector<NodeId> neighbors(g.neighbors().begin(),
                                   g.neighbors().end());
  HugePageVector<double> weights(g.weights().begin(), g.weights().end());
  const NodeId* neighbor_data = neighbors.data();
  const Graph from_parts = ValueOrDie(GraphFromCsrParts(
      std::move(offsets), std::move(neighbors), std::move(weights)));
  EXPECT_EQ(from_parts.neighbors().data(), neighbor_data);
  ASSERT_NO_FATAL_FAILURE(ExpectSameCsr(from_parts, g, "parts"));

  // Disk round trip: write, reopen, reassemble the CSR from the fetches.
  const std::string path = ::testing::TempDir() + "/graph_round_trip.fdg";
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  auto disk = ValueOrDie(DiskGraph::Open(path, DiskGraphOptions{}));
  HugePageVector<uint64_t> disk_offsets{0};
  HugePageVector<NodeId> disk_neighbors;
  HugePageVector<double> disk_weights;
  std::vector<Neighbor> fetched;
  for (NodeId u = 0; u < disk->NumNodes(); ++u) {
    FLOS_ASSERT_OK(disk->CopyNeighbors(u, &fetched));
    for (const Neighbor& nb : fetched) {
      disk_neighbors.push_back(nb.id);
      disk_weights.push_back(nb.weight);
    }
    disk_offsets.push_back(disk_neighbors.size());
  }
  const Graph from_disk = ValueOrDie(GraphFromCsrParts(
      std::move(disk_offsets), std::move(disk_neighbors),
      std::move(disk_weights)));
  ASSERT_NO_FATAL_FAILURE(ExpectSameCsr(from_disk, g, "disk"));
}

TEST(InMemoryAccessorTest, MatchesGraphAndCountsStats) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 2.0));
  FLOS_ASSERT_OK(builder.AddEdge(0, 2, 1.0));
  const Graph g = ValueOrDie(std::move(builder).Build());
  InMemoryAccessor accessor(&g);
  EXPECT_EQ(accessor.NumNodes(), 3u);
  EXPECT_EQ(accessor.NumEdges(), 2u);
  std::vector<Neighbor> nbs;
  FLOS_ASSERT_OK(accessor.CopyNeighbors(0, &nbs));
  ASSERT_EQ(nbs.size(), 2u);
  EXPECT_EQ(nbs[0].id, 1u);
  EXPECT_DOUBLE_EQ(nbs[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(accessor.WeightedDegree(0), 3.0);
  EXPECT_EQ(accessor.stats().neighbor_fetches, 1u);
  EXPECT_EQ(accessor.stats().degree_probes, 1u);
  EXPECT_FALSE(accessor.CopyNeighbors(99, &nbs).ok());
  accessor.ResetStats();
  EXPECT_EQ(accessor.stats().neighbor_fetches, 0u);
}

TEST(GraphTest, TwoStepReturnMatchesBruteForce) {
  for (const uint64_t seed : {1, 2, 3}) {
    const Graph g = SpreadWeightGraph(300, 900, seed, /*hub_degree=*/100);
    InMemoryAccessor in_memory(&g);
    DefaultTwoStepAccessor probing(&g);
    std::vector<Neighbor> nbs;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      // Brute force from the definition, looking every weight up by edge.
      double brute = 0;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        const double w = g.EdgeWeight(u, v);
        if (w > 0) {
          brute += w / g.WeightedDegree(u) * g.EdgeWeight(v, u) /
                   g.WeightedDegree(v);
        }
      }
      EXPECT_NEAR(g.TwoStepReturn(u), brute, 1e-12) << "node " << u;
      if (g.Degree(u) == 0) {
        EXPECT_EQ(g.TwoStepReturn(u), 0.0) << "isolated node " << u;
      }
      // Both accessor paths return the precomputed bits; only the default
      // one probes, once for u and once per neighbor.
      FLOS_ASSERT_OK(in_memory.CopyNeighbors(u, &nbs));
      EXPECT_EQ(in_memory.TwoStepReturn(u, nbs), g.TwoStepReturn(u));
      probing.ResetStats();
      EXPECT_EQ(probing.TwoStepReturn(u, nbs), g.TwoStepReturn(u));
      EXPECT_EQ(probing.stats().degree_probes, 1u + nbs.size());
    }
    EXPECT_EQ(in_memory.stats().degree_probes, 0u);
  }
}

}  // namespace
}  // namespace flos
