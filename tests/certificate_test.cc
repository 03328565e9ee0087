// Termination verdicts: every failed termination check (Algorithm 6) is
// counted in FlosStats::blocked_checks by the kind of competitor that
// blocked the top-k. One query per BlockerKind is built so that its failed
// checks include that kind, and every answer stays exact: the counters
// explain a search, they never change it.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "core/subgraph_cache.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "measures/exact.h"
#include "measures/measure.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::ValueOrDie;

uint64_t Blocked(const FlosResult& result, BlockerKind kind) {
  return result.stats.blocked_checks[static_cast<size_t>(kind)];
}

std::string Counts(const FlosResult& result) {
  std::string out;
  for (const uint64_t n : result.stats.blocked_checks) {
    out += std::to_string(n) + " ";
  }
  return out;
}

/// The certified top-k must be the exact one.
void ExpectExact(const Graph& graph, NodeId query, int k,
                 const FlosOptions& options, const FlosResult& result) {
  ASSERT_TRUE(result.stats.exact);
  MeasureParams params;
  params.c = options.c;
  const std::vector<double> exact =
      ValueOrDie(ExactMeasure(graph, query, options.measure, params));
  std::vector<NodeId> returned;
  for (const ScoredNode& s : result.topk) returned.push_back(s.node);
  testing::ExpectTopKMatchesScores(returned, exact, query, k,
                                   MeasureDirection(options.measure));
}

TEST(CertificateTest, FirstCheckHasTooFewCandidates) {
  // After the query's first expansion every visited node is boundary, so
  // the first check has no interior candidate at all.
  const Graph graph = testing::RandomConnectedGraph(300, 1200, 5);
  const FlosOptions options;
  const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 10, options));
  EXPECT_GE(Blocked(result, BlockerKind::kTooFewCandidates), 1u)
      << Counts(result);
  ExpectExact(graph, 0, 10, options, result);
}

TEST(CertificateTest, NearTiedLeavesBlockAsInterior) {
  // Two leaves a, b of the query share the same two neighbors in a random
  // graph; the query edge to b is heavier by 1e-7, so PHP(b) > PHP(a) by
  // far less than the bound widths. Once both are interior, the k = 1
  // candidate's guaranteed bound stays below its twin's optimistic one.
  const Graph base = testing::RandomConnectedGraph(400, 2000, 9, false);
  const NodeId q = 400;
  const NodeId a = 401;
  const NodeId b = 402;
  GraphBuilder builder;
  for (NodeId u = 0; u < base.NumNodes(); ++u) {
    for (const NodeId v : base.NeighborIds(u)) {
      if (u < v) {
        ASSERT_TRUE(builder.AddEdge(u, v, 1.0).ok());
      }
    }
  }
  ASSERT_TRUE(builder.AddEdge(q, a, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(q, b, 1.0 + 1e-7).ok());
  for (const NodeId leaf : {a, b}) {
    ASSERT_TRUE(builder.AddEdge(leaf, 10, 1.0).ok());
    ASSERT_TRUE(builder.AddEdge(leaf, 20, 1.0).ok());
  }
  const Graph graph = ValueOrDie(std::move(builder).Build());
  const FlosOptions options;
  const FlosResult result = ValueOrDie(FlosTopK(graph, q, 1, options));
  EXPECT_GE(Blocked(result, BlockerKind::kInterior), 1u) << Counts(result);
  ExpectExact(graph, q, 1, options, result);
}

TEST(CertificateTest, PathFrontierBlocksAsBoundary) {
  // On a path the only competitor outside the top-k is the one boundary
  // node, whose optimistic bound still carries the unvisited tail; with
  // decay 0.9, PHP falls slowly enough along the path for that bound to
  // reach past the third node's guaranteed one.
  GraphBuilder builder;
  for (NodeId v = 0; v + 1 < 60; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1, 1.0).ok());
  }
  const Graph graph = ValueOrDie(std::move(builder).Build());
  FlosOptions options;
  options.c = 0.9;
  const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 3, options));
  EXPECT_GE(Blocked(result, BlockerKind::kBoundary), 1u) << Counts(result);
  ExpectExact(graph, 0, 3, options, result);
}

TEST(CertificateTest, TightHaloBlocksAsFringe) {
  // A hash cut with a one-hop halo, as in the shard router's tight-halo
  // test: the fringe ring is visited but never expanded, so its loose
  // bounds keep blocking until the search stops at the halo.
  GeneratorOptions g;
  g.num_nodes = 2000;
  g.num_edges = 12000;
  g.seed = 7;
  const Graph graph = ValueOrDie(GenerateConnected(g));
  PartitionOptions p;
  p.num_shards = 2;
  p.halo_hops = 1;
  p.method = PartitionMethod::kHash;
  const GraphPartition partition = ValueOrDie(PartitionGraph(graph, p));
  std::vector<ShardMeta> metas;
  for (const ShardPart& shard : partition.shards) metas.push_back(shard.meta);
  const ShardRouteTable route =
      ValueOrDie(ShardRouteTable::Build(std::move(metas)));

  uint64_t fringe = 0;
  for (const NodeId query : {NodeId{3}, NodeId{777}, NodeId{1500}}) {
    const ShardPart& shard = partition.shards[route.ShardOf(query)];
    ShardAccessor accessor(&shard.graph, &shard.meta);
    for (const Measure measure : {Measure::kPhp, Measure::kTht}) {
      FlosOptions options;
      options.measure = measure;
      options.expandable_limit = shard.meta.num_interior;
      const FlosResult result =
          ValueOrDie(FlosTopK(&accessor, route.LocalOf(query), 10, options));
      fringe += Blocked(result, BlockerKind::kFringe);
    }
  }
  EXPECT_GT(fringe, 0u);
}

TEST(CertificateTest, UnknownHubBlocksAsUnvisited) {
  // FLoS_RWR's planted hub (rwr_frontier_test): the query's ten leaves
  // would certify from the first frontier, but a hub two hops out has the
  // higher degree-weighted proximity, so the unvisited bound blocks.
  GraphBuilder builder;
  const NodeId q = 0;
  const NodeId hub = 211;
  for (NodeId i = 0; i < 10; ++i) {
    ASSERT_TRUE(builder.AddEdge(q, 1 + i, 2.0 + 0.1 * i).ok());
  }
  for (NodeId j = 0; j < 100; ++j) {
    ASSERT_TRUE(builder.AddEdge(q, 11 + j, 1.0).ok());
    ASSERT_TRUE(builder.AddEdge(11 + j, 111 + j, 1.0).ok());
    ASSERT_TRUE(builder.AddEdge(111 + j, hub, 1.0).ok());
  }
  const Graph graph = ValueOrDie(std::move(builder).Build());
  FlosOptions options;
  options.measure = Measure::kRwr;
  const FlosResult result = ValueOrDie(FlosTopK(graph, q, 10, options));
  EXPECT_GE(Blocked(result, BlockerKind::kUnvisited), 1u) << Counts(result);
  ExpectExact(graph, q, 10, options, result);
}

TEST(CertificateTest, InstantWarmHitCountsNoBlockedCheck) {
  // The warm tier deposits a seed on its second certified miss; a smaller
  // k then certifies from the restored state before any expansion.
  const Graph graph = testing::RandomConnectedGraph(500, 2500, 11);
  InMemoryAccessor accessor(&graph);
  FlosEngine engine(&accessor);
  SubgraphCache cache(8);
  engine.set_subgraph_cache(&cache);
  const FlosOptions options;
  for (const int k : {10, 5}) {
    const FlosResult cold = ValueOrDie(engine.TopK(7, k, options));
    EXPECT_GT(std::accumulate(cold.stats.blocked_checks.begin(),
                              cold.stats.blocked_checks.end(), uint64_t{0}),
              0u);
  }
  const FlosResult warm = ValueOrDie(engine.TopK(7, 3, options));
  ASSERT_TRUE(warm.stats.subgraph_hit);
  ASSERT_TRUE(warm.stats.exact);
  ASSERT_EQ(warm.stats.expansions, 0u);
  EXPECT_EQ(std::accumulate(warm.stats.blocked_checks.begin(),
                            warm.stats.blocked_checks.end(), uint64_t{0}),
            0u)
      << Counts(warm);
}

}  // namespace
}  // namespace flos
