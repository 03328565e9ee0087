// FLoS_RWR's unknown-degree bound (Section 5.6) skips every node that is
// visited or adjacent to the visited set; the adjacent set (delta-S-bar)
// is the one the bound engine enumerates in ComputeOutsideUppers right
// before each termination test. These tests pin that the skip stays sound
// on a hub-heavy graph — on cold searches, on searches resumed from a warm
// subgraph deposited by another measure at the same alpha, and on a
// shard-local accessor whose truncated fringe rows keep the unknown-degree
// bound in play even when no frontier node is enumerated. Every certified
// answer is checked against the whole-graph solver.
//
// The graph is an R-MAT graph plus a planted component in which the
// unknown-degree bound is the ONLY thing standing between the search and
// a wrong certificate: a hub two hops beyond the first frontier is the
// true top-1 by RWR, while everything the first expansion sees would
// already certify ten leaves. Skipping any node that is not really in
// delta-S-bar drops the hub from that bound and certifies the leaves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

using testing::ExpectTopKMatchesScores;
using testing::ValueOrDie;

constexpr double kC = 0.5;
constexpr int kK = 10;

constexpr NodeId kRmatNodes = 20000;
/// The planted component's query: 10 leaves (distinct weights), and 100
/// two-edge paths query - b_j - t_j that all end in one hub.
constexpr NodeId kPlantedQuery = kRmatNodes;
constexpr NodeId kPlantedHub = kRmatNodes + 211;

Graph HubHeavyGraph() {
  GeneratorOptions options;
  options.num_nodes = kRmatNodes;
  options.num_edges = 100000;
  options.seed = 14;
  const Graph rmat = ValueOrDie(GenerateRmat(options));
  GraphBuilder builder;
  for (NodeId u = 0; u < kRmatNodes; ++u) {
    for (const NodeId v : rmat.NeighborIds(u)) {
      if (u < v) {
        EXPECT_TRUE(builder.AddEdge(u, v, 1.0).ok());
      }
    }
  }
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        builder.AddEdge(kPlantedQuery, kPlantedQuery + 1 + i, 2.0 + 0.1 * i)
            .ok());
  }
  for (NodeId j = 0; j < 100; ++j) {
    const NodeId b = kPlantedQuery + 11 + j;
    const NodeId t = kPlantedQuery + 111 + j;
    EXPECT_TRUE(builder.AddEdge(kPlantedQuery, b, 1.0).ok());
    EXPECT_TRUE(builder.AddEdge(b, t, 1.0).ok());
    EXPECT_TRUE(builder.AddEdge(t, kPlantedHub, 1.0).ok());
  }
  return ValueOrDie(std::move(builder).Build());
}

std::vector<NodeId> NodesOf(const FlosResult& result) {
  std::vector<NodeId> out;
  for (const ScoredNode& s : result.topk) out.push_back(s.node);
  return out;
}

/// The planted query plus two R-MAT seeds from both ends of the degree
/// range: the top hub and a low-degree node. (RWR walks most of this
/// R-MAT graph from either, which the audit build re-checks after every
/// expansion, so the list stays short.)
std::vector<NodeId> Seeds(const Graph& graph) {
  std::vector<NodeId> rmat_order;
  for (const NodeId v : graph.DegreeOrder()) {
    if (v < kRmatNodes) rmat_order.push_back(v);
  }
  std::vector<NodeId> seeds = {kPlantedQuery, rmat_order[0]};
  for (size_t i = rmat_order.size() / 4; i < rmat_order.size(); ++i) {
    if (graph.Degree(rmat_order[i]) >= 2) {
      seeds.push_back(rmat_order[i]);
      break;
    }
  }
  return seeds;
}

TEST(RwrFrontierTest, PlantedHubIsTheTrueTop1) {
  // Guards the fixture: if the hub were not in the exact top-k, skipping
  // it could not produce a wrong certificate and the tests below would
  // prove nothing about the skip.
  const Graph graph = HubHeavyGraph();
  const std::vector<double> exact =
      ValueOrDie(ExactRwr(graph, kPlantedQuery, kC));
  const std::vector<NodeId> top =
      TopKFromScores(exact, kPlantedQuery, 1, Direction::kMaximize);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], kPlantedHub);
}

TEST(RwrFrontierTest, ColdAndWarmRestoredCertifyExactTopK) {
  const Graph graph = HubHeavyGraph();
  InMemoryAccessor cold_accessor(&graph);
  FlosEngine cold(&cold_accessor);
  InMemoryAccessor warm_accessor(&graph);
  FlosEngine warm(&warm_accessor);
  SubgraphCache cache(16);
  warm.set_subgraph_cache(&cache);

  FlosOptions rwr;
  rwr.measure = Measure::kRwr;
  rwr.c = kC;
  const std::vector<NodeId> seeds = Seeds(graph);
  for (size_t s = 0; s < seeds.size(); ++s) {
    const NodeId q = seeds[s];
    const std::vector<double> exact = ValueOrDie(ExactRwr(graph, q, kC));

    const FlosResult cold_result = ValueOrDie(cold.TopK(q, kK, rwr));
    ASSERT_TRUE(cold_result.stats.exact) << "cold RWR@" << q;
    ExpectTopKMatchesScores(NodesOf(cold_result), exact, q, kK,
                            Direction::kMaximize, 1e-6);

    // PHP at c and EI at c share RWR's fixed point (alpha = 1 - c = c at
    // c = 0.5): deposit with one (alternating by seed; its first run only
    // records the seed, its second deposits), then resume RWR from the
    // deposit.
    const Measure deposit = s % 2 == 0 ? Measure::kPhp : Measure::kEi;
    cache.Clear();
    FlosOptions first = rwr;
    first.measure = deposit;
    (void)ValueOrDie(warm.TopK(q, kK, first));
    const FlosResult seeded = ValueOrDie(warm.TopK(q, kK, first));
    ASSERT_TRUE(seeded.stats.exact) << MeasureName(deposit) << "@" << q;
    ASSERT_EQ(cache.size(), 1u) << "a certified repeat miss must deposit";

    const FlosResult resumed = ValueOrDie(warm.TopK(q, kK, rwr));
    EXPECT_TRUE(resumed.stats.subgraph_hit)
        << "RWR@" << q << " must resume from the " << MeasureName(deposit)
        << " deposit";
    ASSERT_TRUE(resumed.stats.exact)
        << "warm RWR@" << q << " from " << MeasureName(deposit);
    ExpectTopKMatchesScores(NodesOf(resumed), exact, q, kK,
                            Direction::kMaximize, 1e-6);
  }
}

/// Forwards to a ShardAccessor and records whether any fetched row was a
/// truncated fringe row (the rows whose hidden mass keeps MaxUnknownDegree
/// in the termination test regardless of the enumerated frontier).
class FringeCountingAccessor final : public GraphAccessor {
 public:
  explicit FringeCountingAccessor(ShardAccessor* inner) : inner_(inner) {}

  uint64_t NumNodes() const override { return inner_->NumNodes(); }
  uint64_t NumEdges() const override { return inner_->NumEdges(); }
  double WeightedDegree(NodeId u) override {
    return inner_->WeightedDegree(u);
  }
  Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) override {
    if (!inner_->CompleteAdjacency(u)) ++fringe_fetches_;
    return inner_->CopyNeighbors(u, out);
  }
  const std::vector<NodeId>& DegreeOrder() const override {
    return inner_->DegreeOrder();
  }
  double MaxWeightedDegree() const override {
    return inner_->MaxWeightedDegree();
  }
  double ExternalDegreeBound() const override {
    return inner_->ExternalDegreeBound();
  }
  bool CompleteAdjacency(NodeId u) const override {
    return inner_->CompleteAdjacency(u);
  }
  bool DenseIndexHint() const override { return inner_->DenseIndexHint(); }

  uint64_t fringe_fetches() const { return fringe_fetches_; }
  void ResetFringeFetches() { fringe_fetches_ = 0; }

 private:
  ShardAccessor* inner_;
  uint64_t fringe_fetches_ = 0;
};

TEST(RwrFrontierTest, TwoShardTruncatedRowsStaySound) {
  const Graph graph = HubHeavyGraph();
  PartitionOptions p;
  p.num_shards = 2;
  p.halo_hops = 2;
  const GraphPartition partition = ValueOrDie(PartitionGraph(graph, p));

  uint64_t certified_over_fringe = 0;
  for (const ShardPart& shard : partition.shards) {
    ShardAccessor shard_accessor(&shard.graph, &shard.meta);
    FringeCountingAccessor accessor(&shard_accessor);
    FlosEngine engine(&accessor);
    FlosOptions rwr;
    rwr.measure = Measure::kRwr;
    rwr.c = kC;
    rwr.expandable_limit = shard.meta.num_interior;
    // Core nodes only (the shard owns their queries): the shard's first
    // core node — an R-MAT search that walks most of the 2-hop halo and
    // fetches hundreds of fringe rows — plus the planted query.
    std::vector<NodeId> locals = {0};
    for (NodeId local = 0; local < shard.meta.num_core; ++local) {
      if (shard.meta.local_to_global[local] == kPlantedQuery) {
        locals.push_back(local);
      }
    }
    for (const NodeId local : locals) {
      const NodeId global = shard.meta.local_to_global[local];
      if (graph.Degree(global) == 0) continue;
      accessor.ResetFringeFetches();
      const FlosResult result = ValueOrDie(engine.TopK(local, kK, rwr));
      const std::vector<double> exact =
          ValueOrDie(ExactRwr(graph, global, kC));
      std::vector<NodeId> returned;
      for (const ScoredNode& entry : result.topk) {
        const NodeId node = shard.meta.local_to_global[entry.node];
        returned.push_back(node);
        const double truth = exact[node];
        const double slack = 1e-5 * std::max(1.0, std::abs(truth));
        EXPECT_LE(entry.lower, truth + slack) << "RWR@" << global;
        EXPECT_GE(entry.upper, truth - slack) << "RWR@" << global;
      }
      if (!result.stats.exact) continue;
      ExpectTopKMatchesScores(returned, exact, global, kK,
                              Direction::kMaximize, 1e-6);
      if (accessor.fringe_fetches() > 0) ++certified_over_fringe;
    }
  }
  EXPECT_GT(certified_over_fringe, 0u)
      << "some certified query must have fetched a truncated fringe row";
}

}  // namespace
}  // namespace flos
