// Frontier-order tests. FLoS expands the boundary best-first on each
// node's rank-interval midpoint (Algorithm 3), ties broken by local id.
// The bounds are rigorous for every visited set, so the schedule decides
// only how many nodes the proof visits; these tests pin the order itself
// and then the exactness end to end against ground truth.

#include <gtest/gtest.h>

#include <vector>

#include "core/flos.h"
#include "measures/exact.h"
#include "measures/measure.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::ExpectTopKMatchesScores;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

// The query reaches hub 1 over a heavy edge and hub 2 over a light one,
// so hub 1 is the closer node under every measure: the larger PHP, EI and
// RWR value and the smaller DHT and THT value. With one expansion per
// bound update and a cutoff right after the second expansion, the visited
// leaves show which hub the midpoint order picked. Hub 2 going first would
// mean the order ranks the wrong end of the interval, or forgot to negate
// it for minimize measures.
TEST(FrontierOrderTest, BestFirstRanksByMidpoint) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 4.0));
  FLOS_ASSERT_OK(builder.AddEdge(0, 2, 1.0));
  FLOS_ASSERT_OK(builder.AddEdge(1, 3, 1.0));
  FLOS_ASSERT_OK(builder.AddEdge(1, 4, 1.0));
  FLOS_ASSERT_OK(builder.AddEdge(2, 5, 1.0));
  FLOS_ASSERT_OK(builder.AddEdge(2, 6, 1.0));
  const Graph graph = ValueOrDie(std::move(builder).Build());
  for (const Measure measure : {Measure::kPhp, Measure::kEi, Measure::kDht,
                                Measure::kTht, Measure::kRwr}) {
    FlosOptions options;
    options.measure = measure;
    options.expansion_batch = 1;
    options.max_visited = 5;  // query + both hubs + one hub's leaves
    const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 100, options));
    ASSERT_FALSE(result.stats.exact) << MeasureName(measure);
    ASSERT_EQ(result.stats.visited_nodes, 5u) << MeasureName(measure);
    std::vector<bool> visited(graph.NumNodes(), false);
    for (const ScoredNode& node : result.topk) visited[node.node] = true;
    EXPECT_TRUE(visited[3] && visited[4])
        << MeasureName(measure) << ": the closer hub was not expanded first";
    EXPECT_FALSE(visited[5] || visited[6]) << MeasureName(measure);
  }
}

// The exactness claim per measure against whole-graph ground truth: the
// best-first schedule must certify and match the exact top-k.
TEST(FrontierOrderTest, BestFirstCertifiesTheExactTopK) {
  const Graph graph = RandomConnectedGraph(350, 1400, 31);
  const int k = 8;
  MeasureParams params;
  for (const Measure measure : {Measure::kPhp, Measure::kEi, Measure::kDht,
                                Measure::kTht, Measure::kRwr}) {
    FlosOptions options;
    options.measure = measure;
    for (const NodeId query : {NodeId{2}, NodeId{77}, NodeId{300}}) {
      const FlosResult result = ValueOrDie(FlosTopK(graph, query, k, options));
      ASSERT_TRUE(result.stats.exact)
          << MeasureName(measure) << " failed to certify";
      const std::vector<double> exact =
          ValueOrDie(ExactMeasure(graph, query, measure, params));
      std::vector<NodeId> returned;
      for (const ScoredNode& s : result.topk) returned.push_back(s.node);
      ExpectTopKMatchesScores(returned, exact, query, k,
                              MeasureDirection(measure));
    }
  }
}

// The frontier is expanded in a total order: priority descending, then
// local id ascending. A star of identical hubs makes every unexpanded hub
// tie EXACTLY (their rows reach only the query, and their unvisited leaves
// have equal degrees), so with one expansion per bound update and a
// max_visited cutoff after m hub expansions, the visited leaves show which
// hubs went first: the m with the smallest local ids. Local ids follow
// visit order, and the hubs join in the query's sorted neighbor list, so
// hub h has local id h. More than 16 ties, so an unordered sort or heap
// would scramble them.
TEST(FrontierOrderTest, TiedPrioritiesExpandInLocalIdOrder) {
  constexpr NodeId kHubs = 24;
  const auto leaf = [](NodeId hub, NodeId which) {
    return kHubs + 1 + 2 * (hub - 1) + which;
  };
  GraphBuilder builder;
  for (NodeId hub = 1; hub <= kHubs; ++hub) {
    FLOS_ASSERT_OK(builder.AddEdge(0, hub, 1.0));
    FLOS_ASSERT_OK(builder.AddEdge(hub, leaf(hub, 0), 1.0));
    FLOS_ASSERT_OK(builder.AddEdge(hub, leaf(hub, 1), 1.0));
  }
  const Graph graph = ValueOrDie(std::move(builder).Build());

  for (NodeId expanded = 0; expanded + 4 < kHubs; ++expanded) {
    FlosOptions options;
    options.measure = Measure::kPhp;
    options.expansion_batch = 1;
    options.max_visited = 1 + kHubs + 2 * expanded;  // query + hubs + leaves
    const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 1000, options));
    ASSERT_FALSE(result.stats.exact);
    ASSERT_EQ(result.stats.visited_nodes, options.max_visited);

    std::vector<const ScoredNode*> hub_bounds(kHubs + 1, nullptr);
    std::vector<bool> leaf_visited(graph.NumNodes(), false);
    for (const ScoredNode& node : result.topk) {
      if (node.node <= kHubs) {
        hub_bounds[node.node] = &node;
      } else {
        leaf_visited[node.node] = true;
      }
    }
    // The tie the next expansion faces: every unexpanded hub has the same
    // bounds bit for bit, hence the same priority.
    for (NodeId hub = expanded + 1; hub <= kHubs; ++hub) {
      ASSERT_NE(hub_bounds[hub], nullptr) << "hub " << hub;
      EXPECT_EQ(hub_bounds[hub]->lower, hub_bounds[expanded + 1]->lower)
          << "hub " << hub << " after " << expanded << " expansions";
      EXPECT_EQ(hub_bounds[hub]->upper, hub_bounds[expanded + 1]->upper)
          << "hub " << hub << " after " << expanded << " expansions";
    }
    // The hubs expanded so far are exactly the first `expanded` by id.
    for (NodeId hub = 1; hub <= kHubs; ++hub) {
      const bool want = hub <= expanded;
      EXPECT_EQ(leaf_visited[leaf(hub, 0)], want)
          << "hub " << hub << " after " << expanded << " expansions";
      EXPECT_EQ(leaf_visited[leaf(hub, 1)], want)
          << "hub " << hub << " after " << expanded << " expansions";
    }
  }
}

}  // namespace
}  // namespace flos
