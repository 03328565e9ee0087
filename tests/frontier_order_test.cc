// Frontier-order tests. FLoS expands the boundary best-first on each
// node's rank-interval midpoint (Algorithm 3), ties broken by local id.
// The bounds are rigorous for every visited set, so the schedule decides
// only how many nodes the proof visits; these tests pin the order itself
// and then the exactness end to end against ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/flos.h"
#include "core/local_graph.h"
#include "core/unified_bound_engine.h"
#include "graph/accessor.h"
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

// One adaptive bound update can expand more boundary nodes than the first
// ranked batch holds; the next batch must then continue the same total
// order. A star of 200 hubs, each with one leaf, joins all hubs at the
// first expansion; the next update grows |S| = 201 by 201/8 = 25 leaves,
// so it expands 25 hubs. The hubs reach the query over edges of weight 3
// (8 hubs), 2 (20 hubs) or 1 (the rest), so the order is three groups of
// exact ties, and the 25 expanded hubs are not in id order. After m of
// these expansions (a max_visited cutoff) the visited leaves must be
// exactly those of the first m hubs of a full sort of the frontier:
// priority descending, then local id ascending.
TEST(FrontierOrderTest, AdaptiveUpdatePastTheFirstBatchKeepsTheSortedOrder) {
  constexpr NodeId kHubs = 200;
  constexpr uint64_t kSecondUpdate = kHubs / 8;  // hubs the update expands
  GraphBuilder builder;
  for (NodeId hub = 1; hub <= kHubs; ++hub) {
    const double weight = hub % 25 == 0 ? 3.0 : hub % 10 == 3 ? 2.0 : 1.0;
    FLOS_ASSERT_OK(builder.AddEdge(0, hub, weight));
    FLOS_ASSERT_OK(builder.AddEdge(hub, kHubs + hub, 1.0));
  }
  const Graph graph = ValueOrDie(std::move(builder).Build());
  FlosOptions options;
  options.measure = Measure::kPhp;

  // The frontier the second update ranks: every hub with the bounds the
  // first update left (the cutoff stops right after it). Hub h has local
  // id h: the hubs join in the query's sorted neighbor list.
  options.max_visited = 1 + kHubs;
  const FlosResult first = ValueOrDie(FlosTopK(graph, 0, 1000, options));
  ASSERT_EQ(first.stats.visited_nodes, 1 + kHubs);
  std::vector<std::pair<double, NodeId>> frontier;
  for (const ScoredNode& node : first.topk) {
    frontier.push_back({0.5 * (node.lower + node.upper), node.node});
  }
  ASSERT_EQ(frontier.size(), kHubs);
  std::sort(frontier.begin(), frontier.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  // The ranked prefix holds ties, also across the first batch's end (16),
  // and leaves id order.
  ASSERT_EQ(frontier[0].first, frontier[1].first);
  ASSERT_EQ(frontier[15].first, frontier[16].first);
  bool out_of_id_order = false;
  for (uint64_t m = 1; m < kSecondUpdate; ++m) {
    if (frontier[m].second < frontier[m - 1].second) out_of_id_order = true;
  }
  ASSERT_TRUE(out_of_id_order);

  // Every cutoff lands inside the second update, which without one would
  // stop at its growth target after kSecondUpdate hubs.
  for (uint64_t m = 1; m <= kSecondUpdate; ++m) {
    options.max_visited = 1 + kHubs + m;
    const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 1000, options));
    ASSERT_EQ(result.stats.visited_nodes, options.max_visited);
    ASSERT_EQ(result.stats.expansions, 1 + m);
    std::vector<bool> visited(graph.NumNodes(), false);
    for (const ScoredNode& node : result.topk) visited[node.node] = true;
    for (uint64_t r = 0; r < kHubs; ++r) {
      const NodeId hub = frontier[r].second;
      EXPECT_EQ(visited[kHubs + hub], r < m)
          << "hub " << hub << " (rank " << r << ") after " << m
          << " expansions";
    }
  }

  // And the 25 expansions happen inside ONE bound update: the cut-off run
  // ends with the bounds of a reference that expands the query, updates,
  // expands the first kSecondUpdate hubs of the full sort, and updates
  // once more, bit for bit. A second update after the first batch would
  // capture another dummy and sweep again.
  InMemoryAccessor accessor(&graph);
  LocalGraph local(&accessor);
  FLOS_ASSERT_OK(local.Init(0));
  UnifiedBoundOptions be;
  be.traits = BoundTraitsFor(Measure::kPhp, options.c, options.tht_length);
  be.tolerance = options.tolerance;
  UnifiedBoundEngine reference(&local, be);
  const auto update = [&](const std::vector<NodeId>& expand) {
    reference.CaptureDummyFromBoundary();
    for (const NodeId v : expand) ValueOrDie(local.Expand(local.LocalIndex(v)));
    reference.OnGrowth();
    reference.UpdateBounds();
  };
  update({0});
  std::vector<NodeId> first_hubs;
  for (uint64_t r = 0; r < kSecondUpdate; ++r) {
    first_hubs.push_back(frontier[r].second);
  }
  update(first_hubs);
  options.max_visited = 1 + kHubs + kSecondUpdate;
  const FlosResult cut = ValueOrDie(FlosTopK(graph, 0, 1000, options));
  ASSERT_EQ(cut.stats.visited_nodes, local.Size());
  for (const ScoredNode& node : cut.topk) {
    const LocalId i = local.LocalIndex(node.node);
    ASSERT_NE(i, kInvalidLocal) << node.node;
    EXPECT_EQ(node.lower, reference.lower(i)) << "node " << node.node;
    EXPECT_EQ(node.upper, reference.upper(i)) << "node " << node.node;
  }
}

}  // namespace
}  // namespace flos
