// Expansion-policy tests. FLoS bounds are rigorous for every visited set,
// so ANY schedule must terminate with the same certified top-k — the
// policies only change how many nodes the proof visits. These tests pin
// the scoring functions themselves and then verify the schedule-
// independence claim end to end against exact ground truth.

#include "core/expansion_policy.h"

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

TEST(ExpansionPolicyTest, KindsResolveToStatelessInstances) {
  const ExpansionPolicy* best = GetExpansionPolicy(
      ExpansionPolicyKind::kBestFirst);
  const ExpansionPolicy* greedy = GetExpansionPolicy(
      ExpansionPolicyKind::kBoundGapGreedy);
  ASSERT_NE(best, nullptr);
  ASSERT_NE(greedy, nullptr);
  EXPECT_NE(best, greedy);
  EXPECT_EQ(best, GetExpansionPolicy(ExpansionPolicyKind::kBestFirst))
      << "policies are stateless singletons";
  EXPECT_STREQ(best->name(), "best_first");
  EXPECT_STREQ(greedy->name(), "bound_gap_greedy");
  EXPECT_STREQ(ExpansionPolicyKindName(ExpansionPolicyKind::kBestFirst),
               "best_first");
  EXPECT_STREQ(
      ExpansionPolicyKindName(ExpansionPolicyKind::kBoundGapGreedy),
      "bound_gap_greedy");
}

TEST(ExpansionPolicyTest, BestFirstRanksByMidpoint) {
  const ExpansionPolicy* best =
      GetExpansionPolicy(ExpansionPolicyKind::kBestFirst);
  ExpansionContext context;
  // Maximize: the higher midpoint wins.
  EXPECT_GT(best->Priority(0.4, 0.6, context),
            best->Priority(0.1, 0.3, context));
  // Minimize (THT): the lower midpoint wins.
  context.minimize = true;
  EXPECT_GT(best->Priority(0.1, 0.3, context),
            best->Priority(0.4, 0.6, context));
}

TEST(ExpansionPolicyTest, BoundGapGreedyPrefersContestedIntervals) {
  const ExpansionPolicy* greedy =
      GetExpansionPolicy(ExpansionPolicyKind::kBoundGapGreedy);
  ExpansionContext context;
  context.has_threshold = true;
  context.threshold = 0.5;
  // A wide interval straddling the threshold blocks certification; it must
  // outrank a narrow interval sitting far below it.
  EXPECT_GT(greedy->Priority(0.4, 0.7, context),
            greedy->Priority(0.05, 0.10, context));
  // Two straddling intervals: the wider one can move the proof more.
  EXPECT_GT(greedy->Priority(0.3, 0.8, context),
            greedy->Priority(0.45, 0.55, context));
  // Same width, one clear of the threshold: the contested one wins.
  EXPECT_GT(greedy->Priority(0.45, 0.55, context),
            greedy->Priority(0.05, 0.15, context));
}

// The exactness claim, per policy and per measure, against whole-graph
// ground truth: both schedules must certify and match the exact top-k.
TEST(ExpansionPolicyTest, BothPoliciesCertifyTheExactTopK) {
  const Graph graph = RandomConnectedGraph(350, 1400, 31);
  const int k = 8;
  MeasureParams params;
  for (const ExpansionPolicyKind kind :
       {ExpansionPolicyKind::kBestFirst,
        ExpansionPolicyKind::kBoundGapGreedy}) {
    for (const Measure measure :
         {Measure::kPhp, Measure::kEi, Measure::kDht, Measure::kTht,
          Measure::kRwr}) {
      FlosOptions options;
      options.measure = measure;
      options.expansion_policy = kind;
      for (const NodeId query : {NodeId{2}, NodeId{77}, NodeId{300}}) {
        const FlosResult result =
            ValueOrDie(FlosTopK(graph, query, k, options));
        ASSERT_TRUE(result.stats.exact)
            << ExpansionPolicyKindName(kind) << "/" << MeasureName(measure)
            << " failed to certify";
        const std::vector<double> exact =
            ValueOrDie(ExactMeasure(graph, query, measure, params));
        std::vector<NodeId> returned;
        for (const ScoredNode& s : result.topk) returned.push_back(s.node);
        ExpectTopKMatchesScores(returned, exact, query, k,
                                MeasureDirection(measure));
      }
    }
  }
}

// The policies genuinely differ: on a straightforward search they should
// not expand identical node counts every time (a regression where both
// kinds silently share one scoring function would pass every exactness
// test above). Visited-count equality on EVERY query would be suspicious;
// we only require one difference across a handful of queries.
TEST(ExpansionPolicyTest, PoliciesProduceDifferentSchedules) {
  const Graph graph = RandomConnectedGraph(400, 1600, 37);
  bool any_difference = false;
  for (const NodeId query : {NodeId{1}, NodeId{50}, NodeId{123},
                             NodeId{222}, NodeId{333}}) {
    FlosOptions options;
    options.measure = Measure::kPhp;
    options.expansion_policy = ExpansionPolicyKind::kBestFirst;
    const FlosResult best = ValueOrDie(FlosTopK(graph, query, 5, options));
    options.expansion_policy = ExpansionPolicyKind::kBoundGapGreedy;
    const FlosResult greedy = ValueOrDie(FlosTopK(graph, query, 5, options));
    if (best.stats.visited_nodes != greedy.stats.visited_nodes) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference)
      << "the two policies visited identical node counts on every query";
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
TEST(ExpansionPolicyTest, TiedPrioritiesExpandInLocalIdOrder) {
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
    // bounds bit for bit, hence the same priority under either policy.
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
