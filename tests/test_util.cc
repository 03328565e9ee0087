#include "tests/test_util.h"

#include <algorithm>
#include <cmath>

#include "measures/exact.h"
#include "util/rng.h"

namespace flos {
namespace testing {

Graph PaperExampleGraph() {
  GraphBuilder builder;
  // 0-based: paper node i is test node i-1.
  const std::pair<int, int> edges[] = {{1, 2}, {1, 3}, {2, 4}, {3, 4},
                                       {3, 5}, {4, 6}, {4, 7}, {5, 8},
                                       {6, 8}, {7, 8}};
  for (const auto& [u, v] : edges) {
    EXPECT_TRUE(builder.AddEdge(u - 1, v - 1, 1.0).ok());
  }
  return ValueOrDie(std::move(builder).Build());
}

Graph PaperPathGraph() {
  GraphBuilder builder;
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  return ValueOrDie(std::move(builder).Build());
}

Graph RandomConnectedGraph(uint64_t nodes, uint64_t edges, uint64_t seed,
                           bool random_weights) {
  GeneratorOptions options;
  options.num_nodes = nodes;
  options.num_edges = edges;
  options.seed = seed;
  options.random_weights = random_weights;
  return ValueOrDie(GenerateConnected(options));
}

Graph SpreadWeightGraph(uint64_t nodes, uint64_t edges, uint64_t seed,
                        uint32_t hub_degree) {
  GraphBuilder::Options options;
  options.num_nodes = static_cast<int64_t>(nodes + 5);
  GraphBuilder builder(options);
  Rng rng(seed);
  const auto weight = [&rng] {
    return std::pow(10.0, 6 * rng.NextDouble() - 3);
  };
  for (uint64_t e = 0; e < edges; ++e) {
    const auto u = static_cast<NodeId>(rng.NextBounded(nodes));
    const auto v = static_cast<NodeId>(rng.NextBounded(nodes));
    if (u == v) continue;
    EXPECT_TRUE(builder.AddEdge(u, v, weight()).ok());
  }
  for (uint32_t e = 0; e < hub_degree; ++e) {
    const auto v = static_cast<NodeId>(1 + rng.NextBounded(nodes - 1));
    EXPECT_TRUE(builder.AddEdge(0, v, weight()).ok());
  }
  return ValueOrDie(std::move(builder).Build());
}

void ExpectTopKMatchesScores(const std::vector<NodeId>& returned,
                             const std::vector<double>& exact_scores,
                             NodeId query, int k, Direction direction,
                             double tol) {
  const std::vector<NodeId> truth =
      TopKFromScores(exact_scores, query, k, direction);
  ASSERT_EQ(returned.size(), truth.size());
  ASSERT_FALSE(truth.empty());
  const double kth = exact_scores[truth.back()];
  for (const NodeId node : returned) {
    ASSERT_NE(node, query) << "query returned as its own neighbor";
    const double s = exact_scores[node];
    if (direction == Direction::kMaximize) {
      EXPECT_GE(s, kth - tol) << "node " << node
                              << " is not within the exact top-" << k;
    } else {
      EXPECT_LE(s, kth + tol) << "node " << node
                              << " is not within the exact top-" << k;
    }
  }
  // No duplicates.
  std::vector<NodeId> sorted(returned);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

}  // namespace testing
}  // namespace flos
