// Tests for multi-source (query-set) FLoS: the queries act as one
// absorbing set; results are verified against dense ground truth of the
// multi-source systems.

#include <gtest/gtest.h>

#include <vector>

#include "core/flos.h"
#include "linalg/dense_matrix.h"
#include "linalg/lu.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

// Dense ground truth for multi-source PHP: r = c T r + e with the rows of
// every query zeroed and e = 1 on the query set.
std::vector<double> MultiSourcePhp(const Graph& g,
                                   const std::vector<NodeId>& queries,
                                   double c) {
  const auto n = static_cast<uint32_t>(g.NumNodes());
  std::vector<bool> is_query(n, false);
  for (const NodeId q : queries) is_query[q] = true;
  DenseMatrix m(n, n);
  std::vector<double> e(n, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    if (is_query[i]) {
      e[i] = 1.0;
      continue;
    }
    const auto ids = g.NeighborIds(i);
    const auto ws = g.NeighborWeights(i);
    for (size_t idx = 0; idx < ids.size(); ++idx) {
      m.at(i, ids[idx]) = c * ws[idx] / g.WeightedDegree(i);
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      m.at(i, j) = (i == j ? 1.0 : 0.0) - m.at(i, j);
    }
  }
  const DenseLu lu = ValueOrDie(DenseLu::Factor(m));
  std::vector<double> r;
  EXPECT_TRUE(lu.Solve(e, &r).ok());
  return r;
}

// L-step multi-source THT DP: hitting time of the set.
std::vector<double> MultiSourceTht(const Graph& g,
                                   const std::vector<NodeId>& queries,
                                   int length) {
  const uint64_t n = g.NumNodes();
  std::vector<bool> is_query(n, false);
  for (const NodeId q : queries) is_query[q] = true;
  std::vector<double> r(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (int t = 0; t < length; ++t) {
    for (uint64_t i = 0; i < n; ++i) {
      if (is_query[i]) {
        next[i] = 0;
        continue;
      }
      const auto ids = g.NeighborIds(static_cast<NodeId>(i));
      const auto ws = g.NeighborWeights(static_cast<NodeId>(i));
      double sum = 0;
      for (size_t e = 0; e < ids.size(); ++e) sum += ws[e] * r[ids[e]];
      next[i] = 1.0 + sum / g.WeightedDegree(static_cast<NodeId>(i));
    }
    r.swap(next);
  }
  return r;
}

std::vector<NodeId> TopK(const std::vector<double>& scores,
                         const std::vector<NodeId>& queries, int k,
                         Direction dir) {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < scores.size(); ++i) {
    bool is_query = false;
    for (const NodeId q : queries) is_query |= (q == i);
    if (!is_query) ids.push_back(i);
  }
  std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) return IsCloser(dir, scores[a], scores[b]);
    return a < b;
  });
  ids.resize(std::min<size_t>(k, ids.size()));
  return ids;
}

class MultiSourceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiSourceTest, PhpMatchesDenseGroundTruth) {
  const uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(200, 600, seed);
  Rng rng(seed + 50);
  std::vector<NodeId> queries;
  while (queries.size() < 3) {
    const auto q = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    bool dup = false;
    for (const NodeId existing : queries) dup |= (existing == q);
    if (!dup) queries.push_back(q);
  }
  const std::vector<double> exact = MultiSourcePhp(g, queries, 0.5);
  FlosOptions options;
  options.measure = Measure::kPhp;
  options.tolerance = 1e-8;
  const FlosResult result = ValueOrDie(FlosTopKSet(g, queries, 10, options));
  EXPECT_TRUE(result.stats.exact);
  ASSERT_EQ(result.topk.size(), 10u);
  const auto truth = TopK(exact, queries, 10, Direction::kMaximize);
  const double kth = exact[truth.back()];
  for (const ScoredNode& s : result.topk) {
    for (const NodeId q : queries) EXPECT_NE(s.node, q);
    EXPECT_GE(exact[s.node], kth - 1e-7);
    EXPECT_LE(s.lower, exact[s.node] + 1e-7);
    EXPECT_GE(s.upper, exact[s.node] - 1e-7);
  }
}

TEST_P(MultiSourceTest, ThtMatchesDpGroundTruth) {
  const uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(200, 600, seed + 9);
  const std::vector<NodeId> queries = {5, 60, 130};
  const int length = 8;
  const std::vector<double> exact = MultiSourceTht(g, queries, length);
  FlosOptions options;
  options.measure = Measure::kTht;
  options.tht_length = length;
  const FlosResult result = ValueOrDie(FlosTopKSet(g, queries, 8, options));
  EXPECT_TRUE(result.stats.exact);
  const auto truth = TopK(exact, queries, 8, Direction::kMinimize);
  const double kth = exact[truth.back()];
  for (const ScoredNode& s : result.topk) {
    EXPECT_LE(exact[s.node], kth + 1e-7);
  }
}

TEST_P(MultiSourceTest, DhtRanksLikeDensePhpGroundTruth) {
  // DHT with decay c runs the PHP engine at alpha = 1 - c (Theorem 2), so
  // with c = 0.5 its certified set top-k is the multi-source PHP top-k.
  const uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(200, 600, seed + 17);
  const std::vector<NodeId> queries = {3, 77, 140};
  const std::vector<double> exact = MultiSourcePhp(g, queries, 0.5);
  FlosOptions options;
  options.measure = Measure::kDht;
  options.c = 0.5;
  const FlosResult result = ValueOrDie(FlosTopKSet(g, queries, 8, options));
  EXPECT_TRUE(result.stats.exact);
  ASSERT_EQ(result.topk.size(), 8u);
  const auto truth = TopK(exact, queries, 8, Direction::kMaximize);
  const double kth = exact[truth.back()];
  for (const ScoredNode& s : result.topk) {
    for (const NodeId q : queries) EXPECT_NE(s.node, q);
    EXPECT_GE(exact[s.node], kth - 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSourceTest, ::testing::Values(1, 2, 3));

TEST(MultiSourceTest, SingleElementSetEqualsSingleQuery) {
  const Graph g = RandomConnectedGraph(150, 450, 4);
  FlosOptions options;
  options.measure = Measure::kDht;
  const FlosResult a = ValueOrDie(FlosTopK(g, 17, 6, options));
  const FlosResult b = ValueOrDie(FlosTopKSet(g, {17}, 6, options));
  ASSERT_EQ(a.topk.size(), b.topk.size());
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].node, b.topk[i].node);
    EXPECT_NEAR(a.topk[i].score, b.topk[i].score, 1e-12);
  }
}

TEST(MultiSourceTest, SearchStaysLocalAroundTheSet) {
  const Graph g = RandomConnectedGraph(5000, 15000, 6);
  FlosOptions options;
  options.measure = Measure::kPhp;
  const FlosResult result = ValueOrDie(FlosTopKSet(g, {3, 999, 4200}, 10, options));
  EXPECT_TRUE(result.stats.exact);
  EXPECT_LT(result.stats.visited_nodes, g.NumNodes() / 4);
}

TEST(MultiSourceTest, RejectsInvalidInput) {
  const Graph g = RandomConnectedGraph(50, 100, 7);
  FlosOptions options;
  EXPECT_FALSE(FlosTopKSet(g, {}, 5, options).ok());
  EXPECT_FALSE(FlosTopKSet(g, {1, 1}, 5, options).ok());  // duplicate
  EXPECT_FALSE(FlosTopKSet(g, {1, 99}, 5, options).ok());
  options.measure = Measure::kRwr;
  EXPECT_FALSE(FlosTopKSet(g, {1, 2}, 5, options).ok());
  options.measure = Measure::kEi;
  EXPECT_FALSE(FlosTopKSet(g, {1, 2}, 5, options).ok());
}

}  // namespace
}  // namespace flos
