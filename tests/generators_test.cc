// Tests for the synthetic graph generators (Erdős–Rényi, R-MAT, connected).

#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/traversal.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::ValueOrDie;

class GeneratorInvariantsTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(GeneratorInvariantsTest, ExactCountsNoLoopsNoDuplicates) {
  const auto [which, seed] = GetParam();
  GeneratorOptions options;
  options.num_nodes = 500;
  options.num_edges = 2000;
  options.seed = seed;
  const Graph g = ValueOrDie(which == 0   ? GenerateErdosRenyi(options)
                             : which == 1 ? GenerateRmat(options)
                                          : GenerateConnected(options));
  EXPECT_EQ(g.NumNodes(), 500u);
  EXPECT_EQ(g.NumEdges(), 2000u);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto ids = g.NeighborIds(u);
    for (size_t e = 0; e < ids.size(); ++e) {
      EXPECT_NE(ids[e], u) << "self loop at " << u;
      if (e > 0) {
        EXPECT_LT(ids[e - 1], ids[e]) << "duplicate edge at " << u;
      }
      // Symmetry.
      EXPECT_TRUE(g.HasEdge(ids[e], u));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorInvariantsTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1u, 7u, 42u)));

TEST(GeneratorsTest, Deterministic) {
  GeneratorOptions options;
  options.num_nodes = 200;
  options.num_edges = 600;
  options.seed = 5;
  const Graph a = ValueOrDie(GenerateRmat(options));
  const Graph b = ValueOrDie(GenerateRmat(options));
  ASSERT_EQ(a.neighbors().size(), b.neighbors().size());
  EXPECT_TRUE(std::ranges::equal(a.neighbors(), b.neighbors()));
}

TEST(GeneratorsTest, RmatIsMoreSkewedThanEr) {
  GeneratorOptions options;
  options.num_nodes = 2000;
  options.num_edges = 10000;
  options.seed = 3;
  const Graph er = ValueOrDie(GenerateErdosRenyi(options));
  RmatParams skewed;  // defaults a=0.45 already skewed
  const Graph rmat = ValueOrDie(GenerateRmat(options, skewed));
  const auto max_degree = [](const Graph& g) {
    uint32_t best = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      best = std::max(best, g.Degree(u));
    }
    return best;
  };
  EXPECT_GT(max_degree(rmat), max_degree(er))
      << "R-MAT should produce hub nodes";
}

TEST(GeneratorsTest, ConnectedGraphIsConnected) {
  GeneratorOptions options;
  options.num_nodes = 300;
  options.num_edges = 400;
  options.seed = 9;
  const Graph g = ValueOrDie(GenerateConnected(options));
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(GeneratorsTest, RandomWeightsArePositive) {
  GeneratorOptions options;
  options.num_nodes = 100;
  options.num_edges = 300;
  options.random_weights = true;
  const Graph g = ValueOrDie(GenerateErdosRenyi(options));
  for (const double w : g.weights()) {
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(GeneratorsTest, WattsStrogatzInvariants) {
  GeneratorOptions options;
  options.num_nodes = 1000;
  options.seed = 4;
  const Graph g =
      ValueOrDie(GenerateWattsStrogatz(options, /*lattice_degree=*/6,
                                       /*rewire_beta=*/0.1));
  // Edge count is ~ n * k / 2 (rewiring can collide and drop a few).
  EXPECT_GT(g.NumEdges(), 1000u * 3 * 9 / 10);
  EXPECT_LE(g.NumEdges(), 1000u * 3);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const NodeId v : g.NeighborIds(u)) EXPECT_NE(u, v);
  }
  // beta = 0: a pure ring lattice, fully deterministic.
  const Graph ring = ValueOrDie(GenerateWattsStrogatz(options, 4, 0.0));
  EXPECT_EQ(ring.NumEdges(), 2000u);
  EXPECT_TRUE(ring.HasEdge(0, 1));
  EXPECT_TRUE(ring.HasEdge(0, 2));
  EXPECT_TRUE(ring.HasEdge(0, 999));
  EXPECT_FALSE(ring.HasEdge(0, 3));
}

TEST(GeneratorsTest, WattsStrogatzRejectsBadParameters) {
  GeneratorOptions options;
  options.num_nodes = 100;
  EXPECT_FALSE(GenerateWattsStrogatz(options, 3, 0.1).ok());   // odd degree
  EXPECT_FALSE(GenerateWattsStrogatz(options, 0, 0.1).ok());
  EXPECT_FALSE(GenerateWattsStrogatz(options, 4, 1.5).ok());   // bad beta
  options.num_nodes = 2;
  EXPECT_FALSE(GenerateWattsStrogatz(options, 2, 0.1).ok());
}

TEST(GeneratorsTest, RejectsBadOptions) {
  GeneratorOptions options;
  options.num_nodes = 1;  // too few
  options.num_edges = 0;
  EXPECT_FALSE(GenerateErdosRenyi(options).ok());
  options.num_nodes = 10;
  options.num_edges = 40;  // > half of all pairs (45/2)
  EXPECT_FALSE(GenerateErdosRenyi(options).ok());
  options.num_edges = 5;   // < n-1
  EXPECT_FALSE(GenerateConnected(options).ok());
  options.num_edges = 20;
  RmatParams bad;
  bad.a = 0.9;  // probabilities no longer sum to 1
  EXPECT_FALSE(GenerateRmat(options, bad).ok());
}

}  // namespace
}  // namespace flos
