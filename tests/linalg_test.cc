// Tests for the linear algebra substrate: CSR matrices, dense and sparse
// LU, and RCM ordering.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "linalg/lu.h"
#include "linalg/rcm.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::ValueOrDie;

TEST(CsrMatrixTest, FromTripletsSumsDuplicates) {
  const CsrMatrix m = ValueOrDie(CsrMatrix::FromTriplets(
      2, 3, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 2, 4.0}, {0, 0, 1.0}}));
  EXPECT_EQ(m.NumNonZeros(), 3u);
  std::vector<double> y;
  m.Multiply({1.0, 1.0, 1.0}, &y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);  // 1 + 3
  EXPECT_DOUBLE_EQ(y[1], 4.0);
}

TEST(CsrMatrixTest, RejectsOutOfRangeAndNonFinite) {
  EXPECT_FALSE(CsrMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}).ok());
  EXPECT_FALSE(CsrMatrix::FromTriplets(2, 2, {{0, 2, 1.0}}).ok());
  EXPECT_FALSE(
      CsrMatrix::FromTriplets(2, 2, {{0, 0, std::nan("")}}).ok());
}

TEST(CsrMatrixTest, TransposeRoundTrip) {
  const CsrMatrix m = ValueOrDie(CsrMatrix::FromTriplets(
      3, 2, {{0, 1, 5.0}, {2, 0, 3.0}, {1, 1, 2.0}}));
  const CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  std::vector<double> y;
  t.Multiply({1.0, 2.0, 3.0}, &y);
  EXPECT_DOUBLE_EQ(y[0], 9.0);   // 3*3
  EXPECT_DOUBLE_EQ(y[1], 9.0);   // 5*1 + 2*2
}

TEST(CsrMatrixTest, InfinityNorm) {
  const CsrMatrix m = ValueOrDie(
      CsrMatrix::FromTriplets(2, 2, {{0, 0, -3.0}, {0, 1, 1.0}, {1, 0, 2.0}}));
  EXPECT_DOUBLE_EQ(m.InfinityNorm(), 4.0);
}

TEST(DenseLuTest, SolvesRandomSystems) {
  Rng rng(13);
  const uint32_t n = 20;
  DenseMatrix a(n, n);
  std::vector<double> x_true(n);
  for (uint32_t i = 0; i < n; ++i) {
    x_true[i] = rng.NextDouble() * 4 - 2;
    for (uint32_t j = 0; j < n; ++j) {
      a.at(i, j) = rng.NextDouble() - 0.5;
    }
    a.at(i, i) += n;  // diagonally dominant => well-conditioned
  }
  std::vector<double> b;
  a.Multiply(x_true, &b);
  const DenseLu lu = ValueOrDie(DenseLu::Factor(a));
  std::vector<double> x;
  FLOS_ASSERT_OK(lu.Solve(b, &x));
  for (uint32_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(DenseLuTest, DetectsSingular) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_FALSE(DenseLu::Factor(a).ok());
}

TEST(DenseLuTest, PivotsWhenDiagonalIsZero) {
  DenseMatrix a(2, 2);
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;  // permutation matrix: needs pivoting
  const DenseLu lu = ValueOrDie(DenseLu::Factor(a));
  std::vector<double> x;
  FLOS_ASSERT_OK(lu.Solve({3.0, 7.0}, &x));
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLuTest, MatchesDenseOnRandomWalkSystem) {
  // A = I - 0.5 P for a random graph: strictly diagonally dominant.
  const Graph g = testing::RandomConnectedGraph(40, 100, 3);
  const auto n = static_cast<uint32_t>(g.NumNodes());
  std::vector<Triplet> triplets;
  DenseMatrix dense(n, n);
  for (uint32_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 1.0});
    dense.at(i, i) = 1.0;
    const auto ids = g.NeighborIds(i);
    const auto ws = g.NeighborWeights(i);
    for (size_t e = 0; e < ids.size(); ++e) {
      const double v = -0.5 * ws[e] / g.WeightedDegree(i);
      triplets.push_back({i, ids[e], v});
      dense.at(i, ids[e]) = v;
    }
  }
  const CsrMatrix a = ValueOrDie(CsrMatrix::FromTriplets(n, n, triplets));
  const SparseLu sparse = ValueOrDie(SparseLu::Factor(a, 1u << 24));
  const DenseLu exact = ValueOrDie(DenseLu::Factor(dense));
  std::vector<double> b(n, 0.0);
  b[0] = 1.0;
  b[7] = -2.0;
  std::vector<double> xs;
  std::vector<double> xd;
  FLOS_ASSERT_OK(sparse.Solve(b, &xs));
  FLOS_ASSERT_OK(exact.Solve(b, &xd));
  for (uint32_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseLuTest, RespectsFillBudget) {
  const Graph g = testing::RandomConnectedGraph(60, 400, 4);
  const auto n = static_cast<uint32_t>(g.NumNodes());
  std::vector<Triplet> triplets;
  for (uint32_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 1.0});
    const auto ids = g.NeighborIds(i);
    const auto ws = g.NeighborWeights(i);
    for (size_t e = 0; e < ids.size(); ++e) {
      triplets.push_back({i, ids[e], -0.4 * ws[e] / g.WeightedDegree(i)});
    }
  }
  const CsrMatrix a = ValueOrDie(CsrMatrix::FromTriplets(n, n, triplets));
  const auto result = SparseLu::Factor(a, /*max_fill_entries=*/10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(RcmTest, ProducesValidPermutation) {
  const Graph g = testing::RandomConnectedGraph(100, 250, 6);
  const std::vector<NodeId> perm = ReverseCuthillMckee(g);
  ASSERT_EQ(perm.size(), g.NumNodes());
  const std::vector<NodeId> inv = InvertPermutation(perm);
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
  }
}

TEST(RcmTest, ReducesBandwidthOnAPath) {
  // Path graph labelled in scrambled order; RCM should recover a
  // low-bandwidth (near-path) ordering.
  GraphBuilder builder;
  const NodeId scrambled[] = {4, 9, 1, 7, 0, 5, 8, 2, 6, 3};
  for (int i = 0; i + 1 < 10; ++i) {
    FLOS_ASSERT_OK(builder.AddEdge(scrambled[i], scrambled[i + 1]));
  }
  const Graph g = ValueOrDie(std::move(builder).Build());
  const std::vector<NodeId> perm = ReverseCuthillMckee(g);
  const std::vector<NodeId> inv = InvertPermutation(perm);
  uint32_t bandwidth = 0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const NodeId v : g.NeighborIds(u)) {
      const uint32_t d = inv[u] > inv[v] ? inv[u] - inv[v] : inv[v] - inv[u];
      bandwidth = std::max(bandwidth, d);
    }
  }
  EXPECT_EQ(bandwidth, 1u);  // a path has optimal bandwidth 1
}

}  // namespace
}  // namespace flos
