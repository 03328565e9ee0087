// Shared helpers for the test suite.

#ifndef FLOS_TESTS_TEST_UTIL_H_
#define FLOS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "measures/measure.h"
#include "util/status.h"

namespace flos {
namespace testing {

/// Gtest helper: asserts `status` is OK, printing the message otherwise.
#define FLOS_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::flos::Status flos_test_status_ = (expr);         \
    ASSERT_TRUE(flos_test_status_.ok()) << flos_test_status_.ToString(); \
  } while (0)

#define FLOS_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::flos::Status flos_test_status_ = (expr);         \
    EXPECT_TRUE(flos_test_status_.ok()) << flos_test_status_.ToString(); \
  } while (0)

/// Unwraps a Result<T> in a test, failing loudly on error.
template <typename T>
T ValueOrDie(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return T{};
  return std::move(result).value();
}

/// Builds the 8-node example graph of the paper's Figure 1(a) (unit
/// weights). Node ids are 0-based: paper node i = test node i-1.
/// Adjacency: 1:{2,3} 2:{1,4} 3:{1,4,5} 4:{2,3,6,7} 5:{3,8} 6:{4,8}
/// 7:{4,8} 8:{5,6,7} — consistent with every transition probability and
/// expansion order the paper reports (p_34=p_35=1/3, p_46=p_47=1/4,
/// Table 3's visit order).
Graph PaperExampleGraph();

/// Builds the 3-node path 1-2-3 of Figure 2 (unit weights, 0-based ids).
Graph PaperPathGraph();

/// Random connected weighted graph for property tests.
Graph RandomConnectedGraph(uint64_t nodes, uint64_t edges, uint64_t seed,
                           bool random_weights = true);

/// Random weighted graph with edge weights log-uniform in [1e-3, 1e3]:
/// `edges` random pairs over nodes [0, nodes), plus node 0 joined to
/// `hub_degree` random others (a planted hub). Five extra ids past `nodes`
/// stay isolated.
Graph SpreadWeightGraph(uint64_t nodes, uint64_t edges, uint64_t seed,
                        uint32_t hub_degree = 0);

/// Exactness assertion robust to score ties: every returned node's exact
/// score must be at least as close as the exact k-th score (within `tol`).
void ExpectTopKMatchesScores(const std::vector<NodeId>& returned,
                             const std::vector<double>& exact_scores,
                             NodeId query, int k, Direction direction,
                             double tol = 1e-7);

}  // namespace testing
}  // namespace flos

#endif  // FLOS_TESTS_TEST_UTIL_H_
