// Tests for block-parallel bound sweeps (FlosOptions::sweep_threads):
// parallel runs must certify the same top-k as serial runs for every
// measure, the certified result must match the
// exact whole-graph ground truth, and repeated parallel runs must be
// bit-deterministic (fixed partition + immutable snapshot — correctness
// must not depend on a lucky interleaving). The whole suite runs under
// TSAN in CI, which turns any cross-chunk write race into a failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "graph/accessor.h"
#include "graph/graph.h"
#include "measures/exact.h"
#include "measures/measure.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

constexpr Measure kAllMeasures[] = {Measure::kPhp, Measure::kEi,
                                    Measure::kDht, Measure::kTht,
                                    Measure::kRwr};

FlosOptions SweepOptions(Measure m, int threads) {
  FlosOptions o;
  o.measure = m;
  o.sweep_threads = threads;
  // Force the parallel path even on small visited sets; production keeps
  // the adaptive threshold, the test wants coverage.
  o.sweep_parallel_min_rows = 1;
  return o;
}

std::vector<NodeId> SortedNodes(const FlosResult& r) {
  std::vector<NodeId> nodes;
  nodes.reserve(r.topk.size());
  for (const ScoredNode& s : r.topk) nodes.push_back(s.node);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

// Serial and 4-thread parallel runs over the same graph must both certify,
// return the same top-k node set, and rank correctly against the exact
// whole-graph solver. Score values may differ in the last ulps (the
// parallel sweep is block-Jacobi across chunks, a different — equally
// certified — iterate), so the comparison is set + ground-truth based.
TEST(ParallelSweepTest, MatchesSerialAcrossMeasuresScalar) {
  const Graph g = RandomConnectedGraph(600, 2400, 17);
  InMemoryAccessor serial_accessor(&g);
  InMemoryAccessor parallel_accessor(&g);
  FlosEngine serial_engine(&serial_accessor);
  FlosEngine parallel_engine(&parallel_accessor);
  const MeasureParams params;
  for (const NodeId q : {NodeId{5}, NodeId{321}}) {
    for (const Measure m : kAllMeasures) {
      SCOPED_TRACE(::testing::Message()
                   << "measure=" << static_cast<int>(m) << " query=" << q);
      const FlosResult serial =
          ValueOrDie(serial_engine.TopK(q, 10, SweepOptions(m, 1)));
      const FlosResult parallel =
          ValueOrDie(parallel_engine.TopK(q, 10, SweepOptions(m, 4)));
      ASSERT_TRUE(serial.stats.exact);
      ASSERT_TRUE(parallel.stats.exact)
          << "parallel sweeps must not lose certification";
      EXPECT_EQ(SortedNodes(serial), SortedNodes(parallel))
          << "serial and parallel certified top-k sets must agree";
      for (const ScoredNode& s : parallel.topk) {
        EXPECT_LE(s.lower, s.upper + 1e-12)
            << "certified interval inverted for node " << s.node;
      }
      const auto exact = ValueOrDie(ExactMeasure(g, q, m, params));
      std::vector<NodeId> nodes;
      for (const ScoredNode& s : parallel.topk) nodes.push_back(s.node);
      testing::ExpectTopKMatchesScores(nodes, exact, q, 10,
                                       MeasureDirection(m), 1e-6);
    }
  }
}

// The certified lower/upper intervals of a parallel run must bracket the
// exact values for the measures returned in their native bound space
// (PHP; THT's intervals come from the same horizon DP the exact solver
// runs). EI/RWR intervals are scaled with a query-local estimate of the
// normalization constant, so only their ranking is checked above.
TEST(ParallelSweepTest, IntervalsBracketExactValues) {
  const Graph g = RandomConnectedGraph(400, 1600, 23);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  const NodeId q = 11;
  const FlosResult php =
      ValueOrDie(engine.TopK(q, 10, SweepOptions(Measure::kPhp, 4)));
  ASSERT_TRUE(php.stats.exact);
  const auto exact_php = ValueOrDie(ExactPhp(g, q, 0.5));
  for (const ScoredNode& s : php.topk) {
    EXPECT_GE(exact_php[s.node], s.lower - 1e-7) << "node " << s.node;
    EXPECT_LE(exact_php[s.node], s.upper + 1e-7) << "node " << s.node;
  }
  const FlosResult tht =
      ValueOrDie(engine.TopK(q, 10, SweepOptions(Measure::kTht, 4)));
  ASSERT_TRUE(tht.stats.exact);
  const auto exact_tht = ValueOrDie(ExactTht(g, q, 10));
  for (const ScoredNode& s : tht.topk) {
    EXPECT_GE(exact_tht[s.node], s.lower - 1e-7) << "node " << s.node;
    EXPECT_LE(exact_tht[s.node], s.upper + 1e-7) << "node " << s.node;
  }
}

// Fixed partition + immutable snapshot makes the parallel sweep
// deterministic: two runs of the same query on the same engine must agree
// bit for bit, not merely to tolerance.
TEST(ParallelSweepTest, ParallelRunsAreBitDeterministic) {
  const Graph g = RandomConnectedGraph(500, 2000, 31);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  for (const Measure m : kAllMeasures) {
    SCOPED_TRACE(::testing::Message() << "measure=" << static_cast<int>(m));
    const FlosOptions o = SweepOptions(m, 4);
    const FlosResult a = ValueOrDie(engine.TopK(9, 10, o));
    const FlosResult b = ValueOrDie(engine.TopK(9, 10, o));
    ASSERT_EQ(a.topk.size(), b.topk.size());
    for (size_t i = 0; i < a.topk.size(); ++i) {
      EXPECT_EQ(a.topk[i].node, b.topk[i].node);
      EXPECT_EQ(a.topk[i].score, b.topk[i].score);
      EXPECT_EQ(a.topk[i].lower, b.topk[i].lower);
      EXPECT_EQ(a.topk[i].upper, b.topk[i].upper);
    }
    EXPECT_EQ(a.stats.inner_iterations, b.stats.inner_iterations);
    EXPECT_EQ(a.stats.visited_nodes, b.stats.visited_nodes);
  }
}

// Multi-source queries go through the same solve path; parallel sweeps
// must preserve their certification too.
TEST(ParallelSweepTest, MultiSourceParallelMatchesSerial) {
  const Graph g = RandomConnectedGraph(500, 2000, 41);
  InMemoryAccessor serial_accessor(&g);
  InMemoryAccessor parallel_accessor(&g);
  FlosEngine serial_engine(&serial_accessor);
  FlosEngine parallel_engine(&parallel_accessor);
  const std::vector<NodeId> sources = {3, 77, 240};
  for (const Measure m : {Measure::kPhp, Measure::kDht, Measure::kTht}) {
    SCOPED_TRACE(::testing::Message() << "measure=" << static_cast<int>(m));
    const FlosResult serial = ValueOrDie(serial_engine.TopKSet(
        sources, 8, SweepOptions(m, 1)));
    const FlosResult parallel = ValueOrDie(parallel_engine.TopKSet(
        sources, 8, SweepOptions(m, 4)));
    ASSERT_TRUE(serial.stats.exact);
    ASSERT_TRUE(parallel.stats.exact);
    EXPECT_EQ(SortedNodes(serial), SortedNodes(parallel));
  }
}

// With the production threshold left at its default, a small query must
// still work (the engine quietly stays serial below the row floor) and an
// engine must survive thread-count changes between queries (the pool is
// lazily recreated).
TEST(ParallelSweepTest, AdaptiveThresholdAndThreadCountChanges) {
  const Graph g = RandomConnectedGraph(300, 1200, 53);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  FlosOptions defaults;  // sweep_parallel_min_rows = 4096 stays serial here
  defaults.sweep_threads = 4;
  const FlosResult small = ValueOrDie(engine.TopK(7, 10, defaults));
  EXPECT_TRUE(small.stats.exact);
  for (const int threads : {1, 2, 8, 1, 4}) {
    FlosOptions o = SweepOptions(Measure::kPhp, threads);
    const FlosResult r = ValueOrDie(engine.TopK(7, 10, o));
    EXPECT_TRUE(r.stats.exact) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace flos
