// Direct tests of the unified bound engine's fixed-point internals: the
// dual-dummy upper construction, the tightened dummy values, frontier
// uppers, and the equivalence of batched and single-node expansion
// schedules.

#include "core/unified_bound_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "core/local_graph.h"
#include "graph/accessor.h"
#include "measures/exact.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::RandomConnectedGraph;
using testing::ValueOrDie;

struct EngineHarness {
  explicit EngineHarness(const Graph* g, NodeId query,
                         const UnifiedBoundOptions& be)
      : accessor(g), local(&accessor) {
    FLOS_EXPECT_OK(local.Init(query));
    engine = std::make_unique<UnifiedBoundEngine>(&local, be);
  }

  // Expands the best-midpoint boundary node once; returns false when
  // exhausted.
  bool Step() {
    LocalId best = kInvalidLocal;
    double best_mid = -1;
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (!local.IsBoundary(i)) continue;
      const double mid = 0.5 * (engine->lower(i) + engine->upper(i));
      if (mid > best_mid) {
        best = i;
        best_mid = mid;
      }
    }
    if (best == kInvalidLocal) return false;
    engine->CaptureDummyFromBoundary();
    EXPECT_TRUE(local.Expand(best).ok());
    engine->OnGrowth();
    engine->UpdateBounds();
    return true;
  }

  InMemoryAccessor accessor;
  LocalGraph local;
  std::unique_ptr<UnifiedBoundEngine> engine;
};

class DualDummyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DualDummyTest, UppersNeverCrossExactWithAllTighteningsOn) {
  const uint64_t seed = GetParam();
  const Graph g = RandomConnectedGraph(180, 540, seed);
  const NodeId q = static_cast<NodeId>(seed % g.NumNodes());
  const double alpha = 0.5;
  ExactSolveOptions tight;
  tight.tolerance = 1e-13;
  const auto exact = ValueOrDie(ExactPhp(g, q, alpha, tight));

  UnifiedBoundOptions be;
  be.traits.alpha = alpha;
  be.tolerance = 1e-9;
  be.self_loop_tightening = true;
  be.alpha_dummy_tightening = true;
  be.traits.frontier_dummy = true;  // all tightenings at once
  EngineHarness h(&g, q, be);
  int steps = 0;
  while (h.Step() && steps++ < 500) {
    for (LocalId i = 0; i < h.local.Size(); ++i) {
      const double truth = exact[h.local.GlobalId(i)];
      ASSERT_GE(h.engine->upper(i), truth - 1e-9)
          << "upper crossed exact at node " << h.local.GlobalId(i);
      ASSERT_LE(h.engine->lower(i), truth + 1e-9);
    }
    // The tight dummy must dominate every unvisited exact proximity.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (h.local.Contains(v)) continue;
      ASSERT_GE(h.engine->tight_dummy_value(), exact[v] - 1e-9)
          << "tight dummy below unvisited node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualDummyTest, ::testing::Values(1, 2, 3, 4));

TEST(BoundEngineTest, TightDummyIsNoLooserThanMeshDummy) {
  const Graph g = RandomConnectedGraph(150, 450, 9);
  UnifiedBoundOptions be;
  be.traits.alpha = 0.5;
  be.traits.frontier_dummy = true;
  EngineHarness h(&g, 3, be);
  for (int step = 0; step < 30 && h.Step(); ++step) {
    EXPECT_LE(h.engine->tight_dummy_value(),
              h.engine->dummy_value() + 1e-15);
  }
}

TEST(BoundEngineTest, FrontierUppersDominateUnvisitedExact) {
  const Graph g = RandomConnectedGraph(150, 450, 21);
  const NodeId q = 5;
  ExactSolveOptions tight;
  tight.tolerance = 1e-13;
  const auto exact = ValueOrDie(ExactPhp(g, q, 0.5, tight));
  UnifiedBoundOptions be;
  be.traits.alpha = 0.5;
  EngineHarness h(&g, q, be);
  for (int step = 0; step < 25 && h.Step(); ++step) {
    const auto out = h.engine->ComputeOutsideUppers();
    if (!out.any) break;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (h.local.Contains(v)) continue;
      ASSERT_GE(out.max_value, exact[v] - 1e-9)
          << "frontier max below unvisited node " << v;
    }
  }
}

TEST(BoundEngineTest, PaperDummyRuleWhenTighteningOff) {
  // With alpha_dummy_tightening off, the dummy follows Algorithm 5 line 7
  // verbatim: max upper over the previous boundary, non-increasing.
  const Graph g = RandomConnectedGraph(100, 300, 2);
  UnifiedBoundOptions be;
  be.traits.alpha = 0.5;
  be.alpha_dummy_tightening = false;
  EngineHarness h(&g, 0, be);
  double prev = 1.0;
  for (int step = 0; step < 20 && h.Step(); ++step) {
    EXPECT_LE(h.engine->dummy_value(), prev + 1e-15);
    EXPECT_DOUBLE_EQ(h.engine->tight_dummy_value(), h.engine->dummy_value());
    prev = h.engine->dummy_value();
  }
}

TEST(BoundEngineTest, PhpQueryProbesOneDegreePerJoin) {
  // The coefficient refresh reads LocalGraph's maintained masses, and the
  // in-memory accessor serves each join's two-step return mass from the
  // graph's precomputed array: the only degree probe left in a whole PHP
  // query is the joining node's own. The audit tier re-probes on purpose
  // (it rechecks the masses with a neighbor scan), so it is not counted.
  if (kAuditEnabled) GTEST_SKIP() << "the FLOS_AUDIT mass check probes degrees";
  const Graph g = RandomConnectedGraph(5000, 25000, 21);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  FlosOptions options;
  options.measure = Measure::kPhp;
  for (const NodeId q : {NodeId{1}, NodeId{2500}, NodeId{4999}}) {
    for (const bool self_loop : {true, false}) {
      options.self_loop_tightening = self_loop;
      accessor.ResetStats();
      const FlosResult result = ValueOrDie(engine.TopK(q, 10, options));
      EXPECT_TRUE(result.stats.exact);
      EXPECT_GT(result.stats.visited_nodes, 10u);
      EXPECT_EQ(accessor.stats().neighbor_fetches, result.stats.visited_nodes);
      EXPECT_EQ(accessor.stats().degree_probes, result.stats.visited_nodes)
          << "query " << q << ", self-loop " << self_loop;
    }
  }
}

// Grows `h` by one ring: every boundary node is expanded, with the dummy
// captured from the boundary before the expansion, as FlosEngine does.
void GrowRing(EngineHarness* h) {
  std::vector<LocalId> ring;
  for (LocalId i = 0; i < h->local.Size(); ++i) {
    if (h->local.IsBoundary(i)) ring.push_back(i);
  }
  h->engine->CaptureDummyFromBoundary();
  for (const LocalId u : ring) ValueOrDie(h->local.Expand(u));
  h->engine->OnGrowth();
}

TEST(BoundEngineTest, SolveStopsOnTheFirstSweepBelowTolerance) {
  // The reference loop replays each solve on an identical twin one sweep
  // per UpdateBounds call (max_inner_iterations = 1; the coefficient
  // refresh is a no-op after the first call) and measures every sweep's
  // movement from the public bounds. The solve must stop on exactly the
  // first sweep that moved no bound by tau or more, with the same bounds.
  const Graph g = RandomConnectedGraph(3000, 12000, 5);
  const NodeId query = 7;
  UnifiedBoundOptions be;
  be.traits = BoundTraitsFor(Measure::kPhp, 0.5, 10);
  be.tolerance = 1e-7;
  EngineHarness solve(&g, query, be);
  UnifiedBoundOptions one_sweep = be;
  one_sweep.max_inner_iterations = 1;
  EngineHarness reference(&g, query, one_sweep);
  bool between_checkpoints = false;
  for (int round = 0; round < 5; ++round) {
    GrowRing(&solve);
    GrowRing(&reference);
    const uint32_t n = reference.local.Size();
    ASSERT_EQ(solve.local.Size(), n);
    uint32_t want = 0;
    double movement = 0;
    do {
      std::vector<double> before(2 * static_cast<size_t>(n));
      for (LocalId i = 0; i < n; ++i) {
        before[2 * i] = reference.engine->lower(i);
        before[2 * i + 1] = reference.engine->upper(i);
      }
      ASSERT_EQ(reference.engine->UpdateBounds(), 1u);
      ++want;
      movement = 0;
      for (LocalId i = 0; i < n; ++i) {
        movement =
            std::max({movement, reference.engine->lower(i) - before[2 * i],
                      before[2 * i + 1] - reference.engine->upper(i)});
      }
      ASSERT_LT(want, 10000u);
    } while (!(movement < be.tolerance));
    EXPECT_EQ(solve.engine->UpdateBounds(), want) << "round " << round;
    for (LocalId i = 0; i < n; ++i) {
      ASSERT_EQ(solve.engine->lower(i), reference.engine->lower(i));
      ASSERT_EQ(solve.engine->upper(i), reference.engine->upper(i));
    }
    // A count past 4 that is not a multiple of 4 is one a convergence test
    // on every fourth sweep would have overshot.
    if (want > 4 && want % 4 != 0) between_checkpoints = true;
  }
  EXPECT_TRUE(between_checkpoints)
      << "no solve stopped between every-fourth-sweep checkpoints";
}

TEST(BoundEngineTest, ExpiredDeadlineStopsWithinFourSweeps) {
  // Tolerance 0 never converges, so only the deadline can stop these
  // solves. The clock is read after each of the first four sweeps, so a
  // deadline that has already passed stops the solve within four sweeps,
  // and the interrupted bounds still bracket the exact values.
  const Graph g = RandomConnectedGraph(3000, 12000, 5);
  const NodeId query = 7;
  const std::vector<double> exact = ValueOrDie(ExactPhp(g, query, 0.5));
  UnifiedBoundOptions be;
  be.traits = BoundTraitsFor(Measure::kPhp, 0.5, 10);
  be.tolerance = 0;
  be.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EngineHarness h(&g, query, be);
  for (int round = 0; round < 4; ++round) {
    GrowRing(&h);
    const uint32_t sweeps = h.engine->UpdateBounds();
    EXPECT_GE(sweeps, 1u);
    EXPECT_LE(sweeps, 4u) << "round " << round;
    EXPECT_TRUE(h.engine->deadline_hit());
    for (LocalId i = 0; i < h.local.Size(); ++i) {
      const double v = exact[h.local.GlobalId(i)];
      ASSERT_LE(h.engine->lower(i), v + 1e-9);
      ASSERT_GE(h.engine->upper(i), v - 1e-9);
    }
  }
}

TEST(ExpansionScheduleTest, BatchedAndSingleNodeSchedulesAgree) {
  // Exactness must not depend on the expansion schedule; only visited
  // counts may differ (batching can overshoot).
  const Graph g = RandomConnectedGraph(500, 1500, 77);
  MeasureParams params;
  for (const Measure m : {Measure::kPhp, Measure::kRwr}) {
    const auto exact = ValueOrDie(ExactMeasure(g, 11, m, params));
    FlosOptions single;
    single.measure = m;
    single.expansion_batch = 1;  // the paper's Algorithm 2
    FlosOptions batched;
    batched.measure = m;
    batched.expansion_batch = 0;  // adaptive default
    const FlosResult rs = ValueOrDie(FlosTopK(g, 11, 10, single));
    const FlosResult rb = ValueOrDie(FlosTopK(g, 11, 10, batched));
    EXPECT_TRUE(rs.stats.exact);
    EXPECT_TRUE(rb.stats.exact);
    std::vector<NodeId> ns;
    std::vector<NodeId> nb;
    for (const auto& s : rs.topk) ns.push_back(s.node);
    for (const auto& s : rb.topk) nb.push_back(s.node);
    testing::ExpectTopKMatchesScores(ns, exact, 11, 10, MeasureDirection(m));
    testing::ExpectTopKMatchesScores(nb, exact, 11, 10, MeasureDirection(m));
    EXPECT_GE(rb.stats.visited_nodes, rs.stats.visited_nodes / 2)
        << "sanity: both schedules explore comparable regions";
  }
}

TEST(ExpansionScheduleTest, FixedBatchRespected) {
  const Graph g = RandomConnectedGraph(300, 900, 13);
  FlosOptions options;
  options.expansion_batch = 3;
  const FlosResult r = ValueOrDie(FlosTopK(g, 2, 5, options));
  EXPECT_TRUE(r.stats.exact);
  EXPECT_GT(r.stats.expansions, 0u);
}

}  // namespace
}  // namespace flos
