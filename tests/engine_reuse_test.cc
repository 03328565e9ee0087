// FlosEngine workspace-reuse tests: a reused engine must return results
// bit-identical to a fresh engine (and to the one-shot FlosTopK wrappers)
// for every measure, in any interleaving, and a failed call must not
// poison the workspace for subsequent queries.

#include "core/flos_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/flos.h"
#include "graph/accessor.h"
#include "measures/measure.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace flos {
namespace {

using testing::PaperExampleGraph;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

// Bit-identical comparison: the reused engine runs the exact same code
// path over the exact same input sequence as a fresh one, so even the
// floating-point scores must match exactly, not just within tolerance.
void ExpectBitIdentical(const FlosResult& a, const FlosResult& b) {
  ASSERT_EQ(a.topk.size(), b.topk.size());
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].node, b.topk[i].node) << "entry " << i;
    EXPECT_EQ(a.topk[i].score, b.topk[i].score) << "entry " << i;
    EXPECT_EQ(a.topk[i].lower, b.topk[i].lower) << "entry " << i;
    EXPECT_EQ(a.topk[i].upper, b.topk[i].upper) << "entry " << i;
  }
  EXPECT_EQ(a.stats.visited_nodes, b.stats.visited_nodes);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  EXPECT_EQ(a.stats.inner_iterations, b.stats.inner_iterations);
  EXPECT_EQ(a.stats.exact, b.stats.exact);
  EXPECT_EQ(a.stats.exhausted_component, b.stats.exhausted_component);
}

FlosOptions OptionsFor(Measure measure) {
  FlosOptions options;
  options.measure = measure;
  options.c = 0.5;
  options.tht_length = 8;
  return options;
}

TEST(EngineReuseTest, SameQueryTwiceIsBitIdentical) {
  const Graph g = RandomConnectedGraph(300, 900, 17);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  const FlosOptions options = OptionsFor(Measure::kPhp);
  const FlosResult first = ValueOrDie(engine.TopK(4, 10, options));
  const FlosResult second = ValueOrDie(engine.TopK(4, 10, options));
  ExpectBitIdentical(first, second);
}

TEST(EngineReuseTest, ReuseMatchesFreshEngineAcrossAllMeasures) {
  const Graph g = RandomConnectedGraph(300, 900, 23);
  InMemoryAccessor accessor(&g);
  FlosEngine reused(&accessor);

  const Measure measures[] = {Measure::kPhp, Measure::kEi, Measure::kDht,
                              Measure::kTht, Measure::kRwr};
  Rng rng(5);
  // Interleave measures and queries on ONE engine; every answer must be
  // bit-identical to a throwaway engine answering only that query.
  for (int round = 0; round < 3; ++round) {
    for (const Measure m : measures) {
      const auto query = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      const FlosOptions options = OptionsFor(m);
      const FlosResult warm = ValueOrDie(reused.TopK(query, 10, options));
      InMemoryAccessor fresh_accessor(&g);
      FlosEngine fresh(&fresh_accessor);
      const FlosResult cold = ValueOrDie(fresh.TopK(query, 10, options));
      ExpectBitIdentical(warm, cold);
    }
  }
}

TEST(EngineReuseTest, ReuseMatchesOneShotWrapper) {
  const Graph g = RandomConnectedGraph(200, 600, 31);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  const FlosOptions options = OptionsFor(Measure::kRwr);
  for (const NodeId query : {NodeId{0}, NodeId{7}, NodeId{199}, NodeId{7}}) {
    const FlosResult warm = ValueOrDie(engine.TopK(query, 5, options));
    const FlosResult one_shot = ValueOrDie(FlosTopK(g, query, 5, options));
    ExpectBitIdentical(warm, one_shot);
  }
}

TEST(EngineReuseTest, MultiSourceReuseMatchesFresh) {
  const Graph g = RandomConnectedGraph(200, 600, 41);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  const FlosOptions options = OptionsFor(Measure::kPhp);
  const std::vector<std::vector<NodeId>> query_sets = {
      {3, 77, 150}, {0, 1}, {3, 77, 150}};
  for (const auto& queries : query_sets) {
    const FlosResult warm = ValueOrDie(engine.TopKSet(queries, 8, options));
    const FlosResult cold = ValueOrDie(FlosTopKSet(g, queries, 8, options));
    ExpectBitIdentical(warm, cold);
  }
}

TEST(EngineReuseTest, FailedCallDoesNotPoisonEngine) {
  const Graph g = PaperExampleGraph();
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  const FlosOptions options = OptionsFor(Measure::kPhp);

  const FlosResult before = ValueOrDie(engine.TopK(0, 3, options));

  // Invalid arguments of every flavor: bad k, out-of-range node, bad c,
  // multi-source with a single-source-only measure, duplicate queries.
  EXPECT_FALSE(engine.TopK(0, 0, options).ok());
  EXPECT_FALSE(
      engine.TopK(static_cast<NodeId>(g.NumNodes()), 3, options).ok());
  FlosOptions bad_c = options;
  bad_c.c = 1.5;
  EXPECT_FALSE(engine.TopK(0, 3, bad_c).ok());
  EXPECT_FALSE(engine.TopKSet({0, 1}, 3, OptionsFor(Measure::kRwr)).ok());
  EXPECT_FALSE(engine.TopKSet({0, 0}, 3, options).ok());

  const FlosResult after = ValueOrDie(engine.TopK(0, 3, options));
  ExpectBitIdentical(before, after);
}

TEST(EngineReuseTest, RetiredSweepThreadsIsRejected) {
  // Bound sweeps are serial; the retired field fails closed instead of
  // being silently ignored, and the rejection leaves the engine usable.
  const Graph g = RandomConnectedGraph(200, 600, 53);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  FlosOptions threaded = OptionsFor(Measure::kPhp);
  threaded.sweep_threads = 4;
  const Result<FlosResult> rejected = engine.TopK(7, 10, threaded);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const FlosResult serial =
      ValueOrDie(engine.TopK(7, 10, OptionsFor(Measure::kPhp)));
  EXPECT_TRUE(serial.stats.exact);
}

TEST(EngineReuseTest, TruncatedRunDoesNotPoisonEngine) {
  // A best-effort (max_visited-truncated) query leaves the workspace mid
  // search; the next query must still start from a clean slate.
  const Graph g = RandomConnectedGraph(300, 900, 53);
  InMemoryAccessor accessor(&g);
  FlosEngine engine(&accessor);
  FlosOptions truncated = OptionsFor(Measure::kPhp);
  truncated.max_visited = 5;
  const FlosResult partial = ValueOrDie(engine.TopK(9, 10, truncated));
  EXPECT_FALSE(partial.stats.exact);

  const FlosOptions options = OptionsFor(Measure::kPhp);
  const FlosResult warm = ValueOrDie(engine.TopK(9, 10, options));
  const FlosResult cold = ValueOrDie(FlosTopK(g, 9, 10, options));
  ExpectBitIdentical(warm, cold);
}

}  // namespace
}  // namespace flos
