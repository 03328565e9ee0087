// Filtered (label-constrained) engine correctness: exactness parity for
// every measure x predicate type against the whole-graph exact solvers
// restricted to matching nodes, the fewer-than-k and zero-match paths,
// query-cache predicate isolation, and warm-subgraph sharing across
// predicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "core/predicate.h"
#include "core/query_cache.h"
#include "core/subgraph_cache.h"
#include "graph/accessor.h"
#include "graph/labels.h"
#include "measures/exact.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using flos::testing::RandomConnectedGraph;
using flos::testing::ValueOrDie;

/// Certified scores are interval midpoints; the solver separates ranks to
/// FlosOptions::tolerance (1e-5), so parity checks allow that slack.
constexpr double kTol = 2e-5;

LabelPredicate MakeOrDie(PredicateType type, std::vector<LabelId> labels) {
  return ValueOrDie(LabelPredicate::Make(type, std::move(labels)));
}

/// Labels for parity tests: a small universe, 2 per node, uniform, so
/// every predicate type has a healthy match population.
LabelStore TestLabels(uint64_t num_nodes, uint64_t seed = 11) {
  LabelGenOptions options;
  options.num_nodes = num_nodes;
  options.num_labels = 6;
  options.labels_per_node = 2;
  options.seed = seed;
  return ValueOrDie(GenerateUniformLabels(options));
}

/// The exact filtered answer: scores of matching nodes (query excluded),
/// best-first under the measure's direction.
std::vector<double> MatchingScoresSorted(const std::vector<double>& exact,
                                         const LabelStore& labels,
                                         const LabelPredicate& predicate,
                                         NodeId query, Direction direction) {
  std::vector<double> scores;
  for (NodeId v = 0; v < static_cast<NodeId>(exact.size()); ++v) {
    if (v == query) continue;
    if (!predicate.Matches(labels.Labels(v))) continue;
    scores.push_back(exact[v]);
  }
  std::sort(scores.begin(), scores.end(), [direction](double a, double b) {
    return IsCloser(direction, a, b);
  });
  return scores;
}

/// Asserts `result` is the certified exact filtered top-k: every returned
/// node matches the predicate, and the returned SET is exactly the k best
/// matching nodes. Certification proves set membership; the order WITHIN
/// the set is only resolved up to interval overlap, so the true scores of
/// the returned nodes are compared sorted, not positionally.
void ExpectFilteredParity(const Graph& graph, const LabelStore& labels,
                          const LabelPredicate& predicate, NodeId query,
                          int k, Measure measure, const FlosResult& result) {
  MeasureParams params;
  const std::vector<double> exact =
      ValueOrDie(ExactMeasure(graph, query, measure, params));
  const Direction direction = MeasureDirection(measure);
  const std::vector<double> best = MatchingScoresSorted(
      exact, labels, predicate, query, direction);
  const size_t expect_n =
      std::min<size_t>(static_cast<size_t>(k), best.size());
  ASSERT_EQ(result.topk.size(), expect_n)
      << MeasureName(measure) << " " << predicate.ToString();
  EXPECT_TRUE(result.stats.exact);
  std::vector<double> returned;
  for (const ScoredNode& s : result.topk) {
    EXPECT_NE(s.node, query);
    EXPECT_TRUE(predicate.Matches(labels.Labels(s.node)))
        << "node " << s.node << " violates " << predicate.ToString();
    // The certified interval must sandwich the true score.
    EXPECT_LE(s.lower, exact[s.node] + kTol);
    EXPECT_GE(s.upper, exact[s.node] - kTol);
    returned.push_back(exact[s.node]);
  }
  std::sort(returned.begin(), returned.end(),
            [direction](double a, double b) {
              return IsCloser(direction, a, b);
            });
  for (size_t i = 0; i < returned.size(); ++i) {
    EXPECT_NEAR(returned[i], best[i], kTol)
        << MeasureName(measure) << " " << predicate.ToString() << " rank "
        << i;
  }
}

TEST(FilteredEngineTest, ParityForEveryMeasureAndPredicateType) {
  const Graph graph = RandomConnectedGraph(300, 1400, 7);
  const LabelStore labels = TestLabels(graph.NumNodes());
  const std::vector<LabelPredicate> predicates = {
      MakeOrDie(PredicateType::kEquality, {0, 2}),
      MakeOrDie(PredicateType::kContainment, {1}),
      MakeOrDie(PredicateType::kOverlap, {3, 4}),
  };
  const std::vector<Measure> measures = {Measure::kPhp, Measure::kEi,
                                         Measure::kDht, Measure::kTht,
                                         Measure::kRwr};
  for (const Measure measure : measures) {
    for (const LabelPredicate& predicate : predicates) {
      FlosOptions options;
      options.measure = measure;
      options.labels = &labels;
      options.predicate = predicate;
      const NodeId query = 5;
      const FlosResult result =
          ValueOrDie(FlosTopK(graph, query, 10, options));
      ExpectFilteredParity(graph, labels, predicate, query, 10, measure,
                           result);
    }
  }
}

TEST(FilteredEngineTest, FewerMatchesThanKStillCertifies) {
  const Graph graph = RandomConnectedGraph(200, 900, 3);
  // "rare" on exactly 3 nodes, "common" everywhere.
  LabelStore::Builder builder(graph.NumNodes());
  const LabelId common = builder.table().Intern("common");
  const LabelId rare = builder.table().Intern("rare");
  for (NodeId v = 0; v < static_cast<NodeId>(graph.NumNodes()); ++v) {
    builder.Add(v, common);
  }
  builder.Add(17, rare);
  builder.Add(90, rare);
  builder.Add(155, rare);
  const LabelStore labels = std::move(builder).Build();

  FlosOptions options;
  options.labels = &labels;
  options.predicate = MakeOrDie(PredicateType::kContainment, {rare});
  const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 10, options));
  EXPECT_TRUE(result.stats.exact)
      << "k above the match count must still certify via k_eff";
  ASSERT_EQ(result.topk.size(), 3u);
  ExpectFilteredParity(graph, labels, options.predicate, 0, 10,
                       Measure::kPhp, result);
}

TEST(FilteredEngineTest, ZeroMatchesCertifiesEmptyWithoutSearch) {
  const Graph graph = RandomConnectedGraph(100, 400, 9);
  LabelStore::Builder builder(graph.NumNodes());
  const LabelId used = builder.table().Intern("used");
  const LabelId unused = builder.table().Intern("unused");
  for (NodeId v = 0; v < static_cast<NodeId>(graph.NumNodes()); ++v) {
    builder.Add(v, used);
  }
  const LabelStore labels = std::move(builder).Build();

  FlosOptions options;
  options.labels = &labels;
  options.predicate = MakeOrDie(PredicateType::kContainment, {unused});
  const FlosResult result = ValueOrDie(FlosTopK(graph, 0, 5, options));
  EXPECT_TRUE(result.topk.empty());
  EXPECT_TRUE(result.stats.exact) << "an empty filtered answer is exact";
  EXPECT_EQ(result.stats.visited_nodes, 0u)
      << "MaxMatches == 0 must shortcut the search entirely";
}

TEST(FilteredEngineTest, PredicateWithoutStoreIsRejected) {
  const Graph graph = RandomConnectedGraph(50, 200, 1);
  FlosOptions options;
  options.predicate = MakeOrDie(PredicateType::kOverlap, {0});
  EXPECT_FALSE(FlosTopK(graph, 0, 5, options).ok());
}

TEST(FilteredEngineTest, MismatchedStoreSizeIsRejected) {
  const Graph graph = RandomConnectedGraph(50, 200, 1);
  const LabelStore labels = TestLabels(graph.NumNodes() - 1);
  FlosOptions options;
  options.labels = &labels;
  options.predicate = MakeOrDie(PredicateType::kOverlap, {0});
  EXPECT_FALSE(FlosTopK(graph, 0, 5, options).ok());
}

TEST(FilteredEngineTest, QueryCacheNeverCrossesPredicates) {
  const Graph graph = RandomConnectedGraph(250, 1100, 5);
  const LabelStore labels = TestLabels(graph.NumNodes());
  InMemoryAccessor accessor(&graph);
  FlosEngine engine(&accessor);
  QueryCache cache(64);
  engine.set_query_cache(&cache);

  const NodeId query = 4;
  FlosOptions unfiltered;
  const FlosResult plain =
      ValueOrDie(engine.TopK(query, 10, unfiltered));
  EXPECT_FALSE(plain.stats.cache_hit);

  // Same (query, k, measure, c) with a predicate: must MISS the cached
  // unfiltered answer and produce the filtered one.
  FlosOptions filtered = unfiltered;
  filtered.labels = &labels;
  filtered.predicate = MakeOrDie(PredicateType::kContainment, {2});
  const FlosResult first =
      ValueOrDie(engine.TopK(query, 10, filtered));
  EXPECT_FALSE(first.stats.cache_hit)
      << "the unfiltered entry must not satisfy a filtered query";
  for (const ScoredNode& s : first.topk) {
    EXPECT_TRUE(filtered.predicate.Matches(labels.Labels(s.node)));
  }

  // A different predicate with the same shape must also miss.
  FlosOptions other = filtered;
  other.predicate = MakeOrDie(PredicateType::kContainment, {3});
  const FlosResult second = ValueOrDie(engine.TopK(query, 10, other));
  EXPECT_FALSE(second.stats.cache_hit);
  for (const ScoredNode& s : second.topk) {
    EXPECT_TRUE(other.predicate.Matches(labels.Labels(s.node)));
  }

  // Repeats of each keyed variant hit, and return their own answers.
  const FlosResult plain2 = ValueOrDie(engine.TopK(query, 10, unfiltered));
  EXPECT_TRUE(plain2.stats.cache_hit);
  const FlosResult first2 = ValueOrDie(engine.TopK(query, 10, filtered));
  EXPECT_TRUE(first2.stats.cache_hit);
  ASSERT_EQ(first2.topk.size(), first.topk.size());
  for (size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(first2.topk[i].node, first.topk[i].node);
  }
}

TEST(FilteredEngineTest, EpochInvalidationStillAppliesToFilteredEntries) {
  // The filtered cache key extends (seed, k, measure, ...) with the
  // predicate fingerprint; the epoch component must keep working so a
  // mutated graph can't serve stale filtered answers.
  const Graph graph = RandomConnectedGraph(150, 700, 13);
  const LabelStore labels = TestLabels(graph.NumNodes());
  InMemoryAccessor accessor(&graph);
  FlosEngine engine(&accessor);
  QueryCache cache(64);
  engine.set_query_cache(&cache);

  FlosOptions filtered;
  filtered.labels = &labels;
  filtered.predicate = MakeOrDie(PredicateType::kOverlap, {1});
  const FlosResult a = ValueOrDie(engine.TopK(2, 5, filtered));
  EXPECT_FALSE(a.stats.cache_hit);
  FlosResult out;
  QueryCache::Key key;
  key.query = 2;
  key.measure = Measure::kPhp;
  key.k = 5;
  key.c = filtered.c;
  key.tht_length = filtered.tht_length;
  key.epoch = accessor.Epoch();
  key.predicate_fp = filtered.predicate.Fingerprint();
  EXPECT_TRUE(cache.Lookup(key, &out))
      << "the filtered answer must be filed under its fingerprint";
  key.epoch = accessor.Epoch() + 1;
  EXPECT_FALSE(cache.Lookup(key, &out))
      << "an epoch bump must invalidate filtered entries too";
}

TEST(FilteredEngineTest, SubgraphSnapshotsAreSharedAcrossPredicates) {
  // The warm-subgraph tier is keyed on (seed, bound family, alpha, epoch)
  // WITHOUT the predicate: a snapshot is a fact about the graph's fixed
  // point, so predicate B may resume from the subgraph predicate A
  // expanded. The filtered answers must still differ per predicate.
  const Graph graph = RandomConnectedGraph(250, 1100, 17);
  const LabelStore labels = TestLabels(graph.NumNodes());
  InMemoryAccessor accessor(&graph);
  FlosEngine engine(&accessor);
  SubgraphCache cache(8);
  engine.set_subgraph_cache(&cache);

  FlosOptions a;
  a.labels = &labels;
  a.predicate = MakeOrDie(PredicateType::kContainment, {2});
  const NodeId query = 6;
  (void)ValueOrDie(engine.TopK(query, 8, a));  // records the seed
  const FlosResult cold = ValueOrDie(engine.TopK(query, 8, a));
  EXPECT_FALSE(cold.stats.subgraph_hit);
  EXPECT_TRUE(cold.stats.exact);

  FlosOptions b = a;
  b.predicate = MakeOrDie(PredicateType::kContainment, {3});
  const FlosResult warm = ValueOrDie(engine.TopK(query, 8, b));
  EXPECT_TRUE(warm.stats.subgraph_hit)
      << "snapshots are predicate-independent by design";
  EXPECT_TRUE(warm.stats.exact);
  ExpectFilteredParity(graph, labels, b.predicate, query, 8, Measure::kPhp,
                       warm);
}

}  // namespace
}  // namespace flos
