// Coverage for the per-node label store: interning, builder semantics,
// file IO (round trip and strict parse failures), shard projection, and
// the three synthetic generators (deterministic seeding, Zipf skew,
// multinomial proportions).

#include "graph/labels.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace flos {
namespace {

using flos::testing::ValueOrDie;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(LabelTableTest, InternAssignsDenseIdsInOrder) {
  LabelTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Intern("red"), 0u);
  EXPECT_EQ(table.Intern("green"), 1u);
  EXPECT_EQ(table.Intern("red"), 0u) << "re-interning must be idempotent";
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find("green"), 1u);
  EXPECT_EQ(table.Find("blue"), kInvalidLabel);
  EXPECT_EQ(table.Name(0), "red");
  EXPECT_EQ(table.Name(1), "green");
}

TEST(LabelStoreTest, BuilderSortsDedupsAndCounts) {
  LabelStore::Builder builder(4);
  const LabelId a = builder.table().Intern("a");
  const LabelId b = builder.table().Intern("b");
  const LabelId c = builder.table().Intern("c");
  builder.Add(0, b);
  builder.Add(0, a);
  builder.Add(0, b);  // duplicate
  builder.Add(2, c);
  // Node 1 and 3 stay label-less.
  const LabelStore store = std::move(builder).Build();

  EXPECT_EQ(store.NumNodes(), 4u);
  EXPECT_EQ(store.NumLabels(), 3u);
  EXPECT_EQ(store.NumAssignments(), 3u);
  const auto n0 = store.Labels(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], a);
  EXPECT_EQ(n0[1], b);
  EXPECT_TRUE(store.Labels(1).empty());
  ASSERT_EQ(store.Labels(2).size(), 1u);
  EXPECT_EQ(store.Labels(2)[0], c);
  EXPECT_TRUE(store.Labels(3).empty());
  EXPECT_EQ(store.LabelNodeCount(a), 1u);
  EXPECT_EQ(store.LabelNodeCount(b), 1u);
  EXPECT_EQ(store.LabelNodeCount(c), 1u);
}

TEST(LabelStoreTest, EmptyStoreIsWellFormed) {
  const LabelStore store;
  EXPECT_EQ(store.NumNodes(), 0u);
  EXPECT_EQ(store.NumLabels(), 0u);
  EXPECT_EQ(store.NumAssignments(), 0u);
}

TEST(LabelStoreTest, ProjectKeepsGlobalLabelIdsAndRecountsLocally) {
  LabelStore::Builder builder(5);
  const LabelId x = builder.table().Intern("x");
  const LabelId y = builder.table().Intern("y");
  for (NodeId v = 0; v < 5; ++v) builder.Add(v, x);
  builder.Add(4, y);
  const LabelStore store = std::move(builder).Build();

  // Shard replicates global nodes {4, 1} as local {0, 1}.
  const std::vector<NodeId> local_to_global = {4, 1};
  const LabelStore shard = store.Project(local_to_global);

  EXPECT_EQ(shard.NumNodes(), 2u);
  // The table (and therefore every LabelId) is preserved verbatim so
  // predicates built against the full graph evaluate unchanged.
  EXPECT_EQ(shard.NumLabels(), store.NumLabels());
  EXPECT_EQ(shard.table().Find("y"), y);
  ASSERT_EQ(shard.Labels(0).size(), 2u);  // global node 4: {x, y}
  EXPECT_EQ(shard.Labels(0)[0], x);
  EXPECT_EQ(shard.Labels(0)[1], y);
  ASSERT_EQ(shard.Labels(1).size(), 1u);  // global node 1: {x}
  EXPECT_EQ(shard.Labels(1)[0], x);
  // Counts are local to the projection.
  EXPECT_EQ(shard.LabelNodeCount(x), 2u);
  EXPECT_EQ(shard.LabelNodeCount(y), 1u);
}

TEST(LabelFileTest, RoundTripsThroughDisk) {
  LabelStore::Builder builder(3);
  const LabelId red = builder.table().Intern("red");
  const LabelId blue = builder.table().Intern("blue");
  builder.Add(0, red);
  builder.Add(0, blue);
  builder.Add(2, blue);
  const LabelStore store = std::move(builder).Build();

  const std::string path = TempPath("labels_roundtrip.txt");
  FLOS_ASSERT_OK(WriteLabelFile(store, path));
  const LabelStore back = ValueOrDie(ReadLabelFile(path));

  ASSERT_EQ(back.NumNodes(), store.NumNodes());
  for (NodeId v = 0; v < 3; ++v) {
    const auto a = store.Labels(v);
    const auto b = back.Labels(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(store.table().Name(a[i]), back.table().Name(b[i]))
          << "node " << v << " label " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(LabelFileTest, CommentsAndEmptyLinesParse) {
  const std::string path = TempPath("labels_comments.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# header comment\nred, blue\n\n# interior comment\nred\n", f);
  std::fclose(f);

  const LabelStore store = ValueOrDie(ReadLabelFile(path, 3));
  EXPECT_EQ(store.NumNodes(), 3u);
  EXPECT_EQ(store.Labels(0).size(), 2u);
  EXPECT_TRUE(store.Labels(1).empty()) << "empty line = label-less node";
  EXPECT_EQ(store.Labels(2).size(), 1u);
  std::remove(path.c_str());
}

TEST(LabelFileTest, StrictParseFailures) {
  EXPECT_FALSE(ReadLabelFile(TempPath("no_such_label_file.txt")).ok());

  const std::string path = TempPath("labels_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("red,,blue\n", f);  // empty name between commas
  std::fclose(f);
  const auto bad = ReadLabelFile(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find(path), std::string::npos)
      << "parse errors must carry <path>:<line> context, got: "
      << bad.status().ToString();

  // Node-count mismatch against the declared graph size.
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("red\nblue\n", f);
  std::fclose(f);
  EXPECT_TRUE(ReadLabelFile(path, 2).ok());
  EXPECT_FALSE(ReadLabelFile(path, 3).ok());
  EXPECT_FALSE(ReadLabelFile(path, 1).ok());
  std::remove(path.c_str());
}

TEST(LabelFileTest, LongLinesAndNulBytes) {
  // 120 labels on one line: far past any fixed-size line buffer.
  std::string line;
  for (int i = 0; i < 120; ++i) {
    line += (i == 0 ? "" : ",") + std::string("label_") + std::to_string(i);
  }
  ASSERT_GT(line.size(), 511u);
  const std::string path = TempPath("labels_long.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "red\n%s\nblue\n", line.c_str());
  std::fclose(f);
  const LabelStore store = ValueOrDie(ReadLabelFile(path, 3));
  EXPECT_EQ(store.Labels(1).size(), 120u);
  EXPECT_EQ(store.NumLabels(), 122u);

  // A NUL byte is an error on its own line, not a line end.
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const std::string nul = std::string("red\nbl") + '\0' + "ue\ngreen\n";
  std::fwrite(nul.data(), 1, nul.size(), f);
  std::fclose(f);
  const auto bad = ReadLabelFile(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("labels_long.txt:2:"),
            std::string::npos)
      << bad.status().message();
  std::remove(path.c_str());
}

TEST(LabelGenTest, GeneratorsAreDeterministicPerSeed) {
  LabelGenOptions options;
  options.num_nodes = 500;
  options.num_labels = 16;
  options.labels_per_node = 3;
  options.seed = 99;
  const LabelStore a = ValueOrDie(GenerateZipfLabels(options));
  const LabelStore b = ValueOrDie(GenerateZipfLabels(options));
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  for (NodeId v = 0; v < 500; ++v) {
    const auto la = a.Labels(v);
    const auto lb = b.Labels(v);
    ASSERT_EQ(la.size(), lb.size()) << "node " << v;
    for (size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i], lb[i]) << "node " << v;
    }
  }
  // A different seed must actually change the assignment somewhere.
  options.seed = 100;
  const LabelStore c = ValueOrDie(GenerateZipfLabels(options));
  bool any_diff = false;
  for (NodeId v = 0; v < 500 && !any_diff; ++v) {
    const auto la = a.Labels(v);
    const auto lc = c.Labels(v);
    any_diff = la.size() != lc.size() ||
               !std::equal(la.begin(), la.end(), lc.begin());
  }
  EXPECT_TRUE(any_diff);
}

TEST(LabelGenTest, EveryNodeGetsExactlyTheRequestedDistinctLabels) {
  LabelGenOptions options;
  options.num_nodes = 300;
  options.num_labels = 8;
  options.labels_per_node = 3;
  options.seed = 5;
  for (const auto& generate :
       {GenerateUniformLabels, GenerateZipfLabels}) {
    const LabelStore store = ValueOrDie(generate(options));
    ASSERT_EQ(store.NumNodes(), 300u);
    EXPECT_EQ(store.NumLabels(), 8u);
    for (NodeId v = 0; v < 300; ++v) {
      const auto labels = store.Labels(v);
      ASSERT_EQ(labels.size(), 3u) << "node " << v;
      // Sorted + distinct (Build dedups; 3 distinct draws must survive).
      EXPECT_LT(labels[0], labels[1]);
      EXPECT_LT(labels[1], labels[2]);
    }
  }
}

TEST(LabelGenTest, ZipfSkewsTowardHeadLabels) {
  LabelGenOptions options;
  options.num_nodes = 20000;
  options.num_labels = 10;
  options.labels_per_node = 1;
  options.zipf_exponent = 1.0;
  options.seed = 21;
  const LabelStore store = ValueOrDie(GenerateZipfLabels(options));
  // P(label i) = (1/(i+1)) / H_10, H_10 ~ 2.929: label 0 expects ~34% of
  // nodes, label 9 ~3.4%. A 4x separation check leaves generous room for
  // sampling noise at n = 20000 (binomial sigma ~ 0.3%).
  const double head = static_cast<double>(store.LabelNodeCount(0));
  const double tail = static_cast<double>(store.LabelNodeCount(9));
  EXPECT_GT(head, 4.0 * tail)
      << "head " << head << " tail " << tail
      << ": Zipf(1.0) head/tail ratio should be ~10x";
  // And the head's share should be near its theoretical 34%.
  EXPECT_NEAR(head / 20000.0, 0.3414, 0.03);
}

TEST(LabelGenTest, MultinomialFollowsGivenWeights) {
  LabelGenOptions options;
  options.num_nodes = 20000;
  options.num_labels = 3;
  options.labels_per_node = 1;
  options.seed = 13;
  const std::vector<double> weights = {2.0, 3.0, 5.0};  // 20% / 30% / 50%
  const LabelStore store =
      ValueOrDie(GenerateMultinomialLabels(options, weights));
  EXPECT_NEAR(static_cast<double>(store.LabelNodeCount(0)) / 20000.0, 0.20,
              0.02);
  EXPECT_NEAR(static_cast<double>(store.LabelNodeCount(1)) / 20000.0, 0.30,
              0.02);
  EXPECT_NEAR(static_cast<double>(store.LabelNodeCount(2)) / 20000.0, 0.50,
              0.02);
}

TEST(LabelGenTest, MultinomialValidatesWeights) {
  LabelGenOptions options;
  options.num_nodes = 10;
  options.num_labels = 3;
  options.labels_per_node = 1;
  // Wrong arity.
  EXPECT_FALSE(
      GenerateMultinomialLabels(options, std::vector<double>{1.0}).ok());
  // Negative weight.
  EXPECT_FALSE(GenerateMultinomialLabels(
                   options, std::vector<double>{1.0, -1.0, 1.0})
                   .ok());
  // All-zero sum.
  EXPECT_FALSE(GenerateMultinomialLabels(
                   options, std::vector<double>{0.0, 0.0, 0.0})
                   .ok());
  // labels_per_node exceeding the positive-weight support.
  options.labels_per_node = 2;
  EXPECT_FALSE(GenerateMultinomialLabels(
                   options, std::vector<double>{0.0, 0.0, 1.0})
                   .ok());
}

TEST(LabelGenTest, RejectsInvalidOptions) {
  LabelGenOptions options;
  options.num_nodes = 10;
  options.num_labels = 4;
  options.labels_per_node = 5;  // > universe
  EXPECT_FALSE(GenerateUniformLabels(options).ok());
  options.labels_per_node = 0;
  EXPECT_FALSE(GenerateZipfLabels(options).ok());
}

}  // namespace
}  // namespace flos
