// knn_cli's batch mode (examples/batch_runner.h): the batch file parses
// strictly, pooled engines answer a batch in input order, agree with
// serial FlosTopK, and fail as a whole on any bad query.

#include "examples/batch_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/flos.h"
#include "measures/measure.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using cli::ReadBatchFile;
using cli::RunBatch;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

FlosOptions DefaultOptions() {
  FlosOptions options;
  options.measure = Measure::kPhp;
  options.c = 0.5;
  return options;
}

void ExpectSameResult(const FlosResult& a, const FlosResult& b) {
  ASSERT_EQ(a.topk.size(), b.topk.size());
  for (size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].node, b.topk[i].node);
    EXPECT_EQ(a.topk[i].score, b.topk[i].score);
  }
  EXPECT_EQ(a.stats.exact, b.stats.exact);
}

TEST(BatchRunnerTest, PreservesInputOrderAndMatchesSerial) {
  const Graph g = RandomConnectedGraph(300, 900, 11);
  const FlosOptions options = DefaultOptions();
  std::vector<NodeId> queries;
  for (NodeId q = 0; q < 40; ++q) {
    queries.push_back(static_cast<NodeId>((q * 37) % g.NumNodes()));
  }

  std::vector<FlosResult> serial;
  for (const NodeId q : queries) {
    serial.push_back(ValueOrDie(FlosTopK(g, q, 10, options)));
  }
  for (const int threads : {1, 2, 4}) {
    const std::vector<FlosResult> batch =
        ValueOrDie(RunBatch(g, queries, 10, options, threads));
    ASSERT_EQ(batch.size(), queries.size()) << threads << " threads";
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResult(batch[i], serial[i]);
    }
  }
}

TEST(BatchRunnerTest, RepeatedQueriesEachGetTheSameAnswer) {
  const Graph g = RandomConnectedGraph(200, 600, 13);
  const std::vector<NodeId> queries(16, NodeId{5});  // all identical
  const std::vector<FlosResult> batch =
      ValueOrDie(RunBatch(g, queries, 5, DefaultOptions(), 4));
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 1; i < batch.size(); ++i) {
    ExpectSameResult(batch[i], batch[0]);
  }
}

TEST(BatchRunnerTest, EmptyBatchReturnsEmptyResults) {
  const Graph g = RandomConnectedGraph(50, 150, 3);
  const std::vector<FlosResult> batch =
      ValueOrDie(RunBatch(g, {}, 5, DefaultOptions(), 4));
  EXPECT_TRUE(batch.empty());
}

TEST(BatchRunnerTest, MoreThreadsThanQueriesWorks) {
  const Graph g = RandomConnectedGraph(100, 300, 7);
  const std::vector<NodeId> queries = {1, 2};
  const std::vector<FlosResult> batch =
      ValueOrDie(RunBatch(g, queries, 5, DefaultOptions(), 16));
  ASSERT_EQ(batch.size(), 2u);
}

// --threads=0 (the CLI default) and negative counts mean "all cores".
TEST(BatchRunnerTest, NonPositiveThreadCountUsesAllCores) {
  const Graph g = RandomConnectedGraph(120, 360, 17);
  const FlosOptions options = DefaultOptions();
  const std::vector<NodeId> queries = {0, 7, 42, 119};
  for (const int threads : {0, -3}) {
    const std::vector<FlosResult> batch =
        ValueOrDie(RunBatch(g, queries, 6, options, threads));
    ASSERT_EQ(batch.size(), queries.size()) << threads << " threads";
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResult(batch[i],
                       ValueOrDie(FlosTopK(g, queries[i], 6, options)));
    }
  }
}

TEST(BatchRunnerTest, AnyInvalidQueryFailsTheWholeBatch) {
  const Graph g = RandomConnectedGraph(100, 300, 7);
  std::vector<NodeId> queries;
  for (NodeId q = 0; q < 20; ++q) queries.push_back(q);
  queries.push_back(static_cast<NodeId>(g.NumNodes()));  // out of range
  const auto result = RunBatch(g, queries, 5, DefaultOptions(), 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

/// Writes `content` as a batch file and reads it against a 100-node graph.
Result<std::vector<NodeId>> ReadBatchText(const std::string& content) {
  const std::string path = ::testing::TempDir() + "/batch.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  Result<std::vector<NodeId>> queries = ReadBatchFile(path, 100);
  std::remove(path.c_str());
  return queries;
}

TEST(BatchFileTest, SkipsBlankAndCommentLines) {
  EXPECT_EQ(ValueOrDie(ReadBatchText("# queries\n\n 5 \r\n\t# x\n0\n99")),
            (std::vector<NodeId>{5, 0, 99}));
}

TEST(BatchFileTest, RejectsMalformedLinesWithTheirNumber) {
  // Each line must be exactly one id: "12abc" is not query 12, and "7 9"
  // is not query 7.
  for (const auto& [content, where] :
       std::vector<std::pair<std::string, std::string>>{
           {"# header\n3\n12abc\n", ":3:"},
           {"1\n7 9\n", ":2:"},
           {"-4\n", ":1:"},
           {"18446744073709551616\n", ":1:"}}) {
    const auto queries = ReadBatchText(content);
    ASSERT_FALSE(queries.ok()) << content;
    EXPECT_EQ(queries.status().code(), StatusCode::kCorruption)
        << queries.status().ToString();
    EXPECT_NE(queries.status().message().find("batch.txt" + where),
              std::string::npos)
        << queries.status().message();
  }
}

TEST(BatchFileTest, RejectsNodesOutsideTheGraph) {
  const auto queries = ReadBatchText("1\n2\n100\n");
  ASSERT_FALSE(queries.ok());
  EXPECT_EQ(queries.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(queries.status().message().find("batch.txt:3:"),
            std::string::npos)
      << queries.status().message();
}

}  // namespace
}  // namespace flos
