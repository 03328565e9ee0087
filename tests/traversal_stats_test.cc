// Tests for BFS traversal utilities, graph statistics, edge-list I/O, and
// the dataset presets.

#include <gtest/gtest.h>

#include <cstdio>

#include "graph/edge_list_io.h"
#include "graph/presets.h"
#include "graph/stats.h"
#include "graph/traversal.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using testing::PaperExampleGraph;
using testing::ValueOrDie;

TEST(TraversalTest, BfsDistancesOnExample) {
  const Graph g = PaperExampleGraph();
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);  // paper node 2
  EXPECT_EQ(dist[2], 1);  // paper node 3
  EXPECT_EQ(dist[3], 2);  // paper node 4
  EXPECT_EQ(dist[7], 3);  // paper node 8
}

TEST(TraversalTest, UnreachableIsMinusOne) {
  GraphBuilder::Options options;
  options.num_nodes = 4;
  GraphBuilder builder(options);
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  const Graph g = ValueOrDie(std::move(builder).Build());
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(TraversalTest, BfsBallRespectsRadius) {
  const Graph g = PaperExampleGraph();
  const auto ball0 = BfsBall(g, 0, 0);
  EXPECT_EQ(ball0.size(), 1u);
  const auto ball1 = BfsBall(g, 0, 1);
  EXPECT_EQ(ball1.size(), 3u);  // {1,2,3} paper ids
  const auto ball2 = BfsBall(g, 0, 2);
  EXPECT_EQ(ball2.size(), 5u);  // + {4,5}
  const auto ball9 = BfsBall(g, 0, 9);
  EXPECT_EQ(ball9.size(), g.NumNodes());
}

TEST(TraversalTest, ConnectedComponents) {
  GraphBuilder::Options options;
  options.num_nodes = 7;
  GraphBuilder builder(options);
  FLOS_ASSERT_OK(builder.AddEdge(0, 1));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2));
  FLOS_ASSERT_OK(builder.AddEdge(3, 4));
  const Graph g = ValueOrDie(std::move(builder).Build());
  const ComponentResult cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 4u);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(cc.component[0], cc.component[2]);
  EXPECT_NE(cc.component[0], cc.component[3]);
  EXPECT_NE(cc.component[5], cc.component[6]);
}

TEST(StatsTest, ComputesExampleStats) {
  const Graph g = PaperExampleGraph();
  const GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_nodes, 8u);
  EXPECT_EQ(s.num_edges, 10u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.5);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.min_degree, 2u);
  EXPECT_EQ(s.num_components, 1u);
  EXPECT_EQ(s.largest_component, 8u);
  EXPECT_EQ(s.num_isolated, 0u);
  EXPECT_NE(StatsToString(s).find("|V|=8"), std::string::npos);
}

TEST(EdgeListIoTest, RoundTripsWithWeights) {
  GraphBuilder builder;
  FLOS_ASSERT_OK(builder.AddEdge(0, 1, 2.5));
  FLOS_ASSERT_OK(builder.AddEdge(1, 2, 0.125));
  const Graph g = ValueOrDie(std::move(builder).Build());
  const std::string path = ::testing::TempDir() + "/edges.txt";
  FLOS_ASSERT_OK(WriteEdgeList(g, path));
  const Graph g2 = ValueOrDie(ReadEdgeList(path));
  EXPECT_EQ(g2.NumNodes(), 3u);
  EXPECT_EQ(g2.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(g2.EdgeWeight(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(g2.EdgeWeight(1, 2), 0.125);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, ParsesSnapStyleInput) {
  const std::string path = ::testing::TempDir() + "/snap.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "# comment line\n%% another comment\n");
  std::fprintf(f, "0 1\n1 0\n");   // duplicate in reverse direction
  std::fprintf(f, "1 2\n2 2\n");   // self loop dropped
  std::fclose(f);
  const Graph g = ValueOrDie(ReadEdgeList(path));
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.0) << "reverse dup must not double";
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileAndGarbage) {
  EXPECT_FALSE(ReadEdgeList("/nonexistent/file.txt").ok());
  const std::string path = ::testing::TempDir() + "/garbage.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "zzz not an edge\n");
  std::fclose(f);
  EXPECT_FALSE(ReadEdgeList(path).ok());
  std::remove(path.c_str());
}

namespace {

/// Writes `content` to a temp file and returns ReadEdgeList's status.
Status ReadContent(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  const Status status = ReadEdgeList(path).status();
  std::remove(path.c_str());
  return status;
}

}  // namespace

TEST(EdgeListIoTest, MalformedLineReportsLineNumber) {
  const Status s = ReadContent("malformed.txt", "0 1\n1 two\n2 3\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(":2:"), std::string::npos)
      << "error must carry the 1-based line number: " << s.message();
}

TEST(EdgeListIoTest, NegativeWeightFailsWithLineNumber) {
  const Status s = ReadContent("negweight.txt", "0 1 1.0\n1 2 -0.5\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find(":2:"), std::string::npos) << s.message();
}

TEST(EdgeListIoTest, NegativeNodeIdFails) {
  const Status s = ReadContent("negnode.txt", "0 -1\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(":1:"), std::string::npos) << s.message();
}

TEST(EdgeListIoTest, TruncatedLastLineFails) {
  // File ends mid-record: a source id with no destination.
  const Status s = ReadContent("truncated.txt", "0 1\n1 2\n3");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(":3:"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
}

TEST(EdgeListIoTest, TrailingGarbageAfterWeightFails) {
  const Status s = ReadContent("trailing.txt", "0 1 1.0 oops\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(":1:"), std::string::npos) << s.message();
}

TEST(EdgeListIoTest, LongCommentLineIsSkippedWhole) {
  // A 515-byte comment whose last bytes read like an edge: a reader that
  // splits long lines would parse the tail " 3 4" as edge 3-4.
  const std::string comment = "#" + std::string(510, 'x') + " 3 4";
  ASSERT_EQ(comment.size(), 515u);
  const std::string path = ::testing::TempDir() + "/longcomment.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "%s\n0 1\n", comment.c_str());
  std::fclose(f);
  const Graph g = ValueOrDie(ReadEdgeList(path));
  EXPECT_EQ(g.NumNodes(), 2u) << "the comment's tail must not add nodes";
  EXPECT_EQ(g.NumEdges(), 1u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, NulByteInsideALineFailsWithLineNumber) {
  const Status s =
      ReadContent("nul.txt", std::string("0 1\n1 2") + '\0' + " zzz\n");
  ASSERT_FALSE(s.ok()) << "a NUL byte must not end the line silently";
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find(":2:"), std::string::npos) << s.message();
}

TEST(EdgeListIoTest, MissingWeightColumnStillDefaultsToOne) {
  const std::string path = ::testing::TempDir() + "/noweight.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "0 1\n1 2 2.5\n");
  std::fclose(f);
  const Graph g = ValueOrDie(ReadEdgeList(path));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 2.5);
  std::remove(path.c_str());
}

TEST(PresetsTest, AllPresetsBuildAtSmallScale) {
  for (const GraphPreset& p : RealGraphPresets()) {
    const Graph g = ValueOrDie(BuildPresetGraph(p, /*scale=*/0.002));
    EXPECT_GE(g.NumNodes(), 64u) << p.name;
    EXPECT_GT(g.NumEdges(), 0u) << p.name;
    // Density should roughly track the paper's dataset.
    const double paper_density = 2.0 * static_cast<double>(p.paper_edges) /
                                 static_cast<double>(p.paper_nodes);
    const double got_density = 2.0 * static_cast<double>(g.NumEdges()) /
                               static_cast<double>(g.NumNodes());
    EXPECT_NEAR(got_density, paper_density, paper_density * 0.5) << p.name;
  }
}

TEST(PresetsTest, LookupAndValidation) {
  EXPECT_TRUE(FindPreset("az").ok());
  EXPECT_TRUE(FindPreset("lj").ok());
  EXPECT_FALSE(FindPreset("nope").ok());
  const GraphPreset az = ValueOrDie(FindPreset("az"));
  EXPECT_FALSE(BuildPresetGraph(az, 0.0).ok());
  EXPECT_FALSE(BuildPresetGraph(az, 1.5).ok());
}

}  // namespace
}  // namespace flos
