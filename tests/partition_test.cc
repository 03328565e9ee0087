// Halo-replicated partitioning: coverage/ring invariants, global-degree
// sidecars, file round trips, the route table's validation, and the
// ShardAccessor contract (full-graph degrees, truncated-adjacency
// reporting) that keeps FLoS bounds sound on shard-local graphs.

#include "graph/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using flos::testing::ValueOrDie;

Graph TestGraph(uint64_t nodes = 1500, uint64_t seed = 11) {
  GeneratorOptions options;
  options.num_nodes = nodes;
  options.num_edges = nodes * 6;
  options.seed = seed;
  return ValueOrDie(GenerateConnected(options));
}

/// Full-graph adjacency of `global` as a sorted (neighbor, weight) list.
std::vector<std::pair<NodeId, double>> FullAdjacency(const Graph& graph,
                                                     NodeId global) {
  InMemoryAccessor accessor(&graph);
  std::vector<Neighbor> neighbors;
  EXPECT_TRUE(accessor.CopyNeighbors(global, &neighbors).ok());
  std::vector<std::pair<NodeId, double>> out;
  for (const Neighbor& nb : neighbors) out.emplace_back(nb.id, nb.weight);
  std::sort(out.begin(), out.end());
  return out;
}

/// Shard-local adjacency of local node `local`, translated to global ids.
std::vector<std::pair<NodeId, double>> ShardAdjacency(const ShardPart& shard,
                                                      NodeId local) {
  ShardAccessor accessor(&shard.graph, &shard.meta);
  std::vector<Neighbor> neighbors;
  EXPECT_TRUE(accessor.CopyNeighbors(local, &neighbors).ok());
  std::vector<std::pair<NodeId, double>> out;
  for (const Neighbor& nb : neighbors) {
    out.emplace_back(shard.meta.local_to_global[nb.id], nb.weight);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class PartitionTest : public ::testing::TestWithParam<PartitionMethod> {};

TEST_P(PartitionTest, CoreCoversEveryNodeExactlyOnce) {
  const Graph graph = TestGraph();
  PartitionOptions options;
  options.num_shards = 4;
  options.method = GetParam();
  const GraphPartition partition =
      ValueOrDie(PartitionGraph(graph, options));
  ASSERT_EQ(partition.shards.size(), 4u);
  ASSERT_EQ(partition.owner.size(), graph.NumNodes());

  std::vector<uint32_t> owned(graph.NumNodes(), 0);
  for (const ShardPart& shard : partition.shards) {
    const ShardMeta& meta = shard.meta;
    EXPECT_EQ(meta.global_nodes, graph.NumNodes());
    EXPECT_GT(meta.num_core, 0u);
    EXPECT_LE(meta.num_core, meta.num_interior);
    EXPECT_LE(meta.num_interior, meta.num_local());
    EXPECT_EQ(static_cast<uint64_t>(shard.graph.NumNodes()),
              static_cast<uint64_t>(meta.num_local()));
    for (NodeId local = 0; local < meta.num_core; ++local) {
      const NodeId global = meta.local_to_global[local];
      EXPECT_EQ(partition.owner[global], meta.shard_index);
      ++owned[global];
    }
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    EXPECT_EQ(owned[v], 1u) << "node " << v;
  }
}

TEST_P(PartitionTest, InteriorRowsAreCompleteFringeRowsAreSubsets) {
  const Graph graph = TestGraph(800);
  PartitionOptions options;
  options.num_shards = 3;
  options.method = GetParam();
  options.halo_hops = 2;
  const GraphPartition partition =
      ValueOrDie(PartitionGraph(graph, options));

  for (const ShardPart& shard : partition.shards) {
    const ShardMeta& meta = shard.meta;
    for (NodeId local = 0; local < meta.num_local(); ++local) {
      const NodeId global = meta.local_to_global[local];
      const auto full = FullAdjacency(graph, global);
      const auto seen = ShardAdjacency(shard, local);
      if (local < meta.num_interior) {
        EXPECT_EQ(seen, full) << "interior row truncated: shard "
                              << meta.shard_index << " node " << global;
      } else {
        // Fringe: every stored edge exists in the full graph; the full
        // list may have more.
        EXPECT_LE(seen.size(), full.size());
        EXPECT_TRUE(std::includes(full.begin(), full.end(), seen.begin(),
                                  seen.end()))
            << "fringe row has an edge missing from the graph: shard "
            << meta.shard_index << " node " << global;
      }
      // The sidecar records FULL degrees for every local node.
      EXPECT_DOUBLE_EQ(meta.global_degree[local],
                       graph.WeightedDegree(global));
    }
  }
}

TEST_P(PartitionTest, ShardAccessorServesGlobalDegreeInformation) {
  const Graph graph = TestGraph(600);
  PartitionOptions options;
  options.num_shards = 2;
  options.method = GetParam();
  const GraphPartition partition =
      ValueOrDie(PartitionGraph(graph, options));
  const ShardPart& shard = partition.shards[0];
  const ShardMeta& meta = shard.meta;
  ShardAccessor accessor(&shard.graph, &meta);

  std::set<NodeId> replicated(meta.local_to_global.begin(),
                              meta.local_to_global.end());
  double off_shard_max = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (replicated.count(v) == 0) {
      off_shard_max = std::max(off_shard_max, graph.WeightedDegree(v));
    }
  }
  EXPECT_DOUBLE_EQ(accessor.ExternalDegreeBound(), off_shard_max);

  for (NodeId local = 0; local < meta.num_local(); ++local) {
    EXPECT_DOUBLE_EQ(accessor.WeightedDegree(local),
                     graph.WeightedDegree(meta.local_to_global[local]));
    EXPECT_EQ(accessor.CompleteAdjacency(local), local < meta.num_interior);
  }
}

TEST_P(PartitionTest, ShardFilesRoundTrip) {
  const Graph graph = TestGraph(500);
  PartitionOptions options;
  options.num_shards = 2;
  options.method = GetParam();
  const GraphPartition partition =
      ValueOrDie(PartitionGraph(graph, options));

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("flos_partition_test_" +
        std::string(GetParam() == PartitionMethod::kHash ? "hash" : "bfs")))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteShardFiles(partition, dir).ok());

  for (const ShardPart& shard : partition.shards) {
    const uint32_t index = shard.meta.shard_index;
    const ShardMeta meta = ValueOrDie(ReadShardMap(ShardMapPath(dir, index)));
    EXPECT_EQ(meta.shard_index, index);
    EXPECT_EQ(meta.num_shards, shard.meta.num_shards);
    EXPECT_EQ(meta.halo_hops, shard.meta.halo_hops);
    EXPECT_EQ(meta.num_core, shard.meta.num_core);
    EXPECT_EQ(meta.num_interior, shard.meta.num_interior);
    EXPECT_EQ(meta.local_to_global, shard.meta.local_to_global);
    ASSERT_EQ(meta.global_degree.size(), shard.meta.global_degree.size());
    for (size_t i = 0; i < meta.global_degree.size(); ++i) {
      EXPECT_NEAR(meta.global_degree[i], shard.meta.global_degree[i],
                  1e-9 * std::max(1.0, shard.meta.global_degree[i]));
    }
    const Graph loaded =
        ValueOrDie(ReadShardGraph(ShardEdgesPath(dir, index), meta));
    EXPECT_EQ(loaded.NumNodes(), shard.graph.NumNodes());
    EXPECT_EQ(loaded.NumEdges(), shard.graph.NumEdges());
  }
  std::filesystem::remove_all(dir);
}

TEST_P(PartitionTest, RouteTableInvertsTheRemapTables) {
  const Graph graph = TestGraph(700);
  PartitionOptions options;
  options.num_shards = 3;
  options.method = GetParam();
  const GraphPartition partition =
      ValueOrDie(PartitionGraph(graph, options));

  std::vector<ShardMeta> metas;
  for (const ShardPart& shard : partition.shards) metas.push_back(shard.meta);
  const ShardRouteTable route =
      ValueOrDie(ShardRouteTable::Build(std::move(metas)));
  EXPECT_EQ(route.global_nodes(), graph.NumNodes());
  EXPECT_EQ(route.num_shards(), 3u);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    const uint32_t shard = route.ShardOf(v);
    EXPECT_EQ(shard, partition.owner[v]);
    const NodeId local = route.LocalOf(v);
    EXPECT_LT(local, partition.shards[shard].meta.num_core);
    EXPECT_EQ(partition.shards[shard].meta.local_to_global[local], v);
    EXPECT_EQ(ValueOrDie(route.ToGlobal(shard, local)), v);
  }
  // Non-core replicated ids still translate back; out-of-range ids fail.
  const ShardMeta& m0 = partition.shards[0].meta;
  if (m0.num_local() > m0.num_core) {
    EXPECT_EQ(ValueOrDie(route.ToGlobal(0, m0.num_core)),
              m0.local_to_global[m0.num_core]);
  }
  EXPECT_FALSE(route.ToGlobal(0, m0.num_local()).ok());
}

INSTANTIATE_TEST_SUITE_P(Methods, PartitionTest,
                         ::testing::Values(PartitionMethod::kBfsGrow,
                                           PartitionMethod::kHash));

TEST(PartitionValidationTest, RejectsBadOptions) {
  const Graph graph = TestGraph(50);
  PartitionOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(PartitionGraph(graph, options).ok());
  options.num_shards = 2;
  options.halo_hops = 0;
  EXPECT_FALSE(PartitionGraph(graph, options).ok());
}

TEST(PartitionValidationTest, RouteTableRejectsNonPartitions) {
  const Graph graph = TestGraph(200);
  PartitionOptions options;
  options.num_shards = 2;
  const GraphPartition partition =
      ValueOrDie(PartitionGraph(graph, options));

  {
    // Duplicate ownership: the same shard twice claims its core.
    std::vector<ShardMeta> metas = {partition.shards[0].meta,
                                    partition.shards[0].meta};
    EXPECT_FALSE(ShardRouteTable::Build(std::move(metas)).ok());
  }
  {
    // Missing coverage: one shard alone leaves core nodes unowned.
    std::vector<ShardMeta> metas = {partition.shards[0].meta};
    EXPECT_FALSE(ShardRouteTable::Build(std::move(metas)).ok());
  }
}

/// A valid three-node, one-shard map; the tests below corrupt one line.
constexpr const char* kValidMap =
    "# flos shard map: local id = line order\n"  // line 1
    "shard 0 1\n"                                // line 2
    "halo_hops 1\n"                              // line 3
    "global_nodes 3\n"                           // line 4
    "nodes 3 3 3\n"                              // line 5
    "external_max_degree 0\n"                    // line 6
    "0 1\n"                                      // line 7
    "1 2\n"                                      // line 8
    "2 1\n";                                     // line 9

/// Replaces the first occurrence of `from` in `text` with `to`.
std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// Writes `text` as a shard map and reads it back.
Result<ShardMeta> ReadMapText(const std::string& text) {
  const std::string path = ::testing::TempDir() + "/parse_test.map";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  Result<ShardMeta> meta = ReadShardMap(path);
  std::remove(path.c_str());
  return meta;
}

/// Expects `text` to be rejected as Corruption at `<path>:<line>:`.
void ExpectRejectedAtLine(const std::string& text, int line) {
  const Result<ShardMeta> meta = ReadMapText(text);
  ASSERT_FALSE(meta.ok()) << text;
  EXPECT_EQ(meta.status().code(), StatusCode::kCorruption)
      << meta.status().ToString();
  const std::string where = "parse_test.map:" + std::to_string(line) + ":";
  EXPECT_NE(meta.status().message().find(where), std::string::npos)
      << "expected " << where << " in " << meta.status().message();
}

TEST(ShardMapParseTest, ValidMapParses) {
  const ShardMeta meta = ValueOrDie(ReadMapText(kValidMap));
  EXPECT_EQ(meta.num_local(), 3u);
  EXPECT_EQ(meta.global_degree, (std::vector<double>{1, 2, 1}));
}

TEST(ShardMapParseTest, NonFiniteDegreesAreRejected) {
  // NaN passes every `< 0` check (and ReadShardGraph's degree cross-check),
  // so it must be stopped where it is parsed.
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(bad);
    ExpectRejectedAtLine(Replace(kValidMap, "external_max_degree 0",
                                 "external_max_degree " + bad),
                         6);
    ExpectRejectedAtLine(Replace(kValidMap, "1 2\n", "1 " + bad + "\n"), 8);
  }
}

TEST(ShardMapParseTest, LongCommentLineIsOneComment) {
  // 515 bytes ending in what reads like the row "2 1"; a reader with a
  // 512-byte line buffer parses that tail as a row. As a comment it is
  // skipped whole: the complete map still parses, and a map missing its
  // last row is truncated instead of completed by the comment's tail.
  const std::string comment = "#" + std::string(510, 'x') + " 2 1\n";
  const ShardMeta meta =
      ValueOrDie(ReadMapText(Replace(kValidMap, "2 1\n", comment + "2 1\n")));
  EXPECT_EQ(meta.local_to_global, (std::vector<NodeId>{0, 1, 2}));
  ExpectRejectedAtLine(Replace(kValidMap, "2 1\n", comment), 9);
}

TEST(ShardMapParseTest, StructuralErrorsCarryTheirLine) {
  ExpectRejectedAtLine(Replace(kValidMap, "halo_hops 1\n", ""), 3);
  ExpectRejectedAtLine(Replace(kValidMap, "1 2\n", "0 2\n"), 8);
  ExpectRejectedAtLine(std::string(kValidMap) + "3 1\n", 10);
  ExpectRejectedAtLine(std::string(kValidMap) + "# c" + '\0' + "\n", 10);
  ExpectRejectedAtLine(Replace(kValidMap, "shard 0 1", "shard 0 1x"), 2);
  ExpectRejectedAtLine(Replace(kValidMap, "nodes 3 3 3", "nodes 3 3 -3"), 5);
  ExpectRejectedAtLine(
      Replace(kValidMap, "global_nodes 3", "global_nodes 18446744073709551616"),
      4);
}

}  // namespace
}  // namespace flos
