// Tests for the disk-resident graph store: round-trip fidelity, identical
// FLoS answers over memory and disk, cache behaviour under tiny budgets,
// and corruption detection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "core/flos.h"
#include "storage/disk_builder.h"
#include "storage/disk_format.h"
#include "storage/disk_graph.h"
#include "tests/test_util.h"
#include "util/lru_cache.h"

namespace flos {
namespace {

using testing::PaperExampleGraph;
using testing::RandomConnectedGraph;
using testing::ValueOrDie;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// DiskGraph's block cache: the LRU template charged in bytes.
using BlockCache = LruCache<uint64_t, std::vector<char>>;

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(10);
  cache.Put(1, std::vector<char>(4, 'a'), 4);
  cache.Put(2, std::vector<char>(4, 'b'), 4);
  ASSERT_NE(cache.Get(1), nullptr);  // touch 1 -> 2 becomes LRU
  cache.Put(3, std::vector<char>(4, 'c'), 4);
  EXPECT_EQ(cache.Get(2), nullptr) << "block 2 should have been evicted";
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_LE(cache.charge(), 10u);
}

TEST(LruCacheTest, EvictionFollowsTheFullTouchOrder) {
  // Four 4-byte blocks in a 16-byte budget; every Get reshuffles recency.
  BlockCache cache(16);
  for (uint64_t id = 1; id <= 4; ++id) {
    cache.Put(id, std::vector<char>(4, static_cast<char>('a' + id)), 4);
  }
  EXPECT_EQ(cache.size(), 4u);
  // After touching 3, 1, 4, 2 the recency order is (oldest) 3 1 4 2.
  ASSERT_NE(cache.Get(3), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  ASSERT_NE(cache.Get(4), nullptr);
  ASSERT_NE(cache.Get(2), nullptr);
  cache.Put(5, std::vector<char>(4, 'e'), 4);  // evicts 3
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);  // 1 freshened again
  cache.Put(6, std::vector<char>(4, 'f'), 4);  // evicts 4 (1 was re-touched)
  EXPECT_EQ(cache.Get(4), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(5), nullptr);
  EXPECT_NE(cache.Get(6), nullptr);
  EXPECT_LE(cache.charge(), 16u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(LruCacheTest, ReinsertingAKeyReplacesItsBytes) {
  BlockCache cache(64);
  cache.Put(1, std::vector<char>(8, 'a'), 8);
  cache.Put(1, std::vector<char>(16, 'b'), 16);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.charge(), 16u)
      << "the old block's bytes must not leak into the budget";
  const std::vector<char>* block = cache.Get(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->size(), 16u);
  EXPECT_EQ((*block)[0], 'b');
}

TEST(LruCacheTest, OversizedBlockIsNotCached) {
  BlockCache cache(4);
  cache.Put(1, std::vector<char>(16, 'x'), 16);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.charge(), 0u);
}

TEST(DiskGraphTest, RoundTripsExactly) {
  const Graph g = RandomConnectedGraph(300, 900, 19);
  const std::string path = TempPath("roundtrip.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  auto disk = ValueOrDie(DiskGraph::Open(path, DiskGraphOptions{}));
  EXPECT_EQ(disk->NumNodes(), g.NumNodes());
  EXPECT_EQ(disk->NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(disk->MaxWeightedDegree(), g.MaxWeightedDegree());
  EXPECT_EQ(disk->DegreeOrder(), g.DegreeOrder());
  std::vector<Neighbor> from_disk;
  std::vector<Neighbor> from_mem;
  InMemoryAccessor mem(&g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    FLOS_ASSERT_OK(disk->CopyNeighbors(u, &from_disk));
    FLOS_ASSERT_OK(mem.CopyNeighbors(u, &from_mem));
    ASSERT_EQ(from_disk, from_mem) << "node " << u;
    EXPECT_DOUBLE_EQ(disk->WeightedDegree(u), g.WeightedDegree(u));
  }
  std::remove(path.c_str());
}

TEST(DiskGraphTest, FlosAnswersMatchMemory) {
  const Graph g = RandomConnectedGraph(800, 2400, 23);
  const std::string path = TempPath("flos_query.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  DiskGraphOptions disk_options;
  disk_options.cache_bytes = 1 << 16;  // small cache: force real I/O
  disk_options.block_bytes = 1 << 10;
  auto disk = ValueOrDie(DiskGraph::Open(path, disk_options));
  for (const Measure m : {Measure::kPhp, Measure::kRwr, Measure::kTht}) {
    FlosOptions options;
    options.measure = m;
    const FlosResult mem_result = ValueOrDie(FlosTopK(g, 5, 10, options));
    const FlosResult disk_result =
        ValueOrDie(FlosTopK(disk.get(), 5, 10, options));
    ASSERT_EQ(mem_result.topk.size(), disk_result.topk.size());
    for (size_t i = 0; i < mem_result.topk.size(); ++i) {
      EXPECT_EQ(mem_result.topk[i].node, disk_result.topk[i].node);
      EXPECT_NEAR(mem_result.topk[i].score, disk_result.topk[i].score, 1e-12);
    }
    EXPECT_EQ(mem_result.stats.visited_nodes, disk_result.stats.visited_nodes);
  }
  // The disk accessor actually hit the cache machinery.
  EXPECT_GT(disk->stats().cache_misses, 0u);
  EXPECT_GT(disk->stats().bytes_read, 0u);
  std::remove(path.c_str());
}

TEST(DiskGraphTest, TinyCacheStillCorrect) {
  const Graph g = RandomConnectedGraph(200, 600, 29);
  const std::string path = TempPath("tiny_cache.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  DiskGraphOptions disk_options;
  disk_options.cache_bytes = 2048;  // two 1 KiB blocks
  disk_options.block_bytes = 1024;
  auto disk = ValueOrDie(DiskGraph::Open(path, disk_options));
  std::vector<Neighbor> nbs;
  InMemoryAccessor mem(&g);
  std::vector<Neighbor> expected;
  // Sweep twice; second sweep gets plenty of evictions.
  for (int round = 0; round < 2; ++round) {
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      FLOS_ASSERT_OK(disk->CopyNeighbors(u, &nbs));
      FLOS_ASSERT_OK(mem.CopyNeighbors(u, &expected));
      ASSERT_EQ(nbs, expected);
    }
  }
  EXPECT_GT(disk->stats().cache_hits, 0u);
  EXPECT_GT(disk->stats().cache_misses, 2u);
  std::remove(path.c_str());
}

TEST(DiskGraphTest, RepeatQueriesReuseCachedBlocksWithoutNewIo) {
  // A cache big enough for the whole adjacency region: the first query
  // pays the I/O, every later query over the same region must be served
  // from cached blocks — zero new bytes read. This is the storage-layer
  // analogue of the engine's certified-result cache: repeat work hits
  // warm state instead of the disk.
  const Graph g = RandomConnectedGraph(400, 1200, 41);
  const std::string path = TempPath("block_reuse.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, path));
  DiskGraphOptions disk_options;
  disk_options.cache_bytes = 1 << 22;  // 4 MiB >> the whole file
  disk_options.block_bytes = 1 << 10;
  auto disk = ValueOrDie(DiskGraph::Open(path, disk_options));

  FlosOptions options;
  options.measure = Measure::kPhp;
  const FlosResult first = ValueOrDie(FlosTopK(disk.get(), 7, 10, options));
  ASSERT_TRUE(first.stats.exact);
  const uint64_t bytes_after_first = disk->stats().bytes_read;
  const uint64_t misses_after_first = disk->stats().cache_misses;
  EXPECT_GT(bytes_after_first, 0u);

  const FlosResult second = ValueOrDie(FlosTopK(disk.get(), 7, 10, options));
  ASSERT_TRUE(second.stats.exact);
  EXPECT_EQ(disk->stats().bytes_read, bytes_after_first)
      << "repeat query must not touch the disk";
  EXPECT_EQ(disk->stats().cache_misses, misses_after_first);
  EXPECT_GT(disk->stats().cache_hits, 0u);
  ASSERT_EQ(second.topk.size(), first.topk.size());
  for (size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(second.topk[i].node, first.topk[i].node);
    EXPECT_DOUBLE_EQ(second.topk[i].score, first.topk[i].score);
  }
  std::remove(path.c_str());
}

TEST(DiskGraphTest, DetectsCorruption) {
  EXPECT_FALSE(DiskGraph::Open("/no/such/file", DiskGraphOptions{}).ok());

  // Bad magic.
  const std::string bad_magic = TempPath("bad_magic.flos");
  std::FILE* f = std::fopen(bad_magic.c_str(), "wb");
  DiskHeader header{};
  std::memcpy(header.magic, "NOTFLOS!", 8);
  std::fwrite(&header, sizeof(header), 1, f);
  std::fclose(f);
  const auto r1 = DiskGraph::Open(bad_magic, DiskGraphOptions{});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCorruption);
  std::remove(bad_magic.c_str());

  // Truncated adjacency region.
  const Graph g = PaperExampleGraph();
  const std::string truncated = TempPath("truncated.flos");
  FLOS_ASSERT_OK(WriteDiskGraph(g, truncated));
  // Chop the last 16 bytes off.
  f = std::fopen(truncated.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  FLOS_ASSERT_OK([&]() -> Status {
    if (truncate(truncated.c_str(), size - 16) != 0) {
      return Status::IoError("truncate failed");
    }
    return Status::OK();
  }());
  auto disk = ValueOrDie(DiskGraph::Open(truncated, DiskGraphOptions{}));
  std::vector<Neighbor> nbs;
  Status last = Status::OK();
  for (NodeId u = 0; u < g.NumNodes() && last.ok(); ++u) {
    last = disk->CopyNeighbors(u, &nbs);
  }
  EXPECT_FALSE(last.ok()) << "reading past the truncation must fail";
  std::remove(truncated.c_str());
}

// Writes the paper graph to `name`, then overwrites `bytes` at `offset`.
std::string CorruptedCopy(const std::string& name, uint64_t offset,
                          const void* bytes, size_t size) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteDiskGraph(PaperExampleGraph(), path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    ADD_FAILURE() << "cannot reopen " << path;
    return path;
  }
  EXPECT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  EXPECT_EQ(std::fwrite(bytes, 1, size, f), size);
  std::fclose(f);
  return path;
}

// Byte offsets of the index arrays (storage/disk_format.h) for n nodes.
uint64_t OffsetsAt(uint64_t i) { return sizeof(DiskHeader) + i * 8; }
uint64_t DegreeOrderAt(uint64_t n, uint64_t i) {
  return sizeof(DiskHeader) + (n + 1) * 8 + n * 8 + i * 4;
}
uint64_t AdjacencyAt(uint64_t n, uint64_t entry) {
  return DegreeOrderAt(n, n) + entry * kAdjacencyEntryBytes;
}

TEST(DiskGraphTest, RejectsNonMonotoneOffsets) {
  // offsets[2] below offsets[1]: node 1's entry count would underflow.
  const uint64_t one = 1;
  const std::string path =
      CorruptedCopy("non_monotone.flos", OffsetsAt(2), &one, sizeof(one));
  const auto disk = DiskGraph::Open(path, DiskGraphOptions{});
  ASSERT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DiskGraphTest, RejectsDegreeOrderEntryOutOfRange) {
  const uint64_t n = PaperExampleGraph().NumNodes();
  const uint32_t bad = static_cast<uint32_t>(n);
  const std::string path = CorruptedCopy(
      "bad_degree_order.flos", DegreeOrderAt(n, 3), &bad, sizeof(bad));
  const auto disk = DiskGraph::Open(path, DiskGraphOptions{});
  ASSERT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DiskGraphTest, RejectsHeaderSizedBeyondTheFile) {
  // Node counts the file cannot hold must fail before anything is sized by
  // them: one past the u32 id space, and the largest valid count with a
  // matching adjacency offset in a file of a few hundred bytes.
  for (const uint64_t n : {uint64_t{1} << 40, uint64_t{0xFFFFFFFE}}) {
    DiskHeader header{};
    std::memcpy(header.magic, kDiskGraphMagic, sizeof(kDiskGraphMagic));
    header.num_nodes = n;
    header.adjacency_offset = DegreeOrderAt(n, n);
    const std::string path =
        CorruptedCopy("huge_header.flos", 0, &header, sizeof(header));
    const auto disk = DiskGraph::Open(path, DiskGraphOptions{});
    ASSERT_FALSE(disk.ok()) << n;
    EXPECT_EQ(disk.status().code(), StatusCode::kCorruption) << n;
    std::remove(path.c_str());
  }
}

TEST(DiskGraphTest, RejectsNeighborIdOutOfRange) {
  const Graph g = PaperExampleGraph();
  const uint64_t n = g.NumNodes();
  // Node 1's first adjacency entry names node n, one past the last. Open
  // cannot see it (adjacency stays on disk); the decode must. Unchecked,
  // a query from node 0 visits node 1 and the next coefficient refresh
  // reads the degree of "node n" out of bounds.
  const uint32_t bad = static_cast<uint32_t>(n);
  const std::string path = CorruptedCopy(
      "bad_neighbor.flos", AdjacencyAt(n, g.offsets()[1]), &bad, sizeof(bad));
  auto disk = ValueOrDie(DiskGraph::Open(path, DiskGraphOptions{}));
  const auto result = FlosTopK(disk.get(), 0, 3, FlosOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  std::vector<Neighbor> nbs;
  FLOS_EXPECT_OK(disk->CopyNeighbors(0, &nbs));
  const Status fetch = disk->CopyNeighbors(1, &nbs);
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flos
