#include "graph/partition.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "graph/edge_list_io.h"
#include "util/check.h"
#include "util/line_reader.h"
#include "util/rng.h"

namespace flos {

namespace {

constexpr uint32_t kUnassigned = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();

// Fibonacci mixing so hash placement is uncorrelated with generator id
// patterns (plain `v % shards` strides with R-MAT block structure).
uint32_t HashOwner(NodeId v, uint32_t num_shards) {
  uint64_t x = (static_cast<uint64_t>(v) + 1) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 32;
  return static_cast<uint32_t>(x % num_shards);
}

// Assigns every node an owner by multi-source BFS growth: one seed region
// per shard, then the currently smallest shard claims its next unassigned
// frontier candidate. Candidates are enqueued when their neighbor is
// claimed and may be stale by the time they are popped (another shard got
// there first), so claiming is pop-and-check — O(directed edges) total.
// Components unreachable from any live frontier are started from a fresh
// node, so every node gets an owner.
void BfsGrowOwners(const Graph& graph, uint32_t num_shards, uint64_t seed,
                   std::vector<uint32_t>* owner) {
  const uint64_t n = graph.NumNodes();
  std::vector<std::vector<NodeId>> queue(num_shards);
  std::vector<size_t> head(num_shards, 0);
  std::vector<uint64_t> size(num_shards, 0);
  uint64_t assigned = 0;

  Rng rng(seed);
  const std::vector<uint64_t> seeds = rng.SampleDistinct(n, num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    queue[s].push_back(static_cast<NodeId>(seeds[s]));
  }

  NodeId fresh_scan = 0;  // cursor for claiming isolated/new components
  while (assigned < n) {
    // Grow the smallest shard next (linear scan: num_shards is tiny).
    uint32_t best = 0;
    for (uint32_t s = 1; s < num_shards; ++s) {
      if (size[s] < size[best]) best = s;
    }
    NodeId claimed = kInvalidNode;
    while (head[best] < queue[best].size()) {
      const NodeId u = queue[best][head[best]++];
      if ((*owner)[u] == kUnassigned) {
        claimed = u;
        break;
      }
    }
    if (claimed == kInvalidNode) {
      // Frontier exhausted: seed a fresh component.
      while ((*owner)[fresh_scan] != kUnassigned) ++fresh_scan;
      claimed = fresh_scan;
    }
    (*owner)[claimed] = best;
    ++size[best];
    ++assigned;
    for (const NodeId v : graph.NeighborIds(claimed)) {
      if ((*owner)[v] == kUnassigned) queue[best].push_back(v);
    }
  }
}

}  // namespace

void ShardMeta::FinalizeDerived() {
  degree_order_.resize(local_to_global.size());
  std::iota(degree_order_.begin(), degree_order_.end(), NodeId{0});
  std::sort(degree_order_.begin(), degree_order_.end(),
            [this](NodeId a, NodeId b) {
              if (global_degree[a] != global_degree[b]) {
                return global_degree[a] > global_degree[b];
              }
              return a < b;
            });
}

Result<GraphPartition> PartitionGraph(const Graph& graph,
                                      const PartitionOptions& options) {
  const uint64_t n = graph.NumNodes();
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.halo_hops < 1) {
    return Status::InvalidArgument(
        "halo_hops must be >= 1 (the fringe ring is what makes clipping "
        "detectable)");
  }
  if (n < options.num_shards) {
    return Status::InvalidArgument("graph has fewer nodes than shards");
  }

  GraphPartition part;
  part.options = options;
  part.owner.assign(n, kUnassigned);
  if (options.method == PartitionMethod::kHash) {
    for (uint64_t v = 0; v < n; ++v) {
      part.owner[v] = HashOwner(static_cast<NodeId>(v), options.num_shards);
    }
  } else {
    BfsGrowOwners(graph, options.num_shards, options.seed, &part.owner);
  }

  for (uint64_t u = 0; u < n; ++u) {
    for (const NodeId v : graph.NeighborIds(static_cast<NodeId>(u))) {
      if (v > u && part.owner[u] != part.owner[v]) ++part.cut_edges;
    }
  }

  // Per-shard halo BFS + local graph extraction. `dist` is reused across
  // shards through the touched list.
  std::vector<uint32_t> dist(n, kUnreached);
  std::vector<NodeId> touched;
  std::vector<NodeId> local_of(n, kInvalidNode);
  part.shards.resize(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    ShardPart& shard = part.shards[s];
    ShardMeta& meta = shard.meta;
    meta.shard_index = s;
    meta.num_shards = options.num_shards;
    meta.halo_hops = options.halo_hops;
    meta.global_nodes = n;

    // Ring 0 in ascending global id, then BFS rings in discovery order —
    // FIFO order makes local ids nondecreasing in ring distance, which is
    // what turns "expandable?" into `local < num_interior`.
    std::vector<NodeId>& order = meta.local_to_global;
    for (uint64_t v = 0; v < n; ++v) {
      if (part.owner[v] == s) {
        dist[v] = 0;
        order.push_back(static_cast<NodeId>(v));
      }
    }
    meta.num_core = static_cast<NodeId>(order.size());
    size_t bfs_head = 0;
    while (bfs_head < order.size()) {
      const NodeId u = order[bfs_head++];
      if (dist[u] >= options.halo_hops) continue;
      for (const NodeId v : graph.NeighborIds(u)) {
        if (dist[v] != kUnreached) continue;
        dist[v] = dist[u] + 1;
        order.push_back(v);
      }
    }
    meta.num_interior = meta.num_core;
    for (const NodeId v : order) {
      if (dist[v] != 0 && dist[v] < options.halo_hops) ++meta.num_interior;
    }
    touched = order;  // every node with dist set

    meta.global_degree.resize(order.size());
    for (NodeId l = 0; l < meta.num_local(); ++l) {
      local_of[order[l]] = l;
      meta.global_degree[l] = graph.WeightedDegree(order[l]);
    }
    meta.external_max_degree = 0;
    for (uint64_t v = 0; v < n; ++v) {
      if (dist[v] == kUnreached) {
        meta.external_max_degree = std::max(
            meta.external_max_degree, graph.WeightedDegree(static_cast<NodeId>(v)));
      }
    }
    meta.FinalizeDerived();

    // Shard edges: every global edge with at least one interior endpoint.
    // Both endpoints of such an edge are within ring h, so both have local
    // ids. Fringe-fringe edges are dropped — the fringe is never expanded,
    // so they could only be read through an expansion that never happens.
    GraphBuilder::Options builder_options;
    builder_options.num_nodes = static_cast<int64_t>(meta.num_local());
    GraphBuilder builder(builder_options);
    Status status = Status::OK();
    for (NodeId lu = 0; lu < meta.num_interior && status.ok(); ++lu) {
      const NodeId gu = order[lu];
      const auto ids = graph.NeighborIds(gu);
      const auto ws = graph.NeighborWeights(gu);
      for (size_t i = 0; i < ids.size(); ++i) {
        const NodeId gv = ids[i];
        const NodeId lv = local_of[gv];
        FLOS_DCHECK(lv != kInvalidNode,
                    "neighbor of an interior node fell outside the halo");
        const bool v_interior = lv < meta.num_interior;
        if (v_interior && gu >= gv) continue;  // added from the other side
        status = builder.AddEdge(lu, lv, ws[i]);
        if (!status.ok()) break;
      }
    }
    if (status.ok()) {
      FLOS_ASSIGN_OR_RETURN(shard.graph, std::move(builder).Build());
    }
    for (const NodeId v : touched) {
      dist[v] = kUnreached;
      local_of[v] = kInvalidNode;
    }
    FLOS_RETURN_IF_ERROR(status);
  }
  return part;
}

Status ShardAccessor::CopyNeighbors(NodeId u, std::vector<Neighbor>* out) {
  if (u >= graph_->NumNodes()) {
    return Status::OutOfRange("node id " + std::to_string(u) +
                              " out of range");
  }
  ++stats_.neighbor_fetches;
  const auto ids = graph_->NeighborIds(u);
  const auto ws = graph_->NeighborWeights(u);
  out->clear();
  out->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out->push_back({ids[i], ws[i]});
  return Status::OK();
}

double ShardAccessor::MaxWeightedDegree() const {
  double max_local = 0;
  if (!meta_->degree_order().empty()) {
    max_local = meta_->global_degree[meta_->degree_order().front()];
  }
  return std::max(max_local, meta_->external_max_degree);
}

std::string ShardEdgesPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".edges";
}

std::string ShardMapPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".map";
}

Status WriteShardFiles(const GraphPartition& partition,
                       const std::string& dir) {
  for (const ShardPart& shard : partition.shards) {
    const ShardMeta& meta = shard.meta;
    FLOS_RETURN_IF_ERROR(
        WriteEdgeList(shard.graph, ShardEdgesPath(dir, meta.shard_index)));
    const std::string path = ShardMapPath(dir, meta.shard_index);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("cannot create shard map: " + path);
    }
    std::fprintf(f, "# flos shard map: local id = line order\n");
    std::fprintf(f, "shard %u %u\n", meta.shard_index, meta.num_shards);
    std::fprintf(f, "halo_hops %u\n", meta.halo_hops);
    std::fprintf(f, "global_nodes %llu\n",
                 static_cast<unsigned long long>(meta.global_nodes));
    std::fprintf(f, "nodes %u %u %u\n", meta.num_local(), meta.num_core,
                 meta.num_interior);
    std::fprintf(f, "external_max_degree %.17g\n", meta.external_max_degree);
    for (NodeId l = 0; l < meta.num_local(); ++l) {
      std::fprintf(f, "%u %.17g\n", meta.local_to_global[l],
                   meta.global_degree[l]);
    }
    if (std::fclose(f) != 0) {
      return Status::IoError("failed writing shard map: " + path);
    }
  }
  return Status::OK();
}

namespace {

// Advances to the next row, skipping blank lines and '#'/'%' comments (the
// edge-list rule). False at end of file or on an unreadable line.
bool NextRow(LineReader* reader) {
  while (reader->Next()) {
    const char first = reader->Peek();
    if (first != '\0' && first != '#' && first != '%') return true;
  }
  return false;
}

// Advances to the next row, which must open with the header `word`.
Status ExpectHeader(LineReader* reader, const std::string& word) {
  if (!NextRow(reader)) return reader->Fail("missing '" + word + "' header");
  return reader->ExpectWord(word);
}

// Every malformed row is a hard `<path>:<line>:` error; a misparsed map
// would silently route queries to the wrong nodes.
Status ParseShardMap(LineReader* reader, ShardMeta* meta) {
  uint64_t u64 = 0;

  FLOS_RETURN_IF_ERROR(ExpectHeader(reader, "shard"));
  uint64_t shard_index = 0;
  FLOS_RETURN_IF_ERROR(reader->ParseU64("shard index", &shard_index));
  FLOS_RETURN_IF_ERROR(reader->ParseU64("shard count", &u64));
  FLOS_RETURN_IF_ERROR(reader->ExpectEnd());
  if (shard_index >= u64 || u64 > UINT32_MAX) {
    return reader->Fail("shard index out of range");
  }
  meta->shard_index = static_cast<uint32_t>(shard_index);
  meta->num_shards = static_cast<uint32_t>(u64);

  FLOS_RETURN_IF_ERROR(ExpectHeader(reader, "halo_hops"));
  FLOS_RETURN_IF_ERROR(reader->ParseU64("halo hops", &u64));
  FLOS_RETURN_IF_ERROR(reader->ExpectEnd());
  if (u64 < 1 || u64 > UINT32_MAX) {
    return reader->Fail("halo_hops must be in [1, 2^32)");
  }
  meta->halo_hops = static_cast<uint32_t>(u64);

  FLOS_RETURN_IF_ERROR(ExpectHeader(reader, "global_nodes"));
  FLOS_RETURN_IF_ERROR(reader->ParseU64("global node count", &u64));
  meta->global_nodes = u64;
  FLOS_RETURN_IF_ERROR(reader->ExpectEnd());

  FLOS_RETURN_IF_ERROR(ExpectHeader(reader, "nodes"));
  uint64_t num_local = 0;
  uint64_t num_core = 0;
  uint64_t num_interior = 0;
  FLOS_RETURN_IF_ERROR(reader->ParseU64("local node count", &num_local));
  FLOS_RETURN_IF_ERROR(reader->ParseU64("core count", &num_core));
  FLOS_RETURN_IF_ERROR(reader->ParseU64("interior count", &num_interior));
  FLOS_RETURN_IF_ERROR(reader->ExpectEnd());
  if (num_core > num_interior || num_interior > num_local ||
      num_local > meta->global_nodes || num_local > kInvalidNode) {
    return reader->Fail("node counts must satisfy core <= interior <= "
                        "local <= global");
  }
  meta->num_core = static_cast<NodeId>(num_core);
  meta->num_interior = static_cast<NodeId>(num_interior);

  FLOS_RETURN_IF_ERROR(ExpectHeader(reader, "external_max_degree"));
  FLOS_RETURN_IF_ERROR(
      reader->ParseDouble("external max degree", &meta->external_max_degree));
  FLOS_RETURN_IF_ERROR(reader->ExpectEnd());
  if (meta->external_max_degree < 0) {
    return reader->Fail("external_max_degree must be >= 0");
  }

  meta->local_to_global.reserve(num_local);
  meta->global_degree.reserve(num_local);
  std::unordered_set<NodeId> seen;
  seen.reserve(num_local);
  for (uint64_t l = 0; l < num_local; ++l) {
    if (!NextRow(reader)) {
      return reader->Fail("truncated map: expected " +
                          std::to_string(num_local) + " node rows, got " +
                          std::to_string(l));
    }
    uint64_t global = 0;
    double degree = 0;
    FLOS_RETURN_IF_ERROR(reader->ParseU64("global node id", &global));
    FLOS_RETURN_IF_ERROR(reader->ParseDouble("global degree", &degree));
    FLOS_RETURN_IF_ERROR(reader->ExpectEnd());
    if (global >= meta->global_nodes) {
      return reader->Fail("global node id out of range");
    }
    if (!seen.insert(static_cast<NodeId>(global)).second) {
      return reader->Fail("duplicate global node id " +
                          std::to_string(global));
    }
    if (degree < 0) return reader->Fail("negative global degree");
    meta->local_to_global.push_back(static_cast<NodeId>(global));
    meta->global_degree.push_back(degree);
  }
  if (NextRow(reader)) {
    return reader->Fail("trailing rows after " + std::to_string(num_local) +
                        " node rows");
  }
  FLOS_RETURN_IF_ERROR(reader->status());
  meta->FinalizeDerived();
  return Status::OK();
}

}  // namespace

Result<ShardMeta> ReadShardMap(const std::string& path) {
  FLOS_ASSIGN_OR_RETURN(LineReader reader,
                        LineReader::Open(path, "shard map"));
  ShardMeta meta;
  FLOS_RETURN_IF_ERROR(ParseShardMap(&reader, &meta));
  return meta;
}

Result<Graph> ReadShardGraph(const std::string& path, const ShardMeta& meta) {
  EdgeListOptions options;
  options.num_nodes = static_cast<int64_t>(meta.num_local());
  // Shard files are written by WriteShardFiles with one row per edge;
  // accumulate rather than dedup so a corrupt duplicated row fails the
  // degree cross-check below instead of being silently absorbed.
  options.dedup_duplicates = false;
  FLOS_ASSIGN_OR_RETURN(Graph graph, ReadEdgeList(path, options));
  // Interior nodes must carry their complete global adjacency: their shard
  // degree must equal the recorded global degree. A mismatch means the
  // .edges and .map files are out of sync, which would silently produce
  // wrong certified answers.
  for (NodeId l = 0; l < meta.num_interior; ++l) {
    const double local_degree = graph.WeightedDegree(l);
    const double global_degree = meta.global_degree[l];
    const double tolerance =
        1e-9 * std::max(1.0, std::abs(global_degree));
    if (!(std::abs(local_degree - global_degree) <= tolerance)) {
      return Status::Corruption(
          path + ": interior node " + std::to_string(l) +
          " has shard degree " + std::to_string(local_degree) +
          " but the map records global degree " +
          std::to_string(global_degree) +
          " (edge list and map out of sync?)");
    }
  }
  return graph;
}

Result<ShardRouteTable> ShardRouteTable::Build(std::vector<ShardMeta> metas) {
  if (metas.empty()) {
    return Status::InvalidArgument("route table needs at least one shard");
  }
  const uint64_t n = metas[0].global_nodes;
  ShardRouteTable table;
  table.shard_of_.assign(n, kUnassigned);
  table.local_of_.assign(n, kInvalidNode);
  table.local_to_global_.resize(metas.size());
  for (size_t s = 0; s < metas.size(); ++s) {
    ShardMeta& meta = metas[s];
    if (meta.num_shards != metas.size()) {
      return Status::InvalidArgument(
          "shard map " + std::to_string(s) + " was cut for " +
          std::to_string(meta.num_shards) + " shards, not " +
          std::to_string(metas.size()));
    }
    if (meta.shard_index != s) {
      return Status::InvalidArgument(
          "shard map at position " + std::to_string(s) +
          " reports index " + std::to_string(meta.shard_index));
    }
    if (meta.global_nodes != n) {
      return Status::InvalidArgument(
          "shard maps disagree on the global node count");
    }
    for (NodeId l = 0; l < meta.num_core; ++l) {
      const NodeId g = meta.local_to_global[l];
      if (table.shard_of_[g] != kUnassigned) {
        return Status::Corruption(
            "global node " + std::to_string(g) + " is core in shards " +
            std::to_string(table.shard_of_[g]) + " and " +
            std::to_string(s));
      }
      table.shard_of_[g] = static_cast<uint32_t>(s);
      table.local_of_[g] = l;
    }
    table.local_to_global_[s] = std::move(meta.local_to_global);
  }
  for (uint64_t g = 0; g < n; ++g) {
    if (table.shard_of_[g] == kUnassigned) {
      return Status::Corruption("global node " + std::to_string(g) +
                                " is core in no shard");
    }
  }
  return table;
}

Result<NodeId> ShardRouteTable::ToGlobal(uint32_t shard, NodeId local) const {
  if (shard >= local_to_global_.size() ||
      local >= local_to_global_[shard].size()) {
    return Status::OutOfRange(
        "shard " + std::to_string(shard) + " local id " +
        std::to_string(local) + " is outside the remap table");
  }
  return local_to_global_[shard][local];
}

}  // namespace flos
