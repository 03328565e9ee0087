#include "storage/disk_graph.h"

#include <algorithm>
#include <cstring>

#include "storage/disk_format.h"

namespace flos {

namespace {

Status ReadExact(std::FILE* f, uint64_t offset, void* out, uint64_t bytes,
                 const char* what) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError(std::string("seek failed reading ") + what);
  }
  if (std::fread(out, 1, bytes, f) != bytes) {
    return Status::Corruption(std::string("short read of ") + what);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<DiskGraph>> DiskGraph::Open(
    const std::string& path, const DiskGraphOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  // make_unique cannot reach the private constructor; ownership is taken
  // on the same line.
  std::unique_ptr<DiskGraph> g(new DiskGraph(options));  // lint:allow(no-naked-new)
  {
    // No other thread can see `g` yet; the lock just satisfies the
    // capability analysis for this one guarded write.
    MutexLock lock(g->io_mu_);
    g->file_ = f;
  }

  DiskHeader header{};
  FLOS_RETURN_IF_ERROR(ReadExact(f, 0, &header, sizeof(header), "header"));
  if (std::memcmp(header.magic, kDiskGraphMagic, sizeof(kDiskGraphMagic)) !=
      0) {
    return Status::Corruption("bad magic in " + path);
  }
  g->num_nodes_ = header.num_nodes;
  g->num_directed_edges_ = header.num_directed_edges;
  g->max_weighted_degree_ = header.max_weighted_degree;
  g->adjacency_offset_ = header.adjacency_offset;

  // Validate the header against the file before sizing anything by it, so
  // a hostile node count cannot force a huge allocation: node ids are u32,
  // the index arrays sit between the header and the adjacency region, and
  // the file must hold them.
  const uint64_t n = g->num_nodes_;
  if (n >= kInvalidNode) {
    return Status::Corruption("node count out of range in " + path);
  }
  if (g->adjacency_offset_ != sizeof(DiskHeader) + (n + 1) * sizeof(uint64_t) +
                                  n * sizeof(double) + n * sizeof(uint32_t)) {
    return Status::Corruption("adjacency offset mismatch in " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("seek failed sizing " + path);
  }
  const long file_bytes = std::ftell(f);
  if (file_bytes < 0 ||
      static_cast<uint64_t>(file_bytes) < g->adjacency_offset_) {
    return Status::Corruption("index arrays truncated in " + path);
  }
  g->offsets_.resize(n + 1);
  g->degrees_.resize(n);
  g->degree_order_.resize(n);
  uint64_t pos = sizeof(DiskHeader);
  FLOS_RETURN_IF_ERROR(ReadExact(f, pos, g->offsets_.data(),
                                 (n + 1) * sizeof(uint64_t), "offsets"));
  pos += (n + 1) * sizeof(uint64_t);
  FLOS_RETURN_IF_ERROR(
      ReadExact(f, pos, g->degrees_.data(), n * sizeof(double), "degrees"));
  pos += n * sizeof(double);
  FLOS_RETURN_IF_ERROR(ReadExact(f, pos, g->degree_order_.data(),
                                 n * sizeof(uint32_t), "degree order"));
  // Every later read trusts these arrays: CopyNeighbors sizes its read by
  // offset differences, and the degree order indexes degrees_.
  if (g->offsets_.front() != 0) {
    return Status::Corruption("first adjacency offset is not 0 in " + path);
  }
  if (!std::is_sorted(g->offsets_.begin(), g->offsets_.end())) {
    return Status::Corruption("adjacency offsets decrease in " + path);
  }
  if (g->offsets_.back() != g->num_directed_edges_) {
    return Status::Corruption("edge count mismatch in " + path);
  }
  for (const NodeId v : g->degree_order_) {
    if (v >= n) {
      return Status::Corruption("degree order entry out of range in " + path);
    }
  }
  return g;
}

DiskGraph::~DiskGraph() {
  if (file_ != nullptr) std::fclose(file_);
}

double DiskGraph::WeightedDegree(NodeId u) {
  ++stats_.degree_probes;
  return degrees_[u];
}

Status DiskGraph::ReadRange(uint64_t offset, uint64_t bytes,
                            std::vector<char>* out) {
  out->clear();
  out->reserve(bytes);
  const uint64_t block = options_.block_bytes;
  uint64_t cursor = offset;
  const uint64_t end = offset + bytes;
  while (cursor < end) {
    const uint64_t block_id = cursor / block;
    const uint64_t block_start = block_id * block;
    const std::vector<char>* cached = cache_.Get(block_id);
    std::vector<char> loaded;
    if (cached == nullptr) {
      ++stats_.cache_misses;
      // Read up to a full block (the file may end short).
      loaded.resize(block);
      if (std::fseek(file_, static_cast<long>(block_start), SEEK_SET) != 0) {
        return Status::IoError("seek failed reading adjacency");
      }
      const size_t got = std::fread(loaded.data(), 1, block, file_);
      loaded.resize(got);
      stats_.bytes_read += got;
      cache_.Put(block_id, loaded, got);
      cached = &loaded;
      if (block_start + got < end && got < block) {
        return Status::Corruption("adjacency region truncated");
      }
    } else {
      ++stats_.cache_hits;
    }
    const uint64_t begin_in_block = cursor - block_start;
    const uint64_t take =
        std::min<uint64_t>(end - cursor, cached->size() - begin_in_block);
    out->insert(out->end(), cached->begin() + begin_in_block,
                cached->begin() + begin_in_block + take);
    cursor += take;
    if (take == 0) return Status::Corruption("adjacency read stalled");
  }
  return Status::OK();
}

Status DiskGraph::CopyNeighbors(NodeId u, std::vector<Neighbor>* out) {
  if (u >= num_nodes_) return Status::OutOfRange("node id out of range");
  ++stats_.neighbor_fetches;
  const uint64_t first = offsets_[u];
  const uint64_t last = offsets_[u + 1];
  const uint64_t byte_offset =
      adjacency_offset_ + first * kAdjacencyEntryBytes;
  const uint64_t byte_count = (last - first) * kAdjacencyEntryBytes;
  // One critical section spans the cached read AND the decode loop:
  // range_scratch_ must not be overwritten by another reader mid-decode.
  MutexLock lock(io_mu_);
  FLOS_RETURN_IF_ERROR(ReadRange(byte_offset, byte_count, &range_scratch_));
  out->clear();
  out->reserve(last - first);
  for (uint64_t e = 0; e < last - first; ++e) {
    const char* entry = range_scratch_.data() + e * kAdjacencyEntryBytes;
    Neighbor nb;
    std::memcpy(&nb.id, entry, sizeof(uint32_t));
    std::memcpy(&nb.weight, entry + sizeof(uint32_t), sizeof(double));
    // A bad id would flow into degree reads (degrees_[id]) and visits.
    if (nb.id >= num_nodes_) {
      return Status::Corruption("neighbor id out of range in adjacency");
    }
    out->push_back(nb);
  }
  return Status::OK();
}

}  // namespace flos
