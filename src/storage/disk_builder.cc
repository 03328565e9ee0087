#include "storage/disk_builder.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/disk_format.h"

namespace flos {

Status WriteDiskGraph(const Graph& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);

  const uint64_t n = graph.NumNodes();
  DiskHeader header{};
  std::memcpy(header.magic, kDiskGraphMagic, sizeof(kDiskGraphMagic));
  header.num_nodes = n;
  header.num_directed_edges = graph.NumDirectedEdges();
  header.max_weighted_degree = graph.MaxWeightedDegree();
  header.adjacency_offset = sizeof(DiskHeader) + (n + 1) * sizeof(uint64_t) +
                            n * sizeof(double) + n * sizeof(uint32_t);

  const auto write_all = [&](const void* data, size_t bytes) -> Status {
    if (std::fwrite(data, 1, bytes, f) != bytes) {
      return Status::IoError("short write to " + path);
    }
    return Status::OK();
  };

  Status status = write_all(&header, sizeof(header));
  if (status.ok()) {
    status = write_all(graph.offsets().data(), (n + 1) * sizeof(uint64_t));
  }
  if (status.ok()) {
    std::vector<double> degrees(n);
    for (uint64_t u = 0; u < n; ++u) {
      degrees[u] = graph.WeightedDegree(static_cast<NodeId>(u));
    }
    status = write_all(degrees.data(), n * sizeof(double));
  }
  if (status.ok()) {
    status = write_all(graph.DegreeOrder().data(), n * sizeof(uint32_t));
  }
  if (status.ok()) {
    // Packed 12-byte adjacency entries, streamed through a buffer.
    std::vector<char> buffer;
    buffer.reserve(1 << 20);
    const auto neighbors = graph.neighbors();
    const auto weights = graph.weights();
    for (size_t e = 0; e < neighbors.size() && status.ok(); ++e) {
      char entry[kAdjacencyEntryBytes];
      std::memcpy(entry, &neighbors[e], sizeof(uint32_t));
      std::memcpy(entry + sizeof(uint32_t), &weights[e], sizeof(double));
      buffer.insert(buffer.end(), entry, entry + sizeof(entry));
      if (buffer.size() >= (1 << 20)) {
        status = write_all(buffer.data(), buffer.size());
        buffer.clear();
      }
    }
    if (status.ok() && !buffer.empty()) {
      status = write_all(buffer.data(), buffer.size());
    }
  }
  if (std::fclose(f) != 0 && status.ok()) {
    status = Status::IoError("failed to flush " + path);
  }
  return status;
}

}  // namespace flos
