#include "graph/edge_list_io.h"

#include <cstdio>
#include <string>
#include <unordered_set>

#include "util/line_reader.h"

namespace flos {

Result<Graph> ReadEdgeList(const std::string& path,
                           const EdgeListOptions& options) {
  FLOS_ASSIGN_OR_RETURN(LineReader reader,
                        LineReader::Open(path, "edge list"));
  GraphBuilder::Options builder_options;
  builder_options.ignore_self_loops = options.ignore_self_loops;
  builder_options.num_nodes = options.num_nodes;
  GraphBuilder builder(builder_options);

  // Every malformed row is a hard, line-numbered error — a silently
  // skipped or misparsed row would corrupt the graph without a trace.
  std::unordered_set<uint64_t> seen;
  while (reader.Next()) {
    const char first = reader.Peek();
    if (first == '\0' || first == '#' || first == '%') continue;
    uint64_t u = 0;
    uint64_t v = 0;
    double w = 1.0;
    FLOS_RETURN_IF_ERROR(reader.ParseU64("node id", &u));
    if (reader.Peek() == '\0') {
      return reader.Fail("truncated edge: expected second node id");
    }
    FLOS_RETURN_IF_ERROR(reader.ParseU64("second node id", &v));
    if (reader.Peek() != '\0') {
      FLOS_RETURN_IF_ERROR(reader.ParseDouble("edge weight", &w));
      FLOS_RETURN_IF_ERROR(reader.ExpectEnd());
    }
    if (u > kInvalidNode - 1 || v > kInvalidNode - 1) {
      return Status::OutOfRange(reader.At("node id exceeds 32-bit range"));
    }
    if (options.dedup_duplicates && u != v) {
      const uint64_t lo = u < v ? u : v;
      const uint64_t hi = u < v ? v : u;
      if (!seen.insert((lo << 32) | hi).second) continue;
    }
    const Status added =
        builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
    if (!added.ok()) {
      // Builder rejections (negative/zero weight, endpoint out of a fixed
      // node range) gain the file:line prefix on the way out.
      return Status(added.code(), reader.At(added.message()));
    }
  }
  FLOS_RETURN_IF_ERROR(reader.status());
  return std::move(builder).Build();
}

Status WriteEdgeList(const Graph& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot create edge list: " + path);
  }
  std::fprintf(f, "# flos edge list: %llu nodes, %llu edges\n",
               static_cast<unsigned long long>(graph.NumNodes()),
               static_cast<unsigned long long>(graph.NumEdges()));
  for (uint64_t u = 0; u < graph.NumNodes(); ++u) {
    const auto ids = graph.NeighborIds(static_cast<NodeId>(u));
    const auto ws = graph.NeighborWeights(static_cast<NodeId>(u));
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] <= u) continue;  // emit each undirected edge once
      std::fprintf(f, "%llu %u %.17g\n", static_cast<unsigned long long>(u),
                   ids[i], ws[i]);
    }
  }
  if (std::fclose(f) != 0) {
    return Status::IoError("failed writing edge list: " + path);
  }
  return Status::OK();
}

}  // namespace flos
