// Plain-text edge list reading and writing (SNAP-compatible format).
//
// Input lines are `u v [w]` separated by whitespace; lines starting with '#'
// or '%' are comments. This is the format of the SNAP datasets the paper
// evaluates on, so a user with those files can load them directly.

#ifndef FLOS_GRAPH_EDGE_LIST_IO_H_
#define FLOS_GRAPH_EDGE_LIST_IO_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace flos {

struct EdgeListOptions {
  /// Treat repeated occurrences of the same undirected edge (in either
  /// direction) as one edge, keeping the first weight seen. SNAP files often
  /// repeat edges. When false, duplicates accumulate weight per GraphBuilder
  /// semantics.
  bool dedup_duplicates = true;
  /// Drop self-loops instead of failing.
  bool ignore_self_loops = true;
  /// If >= 0, the graph has exactly this many nodes: ids >= num_nodes fail,
  /// and trailing isolated nodes survive a round-trip (an edge list alone
  /// cannot represent them). Shard loading (graph/partition.h) passes the
  /// node count recorded in the shard map. If < 0, the node count is
  /// 1 + max node id seen.
  int64_t num_nodes = -1;
};

/// Parses an edge list file into a Graph. Parsing is strict (through
/// util/line_reader.h): malformed rows (bad ids, non-numeric, non-finite or
/// non-positive weights, trailing garbage, a NUL byte, a truncated final
/// line) fail with a `<path>:<line>: ...` Status rather than being skipped,
/// so a corrupt file can never silently load as a smaller graph. Comment
/// lines of any length are skipped whole.
Result<Graph> ReadEdgeList(const std::string& path,
                           const EdgeListOptions& options = {});

/// Writes `graph` as `u v w` lines, one per undirected edge (u < v).
Status WriteEdgeList(const Graph& graph, const std::string& path);

}  // namespace flos

#endif  // FLOS_GRAPH_EDGE_LIST_IO_H_
