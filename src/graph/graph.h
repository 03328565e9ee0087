// In-memory undirected weighted graph in CSR (compressed sparse row) form.
//
// `Graph` is immutable after construction; build one with `GraphBuilder`.
// Node ids are dense `[0, NumNodes())`. Every undirected edge {u, v} is
// stored twice (once per endpoint) so neighbor scans are contiguous.
//
// This is the substrate every proximity algorithm in the library runs on:
// global methods iterate the CSR arrays directly, local methods go through
// the `GraphAccessor` interface (see graph/accessor.h) so they also work on
// disk-resident graphs.

#ifndef FLOS_GRAPH_GRAPH_H_
#define FLOS_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/huge_page_allocator.h"
#include "util/status.h"

namespace flos {

/// Dense node identifier in [0, NumNodes()).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Immutable undirected weighted graph (CSR).
class Graph {
 public:
  /// Constructs an empty graph (0 nodes, 0 edges).
  Graph() = default;

  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;

  /// Number of nodes. Node ids are 0..NumNodes()-1.
  uint64_t NumNodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Number of undirected edges {u, v}.
  uint64_t NumEdges() const { return directed_edge_count_ / 2; }

  /// Number of stored directed half-edges (2 * NumEdges()).
  uint64_t NumDirectedEdges() const { return directed_edge_count_; }

  /// Number of neighbors of `u`.
  uint32_t Degree(NodeId u) const {
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Sum of weights of edges incident to `u` (w_u in the paper).
  double WeightedDegree(NodeId u) const { return weighted_degree_[u]; }

  /// Two-step return mass R_u = sum over neighbors v of p_uv * p_vu, with
  /// p_uv = w_uv / w_u: the probability that a two-step walk from u is back
  /// at u. Precomputed at build time; 0 for isolated nodes.
  double TwoStepReturn(NodeId u) const { return two_step_return_[u]; }

  /// Largest weighted degree over all nodes (0 for the empty graph).
  double MaxWeightedDegree() const { return max_weighted_degree_; }

  /// Neighbor ids of `u`, sorted ascending.
  std::span<const NodeId> NeighborIds(NodeId u) const {
    return {neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Weights parallel to NeighborIds(u).
  std::span<const double> NeighborWeights(NodeId u) const {
    return {weights_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Returns the weight of edge {u, v}, or 0 if absent. O(log deg(u)).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True iff {u, v} is an edge. O(log deg(u)).
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) > 0; }

  /// Node ids sorted by descending weighted degree (ties by ascending id).
  /// Used by FLoS_RWR to maintain the maximum unvisited degree.
  const std::vector<NodeId>& DegreeOrder() const { return degree_order_; }

  /// Issues CPU read prefetches for u's CSR offset, weighted degree and
  /// two-step return mass — the per-node loads of a neighbor fetch and a
  /// join — so they can overlap other work.
  void Prefetch(NodeId u) const {
    __builtin_prefetch(offsets_.data() + u, 0, 1);
    __builtin_prefetch(weighted_degree_.data() + u, 0, 1);
    __builtin_prefetch(two_step_return_.data() + u, 0, 1);
  }

  /// Raw CSR arrays, for algorithms that iterate the whole graph.
  std::span<const uint64_t> offsets() const { return offsets_; }
  std::span<const NodeId> neighbors() const { return neighbors_; }
  std::span<const double> weights() const { return weights_; }

 private:
  friend class GraphBuilder;
  friend Result<Graph> GraphFromCsrParts(HugePageVector<uint64_t> offsets,
                                         HugePageVector<NodeId> neighbors,
                                         HugePageVector<double> weights);

  void FinalizeDerived();

  // Every per-node and per-edge array a join reads lives in huge-page-backed
  // storage (util/huge_page_allocator.h): a join is a random read into
  // them, and 2 MiB pages take the TLB walk off most of those reads.
  HugePageVector<uint64_t> offsets_;   // size NumNodes()+1
  HugePageVector<NodeId> neighbors_;   // size NumDirectedEdges()
  HugePageVector<double> weights_;     // size NumDirectedEdges()
  HugePageVector<double> weighted_degree_;
  HugePageVector<double> two_step_return_;
  std::vector<NodeId> degree_order_;
  uint64_t directed_edge_count_ = 0;
  double max_weighted_degree_ = 0;
};

/// Reassembles a Graph from raw CSR parts. The parts must describe a
/// symmetric graph with sorted neighbor lists; violations are reported as
/// Corruption. The parts are taken by value in the Graph's own storage
/// type, so a caller that moves them in hands its buffers over uncopied.
Result<Graph> GraphFromCsrParts(HugePageVector<uint64_t> offsets,
                                HugePageVector<NodeId> neighbors,
                                HugePageVector<double> weights);

/// Accumulates edges and produces an immutable `Graph`.
///
/// Thread-compatible, not thread-safe. Duplicate edges have their weights
/// summed; self-loops are rejected by default (random-walk measures in this
/// library are defined on simple graphs).
class GraphBuilder {
 public:
  struct Options {
    /// If >= 0, the graph has exactly this many nodes and edges touching
    /// ids >= num_nodes are errors. If < 0, the node count is
    /// 1 + max node id seen.
    int64_t num_nodes = -1;
    /// Reject (false) or silently drop (true) self-loops.
    bool ignore_self_loops = false;
  };

  GraphBuilder() = default;
  explicit GraphBuilder(Options options) : options_(options) {}

  /// Adds undirected edge {u, v} with weight `w` (> 0). Duplicate {u, v}
  /// edges accumulate weight.
  Status AddEdge(NodeId u, NodeId v, double w = 1.0);

  /// Number of AddEdge calls accepted so far (before dedup).
  uint64_t num_added() const { return num_added_; }

  /// Builds the CSR graph. The builder is consumed.
  Result<Graph> Build() &&;

 private:
  struct RawEdge {
    NodeId u;
    NodeId v;
    double w;
  };

  Options options_;
  std::vector<RawEdge> edges_;
  uint64_t num_added_ = 0;
  NodeId max_node_ = 0;
  bool saw_node_ = false;
};

}  // namespace flos

#endif  // FLOS_GRAPH_GRAPH_H_
