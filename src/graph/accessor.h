// Uniform neighbor-query interface over graph storage.
//
// Local search algorithms (FLoS and the local baselines) touch a graph only
// through this interface: fetch a node's neighbor list, probe a node's
// weighted degree, and consult the global degree order. This mirrors the
// paper's disk-resident experiment, where FLoS "only calls some basic query
// functions provided by Neo4j, such as querying the neighbors of one node"
// (Section 6.4). `InMemoryAccessor` wraps a `Graph`; `storage/DiskGraph`
// implements the same interface over an on-disk adjacency file.

#ifndef FLOS_GRAPH_ACCESSOR_H_
#define FLOS_GRAPH_ACCESSOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace flos {

/// One neighbor of a node, with the connecting edge's weight.
struct Neighbor {
  NodeId id;
  double weight;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Counters describing how much of the graph an algorithm touched.
struct AccessStats {
  uint64_t neighbor_fetches = 0;  ///< CopyNeighbors calls
  uint64_t degree_probes = 0;     ///< WeightedDegree calls
  uint64_t cache_hits = 0;        ///< disk block cache hits (disk only)
  uint64_t cache_misses = 0;      ///< disk block cache misses (disk only)
  uint64_t bytes_read = 0;        ///< bytes read from disk (disk only)
};

/// Read-only neighbor-query interface shared by in-memory and disk graphs.
///
/// Thread-safety contract (serving pattern): the underlying graph storage
/// is immutable after construction and may be shared by any number of
/// threads, but a GraphAccessor instance is thread-COMPATIBLE, not
/// thread-safe — it carries mutable per-client state (access counters
/// here; block caches and file handles in DiskGraph). Concurrent queries
/// must therefore use one accessor instance per thread, all backed by the
/// same shared graph: construct one `InMemoryAccessor` per thread over one
/// `const Graph`, or `DiskGraph::Open` the same file once per thread.
/// `EngineSessionPool` (service/session_pool.h) follows exactly this
/// pattern.
class GraphAccessor {
 public:
  virtual ~GraphAccessor() = default;

  /// Number of nodes; ids are dense in [0, NumNodes()).
  virtual uint64_t NumNodes() const = 0;

  /// Number of undirected edges.
  virtual uint64_t NumEdges() const = 0;

  /// Weighted degree w_u. Cheap (index lookup; no adjacency read on disk).
  /// Non-const: implementations count probes and may touch caches.
  virtual double WeightedDegree(NodeId u) = 0;

  /// Appends nothing and overwrites `*out` with u's neighbors (sorted by id).
  /// Non-const: implementations count fetches and may touch caches.
  virtual Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) = 0;

  /// Two-step return mass of u over the edges `fetched` lists:
  ///   R_u = sum over v in fetched of (w_uv / w_u) * (w_uv / w_v),
  /// with every degree the accessor's WeightedDegree. `fetched` must be
  /// what CopyNeighbors(u) just returned. LocalGraph reads R_u once per
  /// join so the self-loop tightening (Lemma 3) never rescans a boundary
  /// row. The default evaluates the sum term by term in list order, which
  /// counts 1 + |fetched| degree probes; that is right for disk and
  /// dynamic graphs, and for a ShardAccessor, whose truncated fringe rows
  /// make R_u a sum over the visible edges only. An override must return
  /// the same value over the same list without probing: InMemoryAccessor
  /// serves the array Graph precomputes at build time.
  virtual double TwoStepReturn(NodeId u, std::span<const Neighbor> fetched);

  /// Hint that u's neighbor list and degree will be read soon. A hint
  /// only: it counts nothing, changes no state visible through this
  /// interface, and may do nothing at all (the default). Implementations
  /// whose reads are memory-latency bound issue CPU prefetches.
  virtual void Prefetch(NodeId u) { (void)u; }

  /// Node ids sorted by descending weighted degree. Used by FLoS_RWR to
  /// bound the maximum degree among unvisited nodes.
  virtual const std::vector<NodeId>& DegreeOrder() const = 0;

  /// Largest weighted degree in the graph.
  virtual double MaxWeightedDegree() const = 0;

  /// Topology version of the underlying graph. Strictly increases whenever
  /// the graph an accessor serves changes (DynamicGraph bumps it per
  /// update); immutable storage reports the constant 0. Consumers that
  /// memoize derived answers — the serving layer's QueryCache — key on
  /// this epoch, so entries computed against an older topology can never
  /// match again: exact invalidation without tracking which nodes changed.
  virtual uint64_t Epoch() const { return 0; }

  /// Upper bound on the weighted degree of any node that exists in the full
  /// logical graph but is NOT represented by this accessor. Whole-graph
  /// storage returns 0 (every node is present). A ShardAccessor
  /// (graph/partition.h) serves only a partition's core plus its replicated
  /// halo, so FLoS_RWR's unknown-degree bound must also cover the off-shard
  /// remainder; returning the off-shard maximum here keeps that bound — and
  /// therefore certification — sound on shard-local graphs.
  virtual double ExternalDegreeBound() const { return 0; }

  /// True when CopyNeighbors(u) returns u's COMPLETE adjacency in the full
  /// logical graph. Whole-graph storage always does. A ShardAccessor's
  /// outermost halo ring stores only the edges that lead back toward the
  /// core, so its fringe rows are truncated: the fetched list sums to less
  /// than WeightedDegree(u) (which is always the FULL-graph degree, from
  /// the partition sidecar). LocalGraph uses this to track the hidden
  /// transition mass per row, which the bound engines must route to the
  /// dummy node for certification to stay sound on shard-local graphs.
  virtual bool CompleteAdjacency(NodeId u) const {
    (void)u;
    return true;
  }

  /// True when per-query workspaces over this accessor should index visited
  /// nodes with O(NumNodes())-memory dense stamp arrays (fastest lookups;
  /// right for in-memory CSR graphs). False steers them to hashing with
  /// memory proportional to the visited set (right for disk-resident
  /// graphs, whose node count may dwarf what each worker should pin).
  virtual bool DenseIndexHint() const { return false; }

  /// Access counters accumulated since construction or ResetStats.
  const AccessStats& stats() const { return stats_; }
  void ResetStats() { stats_ = AccessStats{}; }

 protected:
  AccessStats stats_;
};

/// `GraphAccessor` over an in-memory `Graph`. Does not own the graph; the
/// graph must outlive the accessor.
class InMemoryAccessor final : public GraphAccessor {
 public:
  explicit InMemoryAccessor(const Graph* graph) : graph_(graph) {}

  uint64_t NumNodes() const override { return graph_->NumNodes(); }
  uint64_t NumEdges() const override { return graph_->NumEdges(); }
  double WeightedDegree(NodeId u) override {
    ++stats_.degree_probes;
    return graph_->WeightedDegree(u);
  }
  Status CopyNeighbors(NodeId u, std::vector<Neighbor>* out) override;
  double TwoStepReturn(NodeId u, std::span<const Neighbor> fetched) override {
    (void)fetched;
    return graph_->TwoStepReturn(u);
  }
  void Prefetch(NodeId u) override {
    if (u < graph_->NumNodes()) graph_->Prefetch(u);
  }
  const std::vector<NodeId>& DegreeOrder() const override {
    return graph_->DegreeOrder();
  }
  double MaxWeightedDegree() const override {
    return graph_->MaxWeightedDegree();
  }
  bool DenseIndexHint() const override { return true; }

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
};

}  // namespace flos

#endif  // FLOS_GRAPH_ACCESSOR_H_
