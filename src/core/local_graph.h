// Dynamic local subgraph maintained by FLoS during search.
//
// Tracks the visited set S, the within-S transition structure (the matrix T
// restricted to S), each node's full neighbor list, and boundary membership
// (delta-S = visited nodes with at least one unvisited neighbor). Nodes are
// given dense local indices in visit order; all bound computations run on
// local indices.
//
// A node "joins S" when its neighbor list is fetched through the
// GraphAccessor; the number of fetches equals |S|, matching the paper's
// "number of visited nodes". Joining costs one neighbor fetch, one degree
// read, one two-step-return read (GraphAccessor::TwoStepReturn) and one
// visited-index probe per neighbor — nothing is recorded for the
// unvisited neighbors themselves. On in-memory graphs the visited index
// is a presence bitmap (core/node_index.h), so the usual probe, a miss on
// an unvisited neighbor, reads one cached bit and no per-node array. The
// unvisited frontier (delta-S-bar) is not maintained here: the bound engine
// enumerates it from the boundary's neighbor lists when a termination test
// needs it (UnifiedBoundEngine::ComputeOutsideUppers).
//
// Within-S rows live in a FLAT LOCAL CSR in structure-of-arrays form: one
// arena of `LocalId` column indices and one parallel arena of `double`
// transition weights, with per-row (start, length, capacity) spines. Rows
// grow in place through power-of-two slabs carved off the arena tail: a row
// that outgrows its slab moves once to a slab of twice the size, so the
// total copy work per row is O(final row length) and a full bound sweep
// touches two dense arrays instead of one heap-allocated AoS vector per
// node. The bound kernels (core/sweep_kernel.h) stream these arrays
// directly.
//
// Boundary masses without rescans: each node keeps its visible edge mass,
// its two-step return mass R_i = sum_{v in N(i)} p_iv p_vi, and the in-S
// part of that sum, accumulated where RowAppend writes both directions of
// an edge. The bound engine's coefficients then follow from two identities
// in O(1) per node (OutMass, LoopMass), with no neighbor scan and no
// degree probe. Both rest on the symmetric-list invariant outside_count_
// already assumes: j appears in i's fetched list iff i appears in j's.
//
// Fetched neighbor lists live in ONE FLAT LIST ARENA in visit order: node
// i's list is list_arena_[list_offsets_[i], list_offsets_[i + 1]). A join
// fetches into a reused scratch buffer that stays cached and appends it at
// the arena tail, a sequential write, instead of handing each node its own
// heap buffer. Neighbors(i) is a span into the arena, so a snapshot of the
// lists is a single copy either way.
//
// Memory layout for cheap joins: the list arena and the two row arenas
// are huge-page backed once they reach 2 MiB (util/huge_page_allocator.h),
// as are the CSR arrays (graph/graph.h) and the dense visited index a join
// probes. The row arenas' bump pointer and the list offsets are 32-bit; a
// query whose arenas would pass 2^32 entries aborts with a FLOS_CHECK
// instead of wrapping onto live entries.
//
// Reuse: a LocalGraph is a per-worker workspace, not a per-query object.
// Reset() returns it to the pre-Init state in O(|S|) without releasing any
// storage — the visited index clears only the entries it holds
// (core/node_index.h) and the row and list arenas keep their capacity with
// their tails rewound — so steady-state queries perform no allocation and
// no hashing on the hot membership checks when the accessor advertises
// DenseIndexHint().

#ifndef FLOS_CORE_LOCAL_GRAPH_H_
#define FLOS_CORE_LOCAL_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/node_index.h"
#include "graph/accessor.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/huge_page_allocator.h"
#include "util/status.h"

namespace flos {

/// Local (dense, within-S) node index.
using LocalId = uint32_t;

inline constexpr LocalId kInvalidLocal = static_cast<LocalId>(-1);

/// Zero-copy view of one within-S transition row: parallel index/weight
/// arrays of length `len` (structure-of-arrays). Valid until the next
/// Expand/Init/Reset call on the owning LocalGraph.
struct LocalRow {
  const LocalId* idx;
  const double* weight;
  uint32_t len;

  uint32_t size() const { return len; }
};

/// Deep, self-contained copy of a LocalGraph's per-query state, for the
/// warm-subgraph cache (core/subgraph_cache.h). Holds everything a resumed
/// query needs that cannot be rebuilt locally: the visited set in visit
/// order, the compacted local CSR (used arena prefix + spines), the
/// fetched neighbor lists, boundary/hidden-mass bookkeeping and hop
/// distances. The neighbor lists are stored flat, exactly as the live list
/// arena holds them — node i's list is
/// neighbor_list[neighbor_offsets[i], neighbor_offsets[i + 1]) — so a
/// snapshot costs a handful of allocations however large S is. The
/// visited index (global_to_local) is NOT stored;
/// RestoreSnapshot rebuilds it from the visit order.
struct LocalGraphSnapshot {
  NodeId query = kInvalidNode;
  uint32_t query_count = 0;
  std::vector<NodeId> local_to_global;
  std::vector<double> weighted_degree;
  std::vector<double> hidden_mass;
  bool truncated_seen = false;
  std::vector<uint32_t> outside_count;
  uint32_t boundary_count = 0;
  std::vector<uint32_t> neighbor_offsets;  ///< Size() + 1 entries
  std::vector<Neighbor> neighbor_list;
  std::vector<LocalId> arena_idx;
  std::vector<double> arena_weight;
  uint32_t arena_used = 0;
  std::vector<uint32_t> row_start;
  std::vector<uint32_t> row_len;
  std::vector<uint32_t> row_cap;
  std::vector<double> row_in_mass;
  std::vector<double> visible_mass;
  std::vector<double> two_step_return;
  std::vector<double> in_loop_mass;
  std::vector<uint32_t> hop_dist;

  uint32_t Size() const { return static_cast<uint32_t>(local_to_global.size()); }

  friend bool operator==(const LocalGraphSnapshot&,
                         const LocalGraphSnapshot&) = default;
};

/// The visited subgraph S with its boundary bookkeeping.
class LocalGraph {
 public:
  /// `accessor` must outlive the LocalGraph. Allocates the visited-set
  /// index sized to the accessor's hint (a dense bitmap plus value array
  /// for in-memory graphs, open-addressing hashing for disk graphs).
  explicit LocalGraph(GraphAccessor* accessor);

  LocalGraph(const LocalGraph&) = delete;
  LocalGraph& operator=(const LocalGraph&) = delete;

  /// Adds the query node as local id 0. Must be called exactly once per
  /// query (after construction or Reset()).
  Status Init(NodeId query);

  /// Multi-source variant: the queries become local ids 0..queries.size()-1
  /// and act as one absorbing set (walks stop at ANY of them). Queries must
  /// be distinct and in range. Must be called exactly once per query.
  Status Init(const std::vector<NodeId>& queries);

  /// Returns to the pre-Init state so the workspace can serve the next
  /// query. Keeps every buffer's capacity; O(|S|).
  void Reset();

  /// Expands node `u` (must be visited): every unvisited neighbor of `u`
  /// joins S. Returns the number of nodes added. Hints the accessor
  /// (GraphAccessor::Prefetch) a few nodes ahead of each join so the
  /// batch's random CSR reads overlap.
  Result<uint32_t> Expand(LocalId u);

  /// Number of visited nodes |S|.
  uint32_t Size() const { return static_cast<uint32_t>(local_to_global_.size()); }

  /// True iff `global` is visited.
  bool Contains(NodeId global) const {
    return global_to_local_.Contains(global);
  }

  /// Local id of a visited node, or kInvalidLocal. Single index probe;
  /// prefer one LocalIndex call over Contains-then-LocalIndex pairs.
  LocalId LocalIndex(NodeId global) const {
    const LocalId* local = global_to_local_.Find(global);
    return local == nullptr ? kInvalidLocal : *local;
  }

  NodeId GlobalId(LocalId local) const { return local_to_global_[local]; }

  /// Weighted degree w_i (over ALL neighbors, visited or not).
  double WeightedDegree(LocalId local) const { return weighted_degree_[local]; }

  /// Number of i's neighbors currently outside S. 0 means interior.
  uint32_t OutsideCount(LocalId local) const { return outside_count_[local]; }

  /// True iff i is in the boundary delta-S.
  bool IsBoundary(LocalId local) const { return outside_count_[local] > 0; }

  /// Number of boundary nodes |delta-S| (maintained, O(1)).
  uint32_t BoundaryCount() const { return boundary_count_; }

  /// True iff no visited node has an unvisited neighbor (the query's whole
  /// component has been visited). O(1): the boundary-node count is
  /// maintained where outside counts change.
  bool Exhausted() const { return boundary_count_ == 0; }

  /// Within-S transition row of node i: visited neighbors j with
  /// p_ij = w_ij / w_i (FULL weighted degree), as an SoA view into the
  /// flat local CSR.
  LocalRow Row(LocalId local) const {
    FLOS_DCHECK(local < Size(), "Row: local id out of range");
    const uint32_t start = row_start_[local];
    return {arena_idx_.data() + start, arena_weight_.data() + start,
            row_len_[local]};
  }

  /// Issues software prefetches for row i's index and weight slabs. The
  /// bound sweeps call this one row ahead so the slab is in cache by the
  /// time the scan reaches it.
  void PrefetchRow(LocalId local) const {
    const uint32_t start = row_start_[local];
    __builtin_prefetch(arena_idx_.data() + start, 0, 1);
    __builtin_prefetch(arena_weight_.data() + start, 0, 1);
  }

  /// Sum of row i's transition probabilities (the in-S mass
  /// sum_{j in S} p_ij), maintained incrementally as entries are appended.
  /// Bitwise equal to summing Row(i) in order.
  double RowInMass(LocalId local) const { return row_in_mass_[local]; }

  /// Weighted-degree mass of node i's edges the accessor cannot enumerate
  /// (a ShardAccessor's truncated fringe rows): WeightedDegree(i) minus the
  /// fetched list's sum. 0 on accessors with complete adjacency, so every
  /// full-graph code path is unchanged. The transition fraction
  /// HiddenMass(i) / WeightedDegree(i) leaves S through edges no fetched
  /// list ever reports; the bound engines must treat it as permanently
  /// outside mass routed to the dummy node.
  double HiddenMass(LocalId local) const { return hidden_mass_[local]; }

  /// True once any visited row had hidden mass. Bound refinements that
  /// assume complete neighbor enumeration must degrade conservatively when
  /// this is set.
  bool HasTruncatedRows() const { return truncated_seen_; }

  /// Transition mass from i to its unvisited neighbors that the fetched
  /// list reports: sum_{v in N(i) \ S} p_iv = visible_i / w_i - RowInMass(i).
  /// O(1); clamped at 0 because the difference of two rounded sums can
  /// land an ulp below it. 0 when w_i = 0. Hidden mass is not included.
  double OutMass(LocalId local) const {
    const double wi = weighted_degree_[local];
    if (wi <= 0) return 0;
    return std::max(0.0, visible_mass_[local] / wi - row_in_mass_[local]);
  }

  /// The star-to-mesh loop mass of Lemma 3: sum_{v in N(i) \ S} p_iv p_vi
  /// = R_i - sum_{j in N(i) cap S} p_ij p_ji, both terms maintained. O(1);
  /// clamped into [0, OutMass(i)]. Rounding can only move it by an ulp-scale
  /// amount, and a loop mass below the true one still yields a valid (looser)
  /// mesh bound.
  double LoopMass(LocalId local) const {
    const double loop = two_step_return_[local] - in_loop_mass_[local];
    return std::clamp(loop, 0.0, OutMass(local));
  }

  /// Full neighbor list of visited node i (global ids), as fetched: a view
  /// into the list arena with LocalRow's lifetime (valid until the next
  /// Expand/Init/Reset call).
  std::span<const Neighbor> Neighbors(LocalId local) const {
    FLOS_DCHECK(local < Size(), "Neighbors: local id out of range");
    const uint32_t start = list_offsets_[local];
    return {list_arena_.data() + start, list_offsets_[local + 1] - start};
  }

  /// Weighted degree of an arbitrary (possibly unvisited) node, read
  /// straight from the accessor (every accessor serves it as one array
  /// read). Used by the frontier uppers, which need degrees of unvisited
  /// frontier nodes.
  double ProbeDegree(NodeId global) {
    return accessor_->WeightedDegree(global);
  }

  /// Nodes whose outside-neighbor set changed since the last call (newly
  /// added nodes and their visited neighbors), deduplicated. The bound
  /// engine uses this to refresh boundary coefficients incrementally.
  /// Calling this clears the set. The returned reference is valid until
  /// the next TakeDirtyNodes or Expand call.
  const std::vector<LocalId>& TakeDirtyNodes();

  /// Hop distance from the query to `local` along paths WITHIN S
  /// (maintained incrementally with decrease-relaxation, so it equals the
  /// true within-S shortest hop count).
  uint32_t HopDistance(LocalId local) const { return hop_dist_[local]; }

  /// A certified lower bound on the hop distance of every UNVISITED node:
  /// 1 + min over boundary nodes of HopDistance. Any path from q must cross
  /// the boundary before leaving S. Returns a large sentinel when S is
  /// exhausted (no unvisited nodes are reachable). Used by the THT bounds.
  uint32_t UnvisitedHopLowerBound() const;

  GraphAccessor* accessor() { return accessor_; }

  /// First (or only) query node.
  NodeId query() const { return query_; }

  /// Number of query (source) nodes; their local ids are 0..count-1.
  uint32_t query_count() const { return query_count_; }

  /// True iff `local` is one of the query nodes (they are added first, so
  /// this is an index comparison).
  bool IsQueryLocal(LocalId local) const { return local < query_count_; }

  /// Deep-copies this query's state into `out` (see LocalGraphSnapshot).
  /// Must be Init'd. The snapshot is independent of this workspace and
  /// stays valid across Reset.
  void SaveSnapshot(LocalGraphSnapshot* out) const;

  /// Rebuilds the Init'd state captured by SaveSnapshot into this
  /// workspace. Must be called in the pre-Init state (after Reset), on a
  /// LocalGraph over the SAME graph the snapshot was taken from (the
  /// caller keys snapshots by graph epoch). All nodes come back dirty so
  /// the bound engine's next coefficient refresh recomputes everything.
  void RestoreSnapshot(const LocalGraphSnapshot& snap);

 private:
  Status Add(NodeId global);

  /// Audit tier: recomputes the maintained bookkeeping — per-node outside
  /// counts and the boundary count from the stored neighbor lists, and
  /// each row's in-S mass by re-summing the row in append order — and
  /// aborts on any mismatch with the incrementally maintained values.
  /// O(edges(S)); called from Init/Expand under FLOS_AUDIT_SCOPE only.
  void AuditBookkeeping() const;

  /// Appends entry (j, p) to row i, growing its slab if full.
  void RowAppend(LocalId i, LocalId j, double p);

  /// Moves row i to a fresh power-of-two slab of at least `min_cap`
  /// entries at the arena tail, copying its current entries.
  void GrowRow(LocalId i, uint32_t min_cap);

  GraphAccessor* accessor_;
  NodeId query_ = kInvalidNode;
  uint32_t query_count_ = 0;
  NodeMap<LocalId> global_to_local_;
  std::vector<NodeId> local_to_global_;
  std::vector<double> weighted_degree_;
  /// Per-node hidden (non-enumerable) edge mass; see HiddenMass(). A node
  /// with hidden mass carries a phantom +1 in outside_count_ that is never
  /// decremented: its hidden neighbors can never be visited through this
  /// accessor, so it stays boundary — and the query stays uncertifiable —
  /// forever.
  std::vector<double> hidden_mass_;
  bool truncated_seen_ = false;  ///< any visited row had hidden mass
  std::vector<uint32_t> outside_count_;
  uint32_t boundary_count_ = 0;  ///< # nodes with outside_count_ > 0

  // Fetched neighbor lists, flat in visit order; Size() + 1 offsets.
  // Reset() clears both and keeps the arena's capacity.
  HugePageVector<Neighbor> list_arena_;
  std::vector<uint32_t> list_offsets_{0};

  // Flat local CSR (SoA): per-row slabs inside two parallel arenas. The
  // arena vectors only ever grow; `arena_used_` is the bump pointer, and
  // Reset() rewinds it without releasing capacity.
  HugePageVector<LocalId> arena_idx_;
  HugePageVector<double> arena_weight_;
  uint32_t arena_used_ = 0;
  std::vector<uint32_t> row_start_;
  std::vector<uint32_t> row_len_;
  std::vector<uint32_t> row_cap_;
  std::vector<double> row_in_mass_;

  // Boundary-mass bookkeeping (OutMass, LoopMass), one entry per node.
  std::vector<double> visible_mass_;     ///< sum of the fetched weights
  std::vector<double> two_step_return_;  ///< R_i over the fetched list
  std::vector<double> in_loop_mass_;     ///< sum_{j in N(i) cap S} p_ij p_ji

  std::vector<Neighbor> scratch_;        // fetch buffer, copied to the arena
  std::vector<NodeId> expand_scratch_;   // unvisited neighbors in Expand
  std::vector<LocalId> relax_scratch_;   // hop-distance relaxation queue
  std::vector<LocalId> dirty_;
  std::vector<LocalId> dirty_out_;
  std::vector<bool> in_dirty_;
  std::vector<uint32_t> hop_dist_;
};

}  // namespace flos

#endif  // FLOS_CORE_LOCAL_GRAPH_H_
