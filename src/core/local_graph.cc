#include "core/local_graph.h"

#include <algorithm>
#include <limits>
#include <string>

namespace flos {

namespace {
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max() - 1;
/// Smallest row slab (entries). Rows double from here, so a row of final
/// length L occupies at most 2L arena entries and is copied O(L) times
/// total across all growths.
constexpr uint32_t kMinSlab = 4;
/// How many joins ahead Expand hints the accessor: far enough for a hinted
/// node's CSR lines to arrive before its Add, near enough that they are
/// still cached when it does.
constexpr size_t kPrefetchAhead = 4;
/// Largest entry count a 32-bit arena offset can address.
constexpr uint64_t kMaxArenaEntries = std::numeric_limits<uint32_t>::max();
}  // namespace

LocalGraph::LocalGraph(GraphAccessor* accessor) : accessor_(accessor) {
  const bool dense = accessor->DenseIndexHint();
  const uint64_t n = accessor->NumNodes();
  global_to_local_.Configure(n, dense);
}

void LocalGraph::Reset() {
  query_ = kInvalidNode;
  query_count_ = 0;
  global_to_local_.Reset();
  local_to_global_.clear();
  weighted_degree_.clear();
  hidden_mass_.clear();
  truncated_seen_ = false;
  outside_count_.clear();
  boundary_count_ = 0;
  list_arena_.clear();  // both arenas keep their capacity
  list_offsets_.resize(1);
  arena_used_ = 0;  // rewind the bump pointer
  row_start_.clear();
  row_len_.clear();
  row_cap_.clear();
  row_in_mass_.clear();
  visible_mass_.clear();
  two_step_return_.clear();
  in_loop_mass_.clear();
  dirty_.clear();
  dirty_out_.clear();
  in_dirty_.clear();
  hop_dist_.clear();
}

Status LocalGraph::Init(NodeId query) {
  return Init(std::vector<NodeId>{query});
}

Status LocalGraph::Init(const std::vector<NodeId>& queries) {
  if (query_ != kInvalidNode) {
    return Status::FailedPrecondition(
        "LocalGraph already initialized (call Reset between queries)");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("need at least one query node");
  }
  for (const NodeId q : queries) {
    if (q >= accessor_->NumNodes()) {
      return Status::OutOfRange("query node out of range");
    }
    if (Contains(q)) {
      return Status::InvalidArgument("duplicate query node " +
                                     std::to_string(q));
    }
    ++query_count_;  // before Add so hop distances see the seed as a source
    FLOS_RETURN_IF_ERROR(Add(q));
  }
  query_ = queries.front();
  FLOS_AUDIT_SCOPE { AuditBookkeeping(); }
  return Status::OK();
}

void LocalGraph::AuditBookkeeping() const {
  const uint32_t n = Size();
  FLOS_CHECK_EQ(list_offsets_.size(), size_t{n} + 1,
                "list offsets out of step with the visited set");
  FLOS_CHECK_EQ(list_arena_.size(), size_t{list_offsets_.back()},
                "list arena holds entries past the last list");
  uint32_t boundary = 0;
  for (LocalId i = 0; i < n; ++i) {
    // Ground-truth outside count: re-resolve every stored neighbor's
    // visited status against the index.
    uint32_t outside = 0;
    for (const Neighbor& nb : Neighbors(i)) {
      if (!Contains(nb.id)) ++outside;
    }
    if (hidden_mass_[i] > 0) ++outside;  // the phantom hidden neighbor
    FLOS_CHECK_EQ(outside_count_[i], outside,
                  "maintained outside count diverged from neighbor lists");
    if (outside > 0) ++boundary;

    // Row spine sanity: the slab must lie inside the arena's used prefix.
    FLOS_CHECK_LE(row_len_[i], row_cap_[i], "row length exceeds slab");
    FLOS_CHECK_LE(static_cast<uint64_t>(row_start_[i]) + row_cap_[i],
                  static_cast<uint64_t>(arena_used_),
                  "row slab extends past the arena bump pointer");

    // RowInMass is documented bitwise-equal to summing the row in append
    // order (GrowRow preserves entry order), so compare EXACTLY: any
    // difference means an append bypassed the incremental accumulator.
    const LocalRow row = Row(i);
    double mass = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      FLOS_CHECK(row.idx[e] < n, "row entry references an unvisited node");
      mass += row.weight[e];
    }
    FLOS_CHECK_EQ(RowInMass(i), mass,
                  "maintained row in-mass diverged from the stored row");
  }
  FLOS_CHECK_EQ(BoundaryCount(), boundary,
                "maintained boundary count diverged from ground truth");
}

void LocalGraph::GrowRow(LocalId i, uint32_t min_cap) {
  uint64_t cap = std::max<uint64_t>(kMinSlab, uint64_t{row_cap_[i]} * 2);
  while (cap < min_cap) cap *= 2;
  // Fail closed: a wrapped bump pointer would carve the new slab over
  // live rows.
  FLOS_CHECK_LE(arena_used_ + cap, kMaxArenaEntries,
                "row arena passed 2^32 entries");
  const uint32_t start = arena_used_;
  arena_used_ = static_cast<uint32_t>(arena_used_ + cap);
  if (arena_idx_.size() < arena_used_) {
    arena_idx_.resize(arena_used_);
    arena_weight_.resize(arena_used_);
  }
  const uint32_t old_start = row_start_[i];
  const uint32_t len = row_len_[i];
  // The old slab becomes garbage until the next Reset; doubling bounds the
  // total abandoned space by the live space.
  std::copy_n(arena_idx_.begin() + old_start, len, arena_idx_.begin() + start);
  std::copy_n(arena_weight_.begin() + old_start, len,
              arena_weight_.begin() + start);
  row_start_[i] = start;
  row_cap_[i] = static_cast<uint32_t>(cap);
}

void LocalGraph::RowAppend(LocalId i, LocalId j, double p) {
  FLOS_DCHECK(p >= 0.0, "transition probabilities are non-negative");
  if (row_len_[i] == row_cap_[i]) GrowRow(i, row_len_[i] + 1);
  FLOS_DCHECK(row_len_[i] < row_cap_[i], "GrowRow left the row full");
  const uint32_t at = row_start_[i] + row_len_[i];
  arena_idx_[at] = j;
  arena_weight_[at] = p;
  ++row_len_[i];
  row_in_mass_[i] += p;
}

Status LocalGraph::Add(NodeId global) {
  const auto local = static_cast<LocalId>(local_to_global_.size());
  global_to_local_.Insert(global, local);
  local_to_global_.push_back(global);
  in_dirty_.push_back(true);
  dirty_.push_back(local);

  FLOS_RETURN_IF_ERROR(accessor_->CopyNeighbors(global, &scratch_));
  // The list lands at the list arena tail; scratch_ stays this join's
  // cached working copy.
  const uint64_t list_end = uint64_t{list_offsets_.back()} + scratch_.size();
  FLOS_CHECK_LE(list_end, kMaxArenaEntries,
                "fetched-list arena passed 2^32 entries");
  list_arena_.insert(list_arena_.end(), scratch_.begin(), scratch_.end());
  list_offsets_.push_back(static_cast<uint32_t>(list_end));
  // The degree comes from the accessor, NOT from summing the fetched list:
  // on truncated rows (a ShardAccessor's halo fringe) the fetched sum is
  // short, and normalizing transitions by it would overweight the visible
  // edges (RowInMass -> 1) and silently delete the escaping mass the upper
  // bounds must route to the dummy node. On complete rows the accessor
  // degree IS the fetched sum in the same accumulation order, so
  // whole-graph behavior is unchanged. Hidden mass below the shard map
  // degree sidecar's own round-trip tolerance (ReadShardGraph's 1e-9
  // cross-check) is indistinguishable from serialization noise and snaps
  // to zero rather than leaving the row boundary forever.
  const double wi = accessor_->WeightedDegree(global);
  double visible = 0;
  for (const Neighbor& nb : scratch_) visible += nb.weight;
  double hidden = 0;
  if (!accessor_->CompleteAdjacency(global)) {
    hidden = wi - visible;
    if (!(hidden > 1e-9 * wi)) hidden = 0;
  }
  weighted_degree_.push_back(wi);
  hidden_mass_.push_back(hidden);
  if (hidden > 0) truncated_seen_ = true;
  visible_mass_.push_back(visible);
  two_step_return_.push_back(accessor_->TwoStepReturn(global, scratch_));
  in_loop_mass_.push_back(0.0);

  // New empty row; its first append carves a slab off the arena tail.
  row_start_.push_back(arena_used_);
  row_len_.push_back(0);
  row_cap_.push_back(0);
  row_in_mass_.push_back(0.0);

  // Build this node's within-S row and patch existing rows/boundary counts.
  // Each neighbor's visited status is resolved with ONE index probe; an
  // unvisited neighbor only counts toward the outside count.
  uint32_t outside = 0;
  for (const Neighbor& nb : scratch_) {
    const LocalId j = LocalIndex(nb.id);
    if (j == kInvalidLocal) {
      ++outside;
      continue;
    }
    const double wj = weighted_degree_[j];
    const double p_ij = wi > 0 ? nb.weight / wi : 0.0;
    const double p_ji = wj > 0 ? nb.weight / wj : 0.0;
    if (wi > 0) RowAppend(local, j, p_ij);
    // Reverse direction: j gains an in-S neighbor.
    if (wj > 0) RowAppend(j, local, p_ji);
    // p_ij * p_ji is the two-step loop through this edge seen from either
    // end, and bitwise the term TwoStepReturn added for it to R_local and
    // R_j, so LoopMass subtracts exactly what R holds.
    in_loop_mass_[local] += p_ij * p_ji;
    in_loop_mass_[j] += p_ij * p_ji;
    if (--outside_count_[j] == 0) --boundary_count_;
    if (!in_dirty_[j]) {
      in_dirty_[j] = true;
      dirty_.push_back(j);
    }
  }
  // Phantom outside neighbor for hidden mass: the edges behind it can
  // never be fetched, so no future Add ever decrements it back — the node
  // stays boundary (and the frontier stays clipped) for the whole query.
  if (hidden > 0) ++outside;
  outside_count_.push_back(outside);
  if (outside > 0) ++boundary_count_;

  // Within-S hop distances: initialize from visited neighbors, then relax
  // decreases through existing rows (new edges can create shortcuts).
  // Query (source) nodes are distance 0.
  uint32_t d = local < query_count_ ? 0 : kUnreachable;
  {
    const LocalRow row = Row(local);
    for (uint32_t e = 0; e < row.len; ++e) {
      const uint32_t dj = hop_dist_[row.idx[e]];
      d = std::min(d, dj == kUnreachable ? kUnreachable : dj + 1);
    }
  }
  hop_dist_.push_back(d);
  relax_scratch_.clear();
  relax_scratch_.push_back(local);
  for (size_t head = 0; head < relax_scratch_.size(); ++head) {
    const LocalId u = relax_scratch_[head];
    if (hop_dist_[u] == kUnreachable) continue;
    const LocalRow row = Row(u);
    for (uint32_t e = 0; e < row.len; ++e) {
      const LocalId j = row.idx[e];
      if (hop_dist_[u] + 1 < hop_dist_[j]) {
        hop_dist_[j] = hop_dist_[u] + 1;
        relax_scratch_.push_back(j);
      }
    }
  }
  return Status::OK();
}

uint32_t LocalGraph::UnvisitedHopLowerBound() const {
  uint32_t best = kUnreachable;
  for (LocalId i = 0; i < Size(); ++i) {
    if (outside_count_[i] > 0) best = std::min(best, hop_dist_[i]);
  }
  return best == kUnreachable ? kUnreachable : best + 1;
}

Result<uint32_t> LocalGraph::Expand(LocalId u) {
  if (u >= Size()) {
    return Status::OutOfRange("local id out of range in Expand");
  }
  // Snapshot the unvisited neighbor ids first: Add() grows the list arena,
  // so iterating the list while adding would be unsafe. Accessor neighbor
  // lists are sorted and duplicate-free, and Add(v) adds exactly v, so no
  // re-check is needed in the second loop — one index probe per neighbor.
  expand_scratch_.clear();
  for (const Neighbor& nb : Neighbors(u)) {
    if (LocalIndex(nb.id) == kInvalidLocal) expand_scratch_.push_back(nb.id);
  }
  const size_t joins = expand_scratch_.size();
  for (size_t i = 0; i < std::min(joins, kPrefetchAhead); ++i) {
    accessor_->Prefetch(expand_scratch_[i]);
  }
  for (size_t i = 0; i < joins; ++i) {
    if (i + kPrefetchAhead < joins) {
      accessor_->Prefetch(expand_scratch_[i + kPrefetchAhead]);
    }
    FLOS_RETURN_IF_ERROR(Add(expand_scratch_[i]));
  }
  FLOS_AUDIT_SCOPE {
    if (!expand_scratch_.empty()) AuditBookkeeping();
  }
  return static_cast<uint32_t>(expand_scratch_.size());
}

const std::vector<LocalId>& LocalGraph::TakeDirtyNodes() {
  dirty_out_.swap(dirty_);
  dirty_.clear();
  for (const LocalId i : dirty_out_) in_dirty_[i] = false;
  return dirty_out_;
}

void LocalGraph::SaveSnapshot(LocalGraphSnapshot* out) const {
  FLOS_CHECK(query_ != kInvalidNode, "SaveSnapshot needs an Init'd graph");
  out->query = query_;
  out->query_count = query_count_;
  out->local_to_global = local_to_global_;
  out->weighted_degree = weighted_degree_;
  out->hidden_mass = hidden_mass_;
  out->truncated_seen = truncated_seen_;
  out->outside_count = outside_count_;
  out->boundary_count = boundary_count_;
  out->neighbor_offsets = list_offsets_;
  out->neighbor_list.assign(list_arena_.begin(), list_arena_.end());
  // Only the used arena prefix: slab capacities never extend past the bump
  // pointer (AuditBookkeeping checks exactly this).
  out->arena_idx.assign(arena_idx_.begin(), arena_idx_.begin() + arena_used_);
  out->arena_weight.assign(arena_weight_.begin(),
                           arena_weight_.begin() + arena_used_);
  out->arena_used = arena_used_;
  out->row_start = row_start_;
  out->row_len = row_len_;
  out->row_cap = row_cap_;
  out->row_in_mass = row_in_mass_;
  out->visible_mass = visible_mass_;
  out->two_step_return = two_step_return_;
  out->in_loop_mass = in_loop_mass_;
  out->hop_dist = hop_dist_;
}

void LocalGraph::RestoreSnapshot(const LocalGraphSnapshot& snap) {
  FLOS_CHECK(query_ == kInvalidNode,
             "RestoreSnapshot requires the pre-Init state (call Reset)");
  const uint32_t n = snap.Size();
  query_ = snap.query;
  query_count_ = snap.query_count;
  local_to_global_ = snap.local_to_global;
  weighted_degree_ = snap.weighted_degree;
  hidden_mass_ = snap.hidden_mass;
  truncated_seen_ = snap.truncated_seen;
  outside_count_ = snap.outside_count;
  boundary_count_ = snap.boundary_count;
  list_offsets_ = snap.neighbor_offsets;
  list_arena_.assign(snap.neighbor_list.begin(), snap.neighbor_list.end());
  if (arena_idx_.size() < snap.arena_used) {
    arena_idx_.resize(snap.arena_used);
    arena_weight_.resize(snap.arena_used);
  }
  std::copy_n(snap.arena_idx.begin(), snap.arena_used, arena_idx_.begin());
  std::copy_n(snap.arena_weight.begin(), snap.arena_used,
              arena_weight_.begin());
  arena_used_ = snap.arena_used;
  row_start_ = snap.row_start;
  row_len_ = snap.row_len;
  row_cap_ = snap.row_cap;
  row_in_mass_ = snap.row_in_mass;
  visible_mass_ = snap.visible_mass;
  two_step_return_ = snap.two_step_return;
  in_loop_mass_ = snap.in_loop_mass;
  hop_dist_ = snap.hop_dist;
  // Rebuild the visited index: visit order reproduces the dense local ids.
  for (LocalId i = 0; i < n; ++i) {
    global_to_local_.Insert(local_to_global_[i], i);
  }
  // Every node dirty: the consuming bound engine recomputes all boundary
  // coefficients on its next refresh instead of trusting any prior state.
  dirty_.resize(n);
  for (LocalId i = 0; i < n; ++i) dirty_[i] = i;
  dirty_out_.clear();
  in_dirty_.assign(n, true);
  FLOS_AUDIT_SCOPE { AuditBookkeeping(); }
}

}  // namespace flos
