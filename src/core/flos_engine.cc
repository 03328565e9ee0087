#include "core/flos_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "core/measure_traits.h"
#include "measures/transforms.h"
#include "util/check.h"

namespace flos {

namespace {

// Tolerance of the final lower-system solve once the component is
// exhausted: tight enough that collapsing upper = lower is exact to
// rounding.
constexpr double kFinalTolerance = 1e-12;

constexpr double kFar = std::numeric_limits<double>::infinity();

using FrontierEntry = std::pair<double, LocalId>;

// The expansion order is total: priority descending, then local id (visit
// order) ascending. Equal priorities are common on symmetric
// neighborhoods; the tie-break keeps the schedule, and so every visit
// count, independent of how the order is computed.
bool ExpandsBefore(const FrontierEntry& a, const FrontierEntry& b) {
  return a.first != b.first ? a.first > b.first : a.second < b.second;
}

// Fills `batch`, best first, with the `size` entries of `frontier` that
// expand first among those ordered strictly after `after` (all entries when
// `after` is null). One pass over the frontier through a heap of at most
// `size` entries whose top is the latest-expanding entry kept so far.
void SelectBatch(const std::vector<FrontierEntry>& frontier,
                 const FrontierEntry* after, size_t size,
                 std::vector<FrontierEntry>* batch) {
  batch->clear();
  for (const FrontierEntry& e : frontier) {
    if (after != nullptr && !ExpandsBefore(*after, e)) continue;
    if (batch->size() < size) {
      batch->push_back(e);
      std::push_heap(batch->begin(), batch->end(), ExpandsBefore);
      continue;
    }
    if (!ExpandsBefore(e, batch->front())) continue;
    // e replaces the top; sift it down past every child that expands
    // later (one pass, where pop_heap + push_heap would take two).
    FrontierEntry* const heap = batch->data();
    size_t i = 0;
    for (size_t child = 1; child < size; child = 2 * i + 1) {
      if (child + 1 < size && ExpandsBefore(heap[child], heap[child + 1])) {
        ++child;
      }
      if (!ExpandsBefore(e, heap[child])) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = e;
  }
  std::sort_heap(batch->begin(), batch->end(), ExpandsBefore);
}

}  // namespace

// One call's fixed inputs plus the outer loop's running state.
struct FlosEngine::Query {
  // Anytime deadline (the serving layer's graceful-degradation hook), read
  // by the expansion loop, the inner solves and the outer loop. Bounds are
  // certified at every instant, so stopping anywhere is valid, uncertified.
  bool Expired() const {
    return has_deadline &&
           std::chrono::steady_clock::now() >= options.deadline;
  }
  bool AtVisitCap(uint64_t visited) const {
    return options.max_visited > 0 && visited >= options.max_visited;
  }
  // Adds the time since the last lap to a FlosStats::*_ns timer; called a
  // few times per outer iteration, never inside the hot loops.
  void Lap(uint64_t* acc) {
    const auto now = std::chrono::steady_clock::now();
    *acc += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - phase_mark)
            .count());
    phase_mark = now;
  }

  const FlosOptions& options;
  int k_eff;  // k, clamped to what a predicate can match
  const BoundTraits traits =
      BoundTraitsFor(options.measure, options.c, options.tht_length);
  const bool filtered = !options.predicate.empty();
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point::max();
  size_t last_expanded = 0;  // expansions in the previous outer iteration
  std::chrono::steady_clock::time_point phase_mark = {};
};

FlosEngine::FlosEngine(GraphAccessor* accessor)
    : accessor_(accessor),
      local_(accessor),
      bounds_(&local_, UnifiedBoundOptions{}) {}

double FlosEngine::MaxUnknownDegree() {
  const auto& order = accessor_->DegreeOrder();
  while (degree_cursor_ < order.size() &&
         (local_.Contains(order[degree_cursor_]) ||
          bounds_.IsOutsideAdjacent(order[degree_cursor_]))) {
    ++degree_cursor_;
  }
  // An unknown node may also live outside the accessor entirely (sharded
  // serving: beyond the replicated halo), so the bound must cover both the
  // best in-accessor candidate and the off-accessor maximum.
  const double external = accessor_->ExternalDegreeBound();
  if (degree_cursor_ >= order.size()) return external;
  return std::max(external,
                  accessor_->WeightedDegree(order[degree_cursor_]));
}

Result<FlosResult> FlosEngine::TopK(NodeId query, int k,
                                    const FlosOptions& options) {
  return TopKSet({query}, k, options);
}

Status FlosEngine::Validate(const std::vector<NodeId>& queries, int k,
                            const FlosOptions& options) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(options.c > 0) || !(options.c < 1)) {
    return Status::InvalidArgument("c must be in (0, 1)");
  }
  if (options.measure == Measure::kTht && options.tht_length < 1) {
    return Status::InvalidArgument("THT length must be >= 1");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("need at least one query node");
  }
  if (options.sweep_threads != 1) {
    return Status::InvalidArgument(
        "sweep_threads is retired: bound sweeps are serial, so it must be 1");
  }
  if (queries.size() > 1 && (options.measure == Measure::kEi ||
                             options.measure == Measure::kRwr)) {
    return Status::InvalidArgument(
        "multi-source queries support the absorbing-set measures "
        "(PHP, DHT, THT); EI/RWR are defined per single source (Theorem 6)");
  }
  for (const NodeId q : queries) {
    if (q >= accessor_->NumNodes()) {
      return Status::OutOfRange("query node out of range");
    }
  }
  if (options.predicate.empty()) return Status::OK();
  if (options.labels == nullptr) {
    return Status::InvalidArgument(
        "filtered query (non-none predicate) needs FlosOptions::labels");
  }
  if (options.labels->NumNodes() != accessor_->NumNodes()) {
    return Status::InvalidArgument(
        "label store covers " + std::to_string(options.labels->NumNodes()) +
        " nodes but the accessor has " +
        std::to_string(accessor_->NumNodes()));
  }
  return Status::OK();
}

// The one place a measure's rank direction enters: RWR ranks by w_i * value
// (Section 5.6), THT by value minimized (negated, so larger is closer).
FlosEngine::Candidate FlosEngine::Rank(const Query& q, LocalId i) const {
  const double lo = bounds_.lower(i);
  const double hi = bounds_.upper(i);
  if (q.traits.rank_mode == RankMode::kMinimizeValue) return {i, -hi, -lo};
  if (q.traits.rank_mode == RankMode::kValue) return {i, lo, hi};
  const double w = local_.WeightedDegree(i);
  return {i, w * lo, w * hi};
}

// Filtered queries: per-local match flags, filled incrementally (local ids
// are append-only; a restored snapshot's nodes are flagged on the first
// refresh), so each visited node is evaluated once, outside inner loops.
void FlosEngine::RefreshMatches(const Query& q) {
  if (!q.filtered) return;
  for (LocalId i = static_cast<LocalId>(match_.size()); i < local_.Size();
       ++i) {
    const auto labels = q.options.labels->Labels(local_.GlobalId(i));
    match_.push_back(q.options.predicate.Matches(labels) ? 1 : 0);
  }
}

bool FlosEngine::IsMatch(const Query& q, LocalId i) const {
  return !q.filtered || match_[i] != 0;
}

// Ranks the boundary best-first (Algorithm 3; at t=1 the only boundary node
// is the query) and expands the next batch of it. Nodes past
// expandable_limit stay boundary forever: their bounds keep competing in
// Certify, but expanding them is unsound on a shard (their adjacency may be
// halo-truncated).
Result<FlosEngine::Step> FlosEngine::ExpandBatch(Query* q, FlosStats* stats) {
  const FlosOptions& options = q->options;
  frontier_.clear();
  bool clipped = false;
  for (LocalId i = 0; i < local_.Size(); ++i) {
    if (!local_.IsBoundary(i)) continue;
    if (static_cast<uint64_t>(local_.GlobalId(i)) >=
        options.expandable_limit) {
      clipped = true;
      continue;
    }
    frontier_.push_back({Rank(*q, i).mid(), i});
  }
  if (frontier_.empty()) return clipped ? Step::kClipped : Step::kExhausted;
  // Only a handful of the boundary gets expanded per outer iteration, so
  // rank only the next batch of it (ExpandsBefore order), sized from the
  // previous iteration's expansion count. An exhausted full batch is
  // followed by the next, four times larger, from the entries after its
  // last one, so the expansion sequence is the full sort's prefix.
  size_t batch_size = std::max<size_t>(16, 2 * q->last_expanded);
  SelectBatch(frontier_, nullptr, batch_size, &batch_);
  // Adaptive mode targets ~12.5% growth of |S| per bound update, so the
  // number of O(edges(S)) updates stays logarithmic in the visited count
  // while overshoot past the certification point stays small.
  const uint64_t grow_target =
      options.expansion_batch > 0
          ? 0
          : local_.Size() + std::max<uint64_t>(1, local_.Size() / 8);
  bounds_.CaptureDummyFromBoundary();  // r_d from the previous delta-S
  Step step = Step::kExpanded;
  size_t expanded = 0;
  for (size_t next = 0; next < batch_.size();) {
    FLOS_RETURN_IF_ERROR(local_.Expand(batch_[next++].second).status());
    ++stats->expansions;
    ++expanded;
    if (options.expansion_batch > 0 ? expanded >= options.expansion_batch
                                    : local_.Size() >= grow_target) {
      break;
    }
    if (q->AtVisitCap(local_.Size())) break;
    if (q->Expired()) {
      step = Step::kExpired;
      break;
    }
    // A short batch held every remaining entry; a full one may not.
    if (next == batch_.size() && batch_.size() == batch_size) {
      const FrontierEntry last = batch_.back();
      batch_size *= 4;
      SelectBatch(frontier_, &last, batch_size, &batch_);
      next = 0;
    }
  }
  q->last_expanded = expanded;
  return step;
}

// Termination check (Algorithm 6 + the RWR extension); fills `selected_`
// with the top-k interior candidates once there are k. Filtered queries
// rank MATCHING interior nodes only: the rest are transit-only, while the
// boundary competes regardless, as the certified proxy for everything
// unvisited (DESIGN.md, "Filtered top-k"). Competitors are tried in order:
// interior, boundary, then (only if both are cleared) RWR's unvisited bound.
FlosEngine::Certificate FlosEngine::Certify(const Query& q) {
  RefreshMatches(q);
  interior_.clear();
  for (LocalId i = 0; i < local_.Size(); ++i) {
    if (local_.IsQueryLocal(i) || local_.IsBoundary(i)) continue;
    if (IsMatch(q, i)) interior_.push_back(Rank(q, i));
  }
  Certificate cert;
  const size_t k = static_cast<size_t>(q.k_eff);
  if (interior_.size() < k) return cert;
  std::nth_element(
      interior_.begin(), interior_.begin() + (k - 1), interior_.end(),
      [](const Candidate& a, const Candidate& b) { return a.sure > b.sure; });
  selected_.assign(interior_.begin(), interior_.begin() + k);
  cert.threshold = interior_[k - 1].sure;  // the worst sure of the top-k
  cert.kth = interior_[k - 1].local;
  cert.rival_hope = -kFar;
  const auto challenge = [&cert](LocalId i, double hope, BlockerKind kind) {
    if (!(hope > cert.rival_hope)) return;
    cert.rival = i;
    cert.rival_hope = hope;
    cert.kind = kind;
  };
  for (size_t j = k; j < interior_.size(); ++j) {
    challenge(interior_[j].local, interior_[j].hope, BlockerKind::kInterior);
  }
  for (LocalId i = 0; i < local_.Size(); ++i) {
    if (local_.IsQueryLocal(i) || !local_.IsBoundary(i)) continue;
    challenge(i, Rank(q, i).hope, BlockerKind::kBoundary);
  }
  if (cert.kind == BlockerKind::kBoundary &&
      static_cast<uint64_t>(local_.GlobalId(cert.rival)) >=
          q.options.expandable_limit) {
    cert.kind = BlockerKind::kFringe;
  }
  if (cert.threshold >= cert.rival_hope &&
      q.traits.rank_mode == RankMode::kDegreeWeighted) {
    challenge(kInvalidLocal, UnvisitedBound(q), BlockerKind::kUnvisited);
  }
  cert.gap = cert.threshold - cert.rival_hope;
  cert.certified = cert.threshold >= cert.rival_hope;
  FLOS_AUDIT_SCOPE {
    if (cert.certified) Audit(q, cert);
  }
  return cert;
}

// Certified-termination ground truth, recomputed without Certify's
// bookkeeping: the worst `sure` of the selected top-k must clear the `hope`
// of EVERY other competing visited node, and must agree with the verdict.
// Same fp values as Certify, so the comparisons are exact.
void FlosEngine::Audit(const Query& q, const Certificate& cert) const {
  double threshold = kFar;
  for (const Candidate& c : selected_) threshold = std::min(threshold, c.sure);
  FLOS_CHECK_EQ(threshold, cert.threshold,
                "verdict threshold is not the k-th guaranteed rank");
  FLOS_CHECK(Rank(q, cert.kth).sure == threshold && cert.gap >= 0,
             "verdict k-th node or gap disagrees with its threshold");
  double best = -kFar;
  for (LocalId i = 0; i < local_.Size(); ++i) {
    if (local_.IsQueryLocal(i)) continue;
    // Non-matching interior nodes are transit-only: not candidates, and
    // (unlike the boundary) not proxies for anything unvisited.
    if (!local_.IsBoundary(i) && !IsMatch(q, i)) continue;
    const auto is_i = [i](const Candidate& c) { return c.local == i; };
    if (std::any_of(selected_.begin(), selected_.end(), is_i)) continue;
    const double hope = Rank(q, i).hope;
    FLOS_CHECK_GE(threshold, hope,
                  "top-k termination fired before the k-th guaranteed rank "
                  "cleared a competing optimistic rank");
    best = std::max(best, hope);
  }
  FLOS_CHECK(cert.kind == BlockerKind::kUnvisited ? best <= cert.rival_hope
                                                  : best == cert.rival_hope,
             "verdict rival is not the strongest visited competitor");
}

// Bound on w_v PHP(v) over every unvisited v (-inf if none), refined beyond
// Section 5.6's w(unvisited) * max boundary bound. Frontier-adjacent nodes
// (delta-S-bar) get per-node certified uppers from the boundary's bounds and
// their probed degrees; every deeper node is bounded by alpha * the frontier
// maximum (its neighbors are all unvisited), with the unknown-degree
// maximum from the global degree order:
//   w_v PHP(v) <= max( max_{v in dSbar} w_v r-bar_v,
//                      maxdeg(unknown) * alpha * max_{dSbar} r-bar_v )
double FlosEngine::UnvisitedBound(const Query& q) {
  const double alpha = 1.0 - q.options.c;
  const auto out = bounds_.ComputeOutsideUppers();
  // Truncated rows hide edges that reach unvisited nodes behind NO
  // enumerated frontier node, so the frontier-relative bound has a hole
  // there; those nodes are instead covered by the engine's all-unvisited
  // dummy (its capture argument never enumerates).
  const bool truncated = local_.HasTruncatedRows();
  if (!out.any && !truncated) return -kFar;
  const double w_unknown = MaxUnknownDegree();
  double bound = 0;
  if (out.any) {
    bound = std::max(out.max_degree_weighted,
                     w_unknown * alpha * out.max_value);
  }
  if (truncated) {
    bound = std::max(bound, w_unknown * bounds_.unvisited_value_bound());
  }
  return bound;
}

// Rewinds the workspace for this query; an error return leaves it ready to
// be rewound again, so failed calls don't poison the engine. On a
// warm-subgraph hit the expansion state is restored from the snapshot
// instead of re-Init'd, and the bound engine resumes from the cached
// converged bounds (sound: the dummies are non-increasing and the bounds
// are certified facts of (seed, family, alpha, epoch)).
Status FlosEngine::Rewind(const Query& q, const std::vector<NodeId>& queries,
                          const SubgraphSnapshot* warm) {
  local_.Reset();
  if (warm != nullptr) {
    local_.RestoreSnapshot(warm->local);
  } else {
    FLOS_RETURN_IF_ERROR(local_.Init(queries));
  }
  bounds_.Reset({.traits = q.traits,
                 .tolerance = q.options.tolerance,
                 .self_loop_tightening = q.options.self_loop_tightening,
                 .deadline = q.options.deadline});
  if (warm != nullptr) {
    bounds_.RestoreBounds(warm->bounds.data(), warm->bounds.size() / 2,
                          warm->dummy_mesh, warm->dummy_tight);
  }
  degree_cursor_ = 0;
  match_.clear();
  selected_.clear();
  return Status::OK();
}

// The k results, closest first, in the measure's units. A certified search
// that did not exhaust its component answers with the certified top-k;
// otherwise every visited matching non-query node is ranked.
void FlosEngine::Assemble(const Query& q, int k, bool certified,
                          FlosResult* result) {
  const FlosOptions& options = q.options;
  pool_.clear();
  RefreshMatches(q);  // deadline/cutoff exits may skip the last check
  if (certified && !result->stats.exhausted_component && !selected_.empty()) {
    pool_ = selected_;
  } else {
    for (LocalId i = 0; i < local_.Size(); ++i) {
      if (local_.IsQueryLocal(i) || !IsMatch(q, i)) continue;
      pool_.push_back(Rank(q, i));
    }
  }
  std::sort(pool_.begin(), pool_.end(),
            [this](const Candidate& a, const Candidate& b) {
              if (a.mid() != b.mid()) return a.mid() > b.mid();
              return local_.GlobalId(a.local) < local_.GlobalId(b.local);
            });
  if (pool_.size() > static_cast<size_t>(k)) pool_.resize(k);

  // For EI and RWR the scale K = c / (w_q (1 - (1-c) sum_j p_qj PHP(j)))
  // (Theorem 6) is increasing in each PHP(j), so plugging the PHP bound
  // endpoints of q's neighbors (all visited after the first expansion)
  // gives a rigorous interval [scale_lo, scale_hi] enclosing the true K.
  double scale_lo = 1.0;
  double scale_hi = 1.0;
  const bool scaled =
      options.measure == Measure::kEi || options.measure == Measure::kRwr;
  const double wq = scaled ? local_.WeightedDegree(0) : 0;  // single source
  if (wq > 0) {
    double sigma_lo = 0;
    double sigma_hi = 0;
    for (const Neighbor& nb : local_.Neighbors(0)) {
      // q's neighbors all join S at its first expansion; belt-and-braces.
      const LocalId j = local_.LocalIndex(nb.id);
      sigma_lo += nb.weight / wq * (j == kInvalidLocal ? 0 : bounds_.lower(j));
      sigma_hi += nb.weight / wq * (j == kInvalidLocal ? 0 : bounds_.upper(j));
    }
    const double denom_lo = wq * (1.0 - (1.0 - options.c) * sigma_lo);
    const double denom_hi = wq * (1.0 - (1.0 - options.c) * sigma_hi);
    if (denom_lo > 0) scale_lo = options.c / denom_lo;
    scale_hi = denom_hi > 0 ? options.c / denom_hi
                            : options.c / (wq * options.c);  // <= c/(wq c)
  }

  result->topk.reserve(pool_.size());
  for (const Candidate& c : pool_) {
    ScoredNode out;
    out.node = local_.GlobalId(c.local);
    const double lo = bounds_.lower(c.local);
    const double hi = bounds_.upper(c.local);
    // Unit factors are exact: PHP and THT keep their bounds, EI scales.
    const double w = options.measure == Measure::kRwr
                         ? local_.WeightedDegree(c.local)
                         : 1.0;
    out.lower = scale_lo * w * lo;
    out.upper = scale_hi * w * hi;
    if (options.measure == Measure::kDht) {  // decreasing in PHP: swap
      out.lower = DhtFromPhp(hi, options.c);
      out.upper = DhtFromPhp(lo, options.c);
    }
    out.score = 0.5 * (out.lower + out.upper);
    result->topk.push_back(out);
  }
}

Result<FlosResult> FlosEngine::TopKSet(const std::vector<NodeId>& queries,
                                       int k, const FlosOptions& options) {
  FLOS_RETURN_IF_ERROR(Validate(queries, k, options));
  Query q{options, k};

  // A certified answer is exact, so an unchanged-epoch repeat query needs
  // no search at all. Multi-source queries bypass the cache (the key would
  // need the whole set; set queries are rare in serving).
  QueryCache::Key cache_key;
  const bool cacheable = query_cache_ != nullptr && queries.size() == 1;
  if (cacheable) {
    cache_key = {queries[0],         options.measure,    k,
                 options.c,          options.tht_length, accessor_->Epoch(),
                 options.predicate.Fingerprint()};
    FlosResult cached;
    if (query_cache_->Lookup(cache_key, &cached)) return cached;
  }

  // Filtered early exit: the per-label counts bound how many nodes can
  // match. Zero certifies the empty top-k; fewer than k makes Certify
  // target the clamped k_eff, or a selective predicate could never certify.
  if (q.filtered) {
    const uint64_t max_matches =
        options.predicate.MaxMatches(*options.labels);
    if (max_matches == 0) {
      FlosResult empty;
      empty.stats.exact = true;
      if (cacheable) query_cache_->Insert(cache_key, empty);
      return empty;
    }
    q.k_eff = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(k), max_matches));
  }

  // Warm-subgraph tier (core/subgraph_cache.h), after a result-cache miss,
  // for what a snapshot can soundly represent: one seed (the key), no
  // max_visited cutoff, no shard expandable_limit (a snapshot taken under
  // clipping could embed a frontier this configuration may not have).
  const bool subgraph_eligible =
      subgraph_cache_ != nullptr && queries.size() == 1 &&
      options.expandable_limit == UINT64_MAX && options.max_visited == 0;
  SubgraphCache::Key subgraph_key;
  std::shared_ptr<const SubgraphSnapshot> warm;
  if (subgraph_eligible) {
    subgraph_key =
        SubgraphCache::MakeKey(queries[0], q.traits, accessor_->Epoch());
    warm = subgraph_cache_->Lookup(subgraph_key);
  }
  const bool warm_hit = warm != nullptr;

  FLOS_RETURN_IF_ERROR(Rewind(q, queries, warm.get()));

  FlosResult result;
  FlosStats& stats = result.stats;
  stats.subgraph_hit = warm_hit;
  const auto certify = [&]() {
    const Certificate cert = Certify(q);
    if (!cert.certified) {
      ++stats.blocked_checks[static_cast<size_t>(cert.kind)];
    }
    return cert.certified;
  };

  // Algorithm 2: expand, update the bounds, certify. A warm-subgraph hit
  // restored a state that certified once before, so for a k it can already
  // prove the loop never runs: check first.
  bool certified = false;
  bool expired = false;
  q.phase_mark = std::chrono::steady_clock::now();
  if (warm_hit) {
    q.Lap(&stats.expand_ns);  // restore cost books as expansion work
    certified = certify();
    q.Lap(&stats.select_ns);
  }
  while (!certified) {
    FLOS_ASSIGN_OR_RETURN(const Step step, ExpandBatch(&q, &stats));
    if (step == Step::kClipped) {
      // Every remaining frontier node lies beyond the halo and the last
      // check failed: stop uncertified; the bounds remain rigorous.
      stats.frontier_clipped = true;
      break;
    }
    if (step == Step::kExhausted) {
      // Component exhausted: finish with a tight solve. A deadline that
      // cuts it short leaves certified but inexact bounds: uncertified.
      q.Lap(&stats.expand_ns);
      stats.inner_iterations += bounds_.FinalizeExhausted(kFinalTolerance);
      q.Lap(&stats.solve_ns);
      expired = bounds_.deadline_hit();
      stats.exhausted_component = certified = !expired;
      break;
    }
    expired = step == Step::kExpired;
    // Even past the deadline the new nodes need their (trivially valid)
    // bound slots; the deadline-aware update exits within a few sweeps.
    bounds_.OnGrowth();
    q.Lap(&stats.expand_ns);
    stats.inner_iterations += bounds_.UpdateBounds();
    q.Lap(&stats.solve_ns);
    certified = !expired && certify();
    q.Lap(&stats.select_ns);
    if (certified || q.AtVisitCap(local_.Size())) break;
    if (expired || q.Expired()) {
      expired = true;
      break;
    }
  }
  stats.visited_nodes = local_.Size();
  stats.exact = certified;
  stats.deadline_expired = expired;
  // A deadline-expired or halo-clipped answer stopped BECAUSE it could not
  // certify, so it must never claim exactness; the serving layer relies on it.
  FLOS_DCHECK(!(stats.deadline_expired && stats.exact),
              "deadline-expired query reported certified=true");
  FLOS_DCHECK(!(stats.frontier_clipped && stats.exact),
              "halo-clipped query reported certified=true");
  Assemble(q, k, certified, &result);
  q.Lap(&stats.select_ns);

  // Deposit the expanded state for future warm starts: only certified runs
  // (their bounds are reusable facts), only past the snapshot resumed from
  // (an instant warm certification would only churn the LRU), and only for
  // a key the tier admits, so a one-off seed costs no copy of its state.
  if (subgraph_eligible && stats.exact &&
      (!warm_hit || stats.expansions > 0 || stats.inner_iterations > 0) &&
      subgraph_cache_->Admit(subgraph_key)) {
    auto snap = std::make_shared<SubgraphSnapshot>();
    local_.SaveSnapshot(&snap->local);
    bounds_.SaveBounds(&snap->bounds);
    snap->dummy_mesh = bounds_.dummy_value();
    snap->dummy_tight = bounds_.tight_dummy_value();
    subgraph_cache_->Insert(subgraph_key, std::move(snap));
    stats.subgraph_deposited = true;
  }
  if (cacheable && stats.exact) query_cache_->Insert(cache_key, result);
  return result;
}

}  // namespace flos
