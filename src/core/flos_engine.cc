#include "core/flos_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/measure_traits.h"
#include "util/check.h"

namespace flos {

namespace {

// Tolerance of the final lower-system solve once the component is
// exhausted: tight enough that collapsing upper = lower is exact to
// rounding.
constexpr double kFinalTolerance = 1e-12;

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

Result<FlosResult> FlosEngine::TopKSet(const std::vector<NodeId>& queries,
                                       int k, const FlosOptions& options) {
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
  const bool filtered = !options.predicate.empty();
  if (filtered) {
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
  }

  // A certified answer is exact, so an unchanged-epoch repeat query needs
  // no search at all. Multi-source queries bypass the cache (the key would
  // need the whole set; set queries are rare in serving).
  QueryCache::Key cache_key;
  const bool cacheable = query_cache_ != nullptr && queries.size() == 1;
  if (cacheable) {
    cache_key = {queries[0],          options.measure,
                 k,                   options.c,
                 options.tht_length,  accessor_->Epoch(),
                 options.predicate.Fingerprint()};
    FlosResult cached;
    if (query_cache_->Lookup(cache_key, &cached)) return cached;
  }

  // Filtered early exit: the per-label counts bound how many nodes can
  // match graph-wide. Zero means the empty top-k is already certified
  // (nothing to search); fewer than k means k itself is unreachable, so
  // the termination test targets the clamped k_eff instead — otherwise a
  // selective predicate could never certify and every query would expand
  // the whole component.
  int k_eff = k;
  if (filtered) {
    const uint64_t max_matches =
        options.predicate.MaxMatches(*options.labels);
    if (max_matches == 0) {
      FlosResult empty;
      empty.stats.exact = true;
      if (cacheable) query_cache_->Insert(cache_key, empty);
      return empty;
    }
    k_eff = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(k), max_matches));
  }

  const BoundTraits traits =
      BoundTraitsFor(options.measure, options.c, options.tht_length);
  const RankMode mode = traits.rank_mode;
  const bool minimize = mode == RankMode::kMinimizeValue;

  // Warm-subgraph tier (core/subgraph_cache.h), consulted only after a
  // result-cache miss. Eligibility mirrors what a snapshot can soundly
  // represent: single-source (the key is one seed), no best-effort
  // max_visited cutoff, and no shard expandable_limit (a snapshot taken
  // under clipping could embed a frontier this configuration may not
  // have).
  const bool subgraph_eligible =
      subgraph_cache_ != nullptr && queries.size() == 1 &&
      options.expandable_limit == UINT64_MAX && options.max_visited == 0;
  SubgraphCache::Key subgraph_key;
  std::shared_ptr<const SubgraphSnapshot> warm;
  if (subgraph_eligible) {
    subgraph_key =
        SubgraphCache::MakeKey(queries[0], traits, accessor_->Epoch());
    warm = subgraph_cache_->Lookup(subgraph_key);
  }
  const bool warm_hit = warm != nullptr;

  // Rewind the workspace for this query; an error return leaves it ready
  // to be rewound again, so failed calls don't poison the engine. On a
  // warm-subgraph hit the expansion state is restored from the snapshot
  // instead of re-Init'd, and the bound engine resumes from the cached
  // converged bounds (sound: the dummies are non-increasing and the
  // bounds are certified facts of (seed, family, alpha, epoch)).
  local_.Reset();
  if (warm_hit) {
    local_.RestoreSnapshot(warm->local);
  } else {
    FLOS_RETURN_IF_ERROR(local_.Init(queries));
  }
  {
    UnifiedBoundOptions ub;
    ub.traits = traits;
    ub.tolerance = options.tolerance;
    ub.self_loop_tightening = options.self_loop_tightening;
    ub.deadline = options.deadline;
    bounds_.Reset(ub);
  }
  if (warm_hit) {
    bounds_.RestoreBounds(warm->bounds.data(), warm->bounds.size() / 2,
                          warm->dummy_mesh, warm->dummy_tight);
  }
  degree_cursor_ = 0;

  // Filtered queries: per-local match flags, filled incrementally (local
  // ids are append-only within a query, and a restored snapshot's nodes
  // are flagged on the first refresh). One predicate evaluation per
  // visited node per query, outside every inner loop.
  match_.clear();
  const auto refresh_matches = [&]() {
    if (!filtered) return;
    for (LocalId i = static_cast<LocalId>(match_.size());
         i < local_.Size(); ++i) {
      match_.push_back(options.predicate.Matches(
                           options.labels->Labels(local_.GlobalId(i)))
                           ? 1
                           : 0);
    }
  };
  const auto is_match = [&](LocalId i) { return !filtered || match_[i] != 0; };

  // Anytime deadline (the serving layer's graceful-degradation hook). The
  // check is threaded through every long-running stretch: the expansion
  // loop, the inner solves (via the bound-engine options above), and the
  // outer iteration. Bounds are certified at every instant, so stopping
  // anywhere yields a valid interval answer — just an uncertified one.
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point::max();
  const auto deadline_passed = [&]() {
    return has_deadline &&
           std::chrono::steady_clock::now() >= options.deadline;
  };

  FlosResult result;
  FlosStats& stats = result.stats;
  stats.subgraph_hit = warm_hit;

  // Coarse per-phase timers (FlosStats::{expand,solve,select}_ns): a
  // handful of clock reads per OUTER iteration, so the inner hot loops
  // stay free of timing code.
  auto phase_mark = std::chrono::steady_clock::now();
  const auto phase_lap = [&phase_mark](uint64_t* acc) {
    const auto now = std::chrono::steady_clock::now();
    *acc += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - phase_mark)
            .count());
    phase_mark = now;
  };

  // Rank value of node i given one of its bounds.
  const auto rank_of = [&](LocalId i, double value) {
    return mode == RankMode::kDegreeWeighted
               ? local_.WeightedDegree(i) * value
               : value;
  };

  selected_.clear();  // current certified-or-not top-k

  // Termination check (Algorithm 6 + the RWR extension). Fills `selected_`
  // with the current top-k interior candidates either way. Filtered
  // queries rank MATCHING interior nodes only; non-matching visited nodes
  // are transit-only (they conduct mass through the sweeps but never
  // compete), and the boundary keeps competing regardless of match status
  // because its optimistic values are the certified proxy for everything
  // unvisited — including unvisited matching nodes (DESIGN.md, "Filtered
  // top-k").
  const auto check_termination = [&]() -> bool {
    refresh_matches();
    interior_.clear();
    for (LocalId i = 0; i < local_.Size(); ++i) {
      if (local_.IsQueryLocal(i) || local_.IsBoundary(i)) continue;
      if (!is_match(i)) continue;
      interior_.push_back(
          {i, rank_of(i, bounds_.lower(i)), rank_of(i, bounds_.upper(i))});
    }
    if (interior_.size() < static_cast<size_t>(k_eff)) return false;
    // For maximize modes, pick k largest guaranteed (lower) rank values;
    // for minimize (THT), pick k smallest guaranteed (upper) values.
    const auto better = [&](const Candidate& a, const Candidate& b) {
      return minimize ? a.rank_upper < b.rank_upper
                      : a.rank_lower > b.rank_lower;
    };
    std::nth_element(interior_.begin(), interior_.begin() + (k_eff - 1),
                     interior_.end(), better);
    selected_.assign(interior_.begin(), interior_.begin() + k_eff);
    // Threshold: worst guaranteed value inside K.
    double threshold = minimize ? -1e300 : 1e300;
    for (const Candidate& c : selected_) {
      threshold = minimize ? std::max(threshold, c.rank_upper)
                           : std::min(threshold, c.rank_lower);
    }
    // Opponents: every other candidate's optimistic value, plus the whole
    // boundary's (filtered or not — see the lambda comment above).
    double best_other = minimize ? 1e300 : -1e300;
    for (size_t i = static_cast<size_t>(k_eff); i < interior_.size(); ++i) {
      best_other = minimize ? std::min(best_other, interior_[i].rank_lower)
                            : std::max(best_other, interior_[i].rank_upper);
    }
    for (LocalId i = 0; i < local_.Size(); ++i) {
      if (local_.IsQueryLocal(i) || !local_.IsBoundary(i)) continue;
      const double opt = minimize ? rank_of(i, bounds_.lower(i))
                                  : rank_of(i, bounds_.upper(i));
      best_other = minimize ? std::min(best_other, opt)
                            : std::max(best_other, opt);
    }
    bool ok = minimize ? threshold <= best_other : threshold >= best_other;
    if (!ok) return false;
    if (mode == RankMode::kDegreeWeighted) {
      // Unvisited nodes, refined beyond Section 5.6's w(unvisited) * max
      // boundary bound. Frontier-adjacent nodes (delta-S-bar) get
      // per-node certified uppers from the boundary's bounds and their
      // probed degrees; every deeper node is bounded by alpha * the
      // frontier maximum (its neighbors are all unvisited), with the
      // unknown-degree maximum from the global degree order:
      //
      //   w_v PHP(v) <= max( max_{v in dSbar} w_v r-bar_v,
      //                      maxdeg(unknown) * alpha * max_{dSbar} r-bar_v )
      const double alpha = 1.0 - options.c;
      const auto out = bounds_.ComputeOutsideUppers();
      // Truncated rows hide edges that reach unvisited nodes behind NO
      // enumerated frontier node, so the frontier-relative bound has a
      // hole there; those nodes are instead covered by the engine's
      // all-unvisited dummy (its capture argument never enumerates).
      const bool truncated = local_.HasTruncatedRows();
      if (out.any || truncated) {
        const double w_unknown = MaxUnknownDegree();
        double unvisited_bound = 0;
        if (out.any) {
          unvisited_bound = std::max(out.max_degree_weighted,
                                     w_unknown * alpha * out.max_value);
        }
        if (truncated) {
          unvisited_bound =
              std::max(unvisited_bound,
                       w_unknown * bounds_.unvisited_value_bound());
        }
        if (threshold < unvisited_bound) return false;
      }
    }
    FLOS_AUDIT_SCOPE {
      // Certified-termination ground truth, recomputed without the
      // nth_element bookkeeping above: the worst guaranteed rank inside
      // the selected top-k must genuinely clear the optimistic rank of
      // EVERY other visited non-query node. Same fp values as the fast
      // path, so the comparisons are exact.
      double audit_threshold = minimize ? -1e300 : 1e300;
      for (const Candidate& c : selected_) {
        audit_threshold = minimize ? std::max(audit_threshold, c.rank_upper)
                                   : std::min(audit_threshold, c.rank_lower);
      }
      const auto is_selected = [&](LocalId i) {
        for (const Candidate& c : selected_) {
          if (c.local == i) return true;
        }
        return false;
      };
      for (LocalId i = 0; i < local_.Size(); ++i) {
        if (local_.IsQueryLocal(i) || is_selected(i)) continue;
        // Non-matching interior nodes are transit-only: not candidates,
        // and (unlike the boundary) not proxies for anything unvisited.
        if (!local_.IsBoundary(i) && !is_match(i)) continue;
        const double opt = minimize ? rank_of(i, bounds_.lower(i))
                                    : rank_of(i, bounds_.upper(i));
        if (minimize) {
          FLOS_CHECK_LE(audit_threshold, opt,
                        "top-k termination fired before the k-th upper "
                        "cleared a competing lower");
        } else {
          FLOS_CHECK_GE(audit_threshold, opt,
                        "top-k termination fired before the k-th lower "
                        "cleared a competing upper");
        }
      }
    }
    return true;
  };

  // Main loop (Algorithm 2, with optional batched LocalExpansion).
  bool certified = false;
  bool expired = false;
  size_t last_expanded = 0;  // expansions in the previous outer iteration
  // A warm-subgraph hit restored a state that certified once before, so
  // for a k it can already prove the loop below never runs: check first.
  if (warm_hit) {
    phase_lap(&stats.expand_ns);  // restore cost books as expansion work
    if (check_termination()) certified = true;
    phase_lap(&stats.select_ns);
  }
  while (!certified) {
    // Rank the boundary best-first (Algorithm 3); at t=1 the only boundary
    // node is the query. Nodes past expandable_limit stay boundary forever:
    // their bounds keep competing in the termination check, but expanding
    // them is unsound on a shard (their adjacency may be halo-truncated).
    frontier_.clear();
    bool clipped = false;
    for (LocalId i = 0; i < local_.Size(); ++i) {
      if (!local_.IsBoundary(i)) continue;
      if (static_cast<uint64_t>(local_.GlobalId(i)) >=
          options.expandable_limit) {
        clipped = true;
        continue;
      }
      // Priority = the rank interval's midpoint; for minimize measures a
      // smaller midpoint means closer, so negate.
      const double mid = 0.5 * (rank_of(i, bounds_.lower(i)) +
                                rank_of(i, bounds_.upper(i)));
      frontier_.push_back({minimize ? -mid : mid, i});
    }
    if (frontier_.empty()) {
      if (clipped) {
        // Every remaining frontier node lies beyond the halo. No further
        // expansion is possible and the last bound update already failed
        // to certify, so stop uncertified; the bounds remain rigorous.
        stats.frontier_clipped = true;
        break;
      }
      // Component exhausted: finish with a tight solve. The solve itself
      // honors the deadline; if it was cut short the bounds are still
      // certified but not yet exact, so the result stays uncertified.
      phase_lap(&stats.expand_ns);
      stats.inner_iterations += bounds_.FinalizeExhausted(kFinalTolerance);
      phase_lap(&stats.solve_ns);
      if (bounds_.deadline_hit()) {
        expired = true;
        break;
      }
      stats.exhausted_component = true;
      certified = true;
      break;
    }
    // Only a handful of the boundary gets expanded per outer iteration, so
    // rank only the next batch of it (ExpandsBefore order), sized from the
    // previous iteration's expansion count. An exhausted full batch is
    // followed by the next, four times larger, from the entries after its
    // last one, so the expansion sequence is the full sort's prefix.
    size_t batch_size = std::max<size_t>(16, 2 * last_expanded);
    SelectBatch(frontier_, nullptr, batch_size, &batch_);
    size_t next = 0;
    // Adaptive mode targets ~12.5% growth of |S| per bound update, so the
    // number of O(edges(S)) updates stays logarithmic in the visited count
    // while overshoot past the certification point stays small.
    const uint64_t grow_target =
        options.expansion_batch > 0
            ? 0
            : local_.Size() + std::max<uint64_t>(1, local_.Size() / 8);

    bounds_.CaptureDummyFromBoundary();  // r_d from the previous delta-S
    size_t expanded = 0;
    while (next < batch_.size()) {
      const LocalId node = batch_[next++].second;
      FLOS_ASSIGN_OR_RETURN(const uint32_t added, local_.Expand(node));
      (void)added;
      ++stats.expansions;
      ++expanded;
      if (options.expansion_batch > 0) {
        if (expanded >= options.expansion_batch) break;
      } else if (local_.Size() >= grow_target) {
        break;
      }
      if (options.max_visited > 0 && local_.Size() >= options.max_visited) {
        break;
      }
      if (deadline_passed()) {
        expired = true;
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
    last_expanded = expanded;
    // Even on an expired deadline the freshly expanded nodes need their
    // bound slots (OnGrowth seeds them with the trivially valid [0, 1] /
    // [0, L] intervals); the update after it is deadline-aware and exits
    // after at most a few sweeps.
    bounds_.OnGrowth();
    phase_lap(&stats.expand_ns);
    stats.inner_iterations += bounds_.UpdateBounds();
    phase_lap(&stats.solve_ns);

    const bool done = !expired && check_termination();
    phase_lap(&stats.select_ns);
    if (done) {
      certified = true;
      break;
    }
    if (options.max_visited > 0 && local_.Size() >= options.max_visited) {
      break;  // best-effort cutoff
    }
    if (expired || deadline_passed()) {
      expired = true;
      break;
    }
  }
  stats.visited_nodes = local_.Size();
  stats.exact = certified;
  stats.deadline_expired = expired;
  // Anytime-certification contract: a deadline-expired answer must never
  // claim exactness — the two flags are mutually exclusive by construction
  // of the loop above, and the serving layer relies on it.
  FLOS_DCHECK(!(stats.deadline_expired && stats.exact),
              "deadline-expired query reported certified=true");
  // Same contract for the halo: a clipped search stopped BECAUSE it could
  // not certify, so it must never report exactness either.
  FLOS_DCHECK(!(stats.frontier_clipped && stats.exact),
              "halo-clipped query reported certified=true");

  // Assemble the k results. If termination selected candidates, use them;
  // otherwise (exhausted or cutoff) rank all visited non-query nodes.
  pool_.clear();
  refresh_matches();  // deadline/cutoff exits may skip the last check
  if (certified && !stats.exhausted_component && !selected_.empty()) {
    pool_ = selected_;
  } else {
    for (LocalId i = 0; i < local_.Size(); ++i) {
      if (local_.IsQueryLocal(i) || !is_match(i)) continue;
      pool_.push_back(
          {i, rank_of(i, bounds_.lower(i)), rank_of(i, bounds_.upper(i))});
    }
  }
  const auto mid_rank = [&](const Candidate& c) {
    return 0.5 * (c.rank_lower + c.rank_upper);
  };
  std::sort(pool_.begin(), pool_.end(),
            [&](const Candidate& a, const Candidate& b) {
              const double ma = mid_rank(a);
              const double mb = mid_rank(b);
              if (ma != mb) return minimize ? ma < mb : ma > mb;
              return local_.GlobalId(a.local) < local_.GlobalId(b.local);
            });
  if (pool_.size() > static_cast<size_t>(k)) pool_.resize(k);

  // Score transform from the internal space to the measure's units. For EI
  // and RWR the scale K = c / (w_q (1 - (1-c) sum_j p_qj PHP(j))) (Theorem
  // 6) is increasing in each PHP(j), so plugging the PHP bound endpoints of
  // q's neighbors (all visited after the first expansion) gives a rigorous
  // interval [scale_lo, scale_hi] enclosing the true K.
  double scale_lo = 1.0;
  double scale_hi = 1.0;
  if (options.measure == Measure::kEi || options.measure == Measure::kRwr) {
    const LocalId q_local = 0;  // single-source only (validated above)
    const double wq = local_.WeightedDegree(q_local);
    double sigma_lo = 0;
    double sigma_hi = 0;
    if (wq > 0) {
      for (const Neighbor& nb : local_.Neighbors(q_local)) {
        const LocalId j = local_.LocalIndex(nb.id);
        // Every neighbor of q joins S at the first expansion, so j is
        // always valid here; the guard is belt-and-braces.
        sigma_lo +=
            nb.weight / wq * (j == kInvalidLocal ? 0 : bounds_.lower(j));
        sigma_hi +=
            nb.weight / wq * (j == kInvalidLocal ? 0 : bounds_.upper(j));
      }
      const double denom_lo = wq * (1.0 - (1.0 - options.c) * sigma_lo);
      const double denom_hi = wq * (1.0 - (1.0 - options.c) * sigma_hi);
      if (denom_lo > 0) scale_lo = options.c / denom_lo;
      scale_hi = denom_hi > 0 ? options.c / denom_hi
                              : options.c / (wq * options.c);  // <= c/(wq c)
    }
  }

  result.topk.reserve(pool_.size());
  for (const Candidate& c : pool_) {
    ScoredNode out;
    out.node = local_.GlobalId(c.local);
    const double lo = bounds_.lower(c.local);
    const double hi = bounds_.upper(c.local);
    switch (options.measure) {
      case Measure::kPhp:
        out.lower = lo;
        out.upper = hi;
        break;
      case Measure::kEi:
        out.lower = scale_lo * lo;
        out.upper = scale_hi * hi;
        break;
      case Measure::kRwr: {
        const double w = local_.WeightedDegree(c.local);
        out.lower = scale_lo * w * lo;
        out.upper = scale_hi * w * hi;
        break;
      }
      case Measure::kDht:
        // DHT = (1 - PHP)/c, decreasing: bounds swap.
        out.lower = (1.0 - hi) / options.c;
        out.upper = (1.0 - lo) / options.c;
        break;
      case Measure::kTht:
        out.lower = lo;
        out.upper = hi;
        break;
    }
    out.score = 0.5 * (out.lower + out.upper);
    result.topk.push_back(out);
  }
  phase_lap(&stats.select_ns);
  // Deposit the expanded state for future warm starts. Only certified
  // completions (their bounds are reusable facts, like QueryCache's rule),
  // only when this run actually advanced past the snapshot it resumed
  // from — a warm hit that certified instantly would only churn the LRU —
  // and only for a key the tier admits (a repeat miss or a cached key), so
  // a one-off seed costs no copy of its state.
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
