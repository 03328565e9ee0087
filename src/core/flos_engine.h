// Reusable FLoS query engine: one per worker thread, many queries.
//
// `FlosTopK` (core/flos.h) rebuilds the entire per-query state — visited
// index, neighbor lists, bound vectors — on every call, so sustained
// throughput is dominated by allocator traffic rather than the algorithm.
// `FlosEngine` owns that state as a persistent workspace (LocalGraph with
// resettable node indexes, the unified bound engine, the
// frontier/candidate scratch) and resets it in O(|S|) between queries;
// steady-state queries allocate nothing. `FlosTopK`/`FlosTopKSet` remain
// as thin wrappers that construct a throwaway engine.
//
// Threading: an engine is bound to one GraphAccessor and is
// thread-compatible, not thread-safe. Concurrent serving uses one engine
// (with its own accessor) per thread over one shared immutable graph, as
// `EngineSessionPool` (service/session_pool.h) does; the optional caches
// are the shared pieces and are themselves thread-safe.
//
// Determinism: for a given accessor and options, a reused engine returns
// bit-identical results and statistics to a freshly constructed one
// (covered by tests/engine_reuse_test.cc).

#ifndef FLOS_CORE_FLOS_ENGINE_H_
#define FLOS_CORE_FLOS_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/flos.h"
#include "core/local_graph.h"
#include "core/query_cache.h"
#include "core/subgraph_cache.h"
#include "core/unified_bound_engine.h"
#include "graph/accessor.h"
#include "graph/graph.h"
#include "util/status.h"

namespace flos {

/// Long-lived FLoS query workspace over one accessor. Measures and options
/// may vary freely from call to call.
class FlosEngine {
 public:
  /// `accessor` must outlive the engine. Allocates the workspace sized to
  /// the accessor's index hint; no per-query allocation afterwards.
  explicit FlosEngine(GraphAccessor* accessor);

  FlosEngine(const FlosEngine&) = delete;
  FlosEngine& operator=(const FlosEngine&) = delete;

  /// Single-source exact top-k query; semantics identical to FlosTopK.
  Result<FlosResult> TopK(NodeId query, int k, const FlosOptions& options);

  /// Multi-source (absorbing-set) variant; semantics identical to
  /// FlosTopKSet.
  Result<FlosResult> TopKSet(const std::vector<NodeId>& queries, int k,
                             const FlosOptions& options);

  /// Attaches a shared certified-result cache (core/query_cache.h), or
  /// detaches with nullptr. Not owned; must outlive the engine while
  /// attached. Single-source queries consult it before searching (keyed on
  /// the accessor's current graph epoch) and deposit certified answers
  /// after; multi-source queries bypass it.
  void set_query_cache(QueryCache* cache) { query_cache_ = cache; }
  QueryCache* query_cache() const { return query_cache_; }

  /// Attaches a shared warm-subgraph cache (core/subgraph_cache.h), or
  /// detaches with nullptr. Not owned; must outlive the engine while
  /// attached. On a result-cache miss, eligible single-source queries
  /// (no max_visited / expandable_limit clipping) look up a snapshot for
  /// (seed, bound family, alpha/horizon, epoch): a hit skips expansion and
  /// resumes sweeping from the cached converged bounds; certified
  /// completions deposit their expanded state back.
  void set_subgraph_cache(SubgraphCache* cache) { subgraph_cache_ = cache; }
  SubgraphCache* subgraph_cache() const { return subgraph_cache_; }

  GraphAccessor* accessor() const { return accessor_; }

 private:
  struct Query;  ///< one call's options and loop state (defined in .cc)

  /// A visited node with its certified rank interval, oriented so that
  /// larger means closer: `sure` is the guaranteed end, `hope` the
  /// optimistic one (THT, which minimizes, negates both).
  struct Candidate {
    LocalId local;
    double sure;
    double hope;
    double mid() const { return 0.5 * (sure + hope); }
  };

  /// The verdict of one termination check (Algorithm 6). When the top-k is
  /// not certified, the rival is the competitor that blocked it.
  struct Certificate {
    bool certified = false;
    double threshold = 0;  ///< the k-th (worst) `sure` of the top-k
    LocalId kth = kInvalidLocal;
    LocalId rival = kInvalidLocal;  ///< kInvalidLocal for kUnvisited
    BlockerKind kind = BlockerKind::kTooFewCandidates;
    double rival_hope = 0;  ///< the rival's `hope` (its rank bound)
    double gap = 0;         ///< threshold - rival_hope; >= 0 iff certified
  };

  /// How ExpandBatch ended.
  enum class Step { kExpanded, kExhausted, kClipped, kExpired };

  Status Validate(const std::vector<NodeId>& queries, int k,
                  const FlosOptions& options) const;
  Candidate Rank(const Query& q, LocalId i) const;
  void RefreshMatches(const Query& q);
  bool IsMatch(const Query& q, LocalId i) const;
  Result<Step> ExpandBatch(Query* q, FlosStats* stats);
  Status Rewind(const Query& q, const std::vector<NodeId>& queries,
                const SubgraphSnapshot* warm);
  Certificate Certify(const Query& q);
  void Audit(const Query& q, const Certificate& cert) const;
  double UnvisitedBound(const Query& q);
  void Assemble(const Query& q, int k, bool certified, FlosResult* result);

  /// Maximum weighted degree among nodes neither visited nor in the
  /// delta-S-bar of the ComputeOutsideUppers call just before, via the
  /// accessor's descending degree order (Section 5.6). The cursor only
  /// advances within a query (S and delta-S-bar only grow).
  double MaxUnknownDegree();

  GraphAccessor* accessor_;
  LocalGraph local_;
  UnifiedBoundEngine bounds_;
  QueryCache* query_cache_ = nullptr;
  SubgraphCache* subgraph_cache_ = nullptr;
  size_t degree_cursor_ = 0;

  // Per-query scratch, reused across calls.
  std::vector<Candidate> interior_;
  std::vector<Candidate> selected_;
  std::vector<Candidate> pool_;
  /// (priority, local id) of each expandable boundary node at the start of
  /// an outer iteration, in boundary scan order.
  std::vector<std::pair<double, LocalId>> frontier_;
  /// The frontier entries next in expansion order, best first: the batch
  /// the current outer iteration is expanding from.
  std::vector<std::pair<double, LocalId>> batch_;
  /// Filtered queries: match_[local] == 1 iff the node satisfies the
  /// request predicate. Filled incrementally (local ids are append-only
  /// within a query); empty and unused for unfiltered queries.
  std::vector<uint8_t> match_;
};

}  // namespace flos

#endif  // FLOS_CORE_FLOS_ENGINE_H_
