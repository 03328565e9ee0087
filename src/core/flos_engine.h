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
// (with its own accessor) per thread over one shared immutable graph — see
// the GraphAccessor thread-safety contract (graph/accessor.h) and
// `EngineSessionPool` (service/session_pool.h), which implements exactly
// that pattern.
// The optional QueryCache is the one shared piece and is itself
// thread-safe.
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
  /// A visited node with its certified rank-value interval.
  struct Candidate {
    LocalId local;
    double rank_lower;
    double rank_upper;
  };

  /// Maximum weighted degree among nodes neither visited nor adjacent to
  /// the visited set, via the accessor's descending degree order (Section
  /// 5.6). Adjacency is the delta-S-bar set the bound engine enumerated in
  /// the ComputeOutsideUppers call that must immediately precede this one.
  /// The cursor only advances within a query (S and S + delta-S-bar only
  /// grow) and rewinds to 0 between queries.
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
