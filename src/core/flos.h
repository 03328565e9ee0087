// FLoS: fast, unified, exact local top-k search (paper Algorithm 2).
//
// Given a query node and a proximity measure, FLoS expands a neighborhood
// around the query best-first, maintains rigorous lower/upper proximity
// bounds for the visited nodes (core/unified_bound_engine.h), and stops as
// soon as the bounds certify the exact top-k — typically after visiting a
// tiny fraction of the graph.
//
// Supported measures:
//   PHP         native (alpha = c)
//   EI, DHT     via rank-equivalence with PHP (Theorem 2; alpha = 1 - c)
//   RWR         via RWR(i) = K * w_i * PHP(i) (Theorem 6; Section 5.6)
//   THT         native finite-horizon bounds (Appendix 10.4)
//
// The returned ranking is exact (up to floating-point solver tolerance).
// Returned scores for EI and RWR are scaled from PHP bounds with a
// query-local estimate of the scale K; their score intervals inherit the
// bound widths.

#ifndef FLOS_CORE_FLOS_H_
#define FLOS_CORE_FLOS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/predicate.h"
#include "graph/accessor.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "measures/measure.h"
#include "util/status.h"

namespace flos {

/// FLoS configuration.
struct FlosOptions {
  Measure measure = Measure::kPhp;
  /// Decay factor (PHP, DHT) / restart probability (EI, RWR). In (0, 1).
  double c = 0.5;
  /// Truncation length for THT.
  int tht_length = 10;
  /// Inner-iteration threshold tau (Algorithm 7): a bound update stops on
  /// the first sweep that moves no bound by tau or more.
  double tolerance = 1e-5;
  /// Star-to-mesh self-loop tightening (Section 5.3). On by default; the
  /// ablation bench measures its effect.
  bool self_loop_tightening = true;
  /// Number of boundary nodes expanded per bound update. 1 reproduces the
  /// paper's Algorithm 2 exactly (one LocalExpansion per iteration); 0
  /// (default) adapts the batch to max(1, |S|/8), which keeps the number
  /// of bound updates logarithmic in the visited count — the bounds stay
  /// rigorous under ANY expansion schedule, so exactness is unaffected;
  /// the search may visit slightly more nodes in exchange for far fewer
  /// O(edges(S)) bound solves. The ablation bench quantifies the trade.
  uint32_t expansion_batch = 0;
  /// Retired: bound sweeps are always serial (DESIGN.md, "Parallel block
  /// sweeps"). Kept only so existing callers that assign it keep
  /// compiling; any value other than 1 fails with InvalidArgument.
  int sweep_threads = 1;
  /// If > 0, stop after visiting this many nodes and return the current
  /// best-effort ranking (stats.exact will be false). 0 = run to proof.
  uint64_t max_visited = 0;
  /// Nodes with id >= this limit may be VISITED (they enter the boundary
  /// and participate in the rigorous bounds) but never EXPANDED. Sharded
  /// serving (graph/partition.h) sets it to the shard's interior size: the
  /// outermost halo ring is present with possibly truncated adjacency, so
  /// expanding it would be unsound, while merely bounding it is not. When
  /// the only remaining frontier is past the limit and the top-k is not yet
  /// certified, the search stops uncertified with stats.frontier_clipped
  /// set. Certification reached before that is exact as usual — the clipped
  /// nodes' bounds took part in the termination proof. Default: no limit.
  uint64_t expandable_limit = UINT64_MAX;
  /// Label-constrained ("filtered") search. When `predicate` is non-kNone,
  /// `labels` must be a store covering the accessor's nodes, and the query
  /// returns the exact top-k among MATCHING nodes only. Non-matching
  /// visited nodes are transit-only: they stay in the local subgraph and
  /// the bound sweeps (conducting probability mass exactly as before), but
  /// they never enter the candidate set and the certified-termination test
  /// re-derives over matching nodes — see DESIGN.md "Filtered top-k" for
  /// the soundness argument. When the predicate can match fewer than k
  /// nodes, all reachable matching nodes are returned (certified). The
  /// store is not owned and must outlive the call.
  const LabelStore* labels = nullptr;
  LabelPredicate predicate;
  /// Absolute wall-clock deadline for the search (anytime termination, the
  /// serving layer's graceful-degradation hook). When the deadline passes
  /// mid-search, the engine stops expanding — including between inner
  /// bound sweeps — and returns the current best-effort top-k with its
  /// still-certified lower/upper bounds (stats.exact = false,
  /// stats.deadline_expired = true). The bounds stay rigorous at any
  /// instant (Theorems 3-5: every partial Gauss-Seidel state is a
  /// certified bound), so an expired answer is a usable interval answer,
  /// not an error. Default: no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// One result entry. `score` is the measure's value ((lower+upper)/2 when
/// an interval remains); lower/upper bracket the exact value.
struct ScoredNode {
  NodeId node = kInvalidNode;
  double score = 0;
  double lower = 0;
  double upper = 0;
};

/// Why a termination check (Algorithm 6) failed to certify the top-k: the
/// kind of the competitor whose optimistic bound beat the k-th guaranteed
/// one.
enum class BlockerKind : uint8_t {
  kTooFewCandidates,  ///< fewer than k (matching) interior candidates yet
  kInterior,          ///< a visited interior candidate outside the top-k
  kBoundary,          ///< an expandable boundary node
  kFringe,            ///< a boundary node at or past expandable_limit
  kUnvisited,         ///< RWR's degree-weighted bound on unvisited nodes
};
inline constexpr size_t kNumBlockerKinds = 5;

/// Per-query search statistics.
struct FlosStats {
  uint64_t visited_nodes = 0;   ///< |S| = neighbor-list fetches
  uint64_t expansions = 0;      ///< boundary nodes expanded (Expand calls)
  uint64_t inner_iterations = 0;///< total Algorithm-7 sweeps
  bool exact = false;           ///< true iff the top-k was certified
  bool exhausted_component = false;  ///< visited the query's whole component
  bool deadline_expired = false;  ///< search was cut short by the deadline
  /// True iff the search ran out of expandable frontier because of
  /// FlosOptions::expandable_limit before certifying (sharded serving: the
  /// query needed to walk beyond the replicated halo). Implies !exact; the
  /// returned bounds are still rigorous.
  bool frontier_clipped = false;
  /// True iff the result was served from a QueryCache hit (the stats above
  /// then describe the original certifying run, not this call).
  bool cache_hit = false;
  /// True iff this run resumed from a warm-subgraph cache hit
  /// (core/subgraph_cache.h): expansion restarted from the cached visited
  /// set and the sweeps from its converged bounds. The answer itself was
  /// still computed (and certified) by THIS run — contrast cache_hit.
  bool subgraph_hit = false;
  /// True iff this run deposited its certified state into the warm-subgraph
  /// cache (the tier admitted the seed: a repeat miss, or a warm run that
  /// moved past its cached entry).
  bool subgraph_deposited = false;
  /// Coarse per-phase wall-clock breakdown, accumulated at outer-iteration
  /// granularity: frontier ranking + expansion fetches + growth, bound
  /// solves (sweeps / horizon DP), and termination checks + result
  /// assembly. On a result-cache hit these describe the original
  /// certifying run, like the rest of the stats.
  uint64_t expand_ns = 0;
  uint64_t solve_ns = 0;
  uint64_t select_ns = 0;
  /// Failed termination checks, indexed by the BlockerKind that failed
  /// them. All zero when the first check certified (or none ran).
  std::array<uint64_t, kNumBlockerKinds> blocked_checks = {};
};

/// Result of a FLoS query: top-k nodes, closest first.
struct FlosResult {
  std::vector<ScoredNode> topk;
  FlosStats stats;
};

/// Runs FLoS for the top-k proximity query. `k >= 1`. If the query's
/// connected component holds fewer than k non-query nodes, all of them are
/// returned (stats.exhausted_component is set).
///
/// One-shot convenience: each call builds and tears down the whole query
/// workspace. Services answering many queries should hold a `FlosEngine`
/// (core/flos_engine.h), which reuses the workspace across queries, or
/// lease engines from an `EngineSessionPool` (service/session_pool.h) to
/// fan a query batch across threads.
Result<FlosResult> FlosTopK(GraphAccessor* accessor, NodeId query, int k,
                            const FlosOptions& options);

/// Convenience overload over an in-memory graph.
Result<FlosResult> FlosTopK(const Graph& graph, NodeId query, int k,
                            const FlosOptions& options);

/// Multi-source variant: the k nodes closest to the query SET, which acts
/// as one absorbing target (walks stop at any member) — e.g. "customers
/// nearest any of our stores". Supported for the absorbing-set measures
/// PHP, DHT, and THT; EI/RWR are single-source by definition (Theorem 6)
/// and are rejected. Queries must be distinct; they are excluded from the
/// result.
Result<FlosResult> FlosTopKSet(GraphAccessor* accessor,
                               const std::vector<NodeId>& queries, int k,
                               const FlosOptions& options);

/// Convenience overload over an in-memory graph.
Result<FlosResult> FlosTopKSet(const Graph& graph,
                               const std::vector<NodeId>& queries, int k,
                               const FlosOptions& options);

/// Detailed bound trajectories for small-graph inspection (Figure 4): the
/// per-iteration lower/upper bounds of every visited node, in the PHP-form
/// internal space. Runs FLoS without early termination until the component
/// is exhausted or `max_iterations` expansions happened.
struct BoundTrace {
  struct Iteration {
    std::vector<NodeId> nodes;   // visited nodes, local order
    std::vector<double> lower;   // parallel to nodes
    std::vector<double> upper;
    double dummy_value = 1.0;
  };
  std::vector<Iteration> iterations;
};
Result<BoundTrace> TraceFlosBounds(const Graph& graph, NodeId query, double c,
                                   bool self_loop_tightening,
                                   uint32_t max_iterations = 100);

}  // namespace flos

#endif  // FLOS_CORE_FLOS_H_
