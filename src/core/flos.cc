#include "core/flos.h"

#include "core/flos_engine.h"
#include "core/local_graph.h"
#include "core/unified_bound_engine.h"

namespace flos {

// The search itself lives in FlosEngine (core/flos_engine.h), which keeps
// a reusable per-worker workspace. These wrappers preserve the original
// one-shot API by running each call through a throwaway engine; services
// answering many queries should hold a FlosEngine (or an
// EngineSessionPool of them).

Result<FlosResult> FlosTopKSet(GraphAccessor* accessor,
                               const std::vector<NodeId>& queries, int k,
                               const FlosOptions& options) {
  FlosEngine engine(accessor);
  return engine.TopKSet(queries, k, options);
}

Result<FlosResult> FlosTopK(GraphAccessor* accessor, NodeId query, int k,
                            const FlosOptions& options) {
  return FlosTopKSet(accessor, {query}, k, options);
}

Result<FlosResult> FlosTopK(const Graph& graph, NodeId query, int k,
                            const FlosOptions& options) {
  InMemoryAccessor accessor(&graph);
  return FlosTopK(&accessor, query, k, options);
}

Result<FlosResult> FlosTopKSet(const Graph& graph,
                               const std::vector<NodeId>& queries, int k,
                               const FlosOptions& options) {
  InMemoryAccessor accessor(&graph);
  return FlosTopKSet(&accessor, queries, k, options);
}

Result<BoundTrace> TraceFlosBounds(const Graph& graph, NodeId query, double c,
                                   bool self_loop_tightening,
                                   uint32_t max_iterations) {
  if (query >= graph.NumNodes()) {
    return Status::OutOfRange("query node out of range");
  }
  InMemoryAccessor accessor(&graph);
  LocalGraph local(&accessor);
  FLOS_RETURN_IF_ERROR(local.Init(query));
  UnifiedBoundOptions be;
  be.traits.family = BoundFamily::kFixedPoint;
  be.traits.alpha = c;
  be.tolerance = 1e-12;
  be.self_loop_tightening = self_loop_tightening;
  // The trace reproduces the paper's Figure 4 verbatim, so the dummy value
  // follows Algorithm 5 line 7 without this library's extra tightenings.
  be.alpha_dummy_tightening = false;
  UnifiedBoundEngine engine(&local, be);

  BoundTrace trace;
  for (uint32_t t = 0; t < max_iterations; ++t) {
    LocalId best = kInvalidLocal;
    double best_score = -1;
    for (LocalId i = 0; i < local.Size(); ++i) {
      if (!local.IsBoundary(i)) continue;
      const double mid = 0.5 * (engine.lower(i) + engine.upper(i));
      if (mid > best_score) {
        best = i;
        best_score = mid;
      }
    }
    if (best == kInvalidLocal) break;
    engine.CaptureDummyFromBoundary();
    FLOS_ASSIGN_OR_RETURN(const uint32_t added, local.Expand(best));
    (void)added;
    engine.OnGrowth();
    engine.UpdateBounds();

    BoundTrace::Iteration snap;
    for (LocalId i = 0; i < local.Size(); ++i) {
      snap.nodes.push_back(local.GlobalId(i));
      snap.lower.push_back(engine.lower(i));
      snap.upper.push_back(engine.upper(i));
    }
    snap.dummy_value = engine.dummy_value();
    trace.iterations.push_back(std::move(snap));
  }
  return trace;
}

}  // namespace flos
