#include "replay.h"

#include <chrono>

#include "core/flos_engine.h"
#include "core/query_cache.h"
#include "core/subgraph_cache.h"

namespace servebench {

namespace {

uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

flos::Status TimedAccessor::CopyNeighbors(flos::NodeId u,
                                          std::vector<flos::Neighbor>* out) {
  const auto start = std::chrono::steady_clock::now();
  const flos::Status status = inner_->CopyNeighbors(u, out);
  fetch_ns_ += NanosSince(start);
  ++fetches_;
  return status;
}

flos::Result<ReplayTotals> Replay(const flos::Graph& graph,
                                  const std::vector<Query>& queries,
                                  size_t warmup, const ReplayConfig& config) {
  flos::InMemoryAccessor base(&graph);
  TimedAccessor accessor(&base);
  flos::QueryCache query_cache(config.query_cache_capacity);
  flos::SubgraphCache subgraph_cache(config.subgraph_cache_capacity);
  flos::FlosEngine engine(&accessor);
  if (config.query_cache_capacity > 0) engine.set_query_cache(&query_cache);
  if (config.subgraph_cache_capacity > 0) {
    engine.set_subgraph_cache(&subgraph_cache);
  }

  ReplayTotals totals;
  for (size_t i = 0; i < queries.size(); ++i) {
    const flos::QueryRequest& request = queries[i].request;
    // Same FlosOptions as ServiceServer::HandleQuery builds, except that a
    // wall-clock deadline becomes a fixed visit budget.
    flos::FlosOptions options;
    options.measure = request.measure;
    options.c = request.c;
    options.tht_length = static_cast<int>(request.tht_length);
    options.sweep_threads = config.sweep_threads;
    if (request.deadline_us > 0) {
      options.max_visited = config.deadline_visit_budget;
    }
    if (!request.predicate.empty()) {
      options.labels = config.labels;
      options.predicate = request.predicate;
    }
    const bool timed = i >= warmup;
    if (i == warmup) accessor.ResetCounters();

    const auto start = std::chrono::steady_clock::now();
    flos::Result<flos::FlosResult> result = engine.TopK(
        request.query_node, static_cast<int>(request.k), options);
    const uint64_t wall_ns = NanosSince(start);
    if (!result.ok()) return result.status();
    if (!timed) continue;

    const flos::FlosStats& s = result->stats;
    ++totals.queries;
    if (s.exact) ++totals.certified;
    if (s.cache_hit) {
      // The stats of a hit describe the original run; only the lookup
      // itself happened now.
      ++totals.cache_hits;
      totals.hit_ns += wall_ns;
      continue;
    }
    ++totals.executed;
    if (s.subgraph_hit) ++totals.subgraph_hits;
    // FlosEngine's deposit rule: an eligible (no visit budget) certified
    // run deposits unless it was a warm hit that certified without work.
    if (config.subgraph_cache_capacity > 0 && options.max_visited == 0 &&
        s.exact &&
        (!s.subgraph_hit || s.expansions > 0 || s.inner_iterations > 0)) {
      ++totals.deposits;
    }
    totals.visited += s.visited_nodes;
    totals.expansions += s.expansions;
    totals.sweeps += s.inner_iterations;
    totals.expand_ns += s.expand_ns;
    totals.solve_ns += s.solve_ns;
    totals.select_ns += s.select_ns;
    totals.engine_ns += wall_ns;
  }
  totals.fetches = accessor.fetches();
  totals.fetch_ns = accessor.fetch_ns();
  totals.degree_probes = accessor.probes();
  return totals;
}

}  // namespace servebench
