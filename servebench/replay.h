// In-process replay of a workload's query list for the traced run.
//
// The replay drives one FlosEngine configured like a server session (same
// cache capacities, same FlosOptions) over a TimedAccessor, so every layer
// under the server is measured from outside, through its public functions:
// the accessor's CopyNeighbors calls are timed by the decorator, the
// engine's phases come from FlosStats, and the caches are observed through
// the FlosStats hit flags. Single-threaded and sequential, so every count
// it reports repeats exactly for a given seed.

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "graph/accessor.h"
#include "graph/labels.h"
#include "workload.h"

namespace servebench {

/// GraphAccessor decorator that forwards every call to `inner` and times
/// CopyNeighbors (the neighbor fetch). WeightedDegree is counted but not
/// timed: it is an array read that two clock reads would dwarf.
class TimedAccessor final : public flos::GraphAccessor {
 public:
  explicit TimedAccessor(flos::GraphAccessor* inner) : inner_(inner) {}

  uint64_t NumNodes() const override { return inner_->NumNodes(); }
  uint64_t NumEdges() const override { return inner_->NumEdges(); }
  double WeightedDegree(flos::NodeId u) override {
    ++probes_;
    return inner_->WeightedDegree(u);
  }
  flos::Status CopyNeighbors(flos::NodeId u,
                             std::vector<flos::Neighbor>* out) override;
  const std::vector<flos::NodeId>& DegreeOrder() const override {
    return inner_->DegreeOrder();
  }
  double MaxWeightedDegree() const override {
    return inner_->MaxWeightedDegree();
  }
  uint64_t Epoch() const override { return inner_->Epoch(); }
  double ExternalDegreeBound() const override {
    return inner_->ExternalDegreeBound();
  }
  bool CompleteAdjacency(flos::NodeId u) const override {
    return inner_->CompleteAdjacency(u);
  }
  bool DenseIndexHint() const override { return inner_->DenseIndexHint(); }

  uint64_t fetches() const { return fetches_; }
  uint64_t fetch_ns() const { return fetch_ns_; }
  uint64_t probes() const { return probes_; }
  void ResetCounters() { fetches_ = fetch_ns_ = probes_ = 0; }

 private:
  flos::GraphAccessor* inner_;
  uint64_t fetches_ = 0;
  uint64_t fetch_ns_ = 0;
  uint64_t probes_ = 0;
};

/// How the replay engine is configured (mirrors a server session).
struct ReplayConfig {
  size_t query_cache_capacity = 0;
  size_t subgraph_cache_capacity = 0;
  int sweep_threads = 1;
  /// Queries that carry a wire deadline are replayed with this visit
  /// budget instead (FlosOptions::max_visited), so the replay does the
  /// same work on every run; 0 = replay them to proof.
  uint64_t deadline_visit_budget = 0;
  const flos::LabelStore* labels = nullptr;
};

/// Totals over the timed part of the list. Counts are exact; *_ns are
/// wall-clock sums.
struct ReplayTotals {
  uint64_t queries = 0;
  uint64_t certified = 0;
  uint64_t cache_hits = 0;      ///< answered by the result cache
  uint64_t executed = 0;        ///< ran the search (queries - cache_hits)
  uint64_t subgraph_hits = 0;   ///< executed searches resumed warm
  uint64_t deposits = 0;        ///< snapshots deposited into the tier
  uint64_t visited = 0;         ///< over executed searches
  uint64_t expansions = 0;
  uint64_t sweeps = 0;
  uint64_t fetches = 0;
  uint64_t degree_probes = 0;
  uint64_t fetch_ns = 0;
  uint64_t expand_ns = 0;
  uint64_t solve_ns = 0;
  uint64_t select_ns = 0;
  uint64_t engine_ns = 0;       ///< TopK wall over executed searches
  uint64_t hit_ns = 0;          ///< TopK wall over result-cache hits
};

/// Replays `queries` (the first `warmup` untimed, like the service run)
/// through one engine over `graph`; returns totals over the timed part.
flos::Result<ReplayTotals> Replay(const flos::Graph& graph,
                                  const std::vector<Query>& queries,
                                  size_t warmup, const ReplayConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
