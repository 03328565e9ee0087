// Workload definitions of the serving benchmark.
//
// A workload fixes the graph, the optional label store, the server
// configuration and the query distribution. Everything the program under
// test receives is generated here from the benchmark's --seed, so one seed
// always yields the same graph, labels, predicates and query list.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/predicate.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "service/protocol.h"
#include "util/status.h"

namespace servebench {

enum class WorkloadKind { kUniformCold, kZipfMixed, kFilteredAnytime };

/// Fixed parameters of one workload (see servebench/README.md for why each
/// workload exists and what it is meant to move).
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kUniformCold;
  /// RAND (Erdős–Rényi) graph; 5M edges on 1M nodes is average degree 10.
  uint64_t num_nodes = 1000000;
  uint64_t num_edges = 5000000;
  /// Zipf label store (filtered workload only).
  bool labeled = false;
  uint32_t num_labels = 500;
  uint32_t labels_per_node = 3;
  double label_zipf = 1.0;
  /// Skew of the query-seed distribution; 0 = uniform.
  double seed_zipf = 0;
  /// Relative per-query anytime budget sent on the wire; 0 = to proof.
  uint64_t deadline_us = 0;
  /// Visit budget that stands in for the deadline in the traced replay
  /// (FlosOptions::max_visited), which must do the same work every run.
  uint64_t replay_visit_budget = 0;
  /// Timed queries per second of --seconds. The timed list holds
  /// round(queries_per_second * seconds) queries, so a given --seconds
  /// always does the same work; the constant is sized so that a run takes
  /// roughly --seconds on a 4-vCPU host.
  double queries_per_second = 0;
  /// Untimed prefix sent before the timed list, drawn from the same
  /// distribution: warms the server caches and the engine workspaces.
  uint64_t warmup_queries = 0;
  /// Closed-loop client connections = server workers.
  int connections = 2;
};

/// The workload named `name`, or NotFound.
flos::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// One predicate of the filtered workload, chosen by measuring candidate
/// predicates against the generated label store.
struct PredicateRow {
  /// Selectivity bucket the row belongs to: "sel_50pct", "sel_10pct",
  /// "sel_1pct" or "sel_0.1pct".
  std::string bucket;
  flos::LabelPredicate predicate;
  uint64_t matching_nodes = 0;
};

/// The selectivity buckets, widest first.
const std::vector<std::string>& SelectivityBuckets();

/// Inputs as the benchmark generates them from the seed, before the
/// system ingests them.
struct Generated {
  /// Distinct undirected edges {u, v}, u < v, unit weight.
  std::vector<std::pair<flos::NodeId, flos::NodeId>> edges;
  /// labels_per_node distinct label ids per node, node-major (labeled
  /// workloads only).
  std::vector<flos::LabelId> node_labels;
};

/// Draws the workload's RAND G(n, m) edge list and, for labeled workloads,
/// a Zipf label assignment. Input generation: not part of setup_s.
Generated Generate(const WorkloadSpec& spec, uint64_t seed);

/// What the system builds from the generated inputs: the graph (+ label
/// store), plus the predicate rows the filtered workload queries with.
struct Inputs {
  flos::Graph graph;
  flos::LabelStore labels;
  std::vector<PredicateRow> predicates;
};

/// Ingests `generated` through the library's builders (GraphBuilder and
/// LabelStore::Builder). This is the graph and label build timed in
/// setup_s.
flos::Status Ingest(const WorkloadSpec& spec, const Generated& generated,
                    Inputs* inputs);

/// Picks the filtered workload's predicate rows (benchmark input
/// generation, not timed): per bucket and per predicate type, the
/// candidate whose measured selectivity is closest to the bucket target;
/// candidates more than 2x away from the target are not used.
std::vector<PredicateRow> PickPredicates(const flos::LabelStore& labels);

/// One generated query with the predicate row it uses (-1 = unfiltered).
struct Query {
  flos::QueryRequest request;
  int row = -1;
};

/// The untimed warm-up prefix followed by the timed list, drawn from one
/// seeded stream. `timed` is the number of timed queries.
std::vector<Query> MakeQueries(const WorkloadSpec& spec, const Inputs& inputs,
                               uint64_t seed, uint64_t timed);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
