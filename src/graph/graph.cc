#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace flos {

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  const auto ids = NeighborIds(u);
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it == ids.end() || *it != v) return 0;
  return weights_[offsets_[u] + (it - ids.begin())];
}

void Graph::FinalizeDerived() {
  const uint64_t n = NumNodes();
  directed_edge_count_ = neighbors_.size();
  weighted_degree_.assign(n, 0.0);
  for (uint64_t u = 0; u < n; ++u) {
    double sum = 0;
    for (uint64_t e = offsets_[u]; e < offsets_[u + 1]; ++e) sum += weights_[e];
    weighted_degree_[u] = sum;
  }
  // Second pass, once every degree is known. The term is written exactly as
  // GraphAccessor::TwoStepReturn's default evaluates it, in the same
  // (CSR) order, so both paths produce the same bits.
  two_step_return_.assign(n, 0.0);
  for (uint64_t u = 0; u < n; ++u) {
    const double wu = weighted_degree_[u];
    double sum = 0;
    for (uint64_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const double w = weights_[e];
      sum += (w / wu) * (w / weighted_degree_[neighbors_[e]]);
    }
    two_step_return_[u] = sum;
  }
  max_weighted_degree_ =
      weighted_degree_.empty()
          ? 0.0
          : *std::max_element(weighted_degree_.begin(), weighted_degree_.end());
  degree_order_.resize(n);
  std::iota(degree_order_.begin(), degree_order_.end(), NodeId{0});
  std::sort(degree_order_.begin(), degree_order_.end(),
            [this](NodeId a, NodeId b) {
              if (weighted_degree_[a] != weighted_degree_[b]) {
                return weighted_degree_[a] > weighted_degree_[b];
              }
              return a < b;
            });
}

Result<Graph> GraphFromCsrParts(HugePageVector<uint64_t> offsets,
                                HugePageVector<NodeId> neighbors,
                                HugePageVector<double> weights) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size() || neighbors.size() != weights.size()) {
    return Status::Corruption("inconsistent CSR part sizes");
  }
  const uint64_t n = offsets.size() - 1;
  for (uint64_t u = 0; u < n; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return Status::Corruption("CSR offsets not monotone");
    }
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      if (neighbors[e] >= n) return Status::Corruption("neighbor id out of range");
      if (e > offsets[u] && neighbors[e] <= neighbors[e - 1]) {
        return Status::Corruption("neighbor list not strictly sorted");
      }
      if (!(weights[e] > 0) || !std::isfinite(weights[e])) {
        return Status::Corruption("non-positive or non-finite edge weight");
      }
    }
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.weights_ = std::move(weights);
  g.FinalizeDerived();
  // Symmetry check: every half-edge must have its reverse.
  for (uint64_t u = 0; u < n; ++u) {
    for (const NodeId v : g.NeighborIds(static_cast<NodeId>(u))) {
      if (g.EdgeWeight(v, static_cast<NodeId>(u)) !=
          g.EdgeWeight(static_cast<NodeId>(u), v)) {
        return Status::Corruption("graph is not symmetric");
      }
    }
  }
  return g;
}

Status GraphBuilder::AddEdge(NodeId u, NodeId v, double w) {
  if (u == v) {
    if (options_.ignore_self_loops) return Status::OK();
    return Status::InvalidArgument("self-loop at node " + std::to_string(u));
  }
  if (!(w > 0) || !std::isfinite(w)) {
    return Status::InvalidArgument("edge weight must be positive and finite");
  }
  if (options_.num_nodes >= 0) {
    const auto n = static_cast<uint64_t>(options_.num_nodes);
    if (u >= n || v >= n) {
      return Status::OutOfRange("edge endpoint exceeds fixed node count");
    }
  }
  edges_.push_back({u, v, w});
  max_node_ = std::max({max_node_, u, v});
  saw_node_ = true;
  ++num_added_;
  return Status::OK();
}

Result<Graph> GraphBuilder::Build() && {
  uint64_t n = 0;
  if (options_.num_nodes >= 0) {
    n = static_cast<uint64_t>(options_.num_nodes);
  } else if (saw_node_) {
    n = static_cast<uint64_t>(max_node_) + 1;
  }

  // Materialize both directions, then sort per-source and merge duplicates.
  struct Half {
    NodeId src;
    NodeId dst;
    double w;
  };
  std::vector<Half> halves;
  halves.reserve(edges_.size() * 2);
  for (const RawEdge& e : edges_) {
    halves.push_back({e.u, e.v, e.w});
    halves.push_back({e.v, e.u, e.w});
  }
  edges_.clear();
  edges_.shrink_to_fit();
  std::sort(halves.begin(), halves.end(), [](const Half& a, const Half& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });

  Graph g;
  g.offsets_.assign(n + 1, 0);
  g.neighbors_.reserve(halves.size());
  g.weights_.reserve(halves.size());
  size_t i = 0;
  for (uint64_t u = 0; u < n; ++u) {
    g.offsets_[u] = g.neighbors_.size();
    while (i < halves.size() && halves[i].src == u) {
      const NodeId dst = halves[i].dst;
      double w = 0;
      while (i < halves.size() && halves[i].src == u && halves[i].dst == dst) {
        w += halves[i].w;  // duplicate edges accumulate weight
        ++i;
      }
      g.neighbors_.push_back(dst);
      g.weights_.push_back(w);
    }
  }
  g.offsets_[n] = g.neighbors_.size();
  g.FinalizeDerived();
  return g;
}

}  // namespace flos
