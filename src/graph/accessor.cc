#include "graph/accessor.h"

#include <string>

namespace flos {

double GraphAccessor::TwoStepReturn(NodeId u,
                                    std::span<const Neighbor> fetched) {
  const double wu = WeightedDegree(u);
  double sum = 0;
  for (const Neighbor& nb : fetched) {
    sum += (nb.weight / wu) * (nb.weight / WeightedDegree(nb.id));
  }
  return sum;
}

Status InMemoryAccessor::CopyNeighbors(NodeId u, std::vector<Neighbor>* out) {
  if (u >= graph_->NumNodes()) {
    return Status::OutOfRange("node id " + std::to_string(u) +
                              " out of range");
  }
  ++stats_.neighbor_fetches;
  const auto ids = graph_->NeighborIds(u);
  const auto ws = graph_->NeighborWeights(u);
  out->clear();
  out->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) out->push_back({ids[i], ws[i]});
  return Status::OK();
}

}  // namespace flos
