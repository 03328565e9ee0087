#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/rng.h"

namespace servebench {

namespace {

// Stream ids: every generated input draws from its own Rng derived from
// the benchmark seed, so adding a draw to one stream never shifts another.
enum Stream : uint64_t { kGraph = 1, kLabels = 2, kQueries = 3 };

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  flos::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec uniform;
  uniform.name = "uniform_cold";
  uniform.kind = WorkloadKind::kUniformCold;
  uniform.queries_per_second = 500;
  uniform.warmup_queries = 200;
  out.push_back(uniform);

  WorkloadSpec zipf;
  zipf.name = "zipf_mixed";
  zipf.kind = WorkloadKind::kZipfMixed;
  zipf.seed_zipf = 0.99;
  zipf.queries_per_second = 400;
  zipf.warmup_queries = 1000;
  out.push_back(zipf);

  WorkloadSpec filtered;
  filtered.name = "filtered_anytime";
  filtered.kind = WorkloadKind::kFilteredAnytime;
  filtered.labeled = true;
  // 20 ms certifies most queries of the 50% and 10% buckets and almost
  // none of the 1% and 0.1% ones: certified_ratio sits near 0.45.
  filtered.deadline_us = 20000;
  filtered.replay_visit_budget = 8000;
  filtered.queries_per_second = 135;
  filtered.warmup_queries = 100;
  out.push_back(filtered);
  return out;
}

/// Draws query seeds: uniform over non-isolated nodes, or Zipf over a
/// seeded random ranking of the nodes (so the hot seeds are arbitrary
/// nodes, not the low ids).
class SeedSampler {
 public:
  SeedSampler(const flos::Graph& graph, double zipf, flos::Rng* rng)
      : graph_(graph), rng_(rng) {
    if (zipf <= 0) return;
    const uint64_t n = graph.NumNodes();
    by_rank_.resize(n);
    std::iota(by_rank_.begin(), by_rank_.end(), flos::NodeId{0});
    std::shuffle(by_rank_.begin(), by_rank_.end(), *rng_);
    cdf_.resize(n);
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), zipf);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  flos::NodeId Next() {
    for (;;) {
      flos::NodeId v;
      if (cdf_.empty()) {
        v = static_cast<flos::NodeId>(rng_->NextBounded(graph_.NumNodes()));
      } else {
        const double u = rng_->NextDouble();
        const size_t r = static_cast<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        v = by_rank_[std::min(r, by_rank_.size() - 1)];
      }
      if (graph_.Degree(v) > 0) return v;
    }
  }

 private:
  const flos::Graph& graph_;
  flos::Rng* rng_;
  std::vector<flos::NodeId> by_rank_;
  std::vector<double> cdf_;
};

uint64_t CountMatches(const flos::LabelStore& labels,
                      const flos::LabelPredicate& predicate) {
  uint64_t matches = 0;
  for (uint64_t v = 0; v < labels.NumNodes(); ++v) {
    if (predicate.Matches(labels.Labels(static_cast<flos::NodeId>(v)))) {
      ++matches;
    }
  }
  return matches;
}

flos::LabelPredicate MakePredicate(flos::PredicateType type,
                                   std::vector<flos::LabelId> labels) {
  // Inputs are built from the store's own label ids, so Make cannot fail.
  return *flos::LabelPredicate::Make(type, std::move(labels));
}

using Candidate = std::pair<flos::LabelPredicate, uint64_t>;

}  // namespace

flos::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return flos::Status::NotFound("unknown workload '" + name + "'");
}

const std::vector<std::string>& SelectivityBuckets() {
  static const std::vector<std::string> kBuckets = {
      "sel_50pct", "sel_10pct", "sel_1pct", "sel_0.1pct"};
  return kBuckets;
}

Generated Generate(const WorkloadSpec& spec, uint64_t seed) {
  Generated out;
  // G(n, m): m distinct unordered pairs drawn uniformly. Draw the missing
  // count, drop self-loops and duplicates, repeat until m remain.
  flos::Rng rng(StreamSeed(seed, kGraph));
  std::vector<uint64_t> keys;
  keys.reserve(spec.num_edges);
  while (keys.size() < spec.num_edges) {
    for (uint64_t need = spec.num_edges - keys.size(); need > 0; --need) {
      const uint64_t u = rng.NextBounded(spec.num_nodes);
      const uint64_t v = rng.NextBounded(spec.num_nodes);
      if (u != v) keys.push_back(std::min(u, v) << 32 | std::max(u, v));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  out.edges.reserve(keys.size());
  for (const uint64_t key : keys) {
    out.edges.emplace_back(static_cast<flos::NodeId>(key >> 32),
                           static_cast<flos::NodeId>(key & 0xffffffffULL));
  }
  if (!spec.labeled) return out;

  // Zipf label popularity: P(label i) proportional to 1/(i+1)^s, each node
  // gets labels_per_node distinct labels (rejection on repeats).
  flos::Rng label_rng(StreamSeed(seed, kLabels));
  std::vector<double> cdf(spec.num_labels);
  double total = 0;
  for (uint32_t i = 0; i < spec.num_labels; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i) + 1.0, spec.label_zipf);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  out.node_labels.reserve(spec.num_nodes * spec.labels_per_node);
  for (uint64_t v = 0; v < spec.num_nodes; ++v) {
    const size_t begin = out.node_labels.size();
    while (out.node_labels.size() - begin < spec.labels_per_node) {
      const auto it =
          std::upper_bound(cdf.begin(), cdf.end(), label_rng.NextDouble());
      const auto l = static_cast<flos::LabelId>(
          std::min<size_t>(static_cast<size_t>(it - cdf.begin()),
                           cdf.size() - 1));
      if (std::find(out.node_labels.begin() +
                        static_cast<ptrdiff_t>(begin),
                    out.node_labels.end(), l) == out.node_labels.end()) {
        out.node_labels.push_back(l);
      }
    }
  }
  return out;
}

flos::Status Ingest(const WorkloadSpec& spec, const Generated& generated,
                    Inputs* inputs) {
  flos::GraphBuilder::Options options;
  options.num_nodes = static_cast<int64_t>(spec.num_nodes);
  flos::GraphBuilder builder(options);
  for (const auto& [u, v] : generated.edges) {
    if (flos::Status s = builder.AddEdge(u, v); !s.ok()) return s;
  }
  flos::Result<flos::Graph> graph = std::move(builder).Build();
  if (!graph.ok()) return graph.status();
  inputs->graph = *std::move(graph);
  if (!spec.labeled) return flos::Status::OK();

  flos::LabelStore::Builder labels(spec.num_nodes);
  for (uint32_t i = 0; i < spec.num_labels; ++i) {
    labels.table().Intern("L" + std::to_string(i));
  }
  for (size_t i = 0; i < generated.node_labels.size(); ++i) {
    labels.Add(static_cast<flos::NodeId>(i / spec.labels_per_node),
               generated.node_labels[i]);
  }
  inputs->labels = std::move(labels).Build();
  return flos::Status::OK();
}

std::vector<PredicateRow> PickPredicates(const flos::LabelStore& labels) {
  const uint64_t n = labels.NumNodes();
  std::vector<flos::LabelId> by_count(labels.NumLabels());
  std::iota(by_count.begin(), by_count.end(), flos::LabelId{0});
  std::stable_sort(by_count.begin(), by_count.end(),
                   [&labels](flos::LabelId a, flos::LabelId b) {
                     return labels.LabelNodeCount(a) >
                            labels.LabelNodeCount(b);
                   });

  // Containment: single labels ("has l") and intersections of popular
  // pairs (push selectivity down). Overlap: unions of popular pairs (push
  // it up). Equality: the exact label sets that occur.
  std::vector<Candidate> contain;
  std::vector<Candidate> overlap;
  std::vector<Candidate> equality;
  for (flos::LabelId l = 0; l < labels.NumLabels(); ++l) {
    contain.emplace_back(
        MakePredicate(flos::PredicateType::kContainment, {l}),
        labels.LabelNodeCount(l));
  }
  const size_t top = std::min<size_t>(8, by_count.size());
  for (size_t i = 0; i < top; ++i) {
    for (size_t j = i + 1; j < top; ++j) {
      auto ct = MakePredicate(flos::PredicateType::kContainment,
                              {by_count[i], by_count[j]});
      const uint64_t ct_count = CountMatches(labels, ct);
      contain.emplace_back(std::move(ct), ct_count);
      auto ov = MakePredicate(flos::PredicateType::kOverlap,
                              {by_count[i], by_count[j]});
      const uint64_t ov_count = CountMatches(labels, ov);
      overlap.emplace_back(std::move(ov), ov_count);
    }
  }
  std::unordered_map<std::string, std::pair<std::vector<flos::LabelId>,
                                            uint64_t>>
      sets;
  for (uint64_t v = 0; v < n; ++v) {
    const auto span = labels.Labels(static_cast<flos::NodeId>(v));
    if (span.empty()) continue;
    std::string key(reinterpret_cast<const char*>(span.data()),
                    span.size() * sizeof(flos::LabelId));
    auto& entry = sets[key];
    if (entry.second++ == 0) entry.first.assign(span.begin(), span.end());
  }
  for (auto& [key, entry] : sets) {
    equality.emplace_back(
        MakePredicate(flos::PredicateType::kEquality, entry.first),
        entry.second);
  }
  // Hash-map order is not portable; order equality candidates so ties in
  // the closeness test below resolve the same way everywhere.
  std::sort(equality.begin(), equality.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.first.ToString() < b.first.ToString();
            });

  const std::vector<double> targets = {0.5, 0.1, 0.01, 0.001};
  std::vector<PredicateRow> rows;
  for (size_t b = 0; b < targets.size(); ++b) {
    for (const std::vector<Candidate>* pool : {&equality, &contain, &overlap}) {
      const Candidate* best = nullptr;
      double best_gap = 0;
      for (const Candidate& cand : *pool) {
        const double fraction =
            static_cast<double>(cand.second) / static_cast<double>(n);
        const double gap = std::fabs(std::log((fraction + 1e-12) / targets[b]));
        if (best == nullptr || gap < best_gap) {
          best = &cand;
          best_gap = gap;
        }
      }
      if (best == nullptr || best_gap > std::log(2.0)) continue;
      PredicateRow row;
      row.bucket = SelectivityBuckets()[b];
      row.predicate = best->first;
      row.matching_nodes = best->second;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<Query> MakeQueries(const WorkloadSpec& spec, const Inputs& inputs,
                               uint64_t seed, uint64_t timed) {
  flos::Rng rng(StreamSeed(seed, kQueries));
  SeedSampler seeds(inputs.graph, spec.seed_zipf, &rng);

  // Rows grouped by bucket: a filtered query first draws its bucket
  // uniformly, then a row within it, so every selectivity carries the same
  // weight however many predicate types reach it.
  std::vector<std::vector<int>> bucket_rows(SelectivityBuckets().size());
  for (size_t r = 0; r < inputs.predicates.size(); ++r) {
    for (size_t b = 0; b < bucket_rows.size(); ++b) {
      if (inputs.predicates[r].bucket == SelectivityBuckets()[b]) {
        bucket_rows[b].push_back(static_cast<int>(r));
      }
    }
  }
  std::erase_if(bucket_rows,
                [](const std::vector<int>& rows) { return rows.empty(); });

  const uint64_t total = spec.warmup_queries + timed;
  std::vector<Query> out;
  out.reserve(total);
  for (uint64_t i = 0; i < total; ++i) {
    Query q;
    q.request.query_node = seeds.Next();
    q.request.c = 0.5;
    q.request.deadline_us = spec.deadline_us;
    switch (spec.kind) {
      case WorkloadKind::kUniformCold:
        q.request.measure = flos::Measure::kPhp;
        q.request.k = 10;
        break;
      case WorkloadKind::kZipfMixed: {
        // PHP at c and EI at restart c share one fixed point at c = 0.5,
        // so the warm-subgraph tier serves across measures. RWR shares it
        // too but is left out: to proof on this graph it averages ~250 ms
        // a query with multi-second outliers (README.md).
        static constexpr flos::Measure kMeasures[] = {flos::Measure::kPhp,
                                                      flos::Measure::kEi};
        static constexpr uint32_t kKs[] = {5, 10, 20};
        q.request.measure = kMeasures[rng.NextBounded(2)];
        q.request.k = kKs[rng.NextBounded(3)];
        break;
      }
      case WorkloadKind::kFilteredAnytime: {
        q.request.measure = flos::Measure::kPhp;
        q.request.k = 10;
        const std::vector<int>& rows =
            bucket_rows[rng.NextBounded(bucket_rows.size())];
        q.row = rows[rng.NextBounded(rows.size())];
        q.request.predicate =
            inputs.predicates[static_cast<size_t>(q.row)].predicate;
        break;
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace servebench
