#include "graph/labels.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"
#include "util/line_reader.h"
#include "util/rng.h"

namespace flos {

LabelId LabelTable::Intern(std::string_view name) {
  const auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

LabelId LabelTable::Find(std::string_view name) const {
  const auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kInvalidLabel : it->second;
}

void LabelStore::Builder::Add(NodeId node, LabelId label) {
  FLOS_CHECK_LT(static_cast<size_t>(node), per_node_.size(),
                "LabelStore::Builder::Add: node out of range");
  FLOS_CHECK(label != kInvalidLabel,
             "LabelStore::Builder::Add: invalid label id");
  per_node_[node].push_back(label);
}

LabelStore LabelStore::Builder::Build() && {
  LabelStore store;
  store.table_ = std::move(table_);
  store.counts_.assign(store.table_.size(), 0);
  store.offsets_.reserve(per_node_.size() + 1);
  store.offsets_.push_back(0);
  for (std::vector<LabelId>& labels : per_node_) {
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    for (const LabelId l : labels) {
      FLOS_CHECK_LT(l, store.table_.size(),
                    "LabelStore::Builder::Build: label id was never "
                    "interned in the builder's table");
      store.ids_.push_back(l);
      ++store.counts_[l];
    }
    store.offsets_.push_back(store.ids_.size());
  }
  return store;
}

LabelStore LabelStore::Project(
    std::span<const NodeId> local_to_global) const {
  LabelStore out;
  out.table_ = table_;  // ids stay global across shards
  out.counts_.assign(table_.size(), 0);
  out.offsets_.reserve(local_to_global.size() + 1);
  out.offsets_.push_back(0);
  for (const NodeId global : local_to_global) {
    FLOS_CHECK_LT(static_cast<uint64_t>(global), NumNodes(),
                  "LabelStore::Project: global id out of range");
    for (const LabelId l : Labels(global)) {
      out.ids_.push_back(l);
      ++out.counts_[l];
    }
    out.offsets_.push_back(out.ids_.size());
  }
  return out;
}

namespace {

Status ValidateGenOptions(const LabelGenOptions& options) {
  if (options.num_labels == 0) {
    return Status::InvalidArgument("label generator needs num_labels >= 1");
  }
  if (options.labels_per_node < 1 ||
      options.labels_per_node > options.num_labels) {
    return Status::InvalidArgument(
        "labels_per_node must be in [1, num_labels]");
  }
  return Status::OK();
}

/// Interns the universe "L0".."L<n-1>" so label id == universe index.
void InternUniverse(LabelStore::Builder* builder, uint32_t num_labels) {
  char name[16];
  for (uint32_t i = 0; i < num_labels; ++i) {
    std::snprintf(name, sizeof(name), "L%u", i);
    const LabelId id = builder->table().Intern(name);
    FLOS_CHECK_EQ(id, i, "label universe interned out of order");
  }
}

/// Draws `count` DISTINCT labels for one node from the distribution whose
/// cumulative weights are `cdf` (cdf.back() == 1), appending them via
/// builder->Add. Rejection sampling with a deterministic fallback: after a
/// bounded number of rejected draws the smallest-id unpicked label with
/// positive probability is taken, so pathological skew cannot stall the
/// generator (the fallback fires with vanishing probability in practice).
void SampleDistinctFromCdf(const std::vector<double>& cdf, uint32_t count,
                           Rng* rng, LabelStore::Builder* builder,
                           NodeId node, std::vector<LabelId>* picked) {
  picked->clear();
  const auto already_picked = [&](LabelId l) {
    return std::find(picked->begin(), picked->end(), l) != picked->end();
  };
  for (uint32_t draw = 0; draw < count; ++draw) {
    LabelId chosen = kInvalidLabel;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double u = rng->NextDouble();
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      const LabelId l = static_cast<LabelId>(
          std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
      if (!already_picked(l)) {
        chosen = l;
        break;
      }
    }
    if (chosen == kInvalidLabel) {
      for (LabelId l = 0; l < cdf.size(); ++l) {
        const double mass = cdf[l] - (l == 0 ? 0.0 : cdf[l - 1]);
        if (mass > 0 && !already_picked(l)) {
          chosen = l;
          break;
        }
      }
    }
    FLOS_CHECK(chosen != kInvalidLabel,
               "label sampling exhausted the positive-probability universe");
    picked->push_back(chosen);
    builder->Add(node, chosen);
  }
}

Result<LabelStore> GenerateFromCdf(const LabelGenOptions& options,
                                   std::vector<double> cdf) {
  LabelStore::Builder builder(options.num_nodes);
  InternUniverse(&builder, options.num_labels);
  Rng rng(options.seed);
  std::vector<LabelId> picked;
  picked.reserve(options.labels_per_node);
  for (uint64_t node = 0; node < options.num_nodes; ++node) {
    SampleDistinctFromCdf(cdf, options.labels_per_node, &rng, &builder,
                          static_cast<NodeId>(node), &picked);
  }
  return std::move(builder).Build();
}

}  // namespace

Result<LabelStore> GenerateUniformLabels(const LabelGenOptions& options) {
  FLOS_RETURN_IF_ERROR(ValidateGenOptions(options));
  LabelStore::Builder builder(options.num_nodes);
  InternUniverse(&builder, options.num_labels);
  Rng rng(options.seed);
  for (uint64_t node = 0; node < options.num_nodes; ++node) {
    for (const uint64_t l :
         rng.SampleDistinct(options.num_labels, options.labels_per_node)) {
      builder.Add(static_cast<NodeId>(node), static_cast<LabelId>(l));
    }
  }
  return std::move(builder).Build();
}

Result<LabelStore> GenerateZipfLabels(const LabelGenOptions& options) {
  FLOS_RETURN_IF_ERROR(ValidateGenOptions(options));
  if (!(options.zipf_exponent > 0)) {
    return Status::InvalidArgument("zipf_exponent must be > 0");
  }
  std::vector<double> cdf(options.num_labels);
  double total = 0;
  for (uint32_t i = 0; i < options.num_labels; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i) + 1.0,
                            options.zipf_exponent);
    cdf[i] = total;
  }
  for (double& x : cdf) x /= total;
  return GenerateFromCdf(options, std::move(cdf));
}

Result<LabelStore> GenerateMultinomialLabels(
    const LabelGenOptions& options, std::span<const double> weights) {
  FLOS_RETURN_IF_ERROR(ValidateGenOptions(options));
  if (weights.size() != options.num_labels) {
    return Status::InvalidArgument(
        "multinomial weights must have num_labels entries");
  }
  double total = 0;
  uint32_t positive = 0;
  for (const double w : weights) {
    if (!(w >= 0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          "multinomial weights must be finite and >= 0");
    }
    if (w > 0) ++positive;
    total += w;
  }
  if (!(total > 0)) {
    return Status::InvalidArgument("multinomial weights must sum to > 0");
  }
  if (positive < options.labels_per_node) {
    return Status::InvalidArgument(
        "multinomial needs at least labels_per_node labels with positive "
        "weight");
  }
  std::vector<double> cdf(options.num_labels);
  double running = 0;
  for (uint32_t i = 0; i < options.num_labels; ++i) {
    running += weights[i] / total;
    cdf[i] = running;
  }
  cdf.back() = 1.0;
  return GenerateFromCdf(options, std::move(cdf));
}

namespace {

std::string_view Trim(std::string_view s) {
  const size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(" \t\r") - first + 1);
}

}  // namespace

Result<LabelStore> ReadLabelFile(const std::string& path, int64_t num_nodes) {
  FLOS_ASSIGN_OR_RETURN(LineReader reader,
                        LineReader::Open(path, "label file"));

  // Two passes over parsed rows would need the file in memory anyway, so
  // collect per-node name lists first and intern at the end (interning
  // order = first-appearance order, deterministic for a given file).
  std::vector<std::vector<std::string>> rows;
  while (reader.Next()) {
    std::string_view rest = Trim(reader.line());
    if (!rest.empty() && rest.front() == '#') continue;
    rows.emplace_back();
    if (rest.empty()) continue;  // node with no labels
    while (true) {
      const size_t comma = rest.find(',');
      const std::string_view token = Trim(rest.substr(0, comma));
      if (token.empty()) {
        return reader.Fail("empty label name (stray comma?)");
      }
      rows.back().emplace_back(token);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  FLOS_RETURN_IF_ERROR(reader.status());
  if (num_nodes >= 0 && rows.size() != static_cast<uint64_t>(num_nodes)) {
    return Status::Corruption(
        path + ": label file has " + std::to_string(rows.size()) +
        " node lines, graph has " + std::to_string(num_nodes) + " nodes");
  }

  LabelStore::Builder builder(rows.size());
  for (size_t node = 0; node < rows.size(); ++node) {
    for (const std::string& name : rows[node]) {
      builder.Add(static_cast<NodeId>(node), builder.table().Intern(name));
    }
  }
  return std::move(builder).Build();
}

Status WriteLabelFile(const LabelStore& store, const std::string& path) {
  // Names containing the format's structural characters cannot round-trip.
  for (LabelId l = 0; l < store.NumLabels(); ++l) {
    const std::string& name = store.table().Name(l);
    if (name.empty() || name.find(',') != std::string::npos ||
        name.find('\n') != std::string::npos || Trim(name) != name ||
        name.front() == '#') {
      return Status::InvalidArgument(
          "label name not representable in the label-file format: '" + name +
          "'");
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot create label file: " + path);
  }
  std::fprintf(f, "# flos labels: %llu nodes, %u labels\n",
               static_cast<unsigned long long>(store.NumNodes()),
               store.NumLabels());
  for (uint64_t node = 0; node < store.NumNodes(); ++node) {
    const auto labels = store.Labels(static_cast<NodeId>(node));
    for (size_t i = 0; i < labels.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",",
                   store.table().Name(labels[i]).c_str());
    }
    std::fputc('\n', f);
  }
  if (std::fclose(f) != 0) {
    return Status::IoError("failed writing label file: " + path);
  }
  return Status::OK();
}

}  // namespace flos
