// Command-line k-NN query tool: load a SNAP-style edge list (or generate a
// synthetic graph), then answer top-k proximity queries from the command
// line — the whole library surface in one utility.
//
//   ./examples/knn_cli --graph=my_edges.txt --measure=rwr --k=10 5 42 777
//   ./examples/knn_cli --synthetic-nodes=50000 --measure=php 123
//   ./examples/knn_cli --graph=my_edges.txt --batch-file=ids.txt --threads=4
//
// Positional arguments are query node ids. Without any, a few random
// queries are run. With --batch-file (one node id per line, '#' comments),
// --threads workers answer the whole batch, each leasing a warm FlosEngine
// from an EngineSessionPool; results print in input order.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "batch_runner.h"
#include "core/flos.h"
#include "core/predicate.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/labels.h"
#include "graph/stats.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

void PrintResult(const flos::FlosResult& result, bool show_bounds) {
  for (const flos::ScoredNode& s : result.topk) {
    if (show_bounds) {
      std::printf("  %-10u %-12.6g in [%.6g, %.6g]\n", s.node, s.score,
                  s.lower, s.upper);
    } else {
      std::printf("  %-10u %.6g\n", s.node, s.score);
    }
  }
}

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  std::string graph_path;
  std::string measure_name = "php";
  int64_t k = 10;
  double c = 0.5;
  int64_t tht_length = 10;
  int64_t synthetic_nodes = 10000;
  int64_t seed = 1;
  bool show_bounds = false;
  std::string batch_file;
  int64_t threads = 0;
  std::string label_file;
  std::string predicate_text = "none";
  int64_t synthetic_labels = 0;
  int64_t labels_per_node = 3;
  flags.AddString("graph", &graph_path, "SNAP-style edge list to load");
  flags.AddString("batch-file", &batch_file,
                  "file of query node ids, one per line");
  flags.AddInt("threads", &threads,
               "worker threads for --batch-file (0 = all cores)");
  flags.AddString("measure", &measure_name, "php|ei|dht|tht|rwr");
  flags.AddInt("k", &k, "neighbors to return");
  flags.AddDouble("c", &c, "decay factor / restart probability");
  flags.AddInt("tht-length", &tht_length, "THT truncation L");
  flags.AddInt("synthetic-nodes", &synthetic_nodes,
               "R-MAT size when --graph is not given");
  flags.AddInt("seed", &seed, "seed for generation / query sampling");
  flags.AddBool("bounds", &show_bounds, "print certified score intervals");
  flags.AddString("label-file", &label_file,
                  "per-node label file (line i = labels of node i)");
  flags.AddString("predicate", &predicate_text,
                  "label filter: none | <eq|contain|overlap>:<label>,...");
  flags.AddInt("synthetic-labels", &synthetic_labels,
               "generate a Zipf label universe of this size when "
               "--label-file is not given (0 = no labels)");
  flags.AddInt("labels-per-node", &labels_per_node,
               "labels per node for --synthetic-labels");
  if (const flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }

  flos::Graph graph;
  if (!graph_path.empty()) {
    auto loaded = flos::ReadEdgeList(graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
  } else {
    flos::GeneratorOptions options;
    options.num_nodes = static_cast<uint64_t>(synthetic_nodes);
    options.num_edges = static_cast<uint64_t>(synthetic_nodes) * 8;
    options.seed = static_cast<uint64_t>(seed);
    auto generated = flos::GenerateRmat(options);
    if (!generated.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
  }
  std::printf("# %s\n", flos::StatsToString(flos::ComputeStats(graph)).c_str());

  auto measure = flos::ParseMeasure(measure_name);
  if (!measure.ok()) {
    std::fprintf(stderr, "%s\n", measure.status().ToString().c_str());
    return 1;
  }
  flos::FlosOptions options;
  options.measure = *measure;
  options.c = c;
  options.tht_length = static_cast<int>(tht_length);

  // Filtered queries: attach a label store (from file or generated) and
  // the parsed predicate.
  flos::LabelStore labels;
  bool have_labels = false;
  if (!label_file.empty()) {
    auto loaded =
        flos::ReadLabelFile(label_file, static_cast<int64_t>(graph.NumNodes()));
    if (!loaded.ok()) {
      std::fprintf(stderr, "labels: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    labels = std::move(loaded).value();
    have_labels = true;
  } else if (synthetic_labels > 0) {
    flos::LabelGenOptions gen;
    gen.num_nodes = graph.NumNodes();
    gen.num_labels = static_cast<uint32_t>(synthetic_labels);
    gen.labels_per_node = static_cast<uint32_t>(labels_per_node);
    gen.seed = static_cast<uint64_t>(seed) + 7;
    auto generated = flos::GenerateZipfLabels(gen);
    if (!generated.ok()) {
      std::fprintf(stderr, "labels: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    labels = std::move(generated).value();
    have_labels = true;
  }
  auto predicate = flos::ParsePredicate(predicate_text,
                                        have_labels ? &labels.table() : nullptr);
  if (!predicate.ok()) {
    std::fprintf(stderr, "predicate: %s\n",
                 predicate.status().ToString().c_str());
    return 1;
  }
  if (!predicate->empty()) {
    if (!have_labels) {
      std::fprintf(stderr,
                   "--predicate needs --label-file or --synthetic-labels\n");
      return 1;
    }
    options.labels = &labels;
    options.predicate = *predicate;
    std::printf("# filter %s (at most %llu matching nodes)\n",
                predicate->ToString().c_str(),
                static_cast<unsigned long long>(
                    predicate->MaxMatches(labels)));
  }

  if (!batch_file.empty()) {
    auto batch = flos::cli::ReadBatchFile(batch_file, graph.NumNodes());
    if (!batch.ok()) {
      std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
      return 1;
    }
    const std::vector<flos::NodeId> queries = std::move(batch).value();
    flos::WallTimer timer;
    auto results = flos::cli::RunBatch(graph, queries, static_cast<int>(k),
                                       options, static_cast<int>(threads));
    if (!results.ok()) {
      std::fprintf(stderr, "batch: %s\n", results.status().ToString().c_str());
      return 1;
    }
    const double ms = timer.ElapsedMillis();
    std::printf("batch of %zu queries (%s, k=%lld): %.2f ms total, %.1f qps\n",
                queries.size(), flos::MeasureName(*measure).c_str(),
                static_cast<long long>(k), ms,
                1000.0 * static_cast<double>(queries.size()) / ms);
    for (size_t i = 0; i < queries.size(); ++i) {
      const flos::FlosResult& r = (*results)[i];
      std::printf("query %u: visited %llu, %s\n", queries[i],
                  static_cast<unsigned long long>(r.stats.visited_nodes),
                  r.stats.exact ? "exact" : "approximate");
      PrintResult(r, show_bounds);
    }
    return 0;
  }

  std::vector<flos::NodeId> queries;
  for (const std::string& arg : flags.positional_args()) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(arg.c_str(), &end, 10);
    if (end == arg.c_str() || *end != '\0' || v >= graph.NumNodes()) {
      std::fprintf(stderr, "bad query node '%s'\n", arg.c_str());
      return 1;
    }
    queries.push_back(static_cast<flos::NodeId>(v));
  }
  if (queries.empty()) {
    flos::Rng rng(static_cast<uint64_t>(seed) + 99);
    while (queries.size() < 3) {
      const auto q =
          static_cast<flos::NodeId>(rng.NextBounded(graph.NumNodes()));
      if (graph.Degree(q) > 0) queries.push_back(q);
    }
  }

  for (const flos::NodeId q : queries) {
    flos::WallTimer timer;
    auto result = FlosTopK(graph, q, static_cast<int>(k), options);
    if (!result.ok()) {
      std::fprintf(stderr, "query %u: %s\n", q,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("query %u (%s, k=%lld): %.2f ms, visited %llu/%llu, %s\n", q,
                flos::MeasureName(*measure).c_str(), static_cast<long long>(k),
                timer.ElapsedMillis(),
                static_cast<unsigned long long>(result->stats.visited_nodes),
                static_cast<unsigned long long>(graph.NumNodes()),
                result->stats.exact ? "exact" : "approximate");
    PrintResult(*result, show_bounds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
