// Standalone FLoS k-NN query server.
//
//   ./examples/flos_server --graph=my_edges.txt --port=7421 --workers=4
//   ./examples/flos_server --synthetic-nodes=100000   # ephemeral port
//
// Loads a SNAP-style edge list (or generates an R-MAT graph), starts the
// epoll service (src/service/server.h), prints the bound address, and runs
// until a client sends SHUTDOWN (see flos_client --shutdown) or the
// process receives SIGINT/SIGTERM. On exit it prints the final metrics
// snapshot — the same text the STATS command returns.
//
// Shard mode (one process of a scaled-out fleet; see flos_partition and
// flos_shard_router):
//
//   ./examples/flos_server --shard-map=shards/shard0.map --port=7430
//
// loads shard0.{map,edges} written by flos_partition and serves the shard
// with halo-aware expansion limits; query node ids are then SHARD-LOCAL
// (the router translates global ids).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/labels.h"
#include "graph/partition.h"
#include "graph/stats.h"
#include "service/server.h"
#include "util/flags.h"

namespace {

// Ranges the integer flags are checked against before they are narrowed
// to the option types: thread counts beyond this are a typo, and a queue
// cap this large already admits far more frames than fit in memory.
constexpr int64_t kMaxThreadsFlag = 1024;
constexpr int64_t kMaxQueueFlag = int64_t{1} << 20;

flos::ServiceServer* g_server = nullptr;

void HandleSignal(int /*signum*/) {
  // Unblocks WaitForShutdown; the main thread performs the real teardown.
  if (g_server != nullptr) g_server->Shutdown();
}

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  std::string graph_path;
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t workers = 4;
  int64_t max_queue = 256;
  int64_t query_cache = 4096;
  int64_t subgraph_cache = 64;
  int64_t synthetic_nodes = 100000;
  int64_t seed = 1;
  std::string shard_map_path;
  std::string shard_edges_path;
  std::string label_file;
  int64_t synthetic_labels = 0;
  int64_t labels_per_node = 3;
  flags.AddString("graph", &graph_path, "SNAP-style edge list to serve");
  flags.AddString("shard-map", &shard_map_path,
                  "serve one shard: shard<i>.map from flos_partition");
  flags.AddString("shard-edges", &shard_edges_path,
                  "shard edge list (default: --shard-map with .edges)");
  flags.AddString("host", &host, "address to bind");
  flags.AddInt("port", &port, 0, 65535,
               "TCP port (0 = ephemeral, printed on start)");
  flags.AddInt("workers", &workers, 1, kMaxThreadsFlag,
               "query worker threads");
  flags.AddInt("max-queue", &max_queue, 1, kMaxQueueFlag,
               "admission-control queue cap (overloaded beyond this)");
  flags.AddInt("query-cache", &query_cache,
               "certified-result cache entries (0 = disable)");
  flags.AddInt("subgraph-cache", &subgraph_cache,
               "warm expanded-subgraph cache entries (0 = disable)");
  flags.AddInt("synthetic-nodes", &synthetic_nodes,
               "R-MAT size when --graph is not given");
  flags.AddInt("seed", &seed, "generator seed");
  flags.AddString("label-file", &label_file,
                  "per-node label file (GLOBAL ids; enables filtered "
                  "queries)");
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
  flos::ShardMeta shard_meta;  // must outlive the server in shard mode
  bool shard_mode = false;
  if (!shard_map_path.empty()) {
    auto meta = flos::ReadShardMap(shard_map_path);
    if (!meta.ok()) {
      std::fprintf(stderr, "shard map: %s\n",
                   meta.status().ToString().c_str());
      return 1;
    }
    shard_meta = std::move(meta).value();
    if (shard_edges_path.empty()) {
      const size_t dot = shard_map_path.rfind(".map");
      shard_edges_path = (dot == shard_map_path.size() - 4)
                             ? shard_map_path.substr(0, dot) + ".edges"
                             : shard_map_path + ".edges";
    }
    auto loaded = flos::ReadShardGraph(shard_edges_path, shard_meta);
    if (!loaded.ok()) {
      std::fprintf(stderr, "shard edges: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
    shard_mode = true;
    std::printf("# shard %u/%u: %llu local nodes (%llu core, %llu "
                "expandable), halo %u hops\n",
                shard_meta.shard_index, shard_meta.num_shards,
                static_cast<unsigned long long>(shard_meta.num_local()),
                static_cast<unsigned long long>(shard_meta.num_core),
                static_cast<unsigned long long>(shard_meta.num_interior),
                shard_meta.halo_hops);
  } else if (!graph_path.empty()) {
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

  // Label store for filtered queries. The store covers the GLOBAL graph;
  // in shard mode Start() projects it onto the shard's replicated nodes.
  flos::LabelStore labels;
  bool have_labels = false;
  const uint64_t global_nodes =
      shard_mode ? shard_meta.global_nodes : graph.NumNodes();
  if (!label_file.empty()) {
    auto loaded =
        flos::ReadLabelFile(label_file, static_cast<int64_t>(global_nodes));
    if (!loaded.ok()) {
      std::fprintf(stderr, "labels: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    labels = std::move(loaded).value();
    have_labels = true;
  } else if (synthetic_labels > 0) {
    flos::LabelGenOptions gen;
    gen.num_nodes = global_nodes;
    gen.num_labels = static_cast<uint32_t>(synthetic_labels);
    gen.labels_per_node = static_cast<uint32_t>(labels_per_node);
    // Same derivation as knn_cli so a generated graph + generated labels
    // reproduce across tools given the same --seed.
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
  if (have_labels) {
    std::printf("# labels: %llu assignments over %u labels\n",
                static_cast<unsigned long long>(labels.NumAssignments()),
                static_cast<unsigned>(labels.NumLabels()));
  }

  flos::ServerOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  options.num_workers = static_cast<int>(workers);
  options.max_queue_depth = static_cast<size_t>(max_queue);
  options.query_cache_capacity =
      query_cache > 0 ? static_cast<size_t>(query_cache) : 0;
  options.subgraph_cache_capacity =
      subgraph_cache > 0 ? static_cast<size_t>(subgraph_cache) : 0;
  if (shard_mode) options.shard_meta = &shard_meta;
  if (have_labels) options.labels = &labels;
  flos::ServiceServer server(&graph, options);
  if (const flos::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  // The CI smoke test greps this line for the ephemeral port.
  std::printf("flos_server listening on %s:%u\n", host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  server.WaitForShutdown();
  server.Shutdown();
  g_server = nullptr;
  std::printf("shutting down; final metrics:\n%s",
              server.metrics().registry.RenderText().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
