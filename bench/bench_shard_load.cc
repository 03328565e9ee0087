// Shard scale-out benchmark: aggregate certified QPS of an N-shard fleet
// versus the single-process baseline on the SAME total graph.
//
// Methodology (single host): production scale-out puts each shard server
// on its own machine, so aggregate capacity is the sum of per-shard
// capacities. This host has one CPU budget, so running N saturated
// servers concurrently would just time-slice it and show a flat line that
// says nothing about the fleet. Instead the bench measures each shard
// server IN ISOLATION (closed-loop clients over loopback, queries drawn
// from that shard's core — exactly the traffic the router would send it)
// and reports the sum as the aggregate ("isolation-sum"). A separate
// router-fronted run with every server live on this one host is also
// reported, as a functional end-to-end number (router translation, pooled
// backend connections), NOT a scaling claim — it is labeled accordingly
// in the JSON.
//
// For each shard count in --shards the bench partitions the graph
// (BFS-grown cores, --halo replicated hops), reports per-shard and
// aggregate QPS, the certified and halo-truncated ratios, and the
// replication factor the halo costs, then writes the whole curve plus the
// baseline to --json (BENCH_shard.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "graph/partition.h"
#include "service/client.h"
#include "service/server.h"
#include "service/shard_router.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

/// Outcome counters for one measured workload (all connections merged).
struct Workload {
  uint64_t ok = 0;
  uint64_t certified = 0;
  uint64_t halo_truncated = 0;
  uint64_t overloaded = 0;
  uint64_t errors = 0;
  double qps = 0;

  double CertifiedRatio() const {
    return ok > 0 ? static_cast<double>(certified) /
                        static_cast<double>(ok)
                  : 0.0;
  }
  double TruncatedRatio() const {
    return ok > 0 ? static_cast<double>(halo_truncated) /
                        static_cast<double>(ok)
                  : 0.0;
  }
};

/// Closed-loop clients against host:port for `duration_s`; `draw` picks
/// each query node (global or shard-local, per the caller's target).
Workload RunWorkload(const std::string& host, uint16_t port,
                     const flos::QueryRequest& base, int64_t duration_s,
                     int64_t connections, uint64_t seed,
                     const std::function<flos::NodeId(flos::Rng&)>& draw) {
  std::atomic<bool> stop{false};
  std::vector<Workload> per_client(static_cast<size_t>(connections));
  std::vector<std::thread> clients;
  clients.reserve(per_client.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < per_client.size(); ++i) {
    clients.emplace_back([&, i] {
      Workload* w = &per_client[i];
      auto client = flos::ServiceClient::Connect(host, port);
      if (!client.ok()) {
        std::fprintf(stderr, "client connect: %s\n",
                     client.status().ToString().c_str());
        ++w->errors;
        return;
      }
      flos::Rng rng(seed + 1000 + i);
      while (!stop.load(std::memory_order_relaxed)) {
        flos::QueryRequest request = base;
        request.query_node = draw(rng);
        const auto resp = client->Query(request);
        if (!resp.ok()) {
          ++w->errors;
          return;  // transport broken; stop this connection
        }
        if (resp->status == flos::StatusCode::kOk) {
          ++w->ok;
          if (resp->certified) ++w->certified;
          if (resp->halo_truncated) ++w->halo_truncated;
        } else if (resp->status == flos::StatusCode::kOverloaded) {
          ++w->overloaded;
        } else {
          ++w->errors;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(duration_s));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Workload total;
  for (const Workload& w : per_client) {
    total.ok += w.ok;
    total.certified += w.certified;
    total.halo_truncated += w.halo_truncated;
    total.overloaded += w.overloaded;
    total.errors += w.errors;
  }
  total.qps = elapsed > 0 ? static_cast<double>(total.ok) / elapsed : 0.0;
  return total;
}

/// One row of the scaling curve.
struct CurvePoint {
  uint32_t shards = 0;
  double aggregate_qps = 0;
  double min_shard_qps = 0;
  double max_shard_qps = 0;
  double certified_ratio = 0;
  double truncated_ratio = 0;
  double replication_factor = 0;
  double router_fleet_qps = 0;  ///< single-host functional number only
};

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  double scale = 1.0;
  std::string shards_csv = "2,4,8";
  int64_t halo = 3;
  int64_t workers = 4;
  int64_t connections = 4;
  int64_t duration_s = 3;
  int64_t deadline_us = 5000;
  int64_t k = 10;
  int64_t max_queue = 256;
  int64_t query_cache = 4096;
  std::string measure_name = "php";
  int64_t seed = 42;
  bool skip_router = false;
  std::string json_path = "BENCH_shard.json";
  flags.AddDouble("scale", &scale,
                  "fraction of the 1M-node RAND preset to generate");
  flags.AddString("shards", &shards_csv, "shard counts to sweep");
  flags.AddInt("halo", &halo,
               "replicated halo hops per shard (3 keeps certified searches "
               "off the fringe on the RAND proxy)");
  flags.AddInt("workers", &workers, "query worker threads per server");
  flags.AddInt("connections", &connections,
               "closed-loop client threads per measured server");
  flags.AddInt("duration-s", &duration_s, "measured length of each run");
  flags.AddInt("deadline-us", &deadline_us,
               "per-query anytime budget (0 = run every query to proof)");
  flags.AddInt("k", &k, "neighbors per query");
  flags.AddInt("max-queue", &max_queue, "server admission-control cap");
  flags.AddInt("query-cache", &query_cache,
               "certified-result cache entries per server (0 = disable)");
  flags.AddString("measure", &measure_name, "php|ei|dht|tht|rwr");
  flags.AddInt("seed", &seed, "graph + query sampling seed");
  flags.AddBool("skip-router", &skip_router,
                "skip the router-fronted functional runs");
  flags.AddString("json", &json_path, "output file ('' = skip)");
  if (const flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  const auto measure = flos::ParseMeasure(measure_name);
  if (!measure.ok()) {
    std::fprintf(stderr, "%s\n", measure.status().ToString().c_str());
    return 1;
  }
  const std::vector<int> shard_counts = flos::bench::ParseIntList(shards_csv);

  flos::bench::SynthSpec spec;
  spec.nodes = static_cast<uint64_t>(1000000.0 * scale);
  spec.edges = spec.nodes * 5;
  spec.rmat = false;
  spec.label = "RAND n=" + std::to_string(spec.nodes);
  const flos::Graph graph = flos::bench::CheckOk(
      flos::bench::BuildSynth(spec, static_cast<uint64_t>(seed)));
  flos::bench::PrintGraphLine(spec.label, graph);

  flos::ServerOptions server_options;
  server_options.num_workers = static_cast<int>(workers);
  server_options.max_queue_depth = static_cast<size_t>(max_queue);
  server_options.query_cache_capacity =
      query_cache > 0 ? static_cast<size_t>(query_cache) : 0;

  flos::QueryRequest base;
  base.measure = *measure;
  base.k = static_cast<uint32_t>(k);
  base.deadline_us = static_cast<uint64_t>(deadline_us);

  const auto draw_global = [&graph](flos::Rng& rng) {
    flos::NodeId node;
    do {
      node = static_cast<flos::NodeId>(rng.NextBounded(graph.NumNodes()));
    } while (graph.Degree(node) == 0);
    return node;
  };

  uint64_t total_errors = 0;

  // -- Single-process baseline: the whole graph in one server. ----------
  Workload baseline;
  {
    flos::ServiceServer server(&graph, server_options);
    flos::bench::CheckOk(server.Start());
    baseline = RunWorkload(server_options.host, server.port(), base,
                           duration_s, connections,
                           static_cast<uint64_t>(seed), draw_global);
    server.Shutdown();
  }
  total_errors += baseline.errors;
  std::printf("baseline 1 process: qps %.1f  certified %.3f\n", baseline.qps,
              baseline.CertifiedRatio());

  // -- Scaling curve. ----------------------------------------------------
  std::vector<CurvePoint> curve;
  for (const int num_shards : shard_counts) {
    flos::PartitionOptions popts;
    popts.num_shards = static_cast<uint32_t>(num_shards);
    popts.halo_hops = static_cast<uint32_t>(halo);
    popts.method = flos::PartitionMethod::kBfsGrow;
    flos::GraphPartition partition =
        flos::bench::CheckOk(flos::PartitionGraph(graph, popts));

    CurvePoint point;
    point.shards = static_cast<uint32_t>(num_shards);
    point.min_shard_qps = -1;
    uint64_t replicated = 0;
    uint64_t ok = 0, certified = 0, truncated = 0;

    // Each shard server saturated alone — the capacity its own machine
    // would contribute — fed the core-local traffic the router routes it.
    for (flos::ShardPart& shard : partition.shards) {
      replicated += shard.meta.num_local();
      flos::ServerOptions shard_options = server_options;
      shard_options.shard_meta = &shard.meta;
      flos::ServiceServer server(&shard.graph, shard_options);
      flos::bench::CheckOk(server.Start());
      const flos::ShardMeta& meta = shard.meta;
      const flos::Graph& shard_graph = shard.graph;
      const auto draw_core = [&meta, &shard_graph](flos::Rng& rng) {
        flos::NodeId local;
        do {
          local = static_cast<flos::NodeId>(rng.NextBounded(meta.num_core));
        } while (shard_graph.Degree(local) == 0);
        return local;
      };
      const Workload w = RunWorkload(
          shard_options.host, server.port(), base, duration_s, connections,
          static_cast<uint64_t>(seed) + 13 * meta.shard_index, draw_core);
      server.Shutdown();
      total_errors += w.errors;
      point.aggregate_qps += w.qps;
      point.max_shard_qps = std::max(point.max_shard_qps, w.qps);
      point.min_shard_qps = point.min_shard_qps < 0
                                ? w.qps
                                : std::min(point.min_shard_qps, w.qps);
      ok += w.ok;
      certified += w.certified;
      truncated += w.halo_truncated;
      std::printf("  shard %u/%d isolated: qps %.1f  certified %.3f  "
                  "halo-truncated %.3f\n",
                  meta.shard_index, num_shards, w.qps,
                  w.CertifiedRatio(), w.TruncatedRatio());
    }
    point.certified_ratio =
        ok > 0 ? static_cast<double>(certified) / static_cast<double>(ok)
               : 0.0;
    point.truncated_ratio =
        ok > 0 ? static_cast<double>(truncated) / static_cast<double>(ok)
               : 0.0;
    point.replication_factor = static_cast<double>(replicated) /
                               static_cast<double>(graph.NumNodes());

    // Functional end-to-end check: whole fleet plus router on this one
    // host, global-id traffic through the router. CPU-bound here, so the
    // number validates the data path, not scaling.
    if (!skip_router) {
      std::vector<std::unique_ptr<flos::ServiceServer>> servers;
      std::vector<flos::ShardMeta> metas;
      flos::ShardRouterOptions router_options;
      for (flos::ShardPart& shard : partition.shards) {
        flos::ServerOptions shard_options = server_options;
        shard_options.shard_meta = &shard.meta;
        servers.push_back(std::make_unique<flos::ServiceServer>(
            &shard.graph, shard_options));
        flos::bench::CheckOk(servers.back()->Start());
        router_options.shards.push_back(
            {server_options.host, servers.back()->port()});
        metas.push_back(shard.meta);
      }
      router_options.num_workers = static_cast<int>(workers);
      flos::ShardRouter router(
          flos::bench::CheckOk(
              flos::ShardRouteTable::Build(std::move(metas))),
          router_options);
      flos::bench::CheckOk(router.Start());
      const Workload w = RunWorkload(
          router_options.host, router.port(), base, duration_s, connections,
          static_cast<uint64_t>(seed) + 777, draw_global);
      router.Shutdown();
      for (auto& server : servers) server->Shutdown();
      total_errors += w.errors;
      point.router_fleet_qps = w.qps;
    }

    std::printf("%d shards: aggregate qps %.1f (%.2fx)  certified %.3f  "
                "halo-truncated %.3f  replication %.2f  "
                "router-on-one-host qps %.1f\n",
                num_shards, point.aggregate_qps,
                baseline.qps > 0 ? point.aggregate_qps / baseline.qps : 0.0,
                point.certified_ratio, point.truncated_ratio,
                point.replication_factor, point.router_fleet_qps);
    curve.push_back(point);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"shard_load\": {\n");
    std::fprintf(
        f,
        "    \"_methodology\": \"isolation-sum: each shard server is "
        "measured saturated in isolation on this single-CPU host (the "
        "capacity its own machine contributes in a real fleet) and the "
        "aggregate is the sum; router_fleet_qps_single_host runs the whole "
        "fleet plus the router on this one host and only validates the "
        "data path, not scaling\",\n");
    std::fprintf(f, "    \"graph\": \"%s\",\n", spec.label.c_str());
    std::fprintf(f, "    \"measure\": \"%s\",\n", measure_name.c_str());
    std::fprintf(f, "    \"halo_hops\": %lld,\n",
                 static_cast<long long>(halo));
    std::fprintf(f, "    \"workers\": %lld,\n",
                 static_cast<long long>(workers));
    std::fprintf(f, "    \"connections\": %lld,\n",
                 static_cast<long long>(connections));
    std::fprintf(f, "    \"deadline_us\": %lld,\n",
                 static_cast<long long>(deadline_us));
    std::fprintf(f, "    \"k\": %lld,\n", static_cast<long long>(k));
    std::fprintf(f, "    \"duration_s_per_run\": %lld,\n",
                 static_cast<long long>(duration_s));
    std::fprintf(f, "    \"baseline_qps\": %.1f,\n", baseline.qps);
    std::fprintf(f, "    \"baseline_certified_ratio\": %.4f,\n",
                 baseline.CertifiedRatio());
    std::fprintf(f, "    \"curve\": [\n");
    for (size_t i = 0; i < curve.size(); ++i) {
      const CurvePoint& p = curve[i];
      std::fprintf(
          f,
          "      {\"shards\": %u, \"aggregate_qps\": %.1f, "
          "\"speedup\": %.2f, \"min_shard_qps\": %.1f, "
          "\"max_shard_qps\": %.1f, \"certified_ratio\": %.4f, "
          "\"halo_truncated_ratio\": %.4f, \"replication_factor\": %.2f, "
          "\"router_fleet_qps_single_host\": %.1f}%s\n",
          p.shards, p.aggregate_qps,
          baseline.qps > 0 ? p.aggregate_qps / baseline.qps : 0.0,
          p.min_shard_qps, p.max_shard_qps, p.certified_ratio,
          p.truncated_ratio, p.replication_factor, p.router_fleet_qps,
          i + 1 < curve.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return total_errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
