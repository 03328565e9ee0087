// Shard router front-end: one endpoint over a fleet of shard servers.
//
//   ./examples/flos_shard_router --maps=shards --port=7421
//       --shards=127.0.0.1:7430,127.0.0.1:7431
//
// Reads shard<i>.map for every endpoint in --shards (in order) from the
// --maps directory, builds the seed routing table, and serves the standard
// wire protocol: clients talk global node ids and cannot tell the router
// from a single flos_server. Runs until SHUTDOWN or SIGINT/SIGTERM;
// --forward-shutdown also shuts the backend fleet down on exit.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/partition.h"
#include "service/shard_router.h"
#include "util/flags.h"

namespace {

// Ranges the integer flags are checked against before they are narrowed
// to the option types: thread counts beyond this are a typo, and a queue
// cap this large already admits far more frames than fit in memory.
constexpr int64_t kMaxThreadsFlag = 1024;
constexpr int64_t kMaxQueueFlag = int64_t{1} << 20;

flos::ShardRouter* g_router = nullptr;

void HandleSignal(int /*signum*/) {
  if (g_router != nullptr) g_router->Shutdown();
}

/// "host:port,host:port" -> endpoint list.
flos::Result<std::vector<flos::ShardEndpoint>> ParseEndpoints(
    const std::string& spec) {
  std::vector<flos::ShardEndpoint> endpoints;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon == item.size() - 1) {
      return flos::Status::InvalidArgument("bad endpoint '" + item +
                                           "' (expected host:port)");
    }
    flos::ShardEndpoint ep;
    ep.host = item.substr(0, colon);
    int port = 0;
    for (size_t i = colon + 1; i < item.size(); ++i) {
      const char ch = item[i];
      if (ch < '0' || ch > '9' || port > 65535) {
        return flos::Status::InvalidArgument("bad port in '" + item + "'");
      }
      port = port * 10 + (ch - '0');
    }
    if (port < 1 || port > 65535) {
      return flos::Status::InvalidArgument("bad port in '" + item + "'");
    }
    ep.port = static_cast<uint16_t>(port);
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    return flos::Status::InvalidArgument("--shards lists no endpoints");
  }
  return endpoints;
}

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  std::string host = "127.0.0.1";
  std::string maps_dir;
  std::string shards_spec;
  int64_t port = 0;
  int64_t workers = 4;
  int64_t max_queue = 256;
  bool forward_shutdown = false;
  flags.AddString("host", &host, "address to bind");
  flags.AddInt("port", &port, 0, 65535,
               "TCP port (0 = ephemeral, printed on start)");
  flags.AddString("maps", &maps_dir,
                  "directory holding shard<i>.map files (flos_partition)");
  flags.AddString("shards", &shards_spec,
                  "comma-separated host:port, one per shard, in shard order");
  flags.AddInt("workers", &workers, 1, kMaxThreadsFlag,
               "router worker threads (backend connections per shard)");
  flags.AddInt("max-queue", &max_queue, 1, kMaxQueueFlag,
               "admission-control queue cap (overloaded beyond this)");
  flags.AddBool("forward-shutdown", &forward_shutdown,
                "shut the backend servers down when the router exits");
  if (const flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }
  if (maps_dir.empty()) {
    std::fprintf(stderr, "--maps is required\n");
    return 1;
  }

  auto endpoints = ParseEndpoints(shards_spec);
  if (!endpoints.ok()) {
    std::fprintf(stderr, "%s\n", endpoints.status().ToString().c_str());
    return 1;
  }

  std::vector<flos::ShardMeta> metas;
  metas.reserve(endpoints->size());
  for (uint32_t i = 0; i < endpoints->size(); ++i) {
    auto meta = flos::ReadShardMap(flos::ShardMapPath(maps_dir, i));
    if (!meta.ok()) {
      std::fprintf(stderr, "shard %u map: %s\n", i,
                   meta.status().ToString().c_str());
      return 1;
    }
    metas.push_back(std::move(meta).value());
  }
  auto route = flos::ShardRouteTable::Build(std::move(metas));
  if (!route.ok()) {
    std::fprintf(stderr, "route table: %s\n",
                 route.status().ToString().c_str());
    return 1;
  }
  std::printf("# routing %llu global nodes across %zu shards\n",
              static_cast<unsigned long long>(route->global_nodes()),
              route->num_shards());

  flos::ShardRouterOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  options.num_workers = static_cast<int>(workers);
  options.max_queue_depth = static_cast<size_t>(max_queue);
  options.shards = std::move(*endpoints);
  flos::ShardRouter router(std::move(*route), options);
  if (const flos::Status s = router.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  // The CI smoke test greps this line for the ephemeral port.
  std::printf("flos_shard_router listening on %s:%u\n", host.c_str(),
              static_cast<unsigned>(router.port()));
  std::fflush(stdout);

  g_router = &router;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  router.WaitForShutdown();
  router.Shutdown();
  g_router = nullptr;
  if (forward_shutdown) router.ShutdownBackends();
  std::printf("shutting down; final metrics:\n%s",
              router.metrics().registry.RenderText().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
