// Networked FLoS k-NN query service.
//
// The transport (epoll IO thread, bounded admission queue, worker threads)
// lives in FrameService; ServiceServer is the FrameHandler that gives the
// frames meaning: QUERY frames run on leased engine sessions
// (session_pool.h), STATS renders the metrics registry.
//
// Deadlines: a QUERY's `deadline_us` (relative, 0 = none) is anchored at
// DEQUEUE time and handed to the engine as an absolute steady_clock
// deadline. An expired query is still a useful answer: status ok,
// `certified = 0`, and the current top-k with rigorous lower/upper bounds
// (FLoS's anytime guarantee — see FlosOptions::deadline).
//
// Shard mode: when `shard_meta` is set the served graph is one shard of a
// partition (graph/partition.h). Sessions then run over ShardAccessors
// (global degrees + external-degree bound keep every bound exact), the
// engine's expandable frontier is limited to the interior halo, and a
// search that stops at the halo boundary answers uncertified with the
// halo-truncated wire flag set — bounds still rigorous, so the anytime
// contract survives partitioning.

#ifndef FLOS_SERVICE_SERVER_H_
#define FLOS_SERVICE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/query_cache.h"
#include "core/subgraph_cache.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "graph/partition.h"
#include "service/frame_service.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/session_pool.h"
#include "util/status.h"

namespace flos {

/// Server configuration.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with ServiceServer::port().
  uint16_t port = 0;
  /// Query worker threads; also the engine-session pool size.
  int num_workers = 4;
  /// Admission-control cap: QUERY frames waiting for a worker. Beyond this
  /// the server answers `overloaded` without queuing.
  size_t max_queue_depth = 256;
  /// Frames larger than this are a protocol violation (connection closed).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Whether a SHUTDOWN frame from a client unblocks WaitForShutdown.
  bool allow_remote_shutdown = true;
  /// Serving cap on k (bounds the response frame size).
  uint32_t max_k = 10000;
  /// Certified-result cache entries shared by every worker session
  /// (core/query_cache.h); 0 disables caching. Safe because the served
  /// graph is immutable (epoch 0 forever), so entries never go stale;
  /// repeat queries — the head of any Zipf-skewed workload — answer in
  /// microseconds with the same certified bounds the search produced.
  size_t query_cache_capacity = 4096;
  /// Warm-subgraph cache entries shared by every worker session
  /// (core/subgraph_cache.h); 0 disables the tier. The second cache tier
  /// under the result cache: a repeat seed whose exact (k, measure, c)
  /// combination misses the result cache still skips the expansion phase
  /// by resuming from its cached expanded subgraph and converged bounds —
  /// the dominant cost of a cold certified query. Entries hold whole
  /// visited-set snapshots, so capacities are much smaller than
  /// query_cache_capacity.
  size_t subgraph_cache_capacity = 64;
  /// Retired with FlosOptions::sweep_threads: bound sweeps are serial.
  /// Kept only so existing callers that assign it keep compiling; Start()
  /// fails with InvalidArgument for any value other than 1.
  int sweep_threads = 1;
  /// Non-null = shard mode: `graph` is the shard-local graph described by
  /// this metadata (must outlive the server). Query nodes are SHARD-LOCAL
  /// ids; the router translates global ids before forwarding.
  const ShardMeta* shard_meta = nullptr;
  /// Non-null enables filtered (label-constrained) queries. Covers the
  /// GLOBAL graph: in shard mode Start() projects it onto the shard's
  /// replicated nodes through `shard_meta->local_to_global`, so predicates
  /// evaluate shard-locally with their global label ids intact; without
  /// shard_meta it must cover exactly `graph`'s nodes. Must outlive the
  /// server. When null, QUERY frames carrying a predicate are rejected
  /// with a clean invalid_argument response.
  const LabelStore* labels = nullptr;
};

/// The query server. Start() spawns the threads; Shutdown() (or the
/// destructor) joins them. `graph` must stay alive and immutable for the
/// server's lifetime.
class ServiceServer final : private FrameHandler {
 public:
  ServiceServer(const Graph* graph, ServerOptions options);
  ~ServiceServer() override;

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and spawns the IO + worker threads.
  Status Start();

  /// Port actually bound (valid after Start; resolves ephemeral binds).
  uint16_t port() const;

  /// Blocks until a client sends SHUTDOWN or Shutdown() is called.
  void WaitForShutdown();

  /// Stops accepting, drains threads, closes every connection. Idempotent;
  /// safe to call whether or not Start succeeded.
  void Shutdown();

  /// Live metrics (readable concurrently with serving).
  const ServiceMetrics& metrics() const { return metrics_; }

 private:
  // FrameHandler: each worker leases one engine session for its lifetime.
  std::unique_ptr<WorkerState> CreateWorkerState() override;
  QueryResponse HandleQuery(
      WorkerState* state, const std::string& payload,
      std::chrono::steady_clock::time_point dequeue_time) override;
  QueryResponse HandleStats(WorkerState* state) override;

  const Graph* graph_;
  ServerOptions options_;
  ServiceMetrics metrics_;

  /// Shard mode only: options_.labels projected onto this shard's local id
  /// space (label ids stay global). Built once in Start().
  LabelStore shard_labels_;
  /// The store queries evaluate against: &shard_labels_ in shard mode,
  /// options_.labels otherwise, nullptr when filtering is disabled.
  const LabelStore* serving_labels_ = nullptr;

  std::unique_ptr<QueryCache> query_cache_;  // must outlive sessions_
  std::unique_ptr<SubgraphCache> subgraph_cache_;  // must outlive sessions_
  std::unique_ptr<EngineSessionPool> sessions_;
  // Declared after the pool: destroyed (joining worker threads) first.
  std::unique_ptr<FrameService> frames_;
};

}  // namespace flos

#endif  // FLOS_SERVICE_SERVER_H_
