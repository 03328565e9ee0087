#include "service/shard_router.h"

#include <cstdio>
#include <utility>

#include "util/timer.h"

namespace flos {

/// One router worker's backend connections: clients[i] talks to shard i.
/// A default-constructed (closed) client means "connect on next use".
struct ShardRouter::BackendSet final : FrameHandler::WorkerState {
  explicit BackendSet(size_t num_shards)
      : clients(num_shards), connected(num_shards, false) {}
  std::vector<ServiceClient> clients;
  std::vector<bool> connected;
};

ShardRouter::ShardRouter(ShardRouteTable route, ShardRouterOptions options)
    : route_(std::move(route)), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  const size_t n = route_.num_shards();
  for (size_t i = 0; i < n; ++i) {
    shard_forwarded_.emplace_back();
    shard_errors_.emplace_back();
    shard_inflight_.emplace_back();
    const std::string prefix = "shard" + std::to_string(i);
    metrics_.registry.RegisterCounter(prefix + "_forwarded",
                                      &shard_forwarded_.back());
    metrics_.registry.RegisterCounter(prefix + "_errors",
                                      &shard_errors_.back());
    metrics_.registry.RegisterGauge(prefix + "_inflight",
                                    &shard_inflight_.back());
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

Status ShardRouter::Start() {
  if (frames_ != nullptr) {
    return Status::FailedPrecondition("ShardRouter::Start called twice");
  }
  if (options_.shards.size() != route_.num_shards()) {
    return Status::InvalidArgument(
        "endpoint list has " + std::to_string(options_.shards.size()) +
        " shards but the route table has " +
        std::to_string(route_.num_shards()));
  }
  FrameServiceOptions fopts;
  fopts.host = options_.host;
  fopts.port = options_.port;
  fopts.num_workers = options_.num_workers;
  fopts.max_queue_depth = options_.max_queue_depth;
  fopts.max_frame_bytes = options_.max_frame_bytes;
  fopts.allow_remote_shutdown = options_.allow_remote_shutdown;
  frames_ = std::make_unique<FrameService>(
      std::move(fopts), static_cast<FrameHandler*>(this), &metrics_);
  const Status started = frames_->Start();
  if (!started.ok()) {
    frames_.reset();
    return started;
  }
  return Status::OK();
}

uint16_t ShardRouter::port() const {
  return frames_ != nullptr ? frames_->port() : 0;
}

void ShardRouter::WaitForShutdown() {
  if (frames_ != nullptr) frames_->WaitForShutdown();
}

void ShardRouter::Shutdown() {
  if (frames_ != nullptr) frames_->Shutdown();
}

void ShardRouter::ShutdownBackends() {
  for (const ShardEndpoint& ep : options_.shards) {
    Result<ServiceClient> client =
        ServiceClient::Connect(ep.host, ep.port, options_.backend_retry);
    if (!client.ok()) continue;  // already down is fine
    (void)client->Shutdown();
  }
}

std::unique_ptr<FrameHandler::WorkerState> ShardRouter::CreateWorkerState() {
  return std::make_unique<BackendSet>(route_.num_shards());
}

Result<ServiceClient*> ShardRouter::Backend(BackendSet* set, uint32_t shard) {
  if (!set->connected[shard]) {
    const ShardEndpoint& ep = options_.shards[shard];
    FLOS_ASSIGN_OR_RETURN(
        set->clients[shard],
        ServiceClient::Connect(ep.host, ep.port, options_.backend_retry));
    set->connected[shard] = true;
  }
  return &set->clients[shard];
}

QueryResponse ShardRouter::HandleQuery(
    WorkerState* state, const std::string& payload,
    std::chrono::steady_clock::time_point /*dequeue_time*/) {
  BackendSet* const set = static_cast<BackendSet*>(state);

  const Result<QueryRequest> decoded = DecodeQueryRequest(payload);
  if (!decoded.ok()) {
    metrics_.requests_malformed.Increment();
    metrics_.queries_error.Increment();
    return MakeErrorResponse(MessageType::kQuery, decoded.status());
  }
  if (static_cast<uint64_t>(decoded->query_node) >= route_.global_nodes()) {
    metrics_.queries_error.Increment();
    return MakeErrorResponse(
        MessageType::kQuery,
        Status::OutOfRange("query node " +
                           std::to_string(decoded->query_node) +
                           " exceeds the partitioned graph (" +
                           std::to_string(route_.global_nodes()) + " nodes)"));
  }
  const uint32_t shard = route_.ShardOf(decoded->query_node);

  Result<ServiceClient*> backend = Backend(set, shard);
  if (!backend.ok()) {
    shard_errors_[shard].Increment();
    metrics_.queries_error.Increment();
    return MakeErrorResponse(MessageType::kQuery, backend.status());
  }

  // Forward with the seed rewritten into the shard's local id space; all
  // other fields (measure, k, c, deadline, flags) pass through verbatim.
  QueryRequest forwarded = *decoded;
  forwarded.query_node = route_.LocalOf(decoded->query_node);

  shard_forwarded_[shard].Increment();
  shard_inflight_[shard].Add(1);
  const auto serve_start = std::chrono::steady_clock::now();
  Result<QueryResponse> answer = (*backend)->Query(forwarded);
  const auto serve_end = std::chrono::steady_clock::now();
  shard_inflight_[shard].Add(-1);
  metrics_.serve_us.Record(MicrosBetween(serve_start, serve_end));

  if (!answer.ok()) {
    // Transport-level failure: the connection is in an unknown state, so
    // drop it; the next query for this shard reconnects with backoff.
    set->clients[shard].Close();
    set->connected[shard] = false;
    shard_errors_[shard].Increment();
    metrics_.queries_error.Increment();
    return MakeErrorResponse(
        MessageType::kQuery,
        Status::Unavailable("shard " + std::to_string(shard) +
                            " failed mid-query: " +
                            answer.status().ToString()));
  }

  QueryResponse resp = std::move(*answer);
  // Translate result ids back into the global space before the client
  // sees them.
  for (ResponseEntry& e : resp.topk) {
    const Result<NodeId> global =
        route_.ToGlobal(shard, static_cast<NodeId>(e.node));
    if (!global.ok()) {
      shard_errors_[shard].Increment();
      metrics_.queries_error.Increment();
      return MakeErrorResponse(
          MessageType::kQuery,
          Status::Corruption("shard " + std::to_string(shard) +
                             " returned unmapped local node " +
                             std::to_string(e.node)));
    }
    e.node = static_cast<uint64_t>(*global);
  }

  if (resp.status == StatusCode::kOk) {
    metrics_.queries_ok.Increment();
    if (resp.cache_hit) metrics_.cache_hits.Increment();
    if (resp.halo_truncated) metrics_.queries_halo_truncated.Increment();
    // Mirror the server's split: filtered traffic has its own certified
    // counters so the router's certified_ratio stays comparable to its
    // backends' (see metrics.h).
    if (!decoded->predicate.empty()) {
      metrics_.filtered_queries.Increment();
      if (resp.certified) {
        metrics_.filtered_certified.Increment();
      } else {
        metrics_.filtered_uncertified.Increment();
      }
    } else if (resp.certified) {
      metrics_.queries_certified.Increment();
    } else {
      metrics_.queries_uncertified.Increment();
    }
  } else {
    metrics_.queries_error.Increment();
  }
  return resp;
}

QueryResponse ShardRouter::HandleStats(WorkerState* state) {
  BackendSet* const set = static_cast<BackendSet*>(state);
  QueryResponse resp;
  resp.type = MessageType::kStats;
  resp.status = StatusCode::kOk;
  resp.message = "router\n" + metrics_.registry.RenderText();
  for (uint32_t shard = 0; shard < route_.num_shards(); ++shard) {
    const ShardEndpoint& ep = options_.shards[shard];
    resp.message += "shard " + std::to_string(shard) + " " + ep.host + ":" +
                    std::to_string(ep.port) + "\n";
    Result<ServiceClient*> backend = Backend(set, shard);
    Result<QueryResponse> stats =
        backend.ok() ? (*backend)->Stats()
                     : Result<QueryResponse>(backend.status());
    if (!stats.ok() || stats->status != StatusCode::kOk) {
      if (backend.ok()) {
        // Same containment as queries: an unreadable backend connection
        // gets dropped and re-dialed on next use.
        set->clients[shard].Close();
        set->connected[shard] = false;
      }
      shard_errors_[shard].Increment();
      resp.message += "unavailable: " +
                      (stats.ok() ? stats->message
                                  : stats.status().ToString()) +
                      "\n";
      continue;
    }
    resp.message += stats->message;
  }
  return resp;
}

}  // namespace flos
