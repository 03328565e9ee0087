#include "service/server.h"

#include <cstdio>
#include <utility>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "util/timer.h"

namespace flos {

namespace {

/// A worker's leased engine session, held for the worker's lifetime.
struct EngineWorkerState final : FrameHandler::WorkerState {
  explicit EngineWorkerState(EngineSessionPool::Lease l)
      : lease(std::move(l)) {}
  EngineSessionPool::Lease lease;
};

}  // namespace

ServiceServer::ServiceServer(const Graph* graph, ServerOptions options)
    : graph_(graph), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
}

ServiceServer::~ServiceServer() { Shutdown(); }

Status ServiceServer::Start() {
  if (frames_ != nullptr) {
    return Status::FailedPrecondition("ServiceServer::Start called twice");
  }
  if (options_.query_cache_capacity > 0) {
    query_cache_ = std::make_unique<QueryCache>(options_.query_cache_capacity);
  }
  if (options_.subgraph_cache_capacity > 0) {
    subgraph_cache_ =
        std::make_unique<SubgraphCache>(options_.subgraph_cache_capacity);
  }
  if (options_.labels != nullptr) {
    if (options_.shard_meta != nullptr) {
      // Project the global store onto this shard's replicated nodes once;
      // label ids stay global, so predicates forwarded by the router
      // evaluate unchanged here.
      for (const NodeId global : options_.shard_meta->local_to_global) {
        if (static_cast<uint64_t>(global) >= options_.labels->NumNodes()) {
          return Status::InvalidArgument(
              "label store covers " +
              std::to_string(options_.labels->NumNodes()) +
              " nodes but the shard map references global node " +
              std::to_string(global));
        }
      }
      shard_labels_ = options_.labels->Project(
          std::span<const NodeId>(options_.shard_meta->local_to_global));
      serving_labels_ = &shard_labels_;
    } else {
      if (options_.labels->NumNodes() !=
          static_cast<uint64_t>(graph_->NumNodes())) {
        return Status::InvalidArgument(
            "label store covers " +
            std::to_string(options_.labels->NumNodes()) +
            " nodes but the served graph has " +
            std::to_string(graph_->NumNodes()));
      }
      serving_labels_ = options_.labels;
    }
  }
  if (options_.shard_meta != nullptr) {
    const Graph* const graph = graph_;
    const ShardMeta* const meta = options_.shard_meta;
    sessions_ = std::make_unique<EngineSessionPool>(
        [graph, meta]() -> std::unique_ptr<GraphAccessor> {
          return std::make_unique<ShardAccessor>(graph, meta);
        },
        static_cast<size_t>(options_.num_workers), query_cache_.get(),
        subgraph_cache_.get());
  } else {
    sessions_ = std::make_unique<EngineSessionPool>(
        graph_, static_cast<size_t>(options_.num_workers),
        query_cache_.get(), subgraph_cache_.get());
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
    // No threads were spawned on the failure path; unwind so a caller can
    // retry Start (e.g. with another port).
    frames_.reset();
    sessions_.reset();
    subgraph_cache_.reset();
    query_cache_.reset();
    return started;
  }
  return Status::OK();
}

uint16_t ServiceServer::port() const {
  return frames_ != nullptr ? frames_->port() : 0;
}

void ServiceServer::WaitForShutdown() {
  if (frames_ != nullptr) frames_->WaitForShutdown();
}

void ServiceServer::Shutdown() {
  // Session pool first: a worker still blocked in Acquire (CreateWorkerState)
  // gets its empty lease and exits, letting the FrameService join finish.
  if (sessions_ != nullptr) sessions_->Shutdown();
  if (frames_ != nullptr) frames_->Shutdown();
}

std::unique_ptr<FrameHandler::WorkerState> ServiceServer::CreateWorkerState() {
  EngineSessionPool::Lease lease = sessions_->Acquire();
  if (lease.engine() == nullptr) return nullptr;  // pool already shut down
  return std::make_unique<EngineWorkerState>(std::move(lease));
}

QueryResponse ServiceServer::HandleQuery(
    WorkerState* state, const std::string& payload,
    std::chrono::steady_clock::time_point dequeue_time) {
  FlosEngine* const engine =
      static_cast<EngineWorkerState*>(state)->lease.engine();

  QueryResponse resp;
  resp.type = MessageType::kQuery;
  const Result<QueryRequest> decoded = DecodeQueryRequest(payload);
  Status failure;
  if (!decoded.ok()) {
    metrics_.requests_malformed.Increment();
    failure = decoded.status();
  } else if (decoded->k == 0 || decoded->k > options_.max_k) {
    failure = Status::InvalidArgument(
        "k must be in [1, " + std::to_string(options_.max_k) + "]");
  } else if (!(decoded->c > 0.0 && decoded->c < 1.0)) {
    failure = Status::InvalidArgument("c must be in (0, 1)");
  } else if (decoded->tht_length < 1 || decoded->tht_length > 1000) {
    failure = Status::InvalidArgument("tht_length must be in [1, 1000]");
  } else if (!decoded->predicate.empty() && serving_labels_ == nullptr) {
    failure = Status::InvalidArgument(
        "this server has no label store; filtered queries are not "
        "supported");
  }
  if (!failure.ok()) {
    metrics_.queries_error.Increment();
    return MakeErrorResponse(MessageType::kQuery, failure);
  }

  FlosOptions opts;
  opts.measure = decoded->measure;
  opts.c = decoded->c;
  opts.tht_length = static_cast<int>(decoded->tht_length);
  opts.sweep_threads = options_.sweep_threads;
  if (decoded->deadline_us > 0) {
    opts.deadline =
        dequeue_time + std::chrono::microseconds(decoded->deadline_us);
  }
  if (options_.shard_meta != nullptr) {
    // Shard mode: only the interior halo (complete adjacency) may be
    // expanded; the fringe is visit-and-bound only.
    opts.expandable_limit =
        static_cast<uint64_t>(options_.shard_meta->num_interior);
  }
  const bool is_filtered = !decoded->predicate.empty();
  if (is_filtered) {
    opts.labels = serving_labels_;
    opts.predicate = decoded->predicate;
  }

  const auto serve_start = std::chrono::steady_clock::now();
  const Result<FlosResult> result = engine->TopK(
      decoded->query_node, static_cast<int>(decoded->k), opts);
  const auto serve_end = std::chrono::steady_clock::now();
  const uint64_t serve_micros = MicrosBetween(serve_start, serve_end);
  metrics_.serve_us.Record(serve_micros);
  if (is_filtered) {
    switch (decoded->predicate.type()) {
      case PredicateType::kEquality:
        metrics_.filtered_eq_us.Record(serve_micros);
        break;
      case PredicateType::kContainment:
        metrics_.filtered_contain_us.Record(serve_micros);
        break;
      case PredicateType::kOverlap:
        metrics_.filtered_overlap_us.Record(serve_micros);
        break;
      case PredicateType::kNone:
        break;  // unreachable: is_filtered excludes kNone
    }
  }

  if (!result.ok()) {
    metrics_.queries_error.Increment();
    resp = MakeErrorResponse(MessageType::kQuery, result.status());
  } else {
    metrics_.queries_ok.Increment();
    resp.status = StatusCode::kOk;
    resp.certified = result->stats.exact;
    resp.cache_hit = result->stats.cache_hit;
    resp.halo_truncated = result->stats.frontier_clipped;
    // A result-cache hit never ran the search, so its stats describe the
    // original run; only searches that actually executed count toward the
    // warm-subgraph flag and counters.
    resp.subgraph_hit = result->stats.subgraph_hit && !resp.cache_hit;
    if (query_cache_ != nullptr) {
      if (resp.cache_hit) {
        metrics_.cache_hits.Increment();
      } else {
        metrics_.cache_misses.Increment();
      }
    }
    if (subgraph_cache_ != nullptr && !resp.cache_hit) {
      if (resp.subgraph_hit) {
        metrics_.subgraph_hits.Increment();
      } else {
        metrics_.subgraph_misses.Increment();
      }
    }
    resp.visited = result->stats.visited_nodes;
    resp.wall_us = MicrosBetween(serve_start, serve_end);
    resp.topk.reserve(result->topk.size());
    for (const ScoredNode& s : result->topk) {
      ResponseEntry e;
      e.node = s.node;
      e.score = s.score;
      e.lower = s.lower;
      e.upper = s.upper;
      resp.topk.push_back(e);
    }
    if (result->stats.deadline_expired) {
      metrics_.deadline_expiries.Increment();
    }
    if (resp.halo_truncated) {
      metrics_.queries_halo_truncated.Increment();
    }
    // Filtered traffic keeps its own certified counters so the headline
    // certified_ratio stays an unfiltered-workload signal (metrics.h).
    if (is_filtered) {
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
  }
  return resp;
}

QueryResponse ServiceServer::HandleStats(WorkerState* /*state*/) {
  QueryResponse resp;
  resp.type = MessageType::kStats;
  resp.status = StatusCode::kOk;
  resp.message = metrics_.registry.RenderText();
  // Derived line: fraction of ok queries whose proof finished. The
  // raw counters stay above so dashboards can re-derive it.
  const uint64_t certified = metrics_.queries_certified.value();
  const uint64_t total = certified + metrics_.queries_uncertified.value();
  char ratio_line[64];
  std::snprintf(ratio_line, sizeof(ratio_line),
                "ratio certified_ratio %.4f\n",
                total > 0 ? static_cast<double>(certified) /
                                static_cast<double>(total)
                          : 0.0);
  resp.message += ratio_line;
  // Same idea for the warm-subgraph tier: fraction of executed searches
  // (result-cache misses) that resumed from a cached subgraph.
  const uint64_t sub_hits = metrics_.subgraph_hits.value();
  const uint64_t sub_total = sub_hits + metrics_.subgraph_misses.value();
  std::snprintf(ratio_line, sizeof(ratio_line),
                "ratio subgraph_hit_ratio %.4f\n",
                sub_total > 0 ? static_cast<double>(sub_hits) /
                                    static_cast<double>(sub_total)
                              : 0.0);
  resp.message += ratio_line;
  // Filtered traffic's own certification ratio (separate counters keep it
  // out of certified_ratio above — see metrics.h).
  const uint64_t f_certified = metrics_.filtered_certified.value();
  const uint64_t f_total =
      f_certified + metrics_.filtered_uncertified.value();
  std::snprintf(ratio_line, sizeof(ratio_line),
                "ratio filtered_certified_ratio %.4f\n",
                f_total > 0 ? static_cast<double>(f_certified) /
                                  static_cast<double>(f_total)
                            : 0.0);
  resp.message += ratio_line;
  return resp;
}

}  // namespace flos
