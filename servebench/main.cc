// Serving benchmark of the FLoS query service.
//
// One process starts an in-process ServiceServer over loopback and drives
// it with a closed loop of ServiceClient connections (each connection sends
// its next query only after the previous answer arrived). Every run times a
// fixed query list generated from --seed, so identical arguments mean
// identical work; caches are warmed by an untimed prefix whose cost is part
// of setup_s. Answers are checked after the timed window.
//
//   servebench --workload=uniform_cold --seed=1 --seconds=30 --trace=0
//
// --trace=0 prints the end-to-end metrics; --trace=1 prints the per-layer
// metrics, taken from the run's service pass (client spans around
// ServiceClient::Query with the server's wall_us as child), a protocol
// encode/decode replay and an in-process replay through a FlosEngine
// configured like a server session (replay.h). The last stdout line is the JSON result; the line before it
// records the run's context (host CPUs, commit, build type, sweep backend,
// graph and label parameters). See servebench/README.md.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sweep_kernel.h"
#include "measures/exact.h"
#include "replay.h"
#include "service/client.h"
#include "service/server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload.h"

#ifndef FLOS_BUILD_TYPE
#define FLOS_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One query as the client saw it.
struct Sample {
  bool transport_ok = false;
  uint64_t latency_ns = 0;
  flos::QueryResponse response;
};

/// Keeps every vCPU busy with a SCHED_IDLE spinner while it lives. On a
/// virtual machine a halted vCPU takes tens of microseconds to wake, and
/// how long varies two- to threefold with the host's load; a query crosses
/// four thread hand-offs (client, IO thread, worker, IO thread, client), so
/// on a half-idle guest that wake-up latency would dominate the short
/// queries' latency and its noise. SCHED_IDLE threads run only when nothing
/// else wants the CPU and are preempted at once by any woken thread, so the
/// measured threads keep their CPUs and merely find them awake. Where
/// SCHED_IDLE is unavailable the spinners exit instead of competing.
class KeepAwake {
 public:
  KeepAwake() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Sends queries[begin, end) in a closed loop over `connections` clients;
/// each client takes the next unsent query. Returns the wall time from
/// the moment every client is connected to the last answer.
double RunClosedLoop(uint16_t port, const std::vector<Query>& queries,
                     size_t begin, size_t end, int connections,
                     std::vector<Sample>* samples) {
  samples->assign(end - begin, Sample{});
  const KeepAwake awake;
  std::atomic<size_t> next{begin};
  std::latch connected(connections + 1);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      auto client = flos::ServiceClient::Connect("127.0.0.1", port);
      connected.count_down();
      go.wait();
      for (size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
        if (!client.ok()) continue;  // its share stays transport failures
        Sample& s = (*samples)[i - begin];
        const auto start = Clock::now();
        flos::Result<flos::QueryResponse> resp =
            client->Query(queries[i].request);
        s.latency_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
        if (!resp.ok()) return;  // connection broken; others take the rest
        s.transport_ok = true;
        s.response = *std::move(resp);
      }
    });
  }
  connected.arrive_and_wait();
  const auto start = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  return SecondsSince(start);
}

bool Answered(const Sample& s) {
  return s.transport_ok && s.response.status == flos::StatusCode::kOk;
}

/// Nearest-rank percentile of an unsorted sample (copied).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank > 0 ? rank - 1 : 0, values.size() - 1)];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

/// The system under test plus its inputs, as one set-up produces them.
struct System {
  Inputs inputs;
  std::unique_ptr<flos::ServiceServer> server;
};

/// One full set-up: graph (+ labels) ingest, server start and the untimed
/// warm-up prefix. Generates `*queries` on first use (input generation,
/// excluded from the returned time). Returns the set-up seconds and adds
/// failed warm-up queries to `*warmup_failures`.
double SetUp(const WorkloadSpec& spec, const Generated& generated,
             uint64_t seed, uint64_t timed, std::vector<Query>* queries,
             std::vector<PredicateRow>* rows, System* sys,
             uint64_t* warmup_failures) {
  auto start = Clock::now();
  flos::Status built = Ingest(spec, generated, &sys->inputs);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", built.ToString().c_str());
    std::exit(1);
  }
  double seconds = SecondsSince(start);
  const bool first_setup = queries->empty();
  if (first_setup && spec.labeled) *rows = PickPredicates(sys->inputs.labels);
  sys->inputs.predicates = *rows;
  if (first_setup) *queries = MakeQueries(spec, sys->inputs, seed, timed);

  start = Clock::now();
  flos::ServerOptions options;
  options.num_workers = spec.connections;
  if (spec.labeled) options.labels = &sys->inputs.labels;
  sys->server =
      std::make_unique<flos::ServiceServer>(&sys->inputs.graph, options);
  if (flos::Status s = sys->server->Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::vector<Sample> warm;
  RunClosedLoop(sys->server->port(), *queries, 0, spec.warmup_queries,
                spec.connections, &warm);
  for (const Sample& s : warm) {
    if (!Answered(s)) ++*warmup_failures;
  }
  return seconds + SecondsSince(start);
}

/// Result of checking the timed answers.
struct CheckResult {
  uint64_t failed = 0;
  uint64_t exact_checked = 0;
};

void Reject(CheckResult* check, size_t index, const char* why) {
  if (check->failed < 5) {
    std::fprintf(stderr, "query %zu failed: %s\n", index, why);
  }
  ++check->failed;
}

/// Checks every timed answer (status, certification on to-proof
/// workloads, ordered intervals, predicate membership) and compares a
/// seeded sample against the whole-graph exact solver.
CheckResult CheckAnswers(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::vector<Query>& queries, size_t first,
                         const std::vector<Sample>& samples, uint64_t seed) {
  CheckResult check;
  std::vector<bool> bad(samples.size(), false);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const flos::QueryRequest& req = queries[first + i].request;
    const char* why = nullptr;
    if (!s.transport_ok) {
      why = "transport error";
    } else if (s.response.status != flos::StatusCode::kOk) {
      why = s.response.status == flos::StatusCode::kOverloaded
                ? "overloaded"
                : "error status";
    } else if (spec.deadline_us == 0 && !s.response.certified) {
      why = "to-proof answer not certified";
    } else if (s.response.topk.size() > req.k) {
      why = "more than k answers";
    } else {
      std::vector<uint64_t> nodes;
      for (const flos::ResponseEntry& e : s.response.topk) {
        nodes.push_back(e.node);
        if (!(e.lower <= e.score && e.score <= e.upper)) {
          why = "interval does not bracket the score";
        } else if (e.node == req.query_node) {
          why = "query node returned";
        } else if (!req.predicate.empty() &&
                   !req.predicate.Matches(inputs.labels.Labels(
                       static_cast<flos::NodeId>(e.node)))) {
          why = "answer violates the predicate";
        }
      }
      std::sort(nodes.begin(), nodes.end());
      if (std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end()) {
        why = "node returned twice";
      }
    }
    if (why != nullptr) {
      bad[i] = true;
      Reject(&check, first + i, why);
    }
  }

  // Exact sample: the returned nodes' true scores must reach the k-th best
  // true score among eligible nodes (certified answers), and every
  // interval must contain the true score (all answers).
  constexpr int kExactSamples = 2;
  flos::Rng rng(seed ^ 0x5eed5eedULL);
  for (int n = 0; n < kExactSamples && !samples.empty(); ++n) {
    const size_t i = static_cast<size_t>(rng.NextBounded(samples.size()));
    if (bad[i]) continue;
    const flos::QueryRequest& req = queries[first + i].request;
    const flos::QueryResponse& resp = samples[i].response;
    flos::MeasureParams params;
    params.c = req.c;
    params.tht_length = static_cast<int>(req.tht_length);
    flos::Result<std::vector<double>> exact = flos::ExactMeasure(
        inputs.graph, req.query_node, req.measure, params);
    if (!exact.ok()) {
      Reject(&check, first + i, "exact solver failed");
      continue;
    }
    ++check.exact_checked;
    std::vector<double> eligible;
    for (flos::NodeId v = 0; v < static_cast<flos::NodeId>(exact->size());
         ++v) {
      if (v == req.query_node) continue;
      if (!req.predicate.empty() &&
          !req.predicate.Matches(inputs.labels.Labels(v))) {
        continue;
      }
      eligible.push_back((*exact)[v]);
    }
    const size_t want = std::min<size_t>(req.k, eligible.size());
    if (want == 0) {
      if (!resp.topk.empty()) Reject(&check, first + i, "no node is eligible");
      continue;
    }
    std::nth_element(eligible.begin(),
                     eligible.begin() + static_cast<ptrdiff_t>(want - 1),
                     eligible.end(), std::greater<double>());
    const double kth = eligible[want - 1];
    // Tolerance of the repository's parity tests; the engine's inner
    // threshold is 1e-5.
    const double tol = 2e-5 * std::max(1.0, std::fabs(kth));
    const char* why = nullptr;
    if (resp.certified && resp.topk.size() != want) {
      why = "certified answer has the wrong size";
    }
    for (const flos::ResponseEntry& e : resp.topk) {
      const double truth = (*exact)[e.node];
      if (resp.certified && truth < kth - tol) {
        why = "certified answer is not the exact top-k";
      }
      if (truth < e.lower - tol || truth > e.upper + tol) {
        why = "interval does not bracket the exact score";
      }
    }
    if (why != nullptr) Reject(&check, first + i, why);
  }
  return check;
}

/// Metric sink that renders the final JSON line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].second.first);
      out += (i > 0 ? ", \"" : "\"") + entries_[i].first +
             "\": {\"value\": " + buf + ", \"unit\": \"" +
             entries_[i].second.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Mean protocol encode/decode cost per frame, replayed over the timed
/// requests and the responses the server actually sent.
void MeasureProtocol(const std::vector<Query>& queries, size_t first,
                     const std::vector<Sample>& samples, Metrics* m) {
  std::vector<const flos::QueryRequest*> requests;
  std::vector<const flos::QueryResponse*> responses;
  std::vector<std::string> request_payloads;
  std::vector<std::string> response_payloads;
  uint64_t response_bytes = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!Answered(samples[i])) continue;
    requests.push_back(&queries[first + i].request);
    responses.push_back(&samples[i].response);
    std::string frame;
    flos::EncodeQueryRequest(*requests.back(), &frame);
    request_payloads.push_back(frame.substr(flos::kFrameHeaderBytes));
    frame.clear();
    flos::EncodeResponse(*responses.back(), &frame);
    response_bytes += frame.size();
    response_payloads.push_back(frame.substr(flos::kFrameHeaderBytes));
  }

  // Mean nanoseconds of one `op(i)` over every answered query, five passes.
  constexpr int kPasses = 5;
  uint64_t sink = 0;
  const auto per_op_ns = [&](const auto& op) {
    const auto start = Clock::now();
    for (int p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i < requests.size(); ++i) sink += op(i);
    }
    return Ratio(SecondsSince(start) * 1e9,
                 static_cast<double>(kPasses * requests.size()));
  };
  std::string scratch;
  m->Add("protocol.encode_request_ns", per_op_ns([&](size_t i) {
           scratch.clear();
           flos::EncodeQueryRequest(*requests[i], &scratch);
           return scratch.size();
         }),
         "ns");
  m->Add("protocol.decode_request_ns", per_op_ns([&](size_t i) {
           return size_t{flos::DecodeQueryRequest(request_payloads[i]).ok()};
         }),
         "ns");
  m->Add("protocol.encode_response_ns", per_op_ns([&](size_t i) {
           scratch.clear();
           flos::EncodeResponse(*responses[i], &scratch);
           return scratch.size();
         }),
         "ns");
  m->Add("protocol.decode_response_ns", per_op_ns([&](size_t i) {
           return size_t{flos::DecodeResponse(response_payloads[i]).ok()};
         }),
         "ns");
  m->Add("protocol.response_bytes",
         Ratio(response_bytes, uint64_t{responses.size()}),
         "bytes");
  if (sink == 0) std::fprintf(stderr, "protocol replay produced nothing\n");
}

/// Per-layer metrics of the traced run: client spans and server wall_us
/// of the service pass, the protocol replay and the engine replay.
void AddLayerMetrics(const WorkloadSpec& spec, const System& sys,
                     const std::vector<Query>& queries,
                     const std::vector<Sample>& samples, Metrics* m) {
  const size_t first = spec.warmup_queries;
  std::vector<double> client_us;
  std::vector<double> overhead_us;
  std::vector<double> serve_us;
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_bucket;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (!Answered(samples[i])) continue;
    const flos::QueryResponse& r = samples[i].response;
    const double client = static_cast<double>(samples[i].latency_ns) / 1e3;
    client_us.push_back(client);
    overhead_us.push_back(client - static_cast<double>(r.wall_us));
    serve_us.push_back(static_cast<double>(r.wall_us));
    const int row = queries[first + i].row;
    if (row >= 0) {
      auto& [certified, total] =
          by_bucket[sys.inputs.predicates[static_cast<size_t>(row)].bucket];
      certified += r.certified ? 1 : 0;
      ++total;
    }
  }
  m->Add("trace.latency_p50_us", Percentile(client_us, 0.50), "us");
  m->Add("frame_service.overhead_p50_us", Percentile(overhead_us, 0.50),
         "us");
  m->Add("frame_service.overhead_p99_us", Percentile(overhead_us, 0.99),
         "us");
  m->Add("server.serve_p50_us", Percentile(serve_us, 0.50), "us");
  m->Add("server.serve_p99_us", Percentile(serve_us, 0.99), "us");
  for (const std::string& bucket : SelectivityBuckets()) {
    const auto it = by_bucket.find(bucket);
    m->Add("predicate.certified_ratio." + bucket,
           it == by_bucket.end()
               ? 0.0
               : Ratio(it->second.first, it->second.second),
           "ratio");
  }

  MeasureProtocol(queries, first, samples, m);

  ReplayConfig config;
  const flos::ServerOptions server_defaults;
  config.query_cache_capacity = server_defaults.query_cache_capacity;
  config.subgraph_cache_capacity = server_defaults.subgraph_cache_capacity;
  config.sweep_threads = server_defaults.sweep_threads;
  config.deadline_visit_budget = spec.replay_visit_budget;
  config.labels = &sys.inputs.labels;
  flos::Result<ReplayTotals> replay =
      Replay(sys.inputs.graph, queries, first, config);
  if (!replay.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replay.status().ToString().c_str());
    std::exit(1);
  }
  const ReplayTotals& t = *replay;
  // Phases are timed inside each TopK call, so they never exceed its wall.
  const uint64_t phases_ns = t.expand_ns + t.solve_ns + t.select_ns;
  const uint64_t residual_ns =
      t.engine_ns > phases_ns ? t.engine_ns - phases_ns : 0;

  m->Add("query_cache.hit_ratio", Ratio(t.cache_hits, t.queries), "ratio");
  m->Add("query_cache.hit_us", Ratio(t.hit_ns, t.cache_hits) / 1e3, "us");
  m->Add("subgraph_cache.hit_ratio", Ratio(t.subgraph_hits, t.executed),
         "ratio");
  m->Add("subgraph_cache.useful_ratio", Ratio(t.subgraph_hits, t.deposits),
         "ratio");
  m->Add("flos_engine.residual_us", Ratio(residual_ns, t.executed) / 1e3,
         "us");
  m->Add("flos_engine.select_us", Ratio(t.select_ns, t.executed) / 1e3, "us");
  m->Add("flos_engine.expansions_per_query", Ratio(t.expansions, t.executed),
         "count");
  m->Add("local_graph.expand_us", Ratio(t.expand_ns, t.executed) / 1e3, "us");
  m->Add("local_graph.visited_per_query", Ratio(t.visited, t.executed),
         "count");
  m->Add("local_graph.expand_ns_per_visited", Ratio(t.expand_ns, t.visited),
         "ns");
  m->Add("accessor.fetches_per_query", Ratio(t.fetches, t.executed), "count");
  m->Add("accessor.fetch_ns", Ratio(t.fetch_ns, t.fetches), "ns");
  m->Add("accessor.fetch_share", Ratio(t.fetch_ns, t.expand_ns), "ratio");
  m->Add("bound_engine.solve_us", Ratio(t.solve_ns, t.executed) / 1e3, "us");
  m->Add("bound_engine.sweeps_per_query", Ratio(t.sweeps, t.executed),
         "count");
  m->Add("bound_engine.ns_per_sweep", Ratio(t.solve_ns, t.sweeps), "ns");

  // Ledger: the client-observed mean split into transport (client minus
  // server wall_us, service pass) and the engine's parts (replay), all as
  // means per timed query so that they add up.
  double client_sum = 0;
  double overhead_sum = 0;
  for (size_t i = 0; i < client_us.size(); ++i) {
    client_sum += client_us[i];
    overhead_sum += overhead_us[i];
  }
  const double answered = static_cast<double>(client_us.size());
  const double client_mean = Ratio(client_sum, answered);
  const std::pair<const char*, double> parts[] = {
      {"transport", Ratio(overhead_sum, answered)},
      {"cache_hit", Ratio(t.hit_ns, t.queries) / 1e3},
      {"expand", Ratio(t.expand_ns, t.queries) / 1e3},
      {"solve", Ratio(t.solve_ns, t.queries) / 1e3},
      {"select", Ratio(t.select_ns, t.queries) / 1e3},
      {"residual", Ratio(residual_ns, t.queries) / 1e3}};
  double sum = 0;
  m->Add("ledger.client_mean_us", client_mean, "us");
  for (const auto& [name, mean_us] : parts) {
    m->Add(std::string("ledger.") + name + "_mean_us", mean_us, "us");
    sum += mean_us;
  }
  m->Add("ledger.unattributed_ratio", 1.0 - Ratio(sum, client_mean),
         "ratio");

  // Exact counts of the replay: they repeat bit for bit for a given seed.
  m->Add("replay.certified", static_cast<double>(t.certified), "count");
  m->Add("replay.cache_hits", static_cast<double>(t.cache_hits), "count");
  m->Add("replay.subgraph_hits", static_cast<double>(t.subgraph_hits),
         "count");
  m->Add("replay.deposits", static_cast<double>(t.deposits), "count");
  m->Add("replay.visited", static_cast<double>(t.visited), "count");
  m->Add("replay.expansions", static_cast<double>(t.expansions), "count");
  m->Add("replay.sweeps", static_cast<double>(t.sweeps), "count");
  m->Add("replay.fetches", static_cast<double>(t.fetches), "count");
  m->Add("replay.degree_probes", static_cast<double>(t.degree_probes),
         "count");
}

void PrintContext(const WorkloadSpec& spec, uint64_t seed, int64_t seconds,
                  bool trace, const std::string& commit, uint64_t timed,
                  const std::vector<PredicateRow>& rows,
                  const flos::LabelStore& labels, uint64_t exact_checked) {
  std::string predicates = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"bucket\": \"%s\", \"predicate\": \"%s\", "
                  "\"selectivity\": %.6f}",
                  i > 0 ? ", " : "", rows[i].bucket.c_str(),
                  rows[i].predicate.ToString().c_str(),
                  static_cast<double>(rows[i].matching_nodes) /
                      static_cast<double>(labels.NumNodes()));
    predicates += buf;
  }
  predicates += "]";
  // Peak RSS is reported here, not as a gated metric: it is set by which
  // heavy queries the seed draws (engine arenas keep their high-water
  // size, the warm-subgraph tier holds whole visited sets), so it moves
  // 30% between seeds (README.md).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %lld, "
      "\"trace\": %d, \"host_cpus\": %u, \"host_note\": \"numbers are "
      "from a %u-vCPU host\", \"commit\": \"%s\", \"build_type\": \"%s\", "
      "\"sweep_backend\": \"%s\", \"graph\": \"RAND n=%llu m=%llu\", "
      "\"labels\": \"%s\", \"predicates\": %s, \"connections\": %d, "
      "\"server_workers\": %d, \"deadline_us\": %llu, "
      "\"warmup_queries\": %llu, \"timed_queries\": %llu, "
      "\"exact_checked\": %llu, \"peak_rss_mb\": %.1f}\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(seconds), trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      std::thread::hardware_concurrency(), commit.c_str(), FLOS_BUILD_TYPE,
      flos::SweepBackendKindName(
          flos::ResolveSweepBackendKind(flos::SweepBackendKind::kAuto)),
      static_cast<unsigned long long>(spec.num_nodes),
      static_cast<unsigned long long>(spec.num_edges),
      spec.labeled
          ? ("zipf " + std::to_string(spec.label_zipf) + ", " +
             std::to_string(spec.num_labels) + " labels, " +
             std::to_string(spec.labels_per_node) + " per node")
                .c_str()
          : "none",
      predicates.c_str(), spec.connections, spec.connections,
      static_cast<unsigned long long>(spec.deadline_us),
      static_cast<unsigned long long>(spec.warmup_queries),
      static_cast<unsigned long long>(timed),
      static_cast<unsigned long long>(exact_checked),
      static_cast<double>(usage.ru_maxrss) / 1024.0);
}

int Run(int argc, char** argv) {
  flos::FlagParser flags;
  std::string workload;
  int64_t seed = 1;
  int64_t seconds = 10;
  int64_t trace = 0;
  std::string commit = "unknown";
  flags.AddString("workload", &workload, "workload name");
  flags.AddInt("seed", &seed, "seed of every generated input");
  flags.AddInt("seconds", &seconds, "sizes the fixed timed query list");
  flags.AddInt("trace", &trace, "0 = end-to-end metrics, 1 = per-layer");
  flags.AddString("commit", &commit, "commit id recorded in the context");
  if (flos::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  flos::Result<WorkloadSpec> found = FindWorkload(workload);
  if (!found.ok() || seconds < 1) {
    std::fprintf(stderr, "bad arguments: %s\n",
                 found.ok() ? "seconds must be >= 1"
                            : found.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const uint64_t useed = static_cast<uint64_t>(seed);
  const uint64_t timed = static_cast<uint64_t>(
      std::llround(spec.queries_per_second * static_cast<double>(seconds)));

  // Set-up, three times in an untraced run (setup_s is their median); only
  // the last system is kept for the timed run. The traced run reports no
  // setup_s and sets up once.
  std::vector<Query> queries;
  std::vector<PredicateRow> rows;
  std::vector<double> setup_s;
  uint64_t failed = 0;
  System sys;
  const int reps = trace != 0 ? 1 : 3;
  const Generated generated = Generate(spec, useed);
  for (int r = 0; r < reps; ++r) {
    sys = System{};
    setup_s.push_back(SetUp(spec, generated, useed, timed, &queries, &rows,
                            &sys, &failed));
  }

  std::vector<Sample> samples;
  const double wall_s =
      RunClosedLoop(sys.server->port(), queries, spec.warmup_queries,
                    queries.size(), spec.connections, &samples);
  sys.server->Shutdown();

  const CheckResult check = CheckAnswers(spec, sys.inputs, queries,
                                         spec.warmup_queries, samples, useed);
  failed += check.failed;

  Metrics metrics;
  if (trace != 0) {
    AddLayerMetrics(spec, sys, queries, samples, &metrics);
  } else {
    std::vector<double> latency_us;
    uint64_t certified = 0;
    for (const Sample& s : samples) {
      if (!Answered(s)) continue;
      latency_us.push_back(static_cast<double>(s.latency_ns) / 1e3);
      if (s.response.certified) ++certified;
    }
    const double answered = static_cast<double>(latency_us.size());
    metrics.Add("throughput_qps", Ratio(answered, wall_s), "1/s");
    metrics.Add("latency_p50_us", Percentile(latency_us, 0.50), "us");
    metrics.Add("latency_p99_us", Percentile(latency_us, 0.99), "us");
    metrics.Add("certified_ratio",
                Ratio(static_cast<double>(certified), answered), "ratio");
    metrics.Add("setup_s", Percentile(setup_s, 0.50), "s");
  }

  PrintContext(spec, useed, seconds, trace != 0, commit, timed, rows,
               sys.inputs.labels, check.exact_checked);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(samples.size()),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Run(argc, argv); }
