// End-to-end coverage of the networked query service over loopback:
// protocol round trips, answer parity with the in-process engine for every
// measure, anytime-deadline semantics (uncertified answers whose bounds
// still sandwich the exact values), admission control under pipelined
// overload, malformed-frame handling, STATS, and remote shutdown.

#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/flos.h"
#include "core/flos_engine.h"
#include "measures/exact.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session_pool.h"
#include "tests/test_util.h"

namespace flos {
namespace {

using flos::testing::ValueOrDie;

Graph TestGraph(uint64_t nodes = 2000, uint64_t seed = 7) {
  GeneratorOptions options;
  options.num_nodes = nodes;
  options.num_edges = nodes * 5;
  options.seed = seed;
  return ValueOrDie(GenerateConnected(options));
}

TEST(ProtocolTest, QueryRequestRoundTrip) {
  QueryRequest req;
  req.measure = Measure::kRwr;
  req.query_node = 1234567;
  req.k = 25;
  req.deadline_us = 500;
  req.tht_length = 12;
  req.c = 0.75;
  std::string frame;
  EncodeQueryRequest(req, &frame);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  uint32_t len = 0;
  std::memcpy(&len, frame.data(), sizeof(len));
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + len);
  const QueryRequest back =
      ValueOrDie(DecodeQueryRequest(frame.substr(kFrameHeaderBytes)));
  EXPECT_EQ(back.measure, Measure::kRwr);
  EXPECT_EQ(back.query_node, 1234567u);
  EXPECT_EQ(back.k, 25u);
  EXPECT_EQ(back.deadline_us, 500u);
  EXPECT_EQ(back.tht_length, 12u);
  EXPECT_DOUBLE_EQ(back.c, 0.75);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  QueryResponse resp;
  resp.type = MessageType::kQuery;
  resp.status = StatusCode::kOk;
  resp.certified = true;
  resp.visited = 321;
  resp.wall_us = 4567;
  resp.topk.push_back({42, 0.5, 0.49, 0.51});
  resp.topk.push_back({7, 0.25, 0.25, 0.25});
  resp.message = "note";
  std::string frame;
  EncodeResponse(resp, &frame);
  const QueryResponse back =
      ValueOrDie(DecodeResponse(frame.substr(kFrameHeaderBytes)));
  EXPECT_EQ(back.status, StatusCode::kOk);
  EXPECT_TRUE(back.certified);
  EXPECT_EQ(back.visited, 321u);
  EXPECT_EQ(back.wall_us, 4567u);
  ASSERT_EQ(back.topk.size(), 2u);
  EXPECT_EQ(back.topk[0].node, 42u);
  EXPECT_DOUBLE_EQ(back.topk[0].score, 0.5);
  EXPECT_EQ(back.message, "note");
}

TEST(ProtocolTest, RejectsMalformedPayloads) {
  EXPECT_FALSE(DecodeQueryRequest("").ok());
  EXPECT_FALSE(DecodeQueryRequest("\x01short").ok());
  EXPECT_FALSE(PeekMessageType(std::string(1, '\x09')).ok());
  // Valid QUERY with trailing junk must be rejected, not silently read.
  QueryRequest req;
  std::string frame;
  EncodeQueryRequest(req, &frame);
  std::string payload = frame.substr(kFrameHeaderBytes) + "junk";
  EXPECT_FALSE(DecodeQueryRequest(payload).ok());
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    graph_ = TestGraph();
    server_ = std::make_unique<ServiceServer>(&graph_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  ServiceClient Connect() {
    return ValueOrDie(ServiceClient::Connect("127.0.0.1", server_->port()));
  }

  Graph graph_;
  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceTest, MatchesInProcessEngineForEveryMeasure) {
  // Bit-parity with a cold in-process run needs the warm-subgraph tier
  // off: measures sharing a fixed point would otherwise resume from the
  // first measure's converged bounds and certify the same set with
  // slightly different interval midpoints (tests/subgraph_cache_test.cc
  // covers that path against ground truth).
  ServerOptions cold;
  cold.subgraph_cache_capacity = 0;
  StartServer(cold);
  ServiceClient client = Connect();
  for (const Measure measure : {Measure::kPhp, Measure::kEi, Measure::kDht,
                                Measure::kTht, Measure::kRwr}) {
    QueryRequest req;
    req.measure = measure;
    req.query_node = 17;
    req.k = 10;
    const QueryResponse resp = ValueOrDie(client.Query(req));
    ASSERT_EQ(resp.status, StatusCode::kOk)
        << MeasureName(measure) << ": " << resp.message;
    EXPECT_TRUE(resp.certified) << MeasureName(measure);

    FlosOptions opts;
    opts.measure = measure;
    const FlosResult local =
        ValueOrDie(FlosTopK(graph_, 17, 10, opts));
    ASSERT_EQ(resp.topk.size(), local.topk.size()) << MeasureName(measure);
    for (size_t i = 0; i < local.topk.size(); ++i) {
      EXPECT_EQ(resp.topk[i].node, local.topk[i].node)
          << MeasureName(measure) << " rank " << i;
      EXPECT_DOUBLE_EQ(resp.topk[i].score, local.topk[i].score)
          << MeasureName(measure) << " rank " << i;
    }

    // And against whole-graph ground truth, closing the loop client ->
    // wire -> worker -> unified engine -> exact solver.
    MeasureParams params;
    const std::vector<double> exact = ValueOrDie(
        ExactMeasure(graph_, 17, measure, params));
    std::vector<NodeId> returned;
    for (const ResponseEntry& e : resp.topk) {
      returned.push_back(static_cast<NodeId>(e.node));
    }
    flos::testing::ExpectTopKMatchesScores(returned, exact, 17, 10,
                                           MeasureDirection(measure));
  }
}

TEST_F(ServiceTest, RepeatQueryIsServedFromTheCertifiedCache) {
  StartServer();  // default options: query cache enabled
  ServiceClient client = Connect();
  QueryRequest req;
  req.measure = Measure::kRwr;
  req.query_node = 23;
  req.k = 10;
  const QueryResponse first = ValueOrDie(client.Query(req));
  ASSERT_EQ(first.status, StatusCode::kOk) << first.message;
  ASSERT_TRUE(first.certified);
  EXPECT_FALSE(first.cache_hit);

  const QueryResponse second = ValueOrDie(client.Query(req));
  ASSERT_EQ(second.status, StatusCode::kOk) << second.message;
  EXPECT_TRUE(second.cache_hit) << "identical repeat query must hit";
  EXPECT_TRUE(second.certified) << "cache hits are certified by admission";
  ASSERT_EQ(second.topk.size(), first.topk.size());
  for (size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(second.topk[i].node, first.topk[i].node);
    EXPECT_DOUBLE_EQ(second.topk[i].score, first.topk[i].score);
    EXPECT_DOUBLE_EQ(second.topk[i].lower, first.topk[i].lower);
    EXPECT_DOUBLE_EQ(second.topk[i].upper, first.topk[i].upper);
  }
  EXPECT_EQ(server_->metrics().cache_hits.value(), 1u);
  EXPECT_EQ(server_->metrics().cache_misses.value(), 1u);

  // Different parameters must not hit.
  req.k = 5;
  const QueryResponse third = ValueOrDie(client.Query(req));
  ASSERT_EQ(third.status, StatusCode::kOk);
  EXPECT_FALSE(third.cache_hit) << "k is part of the cache key";

  // The cache shows up in STATS: raw counters plus the derived ratio.
  const QueryResponse stats = ValueOrDie(client.Stats());
  EXPECT_NE(stats.message.find("counter cache_hits 1"), std::string::npos)
      << stats.message;
  EXPECT_NE(stats.message.find("ratio certified_ratio"), std::string::npos)
      << stats.message;
}

TEST_F(ServiceTest, RepeatSeedResumesFromTheWarmSubgraphTier) {
  StartServer();  // default options: both cache tiers enabled
  ServiceClient client = Connect();
  QueryRequest req;
  req.measure = Measure::kPhp;
  req.query_node = 23;
  req.k = 10;
  const QueryResponse first = ValueOrDie(client.Query(req));
  ASSERT_EQ(first.status, StatusCode::kOk) << first.message;
  ASSERT_TRUE(first.certified);
  EXPECT_FALSE(first.subgraph_hit) << "cold seed cannot be warm";
  EXPECT_EQ(server_->metrics().subgraph_deposits.value(), 0u)
      << "a first miss only records the seed";

  // Same seed, different k: misses the result cache (k is in its key)
  // and, as a repeat subgraph miss, deposits its expanded state.
  req.k = 7;
  const QueryResponse repeat = ValueOrDie(client.Query(req));
  ASSERT_EQ(repeat.status, StatusCode::kOk) << repeat.message;
  EXPECT_FALSE(repeat.subgraph_hit);
  EXPECT_EQ(server_->metrics().subgraph_deposits.value(), 1u);

  // A third k resumes from the warm subgraph — and the wire flag says so.
  req.k = 5;
  const QueryResponse second = ValueOrDie(client.Query(req));
  ASSERT_EQ(second.status, StatusCode::kOk) << second.message;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.subgraph_hit)
      << "repeat seed must resume from the warm-subgraph tier";
  EXPECT_TRUE(second.certified);
  EXPECT_EQ(server_->metrics().subgraph_hits.value(), 1u);
  EXPECT_EQ(server_->metrics().subgraph_misses.value(), 2u);
  // Separating the 5th node from the 6th took this resume further than
  // the k = 7 state, and a warm run that moved forward refreshes its entry.
  EXPECT_EQ(server_->metrics().subgraph_deposits.value(), 2u);

  // A result-cache hit reports only cache_hit: the stored answer is
  // returned outright, no search resumed, and neither subgraph counter
  // moves.
  const QueryResponse third = ValueOrDie(client.Query(req));
  ASSERT_EQ(third.status, StatusCode::kOk);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_FALSE(third.subgraph_hit);
  EXPECT_EQ(server_->metrics().subgraph_hits.value(), 1u);
  EXPECT_EQ(server_->metrics().subgraph_misses.value(), 2u);

  const QueryResponse stats = ValueOrDie(client.Stats());
  EXPECT_NE(stats.message.find("counter subgraph_hits 1"), std::string::npos)
      << stats.message;
  EXPECT_NE(stats.message.find("counter subgraph_deposits 2"),
            std::string::npos)
      << stats.message;
  EXPECT_NE(stats.message.find("ratio subgraph_hit_ratio"),
            std::string::npos)
      << stats.message;
}

TEST_F(ServiceTest, BlockedChecksCountOnlySearchesThatRan) {
  StartServer();  // default options: query cache enabled
  ServiceClient client = Connect();
  QueryRequest req;
  req.measure = Measure::kPhp;
  req.query_node = 29;
  req.k = 10;
  ASSERT_EQ(ValueOrDie(client.Query(req)).status, StatusCode::kOk);
  // A result-cache hit returns the stored answer: its FlosStats describe
  // the first run, so it must not count that run's failed checks again.
  ASSERT_TRUE(ValueOrDie(client.Query(req)).cache_hit);

  FlosOptions opts;
  opts.measure = Measure::kPhp;
  const FlosResult local = ValueOrDie(FlosTopK(graph_, 29, 10, opts));
  uint64_t failed = 0;
  for (size_t i = 0; i < kNumBlockerKinds; ++i) {
    EXPECT_EQ(server_->metrics().certificate_blocked[i].value(),
              local.stats.blocked_checks[i])
        << "kind " << i;
    failed += local.stats.blocked_checks[i];
  }
  EXPECT_GT(failed, 0u);

  const QueryResponse stats = ValueOrDie(client.Stats());
  for (const char* kind :
       {"too_few", "interior", "boundary", "fringe", "unvisited"}) {
    EXPECT_NE(stats.message.find(std::string("counter certificate_blocked_") +
                                 kind + " "),
              std::string::npos)
        << stats.message;
  }
}

TEST_F(ServiceTest, QueryCacheCanBeDisabled) {
  ServerOptions options;
  options.query_cache_capacity = 0;
  StartServer(options);
  ServiceClient client = Connect();
  QueryRequest req;
  req.query_node = 23;
  req.k = 10;
  for (int round = 0; round < 2; ++round) {
    const QueryResponse resp = ValueOrDie(client.Query(req));
    ASSERT_EQ(resp.status, StatusCode::kOk);
    EXPECT_FALSE(resp.cache_hit) << "round " << round;
  }
  EXPECT_EQ(server_->metrics().cache_hits.value(), 0u);
  EXPECT_EQ(server_->metrics().cache_misses.value(), 0u)
      << "with the cache disabled neither counter may move";
}

TEST_F(ServiceTest, UncertifiedAnswersAreNeverCached) {
  StartServer();
  ServiceClient client = Connect();
  QueryRequest req;
  req.measure = Measure::kPhp;
  req.query_node = 3;
  req.k = 10;
  req.deadline_us = 1;  // expires mid-search: uncertified anytime answer
  const QueryResponse cut = ValueOrDie(client.Query(req));
  ASSERT_EQ(cut.status, StatusCode::kOk);
  ASSERT_FALSE(cut.certified);
  EXPECT_FALSE(cut.cache_hit);

  // The same query without a deadline must run the real search (no stale
  // uncertified entry to hit) and come back certified.
  req.deadline_us = 0;
  const QueryResponse full = ValueOrDie(client.Query(req));
  ASSERT_EQ(full.status, StatusCode::kOk);
  EXPECT_TRUE(full.certified);
  EXPECT_FALSE(full.cache_hit)
      << "an uncertified answer must not have been admitted to the cache";
}

TEST_F(ServiceTest, DeadlineExpiryReturnsRigorousUncertifiedBounds) {
  StartServer();
  ServiceClient client = Connect();
  QueryRequest req;
  req.measure = Measure::kPhp;
  req.query_node = 3;
  req.k = 10;
  req.deadline_us = 1;  // expires during the first expansion
  const QueryResponse resp = ValueOrDie(client.Query(req));
  ASSERT_EQ(resp.status, StatusCode::kOk) << resp.message;
  EXPECT_FALSE(resp.certified)
      << "a 1us deadline cannot certify a 2000-node query";
  ASSERT_FALSE(resp.topk.empty())
      << "anytime answers must include the partial top-k";

  // The paper's guarantee: even a cut-short answer carries bounds that
  // sandwich the exact proximity of every returned node.
  const std::vector<double> exact =
      ValueOrDie(ExactPhp(graph_, 3, 0.5));
  for (const ResponseEntry& e : resp.topk) {
    ASSERT_LT(e.node, exact.size());
    EXPECT_LE(e.lower, exact[e.node] + 1e-9)
        << "node " << e.node << " lower bound not rigorous";
    EXPECT_GE(e.upper, exact[e.node] - 1e-9)
        << "node " << e.node << " upper bound not rigorous";
    EXPECT_LE(e.lower, e.upper);
  }
  EXPECT_GE(server_->metrics().deadline_expiries.value(), 1u);
}

TEST_F(ServiceTest, OverloadRejectsBeyondBoundedQueue) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  StartServer(options);
  ServiceClient client = Connect();

  // Pipeline far more expensive (certified, no deadline) queries than the
  // queue admits. Responses are unordered; count statuses.
  const int kBurst = 40;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest req;
    req.measure = Measure::kPhp;
    req.query_node = static_cast<NodeId>(i % 100);
    req.k = 20;
    std::string frame;
    EncodeQueryRequest(req, &frame);
    ASSERT_TRUE(client.SendFrame(frame).ok());
  }
  int ok = 0, overloaded = 0, other = 0;
  for (int i = 0; i < kBurst; ++i) {
    const QueryResponse resp = ValueOrDie(client.ReceiveResponse());
    if (resp.status == StatusCode::kOk) {
      ++ok;
    } else if (resp.status == StatusCode::kOverloaded) {
      ++overloaded;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(overloaded, 0) << "burst of 40 must overflow a queue of 2";
  EXPECT_GT(ok, 0) << "admitted queries must still be answered";
  // The bounded-queue invariant, observed rather than assumed.
  EXPECT_LE(server_->metrics().queue_depth.max_value(), 2);
  EXPECT_EQ(
      server_->metrics().requests_rejected_overload.value(),
      static_cast<uint64_t>(overloaded));
}

TEST_F(ServiceTest, MalformedFramesGetErrorResponses) {
  StartServer();
  ServiceClient client = Connect();

  // Unknown message type: framing intact, so the server answers and keeps
  // the connection.
  std::string bogus;
  const uint32_t len = 1;
  bogus.append(reinterpret_cast<const char*>(&len), sizeof(len));
  bogus.push_back('\x09');
  ASSERT_TRUE(client.SendFrame(bogus).ok());
  QueryResponse resp = ValueOrDie(client.ReceiveResponse());
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);

  // Truncated QUERY payload: decoded (and rejected) by the worker.
  std::string stub;
  const uint32_t stub_len = 3;
  stub.append(reinterpret_cast<const char*>(&stub_len), sizeof(stub_len));
  stub.push_back(static_cast<char>(MessageType::kQuery));
  stub.append("ab");
  ASSERT_TRUE(client.SendFrame(stub).ok());
  resp = ValueOrDie(client.ReceiveResponse());
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);

  // The connection survived both: a well-formed query still works.
  QueryRequest req;
  req.query_node = 1;
  req.k = 5;
  resp = ValueOrDie(client.Query(req));
  EXPECT_EQ(resp.status, StatusCode::kOk) << resp.message;
  EXPECT_GE(server_->metrics().requests_malformed.value(), 2u);
}

TEST_F(ServiceTest, InvalidQueryParametersAreRejected) {
  StartServer();
  ServiceClient client = Connect();
  QueryRequest req;
  req.query_node = static_cast<NodeId>(graph_.NumNodes() + 5);
  req.k = 10;
  QueryResponse resp = ValueOrDie(client.Query(req));
  EXPECT_NE(resp.status, StatusCode::kOk) << "out-of-range node must fail";
  req.query_node = 1;
  req.k = 0;
  resp = ValueOrDie(client.Query(req));
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  req.k = 10;
  req.c = 1.5;
  resp = ValueOrDie(client.Query(req));
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, StatsReportsServingCounters) {
  StartServer();
  ServiceClient client = Connect();
  QueryRequest req;
  req.query_node = 2;
  req.k = 5;
  ASSERT_EQ(ValueOrDie(client.Query(req)).status, StatusCode::kOk);
  const QueryResponse stats = ValueOrDie(client.Stats());
  EXPECT_EQ(stats.type, MessageType::kStats);
  EXPECT_EQ(stats.status, StatusCode::kOk);
  EXPECT_NE(stats.message.find("counter queries_ok 1"), std::string::npos)
      << stats.message;
  EXPECT_NE(stats.message.find("hist serve_us count 1"), std::string::npos)
      << stats.message;
  EXPECT_NE(stats.message.find("gauge active_connections"),
            std::string::npos)
      << stats.message;
}

TEST_F(ServiceTest, RemoteShutdownUnblocksWait) {
  StartServer();
  ServiceClient client = Connect();
  const QueryResponse ack = ValueOrDie(client.Shutdown());
  EXPECT_EQ(ack.type, MessageType::kShutdown);
  EXPECT_EQ(ack.status, StatusCode::kOk);
  server_->WaitForShutdown();  // must return promptly, not hang
  server_->Shutdown();
}

TEST_F(ServiceTest, RemoteShutdownCanBeDisabled) {
  ServerOptions options;
  options.allow_remote_shutdown = false;
  StartServer(options);
  ServiceClient client = Connect();
  const QueryResponse ack = ValueOrDie(client.Shutdown());
  EXPECT_EQ(ack.status, StatusCode::kFailedPrecondition);
}

TEST(ServiceServerTest, RetiredSweepThreadsFailsStart) {
  // Bound sweeps are serial; the retired field fails closed instead of
  // being silently ignored.
  const Graph graph = TestGraph(200, 3);
  ServerOptions options;
  options.sweep_threads = 2;
  ServiceServer server(&graph, options);
  const Status started = server.Start();
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
      << started.ToString();
}

TEST(SessionPoolTest, LeasesAreExclusiveAndRecycled) {
  const Graph graph = TestGraph(200, 3);
  EngineSessionPool pool(&graph, 2);
  EXPECT_EQ(pool.capacity(), 2u);
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  ASSERT_NE(a.engine(), nullptr);
  ASSERT_NE(b.engine(), nullptr);
  EXPECT_NE(a.engine(), b.engine());
  FlosEngine* const first = a.engine();
  a.Release();
  auto c = pool.Acquire();
  EXPECT_EQ(c.engine(), first) << "released session must be reused";
  pool.Shutdown();
  auto after = pool.Acquire();
  EXPECT_EQ(after.engine(), nullptr);
}

}  // namespace
}  // namespace flos
