// Lock-free metrics for the query service: counters, gauges, and
// fixed-bucket latency histograms, grouped behind a small registry that
// renders a stable text snapshot for the STATS protocol command.
//
// Everything is std::atomic with relaxed ordering — metrics observe, they
// never synchronize. Recording from any number of threads is wait-free;
// rendering reads a (possibly slightly torn across metrics, never within
// one) snapshot, which is the usual and acceptable monitoring contract.

#ifndef FLOS_SERVICE_METRICS_H_
#define FLOS_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flos.h"

namespace flos {

/// Monotone event counter.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, open connections). Tracks the peak
/// observed value so bounded-queue claims are checkable after the fact.
class Gauge {
 public:
  void Set(int64_t v);
  void Add(int64_t delta);
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  void BumpMax(int64_t v);
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket latency histogram over microseconds. Bucket upper bounds
/// follow a 1-2-5 decade ladder from 1us to 1e7us plus an overflow bucket,
/// so Percentile is conservative within ~2.5x resolution at every scale —
/// plenty for p50/p95/p99 service dashboards, with zero allocation and
/// wait-free recording.
class LatencyHistogram {
 public:
  /// Bucket upper bounds in microseconds (exclusive overflow at the end).
  static const std::array<uint64_t, 22>& BucketBounds();

  void Record(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_micros() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the p-quantile (p in [0, 1]) of
  /// everything recorded so far; 0 when empty. Conservative: the true
  /// quantile is <= the returned value.
  uint64_t PercentileUpperBound(double p) const;

  /// Raw bucket counts (index-aligned with BucketBounds; the last entry is
  /// the overflow bucket).
  std::vector<uint64_t> Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, 23> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Named views over metrics owned elsewhere; renders the STATS text.
/// Register* calls must finish before concurrent RenderText begins (the
/// server registers everything in its constructor).
class MetricsRegistry {
 public:
  void RegisterCounter(const std::string& name, const Counter* counter);
  void RegisterGauge(const std::string& name, const Gauge* gauge);
  void RegisterHistogram(const std::string& name,
                         const LatencyHistogram* histogram);

  /// Stable text snapshot, one metric per line:
  ///   counter <name> <value>
  ///   gauge <name> <value> max <max>
  ///   hist <name> count <n> sum_us <s> p50_us <a> p95_us <b> p99_us <c>
  std::string RenderText() const;

 private:
  std::vector<std::pair<std::string, const Counter*>> counters_;
  std::vector<std::pair<std::string, const Gauge*>> gauges_;
  std::vector<std::pair<std::string, const LatencyHistogram*>> histograms_;
};

/// The service's metric set (ISSUE: accept/queue/serve histograms, queue
/// depth, rejects, deadline expiries, certified ratio). Owned by the
/// server; exported through `registry`.
struct ServiceMetrics {
  ServiceMetrics();

  Counter connections_opened;
  Counter connections_closed;
  Counter requests_accepted;        ///< admitted into the bounded queue
  Counter requests_rejected_overload;
  Counter requests_malformed;
  Counter queries_ok;
  Counter queries_error;
  Counter queries_certified;    ///< unfiltered ok queries whose proof finished
  Counter queries_uncertified;  ///< unfiltered ok queries, proof cut short
  Counter queries_halo_truncated;  ///< stopped at a shard's halo boundary
  /// Filtered (label-constrained) traffic is accounted separately so the
  /// headline certified_ratio keeps describing the unfiltered workload:
  /// a selective predicate changes the certification economics (the search
  /// must find k MATCHING nodes), and mixing the two would make the ratio
  /// swing with traffic mix rather than serving health.
  Counter filtered_queries;      ///< ok queries carrying a predicate
  Counter filtered_certified;
  Counter filtered_uncertified;
  Counter cache_hits;               ///< answered from the certified cache
  Counter cache_misses;             ///< ran the search (cache enabled)
  Counter subgraph_hits;    ///< searches resumed from a warm subgraph
  Counter subgraph_misses;  ///< searches expanded from scratch (cache on)
  Counter subgraph_deposits;  ///< searches that stored a warm subgraph
  /// Failed termination checks of the searches that ran, indexed by the
  /// BlockerKind that failed them (FlosStats::blocked_checks); exported as
  /// certificate_blocked_{too_few,interior,boundary,fringe,unvisited}.
  std::array<Counter, kNumBlockerKinds> certificate_blocked;
  Counter deadline_expiries;
  Counter stats_requests;
  Gauge queue_depth;
  Gauge active_connections;
  LatencyHistogram queue_wait_us;   ///< dequeue time - accept time
  LatencyHistogram serve_us;        ///< engine time inside the worker
  LatencyHistogram total_us;        ///< accept time -> response enqueued
  /// Per-predicate-type serve latency (filtered queries also record into
  /// serve_us; these break the same samples down by predicate type).
  LatencyHistogram filtered_eq_us;
  LatencyHistogram filtered_contain_us;
  LatencyHistogram filtered_overlap_us;

  MetricsRegistry registry;
};

}  // namespace flos

#endif  // FLOS_SERVICE_METRICS_H_
