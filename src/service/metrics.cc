#include "service/metrics.h"

#include <algorithm>
#include <cstdio>

namespace flos {

void Gauge::Set(int64_t v) {
  value_.store(v, std::memory_order_relaxed);
  BumpMax(v);
}

void Gauge::Add(int64_t delta) {
  const int64_t now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  BumpMax(now);
}

void Gauge::BumpMax(int64_t v) {
  int64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
  }
}

const std::array<uint64_t, 22>& LatencyHistogram::BucketBounds() {
  // 1-2-5 ladder: 1us .. 10s. The overflow bucket (index 22) catches the
  // rest.
  static const std::array<uint64_t, 22> kBounds = {
      1,      2,      5,      10,      20,      50,      100,    200,
      500,    1000,   2000,   5000,    10000,   20000,   50000,  100000,
      200000, 500000, 1000000, 2000000, 5000000, 10000000};
  return kBounds;
}

void LatencyHistogram::Record(uint64_t micros) {
  const auto& bounds = BucketBounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), micros);
  const size_t idx = static_cast<size_t>(it - bounds.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::PercentileUpperBound(double p) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the p-quantile sample (1-based, ceil).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(p * static_cast<double>(total) + 0.999999));
  const auto& bounds = BucketBounds();
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Overflow bucket has no upper bound; report the largest ladder
      // step so dashboards stay finite.
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

std::vector<uint64_t> LatencyHistogram::Snapshot() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void MetricsRegistry::RegisterCounter(const std::string& name,
                                      const Counter* counter) {
  counters_.emplace_back(name, counter);
}

void MetricsRegistry::RegisterGauge(const std::string& name,
                                    const Gauge* gauge) {
  gauges_.emplace_back(name, gauge);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const LatencyHistogram* histogram) {
  histograms_.emplace_back(name, histogram);
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof(line), "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof(line), "gauge %s %lld max %lld\n",
                  name.c_str(), static_cast<long long>(g->value()),
                  static_cast<long long>(g->max_value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(
        line, sizeof(line),
        "hist %s count %llu sum_us %llu p50_us %llu p95_us %llu "
        "p99_us %llu\n",
        name.c_str(), static_cast<unsigned long long>(h->count()),
        static_cast<unsigned long long>(h->sum_micros()),
        static_cast<unsigned long long>(h->PercentileUpperBound(0.50)),
        static_cast<unsigned long long>(h->PercentileUpperBound(0.95)),
        static_cast<unsigned long long>(h->PercentileUpperBound(0.99)));
    out += line;
  }
  return out;
}

ServiceMetrics::ServiceMetrics() {
  registry.RegisterCounter("connections_opened", &connections_opened);
  registry.RegisterCounter("connections_closed", &connections_closed);
  registry.RegisterCounter("requests_accepted", &requests_accepted);
  registry.RegisterCounter("requests_rejected_overload",
                           &requests_rejected_overload);
  registry.RegisterCounter("requests_malformed", &requests_malformed);
  registry.RegisterCounter("queries_ok", &queries_ok);
  registry.RegisterCounter("queries_error", &queries_error);
  registry.RegisterCounter("queries_certified", &queries_certified);
  registry.RegisterCounter("queries_uncertified", &queries_uncertified);
  registry.RegisterCounter("queries_halo_truncated", &queries_halo_truncated);
  registry.RegisterCounter("filtered_queries", &filtered_queries);
  registry.RegisterCounter("filtered_certified", &filtered_certified);
  registry.RegisterCounter("filtered_uncertified", &filtered_uncertified);
  registry.RegisterCounter("cache_hits", &cache_hits);
  registry.RegisterCounter("cache_misses", &cache_misses);
  registry.RegisterCounter("subgraph_hits", &subgraph_hits);
  registry.RegisterCounter("subgraph_misses", &subgraph_misses);
  registry.RegisterCounter("subgraph_deposits", &subgraph_deposits);
  static constexpr const char* kBlockerNames[kNumBlockerKinds] = {
      "too_few", "interior", "boundary", "fringe", "unvisited"};
  for (size_t i = 0; i < kNumBlockerKinds; ++i) {
    registry.RegisterCounter(
        std::string("certificate_blocked_") + kBlockerNames[i],
        &certificate_blocked[i]);
  }
  registry.RegisterCounter("deadline_expiries", &deadline_expiries);
  registry.RegisterCounter("stats_requests", &stats_requests);
  registry.RegisterGauge("queue_depth", &queue_depth);
  registry.RegisterGauge("active_connections", &active_connections);
  registry.RegisterHistogram("queue_wait_us", &queue_wait_us);
  registry.RegisterHistogram("serve_us", &serve_us);
  registry.RegisterHistogram("total_us", &total_us);
  registry.RegisterHistogram("filtered_eq_us", &filtered_eq_us);
  registry.RegisterHistogram("filtered_contain_us", &filtered_contain_us);
  registry.RegisterHistogram("filtered_overlap_us", &filtered_overlap_us);
}

}  // namespace flos
