// Certified-result cache for repeat k-NN queries.
//
// Serving workloads are Zipf-skewed: a small set of hot query nodes
// receives most of the traffic. A certified FLoS answer is EXACT, so for
// an unchanged graph re-running the search buys nothing — the cache stores
// certified results keyed by everything that determines them:
//
//     (query node, measure, k, c, tht_length, graph epoch)
//
// and serves a warm hit in microseconds, bypassing the search entirely
// while the engine workspaces stay warm for the misses.
//
// Invalidation contract (exact, epoch-based): the key carries the
// accessor's graph epoch (GraphAccessor::Epoch, bumped by DynamicGraph on
// every topology update). A lookup computes its key from the CURRENT
// epoch, so an entry certified against an older topology can never match
// again — no enumeration of affected queries, no TTL heuristics, no stale
// window. Superseded entries age out through the LRU order. Each entry
// additionally stores its epoch redundantly; under FLOS_AUDIT a hit
// cross-checks it against the key and aborts on disagreement ("query cache
// serving a stale graph epoch"), turning memory corruption or a future
// keying bug into a crash instead of a silently wrong certified answer.
//
// Only certified results (stats.exact) are admitted: uncertified answers
// depend on the deadline that produced them and are not reusable facts.
// One cache instance assumes one solver configuration (tolerance,
// tightenings) — the serving layer's situation, where ServerOptions fixes
// them; the per-request knobs are all in the key.
//
// Thread-safe: one mutex guards the LRU (util/lru_cache.h; a leaf lock in
// the concurrency contract — see DESIGN.md; the FLOS_GUARDED_BY
// annotations make the compiler enforce it). The critical section is a hash probe plus
// a list splice and a FlosResult copy (k entries), so contention is
// negligible next to even a warm-path network round trip.

#ifndef FLOS_CORE_QUERY_CACHE_H_
#define FLOS_CORE_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "core/flos.h"
#include "graph/graph.h"
#include "measures/measure.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace flos {

/// LRU cache of certified FlosResults, shared by all engine sessions of a
/// server (thread-safe).
class QueryCache {
 public:
  /// Everything that determines a certified answer.
  struct Key {
    NodeId query = 0;
    Measure measure = Measure::kPhp;
    int k = 0;
    double c = 0;
    int tht_length = 0;
    uint64_t epoch = 0;
    /// LabelPredicate::Fingerprint() of the request's predicate (0 for
    /// unfiltered queries). A filtered answer is exact only relative to
    /// its predicate, so two requests with different predicates must
    /// never share an entry; the subgraph cache, by contrast, stays
    /// predicate-independent by design (see DESIGN.md "Filtered top-k").
    uint64_t predicate_fp = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Keeps at most `capacity` entries (0 disables the cache: every lookup
  /// misses, every insert is dropped).
  explicit QueryCache(size_t capacity) : lru_(capacity) {}

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// On a hit copies the cached result into `*out`, marks it as a cache
  /// hit, and freshens the entry's LRU position. Counts hits/misses.
  bool Lookup(const Key& key, FlosResult* out) FLOS_EXCLUDES(mu_);

  /// Admits a certified result. Rejects (and counts) non-certified
  /// results; replaces an existing entry for the same key.
  void Insert(const Key& key, const FlosResult& result) FLOS_EXCLUDES(mu_);

  /// Drops every entry (counters are kept).
  void Clear() FLOS_EXCLUDES(mu_);

  size_t size() const FLOS_EXCLUDES(mu_);
  uint64_t hits() const FLOS_EXCLUDES(mu_);
  uint64_t misses() const FLOS_EXCLUDES(mu_);

  /// Test-only: overwrites the stored redundant epoch of the entry for
  /// `key`, desynchronizing it from the key it is filed under, so
  /// tests/query_cache_test.cc can prove the FLOS_AUDIT stale-epoch check
  /// fires. Returns false when the entry does not exist. Never call it
  /// from library or application code.
  bool CorruptEpochForTest(const Key& key, uint64_t stored_epoch)
      FLOS_EXCLUDES(mu_);

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    /// Redundant copy of key.epoch, audited on every hit.
    uint64_t stored_epoch = 0;
    FlosResult result;
  };

  mutable Mutex mu_;
  LruCache<Key, Entry, KeyHash> lru_ FLOS_GUARDED_BY(mu_);
  uint64_t hits_ FLOS_GUARDED_BY(mu_) = 0;
  uint64_t misses_ FLOS_GUARDED_BY(mu_) = 0;
};

}  // namespace flos

#endif  // FLOS_CORE_QUERY_CACHE_H_
