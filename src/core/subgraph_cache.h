// Warm-subgraph cache: expanded local subgraphs + converged bounds.
//
// The second tier of the serving cache hierarchy. The first tier
// (core/query_cache.h) stores certified RESULTS — a hit answers in
// microseconds but only for an exact (query, measure, k, c, L) repeat.
// This tier stores the expensive intermediate a cold certified query
// spends most of its milliseconds producing: the expanded LocalGraph
// around a seed and the converged bound vector over it. A result-cache
// miss on a warm seed then skips expansion entirely and RESUMES sweeping
// from the cached bounds — usually certifying immediately, since the
// cached state was tight enough to certify once before.
//
// Keying: a snapshot depends only on the seed, the internal fixed point
// the bounds solve, and the topology:
//
//     (seed, bound family, alpha, horizon, graph epoch)
//
// NOT on k or the rank mode — so one snapshot serves k=10 and k=50, and
// PHP at c shares entries with EI/DHT at 1-c (identical fixed point,
// BoundTraitsFor maps both to kFixedPoint with the same alpha) and with
// RWR at the same alpha (the degree-weighted RANKING differs, the bound
// system does not). kHorizonDp snapshots key on the horizon instead of
// alpha.
//
// Invalidation contract: exact and epoch-based, identical to QueryCache —
// the key carries GraphAccessor::Epoch, so a snapshot expanded against an
// older topology can never match a current lookup; stale entries age out
// through the LRU. Each entry stores its epoch redundantly and a hit
// cross-checks it under FLOS_AUDIT ("subgraph cache serving a stale graph
// epoch"), turning a keying bug into a crash instead of bounds computed on
// a phantom topology.
//
// Soundness of resuming: every cached quantity is a certified fact about
// (seed, family, alpha/horizon, epoch) alone. The bounds are certified
// intervals for the fixed point on the cached visited set; the dummies are
// certified dominators of the unvisited values; growth and further sweeps
// from that state are exactly the monotone continuation the engine would
// have performed had it never stopped. Options that change the system
// itself (tolerance tightenings, self-loop constructions) are fixed per
// server — the same assumption QueryCache documents.
//
// Admission: a snapshot costs a copy of the whole search state, and a seed
// asked once never pays it back (uniform traffic over a large graph almost
// never repeats a seed). So Admit() lets a key in only when it is already
// cached (a warm run that moved forward refreshes its entry) or when a
// small direct-mapped ghost table of key hashes saw it once before; a
// first miss is only recorded there. The engine builds a snapshot only
// after Admit() says yes. Admission decides WHETHER to deposit, never what
// a hit serves: a hit still needs the exact key, and the epoch audit below
// still applies, so a ghost collision costs at most one extra deposit.
//
// Snapshots are immutable once inserted and handed out as
// shared_ptr<const>, so a reader never blocks an evictor: the LRU can drop
// an entry while an engine is still restoring from it. Thread-safe: one
// mutex guards the LRU and the ghost table (util/lru_cache.h; a leaf lock
// in the concurrency contract — see DESIGN.md; FLOS_GUARDED_BY makes the
// compiler enforce it); the critical section is a hash probe plus a
// shared_ptr copy. Snapshots displaced by an insert are destroyed after
// the lock is released, so freeing a large one never stalls a Lookup.

#ifndef FLOS_CORE_SUBGRAPH_CACHE_H_
#define FLOS_CORE_SUBGRAPH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/local_graph.h"
#include "core/measure_traits.h"
#include "graph/graph.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace flos {

/// One cached warm subgraph: the expanded LocalGraph state plus the
/// converged bound vector and dummy values over it. Immutable after
/// insertion (shared across sessions by const pointer).
struct SubgraphSnapshot {
  LocalGraphSnapshot local;
  /// Interleaved (lower, upper) per LocalId; 2 * local.Size() doubles.
  std::vector<double> bounds;
  double dummy_mesh = 1.0;
  double dummy_tight = 1.0;
};

/// LRU cache of warm subgraphs, shared by all engine sessions of a server
/// (thread-safe).
class SubgraphCache {
 public:
  /// Everything that determines a snapshot's validity (see file comment:
  /// deliberately independent of k and rank mode).
  struct Key {
    NodeId seed = 0;
    BoundFamily family = BoundFamily::kFixedPoint;
    /// Fixed-point alpha; 0.0 for the horizon-DP family.
    double alpha = 0;
    /// DP horizon L; 0 for the fixed-point family.
    int horizon = 0;
    uint64_t epoch = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Builds the key for a seed under measure traits at the current epoch.
  static Key MakeKey(NodeId seed, const BoundTraits& traits, uint64_t epoch) {
    Key key;
    key.seed = seed;
    key.family = traits.family;
    key.alpha = traits.family == BoundFamily::kFixedPoint ? traits.alpha : 0.0;
    key.horizon = traits.family == BoundFamily::kHorizonDp ? traits.horizon : 0;
    key.epoch = epoch;
    return key;
  }

  /// Keeps at most `capacity` entries (0 disables the cache: every lookup
  /// misses, nothing is admitted, every insert is dropped).
  explicit SubgraphCache(size_t capacity);

  SubgraphCache(const SubgraphCache&) = delete;
  SubgraphCache& operator=(const SubgraphCache&) = delete;

  /// On a hit returns the immutable snapshot and freshens the entry's LRU
  /// position; nullptr on a miss. Counts hits/misses.
  std::shared_ptr<const SubgraphSnapshot> Lookup(const Key& key)
      FLOS_EXCLUDES(mu_);

  /// The repeat-miss admission rule (file comment): true when `key` is
  /// cached or was recorded by an earlier Admit() call; otherwise records
  /// it and returns false. Callers build and Insert a snapshot only on
  /// true.
  bool Admit(const Key& key) FLOS_EXCLUDES(mu_);

  /// Stores a snapshot (replaces an existing entry for the same key).
  /// Insert itself does not consult Admit().
  void Insert(const Key& key, std::shared_ptr<const SubgraphSnapshot> snap)
      FLOS_EXCLUDES(mu_);

  /// Drops every entry and the admission history (counters are kept).
  void Clear() FLOS_EXCLUDES(mu_);

  size_t size() const FLOS_EXCLUDES(mu_);
  uint64_t hits() const FLOS_EXCLUDES(mu_);
  uint64_t misses() const FLOS_EXCLUDES(mu_);

  /// Test-only: overwrites the stored redundant epoch of the entry for
  /// `key`, desynchronizing it from the key it is filed under, so
  /// tests/subgraph_cache_test.cc can prove the FLOS_AUDIT stale-epoch
  /// check fires. Returns false when the entry does not exist. Never call
  /// it from library or application code.
  bool CorruptEpochForTest(const Key& key, uint64_t stored_epoch)
      FLOS_EXCLUDES(mu_);

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    /// Redundant copy of key.epoch, audited on every hit.
    uint64_t stored_epoch = 0;
    std::shared_ptr<const SubgraphSnapshot> snap;
  };

  mutable Mutex mu_;
  LruCache<Key, Entry, KeyHash> lru_ FLOS_GUARDED_BY(mu_);
  /// Ghost table: direct-mapped KeyHash values of recently refused keys
  /// (0 = empty slot); a power-of-two size, empty when capacity is 0.
  std::vector<uint64_t> ghost_ FLOS_GUARDED_BY(mu_);
  uint64_t hits_ FLOS_GUARDED_BY(mu_) = 0;
  uint64_t misses_ FLOS_GUARDED_BY(mu_) = 0;
};

}  // namespace flos

#endif  // FLOS_CORE_SUBGRAPH_CACHE_H_
