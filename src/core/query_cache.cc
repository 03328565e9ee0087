#include "core/query_cache.h"

#include <bit>

#include "util/check.h"

namespace flos {

size_t QueryCache::KeyHash::operator()(const Key& key) const {
  // Doubles hash by bit pattern (keys are compared exactly, so -0.0 vs 0.0
  // costing a miss is fine).
  uint64_t h = kHashSeed;
  h = HashMix(h, key.query);
  h = HashMix(h, static_cast<uint64_t>(key.measure));
  h = HashMix(h, static_cast<uint64_t>(key.k));
  h = HashMix(h, std::bit_cast<uint64_t>(key.c));
  h = HashMix(h, static_cast<uint64_t>(key.tht_length));
  h = HashMix(h, key.epoch);
  h = HashMix(h, key.predicate_fp);
  return static_cast<size_t>(h);
}

bool QueryCache::Lookup(const Key& key, FlosResult* out) {
  MutexLock lock(mu_);
  const Entry* entry = lru_.Get(key);
  if (entry == nullptr) {
    ++misses_;
    return false;
  }
  // The stale-epoch ground truth: an entry can only be found under a key
  // built from the CURRENT graph epoch, so its stored epoch must agree.
  // Disagreement means a certified answer from an older topology is about
  // to be served as current — corruption, never a legal state.
  FLOS_AUDIT(entry->stored_epoch == key.epoch,
             "query cache serving a stale graph epoch");
  *out = entry->result;
  out->stats.cache_hit = true;
  ++hits_;
  return true;
}

void QueryCache::Insert(const Key& key, const FlosResult& result) {
  // Only certified answers are facts independent of how the query ran.
  if (!result.stats.exact) return;
  FLOS_DCHECK(!result.stats.deadline_expired,
              "certified result flagged deadline_expired");
  MutexLock lock(mu_);
  lru_.Put(key, Entry{key.epoch, result});
}

void QueryCache::Clear() {
  MutexLock lock(mu_);
  lru_.Clear();
}

size_t QueryCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

uint64_t QueryCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t QueryCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

bool QueryCache::CorruptEpochForTest(const Key& key, uint64_t stored_epoch) {
  MutexLock lock(mu_);
  Entry* entry = lru_.Get(key);
  if (entry == nullptr) return false;
  entry->stored_epoch = stored_epoch;
  return true;
}

}  // namespace flos
