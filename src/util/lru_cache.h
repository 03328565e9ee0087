// Least-recently-used map with a charge budget.
//
// The one LRU body behind every cache in the tree. Each entry carries a
// charge and the cache keeps the total charge within its capacity:
// DiskGraph's block cache charges each block its byte size (the paper's
// capped-memory disk experiment, Section 6.4), while the query and
// subgraph caches charge 1 per entry, so their capacity is an entry count.
//
// Not thread-safe. Callers own the lock, the hit/miss counters, and any
// audit of what they store.

#ifndef FLOS_UTIL_LRU_CACHE_H_
#define FLOS_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flos {

/// Folds `value` into the running key hash `h` (a splitmix64-style mix).
/// Start from kHashSeed; the LRU callers' key hashes chain one call per
/// key field.
inline constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ull;
inline uint64_t HashMix(uint64_t h, uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// `capacity` counts charge units (0 disables caching: every Put is
  /// dropped).
  explicit LruCache(uint64_t capacity) : capacity_(capacity) {}

  /// Returns the cached value and marks it most recently used, or nullptr.
  Value* Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// Inserts (or replaces) `key` as the most recently used entry, then
  /// evicts least-recently-used entries until the total charge fits. A
  /// value whose charge alone exceeds the capacity is not cached. When
  /// `displaced` is non-null, the replaced and evicted values are moved
  /// into it instead of being destroyed here, so a caller holding a lock
  /// can destroy them after releasing it.
  void Put(const Key& key, Value value, uint64_t charge = 1,
           std::vector<Value>* displaced = nullptr) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      Drop(it->second, displaced);
      index_.erase(it);
    }
    if (charge > capacity_) {  // would never fit
      if (displaced != nullptr) displaced->push_back(std::move(value));
      return;
    }
    used_ += charge;
    entries_.push_front(Entry{key, std::move(value), charge});
    index_.emplace(key, entries_.begin());
    while (used_ > capacity_) {
      index_.erase(entries_.back().key);
      Drop(std::prev(entries_.end()), displaced);
    }
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    used_ = 0;
  }

  /// Total charge of the cached entries.
  uint64_t charge() const { return used_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t charge;
  };

  void Drop(typename std::list<Entry>::iterator entry,
            std::vector<Value>* displaced) {
    used_ -= entry->charge;
    if (displaced != nullptr) displaced->push_back(std::move(entry->value));
    entries_.erase(entry);
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  /// front = most recent
  std::list<Entry> entries_;
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
};

}  // namespace flos

#endif  // FLOS_UTIL_LRU_CACHE_H_
