#include "core/subgraph_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"

namespace flos {

namespace {

// Ghost slots per cached entry. A one-off seed's record must survive long
// enough for a real repeat to find it: with 16 slots per entry, a key is
// remembered across about 16 x capacity other refused keys.
constexpr size_t kGhostSlotsPerEntry = 16;
constexpr size_t kMinGhostSlots = 1024;

}  // namespace

SubgraphCache::SubgraphCache(size_t capacity) : lru_(capacity) {
  if (capacity > 0) {
    ghost_.assign(std::bit_ceil(std::max(kMinGhostSlots,
                                         kGhostSlotsPerEntry * capacity)),
                  0);
  }
}

size_t SubgraphCache::KeyHash::operator()(const Key& key) const {
  // Alpha hashes by bit pattern (keys are compared exactly, so -0.0 vs 0.0
  // costing a miss is fine).
  uint64_t h = kHashSeed;
  h = HashMix(h, key.seed);
  h = HashMix(h, static_cast<uint64_t>(key.family));
  h = HashMix(h, std::bit_cast<uint64_t>(key.alpha));
  h = HashMix(h, static_cast<uint64_t>(key.horizon));
  h = HashMix(h, key.epoch);
  return static_cast<size_t>(h);
}

std::shared_ptr<const SubgraphSnapshot> SubgraphCache::Lookup(const Key& key) {
  MutexLock lock(mu_);
  const Entry* entry = lru_.Get(key);
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  // The stale-epoch ground truth: an entry can only be found under a key
  // built from the CURRENT graph epoch, so its stored epoch must agree.
  // Disagreement means a subgraph expanded against an older topology is
  // about to seed bounds as current — corruption, never a legal state.
  FLOS_AUDIT(entry->stored_epoch == key.epoch,
             "subgraph cache serving a stale graph epoch");
  ++hits_;
  return entry->snap;
}

bool SubgraphCache::Admit(const Key& key) {
  MutexLock lock(mu_);
  if (ghost_.empty()) return false;  // capacity 0
  if (lru_.Get(key) != nullptr) return true;
  // 0 marks an empty slot, so a key hashing to 0 is recorded as 1.
  const uint64_t h = std::max<uint64_t>(KeyHash{}(key), 1);
  uint64_t& slot = ghost_[h & (ghost_.size() - 1)];
  if (slot == h) return true;
  slot = h;
  return false;
}

void SubgraphCache::Insert(const Key& key,
                           std::shared_ptr<const SubgraphSnapshot> snap) {
  if (snap == nullptr) return;
  FLOS_DCHECK(snap->bounds.size() ==
                  2 * static_cast<size_t>(snap->local.Size()),
              "snapshot bound vector does not match its visited set");
  // The replaced and evicted entries may hold the last reference to a
  // snapshot of many MB: destroy them after the lock is released.
  std::vector<Entry> displaced;
  {
    MutexLock lock(mu_);
    lru_.Put(key, Entry{key.epoch, std::move(snap)}, 1, &displaced);
  }
}

void SubgraphCache::Clear() {
  MutexLock lock(mu_);
  lru_.Clear();
  std::fill(ghost_.begin(), ghost_.end(), 0);
}

size_t SubgraphCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

uint64_t SubgraphCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t SubgraphCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

bool SubgraphCache::CorruptEpochForTest(const Key& key, uint64_t stored_epoch) {
  MutexLock lock(mu_);
  Entry* entry = lru_.Get(key);
  if (entry == nullptr) return false;
  entry->stored_epoch = stored_epoch;
  return true;
}

}  // namespace flos
