// Resettable node-keyed maps for reusable query workspaces.
//
// FLoS touches a tiny fraction of the graph per query but used to pay
// allocator and rehash costs for a fresh `std::unordered_map` on every call.
// `NodeMap<V>` keeps its storage across queries and forgets its entries on
// Reset() without releasing anything. Two backends share one interface:
//
//   * dense  — a presence bitmap (1 bit per node) plus a value array
//     indexed by NodeId, and a log of the keys inserted since the last
//     Reset. A lookup tests the bit first and touches the value array only
//     on a hit, so the common miss (an unvisited neighbor) reads one word
//     of a bitmap small enough to stay cached (128 KB at 1M nodes). Reset
//     clears the logged keys' bit words: O(entries), no allocation. The
//     value array still costs O(NumNodes()) memory per map, which is the
//     right trade for in-memory CSR graphs, where node count is known and a
//     few bytes per node per worker thread is cheap (see
//     GraphAccessor::DenseIndexHint). Both arrays are huge-page backed
//     once they reach 2 MiB (util/huge_page_allocator.h): every probe is
//     a random read, and the value array alone is 4 MB at 1M nodes.
//   * sparse — open-addressing hash table (linear probing, power-of-two
//     capacity, epoch-stamped slots) that resets in O(1) by bumping the
//     epoch: a slot whose stamp differs from the current epoch is absent.
//     Memory proportional to the visited set, so it also serves
//     disk-resident graphs whose node count may dwarf what a per-thread
//     dense array should pin.
//
// Neither backend supports erase; FLoS never removes a visited node within
// a query, and cross-query cleanup is Reset(). Both backends keep their
// capacity across Reset(), so steady-state queries allocate nothing.

#ifndef FLOS_CORE_NODE_INDEX_H_
#define FLOS_CORE_NODE_INDEX_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"
#include "util/huge_page_allocator.h"

namespace flos {

/// Resettable map from NodeId to V with dense (bitmap) and open-addressing
/// backends. Not thread-safe; one instance per query workspace.
template <typename V>
class NodeMap {
 public:
  NodeMap() = default;

  /// Selects the backend and prepares an empty map. `num_nodes` is the
  /// graph's node count (bounds every key); `dense` picks the bitmap
  /// backend. Callable repeatedly; switching backends drops storage.
  void Configure(uint64_t num_nodes, bool dense) {
    if (dense_ != dense) {
      dense_bits_.clear();
      dense_bits_.shrink_to_fit();
      dense_value_.clear();
      dense_value_.shrink_to_fit();
      dense_keys_.clear();
      dense_keys_.shrink_to_fit();
      slots_.clear();
      slots_.shrink_to_fit();
      epoch_ = 0;
    }
    dense_ = dense;
    if (dense_) {
      dense_bits_.assign((num_nodes + 63) / 64, 0);
      dense_value_.resize(num_nodes);
      dense_keys_.clear();
    } else if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    }
    Reset();
  }

  /// Forgets every entry; capacity is retained. Dense: O(entries), clearing
  /// the bit words of the logged keys. Sparse: O(1) epoch bump.
  void Reset() {
    size_ = 0;
    if (dense_) {
      // Every set bit belongs to a logged key, so zeroing the logged keys'
      // whole words clears every bit.
      for (const NodeId key : dense_keys_) dense_bits_[key >> 6] = 0;
      dense_keys_.clear();
      FLOS_AUDIT_SCOPE {
        // Ground truth for the logged clear: no bit may survive it,
        // otherwise a key from an earlier query would read as present.
        // O(NumNodes() / 64), audit only.
        for (const uint64_t word : dense_bits_) {
          FLOS_CHECK_EQ(word, uint64_t{0}, "NodeMap bit survived Reset");
        }
      }
      return;
    }
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: stale stamps could alias; hard-clear
      epoch_ = 1;
      for (Slot& s : slots_) s.stamp = 0;
    }
    FLOS_AUDIT_SCOPE {
      // Epoch-aliasing ground truth: after a Reset no stored stamp may
      // equal (or exceed) the new epoch, otherwise a dead entry from an
      // earlier query would resurrect as live. O(capacity), audit only.
      for (const Slot& s : slots_) {
        FLOS_CHECK_LT(s.stamp, epoch_, "stale stamp aliases the new epoch");
      }
    }
  }

  /// Number of live entries.
  uint32_t size() const { return size_; }

  /// Pointer to the value for `key`, or nullptr if absent. The pointer is
  /// invalidated by the next Insert (sparse backend may rehash).
  V* Find(NodeId key) {
    if (dense_) {
      FLOS_DCHECK(key < dense_value_.size(), "NodeMap key out of range");
      return TestBit(key) ? &dense_value_[key] : nullptr;
    }
    for (uint64_t i = Hash(key);; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      FLOS_DCHECK_LE(s.stamp, epoch_, "NodeMap stamp ahead of current epoch");
      if (s.stamp != epoch_) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  const V* Find(NodeId key) const {
    return const_cast<NodeMap*>(this)->Find(key);
  }

  /// True iff `key` has an entry.
  bool Contains(NodeId key) const { return Find(key) != nullptr; }

  /// Inserts `key` -> `value` if absent. Returns true if inserted, false
  /// if the key was already present (existing value untouched).
  bool Insert(NodeId key, const V& value) {
    if (dense_) {
      FLOS_DCHECK(key < dense_value_.size(), "NodeMap key out of range");
      if (TestBit(key)) return false;
      dense_bits_[key >> 6] |= uint64_t{1} << (key & 63);
      dense_value_[key] = value;
      dense_keys_.push_back(key);
      ++size_;
      return true;
    }
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (uint64_t i = Hash(key);; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      if (s.stamp != epoch_) {
        s.stamp = epoch_;
        s.key = key;
        s.value = value;
        ++size_;
        return true;
      }
      if (s.key == key) return false;
    }
  }

 private:
  static constexpr size_t kInitialSlots = 1024;  // power of two

  struct Slot {
    uint32_t stamp = 0;
    NodeId key = 0;
    V value{};
  };

  bool TestBit(NodeId key) const {
    return (dense_bits_[key >> 6] >> (key & 63)) & 1;
  }

  static uint64_t Hash(NodeId key) {
    // Fibonacci multiplicative hash; ids are dense so this spreads runs.
    return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull >> 32;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.size() * 2);
    for (const Slot& s : old) {
      if (s.stamp != epoch_) continue;
      for (uint64_t i = Hash(s.key);; ++i) {
        Slot& dst = slots_[i & (slots_.size() - 1)];
        if (dst.stamp != epoch_) {
          dst = s;
          break;
        }
      }
    }
  }

  bool dense_ = false;
  uint32_t size_ = 0;
  // Dense backend.
  HugePageVector<uint64_t> dense_bits_;  ///< presence, 1 bit per node
  HugePageVector<V> dense_value_;        ///< read only where the bit is set
  std::vector<NodeId> dense_keys_;       ///< keys inserted since last Reset
  // Sparse backend.
  uint32_t epoch_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace flos

#endif  // FLOS_CORE_NODE_INDEX_H_
