// Tests for NodeMap (core/node_index.h), the resettable node-keyed map
// behind the visited index and the frontier enumeration: both backends
// must behave as a plain map that Reset() empties, however many queries
// (reset cycles) a workspace serves.

#include "core/node_index.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace flos {
namespace {

constexpr uint64_t kNodes = 5000;

class NodeMapTest : public ::testing::TestWithParam<bool> {
 protected:
  NodeMapTest() { map_.Configure(kNodes, /*dense=*/GetParam()); }

  // Asserts `map_` holds exactly `truth` over the whole key range.
  void ExpectMatches(const std::unordered_map<NodeId, uint32_t>& truth) {
    ASSERT_EQ(map_.size(), truth.size());
    for (NodeId key = 0; key < kNodes; ++key) {
      const uint32_t* value = map_.Find(key);
      const auto it = truth.find(key);
      if (it == truth.end()) {
        ASSERT_EQ(value, nullptr) << "key " << key << " should be absent";
        ASSERT_FALSE(map_.Contains(key));
      } else {
        ASSERT_NE(value, nullptr) << "key " << key << " should be present";
        ASSERT_EQ(*value, it->second) << "key " << key;
      }
    }
  }

  NodeMap<uint32_t> map_;
};

TEST_P(NodeMapTest, InsertFindAndDuplicateInsert) {
  EXPECT_EQ(map_.size(), 0u);
  EXPECT_EQ(map_.Find(7), nullptr);
  EXPECT_TRUE(map_.Insert(7, 70));
  EXPECT_TRUE(map_.Insert(0, 1));
  EXPECT_TRUE(map_.Insert(kNodes - 1, 2));
  // Same 64-bit bitmap word as 7: presence is per key, not per word.
  EXPECT_TRUE(map_.Insert(8, 80));
  EXPECT_FALSE(map_.Insert(7, 999)) << "duplicate insert must be refused";
  EXPECT_EQ(map_.size(), 4u);
  ASSERT_NE(map_.Find(7), nullptr);
  EXPECT_EQ(*map_.Find(7), 70u) << "duplicate insert must not overwrite";
  EXPECT_EQ(*map_.Find(8), 80u);
  EXPECT_EQ(*map_.Find(0), 1u);
  EXPECT_EQ(*map_.Find(kNodes - 1), 2u);
  EXPECT_EQ(map_.Find(6), nullptr);
  EXPECT_EQ(map_.Find(9), nullptr);
  // Values are writable through Find.
  *map_.Find(8) = 81;
  EXPECT_EQ(*map_.Find(8), 81u);
}

TEST_P(NodeMapTest, ResetForgetsEverything) {
  // 1667 keys: past the sparse backend's initial table, so it also grows.
  std::unordered_map<NodeId, uint32_t> truth;
  for (NodeId key = 0; key < kNodes; key += 3) {
    ASSERT_TRUE(map_.Insert(key, key * 2));
    truth[key] = key * 2;
  }
  ExpectMatches(truth);
  map_.Reset();
  ExpectMatches({});
  // Every key is insertable again, with its new value.
  for (NodeId key = 0; key < kNodes; key += 3) {
    ASSERT_TRUE(map_.Insert(key, key + 5));
  }
  EXPECT_EQ(*map_.Find(3), 8u);
}

TEST_P(NodeMapTest, ResetAfterEveryKeyIsPresent) {
  // A query that visits the whole graph: every bitmap word is full.
  for (NodeId key = 0; key < kNodes; ++key) ASSERT_TRUE(map_.Insert(key, 1));
  EXPECT_EQ(map_.size(), kNodes);
  map_.Reset();
  ExpectMatches({});
}

TEST_P(NodeMapTest, ThousandsOfResetCyclesMatchAReferenceMap) {
  // Each cycle is one "query": a random key set, some cycles disjoint from
  // the previous one and some overlapping it, checked in full afterwards.
  Rng rng(42);
  std::vector<NodeId> previous;
  for (int cycle = 0; cycle < 3000; ++cycle) {
    map_.Reset();
    std::unordered_map<NodeId, uint32_t> truth;
    std::vector<NodeId> keys;
    const bool overlap = cycle % 2 == 1;
    const uint64_t count = 1 + rng.NextBounded(cycle % 100 == 0 ? 400 : 40);
    for (uint64_t i = 0; i < count; ++i) {
      NodeId key;
      if (overlap && !previous.empty() && rng.NextBounded(2) == 0) {
        key = previous[rng.NextBounded(previous.size())];
      } else if (overlap) {
        key = static_cast<NodeId>(rng.NextBounded(kNodes));
      } else {
        // Disjoint: alternate halves of the key range cycle by cycle.
        const uint64_t half = (cycle / 2) % 2;
        key = static_cast<NodeId>(half * (kNodes / 2) +
                                  rng.NextBounded(kNodes / 2));
      }
      const auto value = static_cast<uint32_t>(cycle * 1000 + i);
      const bool inserted = map_.Insert(key, value);
      ASSERT_EQ(inserted, truth.emplace(key, value).second)
          << "cycle " << cycle << " key " << key;
      keys.push_back(key);
    }
    if (cycle % 50 == 0) {
      ExpectMatches(truth);  // full-range sweep, every 50th cycle
    } else {
      ASSERT_EQ(map_.size(), truth.size());
      for (const auto& [key, value] : truth) {
        ASSERT_NE(map_.Find(key), nullptr) << "cycle " << cycle;
        ASSERT_EQ(*map_.Find(key), value);
      }
      // The last cycle's keys that this cycle did not insert are gone.
      for (const NodeId key : previous) {
        ASSERT_EQ(map_.Contains(key), truth.count(key) == 1)
            << "cycle " << cycle << " key " << key;
      }
    }
    previous = std::move(keys);
  }
}

TEST_P(NodeMapTest, ConfigureSwitchesBackendsAndStartsEmpty) {
  ASSERT_TRUE(map_.Insert(11, 1));
  ASSERT_TRUE(map_.Insert(4000, 2));
  // Switch to the other backend, then back: each Configure yields an empty
  // map that works like a fresh one.
  for (const bool dense : {!GetParam(), GetParam()}) {
    map_.Configure(kNodes, dense);
    ExpectMatches({});
    ASSERT_TRUE(map_.Insert(11, 3));
    ASSERT_FALSE(map_.Insert(11, 4));
    ASSERT_TRUE(map_.Insert(12, 5));
    ExpectMatches({{11, 3}, {12, 5}});
    map_.Reset();
    ExpectMatches({});
  }
  // Re-configuring the same backend also empties it.
  ASSERT_TRUE(map_.Insert(99, 9));
  map_.Configure(kNodes, GetParam());
  ExpectMatches({});
}

INSTANTIATE_TEST_SUITE_P(Backends, NodeMapTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Dense" : "Sparse";
                         });

}  // namespace
}  // namespace flos
