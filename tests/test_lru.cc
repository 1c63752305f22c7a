// Tests for the byte-budget LRU behind the decode and result caches:
// collision resolution, recency, refusal and eviction order.
#include "common/lru.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cati {
namespace {

uint32_t oneBucket(const std::string&) { return 7; }

TEST(ByteLru, ForcedCollisionResolvesByFullKey) {
  ByteLru<int> lru(1000, &oneBucket);
  ASSERT_TRUE(lru.insert("alpha", 1, 10));
  ASSERT_TRUE(lru.insert("beta", 2, 10));
  ASSERT_TRUE(lru.insert("gamma", 3, 10));
  ASSERT_NE(lru.find("alpha"), nullptr);
  EXPECT_EQ(*lru.find("alpha"), 1);
  EXPECT_EQ(*lru.find("beta"), 2);
  EXPECT_EQ(*lru.find("gamma"), 3);
  EXPECT_EQ(lru.find("delta"), nullptr);
  // Keys differing only past an embedded NUL are distinct byte strings.
  ASSERT_TRUE(lru.insert(std::string("k\0a", 3), 4, 10));
  ASSERT_TRUE(lru.insert(std::string("k\0b", 3), 5, 10));
  EXPECT_EQ(*lru.find(std::string("k\0a", 3)), 4);
  EXPECT_EQ(*lru.find(std::string("k\0b", 3)), 5);

  // Erasing one bucket member leaves the others reachable.
  EXPECT_EQ(lru.erase("beta"), 2);
  EXPECT_EQ(lru.find("beta"), nullptr);
  EXPECT_EQ(*lru.find("alpha"), 1);
  EXPECT_EQ(*lru.find("gamma"), 3);
  EXPECT_FALSE(lru.erase("beta").has_value());
  EXPECT_EQ(lru.size(), 4U);
  EXPECT_EQ(lru.bytes(), 40U);
}

TEST(ByteLru, FindLeavesRecencyUnchanged) {
  ByteLru<std::string> lru(30);
  lru.insert("a", "A", 10);
  lru.insert("b", "B", 10);
  lru.insert("c", "C", 10);
  // A find of the LRU entry must not save it from eviction...
  ASSERT_NE(lru.find("a"), nullptr);
  auto evicted = lru.insert("d", "D", 10);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, std::vector<std::string>{"A"});
  // ...while a touch does.
  EXPECT_TRUE(lru.touch("b"));
  evicted = lru.insert("e", "E", 10);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, std::vector<std::string>{"C"});
  EXPECT_NE(lru.find("b"), nullptr);
  EXPECT_FALSE(lru.touch("a"));
}

TEST(ByteLru, OversizeEntryIsRefused) {
  ByteLru<int> lru(100);
  ASSERT_TRUE(lru.insert("keep", 1, 60));
  // Larger than the whole budget: refused with nothing changed — not even
  // the existing entry under the same key.
  EXPECT_FALSE(lru.insert("big", 2, 101));
  EXPECT_FALSE(lru.insert("keep", 3, 101));
  EXPECT_EQ(lru.find("big"), nullptr);
  EXPECT_EQ(*lru.find("keep"), 1);
  EXPECT_EQ(lru.size(), 1U);
  EXPECT_EQ(lru.bytes(), 60U);
  // Exactly the budget fits, evicting everything else.
  const auto evicted = lru.insert("full", 4, 100);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, std::vector<int>{1});
  EXPECT_EQ(lru.bytes(), 100U);

  ByteLru<int> off(0);
  EXPECT_FALSE(off.insert("k", 1, 1));
  EXPECT_EQ(off.size(), 0U);
}

TEST(ByteLru, EvictsInLruOrderDownToBudgetAndReturnsValues) {
  ByteLru<int> lru(100);
  for (int i = 0; i < 5; ++i) {
    const auto evicted = lru.insert(std::to_string(i), i, 20);
    ASSERT_TRUE(evicted);
    EXPECT_TRUE(evicted->empty());
  }
  EXPECT_EQ(lru.bytes(), 100U);
  lru.touch("0");  // recency, oldest first: 1 2 3 4 0
  // 50 more bytes: the three least recent go, in LRU order, and no more
  // than needed (100 + 50 - 60 = 90 <= 100).
  const auto evicted = lru.insert("big", 99, 50);
  ASSERT_TRUE(evicted);
  EXPECT_EQ(*evicted, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(lru.bytes(), 90U);
  EXPECT_EQ(lru.size(), 3U);
  EXPECT_NE(lru.find("0"), nullptr);
  EXPECT_NE(lru.find("4"), nullptr);
  EXPECT_NE(lru.find("big"), nullptr);
}

TEST(ByteLru, InsertReplacesExistingKey) {
  ByteLru<int> lru(100);
  lru.insert("a", 1, 30);
  lru.insert("b", 2, 30);
  // Replacing "a" re-costs it and makes it most recent; nothing evicted.
  const auto evicted = lru.insert("a", 3, 50);
  ASSERT_TRUE(evicted);
  EXPECT_TRUE(evicted->empty());
  EXPECT_EQ(*lru.find("a"), 3);
  EXPECT_EQ(lru.size(), 2U);
  EXPECT_EQ(lru.bytes(), 80U);
  // "b" is now the LRU tail.
  EXPECT_EQ(*lru.insert("c", 4, 30), std::vector<int>{2});

  lru.clear();
  EXPECT_EQ(lru.size(), 0U);
  EXPECT_EQ(lru.bytes(), 0U);
  EXPECT_EQ(lru.find("a"), nullptr);
}

}  // namespace
}  // namespace cati
