/**
 * @file
 * Unit tests for the shared LRU core (common/lru.hpp): recency
 * semantics (find touches, peek does not), byte accounting through
 * insert/replace/setBytes/erase, and the eviction sweep's contracts —
 * budget + minEntries floors, the evictable guard skipping entries in
 * place, and the on-evict callback firing exactly once per drop. The
 * two production owners layered on top (CompileCache, ProblemRegistry)
 * keep their behavior-level coverage in test_service / test_spec; this
 * file pins the substrate they now share.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/lru.hpp"

using chocoq::common::LruMap;

namespace
{

using Map = LruMap<std::string, int>;

std::vector<std::string>
keyOrder(const Map &m)
{
    return {m.keys().begin(), m.keys().end()};
}

TEST(LruMap, InsertFindPeek)
{
    Map m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find("a"), nullptr);
    EXPECT_EQ(m.peek("a"), nullptr);

    m.insert("a", 1, 10);
    m.insert("b", 2, 20);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.bytes(), 30u);

    int *a = m.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, 1);
    ASSERT_NE(m.peek("b"), nullptr);
    EXPECT_EQ(*m.peek("b"), 2);
}

TEST(LruMap, FindTouchesPeekDoesNot)
{
    Map m;
    m.insert("a", 1);
    m.insert("b", 2);
    m.insert("c", 3);
    EXPECT_EQ(keyOrder(m), (std::vector<std::string>{"c", "b", "a"}));

    m.find("a");
    EXPECT_EQ(keyOrder(m), (std::vector<std::string>{"a", "c", "b"}));

    m.peek("b");
    EXPECT_EQ(keyOrder(m), (std::vector<std::string>{"a", "c", "b"}));
}

TEST(LruMap, InsertReplacesAndReaccounts)
{
    Map m;
    m.insert("a", 1, 10);
    m.insert("b", 2, 20);
    // Re-inserting an existing key replaces the value, moves the key to
    // most-recent, and swaps the byte estimate (no double counting).
    m.insert("a", 7, 5);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.bytes(), 25u);
    EXPECT_EQ(*m.peek("a"), 7);
    EXPECT_EQ(keyOrder(m), (std::vector<std::string>{"a", "b"}));
}

TEST(LruMap, EraseAndSetBytes)
{
    Map m;
    m.insert("a", 1, 10);
    m.insert("b", 2, 20);

    m.setBytes("a", 100);
    EXPECT_EQ(m.bytes(), 120u);
    m.setBytes("missing", 999); // no-op
    EXPECT_EQ(m.bytes(), 120u);

    EXPECT_TRUE(m.erase("a"));
    EXPECT_FALSE(m.erase("a"));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.bytes(), 20u);
    EXPECT_EQ(keyOrder(m), (std::vector<std::string>{"b"}));
}

TEST(LruMap, EvictsColdEndUntilBudgetHolds)
{
    Map m(Map::Options{/*maxBytes=*/100, /*minEntries=*/0});
    m.insert("a", 1, 40);
    m.insert("b", 2, 40);
    m.insert("c", 3, 40); // 120 bytes held; nothing evicts until asked.
    EXPECT_EQ(m.bytes(), 120u);

    // "a" is coldest; one drop brings 120 -> 80 <= 100.
    EXPECT_EQ(m.evictOverBudget(), 1u);
    EXPECT_EQ(m.bytes(), 80u);
    EXPECT_EQ(m.evictions(), 1u);
    EXPECT_EQ(m.peek("a"), nullptr);
    EXPECT_NE(m.peek("b"), nullptr);
    EXPECT_NE(m.peek("c"), nullptr);

    // Touching "b" protects it: the next overflow evicts "c" instead.
    m.find("b");
    m.insert("d", 4, 40);
    EXPECT_EQ(m.evictOverBudget(), 1u);
    EXPECT_EQ(m.peek("c"), nullptr);
    EXPECT_NE(m.peek("b"), nullptr);
}

TEST(LruMap, MinEntriesFloorAndUnboundedBudget)
{
    Map floor(Map::Options{/*maxBytes=*/10, /*minEntries=*/1});
    floor.insert("big", 1, 1000);
    // The sole entry stays even though it alone busts the budget.
    EXPECT_EQ(floor.evictOverBudget(), 0u);
    EXPECT_EQ(floor.size(), 1u);
    floor.insert("bigger", 2, 2000);
    // With two entries the floor allows exactly one drop (the cold
    // one), never the most recent insertion.
    EXPECT_EQ(floor.evictOverBudget(), 1u);
    EXPECT_EQ(floor.size(), 1u);
    EXPECT_NE(floor.peek("bigger"), nullptr);

    Map unbounded; // maxBytes = 0
    unbounded.insert("a", 1, 1 << 20);
    EXPECT_EQ(unbounded.evictOverBudget(), 0u);
    EXPECT_EQ(unbounded.size(), 1u);
}

TEST(LruMap, EvictableGuardSkipsInPlace)
{
    Map m(Map::Options{/*maxBytes=*/90, /*minEntries=*/0});
    m.insert("pinned", 1, 40);
    m.insert("b", 2, 40);
    m.insert("c", 3, 40);

    // "pinned" is the coldest but the guard protects it; the sweep must
    // keep walking and drop the next-coldest "b" (120 -> 80 <= 90).
    std::vector<std::string> dropped;
    const auto evictable = [](const std::string &k, const int &) {
        return k != "pinned";
    };
    const auto onEvict = [&dropped](const std::string &k, const int &) {
        dropped.push_back(k);
    };
    EXPECT_EQ(m.evictOverBudget(evictable, onEvict), 1u);
    EXPECT_EQ(dropped, (std::vector<std::string>{"b"}));
    EXPECT_NE(m.peek("pinned"), nullptr);
    EXPECT_NE(m.peek("c"), nullptr);

    // The skipped entry kept its cold recency slot: over budget again,
    // the sweep again steps past it and drops "c".
    m.insert("d", 4, 40);
    dropped.clear();
    EXPECT_EQ(m.evictOverBudget(evictable, onEvict), 1u);
    EXPECT_EQ(dropped, (std::vector<std::string>{"c"}));
    EXPECT_EQ(keyOrder(m), (std::vector<std::string>{"d", "pinned"}));
    EXPECT_EQ(m.evictions(), 2u);
}

} // namespace
