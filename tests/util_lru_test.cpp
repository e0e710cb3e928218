// ShardedLruCache (util/lru.hpp): eviction order, exact byte accounting,
// overwrites, and the capacity-0 escape hatch — the primitive under the
// daemon's result cache and the shared nominal-factor cache, so its
// accounting must be exact, not approximate.
#include "util/lru.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace mcdft::util {
namespace {

std::shared_ptr<void> Val(const std::string& s) {
  return std::static_pointer_cast<void>(std::make_shared<std::string>(s));
}

std::string AsStr(const std::shared_ptr<void>& p) {
  return *std::static_pointer_cast<std::string>(p);
}

TEST(LruCache, GetReturnsWhatPutStored) {
  ShardedLruCache cache(1024, 1);
  EXPECT_TRUE(cache.Put("a", Val("alpha"), 100));
  std::shared_ptr<void> got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(AsStr(got), "alpha");
  EXPECT_EQ(cache.Get("missing"), nullptr);

  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
}

TEST(LruCache, InsertOverCapacityEvictsLeastRecentlyUsed) {
  // One stripe so the whole capacity is one LRU list and eviction order is
  // fully deterministic.
  ShardedLruCache cache(300, 1);
  EXPECT_TRUE(cache.Put("a", Val("a"), 100));
  EXPECT_TRUE(cache.Put("b", Val("b"), 100));
  EXPECT_TRUE(cache.Put("c", Val("c"), 100));
  // Touch "a" so "b" is now the LRU victim.
  ASSERT_NE(cache.Get("a"), nullptr);

  EXPECT_TRUE(cache.Put("d", Val("d"), 100));  // evicts exactly "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("d"), nullptr);

  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 300u);  // byte sum stays exact across eviction
}

TEST(LruCache, ByteAccountingIsExactAcrossOverwriteAndErase) {
  ShardedLruCache cache(400, 1);
  EXPECT_TRUE(cache.Put("a", Val("a"), 111));
  EXPECT_TRUE(cache.Put("b", Val("b"), 222));
  EXPECT_EQ(cache.TotalStats().bytes, 333u);

  // Overwrite re-accounts: the old 111 is released, the new 50 charged.
  EXPECT_TRUE(cache.Put("a", Val("a2"), 50));
  EXPECT_EQ(cache.TotalStats().bytes, 272u);
  EXPECT_EQ(cache.TotalStats().entries, 2u);
  EXPECT_EQ(AsStr(cache.Get("a")), "a2");

  // Eviction releases exactly the victim's bytes: "b" is the LRU entry.
  EXPECT_TRUE(cache.Put("c", Val("c"), 300));
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.TotalStats().bytes, 350u);
  EXPECT_EQ(cache.TotalStats().entries, 2u);
}

TEST(LruCache, OverwriteNeverEvictsTheEntryBeingOverwritten) {
  // Regression: growing an entry while it sits at the LRU tail
  // must not let MakeRoom pick it as its own eviction victim (which
  // double-subtracted its bytes — size_t underflow — and left the index
  // iterator dangling).
  ShardedLruCache cache(100, 1);
  EXPECT_TRUE(cache.Put("a", Val("a1"), 50));
  EXPECT_TRUE(cache.Put("b", Val("b"), 40));  // "a" is now the LRU tail
  EXPECT_TRUE(cache.Put("a", Val("a2"), 70));  // needs room: must evict "b"

  EXPECT_EQ(cache.Get("b"), nullptr);
  std::shared_ptr<void> got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(AsStr(got), "a2");

  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 70u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(LruCache, FailedOverwriteOfUnpinnedEntryDropsTheStaleValue) {
  // An oversized overwrite cannot be admitted; the stale entry is dropped
  // rather than kept (it no longer reflects the caller's value), and the
  // other residents keep their values and bytes.
  ShardedLruCache cache(100, 1);
  EXPECT_TRUE(cache.Put("a", Val("a1"), 50));
  EXPECT_TRUE(cache.Put("b", Val("b"), 30));
  EXPECT_FALSE(cache.Put("a", Val("a2"), 101));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(AsStr(cache.Get("b")), "b");
  EXPECT_EQ(cache.TotalStats().bytes, 30u);
  EXPECT_EQ(cache.TotalStats().entries, 1u);
  EXPECT_EQ(cache.TotalStats().rejected, 1u);
}

TEST(LruCache, EvictedValueStaysAliveThroughBorrowedSharedPtr) {
  ShardedLruCache cache(100, 1);
  EXPECT_TRUE(cache.Put("a", Val("survivor"), 100));
  std::shared_ptr<void> borrowed = cache.Get("a");
  ASSERT_NE(borrowed, nullptr);

  // Evict "a" by inserting a full-capacity entry.
  EXPECT_TRUE(cache.Put("b", Val("b"), 100));
  EXPECT_EQ(cache.Get("a"), nullptr);
  // The borrower's reference is unaffected by the eviction.
  EXPECT_EQ(AsStr(borrowed), "survivor");
}

TEST(LruCache, OversizedAndZeroCapacityPutsAreRejected) {
  ShardedLruCache cache(100, 1);
  EXPECT_FALSE(cache.Put("big", Val("big"), 101));
  EXPECT_EQ(cache.TotalStats().rejected, 1u);
  EXPECT_EQ(cache.TotalStats().bytes, 0u);

  // Capacity 0 = disabled (the MCDFT_CACHE_MB=0 escape hatch).
  ShardedLruCache off(0, 4);
  EXPECT_FALSE(off.Put("a", Val("a"), 1));
  EXPECT_EQ(off.Get("a"), nullptr);
  EXPECT_EQ(off.CapacityBytes(), 0u);
}

TEST(LruCache, SmallCapacityNeverRoundsStripesToZero) {
  // A nonzero capacity smaller than the stripe count must still admit
  // entries (integer division must not zero out every stripe).
  ShardedLruCache cache(4, 8);
  EXPECT_TRUE(cache.Put("a", Val("a"), 1));
  EXPECT_NE(cache.Get("a"), nullptr);
}

TEST(LruCache, ConcurrentMixedTrafficKeepsAccountingConsistent) {
  // 4 stripes, 8 threads hammering overlapping keys: after the dust
  // settles the byte sum must equal the sum of resident entries and never
  // exceed capacity.  (TSan covers the data-race side of this test.)
  ShardedLruCache cache(8 * 1024, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t * 31 + i) % 64);
        if (i % 3 == 0) {
          cache.Put(key, Val(key), 64);
        } else {
          cache.Get(key);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = cache.TotalStats();
  EXPECT_LE(stats.bytes, 8u * 1024u);
  EXPECT_EQ(stats.bytes, stats.entries * 64u);  // every entry is 64 bytes
}

}  // namespace
}  // namespace mcdft::util
