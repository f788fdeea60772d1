// Tests for the Slash State Backend storage layer: log-structured store
// invariants (wrap, adaptive resize, read-only boundary, truncation), hash
// index behaviour under collisions and real-thread concurrency, partition
// RMW/append semantics, delta serialization round-trips, and the SSB
// leader/helper epoch flow.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "state/hash_index.h"
#include "state/log_store.h"
#include "state/partition.h"
#include "state/state_backend.h"

namespace slash::state {
namespace {

// --- LogStructuredStore -----------------------------------------------------

TEST(LogStoreTest, AllocateAdvancesTailAligned) {
  LogStructuredStore lss(1024);
  const uint64_t a = lss.Allocate(40);
  const uint64_t b = lss.Allocate(1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 64u);  // 40 -> 64 (32-byte alignment)
  EXPECT_EQ(lss.tail(), 96u);
  EXPECT_EQ(lss.live_bytes(), 96u);
}

TEST(LogStoreTest, EntriesNeverStraddleWrap) {
  LogStructuredStore lss(256);
  std::vector<uint64_t> addrs;
  // 96-byte entries (32B header + 64B value): the third would straddle the
  // 256-byte lap; truncation keeps the window small so no growth is needed.
  for (int i = 0; i < 8; ++i) {
    const uint64_t addr = lss.Allocate(96);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = uint64_t(i);
    h->value_len = 64;
    h->flags = kEntryAggregate;
    addrs.push_back(addr);
    // Physical contiguity inside the lap.
    EXPECT_LE((addr % 256) + 96, 256u);
    lss.TruncateTo(addr);  // keep only the newest entry live
  }
}

TEST(LogStoreTest, ForEachEntrySkipsFillers) {
  LogStructuredStore lss(256);
  // Two 96-byte entries fill 192 of 256; the next allocation inserts a
  // 64-byte filler and wraps (after truncation makes room).
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 3; ++i) {
    const uint64_t addr = lss.Allocate(96);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = 100 + uint64_t(i);
    h->value_len = 64;
    h->flags = kEntryAggregate;
    addrs.push_back(addr);
    if (i == 1) lss.TruncateTo(96);  // free the first entry before wrapping
  }
  std::vector<uint64_t> seen;
  lss.ForEachEntry(lss.head(), lss.tail(),
                   [&](uint64_t, const EntryHeader& h) {
                     seen.push_back(h.key);
                   });
  EXPECT_EQ(seen, (std::vector<uint64_t>{101, 102}));
}

TEST(LogStoreTest, AdaptiveResizePreservesContent) {
  LogStructuredStore lss(256);
  std::vector<uint64_t> addrs;
  // Write 20 entries of 96 bytes; capacity must grow, content must survive.
  for (int i = 0; i < 20; ++i) {
    const uint64_t addr = lss.Allocate(96);
    auto* h = lss.HeaderAt(addr);
    *h = EntryHeader{};
    h->key = uint64_t(i);
    h->value_len = 64;
    h->flags = kEntryAggregate;
    std::memset(lss.At(addr) + sizeof(EntryHeader), i, 64);
    addrs.push_back(addr);
  }
  EXPECT_GT(lss.resize_count(), 0u);
  EXPECT_GE(lss.capacity(), 20u * 96);
  for (int i = 0; i < 20; ++i) {
    const auto* h = lss.HeaderAt(addrs[i]);
    EXPECT_EQ(h->key, uint64_t(i));
    const uint8_t* v = lss.At(addrs[i]) + sizeof(EntryHeader);
    for (int b = 0; b < 64; ++b) EXPECT_EQ(v[b], uint8_t(i));
  }
}

TEST(LogStoreTest, ReadOnlyBoundaryAndTruncate) {
  LogStructuredStore lss(1024);
  const uint64_t a = lss.Allocate(64);
  const uint64_t b = lss.Allocate(64);
  lss.MarkReadOnlyUpTo(lss.tail());
  EXPECT_FALSE(lss.Mutable(a));
  EXPECT_FALSE(lss.Mutable(b));
  const uint64_t c = lss.Allocate(64);
  EXPECT_TRUE(lss.Mutable(c));
  lss.TruncateTo(c);
  EXPECT_EQ(lss.head(), c);
  EXPECT_EQ(lss.live_bytes(), 64u);
}

TEST(LogStoreTest, DeathOnOutOfRangeAccess) {
  LogStructuredStore lss(1024);
  lss.Allocate(64);
  EXPECT_DEATH(lss.At(64), "outside live range");
}

// --- HashIndex ---------------------------------------------------------------

TEST(HashIndexTest, InsertAndFind) {
  HashIndex index(64);
  const KeyHash h = HashKey(42);
  EXPECT_EQ(index.Find(h), HashIndex::kInvalidAddress);
  uint64_t observed;
  EXPECT_TRUE(index.CompareExchangeHead(h, HashIndex::kInvalidAddress, 100,
                                        &observed));
  EXPECT_EQ(index.Find(h), 100u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(HashIndexTest, CasFailsOnStaleExpected) {
  HashIndex index(64);
  const KeyHash h = HashKey(42);
  uint64_t observed;
  ASSERT_TRUE(index.CompareExchangeHead(h, HashIndex::kInvalidAddress, 100,
                                        &observed));
  EXPECT_FALSE(index.CompareExchangeHead(h, HashIndex::kInvalidAddress, 200,
                                         &observed));
  EXPECT_EQ(observed, 100u);
  EXPECT_TRUE(index.CompareExchangeHead(h, 100, 200, &observed));
  EXPECT_EQ(index.Find(h), 200u);
}

// Keys whose (bucket, tag) collide share one chain head: inserts must use
// the CAS loop, and Find returns the most recent head of the group.
TEST(HashIndexTest, ManyKeysOverflowIntoChains) {
  HashIndex index(4);  // tiny: forces overflow buckets
  std::map<std::pair<uint64_t, uint16_t>, uint64_t> group_head;
  for (uint64_t k = 0; k < 200; ++k) {
    const KeyHash h = HashKey(k);
    uint64_t expected = index.Find(h);
    uint64_t observed;
    while (!index.CompareExchangeHead(h, expected, k + 1, &observed)) {
      expected = observed;
    }
    group_head[std::make_pair(h.bucket_hash & 3, h.tag)] = k + 1;
  }
  EXPECT_GT(index.overflow_count(), 0u);
  for (uint64_t k = 0; k < 200; ++k) {
    const KeyHash h = HashKey(k);
    const uint64_t want = group_head[std::make_pair(h.bucket_hash & 3, h.tag)];
    EXPECT_EQ(index.Find(h), want);
  }
  EXPECT_EQ(index.size(), group_head.size());
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(HashKey(3)), HashIndex::kInvalidAddress);
}

TEST(HashIndexTest, ConcurrentInsertsFromRealThreads) {
  // 1024 buckets: mostly fresh claims. 16 buckets: long overflow chains, and
  // the pool crosses a segment boundary while other threads walk chains.
  for (const size_t bucket_count : {size_t{1024}, size_t{16}}) {
    HashIndex index(bucket_count);
    constexpr int kThreads = 4;
    constexpr uint64_t kKeysPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&index, t] {
        for (uint64_t i = 0; i < kKeysPerThread; ++i) {
          const uint64_t key = uint64_t(t) * kKeysPerThread + i;
          const KeyHash h = HashKey(key);
          uint64_t expected = index.Find(h);
          uint64_t observed;
          while (!index.CompareExchangeHead(h, expected, key + 1, &observed)) {
            expected = observed;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    // Each (bucket, tag) group's head must be one of the keys mapped to it.
    std::map<std::pair<uint64_t, uint16_t>, std::set<uint64_t>> groups;
    for (uint64_t key = 0; key < kThreads * kKeysPerThread; ++key) {
      const KeyHash h = HashKey(key);
      groups[std::make_pair(h.bucket_hash & (bucket_count - 1), h.tag)]
          .insert(key + 1);
    }
    for (const auto& [group, members] : groups) {
      const uint64_t found = index.Find(HashKey(*members.begin() - 1));
      EXPECT_TRUE(members.count(found))
          << "group head " << found << " not a member address";
    }
    EXPECT_EQ(index.size(), groups.size());
    if (bucket_count == 16) {
      EXPECT_GT(index.overflow_count(), 1024u);
    }
  }
}

// Clear() resets only the home buckets claimed since the last Clear; after
// inserts that spill into overflow chains, each cycle must still leave an
// index indistinguishable from a fresh one.
TEST(HashIndexTest, ClearAfterOverflowBehavesLikeFresh) {
  HashIndex index(2);  // 14 home slots: every cycle spills
  for (uint64_t cycle = 0; cycle < 50; ++cycle) {
    HashIndex fresh(2);
    const uint64_t keys = 20 + cycle * 7;  // vary the spill depth per cycle
    for (uint64_t i = 0; i < keys; ++i) {
      const KeyHash h = HashKey(cycle * 1000 + i);
      for (HashIndex* idx : {&index, &fresh}) {
        uint64_t expected = idx->Find(h);
        uint64_t observed;
        while (!idx->CompareExchangeHead(h, expected, i + 1, &observed)) {
          expected = observed;
        }
      }
    }
    ASSERT_GT(index.overflow_count(), 0u) << "cycle " << cycle;
    EXPECT_EQ(index.overflow_count(), fresh.overflow_count());
    EXPECT_EQ(index.size(), fresh.size());
    // Probe this cycle's keys and the previous cycle's (now cleared) keys.
    for (uint64_t i = 0; i < keys + 200; ++i) {
      const KeyHash mine = HashKey(cycle * 1000 + i);
      EXPECT_EQ(index.Find(mine), fresh.Find(mine)) << "cycle " << cycle;
      if (cycle > 0) {
        const KeyHash old = HashKey((cycle - 1) * 1000 + i);
        EXPECT_EQ(index.Find(old), fresh.Find(old)) << "cycle " << cycle;
      }
    }
    index.Clear();
    ASSERT_EQ(index.size(), 0u) << "cycle " << cycle;
    EXPECT_EQ(index.overflow_count(), 0u);
    EXPECT_EQ(index.Find(HashKey(cycle * 1000)), HashIndex::kInvalidAddress);
  }
}

// Inserts `key` with value `key + 1`, chaining behind the current head.
void InsertKey(HashIndex* index, uint64_t key) {
  const KeyHash h = HashKey(key);
  uint64_t expected = index->Find(h);
  uint64_t observed;
  while (!index->CompareExchangeHead(h, expected, key + 1, &observed)) {
    expected = observed;
  }
}

// claims() counts fresh slot claims, one per occupied slot, not CAS updates
// of an established head; Clear() zeroes it and keeps the bucket count.
TEST(HashIndexTest, ClaimsCountFreshSlotsUntilClear) {
  HashIndex index(8);  // 56 home slots: 300 keys also claim overflow slots
  EXPECT_EQ(index.claims(), 0u);
  for (uint64_t k = 0; k < 300; ++k) InsertKey(&index, k);
  ASSERT_GT(index.overflow_count(), 0u);
  const size_t claimed = index.claims();
  EXPECT_EQ(claimed, index.size());
  EXPECT_GT(claimed, 290u);  // 16-bit tags: (bucket, tag) groups rarely merge
  for (uint64_t k = 0; k < 300; ++k) InsertKey(&index, k);  // updates only
  EXPECT_EQ(index.claims(), claimed);
  index.Clear();
  EXPECT_EQ(index.claims(), 0u);
  EXPECT_EQ(index.bucket_count(), 8u);
  InsertKey(&index, 7);
  EXPECT_EQ(index.claims(), 1u);
}

// Resize() empties the index at the new bucket count, in either direction,
// and reuses its overflow segments.
TEST(HashIndexTest, ResizeEmptiesAndRebuckets) {
  HashIndex index(4);
  for (const size_t buckets : {size_t{4}, size_t{256}, size_t{2}}) {
    if (buckets != index.bucket_count()) {
      index.Resize(buckets);
      EXPECT_EQ(index.bucket_count(), buckets);
      EXPECT_EQ(index.size(), 0u);
      EXPECT_EQ(index.claims(), 0u);
      EXPECT_EQ(index.overflow_count(), 0u);
      EXPECT_EQ(index.Find(HashKey(3)), HashIndex::kInvalidAddress);
    }
    std::map<std::pair<uint64_t, uint16_t>, uint64_t> group_head;
    for (uint64_t k = 0; k < 200; ++k) {
      InsertKey(&index, k);
      const KeyHash h = HashKey(k);
      group_head[std::make_pair(h.bucket_hash & (buckets - 1), h.tag)] = k + 1;
    }
    EXPECT_EQ(index.size(), group_head.size());
    EXPECT_EQ(index.claims(), group_head.size());
    EXPECT_EQ(index.overflow_count() > 0, buckets < 32) << buckets;
    for (uint64_t k = 0; k < 200; ++k) {
      const KeyHash h = HashKey(k);
      EXPECT_EQ(index.Find(h),
                group_head[std::make_pair(h.bucket_hash & (buckets - 1), h.tag)]);
    }
  }
  EXPECT_DEATH(index.Resize(48), "power of two");
}

// The destructor frees exactly the segments it allocated: none, or several
// (each segment holds 1024 overflow buckets), including reused ones.
TEST(HashIndexTest, DestroysWithZeroOrSeveralSegments) {
  { HashIndex empty(64); }
  {
    HashIndex used(64);
    uint64_t observed;
    ASSERT_TRUE(used.CompareExchangeHead(HashKey(1), HashIndex::kInvalidAddress,
                                         1, &observed));
    EXPECT_EQ(used.overflow_count(), 0u);
  }
  {
    HashIndex index(256);
    for (int round = 0; round < 2; ++round) {
      for (uint64_t k = 0; k < 40000; ++k) {
        const KeyHash h = HashKey(k);
        uint64_t expected = index.Find(h);
        uint64_t observed;
        while (!index.CompareExchangeHead(h, expected, k + 1, &observed)) {
          expected = observed;
        }
      }
      ASSERT_GT(index.overflow_count(), 2u * 1024u);  // >= 3 segments
      if (round == 0) index.Clear();  // the second round reuses segments
    }
  }
}

// --- Partition ----------------------------------------------------------------

PartitionConfig SmallAggConfig() {
  PartitionConfig cfg;
  cfg.kind = StateKind::kAggregate;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  return cfg;
}

PartitionConfig SmallAppendConfig() {
  PartitionConfig cfg;
  cfg.kind = StateKind::kAppend;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  return cfg;
}

TEST(PartitionTest, AggregateRmwAccumulates) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({7, 0}, 10);
  p.UpdateAggregate({7, 0}, 5);
  p.UpdateAggregate({7, 1}, 100);  // different bucket: separate state
  AggState s;
  ASSERT_TRUE(p.LookupAggregate({7, 0}, &s));
  EXPECT_EQ(s.sum, 15);
  EXPECT_EQ(s.count, 2);
  ASSERT_TRUE(p.LookupAggregate({7, 1}, &s));
  EXPECT_EQ(s.sum, 100);
  EXPECT_FALSE(p.LookupAggregate({8, 0}, &s));
  EXPECT_EQ(p.entry_count(), 2u);
}

TEST(PartitionTest, AggregateMatchesSequentialOracle) {
  Partition p(0, SmallAggConfig());
  std::map<std::pair<uint64_t, int64_t>, AggState> oracle;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.NextBounded(37);
    const int64_t bucket = int64_t(rng.NextBounded(4));
    const int64_t value = int64_t(rng.NextBounded(100)) - 50;
    p.UpdateAggregate({key, bucket}, value);
    oracle[{key, bucket}].Apply(value);
  }
  for (const auto& [kb, expected] : oracle) {
    AggState got;
    ASSERT_TRUE(p.LookupAggregate({kb.first, kb.second}, &got));
    EXPECT_EQ(got, expected) << "key " << kb.first << " bucket " << kb.second;
  }
}

TEST(PartitionTest, ConcurrentRmwFromRealThreads) {
  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 1024;
  cfg.lss_capacity = 1 << 20;
  Partition p(0, cfg);
  constexpr int kThreads = 4;
  constexpr int kUpdates = 20000;
  constexpr uint64_t kKeys = 64;
  // The keys stay below the index's first growth threshold, so the threads
  // race on slot claims and chain-head CAS, never on a growth (which, like
  // an LSS resize, requires quiescence).
  static_assert(kKeys < Partition::kIndexClaimsPerBucket *
                            Partition::kInitialIndexBuckets);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kUpdates; ++i) {
        p.UpdateAggregate({rng.NextBounded(kKeys), 0}, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    AggState s;
    if (p.LookupAggregate({k, 0}, &s)) total += s.count;
  }
  EXPECT_EQ(total, int64_t(kThreads) * kUpdates);
  EXPECT_EQ(p.index_bucket_count(), Partition::kInitialIndexBuckets);
}

// The index starts at kInitialIndexBuckets (or index_buckets when that is
// smaller), doubles once the claims reach kIndexClaimsPerBucket per bucket,
// stops at index_buckets, and keeps its size across Reset.
TEST(PartitionTest, IndexGrowsWithClaimsUpToMaximum) {
  PartitionConfig small = SmallAggConfig();
  small.index_buckets = 16;
  EXPECT_EQ(Partition(0, small).index_bucket_count(), 16u);

  PartitionConfig cfg = SmallAggConfig();
  cfg.index_buckets = 256;
  Partition p(0, cfg);
  constexpr size_t kFirst = Partition::kInitialIndexBuckets;
  ASSERT_EQ(p.index_bucket_count(), kFirst);
  const uint64_t threshold = Partition::kIndexClaimsPerBucket * kFirst;
  for (uint64_t k = 0; k < threshold; ++k) p.UpdateAggregate({k, 0}, 1);
  EXPECT_EQ(p.index_bucket_count(), kFirst);  // grows on the next insert
  p.UpdateAggregate({0, 0}, 1);               // an update claims nothing
  EXPECT_EQ(p.index_bucket_count(), kFirst);
  p.UpdateAggregate({threshold, 0}, 1);
  EXPECT_EQ(p.index_bucket_count(), 2 * kFirst);
  for (uint64_t k = threshold + 1; k < 5000; ++k) p.UpdateAggregate({k, 0}, 1);
  EXPECT_EQ(p.index_bucket_count(), 256u);
  for (uint64_t k = 0; k < 5000; ++k) {
    AggState s;
    ASSERT_TRUE(p.LookupAggregate({k, 0}, &s)) << k;
    EXPECT_EQ(s.count, k == 0 ? 2 : 1) << k;
  }
  p.Reset();
  EXPECT_EQ(p.index_bucket_count(), 256u);
  AggState s;
  EXPECT_FALSE(p.LookupAggregate({1, 0}, &s));
}

// Growing re-links each chain from the log in address order, so a key's
// appends stay newest-first, and tombstoned entries stay invisible.
TEST(PartitionTest, IndexGrowthKeepsAppendOrderAndTombstones) {
  PartitionConfig cfg = SmallAppendConfig();
  cfg.index_buckets = 1024;
  Partition p(0, cfg);
  for (uint8_t i = 0; i < 200; ++i) {
    p.Append({7, 1}, i % 3, &i, 1);
    p.Append({8, 0}, 0, &i, 1);  // dies below
    for (uint64_t filler = 0; filler < 8; ++filler) {
      p.Append({1000 + uint64_t(i) * 8 + filler, 2}, 0, &i, 1);
    }
  }
  ASSERT_EQ(p.TombstoneBucketsUpTo(0), 200u);
  const uint8_t zero = 0;
  for (uint64_t k = 0; k < 2000; ++k) p.Append({5000 + k, 3}, 0, &zero, 1);
  EXPECT_GE(p.index_bucket_count(), 512u);
  AppendSet set;
  p.CollectAppends({7, 1}, &set);
  ASSERT_EQ(set.size(), 200u);
  for (size_t j = 0; j < 200; ++j) {
    const uint8_t i = uint8_t(199 - j);
    EXPECT_EQ(set.elements()[j], (AppendElement{uint16_t(i % 3), {i}})) << j;
  }
  AppendSet dead;
  p.CollectAppends({8, 0}, &dead);
  EXPECT_EQ(dead.size(), 0u);
}

// An empty payload is a legal append, and callers may pass no buffer for
// it; it reads back as an empty value beside the non-empty ones.
TEST(PartitionTest, EmptyAppendWithNullDataReadsBackEmpty) {
  Partition p(0, SmallAppendConfig());
  const uint8_t byte = 42;
  p.Append({3, 1}, 0, &byte, 1);
  p.Append({3, 1}, 2, nullptr, 0);
  AppendSet set;
  p.CollectAppends({3, 1}, &set);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.elements()[0], (AppendElement{2, {}}));
  EXPECT_EQ(set.elements()[1], (AppendElement{0, {42}}));
}

// A partition whose index grows from kInitialIndexBuckets must be
// observably identical to one capped there, which never grows: the index
// decides where chains live, never what a lookup, collect, scan or
// serialization returns. Random operation sequences over both state kinds
// cross several doublings, with tombstones, resets and merged deltas.
TEST(PartitionTest, GrowingIndexMatchesFixedIndex) {
  constexpr size_t kFirst = Partition::kInitialIndexBuckets;
  for (const StateKind kind : {StateKind::kAggregate, StateKind::kAppend}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "kind " << int(kind) << " seed "
                                      << seed);
      PartitionConfig cfg;
      cfg.kind = kind;
      cfg.lss_capacity = 1 << 12;
      cfg.index_buckets = 1 << 12;
      Partition grow(0, cfg);
      cfg.index_buckets = kFirst;
      Partition fixed(0, cfg);
      Rng rng(seed);
      int64_t low = 0;  // buckets below it have been tombstoned
      size_t doublings = 0;
      size_t last_buckets = grow.index_bucket_count();

      auto random_key = [&] {
        return StateKey{rng.NextBounded(3000), low + int64_t(rng.NextBounded(4))};
      };
      auto mutate = [&](Partition* p, StateKey k, int64_t v) {
        if (kind == StateKind::kAggregate) {
          p->UpdateAggregate(k, v);
        } else {
          const uint8_t bytes[2] = {uint8_t(v), uint8_t(v >> 8)};
          p->Append(k, uint16_t(v & 3), bytes, 1 + uint32_t(v & 1));
        }
      };
      auto expect_same_lookup = [&](StateKey k) {
        if (kind == StateKind::kAggregate) {
          AggState a, b;
          const bool found = grow.LookupAggregate(k, &a);
          ASSERT_EQ(found, fixed.LookupAggregate(k, &b));
          if (found) EXPECT_EQ(a, b);
        } else {
          AppendSet a, b;
          grow.CollectAppends(k, &a);
          fixed.CollectAppends(k, &b);
          EXPECT_EQ(a.elements(), b.elements());  // same order too
        }
      };
      auto expect_same_snapshot = [&] {
        std::vector<uint8_t> a, b;
        EXPECT_EQ(grow.Snapshot(&a), fixed.Snapshot(&b));
        EXPECT_EQ(a, b);
      };

      for (int step = 0; step < 20000; ++step) {
        const uint64_t op = rng.NextBounded(1000);
        if (op < 880) {
          const StateKey k = random_key();
          const int64_t v = int64_t(rng.NextBounded(1000)) - 500;
          mutate(&grow, k, v);
          mutate(&fixed, k, v);
        } else if (op < 970) {
          expect_same_lookup(random_key());
          expect_same_lookup({rng.NextBounded(3000), low - 1});  // tombstoned
        } else if (op < 985) {
          const int64_t upto = low + int64_t(rng.NextBounded(2));
          EXPECT_EQ(grow.TombstoneBucketsUpTo(upto),
                    fixed.TombstoneBucketsUpTo(upto));
          EXPECT_EQ(grow.live_bucket_floor(), fixed.live_bucket_floor());
          low = upto + 1;
        } else if (op < 993) {
          Partition source(1, cfg);
          for (int i = 0; i < 50; ++i) {
            mutate(&source, random_key(), int64_t(rng.NextBounded(1000)));
          }
          std::vector<uint8_t> delta;
          source.Snapshot(&delta);
          ASSERT_TRUE(grow.MergeDelta(delta.data(), delta.size()).ok());
          ASSERT_TRUE(fixed.MergeDelta(delta.data(), delta.size()).ok());
        } else if (op < 999) {
          expect_same_snapshot();
        } else {
          std::vector<uint8_t> a, b;
          EXPECT_EQ(grow.SerializeDelta(&a), fixed.SerializeDelta(&b));
          EXPECT_EQ(a, b);
          grow.Reset();
          fixed.Reset();
        }
        if (grow.index_bucket_count() != last_buckets) {
          EXPECT_EQ(grow.index_bucket_count(), 2 * last_buckets);
          last_buckets = grow.index_bucket_count();
          ++doublings;
          // Right after a doubling, every group re-linked so far must read
          // as it does through the fixed index.
          expect_same_snapshot();
          for (uint64_t key = 0; key < 3000; key += 7) {
            expect_same_lookup({key, low + int64_t(key % 4)});
          }
        }
        EXPECT_EQ(grow.entry_count(), fixed.entry_count());
      }
      EXPECT_GE(doublings, 3u);
      EXPECT_EQ(fixed.index_bucket_count(), kFirst);
    }
  }
}

TEST(PartitionTest, AppendAndCollect) {
  Partition p(0, SmallAppendConfig());
  const uint8_t a[] = {1, 2, 3};
  const uint8_t b[] = {4, 5};
  p.Append({9, 2}, 0, a, sizeof(a));
  p.Append({9, 2}, 1, b, sizeof(b));
  p.Append({9, 3}, 0, a, sizeof(a));  // other bucket
  AppendSet set;
  p.CollectAppends({9, 2}, &set);
  ASSERT_EQ(set.size(), 2u);
  AppendSet expected;
  expected.Add(1, {4, 5});
  expected.Add(0, {1, 2, 3});
  EXPECT_TRUE(set.EquivalentTo(expected));
}

TEST(PartitionTest, TombstoneHidesTriggeredBuckets) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 1);
  p.UpdateAggregate({2, 1}, 1);
  p.UpdateAggregate({3, 2}, 1);
  EXPECT_EQ(p.TombstoneBucketsUpTo(1), 2u);
  AggState s;
  EXPECT_FALSE(p.LookupAggregate({1, 0}, &s));
  EXPECT_FALSE(p.LookupAggregate({2, 1}, &s));
  EXPECT_TRUE(p.LookupAggregate({3, 2}, &s));
  int live = 0;
  p.ForEachLive([&](const EntryHeader&, const uint8_t*) { ++live; });
  EXPECT_EQ(live, 1);
}

TEST(PartitionTest, LiveBucketFloorTracksInsertsTombstonesAndReset) {
  Partition p(0, SmallAggConfig());
  EXPECT_EQ(p.live_bucket_floor(), Partition::kNoLiveBucket);
  p.UpdateAggregate({1, 5}, 1);
  p.UpdateAggregate({2, 3}, 1);
  EXPECT_EQ(p.live_bucket_floor(), 3);
  EXPECT_EQ(p.TombstoneBucketsUpTo(3), 1u);
  EXPECT_EQ(p.live_bucket_floor(), 5);  // the smallest survivor
  p.UpdateAggregate({3, 1}, 1);         // a late insert lowers it again
  EXPECT_EQ(p.live_bucket_floor(), 1);
  EXPECT_EQ(p.TombstoneBucketsUpTo(9), 2u);
  EXPECT_EQ(p.live_bucket_floor(), Partition::kNoLiveBucket);
  p.UpdateAggregate({4, 7}, 1);
  p.Reset();
  EXPECT_EQ(p.live_bucket_floor(), Partition::kNoLiveBucket);
}

// Scans start after the dead prefix of the log. A wrap filler at the start
// of that prefix must be stepped over, not read as an entry.
TEST(PartitionTest, DeadPrefixWithWrapFillerIsSkipped) {
  Partition p(0, SmallAppendConfig());  // 4 KiB log
  const uint8_t payload[40] = {7};      // 32 + 40 bytes -> 96-byte entries
  // Fill 42 entries (4032 bytes), then restart the log there: the next
  // append no longer fits the lap and pads 4032..4096 with a filler.
  for (uint64_t i = 0; i < 42; ++i) p.Append({i, 0}, 0, payload, 40);
  p.Reset();
  ASSERT_EQ(p.lss().head(), 4032u);
  p.Append({100, 1}, 0, payload, 40);  // bucket 1, dies below
  p.Append({101, 1}, 0, payload, 40);  // bucket 1, dies below
  p.Append({102, 4}, 0, payload, 40);  // bucket 4, survives
  ASSERT_EQ(p.lss().tail(), 4096u + 3 * 96u) << "expected a wrap filler";
  ASSERT_EQ(p.lss().resize_count(), 0u);

  EXPECT_EQ(p.TombstoneBucketsUpTo(2), 2u);
  p.Append({103, 3}, 0, payload, 40);
  std::vector<uint64_t> keys;
  p.ForEachLive([&](const EntryHeader& h, const uint8_t* value) {
    EXPECT_EQ(value[0], 7);
    keys.push_back(h.key);
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{102, 103}));
  EXPECT_EQ(p.TombstoneBucketsUpTo(3), 1u);
  EXPECT_EQ(p.TombstoneBucketsUpTo(4), 1u);
  EXPECT_EQ(p.entry_count(), 0u);
  size_t live = 0;
  p.ForEachLive([&](const EntryHeader&, const uint8_t*) { ++live; });
  EXPECT_EQ(live, 0u);
}

TEST(PartitionTest, DeltaRoundTripAggregate) {
  Partition helper(1, SmallAggConfig());
  helper.UpdateAggregate({1, 0}, 10);
  helper.UpdateAggregate({1, 0}, 20);
  helper.UpdateAggregate({2, 0}, -5);

  std::vector<uint8_t> wire;
  EXPECT_EQ(helper.SerializeDelta(&wire), 2u);
  helper.Reset();
  EXPECT_EQ(helper.entry_count(), 0u);
  AggState s;
  EXPECT_FALSE(helper.LookupAggregate({1, 0}, &s));

  Partition leader(1, SmallAggConfig());
  leader.UpdateAggregate({1, 0}, 100);  // pre-existing primary state
  ASSERT_TRUE(leader.MergeDelta(wire.data(), wire.size()).ok());
  ASSERT_TRUE(leader.LookupAggregate({1, 0}, &s));
  EXPECT_EQ(s.sum, 130);
  EXPECT_EQ(s.count, 3);
  ASSERT_TRUE(leader.LookupAggregate({2, 0}, &s));
  EXPECT_EQ(s.sum, -5);
}

TEST(PartitionTest, DeltaRoundTripAppend) {
  Partition helper(1, SmallAppendConfig());
  const uint8_t a[] = {9, 9};
  helper.Append({5, 1}, 0, a, sizeof(a));
  helper.Append({5, 1}, 1, a, sizeof(a));
  std::vector<uint8_t> wire;
  EXPECT_EQ(helper.SerializeDelta(&wire), 2u);
  helper.Reset();

  Partition leader(1, SmallAppendConfig());
  ASSERT_TRUE(leader.MergeDelta(wire.data(), wire.size()).ok());
  AppendSet set;
  leader.CollectAppends({5, 1}, &set);
  EXPECT_EQ(set.size(), 2u);
}

TEST(PartitionTest, MergeDeltaRejectsGarbage) {
  Partition p(0, SmallAggConfig());
  const uint8_t junk[] = {1, 2, 3};
  EXPECT_FALSE(p.MergeDelta(junk, sizeof(junk)).ok());
  // Kind mismatch: an append delta into aggregate state.
  Partition append_src(0, SmallAppendConfig());
  const uint8_t v[] = {1};
  append_src.Append({1, 0}, 0, v, 1);
  std::vector<uint8_t> wire;
  append_src.SerializeDelta(&wire);
  EXPECT_FALSE(p.MergeDelta(wire.data(), wire.size()).ok());
}

TEST(PartitionTest, RmwAfterResetRestartsFromZero) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 42);
  std::vector<uint8_t> wire;
  p.SerializeDelta(&wire);
  p.Reset();
  p.UpdateAggregate({1, 0}, 1);
  AggState s;
  ASSERT_TRUE(p.LookupAggregate({1, 0}, &s));
  EXPECT_EQ(s.sum, 1);  // restarted from the identity, not 43
  EXPECT_EQ(s.count, 1);
}

TEST(PartitionTest, RmwOnReadOnlyRegionDies) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 1);
  std::vector<uint8_t> wire;
  p.SerializeDelta(&wire);  // marks read-only, no Reset yet
  EXPECT_DEATH(p.UpdateAggregate({1, 0}, 1), "read-only");
}

// --- StateBackend ---------------------------------------------------------------

SsbConfig SmallSsbConfig(int nodes, StateKind kind = StateKind::kAggregate) {
  SsbConfig cfg;
  cfg.nodes = nodes;
  cfg.kind = kind;
  cfg.lss_capacity = 1 << 12;
  cfg.index_buckets = 64;
  cfg.epoch_bytes = 1000;
  return cfg;
}

TEST(StateBackendTest, PartitionRoutingIsConsistentAcrossNodes) {
  StateBackend a(0, SmallSsbConfig(4));
  StateBackend b(3, SmallSsbConfig(4));
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.partition_of(key), b.partition_of(key));
    EXPECT_GE(a.partition_of(key), 0);
    EXPECT_LT(a.partition_of(key), 4);
  }
}

TEST(StateBackendTest, EpochAccounting) {
  StateBackend ssb(0, SmallSsbConfig(2));
  EXPECT_FALSE(ssb.EpochDue());
  ssb.AccountProcessedBytes(999);
  EXPECT_FALSE(ssb.EpochDue());
  ssb.AccountProcessedBytes(1);
  EXPECT_TRUE(ssb.EpochDue());
  ssb.BeginEpoch();
  EXPECT_FALSE(ssb.EpochDue());
  EXPECT_EQ(ssb.local(1)->epoch(), 1u);
  EXPECT_EQ(ssb.local(0)->epoch(), 0u);  // the primary's counter is remote-owned
}

TEST(StateBackendTest, HelperDrainLeaderMergeConverges) {
  // Two nodes; both update the same keys; after draining helpers into
  // leaders, each leader's primary holds exactly the global state of its
  // partition (P2 at the partition level).
  const int nodes = 2;
  std::vector<std::unique_ptr<StateBackend>> ssb;
  for (int n = 0; n < nodes; ++n) {
    ssb.push_back(std::make_unique<StateBackend>(n, SmallSsbConfig(nodes)));
  }
  std::map<std::pair<uint64_t, int64_t>, AggState> oracle;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const int node = int(rng.NextBounded(nodes));
    const uint64_t key = rng.NextBounded(50);
    const int64_t value = int64_t(rng.NextBounded(100));
    ssb[node]->UpdateAggregate(key, 0, value);
    oracle[{key, 0}].Apply(value);
  }
  // Epoch: each helper drains each remote partition to its leader.
  for (int helper = 0; helper < nodes; ++helper) {
    for (int p = 0; p < nodes; ++p) {
      if (p == helper) continue;
      std::vector<uint8_t> wire;
      ssb[helper]->BeginEpoch();
      ssb[helper]->DrainFragment(p, /*low_watermark=*/0, &wire);
      DeltaEnvelope env;
      ASSERT_TRUE(ssb[p]->MergeIntoPrimary(wire.data(), wire.size(), &env).ok());
      EXPECT_EQ(env.helper_node, uint32_t(helper));
      EXPECT_EQ(env.partition, uint32_t(p));
    }
  }
  for (const auto& [kb, expected] : oracle) {
    const int p = ssb[0]->partition_of(kb.first);
    AggState got;
    ASSERT_TRUE(ssb[p]->primary()->LookupAggregate(
        {kb.first, kb.second}, &got))
        << "key " << kb.first;
    EXPECT_EQ(got, expected) << "key " << kb.first;
  }
}

TEST(PartitionTest, SnapshotRestoreRoundTrip) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 10);
  p.UpdateAggregate({2, 3}, -4);
  p.UpdateAggregate({1, 0}, 5);

  std::vector<uint8_t> snapshot;
  EXPECT_EQ(p.Snapshot(&snapshot), 2u);
  // Snapshotting does not freeze the partition (unlike SerializeDelta).
  p.UpdateAggregate({1, 0}, 100);

  Partition restored(0, SmallAggConfig());
  ASSERT_TRUE(restored.Restore(snapshot.data(), snapshot.size()).ok());
  AggState s;
  ASSERT_TRUE(restored.LookupAggregate({1, 0}, &s));
  EXPECT_EQ(s.sum, 15);  // pre-snapshot state only
  EXPECT_EQ(s.count, 2);
  ASSERT_TRUE(restored.LookupAggregate({2, 3}, &s));
  EXPECT_EQ(s.sum, -4);
}

TEST(PartitionTest, SnapshotSkipsTombstones) {
  Partition p(0, SmallAggConfig());
  p.UpdateAggregate({1, 0}, 1);
  p.UpdateAggregate({2, 5}, 1);
  p.TombstoneBucketsUpTo(0);
  std::vector<uint8_t> snapshot;
  EXPECT_EQ(p.Snapshot(&snapshot), 1u);
  Partition restored(0, SmallAggConfig());
  ASSERT_TRUE(restored.Restore(snapshot.data(), snapshot.size()).ok());
  AggState s;
  EXPECT_FALSE(restored.LookupAggregate({1, 0}, &s));
  EXPECT_TRUE(restored.LookupAggregate({2, 5}, &s));
}

TEST(StateBackendTest, PrimaryCheckpointRoundTrip) {
  StateBackend ssb(0, SmallSsbConfig(2));
  // Keys owned by partition 0 land in the primary.
  for (uint64_t key = 0; key < 200; ++key) {
    if (ssb.partition_of(key) == 0) ssb.UpdateAggregate(key, 1, int64_t(key));
  }
  std::vector<uint8_t> checkpoint;
  const size_t entries = ssb.SnapshotPrimary(&checkpoint);
  EXPECT_GT(entries, 0u);

  StateBackend recovered(0, SmallSsbConfig(2));
  ASSERT_TRUE(
      recovered.RestorePrimary(checkpoint.data(), checkpoint.size()).ok());
  for (uint64_t key = 0; key < 200; ++key) {
    if (ssb.partition_of(key) != 0) continue;
    AggState a, b;
    ASSERT_TRUE(ssb.primary()->LookupAggregate({key, 1}, &a));
    ASSERT_TRUE(recovered.primary()->LookupAggregate({key, 1}, &b));
    EXPECT_EQ(a, b);
  }
}

TEST(StateBackendTest, MergeRejectsWrongLeader) {
  StateBackend helper(1, SmallSsbConfig(3));
  StateBackend wrong_leader(2, SmallSsbConfig(3));
  helper.UpdateAggregate(/*key=*/0, 0, 5);
  // Drain partition 0's fragment but deliver it to node 2.
  std::vector<uint8_t> wire;
  helper.DrainFragment(0, 0, &wire);
  EXPECT_FALSE(
      wrong_leader.MergeIntoPrimary(wire.data(), wire.size(), nullptr).ok());
  EXPECT_FALSE(wrong_leader.MergeIntoPrimary(wire.data(), 3, nullptr).ok());
}

}  // namespace
}  // namespace slash::state
