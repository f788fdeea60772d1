// The hash index of the Slash State Backend, following the FASTER design
// the paper adopts (Sec. 7.2.1): indexing is decoupled from storage — the
// index maps a key hash to the log address of the newest entry in that
// key's chain; entries chain backwards through EntryHeader::prev.
//
// Layout: an array of cache-line-sized buckets, each holding seven entries
// of the form (tag : 16 bits | address : 48 bits) plus one overflow slot
// linking to an overflow bucket. The 16-bit tag disambiguates keys within a
// bucket without touching the log. Keys that collide on (bucket, tag) share
// one chain; the partition layer verifies full keys while walking it.
//
// Thread-safety: entry slots are atomics updated with compare-exchange, so
// concurrent inserts/updates from multiple worker threads are safe (the
// paper's executors concurrently update shared partition state). Fresh slot
// claims and overflow bucket allocation take a small spinlock (rare path),
// which also guards the dirty-bucket bitmap and counts the claim. Clear()
// and Resize() require external quiescence: no Find or CompareExchangeHead
// may run concurrently with them.
#ifndef SLASH_STATE_HASH_INDEX_H_
#define SLASH_STATE_HASH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"

namespace slash::state {

class HashIndex {
 public:
  static constexpr uint64_t kInvalidAddress = ~0ULL;

  /// `bucket_count` must be a power of two.
  explicit HashIndex(size_t bucket_count);
  ~HashIndex();

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Returns the chain-head address for the hashed key, or kInvalidAddress.
  uint64_t Find(KeyHash h) const;

  /// Atomically replaces the chain head for the hashed key: succeeds iff
  /// the current head equals `expected` (kInvalidAddress for a fresh key);
  /// on failure returns false and writes the observed head to `*observed`.
  /// The typical insert loop:
  ///   uint64_t head = index.Find(h);
  ///   for (;;) {
  ///     entry->prev = head;
  ///     if (index.CompareExchangeHead(h, head, addr, &head)) break;
  ///   }
  bool CompareExchangeHead(KeyHash h, uint64_t expected, uint64_t desired,
                           uint64_t* observed);

  /// Number of occupied entry slots (linearizes only when quiescent).
  size_t size() const;

  /// Removes all entries. Resets only the home buckets claimed since the
  /// last Clear(), so its cost follows the keys inserted, not the bucket
  /// count. Keeps the bucket count. Requires external quiescence.
  void Clear();

  /// Removes all entries and re-sizes the index to `bucket_count` buckets
  /// (a power of two). Overflow segments are kept for reuse. The caller
  /// re-inserts whatever should stay indexed. Requires external quiescence.
  void Resize(size_t bucket_count);

  /// Slots claimed since the last Clear() or Resize(): one per (bucket,
  /// tag) group inserted, so the partition can size the index by load.
  size_t claims() const { return claims_.load(std::memory_order_relaxed); }

  size_t bucket_count() const { return buckets_.size(); }
  size_t overflow_count() const {
    return overflow_used_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kEntriesPerBucket = 7;
  static constexpr uint64_t kAddressBits = 48;
  static constexpr uint64_t kAddressMask = (1ULL << kAddressBits) - 1;
  // A slot value of 0 means empty (tags are never 0; see HashKey()).
  static constexpr uint64_t kEmptySlot = 0;

  struct alignas(64) Bucket {
    std::atomic<uint64_t> entries[kEntriesPerBucket];
    std::atomic<uint64_t> overflow;  // index+1 into overflow_, 0 = none
  };

  static uint64_t Pack(uint16_t tag, uint64_t address) {
    return (uint64_t(tag) << kAddressBits) | (address & kAddressMask);
  }
  static uint16_t SlotTag(uint64_t slot) {
    return static_cast<uint16_t>(slot >> kAddressBits);
  }
  static uint64_t SlotAddress(uint64_t slot) { return slot & kAddressMask; }

  Bucket* BucketFor(KeyHash h) const {
    return &buckets_[h.bucket_hash & (buckets_.size() - 1)];
  }
  // Finds the slot holding `tag`, or (when allocate is true) claims an
  // empty slot for it, extending the overflow chain as needed.
  std::atomic<uint64_t>* FindSlot(Bucket* bucket, uint16_t tag,
                                  bool allocate);
  // FindSlot for callers already holding overflow_lock_: returns the slot
  // holding `tag`, an empty slot, or extends the chain in place. Never
  // returns nullptr except transiently impossible states.
  std::atomic<uint64_t>* FindSlotLocked(Bucket* bucket, uint16_t tag);
  // Links a fresh, empty overflow bucket behind `tail` and returns it.
  // The caller holds overflow_lock_.
  Bucket* ExtendChainLocked(Bucket* tail);

  // Overflow buckets live in fixed-size segments allocated on demand:
  // bucket addresses stay stable forever, so readers can follow overflow
  // links without synchronizing with pool growth. A segment pointer is
  // written once, under overflow_lock_, before the release-store of the
  // first link into it, so readers that acquired a link may read it
  // plainly. Only the first `segments_allocated_` pointers are ever
  // written; the rest of the table stays uninitialized.
  static constexpr size_t kSegmentSize = 1024;
  static constexpr size_t kMaxSegments = 1 << 16;

  Bucket& OverflowAt(size_t i) const {
    return segments_[i / kSegmentSize][i % kSegmentSize];
  }

  mutable std::vector<Bucket> buckets_;
  // One bit per home bucket that ever had a slot claimed since the last
  // Clear(). Set under overflow_lock_ by every fresh claim; a home bucket
  // only gains an overflow link once all its slots are claimed, so every
  // bucket Clear() must reset is marked.
  std::vector<uint64_t> dirty_;
  std::unique_ptr<Bucket*[]> segments_;
  size_t segments_allocated_ = 0;  // guarded by overflow_lock_
  std::atomic<size_t> overflow_used_{0};
  std::atomic<size_t> claims_{0};  // written under overflow_lock_
  std::atomic_flag overflow_lock_ = ATOMIC_FLAG_INIT;
};

}  // namespace slash::state

#endif  // SLASH_STATE_HASH_INDEX_H_
