#include "state/hash_index.h"

#include <bit>

#include "common/logging.h"

namespace slash::state {

HashIndex::HashIndex(size_t bucket_count)
    : segments_(std::make_unique_for_overwrite<Bucket*[]>(kMaxSegments)) {
  Resize(bucket_count);
}

HashIndex::~HashIndex() {
  for (size_t i = 0; i < segments_allocated_; ++i) delete[] segments_[i];
}

void HashIndex::Clear() {
  for (size_t w = 0; w < dirty_.size(); ++w) {
    for (uint64_t bits = dirty_[w]; bits != 0; bits &= bits - 1) {
      Bucket& bucket = buckets_[w * 64 + size_t(std::countr_zero(bits))];
      for (auto& e : bucket.entries) {
        e.store(kEmptySlot, std::memory_order_relaxed);
      }
      bucket.overflow.store(0, std::memory_order_relaxed);
    }
    dirty_[w] = 0;
  }
  overflow_used_.store(0, std::memory_order_relaxed);
  claims_.store(0, std::memory_order_relaxed);
}

void HashIndex::Resize(size_t bucket_count) {
  SLASH_CHECK_MSG(bucket_count != 0 && (bucket_count & (bucket_count - 1)) == 0,
                  "bucket count must be a power of two");
  buckets_ = std::vector<Bucket>(bucket_count);
  dirty_.assign((bucket_count + 63) / 64, 0);
  overflow_used_.store(0, std::memory_order_relaxed);
  claims_.store(0, std::memory_order_relaxed);
}

HashIndex::Bucket* HashIndex::ExtendChainLocked(Bucket* tail) {
  const size_t idx = overflow_used_.load(std::memory_order_relaxed);
  const size_t segment = idx / kSegmentSize;
  SLASH_CHECK_MSG(segment < kMaxSegments,
                  "hash index overflow pool exhausted");
  if (segment == segments_allocated_) {
    segments_[segment] = new Bucket[kSegmentSize];
    ++segments_allocated_;
  }
  Bucket& fresh = OverflowAt(idx);
  for (auto& e : fresh.entries) e.store(kEmptySlot, std::memory_order_relaxed);
  fresh.overflow.store(0, std::memory_order_relaxed);
  overflow_used_.store(idx + 1, std::memory_order_relaxed);
  tail->overflow.store(idx + 1, std::memory_order_release);
  return &fresh;
}

std::atomic<uint64_t>* HashIndex::FindSlot(Bucket* bucket, uint16_t tag,
                                           bool allocate) {
  for (Bucket* b = bucket;;) {
    std::atomic<uint64_t>* empty = nullptr;
    for (auto& e : b->entries) {
      const uint64_t slot = e.load(std::memory_order_acquire);
      if (slot != kEmptySlot && SlotTag(slot) == tag) return &e;
      if (slot == kEmptySlot && empty == nullptr) empty = &e;
    }
    const uint64_t ov = b->overflow.load(std::memory_order_acquire);
    if (ov != 0) {
      b = &OverflowAt(ov - 1);
      continue;
    }
    if (!allocate) return nullptr;
    if (empty != nullptr) return empty;
    // Rare path: extend the overflow chain under a spinlock.
    while (overflow_lock_.test_and_set(std::memory_order_acquire)) {
    }
    const uint64_t ov2 = b->overflow.load(std::memory_order_acquire);
    Bucket* next = ov2 == 0 ? ExtendChainLocked(b) : &OverflowAt(ov2 - 1);
    overflow_lock_.clear(std::memory_order_release);
    b = next;
  }
}

std::atomic<uint64_t>* HashIndex::FindSlotLocked(Bucket* bucket,
                                                 uint16_t tag) {
  for (Bucket* b = bucket;;) {
    std::atomic<uint64_t>* empty = nullptr;
    for (auto& e : b->entries) {
      const uint64_t slot = e.load(std::memory_order_acquire);
      if (slot != kEmptySlot && SlotTag(slot) == tag) return &e;
      if (slot == kEmptySlot && empty == nullptr) empty = &e;
    }
    const uint64_t ov = b->overflow.load(std::memory_order_acquire);
    if (ov != 0) {
      b = &OverflowAt(ov - 1);
      continue;
    }
    if (empty != nullptr) return empty;
    // Extend the overflow chain; the caller already holds overflow_lock_.
    b = ExtendChainLocked(b);
  }
}

uint64_t HashIndex::Find(KeyHash h) const {
  auto* self = const_cast<HashIndex*>(this);
  std::atomic<uint64_t>* slot =
      self->FindSlot(self->BucketFor(h), h.tag, /*allocate=*/false);
  if (slot == nullptr) return kInvalidAddress;
  const uint64_t v = slot->load(std::memory_order_acquire);
  if (v == kEmptySlot || SlotTag(v) != h.tag) return kInvalidAddress;
  return SlotAddress(v);
}

bool HashIndex::CompareExchangeHead(KeyHash h, uint64_t expected,
                                    uint64_t desired, uint64_t* observed) {
  SLASH_CHECK_MSG(desired <= kAddressMask,
                  "log address exceeds 48-bit index capacity");
  for (;;) {
    std::atomic<uint64_t>* slot =
        FindSlot(BucketFor(h), h.tag, /*allocate=*/true);
    uint64_t current = slot->load(std::memory_order_acquire);

    if (current != kEmptySlot && SlotTag(current) == h.tag) {
      // Established slot: plain CAS on the chain head.
      if (SlotAddress(current) != expected) {
        *observed = SlotAddress(current);
        return false;
      }
      if (slot->compare_exchange_strong(current, Pack(h.tag, desired),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        *observed = desired;
        return true;
      }
      continue;  // lost a race; re-observe
    }

    if (current == kEmptySlot) {
      // Claiming a fresh slot for this tag. Serialize claims under the
      // (rare-path) spinlock: without it, two threads scanning concurrently
      // can claim *different* empty slots for the same tag, splitting the
      // chain across duplicate entries.
      while (overflow_lock_.test_and_set(std::memory_order_acquire)) {
      }
      std::atomic<uint64_t>* locked_slot =
          FindSlotLocked(BucketFor(h), h.tag);
      if (locked_slot == nullptr) {
        // Bucket chain filled up meanwhile; extend outside the claim path.
        overflow_lock_.clear(std::memory_order_release);
        continue;
      }
      uint64_t locked_current = locked_slot->load(std::memory_order_acquire);
      if (locked_current == kEmptySlot) {
        if (expected != kInvalidAddress) {
          overflow_lock_.clear(std::memory_order_release);
          *observed = kInvalidAddress;
          return false;
        }
        locked_slot->store(Pack(h.tag, desired), std::memory_order_release);
        const size_t home = h.bucket_hash & (buckets_.size() - 1);
        dirty_[home / 64] |= 1ULL << (home % 64);
        // The lock serializes claims, so a plain increment suffices.
        claims_.store(claims_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
        overflow_lock_.clear(std::memory_order_release);
        *observed = desired;
        return true;
      }
      overflow_lock_.clear(std::memory_order_release);
      continue;  // someone claimed it meanwhile; retry from the top
    }

    // The empty slot we found got claimed by another tag; rescan.
  }
}

size_t HashIndex::size() const {
  size_t n = 0;
  auto count = [&n](const Bucket& b) {
    for (const auto& e : b.entries) {
      if (e.load(std::memory_order_relaxed) != kEmptySlot) ++n;
    }
  };
  for (const auto& b : buckets_) count(b);
  const size_t used = overflow_used_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < used; ++i) count(OverflowAt(i));
  return n;
}

}  // namespace slash::state
