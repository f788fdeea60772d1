// RDMA-capable memory: protection domains and registered memory regions.
//
// This mirrors the ibverbs memory model: a node registers a region of its
// memory with its NIC (ibv_reg_mr), obtaining a local key and a remote key;
// a peer that knows the remote key can target the region with one-sided
// verbs. In the simulation, regions are plain host allocations (all nodes
// live in one process) — what is preserved is the *protocol*: a QP write
// only lands in registered memory, addressing is (rkey, offset), and remote
// writes bypass the remote CPU entirely (no callback into engine code other
// than optional poll-wakeup hooks; see RemoteWriteListener).
#ifndef SLASH_RDMA_MEMORY_H_
#define SLASH_RDMA_MEMORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace slash::rdma {

/// Remote-key handle: what a peer needs to address a region with one-sided
/// verbs.
struct RemoteKey {
  uint32_t rkey = 0;
};

/// A registered, RDMA-capable memory region on one node.
///
/// Regions are allocated 64-byte aligned (cache lines) in 2 MiB-aligned
/// slabs, matching the paper's hugepage configuration (Sec. 8.1.1), which in
/// real deployments reduces NIC TLB misses.
class MemoryRegion {
 public:
  /// Notification hook invoked when a remote one-sided WRITE lands in this
  /// region. This models "polled memory changed" for the simulation's
  /// event-driven pollers; it carries no data and does not involve the
  /// remote CPU.
  using RemoteWriteListener = std::function<void(uint64_t offset, uint64_t len)>;

  MemoryRegion(int node, uint32_t lkey, uint32_t rkey, uint64_t size);
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  int node() const { return node_; }
  uint32_t lkey() const { return lkey_; }
  RemoteKey remote_key() const { return RemoteKey{rkey_}; }
  uint64_t size() const { return size_; }

  /// Raw access to the region's memory.
  uint8_t* data() { return data_.get(); }
  const uint8_t* data() const { return data_.get(); }

  /// Registers a listener fired after each inbound remote write.
  void AddRemoteWriteListener(RemoteWriteListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Invoked by the fabric when a remote write to [offset, offset+len) has
  /// been materialized.
  void NotifyRemoteWrite(uint64_t offset, uint64_t len);

 private:
  friend class ProtectionDomain;

  int node_;
  uint32_t lkey_;
  uint32_t rkey_;
  uint64_t size_;
  std::unique_ptr<uint8_t[]> data_;
  std::vector<RemoteWriteListener> listeners_;
  bool registered_ = true;
  uint32_t in_flight_ = 0;  // scheduled fabric deliveries touching it
};

/// A span into a local registered region (ibv_sge analogue).
struct MemorySpan {
  MemoryRegion* region = nullptr;
  uint64_t offset = 0;
  uint64_t length = 0;

  uint8_t* data() const { return region->data() + offset; }

  /// True iff the span lies entirely within its region.
  bool valid() const {
    return region != nullptr && offset + length <= region->size();
  }
};

/// A free-list slab pool for transfer-sized byte buffers.
///
/// The channel layer's retained-message copies (upstream replay buffers)
/// and other slot-sized scratch buffers churn at message rate; allocating
/// them fresh puts the allocator on the datapath. The pool recycles the
/// backing stores instead: Get() hands out a cleared buffer whose capacity
/// is already at least `capacity` whenever one is available, Put() returns
/// a retired buffer to the free list. Single-threaded like everything on
/// the simulator; owned by the Fabric so all channels of a run share one
/// free list (slots are uniformly sized per config, so reuse is near
/// perfect in steady state).
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty buffer with at least `capacity` bytes reserved,
  /// recycled when possible.
  std::vector<uint8_t> Get(uint64_t capacity);

  /// Returns a retired buffer's backing store to the pool.
  void Put(std::vector<uint8_t>&& buffer);

  /// Requests served without growing a buffer / requests that allocated.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Fraction of Get() calls served entirely from recycled capacity; 1.0
  /// in steady state.
  double hit_rate() const {
    const uint64_t total = hits_ + misses_;
    return total > 0 ? double(hits_) / double(total) : 1.0;
  }

 private:
  std::vector<std::vector<uint8_t>> free_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// A protection domain: owns the registered regions of one node.
class ProtectionDomain {
 public:
  /// `next_key` is the fabric-wide key counter shared by every domain of
  /// one fabric (keys stay unique across its nodes); it must outlive the
  /// domain.
  ProtectionDomain(int node, uint32_t* next_key)
      : node_(node), next_key_(next_key) {}
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  int node() const { return node_; }

  /// Registers a new region of `size` bytes. The domain owns the region.
  MemoryRegion* RegisterRegion(uint64_t size);

  /// Deregisters `region` (ibv_dereg_mr analogue): its rkey stops resolving
  /// and registered_bytes() drops at once. The memory is freed now if no
  /// fabric delivery is in flight on the region, otherwise right after the
  /// last one: a WRITE or READ posted before the call still lands and
  /// notifies the region's listeners exactly as if it were registered.
  /// The owner must not post new work on the region.
  void DeregisterRegion(MemoryRegion* region);

  /// Looks up a region by remote key; nullptr if unknown or deregistered.
  /// Used by the fabric to resolve every one-sided access, so it is a hash
  /// lookup.
  MemoryRegion* FindByRkey(uint32_t rkey) const;

  /// Total registered bytes on this node.
  uint64_t registered_bytes() const { return registered_bytes_; }

  /// Regions whose memory is still allocated: the registered ones plus the
  /// deregistered ones a delivery still holds.
  size_t allocated_regions() const {
    return by_rkey_.size() + retired_.size();
  }

 private:
  friend class Fabric;

  // In-flight accounting: a delivery the fabric schedules to touch `region`
  // holds it from posting until it fires. Every Unhold pairs with a Hold.
  void Hold(MemoryRegion* region) { ++region->in_flight_; }
  void Unhold(MemoryRegion* region) {
    if (--region->in_flight_ == 0 && !region->registered_) Free(region);
  }
  // Frees a deregistered region once its last delivery fired.
  void Free(MemoryRegion* region);

  int node_;
  uint32_t* next_key_;
  // Both maps own their regions, keyed by rkey.
  std::unordered_map<uint32_t, std::unique_ptr<MemoryRegion>> by_rkey_;
  std::unordered_map<uint32_t, std::unique_ptr<MemoryRegion>> retired_;
  uint64_t registered_bytes_ = 0;
};

}  // namespace slash::rdma

#endif  // SLASH_RDMA_MEMORY_H_
