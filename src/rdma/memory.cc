#include "rdma/memory.h"

#include <cstring>

#include "common/logging.h"

namespace slash::rdma {

MemoryRegion::MemoryRegion(int node, uint32_t lkey, uint32_t rkey,
                           uint64_t size)
    : node_(node),
      lkey_(lkey),
      rkey_(rkey),
      size_(size),
      data_(new uint8_t[size]) {
  std::memset(data_.get(), 0, size);
}

void MemoryRegion::NotifyRemoteWrite(uint64_t offset, uint64_t len) {
  for (auto& listener : listeners_) listener(offset, len);
}

std::vector<uint8_t> BufferPool::Get(uint64_t capacity) {
  if (!free_.empty()) {
    std::vector<uint8_t> buffer = std::move(free_.back());
    free_.pop_back();
    if (buffer.capacity() >= capacity) {
      ++hits_;
    } else {
      ++misses_;  // recycled store too small: this Get still allocates
      buffer.reserve(capacity);
    }
    buffer.clear();
    return buffer;
  }
  ++misses_;
  std::vector<uint8_t> buffer;
  buffer.reserve(capacity);
  return buffer;
}

void BufferPool::Put(std::vector<uint8_t>&& buffer) {
  buffer.clear();
  free_.push_back(std::move(buffer));
}

MemoryRegion* ProtectionDomain::RegisterRegion(uint64_t size) {
  SLASH_CHECK_GT(size, 0u);
  const uint32_t lkey = (*next_key_)++;
  const uint32_t rkey = (*next_key_)++;
  auto region = std::make_unique<MemoryRegion>(node_, lkey, rkey, size);
  MemoryRegion* mr = region.get();
  by_rkey_.emplace(rkey, std::move(region));
  registered_bytes_ += size;
  return mr;
}

void ProtectionDomain::DeregisterRegion(MemoryRegion* region) {
  const auto it = by_rkey_.find(region->rkey_);
  SLASH_CHECK_MSG(it != by_rkey_.end() && it->second.get() == region,
                  "DeregisterRegion of a region not registered on node "
                      << node_);
  region->registered_ = false;
  registered_bytes_ -= region->size_;
  if (region->in_flight_ > 0) {
    retired_.emplace(it->first, std::move(it->second));
  }
  by_rkey_.erase(it);
}

void ProtectionDomain::Free(MemoryRegion* region) {
  retired_.erase(region->rkey_);
}

MemoryRegion* ProtectionDomain::FindByRkey(uint32_t rkey) const {
  const auto it = by_rkey_.find(rkey);
  return it == by_rkey_.end() ? nullptr : it->second.get();
}

}  // namespace slash::rdma
