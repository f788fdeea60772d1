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
  regions_.push_back(std::make_unique<MemoryRegion>(node_, lkey, rkey, size));
  by_rkey_.emplace(rkey, regions_.back().get());
  registered_bytes_ += size;
  return regions_.back().get();
}

MemoryRegion* ProtectionDomain::FindByRkey(uint32_t rkey) const {
  const auto it = by_rkey_.find(rkey);
  return it == by_rkey_.end() ? nullptr : it->second;
}

}  // namespace slash::rdma
