// Columnar micro-batches of stream records.
//
// A RecordBatch is a structure-of-arrays view of up to `capacity` records:
// one contiguous column per Record field. Columns are cache-line aligned
// and allocated once, so the tight kernel loops of workloads/
// batch_kernels.h vectorize. The engines process records one at a time and
// never build a batch; the columnar path is exercised by bench/
// microbench_sim's operator sweep (DESIGN.md §11).
#ifndef SLASH_CORE_RECORD_BATCH_H_
#define SLASH_CORE_RECORD_BATCH_H_

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/logging.h"
#include "core/record.h"

namespace slash::core {

class RecordBatch {
 public:
  explicit RecordBatch(uint32_t capacity) : capacity_(capacity) {
    SLASH_CHECK_GT(capacity, 0u);
    // One aligned allocation holding all four columns back to back, each
    // column padded to a 64-byte boundary.
    const size_t col64 = Pad64(capacity * sizeof(int64_t));
    const size_t col16 = Pad64(capacity * sizeof(uint16_t));
    const size_t bytes = 3 * col64 + col16;  // ts, key, value, stream
    storage_.reset(static_cast<uint8_t*>(std::aligned_alloc(64, bytes)));
    SLASH_CHECK(storage_ != nullptr);
    uint8_t* p = storage_.get();
    timestamps_ = reinterpret_cast<int64_t*>(p);
    p += col64;
    keys_ = reinterpret_cast<uint64_t*>(p);
    p += col64;
    values_ = reinterpret_cast<int64_t*>(p);
    p += col64;
    stream_ids_ = reinterpret_cast<uint16_t*>(p);
  }

  RecordBatch(const RecordBatch&) = delete;
  RecordBatch& operator=(const RecordBatch&) = delete;

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Appends one record; false when the batch is at capacity.
  bool Append(const Record& r) {
    if (size_ == capacity_) return false;
    timestamps_[size_] = r.timestamp;
    keys_[size_] = r.key;
    values_[size_] = r.value;
    stream_ids_[size_] = r.stream_id;
    ++size_;
    return true;
  }

  void Clear() { size_ = 0; }

  /// Truncates to the first `n` elements (keep-mask compaction writes the
  /// survivors in place and then shrinks).
  void Resize(uint32_t n) {
    SLASH_CHECK_LE(n, size_);
    size_ = n;
  }

  // Raw column access for the vectorized kernels.
  int64_t* timestamps() { return timestamps_; }
  uint64_t* keys() { return keys_; }
  int64_t* values() { return values_; }
  uint16_t* stream_ids() { return stream_ids_; }
  const int64_t* timestamps() const { return timestamps_; }
  const uint64_t* keys() const { return keys_; }
  const int64_t* values() const { return values_; }
  const uint16_t* stream_ids() const { return stream_ids_; }

 private:
  static size_t Pad64(size_t n) { return (n + 63) / 64 * 64; }

  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  uint32_t capacity_;
  uint32_t size_ = 0;
  std::unique_ptr<uint8_t, FreeDeleter> storage_;
  int64_t* timestamps_ = nullptr;
  uint64_t* keys_ = nullptr;
  int64_t* values_ = nullptr;
  uint16_t* stream_ids_ = nullptr;
};

}  // namespace slash::core

#endif  // SLASH_CORE_RECORD_BATCH_H_
