// Shared machinery of the re-partitioning engines (RDMA UpPar and the
// Flink-like baseline): multi-flow source multiplexing with watermark
// tracking, and the in-memory queue used for same-node exchanges.
//
// Both engines split each node's workers into sender threads (source +
// stateless stages + hash partitioning + fan-out) and receiver threads
// (co-partitioned state + triggering), the configuration the paper uses
// (Sec. 8.2.2: "they use half the threads to execute the filter and
// projection and the second half for the window operator").
#ifndef SLASH_ENGINES_REPARTITION_COMMON_H_
#define SLASH_ENGINES_REPARTITION_COMMON_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "core/query.h"
#include "perf/cost_model.h"
#include "sim/simulator.h"

namespace slash::engines {

/// Round-robin multiplexer over several flows assigned to one sender
/// thread, tracking the sender's low watermark (min over its flows).
class FlowMux {
 public:
  explicit FlowMux(std::vector<std::unique_ptr<core::RecordSource>> flows)
      : flows_(std::move(flows)),
        last_ts_(flows_.size(), core::kWatermarkMin),
        consumed_(flows_.size(), 0) {}

  /// Next record, round-robin across non-exhausted flows. False when all
  /// flows are drained.
  bool Next(core::Record* out) {
    const size_t n = flows_.size();
    for (size_t step = 0; step < n; ++step) {
      const size_t f = (cursor_ + step) % n;
      if (flows_[f] == nullptr) continue;
      if (flows_[f]->Next(out)) {
        last_ts_[f] = out->timestamp;
        ++consumed_[f];
        cursor_ = (f + 1) % n;
        return true;
      }
      flows_[f] = nullptr;  // exhausted
      last_ts_[f] = core::kWatermarkMax;
    }
    return false;
  }

  /// The sender's low watermark.
  int64_t watermark() const {
    int64_t wm = core::kWatermarkMax;
    for (int64_t ts : last_ts_) wm = std::min(wm, ts);
    return wm;
  }

  size_t flow_count() const { return flows_.size(); }

  /// Records consumed from flow `f` so far (checkpoint offsets).
  uint64_t consumed(size_t f) const { return consumed_[f]; }

  /// Fast-forwards flow `f` past its first `count` records (recovery
  /// replays a flow deterministically from a checkpointed offset; the
  /// sources are seeded generators, so skipping re-derives the exact
  /// position and watermark of the checkpoint cut).
  void SkipTo(size_t f, uint64_t count) {
    core::Record r;
    for (uint64_t i = 0; i < count; ++i) {
      if (flows_[f] == nullptr || !flows_[f]->Next(&r)) {
        flows_[f] = nullptr;
        last_ts_[f] = core::kWatermarkMax;
        consumed_[f] = count;
        return;
      }
      last_ts_[f] = r.timestamp;
    }
    consumed_[f] = count;
  }

 private:
  std::vector<std::unique_ptr<core::RecordSource>> flows_;
  std::vector<int64_t> last_ts_;
  std::vector<uint64_t> consumed_;
  size_t cursor_ = 0;
};

/// The consumer a key is re-partitioned to (identical on every sender).
inline int ConsumerOf(uint64_t key, int total_consumers) {
  return static_cast<int>(Mix64(key ^ 0x9a97e17ULL) % uint64_t(total_consumers));
}

/// A same-node exchange: an in-memory queue between a sender and a
/// receiver thread. Queue-based handoff costs the synchronization penalty
/// the paper attributes to software queues [Kalia NSDI'19].
class LocalQueue {
 public:
  struct Buffer {
    std::vector<uint8_t> bytes;
    int64_t watermark = 0;
  };

  explicit LocalQueue(sim::Simulator* sim) : event_(sim) {}

  void Push(Buffer buffer, perf::CpuContext* cpu) {
    cpu->Charge(perf::Op::kQueueSync);
    queue_.push_back(std::move(buffer));
    event_.Notify();
    for (sim::Event* observer : observers_) observer->Notify();
  }

  bool TryPop(Buffer* out, perf::CpuContext* cpu) {
    if (queue_.empty()) {
      cpu->Charge(perf::Op::kPollPause);
      return false;
    }
    cpu->Charge(perf::Op::kQueueSync);
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  sim::Event& event() { return event_; }
  void AddObserver(sim::Event* observer) { observers_.push_back(observer); }

 private:
  std::deque<Buffer> queue_;
  sim::Event event_;
  std::vector<sim::Event*> observers_;
};

}  // namespace slash::engines

#endif  // SLASH_ENGINES_REPARTITION_COMMON_H_
