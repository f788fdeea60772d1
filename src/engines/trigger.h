// Shared window-trigger logic used by every engine's leader/receiver side.
//
// Given a watermark that the engine's progress-tracking mechanism proved
// safe (Slash: min over the per-channel watermarks feeding a partition;
// re-partitioning engines: min over input-channel watermarks; LightSaber:
// end of stream), emits every state bucket whose trigger watermark has
// passed, then retires the bucket. Centralizing this guarantees all SUTs produce results under
// identical trigger semantics, so benchmark differences come only from the
// execution strategy.
#ifndef SLASH_ENGINES_TRIGGER_H_
#define SLASH_ENGINES_TRIGGER_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/join.h"
#include "core/query.h"
#include "core/record.h"
#include "core/result_sink.h"
#include "core/sliding.h"
#include "perf/cost_model.h"
#include "state/partition.h"

namespace slash::engines {

/// Largest bucket id whose trigger watermark is <= `wm`; INT64_MIN when no
/// bucket may trigger yet.
inline int64_t TriggerableBucket(const core::WindowSpec& window, int64_t wm) {
  if (wm == core::kWatermarkMax) return std::numeric_limits<int64_t>::max();
  const int64_t extra =
      window.type == core::WindowSpec::Type::kSession ? window.gap : 0;
  // largest b with (b+1)*width + extra <= wm. Compare as wm < width + extra
  // (width, extra are config-scale): wm - extra underflows for the initial
  // kWatermarkMin watermark.
  const int64_t width = window.BucketWidth();
  if (wm < width + extra) return std::numeric_limits<int64_t>::min();
  return (wm - extra) / width - 1;
}

/// Parses a stored wire record back into its join digest.
inline core::JoinElement ParseJoinElement(const uint8_t* payload) {
  core::WireRecordHeader header;
  std::memcpy(&header, payload, sizeof(header));
  return core::JoinElement{header.timestamp, header.stream_id};
}

/// Emits every bucket of `partition` triggerable at watermark `wm` and
/// tombstones it. `last_trigger_wm` suppresses redundant scans, and so does
/// the partition's live-bucket floor: when no live entry is at or below the
/// threshold, the scans would visit nothing and charge nothing. All CPU
/// costs are charged to `cpu`.
inline void TriggerWindows(const core::QuerySpec& query, int64_t wm,
                           state::Partition* partition,
                           core::ResultSink* sink, perf::CpuContext* cpu,
                           int64_t* last_trigger_wm) {
  if (wm <= *last_trigger_wm || wm == core::kWatermarkMin) return;
  const int64_t prev_threshold =
      TriggerableBucket(query.window, *last_trigger_wm);
  *last_trigger_wm = wm;
  const int64_t threshold = TriggerableBucket(query.window, wm);
  if (threshold == std::numeric_limits<int64_t>::min()) return;
  if (partition->live_bucket_floor() > threshold) return;

  if (query.window.type == core::WindowSpec::Type::kSliding) {
    // Sliding windows: collect the populated slice aggregates and emit
    // every newly complete window from them (general slicing; the slice
    // state is shared by all windows covering it).
    std::vector<core::SliceAggregate> slices;
    partition->ForEachLive(
        [&](const state::EntryHeader& header, const uint8_t* value) {
          if (header.bucket > threshold) return;
          core::SliceAggregate s;
          s.slice = header.bucket;
          s.key = header.key;
          std::memcpy(&s.state, value, sizeof(s.state));
          slices.push_back(s);
        });
    const uint64_t merges = core::EmitSlidingWindows(
        query.window, query.agg, slices, prev_threshold, threshold, sink);
    cpu->Charge(perf::Op::kCrdtMergePerPair, double(merges));
    cpu->Charge(perf::Op::kWindowTriggerPerKey, double(slices.size()));
    // A slice retires once its last covering window has been emitted.
    partition->TombstoneBucketsUpTo(
        core::RetirableSlice(query.window, threshold));
    return;
  }

  if (query.is_join()) {
    // Lazy holistic evaluation on the merged state: group appended records
    // by (bucket, key), then count pairwise combinations per window.
    std::map<std::pair<int64_t, uint64_t>, std::vector<core::JoinElement>>
        groups;
    partition->ForEachLive(
        [&](const state::EntryHeader& header, const uint8_t* value) {
          if (header.bucket > threshold) return;
          groups[{header.bucket, header.key}].push_back(
              ParseJoinElement(value));
        });
    for (auto& [group, elements] : groups) {
      cpu->Charge(perf::Op::kWindowTriggerPerKey);
      cpu->Charge(perf::Op::kCrdtMergePerPair, double(elements.size()));
      const uint64_t pairs = core::CountJoinPairs(
          query.window, query.left_stream, query.right_stream, &elements);
      if (pairs > 0) sink->Emit(group.first, group.second, int64_t(pairs));
    }
  } else {
    partition->ForEachLive(
        [&](const state::EntryHeader& header, const uint8_t* value) {
          if (header.bucket > threshold) return;
          cpu->Charge(perf::Op::kWindowTriggerPerKey);
          state::AggState s;
          std::memcpy(&s, value, sizeof(s));
          sink->Emit(header.bucket, header.key, s.Extract(query.agg));
        });
  }
  partition->TombstoneBucketsUpTo(threshold);
}

/// Serializes one record into its wire form (header + opaque padding).
inline void SerializeWireRecord(const core::Record& r, uint16_t wire_size,
                                uint8_t* buf) {
  core::WireRecordHeader header;
  header.timestamp = r.timestamp;
  header.key = r.key;
  header.value = r.value;
  header.stream_id = r.stream_id;
  header.wire_size = wire_size;
  header.reserved = 0;
  std::memset(buf, 0, wire_size);
  std::memcpy(buf, &header, sizeof(header));
}

}  // namespace slash::engines

#endif  // SLASH_ENGINES_TRIGGER_H_
