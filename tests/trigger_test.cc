// Tests for the shared trigger logic and the delta-chunking machinery:
// TriggerableBucket arithmetic across window types, emission/tombstone
// interaction with partitions, SplitDelta entry alignment, and watermark
// boundary conditions (property P1 at the unit level).
#include <gtest/gtest.h>

#include "engines/trigger.h"
#include "sim/simulator.h"
#include "state/partition.h"

namespace slash::engines {
namespace {

using core::QuerySpec;
using core::ResultSink;
using core::WindowSpec;
using state::AggState;
using state::Partition;
using state::PartitionConfig;

TEST(TriggerableBucketTest, TumblingBoundaries) {
  const WindowSpec w = WindowSpec::Tumbling(100);
  // Bucket b triggers when wm >= (b+1)*100.
  EXPECT_EQ(TriggerableBucket(w, 99), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(TriggerableBucket(w, 100), 0);
  EXPECT_EQ(TriggerableBucket(w, 199), 0);
  EXPECT_EQ(TriggerableBucket(w, 200), 1);
  EXPECT_EQ(TriggerableBucket(w, core::kWatermarkMax),
            std::numeric_limits<int64_t>::max());
}

TEST(TriggerableBucketTest, SessionNeedsOneExtraGap) {
  const WindowSpec w = WindowSpec::Session(/*gap=*/10, /*horizon_gaps=*/10);
  // Bucket width 100; bucket 0 triggers at 100 + gap = 110.
  EXPECT_EQ(TriggerableBucket(w, 109), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(TriggerableBucket(w, 110), 0);
}

TEST(TriggerableBucketTest, SlidingUsesSlideWidth) {
  const WindowSpec w = WindowSpec::Sliding(/*size=*/400, /*slide=*/100);
  EXPECT_EQ(TriggerableBucket(w, 100), 0);   // slice 0 complete
  EXPECT_EQ(TriggerableBucket(w, 450), 3);   // slices 0..3 complete
}

PartitionConfig AggConfig() {
  PartitionConfig cfg;
  cfg.kind = state::StateKind::kAggregate;
  cfg.lss_capacity = 1 << 14;
  cfg.index_buckets = 64;
  return cfg;
}

struct TriggerHarness {
  sim::Simulator sim;
  perf::CpuContext cpu{&sim, &perf::CostModel::Default()};
  Partition partition{0, AggConfig()};
  ResultSink sink{true};
  int64_t last_wm = core::kWatermarkMin;
};

TEST(TriggerWindowsTest, EmitsOnlyCompleteBucketsAndRetiresThem) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kSum;
  h.partition.UpdateAggregate({1, 0}, 5);   // bucket 0
  h.partition.UpdateAggregate({1, 1}, 7);   // bucket 1
  h.partition.UpdateAggregate({2, 2}, 9);   // bucket 2

  TriggerWindows(q, /*wm=*/200, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  // Buckets 0 and 1 triggered; bucket 2 still open.
  ASSERT_EQ(h.sink.count(), 2u);
  const auto rows = h.sink.SortedRows();
  EXPECT_EQ(rows[0], (core::WindowResult{0, 1, 5}));
  EXPECT_EQ(rows[1], (core::WindowResult{1, 1, 7}));
  EXPECT_EQ(h.partition.entry_count(), 1u);  // bucket 2 survives

  // Re-triggering at the same watermark is a no-op.
  TriggerWindows(q, 200, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), 2u);

  // End of stream: everything remaining fires.
  TriggerWindows(q, core::kWatermarkMax, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);
  EXPECT_EQ(h.sink.count(), 3u);
  EXPECT_EQ(h.partition.entry_count(), 0u);
}

TEST(TriggerWindowsTest, WatermarkRegressionIgnored) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  h.partition.UpdateAggregate({1, 0}, 1);
  TriggerWindows(q, 500, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), 1u);
  // A stale, lower watermark must not re-trigger or re-scan.
  TriggerWindows(q, 300, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.sink.count(), 1u);
}

TEST(TriggerWindowsTest, MinWatermarkNeverTriggers) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  h.partition.UpdateAggregate({1, 0}, 1);
  TriggerWindows(q, core::kWatermarkMin, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);
  EXPECT_EQ(h.sink.count(), 0u);
  EXPECT_EQ(h.partition.entry_count(), 1u);
}

// A trigger whose threshold did not move has no live entry to emit: it
// returns without scanning and charges nothing.
TEST(TriggerWindowsTest, UnchangedThresholdEmitsAndChargesNothing) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kSum;
  h.partition.UpdateAggregate({1, 0}, 5);
  h.partition.UpdateAggregate({1, 2}, 9);
  TriggerWindows(q, 200, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  ASSERT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.partition.live_bucket_floor(), 2);

  const perf::Counters before = h.cpu.counters();
  const Nanos pending = h.cpu.pending_nanos();
  TriggerWindows(q, 250, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  EXPECT_EQ(h.last_wm, 250);
  EXPECT_EQ(h.sink.count(), 1u);
  EXPECT_EQ(h.partition.entry_count(), 1u);
  const perf::Counters& after = h.cpu.counters();
  EXPECT_EQ(after.instructions, before.instructions);
  EXPECT_EQ(after.cycles, before.cycles);
  EXPECT_EQ(after.mem_bytes, before.mem_bytes);
  EXPECT_EQ(h.cpu.pending_nanos(), pending);
}

// A record that arrives for an already-triggered bucket after its tombstone
// pass lowers the live floor again, so the next trigger still emits it.
TEST(TriggerWindowsTest, LateInsertIntoRetiredBucketStillEmits) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Tumbling(100);
  q.agg = state::AggKind::kSum;
  h.partition.UpdateAggregate({1, 0}, 5);
  h.partition.UpdateAggregate({1, 3}, 9);
  TriggerWindows(q, 200, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  ASSERT_EQ(h.sink.count(), 1u);

  h.partition.UpdateAggregate({2, 0}, 4);  // late, below the threshold
  TriggerWindows(q, 250, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  ASSERT_EQ(h.sink.count(), 2u);
  EXPECT_EQ(h.sink.SortedRows()[1], (core::WindowResult{0, 2, 4}));

  // Same again once nothing at all is live before the late insert.
  TriggerWindows(q, core::kWatermarkMax - 1, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);
  ASSERT_EQ(h.sink.count(), 3u);
  EXPECT_EQ(h.partition.entry_count(), 0u);
  h.partition.UpdateAggregate({3, 1}, 6);
  TriggerWindows(q, core::kWatermarkMax, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);
  ASSERT_EQ(h.sink.count(), 4u);
  EXPECT_EQ(h.partition.entry_count(), 0u);
}

TEST(TriggerWindowsTest, SlidingEmitsAcrossCallsExactlyOnce) {
  TriggerHarness h;
  QuerySpec q;
  q.window = WindowSpec::Sliding(200, 100);  // k = 2
  q.agg = state::AggKind::kSum;
  for (int64_t slice = 0; slice < 6; ++slice) {
    h.partition.UpdateAggregate({9, slice}, 1 << slice);
  }
  // First trigger covers windows up to e=2, second the rest.
  TriggerWindows(q, 300, &h.partition, &h.sink, &h.cpu, &h.last_wm);
  const uint64_t first_batch = h.sink.count();
  EXPECT_GT(first_batch, 0u);
  TriggerWindows(q, core::kWatermarkMax, &h.partition, &h.sink, &h.cpu,
                 &h.last_wm);

  ResultSink expected(true);
  std::vector<core::SliceAggregate> slices;
  for (int64_t slice = 0; slice < 6; ++slice) {
    AggState s;
    s.Apply(1 << slice);
    slices.push_back({slice, 9, s});
  }
  core::EmitSlidingWindows(q.window, q.agg, slices,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max(), &expected);
  EXPECT_EQ(h.sink.SortedRows(), expected.SortedRows());
}

TEST(SplitDeltaTest, ChunksAreEntryAlignedAndComplete) {
  Partition p(0, AggConfig());
  for (uint64_t key = 0; key < 50; ++key) {
    p.UpdateAggregate({key, 0}, int64_t(key));
  }
  std::vector<uint8_t> delta;
  const size_t entries = p.SerializeDelta(&delta);
  EXPECT_EQ(entries, 50u);

  // Each serialized aggregate entry is 24 (wire header) + 32 bytes.
  const size_t entry_bytes = 56;
  for (const size_t max_chunk : {entry_bytes, 3 * entry_bytes + 10,
                                 size_t(1) << 20}) {
    const auto chunks =
        state::Partition::SplitDelta(delta.data(), delta.size(), max_chunk);
    uint64_t total_entries = 0;
    size_t total_bytes = 0;
    for (const auto& c : chunks) {
      EXPECT_LE(c.length, max_chunk);
      EXPECT_EQ(c.length % entry_bytes, 0u);  // never splits an entry
      total_entries += c.entries;
      total_bytes += c.length;
    }
    EXPECT_EQ(total_entries, 50u);
    EXPECT_EQ(total_bytes, delta.size());
    // Chunks tile the delta contiguously.
    size_t pos = 0;
    for (const auto& c : chunks) {
      EXPECT_EQ(c.offset, pos);
      pos += c.length;
    }
  }
}

TEST(SplitDeltaTest, EmptyDeltaYieldsOneEmptyChunk) {
  const auto chunks = state::Partition::SplitDelta(nullptr, 0, 1024);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].entries, 0u);
  EXPECT_EQ(chunks[0].length, 0u);
}

TEST(SplitDeltaTest, OversizedEntryDies) {
  Partition p(0, [] {
    PartitionConfig cfg;
    cfg.kind = state::StateKind::kAppend;
    cfg.lss_capacity = 1 << 14;
    cfg.index_buckets = 64;
    return cfg;
  }());
  std::vector<uint8_t> big(400, 7);
  p.Append({1, 0}, 0, big.data(), uint32_t(big.size()));
  std::vector<uint8_t> delta;
  p.SerializeDelta(&delta);
  EXPECT_DEATH(
      state::Partition::SplitDelta(delta.data(), delta.size(), 100),
      "larger than a chunk");
}

TEST(SerializeWireRecordTest, RoundTripsThroughParseJoinElement) {
  core::Record r{12345, 77, -9, 2};
  uint8_t buf[206];
  SerializeWireRecord(r, sizeof(buf), buf);
  const core::JoinElement e = ParseJoinElement(buf);
  EXPECT_EQ(e.ts, 12345);
  EXPECT_EQ(e.stream_id, 2);
}

}  // namespace
}  // namespace slash::engines
