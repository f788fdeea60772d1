// Tests for the benchmark workload generators: determinism, record shapes
// (sizes, key ranges, timestamp monotonicity), distribution properties
// (YSB filter selectivity, NB7 heavy hitters, join ratios) and query specs.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/readonly.h"
#include "workloads/workload.h"
#include "workloads/ysb.h"

namespace slash::workloads {
namespace {

std::vector<core::Record> Drain(core::RecordSource* src) {
  std::vector<core::Record> records;
  core::Record r;
  while (src->Next(&r)) records.push_back(r);
  return records;
}

template <typename W>
void CheckDeterminismAndMonotonicity(const W& workload, uint64_t records) {
  auto a = Drain(workload.MakeFlow(0, 4, records, 42).get());
  auto b = Drain(workload.MakeFlow(0, 4, records, 42).get());
  auto c = Drain(workload.MakeFlow(1, 4, records, 42).get());
  ASSERT_EQ(a.size(), records);
  EXPECT_EQ(a, b);  // same flow + seed => identical stream
  EXPECT_NE(a, c);  // different flow => different keys
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].timestamp, a[i - 1].timestamp);
  }
}

TEST(YsbTest, DeterministicMonotoneFlows) {
  CheckDeterminismAndMonotonicity(YsbWorkload(), 2000);
}

TEST(YsbTest, QueryShapeAndSelectivity) {
  YsbConfig cfg;
  cfg.key_range = 1000;
  YsbWorkload workload(cfg);
  const core::QuerySpec q = workload.MakeQuery();
  EXPECT_EQ(q.type, core::QuerySpec::Type::kAggregate);
  EXPECT_EQ(q.agg, state::AggKind::kCount);
  EXPECT_EQ(q.window.size, 600'000);
  EXPECT_EQ(workload.wire_size(0), 78);

  auto records = Drain(workload.MakeFlow(0, 1, 30000, 7).get());
  uint64_t passed = 0;
  for (auto& r : records) {
    EXPECT_LT(r.key, cfg.key_range);
    if (q.filter(r)) ++passed;
  }
  // One in three event types passes the filter.
  EXPECT_NEAR(double(passed), 10000.0, 600.0);
}

TEST(YsbTest, TimestampsSpanConfiguredWindows) {
  YsbConfig cfg;
  cfg.windows = 5;
  YsbWorkload workload(cfg);
  auto records = Drain(workload.MakeFlow(0, 1, 1000, 7).get());
  const core::WindowSpec w = workload.MakeQuery().window;
  std::map<int64_t, int> buckets;
  for (auto& r : records) ++buckets[w.BucketOf(r.timestamp)];
  EXPECT_EQ(buckets.size(), 5u);
}

TEST(CmTest, DeterministicAndShaped) {
  CheckDeterminismAndMonotonicity(CmWorkload(), 2000);
  CmWorkload workload;
  EXPECT_EQ(workload.wire_size(0), 64);
  const core::QuerySpec q = workload.MakeQuery();
  EXPECT_EQ(q.agg, state::AggKind::kAvg);
  EXPECT_EQ(q.window.size, 2000);
  auto records = Drain(workload.MakeFlow(0, 1, 5000, 7).get());
  for (auto& r : records) {
    EXPECT_LT(r.key, workload.config().jobs);
    EXPECT_GE(r.value, 0);
    EXPECT_LT(r.value, 1000);
  }
}

TEST(Nb7Test, ParetoKeysHaveHeavyHitters) {
  Nb7Workload workload;
  CheckDeterminismAndMonotonicity(workload, 2000);
  EXPECT_EQ(workload.wire_size(kBidStream), 32);
  const core::QuerySpec q = workload.MakeQuery();
  EXPECT_EQ(q.agg, state::AggKind::kMax);
  EXPECT_EQ(q.window.size, 60'000);

  auto records = Drain(workload.MakeFlow(0, 1, 20000, 7).get());
  std::map<uint64_t, int> freq;
  for (auto& r : records) ++freq[r.key];
  // Heavy hitters: the most frequent key dominates.
  int max_freq = 0;
  for (auto& [k, f] : freq) max_freq = std::max(max_freq, f);
  EXPECT_GT(max_freq, 20000 / 100);  // >1% of the stream on one key
}

TEST(Nb8Test, JoinFlowInterleavesAtConfiguredRatio) {
  Nb8Workload workload;
  const core::QuerySpec q = workload.MakeQuery();
  EXPECT_TRUE(q.is_join());
  EXPECT_EQ(q.left_stream, kAuctionStream);
  EXPECT_EQ(q.right_stream, kSellerStream);
  EXPECT_EQ(workload.wire_size(kAuctionStream), 269);
  EXPECT_EQ(workload.wire_size(kSellerStream), 206);

  auto records = Drain(workload.MakeFlow(0, 1, 5000, 7).get());
  uint64_t auctions = 0, sellers = 0;
  for (auto& r : records) {
    if (r.stream_id == kAuctionStream) ++auctions;
    if (r.stream_id == kSellerStream) ++sellers;
  }
  EXPECT_EQ(auctions + sellers, 5000u);
  EXPECT_NEAR(double(auctions) / double(sellers), 4.0, 0.05);
}

TEST(Nb11Test, SessionQueryShape) {
  Nb11Workload workload;
  const core::QuerySpec q = workload.MakeQuery();
  EXPECT_TRUE(q.is_join());
  EXPECT_EQ(q.window.type, core::WindowSpec::Type::kSession);
  EXPECT_EQ(q.window.gap, 5000);
  EXPECT_EQ(workload.wire_size(kBidStream), 32);
  EXPECT_EQ(workload.wire_size(kSellerStream), 206);
  CheckDeterminismAndMonotonicity(workload, 2000);
}

TEST(RoTest, CountsWithSingleBucket) {
  RoWorkload workload;
  CheckDeterminismAndMonotonicity(workload, 2000);
  const core::QuerySpec q = workload.MakeQuery();
  EXPECT_EQ(q.agg, state::AggKind::kCount);
  auto records = Drain(workload.MakeFlow(0, 1, 100, 7).get());
  for (auto& r : records) {
    EXPECT_EQ(q.window.BucketOf(r.timestamp), 0);
    EXPECT_LT(r.key, workload.config().key_range);
  }
}

TEST(RoTest, ZipfSkewConcentratesKeys) {
  RoConfig skewed;
  skewed.keys = KeyDistribution::Zipf(1.5);
  skewed.key_range = 1'000'000;
  RoWorkload workload(skewed);
  auto records = Drain(workload.MakeFlow(0, 1, 10000, 7).get());
  uint64_t hot = 0;
  for (auto& r : records) hot += r.key < 10;
  EXPECT_GT(hot, 5000u);
}

}  // namespace
}  // namespace slash::workloads
