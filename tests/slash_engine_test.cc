// Integration tests of the Slash engine: exact result equality against the
// sequential oracle (consistency property P2) across workloads, cluster
// sizes, skews, and epoch lengths; plus structural checks (network volume,
// counters, termination).
#include <gtest/gtest.h>

#include <tuple>

#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
#include "workloads/readonly.h"
#include "workloads/ysb.h"

namespace slash::engines {
namespace {

ClusterConfig SmallCluster(int nodes, int workers, uint64_t records) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = workers;
  cfg.records_per_worker = records;
  cfg.channel.slot_bytes = 16 * kKiB;
  cfg.epoch_bytes = 64 * kKiB;
  cfg.state_lss_capacity = 1 << 16;
  cfg.state_index_buckets = 1 << 10;
  cfg.collect_rows = true;
  return cfg;
}

void ExpectMatchesOracle(const workloads::Workload& workload,
                         const ClusterConfig& cfg) {
  const core::QuerySpec query = workload.MakeQuery();
  SlashEngine engine;
  const RunStats stats = engine.Run(query, workload, cfg);

  const core::OracleOutput oracle = core::ComputeOracle(
      query, workload.Sources(cfg.records_per_worker, cfg.seed),
      cfg.nodes * cfg.workers_per_node);

  EXPECT_EQ(stats.records_in(), oracle.records_in);
  EXPECT_EQ(stats.records_emitted(), oracle.count);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << "result rows differ";
  // Full row-level equality.
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows);
  EXPECT_GT(stats.makespan(), 0);
}

TEST(SlashEngineTest, YsbMatchesOracleTwoNodes) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 500;
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(2, 2, 3000));
}

TEST(SlashEngineTest, YsbMatchesOracleSingleNode) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100;
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(1, 3, 2000));
}

TEST(SlashEngineTest, CmMatchesOracleFourNodes) {
  workloads::CmConfig ccfg;
  ccfg.jobs = 300;
  ExpectMatchesOracle(workloads::CmWorkload(ccfg), SmallCluster(4, 2, 2000));
}

TEST(SlashEngineTest, Nb7ParetoHeavyHittersMatchOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.auctions = 1000;
  ExpectMatchesOracle(workloads::Nb7Workload(ncfg), SmallCluster(3, 2, 2500));
}

TEST(SlashEngineTest, Nb8JoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;  // dense keys so joins find partners
  ExpectMatchesOracle(workloads::Nb8Workload(ncfg), SmallCluster(2, 2, 800));
}

TEST(SlashEngineTest, Nb11SessionJoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 30;
  ExpectMatchesOracle(workloads::Nb11Workload(ncfg), SmallCluster(2, 2, 800));
}

TEST(SlashEngineTest, RoMatchesOracle) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 1000;
  ExpectMatchesOracle(workloads::RoWorkload(rcfg), SmallCluster(2, 2, 3000));
}

TEST(SlashEngineTest, SkewedYsbMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 10'000;
  ycfg.keys = workloads::KeyDistribution::Zipf(1.4);
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), SmallCluster(2, 2, 4000));
}

TEST(SlashEngineTest, NetworkCarriesDeltasNotRecords) {
  // Slash ships per-key partial aggregates at epochs, not raw records: on a
  // low-cardinality aggregation the network volume must be far below the
  // raw input volume.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 64;
  workloads::YsbWorkload workload(ycfg);
  ClusterConfig cfg = SmallCluster(2, 2, 20'000);
  SlashEngine engine;
  const RunStats stats =
      engine.Run(workload.MakeQuery(), workload, cfg);
  const uint64_t input_bytes = stats.records_in() * 78;
  EXPECT_LT(stats.network_bytes(), input_bytes / 4);
  EXPECT_GT(stats.network_bytes(), 0u);
}

TEST(SlashEngineTest, CountersAccumulatePerRole) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 100;
  workloads::RoWorkload workload(rcfg);
  ClusterConfig cfg = SmallCluster(2, 2, 2000);
  SlashEngine engine;
  const RunStats stats = engine.Run(workload.MakeQuery(), workload, cfg);
  // Merging happens on the worker cores (no dedicated leader role).
  ASSERT_TRUE(stats.role_counters().count("worker"));
  const perf::Counters workers = stats.role_counters().at("worker");
  EXPECT_EQ(workers.records, stats.records_in());
  EXPECT_GT(workers.instructions, 0);
  EXPECT_GT(workers.ipc(), 0);
  EXPECT_GT(stats.memory_bandwidth_gbytes_per_sec(), 0);
}

// Doorbell batching queues work requests until a Flush(), and no engine
// producer flushes before it parks on anything but credits, so a
// checkpointed run with post_batch = 4 would strand its queued posts and
// deadlock. The engine rejects the setting before building anything.
TEST(SlashEngineTest, DoorbellBatchingReturnsStatus) {
  workloads::YsbWorkload workload;
  ClusterConfig cfg = SmallCluster(2, 2, 3000);
  cfg.seed = 11;
  cfg.checkpoint.enabled = true;
  cfg.channel.post_batch = 4;
  SlashEngine engine;
  const RunStats stats = engine.Run(workload.MakeQuery(), workload, cfg);
  EXPECT_EQ(stats.status.code(), StatusCode::kUnimplemented)
      << stats.status.ToString();
  EXPECT_NE(stats.status.message().find("post_batch"), std::string::npos);
  EXPECT_TRUE(stats.metrics.empty());
}

TEST(SlashEngineTest, RdmaIngestionMatchesOracle) {
  // Fig. 1 architecture: sources stream over RDMA channels from dedicated
  // source nodes. Results must be identical to local-memory ingestion.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 400;
  workloads::YsbWorkload workload(ycfg);
  ClusterConfig cfg = SmallCluster(2, 3, 3000);
  cfg.rdma_ingestion = true;
  SlashEngine engine;
  const RunStats stats = engine.Run(workload.MakeQuery(), workload, cfg);
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(cfg.records_per_worker, cfg.seed),
      cfg.nodes * cfg.workers_per_node);
  EXPECT_EQ(stats.records_in(), oracle.records_in);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows);
  // The generator role did the source reads and buffer fills.
  ASSERT_TRUE(stats.role_counters().count("generator"));
  EXPECT_GT(stats.role_counters().at("generator").instructions, 0);
}

TEST(SlashEngineTest, RdmaIngestionCarriesRawRecordsOnWire) {
  // Ingestion ships every wire record over the fabric, so network volume
  // must now be at least the raw input volume (unlike local ingestion,
  // where only epoch deltas travel).
  workloads::YsbConfig ycfg;
  ycfg.key_range = 64;
  workloads::YsbWorkload workload(ycfg);
  ClusterConfig cfg = SmallCluster(2, 2, 10'000);
  cfg.collect_rows = false;
  SlashEngine engine;
  const RunStats local = engine.Run(workload.MakeQuery(), workload, cfg);
  cfg.rdma_ingestion = true;
  const RunStats ingested = engine.Run(workload.MakeQuery(), workload, cfg);
  EXPECT_EQ(local.result_checksum(), ingested.result_checksum());
  EXPECT_GE(ingested.network_bytes(), ingested.records_in() * 78);
  EXPECT_LT(local.network_bytes(), ingested.network_bytes());
}

TEST(SlashEngineTest, RdmaIngestionJoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  ClusterConfig cfg = SmallCluster(2, 2, 800);
  cfg.rdma_ingestion = true;
  SlashEngine engine;
  const RunStats stats = engine.Run(workload.MakeQuery(), workload, cfg);
  const core::OracleOutput oracle = core::ComputeOracle(
      workload.MakeQuery(), workload.Sources(cfg.records_per_worker, cfg.seed),
      cfg.nodes * cfg.workers_per_node);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);
  EXPECT_EQ(stats.records_emitted(), oracle.count);
}

// Property sweep: P2 must hold for every epoch length (more/fewer syncs),
// cluster shape, and seed.
using SweepParam = std::tuple<int /*nodes*/, int /*workers*/,
                              int /*epoch_kib*/, int /*seed*/>;

class SlashConsistencySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SlashConsistencySweep, YsbAlwaysMatchesOracle) {
  const auto [nodes, workers, epoch_kib, seed] = GetParam();
  workloads::YsbConfig ycfg;
  ycfg.key_range = 200;
  ClusterConfig cfg = SmallCluster(nodes, workers, 1500);
  cfg.epoch_bytes = uint64_t(epoch_kib) * kKiB;
  cfg.seed = uint64_t(seed);
  ExpectMatchesOracle(workloads::YsbWorkload(ycfg), cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlashConsistencySweep,
    ::testing::Combine(::testing::Values(1, 2, 4),   // nodes
                       ::testing::Values(1, 3),      // workers per node
                       ::testing::Values(16, 256),   // epoch KiB
                       ::testing::Values(1, 2)),     // seed
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace slash::engines
