// Job-model tests (DESIGN.md §12): the JobSpec that every engine runs.
// The legacy Run(query, workload, config) shim and an explicit JobSpec
// carrying the same query must give exactly the same results (checksum,
// rows, canonical MetricsSnapshot) on every engine, a malformed JobSpec
// fails with a Status, and tenant labels and quotas never change results.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/nexmark.h"
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

// --- Engine byte-identity: legacy shim vs explicit JobSpec ------------------

void ExpectShimEqualsJobSpec(Engine* engine,
                             const workloads::Workload& workload,
                             const ClusterConfig& cfg) {
  const core::QuerySpec query = workload.MakeQuery();
  const RunStats legacy = engine->Run(query, workload, cfg);

  JobSpec job;
  job.query = query;
  job.sources = &workload;
  job.cluster = cfg;
  job.config = JobConfig(cfg);
  const RunStats via_job = engine->Run(job);

  ASSERT_TRUE(legacy.ok()) << legacy.status.ToString();
  ASSERT_TRUE(via_job.ok()) << via_job.status.ToString();
  EXPECT_EQ(legacy.result_checksum(), via_job.result_checksum())
      << engine->name();
  EXPECT_EQ(legacy.metrics.ToJson(), via_job.metrics.ToJson())
      << engine->name();

  // Both match the sequential oracle (P2 holds on the JobSpec path).
  const core::OracleOutput oracle = core::ComputeOracle(
      query, workload.Sources(cfg.records_per_worker, cfg.seed),
      cfg.nodes * cfg.workers_per_node);
  EXPECT_EQ(via_job.records_in(), oracle.records_in) << engine->name();
  EXPECT_EQ(via_job.records_emitted(), oracle.count) << engine->name();
  EXPECT_EQ(via_job.result_checksum(), oracle.checksum) << engine->name();
  std::vector<core::WindowResult> rows = via_job.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows) << engine->name();
}

TEST(JobSpecEquivalenceTest, SlashYsb) {
  workloads::YsbWorkload workload;
  SlashEngine engine;
  ExpectShimEqualsJobSpec(&engine, workload, SmallCluster(2, 4, 2000));
}

TEST(JobSpecEquivalenceTest, SlashNb8Join) {
  workloads::Nb8Workload workload;
  SlashEngine engine;
  ExpectShimEqualsJobSpec(&engine, workload, SmallCluster(2, 2, 1500));
}

TEST(JobSpecEquivalenceTest, UpParCm) {
  workloads::CmWorkload workload;
  UpParEngine engine;
  ExpectShimEqualsJobSpec(&engine, workload, SmallCluster(2, 4, 2000));
}

TEST(JobSpecEquivalenceTest, FlinkYsb) {
  workloads::YsbWorkload workload;
  FlinkLikeEngine engine;
  ExpectShimEqualsJobSpec(&engine, workload, SmallCluster(2, 2, 1000));
}

TEST(JobSpecEquivalenceTest, LightSaberNb7) {
  workloads::Nb7Workload workload;
  LightSaberEngine engine;
  ExpectShimEqualsJobSpec(&engine, workload, SmallCluster(1, 4, 2000));
}

// A JobSpec without a workload fails cleanly with a status, not a crash,
// on the single-job path and in a multi-job run.
TEST(JobSpecEquivalenceTest, NullSourcesReportStatus) {
  workloads::YsbWorkload workload;
  SlashEngine engine;
  JobSpec no_sources;
  no_sources.query = workload.MakeQuery();
  no_sources.cluster = SmallCluster(2, 2, 100);
  no_sources.config = JobConfig(no_sources.cluster);
  EXPECT_FALSE(engine.Run(no_sources).ok());

  no_sources.tenant = "orphan";
  const JobSpec good = MakeJobSpec("good", workload, no_sources.cluster,
                                   no_sources.config);
  const MultiRunStats multi =
      engine.RunJobs({good, no_sources}, no_sources.cluster);
  EXPECT_FALSE(multi.ok());
  EXPECT_FALSE(multi.cluster.ok());
}

// --- Tenant labels and quotas on the single-job path ------------------------

TEST(TenantJobTest, TenantAndQuotaPreserveResults) {
  workloads::YsbWorkload workload;
  const ClusterConfig cfg = SmallCluster(2, 4, 2000);
  const core::QuerySpec query = workload.MakeQuery();
  const core::OracleOutput oracle = core::ComputeOracle(
      query, workload.Sources(cfg.records_per_worker, cfg.seed),
      cfg.nodes * cfg.workers_per_node);

  SlashEngine engine;
  JobSpec job = MakeJobSpec("acme", workload, cfg, JobConfig(cfg),
                            /*quota=*/4);
  const RunStats stats = engine.Run(job);
  ASSERT_TRUE(stats.ok()) << stats.status.ToString();

  // A quota throttles the job's NIC credits; it must never change results.
  EXPECT_EQ(stats.records_in(), oracle.records_in);
  EXPECT_EQ(stats.result_checksum(), oracle.checksum);

  // The tenant label and the opt-in instruments are present.
  const obs::MetricsSnapshot own =
      stats.metrics.SelectLabel(obs::kLabelTenant, "acme");
  EXPECT_EQ(own.CounterValue(obs::metric::kRecordsIn), oracle.records_in);
  const obs::MetricsSnapshot other =
      stats.metrics.SelectLabel(obs::kLabelTenant, "nobody");
  EXPECT_EQ(other.CounterValue(obs::metric::kRecordsIn), 0u);
  EXPECT_NE(stats.metrics.ToJson().find("job.drain_ns"), std::string::npos);
}

}  // namespace
}  // namespace slash::engines
