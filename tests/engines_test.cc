// Cross-engine integration tests: every SUT must produce exactly the
// sequential oracle's results (consistency property P2) on every workload
// it supports, and the relative throughput ordering the paper reports must
// hold (Slash > RDMA UpPar > Flink-like; LightSaber fastest per single
// node among re-partitioning-free designs).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/oracle.h"
#include "elastic/reconfig.h"
#include "engines/flink_engine.h"
#include "engines/lightsaber_engine.h"
#include "engines/slash_engine.h"
#include "engines/uppar_engine.h"
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

void ExpectMatchesOracle(Engine* engine, const workloads::Workload& workload,
                         const ClusterConfig& cfg) {
  const core::QuerySpec query = workload.MakeQuery();
  const RunStats stats = engine->Run(query, workload, cfg);
  const core::OracleOutput oracle = core::ComputeOracle(
      query, workload.Sources(cfg.records_per_worker, cfg.seed),
      cfg.nodes * cfg.workers_per_node);
  EXPECT_EQ(stats.records_in(), oracle.records_in) << engine->name();
  EXPECT_EQ(stats.records_emitted(), oracle.count) << engine->name();
  EXPECT_EQ(stats.result_checksum(), oracle.checksum) << engine->name();
  std::vector<core::WindowResult> rows = stats.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, oracle.rows) << engine->name();
}

TEST(UpParEngineTest, YsbMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  UpParEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 4, 2000));
}

TEST(UpParEngineTest, CmMatchesOracle) {
  workloads::CmConfig ccfg;
  ccfg.jobs = 200;
  workloads::CmWorkload workload(ccfg);
  UpParEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(3, 2, 1500));
}

TEST(UpParEngineTest, Nb8JoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  UpParEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 4, 600));
}

TEST(UpParEngineTest, Nb11SessionJoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 30;
  workloads::Nb11Workload workload(ncfg);
  UpParEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 2, 600));
}

TEST(UpParEngineTest, SkewedKeysStillCorrect) {
  workloads::RoConfig rcfg;
  rcfg.key_range = 10'000;
  rcfg.keys = workloads::KeyDistribution::Zipf(1.8);
  workloads::RoWorkload workload(rcfg);
  UpParEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 4, 2500));
}

TEST(FlinkLikeEngineTest, YsbMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  FlinkLikeEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 4, 2000));
}

TEST(FlinkLikeEngineTest, Nb7MatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.auctions = 500;
  workloads::Nb7Workload workload(ncfg);
  FlinkLikeEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 2, 1500));
}

TEST(FlinkLikeEngineTest, Nb8JoinMatchesOracle) {
  workloads::NexmarkConfig ncfg;
  ncfg.sellers = 40;
  workloads::Nb8Workload workload(ncfg);
  FlinkLikeEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(2, 2, 600));
}

TEST(LightSaberEngineTest, YsbMatchesOracle) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 300;
  workloads::YsbWorkload workload(ycfg);
  LightSaberEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(1, 4, 2000));
}

TEST(LightSaberEngineTest, CmMatchesOracle) {
  workloads::CmConfig ccfg;
  ccfg.jobs = 150;
  workloads::CmWorkload workload(ccfg);
  LightSaberEngine engine;
  ExpectMatchesOracle(&engine, workload, SmallCluster(1, 3, 2000));
}

TEST(LightSaberEngineTest, RejectsJoins) {
  workloads::Nb8Workload workload;
  LightSaberEngine engine;
  const RunStats stats =
      engine.Run(workload.MakeQuery(), workload, SmallCluster(1, 2, 100));
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status.message().find("join"), std::string::npos);
}

TEST(LightSaberEngineTest, RejectsMultiNode) {
  workloads::YsbWorkload workload;
  LightSaberEngine engine;
  const RunStats stats =
      engine.Run(workload.MakeQuery(), workload, SmallCluster(2, 2, 100));
  EXPECT_EQ(stats.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status.message().find("single-node"), std::string::npos);
}

// Every engine rejects each setting it does not implement with a Status
// before anything is built: no setting is silently ignored, none aborts
// (a join on LightSaber and one worker per node on UpPar/Flink aborted on
// a CHECK before).
TEST(EngineSupportTest, UnsupportedSettingsReturnStatus) {
  workloads::YsbWorkload ysb;
  workloads::Nb8Workload nb8;
  sim::FaultPlan faults;
  faults.node_pauses.push_back({.at = kMillisecond, .node = 0,
                                .duration = kMicrosecond});
  elastic::ReconfigPlan reconfig;
  reconfig.trigger.enabled = true;

  struct Setting {
    const char* name;
    std::function<void(JobSpec*)> apply;
    StatusCode code;
    std::vector<std::string_view> unsupported_by;
  };
  const std::vector<std::string_view> network = {"RDMA UpPar",
                                                 "Flink (IPoIB)"};
  const std::vector<std::string_view> baselines = {
      "RDMA UpPar", "Flink (IPoIB)", "LightSaber"};
  const std::vector<Setting> settings = {
      {"fault_plan", [&](JobSpec* j) { j->cluster.fault_plan = &faults; },
       StatusCode::kUnimplemented, {"LightSaber"}},
      {"health", [](JobSpec* j) { j->cluster.health.enabled = true; },
       StatusCode::kUnimplemented, baselines},
      {"reconfig", [&](JobSpec* j) { j->cluster.reconfig = &reconfig; },
       StatusCode::kUnimplemented, baselines},
      {"checkpoint", [](JobSpec* j) { j->config.checkpoint.enabled = true; },
       StatusCode::kUnimplemented, {"RDMA UpPar", "LightSaber"}},
      {"rdma_ingestion", [](JobSpec* j) { j->config.rdma_ingestion = true; },
       StatusCode::kUnimplemented, baselines},
      {"quota", [](JobSpec* j) { j->quota = 4; },
       StatusCode::kUnimplemented, baselines},
      {"join",
       [&](JobSpec* j) {
         j->query = nb8.MakeQuery();
         j->sources = &nb8;
       },
       StatusCode::kInvalidArgument, {"LightSaber"}},
      {"nodes=2", [](JobSpec* j) { j->cluster.nodes = 2; },
       StatusCode::kInvalidArgument, {"LightSaber"}},
      {"workers_per_node=1",
       [](JobSpec* j) { j->cluster.workers_per_node = 1; },
       StatusCode::kInvalidArgument, network},
      {"post_batch=4", [](JobSpec* j) { j->config.channel.post_batch = 4; },
       StatusCode::kUnimplemented, baselines},
  };

  // Slash rejects only post_batch > 1 (SlashEngineTest covers it).
  UpParEngine uppar;
  FlinkLikeEngine flink;
  LightSaberEngine lightsaber;
  int rejections = 0;
  for (Engine* engine : std::vector<Engine*>{&uppar, &flink, &lightsaber}) {
    for (const Setting& setting : settings) {
      if (std::find(setting.unsupported_by.begin(),
                    setting.unsupported_by.end(),
                    engine->name()) == setting.unsupported_by.end()) {
        continue;
      }
      const ClusterConfig cfg =
          SmallCluster(engine == &lightsaber ? 1 : 2, 2, 100);
      JobSpec job = MakeJobSpec("", ysb, cfg, JobConfig(cfg));
      setting.apply(&job);
      const RunStats stats = engine->Run(job);
      EXPECT_EQ(stats.status.code(), setting.code)
          << engine->name() << " / " << setting.name << ": "
          << stats.status.ToString();
      EXPECT_TRUE(stats.metrics.empty())
          << engine->name() << " / " << setting.name << " built a run";
      ++rejections;
    }
  }
  EXPECT_EQ(rejections, 22);  // the whole capability table was exercised
}

TEST(EngineOrderingTest, SlashFastestOnYsb) {
  // The paper's headline result (Fig. 6a): Slash > RDMA UpPar > Flink.
  workloads::YsbConfig ycfg;
  ycfg.key_range = 2000;
  workloads::YsbWorkload workload(ycfg);
  ClusterConfig cfg = SmallCluster(2, 4, 15'000);
  cfg.collect_rows = false;

  SlashEngine slash;
  UpParEngine uppar;
  FlinkLikeEngine flink;
  const core::QuerySpec query = workload.MakeQuery();
  const RunStats s = slash.Run(query, workload, cfg);
  const RunStats u = uppar.Run(query, workload, cfg);
  const RunStats f = flink.Run(query, workload, cfg);

  // Identical work...
  EXPECT_EQ(s.result_checksum(), u.result_checksum());
  EXPECT_EQ(u.result_checksum(), f.result_checksum());
  // ...different speed, in the paper's order.
  EXPECT_GT(s.throughput_rps(), 2.0 * u.throughput_rps());
  EXPECT_GT(u.throughput_rps(), f.throughput_rps());
}

TEST(EngineOrderingTest, UpParSuffersUnderSkewSlashDoesNot) {
  // Fig. 8d: hash partitioning loses throughput under Zipf skew; Slash's
  // transfer performance is not data-dependent.
  auto run_ro = [](Engine* engine, double z) {
    workloads::RoConfig rcfg;
    rcfg.key_range = 100'000;
    rcfg.keys = z == 0.0 ? workloads::KeyDistribution::Uniform()
                         : workloads::KeyDistribution::Zipf(z);
    workloads::RoWorkload workload(rcfg);
    // 8 workers/node: like the paper's 10-thread nodes, enough sender
    // parallelism that the skew-hot receiver becomes the bottleneck.
    ClusterConfig cfg = SmallCluster(2, 8, 8'000);
    cfg.collect_rows = false;
    return engine->Run(workload.MakeQuery(), workload, cfg).throughput_rps();
  };
  SlashEngine slash;
  UpParEngine uppar;
  const double uppar_drop = run_ro(&uppar, 2.0) / run_ro(&uppar, 0.0);
  const double slash_drop = run_ro(&slash, 2.0) / run_ro(&slash, 0.0);
  EXPECT_LT(uppar_drop, 0.85);  // UpPar loses significant throughput
  EXPECT_GT(slash_drop, 0.95);  // Slash is skew-agnostic
}

TEST(ExecutionStrategyTest, CompiledMatchesInterpretedResultsAndIsFaster) {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 1000;
  workloads::YsbWorkload workload(ycfg);
  ClusterConfig interpreted = SmallCluster(2, 4, 10'000);
  interpreted.collect_rows = false;
  ClusterConfig compiled = interpreted;
  compiled.execution = core::ExecutionStrategy::kCompiled;

  SlashEngine engine;
  const core::QuerySpec query = workload.MakeQuery();
  const RunStats a = engine.Run(query, workload, interpreted);
  const RunStats b = engine.Run(query, workload, compiled);

  EXPECT_EQ(a.result_checksum(), b.result_checksum());  // identical semantics
  EXPECT_GT(a.TotalCounters().instructions,
            b.TotalCounters().instructions);        // fewer dispatches
  EXPECT_GT(b.throughput_rps(), a.throughput_rps());
}

}  // namespace
}  // namespace slash::engines
