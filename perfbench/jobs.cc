#include "jobs.h"

#include "bench_util/harness.h"
#include "common/units.h"
#include "workloads/nexmark.h"
#include "workloads/ysb.h"

namespace slash::perfbench {
namespace {

// Input sizes, in records per worker (one flow per worker).
constexpr uint64_t kYsbAggRecords = 100'000;
constexpr uint64_t kNb8JoinRecords = 20'000;
constexpr uint64_t kElasticRecords = 20'000;
constexpr uint64_t kWarmupRecords = 256;
constexpr uint64_t kSmokeRecords = 1'000;

std::unique_ptr<workloads::Workload> Ysb() {
  workloads::YsbConfig ycfg;
  ycfg.key_range = 100'000;  // the Fig. 6a bench keyspace
  return std::make_unique<workloads::YsbWorkload>(ycfg);
}

// The preset cluster; the per-job half of the preset (channel sizing,
// epoch length, state sizing) is lifted into the JobConfig.
void UsePreset(BenchWorkload* w, int nodes, int workers,
               uint64_t records_per_worker) {
  const engines::ClusterConfig preset = bench::BenchCluster(nodes, workers);
  w->cluster = preset;
  w->job = engines::JobConfig(preset);
  w->job.records_per_worker = records_per_worker;
  w->warmup_records_per_worker = kWarmupRecords;
}

// 8 provisioned nodes: start on 2, join the other 6, then retire 4. The
// events sit at fixed virtual instants (not at fractions of a calibration
// run), so a change that speeds up the static path leaves the schedule
// where it was.
void UseElasticArc(BenchWorkload* w) {
  elastic::ReconfigPlan& plan = w->reconfig;
  plan.initial_nodes = 2;
  plan.min_active = 2;
  for (int i = 0; i < 6; ++i) {
    plan.joins.push_back(
        {.at = (250 + 130 * i) * kMicrosecond, .node = 2 + i});
  }
  for (int i = 0; i < 4; ++i) {
    plan.leaves.push_back(
        {.at = (1500 + 200 * i) * kMicrosecond, .node = 7 - i});
  }
}

}  // namespace

engines::JobSpec BenchWorkload::Spec(uint64_t records_per_worker,
                                     uint64_t seed,
                                     obs::Tracer* tracer) const {
  engines::ClusterConfig c = cluster;
  c.reconfig = reconfig.empty() ? nullptr : &reconfig;
  engines::JobConfig j = job;
  j.records_per_worker = records_per_worker;
  j.seed = seed;
  j.tracer = tracer;
  return engines::MakeJobSpec("", *workload, c, j);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ysb-agg", "nb8-join",
                                                 "ysb-elastic"};
  return names;
}

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            bool smoke) {
  auto w = std::make_unique<BenchWorkload>();
  w->name = name;
  if (name == "ysb-agg") {
    w->workload = Ysb();
    UsePreset(w.get(), 8, 4, kYsbAggRecords);
  } else if (name == "nb8-join") {
    w->workload = std::make_unique<workloads::Nb8Workload>(
        workloads::NexmarkConfig{});
    UsePreset(w.get(), 8, 4, kNb8JoinRecords);
  } else if (name == "ysb-elastic") {
    w->workload = Ysb();
    UsePreset(w.get(), 8, 2, kElasticRecords);
    w->job.epoch_bytes = 64 * kKiB;
    w->job.checkpoint.enabled = true;  // handoffs ride the snapshot path
    w->cluster.health.enabled = true;
    // Above the loaded probe RTT of this preset (see bench/health_overhead).
    w->cluster.health.probe_timeout = 50 * kMicrosecond;
    UseElasticArc(w.get());
  } else {
    return nullptr;
  }
  if (smoke) w->job.records_per_worker = kSmokeRecords;
  return w;
}

}  // namespace slash::perfbench
