#include "engines/lightsaber_engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/record.h"
#include "engines/trigger.h"
#include "state/partition.h"

namespace slash::engines {

namespace {

using core::Record;
using perf::Op;

struct LightSaberRun {
  const core::QuerySpec* query;
  const workloads::Workload* workload;
  ClusterConfig config;
  sim::Simulator sim;
  std::vector<std::unique_ptr<perf::CpuContext>> worker_cpus;
  std::vector<std::unique_ptr<state::Partition>> partials;  // per worker
  std::unique_ptr<state::Partition> merged;  // shared merge target
  core::ResultSink sink{true};
  uint64_t records_in = 0;
  int finished_workers = 0;
  int64_t last_trigger_wm = core::kWatermarkMin;
  obs::Tracer* tracer = nullptr;
  uint32_t trace_window = 0;
  uint32_t trace_cat = 0;
};

/// A worker thread: eagerly folds its flow into thread-local partial
/// state, then participates in the parallel late merge — each worker
/// merges its own partial aggregates into the shared merged table, and the
/// last one emits. This is LightSaber's task-parallel "late merge": the
/// merge is work every core shares, not a single merger thread.
sim::Task Worker(LightSaberRun* run, int w) {
  perf::CpuContext* cpu = run->worker_cpus[w].get();
  core::RecordPipeline pipeline(run->query, cpu, run->config.execution);
  auto source = run->workload->MakeFlow(w, run->config.workers_per_node,
                                        run->config.records_per_worker,
                                        run->config.seed);
  state::Partition* partial = run->partials[w].get();
  Record r;
  bool more = true;
  while (more) {
    uint64_t batch_records = 0;
    while (batch_records < run->config.source_batch &&
           (more = source->Next(&r))) {
      ++batch_records;
      const uint16_t wire_size = run->workload->wire_size(r.stream_id);
      cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
      if (!pipeline.Process(&r)) continue;
      pipeline.ChargeStatefulPrologue();
      cpu->Charge(Op::kIndexProbe);
      cpu->Charge(Op::kStateRmw);
      partial->UpdateAggregate(
          {r.key, run->query->window.BucketOf(r.timestamp)}, r.value);
    }
    run->records_in += batch_records;
    cpu->CountRecords(batch_records);
    co_await cpu->Sync();
  }

  // Late merge: fold this worker's partials into the shared merged table
  // (thread-safe CRDT merges), charging this worker's core.
  partial->ForEachLive(
      [&](const state::EntryHeader& header, const uint8_t* value) {
        cpu->Charge(Op::kCrdtMergePerPair);
        state::AggState s;
        std::memcpy(&s, value, sizeof(s));
        run->merged->MergeAggregate({header.key, header.bucket}, s);
      });
  co_await cpu->Sync();

  if (++run->finished_workers == run->config.workers_per_node) {
    // Last worker emits the merged windows.
    TriggerWindows(*run->query, core::kWatermarkMax, run->merged.get(),
                   &run->sink, cpu, &run->last_trigger_wm);
    if (run->tracer != nullptr) {
      run->tracer->Instant(run->sim.now(), run->trace_window, run->trace_cat,
                           /*pid=*/0, obs::kTrackEngine);
    }
    co_await cpu->Sync();
  }
}

}  // namespace

RunStats LightSaberEngine::Run(const JobSpec& job) {
  core::QuerySpec query;
  ClusterConfig config;
  if (Status prepared = PrepareJob(job, &query, &config); !prepared.ok()) {
    RunStats stats;
    stats.engine = std::string(name());
    stats.status = prepared;
    return stats;
  }
  return RunQuery(query, *job.sources, config);
}

RunStats LightSaberEngine::RunQuery(const core::QuerySpec& query,
                                    const workloads::Workload& workload,
                                    const ClusterConfig& config) {
  SLASH_CHECK_MSG(!query.is_join(),
                  "LightSaber does not support join operators "
                  "(paper Sec. 8.2.4)");
  SLASH_CHECK_MSG(config.nodes == 1, "LightSaber is a single-node engine");

  if (config.health.enabled) {
    RunStats stats;
    stats.engine = std::string(name());
    stats.status = Status::Unimplemented(
        "health monitoring requires the Slash engine's quarantine/recovery "
        "path");
    return stats;
  }
  if (config.reconfig != nullptr) {
    RunStats stats;
    stats.engine = std::string(name());
    stats.status = Status::Unimplemented(
        "elastic reconfiguration requires the Slash engine's handoff path");
    return stats;
  }

  LightSaberRun run;
  run.query = &query;
  run.workload = &workload;
  run.config = config;
  run.sink = core::ResultSink(config.collect_rows);

  RunTelemetry telemetry(config);
  obs::MetricsRegistry* registry = telemetry.registry();
  telemetry.Register(&run.sim);
  telemetry.NameNodes(/*nodes=*/1);
  run.tracer = run.sim.tracer();
  if (run.tracer != nullptr) {
    run.trace_window = run.tracer->Intern("engine.window_fire");
    run.trace_cat = run.tracer->Intern("lightsaber");
  }

  state::PartitionConfig pcfg;
  pcfg.kind = state::StateKind::kAggregate;
  pcfg.lss_capacity = config.state_lss_capacity;
  pcfg.index_buckets = config.state_index_buckets;
  for (int w = 0; w < config.workers_per_node; ++w) {
    run.worker_cpus.push_back(std::make_unique<perf::CpuContext>(
        &run.sim, config.cost_model, config.cpu_ghz));
    run.partials.push_back(std::make_unique<state::Partition>(w, pcfg));
  }
  run.merged = std::make_unique<state::Partition>(-1, pcfg);

  for (int w = 0; w < config.workers_per_node; ++w) {
    run.sim.Spawn(Worker(&run, w));
  }

  RunStats stats;
  stats.engine = std::string(name());
  TimedSimRun(&run.sim, registry, &stats.sim_events_per_sec_wall);
  SLASH_CHECK_MSG(run.sim.pending_tasks() == 0,
                  "LightSaber run left " << run.sim.pending_tasks()
                                         << " pending tasks");
  registry->GetCounter(obs::metric::kRecordsIn)->Add(run.records_in);
  registry->GetCounter(obs::metric::kRecordsEmitted)->Add(run.sink.count());
  registry->GetCounter(obs::metric::kResultChecksum)
      ->Add(run.sink.checksum());
  if (config.collect_rows) stats.rows = run.sink.rows();
  perf::Counters* workers =
      registry->GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "worker"}});
  for (auto& cpu : run.worker_cpus) workers->Merge(cpu->counters());
  telemetry.Finish(&stats);
  return stats;
}

}  // namespace slash::engines
