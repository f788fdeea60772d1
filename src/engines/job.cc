#include "engines/job.h"

#include <utility>

namespace slash::engines {

ClusterConfig EffectiveConfig(const ClusterConfig& cluster,
                              const JobConfig& job) {
  ClusterConfig out = cluster;
  out.records_per_worker = job.records_per_worker;
  out.channel = job.channel;
  out.epoch_bytes = job.epoch_bytes;
  out.source_batch = job.source_batch;
  out.state_lss_capacity = job.state_lss_capacity;
  out.state_index_buckets = job.state_index_buckets;
  out.seed = job.seed;
  out.execution = job.execution;
  out.rdma_ingestion = job.rdma_ingestion;
  out.collect_rows = job.collect_rows;
  out.checkpoint = job.checkpoint;
  out.tracer = job.tracer;
  return out;
}

Status PrepareJob(const JobSpec& job, core::QuerySpec* query,
                  ClusterConfig* config, core::SourceFactory* sources) {
  if (job.sources == nullptr) {
    return Status::InvalidArgument("JobSpec has no workload (sources)");
  }
  if (Status compiled =
          plan::Compile(job.plan, plan::OperatorRegistry::Default(), query);
      !compiled.ok()) {
    return compiled;
  }
  *config = EffectiveConfig(job.cluster, job.config);
  if (sources != nullptr) {
    *sources = job.sources->Sources(config->records_per_worker, config->seed);
  }
  return Status::OK();
}

JobSpec MakeJobSpec(std::string tenant, const workloads::Workload& workload,
                    const ClusterConfig& cluster, const JobConfig& config,
                    uint32_t quota) {
  JobSpec job;
  job.tenant = std::move(tenant);
  job.plan = plan::Planner::Lower(workload.MakeQuery());
  job.sources = &workload;
  job.quota = quota;
  job.cluster = cluster;
  job.config = config;
  return job;
}

}  // namespace slash::engines
