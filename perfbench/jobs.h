// The benchmark's three named workloads. Each one is a Slash job on a
// simulated cluster, built only through the public engine API: a
// workloads::Workload, a ClusterConfig (the bench::BenchCluster preset) and
// the JobConfig it runs with. README.md in this directory says why each
// workload was chosen and which layers it stresses.
#ifndef SLASH_PERFBENCH_JOBS_H_
#define SLASH_PERFBENCH_JOBS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "elastic/reconfig.h"
#include "engines/job.h"
#include "obs/trace.h"
#include "workloads/workload.h"

namespace slash::perfbench {

/// One named benchmark workload. Owns the reconfiguration plan its cluster
/// points at, so it is neither copyable nor movable.
struct BenchWorkload {
  std::string name;
  std::unique_ptr<workloads::Workload> workload;
  engines::ClusterConfig cluster;  // cluster level only (nodes, health, ...)
  engines::JobConfig job;          // records_per_worker = the timed input
  elastic::ReconfigPlan reconfig;  // empty unless the elastic arc
  uint64_t warmup_records_per_worker = 0;  // the set-up run's minimal input

  BenchWorkload() = default;
  BenchWorkload(const BenchWorkload&) = delete;
  BenchWorkload& operator=(const BenchWorkload&) = delete;

  int total_flows() const {
    return cluster.nodes * cluster.workers_per_node;
  }

  /// The job to submit: this workload at `records_per_worker` records per
  /// flow from `seed`, tracing into `tracer` when non-null.
  engines::JobSpec Spec(uint64_t records_per_worker, uint64_t seed,
                        obs::Tracer* tracer) const;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` (nullptr when unknown). `smoke` shrinks the timed
/// input to the minimal one, for the benchmark's self-test.
std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            bool smoke);

}  // namespace slash::perfbench

#endif  // SLASH_PERFBENCH_JOBS_H_
