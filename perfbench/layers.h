// The benchmark's metric catalog and its per-layer measurements.
//
// Layer names are the src/ module names. A per-layer metric is either
// virtual (read from a run's RunStats or its virtual-time trace) or host
// (timed by the benchmark around public calls into one module, outside the
// engine: draining workload flows, replaying state through a Partition).
#ifndef SLASH_PERFBENCH_LAYERS_H_
#define SLASH_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engines/engine.h"
#include "jobs.h"

namespace slash::perfbench {

/// One reported metric: its name and unit as BENCHMARK.json lists them,
/// the layer it belongs to, and the end-to-end metric it should move.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;
};

/// Printed with --trace 0, in BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed with --trace 1, in BENCHMARK.json order.
const std::vector<MetricDef>& PerLayerMetrics();

using MetricValues = std::map<std::string, double>;

/// The median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Adds the virtual per-layer metrics (sim, cpu, rdma, channel, control
/// plane) of one completed run of `w`. All of them repeat exactly for a
/// given seed.
void AddRunMetrics(const engines::RunStats& stats, const BenchWorkload& w,
                   MetricValues* out);

/// The workloads layer: generates every flow of `w`'s timed input through
/// Workload::MakeFlow. Returns host nanoseconds per generated record.
double DrainFlows(const BenchWorkload& w, uint64_t seed);

/// The state layer, host time of one worker's share of the job.
struct StateReplay {
  double update_ns_per_record = 0;  // UpdateAggregate (agg) or Append (join)
  double epoch_merge_us = 0;        // median SerializeDelta + MergeDelta
  double reset_us = 0;              // median Partition::Reset
  uint64_t records = 0;             // post-filter records replayed
  uint64_t epochs = 0;
};

/// Replays flow 0's post-filter input into one state::Partition sized like
/// the job's (state_lss_capacity, state_index_buckets). Every epoch — the
/// worker's 1/workers_per_node share of epoch_bytes of input — the
/// fragment's delta is serialized and merged into a peer partition, and
/// the fragment is reset, as the Slash epoch protocol does.
StateReplay ReplayState(const BenchWorkload& w, uint64_t seed);

}  // namespace slash::perfbench

#endif  // SLASH_PERFBENCH_LAYERS_H_
