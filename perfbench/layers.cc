#include "layers.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "core/record.h"
#include "spans.h"
#include "state/partition.h"

namespace slash::perfbench {
namespace {

double Ratio(double part, double base) { return base > 0 ? part / base : 0; }

// Keeps the generated records observable, so draining is not elided.
volatile int64_t g_drain_sink = 0;

constexpr const char* kWall = "wall_s";
constexpr const char* kThroughput = "throughput_mrps";
constexpr const char* kControl = "throughput_mrps,wall_s,peak_rss_mib";

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_mrps", "Mrec/virt_s", "end-to-end", ""},
      {"wall_s", "s", "end-to-end", ""},
      {"peak_rss_mib", "MiB", "end-to-end", ""},
      {"setup_s", "s", "end-to-end", ""},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events_fired", "count", "sim", kWall},
      {"sim.events_per_wall_s", "1/s", "sim", kWall},
      {"sim.pool_hit_rate", "ratio", "sim", kWall},
      {"workloads.gen_ns_per_record", "ns/rec", "workloads", kWall},
      {"state.update_ns_per_record", "ns/rec", "state", kWall},
      {"state.epoch_merge_us", "us", "state", kWall},
      {"state.reset_us", "us", "state", kWall},
      {"cpu.worker_cycles_per_record", "cycles/rec", "perf", kThroughput},
      {"cpu.worker_busy", "ratio", "perf", kThroughput},
      {"cpu.worker_ipc", "instr/cycle", "perf", kThroughput},
      {"cpu.worker_mem_bytes_per_record", "B/rec", "perf", kThroughput},
      {"cpu.topdown.retiring", "ratio", "perf", kThroughput},
      {"cpu.topdown.frontend", "ratio", "perf", kThroughput},
      {"cpu.topdown.bad_spec", "ratio", "perf", kThroughput},
      {"cpu.topdown.backend_mem", "ratio", "perf", kThroughput},
      {"cpu.topdown.backend_core", "ratio", "perf", kThroughput},
      {"cpu.replication_cycles_per_record", "cycles/rec", "perf",
       kThroughput},
      {"rdma.tx_bytes_per_record", "B/rec", "rdma", kThroughput},
      {"rdma.nic_busy_max", "ratio", "rdma", kThroughput},
      {"channel.latency_p50_us", "us", "channel", kThroughput},
      {"channel.latency_p99_us", "us", "channel", kThroughput},
      {"channel.buffers", "count", "channel", kThroughput},
      {"channel.retries", "count", "channel", kThroughput},
      {"checkpoint.rounds", "count", "engines", kControl},
      {"checkpoint.bytes_per_record", "B/rec", "engines", kControl},
      {"elastic.handoff_share", "ratio", "engines", kControl},
      {"elastic.partitions_moved", "count", "engines", kControl},
      {"elastic.state_bytes_moved", "B", "engines", kControl},
      {"recovery.replay_ratio", "ratio", "engines", kControl},
      {"health.probes_sent", "count", "engines", kControl},
      {"health.probe_miss_ratio", "ratio", "engines", kControl},
      {"health.false_positives", "count", "engines", kControl},
      {"core.oracle_s", "s", "core", "none"},
      {"engines.sim_overhead_x", "x", "core", "none"},
      {"obs.trace_overhead", "ratio", "obs", kWall},
      {"obs.trace_dropped", "count", "obs", kWall},
  };
  return defs;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void AddRunMetrics(const engines::RunStats& s, const BenchWorkload& w,
                   MetricValues* out) {
  MetricValues& m = *out;
  const double records = double(s.records_in());
  const double makespan_ns = double(s.makespan());

  m["sim.events_fired"] = double(s.sim_events_fired());
  m["sim.pool_hit_rate"] = s.sim_pool_hit_rate();

  const auto roles = s.role_counters();
  const auto role = [&](const char* name) {
    const auto it = roles.find(name);
    return it == roles.end() ? perf::Counters{} : it->second;
  };
  const perf::Counters worker = role("worker");
  // Busy share of the workers' cycle budget over the makespan
  // (GHz * ns = cycles).
  const double budget =
      double(w.total_flows()) * w.cluster.cpu_ghz * makespan_ns;
  m["cpu.worker_cycles_per_record"] = Ratio(worker.total_cycles(), records);
  m["cpu.worker_busy"] = Ratio(worker.total_cycles(), budget);
  m["cpu.worker_ipc"] = worker.ipc();
  m["cpu.worker_mem_bytes_per_record"] =
      Ratio(double(worker.mem_bytes), records);
  using perf::Category;
  m["cpu.topdown.retiring"] = worker.fraction(Category::kRetiring);
  m["cpu.topdown.frontend"] = worker.fraction(Category::kFrontEnd);
  m["cpu.topdown.bad_spec"] = worker.fraction(Category::kBadSpeculation);
  m["cpu.topdown.backend_mem"] = worker.fraction(Category::kBackEndMemory);
  m["cpu.topdown.backend_core"] = worker.fraction(Category::kBackEndCore);
  m["cpu.replication_cycles_per_record"] =
      Ratio(role("replication").total_cycles(), records);

  // The busiest NIC: per-node transmit volume over what the line rate
  // could carry in the makespan.
  uint64_t max_node_tx = 0;
  for (const auto& e : s.metrics.entries()) {
    if (e.name == obs::metric::kNetworkTxBytes) {
      max_node_tx = std::max(max_node_tx, e.counter);
    }
  }
  m["rdma.tx_bytes_per_record"] = Ratio(double(s.network_bytes()), records);
  m["rdma.nic_busy_max"] =
      Ratio(double(max_node_tx),
            makespan_ns * w.cluster.nic.bandwidth_bps / 1e9);

  const obs::Histogram latency = s.buffer_latency();
  const bool sampled = latency.count() > 0;
  m["channel.latency_p50_us"] =
      sampled ? double(latency.Percentile(50)) / 1e3 : 0;
  m["channel.latency_p99_us"] =
      sampled ? double(latency.Percentile(99)) / 1e3 : 0;
  m["channel.buffers"] = double(latency.count());
  m["channel.retries"] = double(s.channel_retries());

  m["checkpoint.bytes_per_record"] =
      Ratio(double(s.checkpoint_bytes_replicated()), records);
  m["elastic.handoff_share"] = Ratio(double(s.handoff_ns()), makespan_ns);
  m["elastic.partitions_moved"] = double(s.partitions_moved());
  m["elastic.state_bytes_moved"] = double(s.state_bytes_moved());
  m["recovery.replay_ratio"] = Ratio(double(s.records_replayed()), records);
  m["health.probes_sent"] = double(s.health_probes_sent());
  m["health.probe_miss_ratio"] = Ratio(double(s.health_probe_misses()),
                                       double(s.health_probes_sent()));
  m["health.false_positives"] = double(s.health_false_positives());
}

double DrainFlows(const BenchWorkload& w, uint64_t seed) {
  const int flows = w.total_flows();
  uint64_t records = 0;
  int64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int f = 0; f < flows; ++f) {
    auto source =
        w.workload->MakeFlow(f, flows, w.job.records_per_worker, seed);
    core::Record r;
    while (source->Next(&r)) {
      ++records;
      sink += r.value;
    }
  }
  const double seconds = SecondsSince(start);
  g_drain_sink = sink;
  SLASH_CHECK_GT(records, 0u);
  return seconds * 1e9 / double(records);
}

StateReplay ReplayState(const BenchWorkload& w, uint64_t seed) {
  const core::QuerySpec query = w.workload->MakeQuery();
  const bool join = query.is_join();
  const uint64_t epoch_share = std::max<uint64_t>(
      1, w.job.epoch_bytes / uint64_t(w.cluster.workers_per_node));

  // Stage flow 0's post-filter input and its epoch boundaries first, so
  // the timed loops below call nothing but the state layer.
  struct Staged {
    state::StateKey key;
    int64_t value = 0;
    uint16_t stream = 0;
    uint16_t wire = 0;
    size_t offset = 0;  // into wire_bytes (joins only)
  };
  std::vector<Staged> staged;
  std::vector<uint8_t> wire_bytes;
  std::vector<size_t> epoch_ends;
  auto source = w.workload->MakeFlow(0, w.total_flows(),
                                     w.job.records_per_worker, seed);
  core::Record r;
  uint64_t epoch_bytes = 0;
  while (source->Next(&r)) {
    const uint16_t wire = w.workload->wire_size(r.stream_id);
    epoch_bytes += wire;
    if (!query.filter || query.filter(r)) {
      if (query.project) query.project(&r);
      Staged s;
      s.key = {r.key, query.window.BucketOf(r.timestamp)};
      s.value = r.value;
      s.stream = r.stream_id;
      s.wire = wire;
      s.offset = wire_bytes.size();
      if (join) {
        wire_bytes.resize(s.offset + wire);
        core::RecordWriter writer(wire_bytes.data() + s.offset, wire);
        SLASH_CHECK(writer.Append(r, wire));
      }
      staged.push_back(s);
    }
    if (epoch_bytes >= epoch_share) {
      epoch_ends.push_back(staged.size());
      epoch_bytes = 0;
    }
  }
  if (epoch_ends.empty() || epoch_ends.back() != staged.size()) {
    epoch_ends.push_back(staged.size());
  }

  const state::PartitionConfig config{
      .kind = join ? state::StateKind::kAppend : state::StateKind::kAggregate,
      .lss_capacity = w.job.state_lss_capacity,
      .index_buckets = w.job.state_index_buckets};
  state::Partition fragment(0, config);
  state::Partition primary(1, config);
  std::vector<uint8_t> delta;
  std::vector<double> merge_us;
  std::vector<double> reset_us;
  double update_s = 0;
  size_t begin = 0;
  for (const size_t end : epoch_ends) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = begin; i < end; ++i) {
      const Staged& s = staged[i];
      if (join) {
        fragment.Append(s.key, s.stream, wire_bytes.data() + s.offset,
                        s.wire);
      } else {
        fragment.UpdateAggregate(s.key, s.value);
      }
    }
    update_s += SecondsSince(start);

    start = std::chrono::steady_clock::now();
    delta.clear();
    fragment.SerializeDelta(&delta);
    const Status merged = primary.MergeDelta(delta.data(), delta.size());
    merge_us.push_back(SecondsSince(start) * 1e6);
    SLASH_CHECK_MSG(merged.ok(), merged.ToString());

    start = std::chrono::steady_clock::now();
    fragment.Reset();
    reset_us.push_back(SecondsSince(start) * 1e6);
    begin = end;
  }

  StateReplay out;
  out.records = staged.size();
  out.epochs = epoch_ends.size();
  out.update_ns_per_record = Ratio(update_s * 1e9, double(staged.size()));
  out.epoch_merge_us = Median(merge_us);
  out.reset_us = Median(reset_us);
  return out;
}

}  // namespace slash::perfbench
