#include "engines/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace slash::engines {

RunStats Engine::Run(const core::QuerySpec& query,
                     const workloads::Workload& workload,
                     const ClusterConfig& config) {
  JobSpec job;
  job.query = query;
  job.sources = &workload;
  job.cluster = config;
  job.config = JobConfig(config);
  return Run(job);
}

RecoveryCoordinator::RecoveryCoordinator(int nodes)
    : nodes_(nodes), blobs_(nodes), final_from_(nodes, -1),
      retired_(nodes, false), retire_round_(nodes, 0),
      join_round_(nodes, 0) {}

void RecoveryCoordinator::RecordLocal(int node, uint64_t round,
                                      std::vector<uint8_t> bytes) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  // Fencing invariant: a retired (quarantined/dead) node's snapshots are
  // taken by its heir under the heir's own identity, and no round may be
  // committed twice — a double commit would mean two nodes both believed
  // they led the same partitions for the same epoch (split brain).
  SLASH_CHECK_MSG(!retired_[node],
                  "retired node " << node << " attempted to commit round "
                                  << round);
  SLASH_CHECK_MSG(blobs_[node].count(round) == 0,
                  "epoch committed twice: node " << node << " round "
                                                 << round);
  Blob& blob = blobs_[node][round];
  blob.bytes = std::move(bytes);
  blob.holders.assign(1, node);
  ++checkpoints_taken_;
  if (checkpoints_counter_ != nullptr) checkpoints_counter_->Add(1);
}

void RecoveryCoordinator::AttachMetrics(obs::MetricsRegistry* registry,
                                        const obs::LabelSet& labels) {
  checkpoints_counter_ =
      registry->GetCounter(obs::metric::kCheckpointsTaken, labels);
}

void RecoveryCoordinator::RecordReplica(int node, uint64_t round, int holder) {
  auto it = blobs_[node].find(round);
  SLASH_CHECK_MSG(it != blobs_[node].end(),
                  "replica of an unrecorded snapshot: node "
                      << node << " round " << round);
  std::vector<int>& holders = it->second.holders;
  if (std::find(holders.begin(), holders.end(), holder) == holders.end()) {
    holders.push_back(holder);
  }
}

void RecoveryCoordinator::MarkFinalFrom(int node, uint64_t round) {
  SLASH_CHECK(blobs_[node].count(round) > 0);
  final_from_[node] = static_cast<int64_t>(round);
}

const RecoveryCoordinator::Blob* RecoveryCoordinator::FindBlob(
    int node, uint64_t round) const {
  auto it = blobs_[node].find(round);
  if (it != blobs_[node].end()) return &it->second;
  // A terminal snapshot stands in for every round past it.
  if (final_from_[node] >= 0 &&
      round >= static_cast<uint64_t>(final_from_[node])) {
    auto fit = blobs_[node].find(static_cast<uint64_t>(final_from_[node]));
    if (fit != blobs_[node].end()) return &fit->second;
  }
  return nullptr;
}

const std::vector<uint8_t>* RecoveryCoordinator::BlobFor(
    int node, uint64_t round) const {
  const Blob* blob = FindBlob(node, round);
  return blob != nullptr ? &blob->bytes : nullptr;
}

uint64_t RecoveryCoordinator::LatestRecoverableRound(
    const std::vector<bool>& alive) const {
  uint64_t max_round = 0;
  for (int node = 0; node < nodes_; ++node) {
    if (!blobs_[node].empty()) {
      max_round = std::max(max_round, blobs_[node].rbegin()->first);
    }
  }
  for (uint64_t k = max_round; k >= 1; --k) {
    bool all_restorable = true;
    for (int node = 0; node < nodes_ && all_restorable; ++node) {
      // A retired node is exempt only for rounds after its retirement: the
      // heir's own blobs carry its partitions from then on. At or before
      // the retirement round the retired node's blob (on a live holder) is
      // still required.
      if (retired_[node] && k > retire_round_[node]) continue;
      // An elastic joiner has no blobs at or before its join round — its
      // partitions up to then live in the pre-join owners' blobs.
      if (k <= join_round_[node]) continue;
      const Blob* blob = FindBlob(node, k);
      if (blob == nullptr) {
        all_restorable = false;
        break;
      }
      bool live_copy = false;
      for (int holder : blob->holders) live_copy |= alive[holder];
      all_restorable = live_copy;
    }
    if (all_restorable) return k;
  }
  return 0;
}

void RecoveryCoordinator::RetireNode(int node, uint64_t retirement_round) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  retired_[node] = true;
  retire_round_[node] = retirement_round;
}

void RecoveryCoordinator::UnretireNode(int node) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  retired_[node] = false;
  retire_round_[node] = 0;
  // The rejoined node replays input forward again, so a pre-quarantine
  // terminal snapshot must not stand in for rounds it will now regenerate.
  final_from_[node] = -1;
}

void RecoveryCoordinator::JoinNode(int node, uint64_t join_round) {
  SLASH_CHECK_GE(node, 0);
  SLASH_CHECK_LT(node, nodes_);
  retired_[node] = false;
  retire_round_[node] = 0;
  join_round_[node] = join_round;
  // The joiner starts snapshotting from join_round + 1; any stale terminal
  // mark from a pre-provisioning retirement must not stand in for them.
  final_from_[node] = -1;
}

void RecoveryCoordinator::DiscardRoundsAfter(uint64_t round) {
  for (int node = 0; node < nodes_; ++node) {
    std::map<uint64_t, Blob>& rounds = blobs_[node];
    rounds.erase(rounds.upper_bound(round), rounds.end());
    if (final_from_[node] >= 0 &&
        static_cast<uint64_t>(final_from_[node]) > round) {
      final_from_[node] = -1;
    }
    // A rollback below a node's join round re-runs the handoff epochs: the
    // joiner regenerates blobs from the rollback round onward, so they must
    // be required (and restorable) again from there.
    join_round_[node] = std::min(join_round_[node], round);
  }
}

int RecoveryCoordinator::FirstLiveHolder(int node, uint64_t round,
                                         const std::vector<bool>& alive) const {
  const Blob* blob = FindBlob(node, round);
  if (blob == nullptr) return -1;
  for (int holder : blob->holders) {
    if (alive[holder]) return holder;
  }
  return -1;
}

void BlobReader::Raw(void* dst, size_t len) {
  if (len == 0) return;  // empty Bytes(): memcpy to nullptr is UB
  SLASH_CHECK_LE(pos_ + len, len_);
  std::memcpy(dst, data_ + pos_, len);
  pos_ += len;
}

namespace {

/// Runs the simulator to completion under host wall-clock timing, publishes
/// the makespan and the DES-kernel instruments into `registry`, and reports
/// the host-side event rate through `events_per_sec_wall` (the one number
/// that may differ between same-seed runs, so it stays out of the
/// registry).
void TimedSimRun(sim::Simulator* sim, obs::MetricsRegistry* registry,
                 double* events_per_sec_wall) {
  const auto start = std::chrono::steady_clock::now();
  const Nanos makespan = sim->Run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *events_per_sec_wall = secs > 0 ? double(sim->events_fired()) / secs : 0.0;
  registry->GetCounter(obs::metric::kRunMakespanNs)
      ->Add(uint64_t(makespan));
  registry->GetCounter(obs::metric::kSimEventsFired)
      ->Add(sim->events_fired());
  registry->GetCounter(obs::metric::kSimEventBytes)
      ->Add(sim->event_bytes_allocated());
  registry->GetGauge(obs::metric::kSimPoolHitRate)->Set(sim->pool_hit_rate());
}

}  // namespace

RunStats RejectedRun(std::string_view engine, Status status) {
  RunStats stats;
  stats.engine = std::string(engine);
  stats.status = std::move(status);
  return stats;
}

Status AdmitJob(const EngineSupport& supports, const JobSpec& job,
                const ClusterConfig& cluster, ClusterConfig* config) {
  JobSpec on_cluster = job;
  on_cluster.cluster = cluster;
  if (Status prepared = PrepareJob(on_cluster, config); !prepared.ok()) {
    return prepared;
  }
  if (!supports.joins && job.query.is_join()) {
    return Status::InvalidArgument(
        "join operators are not supported by this engine (paper Sec. "
        "8.2.4)");
  }
  if (!supports.multi_node && config->nodes != 1) {
    return Status::InvalidArgument(
        "this engine is single-node: nodes must be 1, not " +
        std::to_string(config->nodes));
  }
  if (config->workers_per_node < supports.min_workers) {
    return Status::InvalidArgument(
        "this engine needs workers_per_node >= " +
        std::to_string(supports.min_workers) +
        " (re-partitioning engines run at least one sender and one receiver "
        "per node)");
  }
  if (!supports.health && config->health.enabled) {
    return Status::Unimplemented(
        "health monitoring requires the Slash engine's quarantine/recovery "
        "path");
  }
  if (!supports.reconfig && config->reconfig != nullptr) {
    return Status::Unimplemented(
        "elastic reconfiguration requires the Slash engine's handoff path");
  }
  const bool faults =
      config->fault_plan != nullptr && !config->fault_plan->empty();
  if (!supports.faults && faults) {
    return Status::Unimplemented(
        "fault injection requires a fabric for the faults to hit");
  }
  if (!supports.checkpointing && config->checkpoint.enabled) {
    return Status::Unimplemented(
        "checkpointing requires the Slash or Flink-like recovery path");
  }
  if (!supports.rdma_ingestion && config->rdma_ingestion) {
    return Status::Unimplemented(
        "RDMA ingestion requires the Slash engine's generator nodes");
  }
  if (!supports.quota && job.quota > 0) {
    return Status::Unimplemented(
        "NIC-credit quotas require the Slash engine's channel accounting");
  }
  if (config->channel.post_batch > 1) {
    return Status::Unimplemented(
        "doorbell batching (channel.post_batch > 1) strands queued work "
        "requests in a producer that parks without Flush(), and no engine "
        "flushes before parking");
  }
  if (faults) {
    const int fabric_nodes =
        config->rdma_ingestion ? 2 * config->nodes : config->nodes;
    return config->fault_plan->Validate(fabric_nodes);
  }
  return Status::OK();
}

RunScaffold::RunScaffold(std::string_view engine, const ClusterConfig& config,
                         int fabric_nodes)
    : engine_(engine),
      external_(config.tracer),
      local_(obs::Tracer::Options{
          .capacity = 1 << 16,
          .enabled = config.tracer == nullptr &&
                     obs::Exporter::TraceDir() != nullptr}) {
  // The injector must be registered before the fabric is built so the
  // fabric attaches itself as the fault target at construction.
  if (config.fault_plan != nullptr && !config.fault_plan->empty()) {
    injector_ = std::make_unique<sim::FaultInjector>(&sim_, *config.fault_plan);
    sim_.set_fault_injector(injector_.get());
  }

  // Register the observability plane before building the fabric so the
  // per-node NIC counters and channel handles wire themselves up. The
  // tracer is null when disabled, so every trace point downstream is one
  // branch.
  sim_.set_metrics(&registry_);
  obs::Tracer* t = tracer();
  sim_.set_tracer(t->enabled() ? t : nullptr);
  if (t->enabled()) {
    // One process per node, the conventional tracks per process.
    for (int n = 0; n < std::max(fabric_nodes, 1); ++n) {
      t->SetProcessName(n, "node" + std::to_string(n));
      t->SetTrackName(n, obs::kTrackEngine, "engine");
      t->SetTrackName(n, obs::kTrackChannel, "channel");
      t->SetTrackName(n, obs::kTrackRecovery, "recovery");
      t->SetTrackName(n, obs::kTrackHealth, "health");
      t->SetTrackName(n, obs::kTrackElastic, "elastic");
    }
  }

  if (fabric_nodes > 0) {
    rdma::FabricConfig fabric_config;
    fabric_config.nodes = fabric_nodes;
    fabric_config.nic = config.nic;
    fabric_config.connection = config.connection;
    fabric_ = std::make_unique<rdma::Fabric>(&sim_, fabric_config);
  }
}

RunStats RunScaffold::Simulate(const std::function<Status()>& outcome) {
  RunStats stats;
  stats.engine = engine_;
  TimedSimRun(&sim_, &registry_, &stats.sim_events_per_sec_wall);
  stats.status = outcome();
  SLASH_CHECK_MSG(!stats.ok() || sim_.pending_tasks() == 0,
                  engine_ << " run deadlocked with " << sim_.pending_tasks()
                          << " pending tasks");
  return stats;
}

void RunScaffold::PublishJob(const obs::LabelSet& labels, uint64_t records_in,
                             const std::vector<const core::ResultSink*>& sinks,
                             RunStats* stats) {
  if (injector_ != nullptr) {
    registry_.GetCounter(obs::metric::kFaultsInjected, labels)
        ->Add(injector_->trace().size());
    registry_.GetCounter(obs::metric::kFaultTraceDigest, labels)
        ->Add(injector_->trace_digest());
  }
  registry_.GetCounter(obs::metric::kRecordsIn, labels)->Add(records_in);
  obs::Counter* emitted =
      registry_.GetCounter(obs::metric::kRecordsEmitted, labels);
  obs::Counter* checksum =
      registry_.GetCounter(obs::metric::kResultChecksum, labels);
  for (const core::ResultSink* sink : sinks) {
    emitted->Add(sink->count());
    checksum->Add(sink->checksum());
    stats->rows.insert(stats->rows.end(), sink->rows().begin(),
                       sink->rows().end());
  }
}

void RunScaffold::Finish(RunStats* stats) {
  if (fabric_ != nullptr) {
    if (const auto& pool = fabric_->buffer_pool();
        pool.hits() + pool.misses() > 0) {
      registry_.GetGauge(obs::metric::kBufferPoolHitRate)
          ->Set(pool.hit_rate());
    }
  }
  stats->metrics = registry_.Snapshot();
  if (external_ == nullptr && local_.enabled()) {
    obs::Exporter::WriteRunArtifacts(local_, stats->metrics, stats->engine);
  }
}

}  // namespace slash::engines
