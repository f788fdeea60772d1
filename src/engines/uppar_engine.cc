#include "engines/uppar_engine.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/record.h"
#include "engines/repartition_common.h"
#include "engines/trigger.h"
#include "state/partition.h"

namespace slash::engines {

namespace {

using channel::InboundBuffer;
using channel::RdmaChannel;
using channel::SlotRef;
using core::Record;
using perf::Op;

struct UpParRun;

/// One outbound lane from a sender to a consumer: an RDMA channel for
/// remote consumers, an in-memory queue for same-node ones. The sender
/// serializes records directly into the open channel slot (zero-copy fan-
/// out) or into a staging vector for the local queue.
struct Outbound {
  RdmaChannel* channel = nullptr;  // remote lane
  LocalQueue* local = nullptr;     // same-node lane
  bool slot_open = false;
  SlotRef slot;
  std::vector<uint8_t> staging;
  std::unique_ptr<core::RecordWriter> writer;
};

struct SenderState {
  int global_id = 0;
  int node = 0;
  std::unique_ptr<perf::CpuContext> cpu;
  std::unique_ptr<FlowMux> mux;
  std::vector<Outbound> outbound;  // per consumer
};

struct ConsumerState {
  int global_id = 0;
  int node = 0;
  std::unique_ptr<perf::CpuContext> cpu;
  std::unique_ptr<state::Partition> partition;
  core::ResultSink sink;
  std::vector<int64_t> sender_wm;     // per global sender
  std::vector<bool> sender_final;
  int finals = 0;
  int64_t last_trigger_wm = core::kWatermarkMin;
  std::unique_ptr<sim::Event> arrivals;
  struct Inbound {
    int sender = 0;
    RdmaChannel* channel = nullptr;
    LocalQueue* local = nullptr;
  };
  std::vector<Inbound> inbound;

  int64_t Watermark() const {
    return *std::min_element(sender_wm.begin(), sender_wm.end());
  }
};

struct UpParRun {
  const core::QuerySpec* query;
  const workloads::Workload* workload;
  ClusterConfig config;
  sim::Simulator sim;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<rdma::Fabric> fabric;
  std::vector<std::unique_ptr<RdmaChannel>> channels;
  std::vector<std::unique_ptr<LocalQueue>> local_queues;
  std::vector<std::unique_ptr<SenderState>> senders;
  std::vector<std::unique_ptr<ConsumerState>> consumers;
  uint64_t records_in = 0;
  // Observability handles (resolved once in Run; tracer null when disabled).
  obs::Histogram* latency = nullptr;  // channel.transfer_latency_ns
  obs::Tracer* tracer = nullptr;
  uint32_t trace_window = 0;
  uint32_t trace_cat = 0;
  int senders_per_node = 0;
  int receivers_per_node = 0;
  bool failed = false;
  Status failure;
};

/// Aborts the run cleanly after a permanent channel failure: records the
/// cause and wakes every parked coroutine so it can observe `failed`.
void FailRun(UpParRun* run, const Status& cause) {
  if (run->failed) return;
  run->failed = true;
  run->failure = cause;
  for (auto& c : run->consumers) c->arrivals->Notify();
  for (auto& ch : run->channels) {
    ch->credit_event().Notify();
    ch->data_event().Notify();
  }
}

uint64_t LaneCapacity(const UpParRun& run) {
  return run.config.channel.slot_bytes - channel::kFooterBytes;
}

/// Closes and ships the open buffer of lane `ob` (if any).
sim::Task FlushLane(UpParRun* run, SenderState* s, Outbound* ob,
                    int64_t watermark, bool final_marker) {
  perf::CpuContext* cpu = s->cpu.get();
  if (ob->channel != nullptr) {
    if (!ob->slot_open) {
      if (!final_marker) co_return;  // nothing buffered
      while (!ob->channel->TryAcquire(&ob->slot, cpu)) {
        if (run->failed || ob->channel->broken()) co_return;
        const Nanos wait_start = run->sim.now();
        co_await ob->channel->credit_event().Wait();
        cpu->ChargeWait(run->sim.now() - wait_start);
      }
      ob->slot_open = true;
      ob->writer = std::make_unique<core::RecordWriter>(ob->slot.payload,
                                                        LaneCapacity(*run));
    }
    cpu->Charge(Op::kRdmaPost, 0);  // Post() itself charges the post cost
    const Status post =
        ob->channel->Post(ob->slot, ob->writer->bytes_used(),
                          /*user_tag=*/final_marker ? 1 : 0, watermark, cpu);
    if (!post.ok()) SLASH_CHECK(ob->channel->broken());
    ob->slot_open = false;
    ob->writer.reset();
    co_await cpu->Sync();
  } else {
    if (ob->writer == nullptr && !final_marker) co_return;
    LocalQueue::Buffer buffer;
    if (ob->writer != nullptr) {
      buffer.bytes.assign(ob->staging.begin(),
                          ob->staging.begin() + ob->writer->bytes_used());
      ob->writer.reset();
    }
    buffer.watermark = final_marker ? core::kWatermarkMax : watermark;
    ob->local->Push(std::move(buffer), cpu);
    co_await cpu->Sync();
  }
}

/// A sender thread: source -> stateless stages -> partition -> fan-out.
sim::Task Sender(UpParRun* run, SenderState* s) {
  perf::CpuContext* cpu = s->cpu.get();
  core::RecordPipeline pipeline(run->query, cpu, run->config.execution);
  const int total_consumers = static_cast<int>(run->consumers.size());
  Record r;
  uint64_t batch = 0;
  // The mux is read only after the previous record is fully processed, so
  // a lane flush carries the watermark observed when the record was read.
  while (!run->failed && s->mux->Next(&r)) {
    ++run->records_in;
    cpu->CountRecords(1);
    const uint16_t wire_size = run->workload->wire_size(r.stream_id);
    cpu->ChargeBytes(Op::kSourceReadPerByte, wire_size);
    if (pipeline.Process(&r)) {
      // The costly part of the design: per-record destination selection and
      // the data-dependent write into the destination's fan-out buffer.
      cpu->Charge(Op::kHashCompute);
      cpu->Charge(Op::kPartitionSelect);
      cpu->Charge(Op::kFanoutWrite);
      const int c = ConsumerOf(r.key, total_consumers);
      Outbound* ob = &s->outbound[c];
      if (ob->channel != nullptr && !ob->slot_open) {
        while (!ob->channel->TryAcquire(&ob->slot, cpu)) {
          if (run->failed || ob->channel->broken()) co_return;
          const Nanos wait_start = run->sim.now();
          co_await ob->channel->credit_event().Wait();
          cpu->ChargeWait(run->sim.now() - wait_start);
        }
        ob->slot_open = true;
        ob->writer = std::make_unique<core::RecordWriter>(
            ob->slot.payload, LaneCapacity(*run));
      } else if (ob->channel == nullptr && ob->writer == nullptr) {
        ob->staging.resize(LaneCapacity(*run));
        ob->writer = std::make_unique<core::RecordWriter>(
            ob->staging.data(), LaneCapacity(*run));
      }
      if (!ob->writer->Append(r, wire_size)) {
        co_await FlushLane(run, s, ob, s->mux->watermark(),
                           /*final_marker=*/false);
        // Reopen the lane and retry; a fresh buffer always fits one record.
        if (ob->channel != nullptr) {
          while (!ob->channel->TryAcquire(&ob->slot, cpu)) {
            if (run->failed || ob->channel->broken()) co_return;
            const Nanos wait_start = run->sim.now();
            co_await ob->channel->credit_event().Wait();
            cpu->ChargeWait(run->sim.now() - wait_start);
          }
          ob->slot_open = true;
          ob->writer = std::make_unique<core::RecordWriter>(
              ob->slot.payload, LaneCapacity(*run));
        } else {
          ob->writer = std::make_unique<core::RecordWriter>(
              ob->staging.data(), LaneCapacity(*run));
        }
        SLASH_CHECK(ob->writer->Append(r, wire_size));
      }
    }
    if (++batch >= run->config.source_batch) {
      batch = 0;
      co_await cpu->Sync();
    }
  }
  if (run->failed) co_return;
  // Drain every lane, then mark end-of-stream to every consumer.
  for (Outbound& ob : s->outbound) {
    co_await FlushLane(run, s, &ob, s->mux->watermark(),
                       /*final_marker=*/false);
  }
  for (Outbound& ob : s->outbound) {
    co_await FlushLane(run, s, &ob, core::kWatermarkMax,
                       /*final_marker=*/true);
  }
  co_await cpu->Sync();
}

/// Applies one received buffer to the consumer's co-partitioned state.
void ProcessBuffer(UpParRun* run, ConsumerState* c, const uint8_t* payload,
                   uint64_t len, int64_t watermark, bool final_marker,
                   int sender) {
  perf::CpuContext* cpu = c->cpu.get();
  core::RecordReader reader(payload, len);
  Record r;
  uint8_t wire_buf[512];
  while (reader.Next(&r)) {
    cpu->CountRecords(1);
    cpu->Charge(Op::kRecordParse);
    cpu->Charge(Op::kDmaColdRead);
    cpu->Charge(Op::kWindowAssign);
    cpu->Charge(Op::kIndexProbe);
    const int64_t bucket = run->query->window.BucketOf(r.timestamp);
    if (run->query->is_join()) {
      const uint16_t wire_size = run->workload->wire_size(r.stream_id);
      SLASH_CHECK_LE(size_t{wire_size}, sizeof(wire_buf));
      SerializeWireRecord(r, wire_size, wire_buf);
      cpu->Charge(Op::kStateAppend);
      cpu->ChargeBytes(Op::kBufferCopyPerByte, wire_size);
      c->partition->Append({r.key, bucket}, r.stream_id, wire_buf, wire_size);
    } else {
      cpu->Charge(Op::kStateRmw);
      c->partition->UpdateAggregate({r.key, bucket}, r.value);
    }
  }
  c->sender_wm[sender] = std::max(c->sender_wm[sender], watermark);
  if (final_marker && !c->sender_final[sender]) {
    c->sender_final[sender] = true;
    c->sender_wm[sender] = core::kWatermarkMax;
    ++c->finals;
  }
}

/// A receiver thread: polls its inbound lanes, updates co-partitioned
/// state, and triggers windows on its watermark.
sim::Task Receiver(UpParRun* run, ConsumerState* c) {
  perf::CpuContext* cpu = c->cpu.get();
  const int total_senders = static_cast<int>(run->senders.size());
  while (!run->failed && c->finals < total_senders) {
    bool progressed = false;
    for (auto& in : c->inbound) {
      if (in.channel != nullptr) {
        InboundBuffer buffer;
        while (in.channel->TryPoll(&buffer, cpu)) {
          progressed = true;
          run->latency->Record(run->sim.now() - buffer.send_time);
          ProcessBuffer(run, c, buffer.payload, buffer.payload_len,
                        buffer.watermark, /*final_marker=*/buffer.user_tag == 1,
                        in.sender);
          SLASH_CHECK(in.channel->Release(buffer, cpu).ok());
        }
      } else {
        LocalQueue::Buffer buffer;
        while (in.local->TryPop(&buffer, cpu)) {
          progressed = true;
          ProcessBuffer(run, c, buffer.bytes.data(), buffer.bytes.size(),
                        buffer.watermark,
                        /*final_marker=*/buffer.watermark == core::kWatermarkMax,
                        in.sender);
        }
      }
    }
    if (progressed) {
      const int64_t before = c->last_trigger_wm;
      TriggerWindows(*run->query, c->Watermark(), c->partition.get(),
                     &c->sink, cpu, &c->last_trigger_wm);
      if (run->tracer != nullptr && c->last_trigger_wm != before) {
        run->tracer->Instant(run->sim.now(), run->trace_window,
                             run->trace_cat, c->node, obs::kTrackEngine);
      }
      co_await cpu->Sync();
    } else if (!run->failed) {
      const Nanos wait_start = run->sim.now();
      co_await c->arrivals->Wait();
      cpu->ChargeWait(run->sim.now() - wait_start);
    }
  }
  // Aborted runs skip the final trigger: partial windows would pollute the
  // result digest.
  if (!run->failed) {
    TriggerWindows(*run->query, c->Watermark(), c->partition.get(), &c->sink,
                   cpu, &c->last_trigger_wm);
  }
  co_await cpu->Sync();
}

}  // namespace

RunStats UpParEngine::Run(const JobSpec& job) {
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

RunStats UpParEngine::RunQuery(const core::QuerySpec& query,
                               const workloads::Workload& workload,
                               const ClusterConfig& config) {
  SLASH_CHECK_MSG(config.workers_per_node >= 2,
                  "re-partitioning engines need at least one sender and one "
                  "receiver per node");
  UpParRun run;
  run.query = &query;
  run.workload = &workload;
  run.config = config;
  run.senders_per_node = config.workers_per_node / 2;
  run.receivers_per_node = config.workers_per_node - run.senders_per_node;

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

  RunTelemetry telemetry(config);
  obs::MetricsRegistry* registry = telemetry.registry();

  // The injector must be registered before the fabric is built so the
  // fabric attaches itself as the fault target at construction. The plan is
  // validated up front: a malformed plan is a configuration error, not a
  // mid-run surprise.
  if (config.fault_plan != nullptr && !config.fault_plan->empty()) {
    const Status plan_status = config.fault_plan->Validate(config.nodes);
    if (!plan_status.ok()) {
      RunStats stats;
      stats.engine = std::string(name());
      stats.status = plan_status;
      return stats;
    }
    run.injector =
        std::make_unique<sim::FaultInjector>(&run.sim, *config.fault_plan);
    run.sim.set_fault_injector(run.injector.get());
  }

  // Register the observability plane before building the fabric so the
  // per-node NIC counters and channel handles wire themselves up.
  telemetry.Register(&run.sim);
  telemetry.NameNodes(config.nodes);
  run.latency = registry->GetHistogram(obs::metric::kTransferLatencyNs);
  run.tracer = run.sim.tracer();
  if (run.tracer != nullptr) {
    run.trace_window = run.tracer->Intern("engine.window_fire");
    run.trace_cat = run.tracer->Intern("uppar");
  }

  rdma::FabricConfig fabric_config;
  fabric_config.nodes = config.nodes;
  fabric_config.nic = config.nic;
  fabric_config.connection = config.connection;
  run.fabric = std::make_unique<rdma::Fabric>(&run.sim, fabric_config);

  state::PartitionConfig pcfg;
  pcfg.kind = query.is_join() ? state::StateKind::kAppend
                              : state::StateKind::kAggregate;
  pcfg.lss_capacity = config.state_lss_capacity;
  pcfg.index_buckets = config.state_index_buckets;

  const int total_flows = config.nodes * config.workers_per_node;
  const int flows_per_sender = config.workers_per_node / run.senders_per_node;

  // Consumers first (senders wire lanes to them).
  for (int node = 0; node < config.nodes; ++node) {
    for (int rcv = 0; rcv < run.receivers_per_node; ++rcv) {
      auto c = std::make_unique<ConsumerState>();
      c->global_id = node * run.receivers_per_node + rcv;
      c->node = node;
      c->cpu = std::make_unique<perf::CpuContext>(&run.sim, config.cost_model,
                                                  config.cpu_ghz);
      c->partition = std::make_unique<state::Partition>(c->global_id, pcfg);
      c->sink = core::ResultSink(config.collect_rows);
      c->arrivals = std::make_unique<sim::Event>(&run.sim);
      run.consumers.push_back(std::move(c));
    }
  }

  for (int node = 0; node < config.nodes; ++node) {
    for (int snd = 0; snd < run.senders_per_node; ++snd) {
      auto s = std::make_unique<SenderState>();
      s->global_id = node * run.senders_per_node + snd;
      s->node = node;
      s->cpu = std::make_unique<perf::CpuContext>(&run.sim, config.cost_model,
                                                  config.cpu_ghz);
      // This sender's share of the node's canonical flows.
      std::vector<std::unique_ptr<core::RecordSource>> flows;
      for (int f = 0; f < flows_per_sender; ++f) {
        const int flow = node * config.workers_per_node +
                         snd * flows_per_sender + f;
        flows.push_back(workload.MakeFlow(flow, total_flows,
                                          config.records_per_worker,
                                          config.seed));
      }
      s->mux = std::make_unique<FlowMux>(std::move(flows));
      s->outbound.resize(run.consumers.size());
      for (auto& consumer : run.consumers) {
        Outbound& ob = s->outbound[consumer->global_id];
        if (consumer->node == node) {
          run.local_queues.push_back(std::make_unique<LocalQueue>(&run.sim));
          ob.local = run.local_queues.back().get();
          ob.local->AddObserver(consumer->arrivals.get());
          consumer->inbound.push_back(
              {s->global_id, /*channel=*/nullptr, ob.local});
        } else {
          auto ch = RdmaChannel::Create(run.fabric.get(), node,
                                        consumer->node, config.channel);
          ob.channel = ch.get();
          ch->AddDataObserver(consumer->arrivals.get());
          ch->SetCloseHandler([run_ptr = &run](const Status& cause) {
            FailRun(run_ptr, cause);
          });
          consumer->inbound.push_back(
              {s->global_id, ch.get(), /*local=*/nullptr});
          run.channels.push_back(std::move(ch));
        }
      }
      run.senders.push_back(std::move(s));
    }
  }

  for (auto& c : run.consumers) {
    c->sender_wm.assign(run.senders.size(), core::kWatermarkMin);
    c->sender_final.assign(run.senders.size(), false);
  }

  for (auto& s : run.senders) run.sim.Spawn(Sender(&run, s.get()));
  for (auto& c : run.consumers) run.sim.Spawn(Receiver(&run, c.get()));

  RunStats stats;
  stats.engine = std::string(name());
  TimedSimRun(&run.sim, registry, &stats.sim_events_per_sec_wall);
  // An aborted run legitimately strands coroutines that were mid-protocol
  // when their channel died; only a *completed* run must fully drain.
  SLASH_CHECK_MSG(run.failed || run.sim.pending_tasks() == 0,
                  "UpPar run deadlocked with " << run.sim.pending_tasks()
                                               << " pending tasks");
  stats.status = run.failed ? run.failure : Status::OK();
  // Channel retries and NIC tx bytes were published live.
  if (!run.failed) {
    uint64_t credits = 0;
    for (auto& ch : run.channels) credits += ch->credits_outstanding();
    registry->GetCounter(obs::metric::kChannelCreditsOutstanding)
        ->Add(credits);
  }
  if (run.injector) {
    registry->GetCounter(obs::metric::kFaultsInjected)
        ->Add(run.injector->trace().size());
    registry->GetCounter(obs::metric::kFaultTraceDigest)
        ->Add(run.injector->trace_digest());
  }
  registry->GetCounter(obs::metric::kRecordsIn)->Add(run.records_in);
  if (const auto& pool = run.fabric->buffer_pool();
      pool.hits() + pool.misses() > 0) {
    registry->GetGauge(obs::metric::kBufferPoolHitRate)->Set(pool.hit_rate());
  }
  perf::Counters* senders =
      registry->GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "sender"}});
  perf::Counters* receivers =
      registry->GetCpu(obs::metric::kCpu, {{obs::kLabelRole, "receiver"}});
  obs::Counter* emitted = registry->GetCounter(obs::metric::kRecordsEmitted);
  obs::Counter* checksum = registry->GetCounter(obs::metric::kResultChecksum);
  for (auto& s : run.senders) senders->Merge(s->cpu->counters());
  for (auto& c : run.consumers) {
    receivers->Merge(c->cpu->counters());
    emitted->Add(c->sink.count());
    checksum->Add(c->sink.checksum());
    if (config.collect_rows) {
      const auto& rows = c->sink.rows();
      stats.rows.insert(stats.rows.end(), rows.begin(), rows.end());
    }
  }
  telemetry.Finish(&stats);
  return stats;
}

}  // namespace slash::engines
