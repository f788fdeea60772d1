// The repository benchmark: runs one named workload on the Slash engine
// through its public API and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload <ysb-agg|nb8-join|ysb-elastic>
//             [--seed <n|default|holdout>] [--seconds <s>] [--trace <0|1>]
//             [--smoke] [--out <dir>]
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1 is
// the separate traced run: it reports the per-layer metrics, prints the
// per-layer table, and writes its host spans and the program's virtual
// trace under --out. README.md in this directory has the metric catalog.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "engines/slash_engine.h"
#include "jobs.h"
#include "layers.h"
#include "spans.h"

namespace slash::perfbench {
namespace {

// The seed every figure is quoted at, and the one kept back for re-checking
// a claimed gain on inputs not used while the change was written.
constexpr uint64_t kDefaultSeed = 42;
constexpr uint64_t kHoldoutSeed = 20'221'207;

constexpr int kSetupRepeats = 9;
constexpr size_t kMinTimedRuns = 3;
// Virtual-trace ring: large enough that no workload drops an event.
constexpr size_t kTraceCapacity = 1 << 18;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;  // traced run's span and trace files; "" = none
};

bool ParseSeed(const std::string& text, uint64_t* seed) {
  if (text == "default") {
    *seed = kDefaultSeed;
  } else if (text == "holdout") {
    *seed = kHoldoutSeed;
  } else {
    char* end = nullptr;
    *seed = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      if (!ParseSeed(value, &o->seed)) {
        std::fprintf(stderr, "bad --seed %s\n", value.c_str());
        return false;
      }
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o->seconds >= 0)) {
        std::fprintf(stderr, "bad --seconds %s\n", value.c_str());
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "bad --trace %s\n", value.c_str());
        return false;
      }
      o->trace = value == "1";
    } else if (arg == "--out") {
      o->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Hands the heap pages freed so far back to the OS. Each set-up then pays
// the page faults of the cluster bring-up, as the first job of a process
// does; the timed runs that follow reuse a warm heap.
void ReleaseFreedMemory() { malloc_trim(0); }

// The correctness and determinism gate. Each timed run is one operation;
// it fails when its Status is not OK, its input, result count or checksum
// differs from the sequential oracle, or its canonical metrics JSON
// differs from the first timed run's (traced runs included: tracing must
// not perturb results).
class Gate {
 public:
  explicit Gate(const core::OracleOutput* oracle) : oracle_(oracle) {}

  void Check(const engines::RunStats& s, const char* label) {
    ++attempted_;
    std::string json = s.metrics.ToJson();
    if (reference_.empty()) reference_ = json;
    const char* why = nullptr;
    if (!s.ok()) {
      why = "status not OK";
    } else if (s.records_in() != oracle_->records_in) {
      why = "records_in differs from the oracle";
    } else if (s.records_emitted() != oracle_->count ||
               s.result_checksum() != oracle_->checksum) {
      why = "result count or checksum differs from the oracle";
    } else if (json != reference_) {
      why = "metrics JSON differs from the first run";
    }
    if (why == nullptr) return;
    ++failed_;
    std::fprintf(stderr, "FAILED %s run #%llu: %s (%s)\n", label,
                 (unsigned long long)attempted_, why,
                 s.status.ToString().c_str());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  const core::OracleOutput* oracle_;
  std::string reference_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct LoopResult {
  std::vector<double> wall_s;
  std::vector<double> events_per_wall_s;
  engines::RunStats first;
  uint64_t trace_dropped = 0;  // traced loops: worst run
  std::string first_trace;     // traced loops: first run's Chrome JSON
};

// Runs the timed job repeatedly for `seconds` (at least kMinTimedRuns
// times) under a span named `phase`, gating every run.
LoopResult TimedLoop(const BenchWorkload& w, uint64_t seed, double seconds,
                     bool traced, const char* phase, Gate* gate,
                     HostSpans* spans) {
  LoopResult out;
  engines::SlashEngine engine;
  ScopedSpan phase_span(spans, phase);
  const auto start = std::chrono::steady_clock::now();
  while (out.wall_s.size() < kMinTimedRuns || SecondsSince(start) < seconds) {
    std::unique_ptr<obs::Tracer> tracer;
    if (traced) {
      tracer = std::make_unique<obs::Tracer>(
          obs::Tracer::Options{.capacity = kTraceCapacity, .enabled = true});
    }
    const engines::JobSpec spec =
        w.Spec(w.job.records_per_worker, seed, tracer.get());
    ScopedSpan run_span(spans, "engines.run");
    engines::RunStats stats = engine.Run(spec);
    out.wall_s.push_back(run_span.End());
    gate->Check(stats, phase);
    out.events_per_wall_s.push_back(stats.sim_events_per_sec_wall);
    if (tracer != nullptr) {
      out.trace_dropped = std::max(out.trace_dropped, tracer->dropped());
      if (out.first_trace.empty()) out.first_trace = tracer->ToChromeJson();
    }
    if (out.wall_s.size() == 1) out.first = std::move(stats);
  }
  return out;
}

// Sample count, minimum, median and maximum of one host timing.
void PrintSamples(const char* name, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::printf("%s: %zu samples, min %.6f median %.6f max %.6f s\n", name,
              samples.size(), samples.front(), Median(samples),
              samples.back());
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  if (!file) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void PrintResult(bool correct, const Gate& gate,
                 const std::vector<MetricDef>& defs,
                 const MetricValues& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted());
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    char number[64] = "null";  // a metric the run could not produce
    if (it != values.end() && std::isfinite(it->second)) {
      std::snprintf(number, sizeof(number), "%.17g", it->second);
    }
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  if (MakeWorkload(opt.workload, opt.smoke) == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  HostSpans spans;

  // Set-up, repeated: build the workload and its job (the query is lowered
  // into the job's plan), then one warm-up run at minimal input, which
  // pays the per-run cluster bring-up.
  std::unique_ptr<BenchWorkload> w;
  std::vector<double> setup_s;
  bool warmups_ok = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engines::SlashEngine engine;
    ScopedSpan setup(&spans, "setup");
    engines::JobSpec spec;
    {
      ScopedSpan s(&spans, "setup.workload");
      w = MakeWorkload(opt.workload, opt.smoke);
      spec = w->Spec(w->warmup_records_per_worker, opt.seed, nullptr);
    }
    engines::RunStats warmup;
    {
      ScopedSpan s(&spans, "setup.warmup");
      warmup = engine.Run(spec);
    }
    setup_s.push_back(setup.End());
    ReleaseFreedMemory();
    if (!warmup.ok()) {
      warmups_ok = false;
      std::fprintf(stderr, "warm-up run failed: %s\n",
                   warmup.status.ToString().c_str());
    }
  }

  // The sequential reference of the timed job; verification is untimed.
  core::OracleOutput oracle;
  double oracle_s = 0;
  {
    ScopedSpan s(&spans, "core.oracle");
    oracle = core::ComputeOracle(
        w->workload->MakeQuery(),
        w->workload->Sources(w->job.records_per_worker, opt.seed),
        w->total_flows());
    oracle_s = s.End();
  }
  oracle.rows = {};
  ReleaseFreedMemory();

  Gate gate(&oracle);
  const uint64_t records = w->job.records_per_worker * w->total_flows();
  std::printf("workload %s seed %llu: %d nodes x %d workers, %llu records\n",
              w->name.c_str(), (unsigned long long)opt.seed,
              w->cluster.nodes, w->cluster.workers_per_node,
              (unsigned long long)records);

  MetricValues m;
  if (!opt.trace) {
    const LoopResult runs =
        TimedLoop(*w, opt.seed, opt.seconds, false, "untraced", &gate, &spans);
    m["throughput_mrps"] = runs.first.throughput_rps() / 1e6;
    m["wall_s"] = Median(runs.wall_s);
    m["peak_rss_mib"] = PeakRssMib();
    m["setup_s"] = Median(setup_s);
    PrintSamples("wall_s", runs.wall_s);
    PrintSamples("setup_s", setup_s);
    for (const MetricDef& d : EndToEndMetrics()) {
      std::printf("%-16s %14.6f %s\n", d.name, m[d.name], d.unit);
    }
    PrintResult(warmups_ok && gate.failed() == 0, gate, EndToEndMetrics(), m);
    return 0;
  }

  const LoopResult plain = TimedLoop(*w, opt.seed, opt.seconds / 2, false,
                                     "untraced", &gate, &spans);
  const LoopResult traced = TimedLoop(*w, opt.seed, opt.seconds / 2, true,
                                      "traced", &gate, &spans);
  double gen_ns = 0;
  {
    ScopedSpan s(&spans, "workloads.gen");
    gen_ns = DrainFlows(*w, opt.seed);
  }
  StateReplay replay;
  {
    ScopedSpan s(&spans, "state.replay");
    replay = ReplayState(*w, opt.seed);
  }
  const VirtualTraceSummary vtrace(traced.first_trace);

  AddRunMetrics(plain.first, *w, &m);
  const double wall = Median(plain.wall_s);
  m["sim.events_per_wall_s"] = Median(plain.events_per_wall_s);
  m["workloads.gen_ns_per_record"] = gen_ns;
  m["state.update_ns_per_record"] = replay.update_ns_per_record;
  m["state.epoch_merge_us"] = replay.epoch_merge_us;
  m["state.reset_us"] = replay.reset_us;
  m["checkpoint.rounds"] = double(vtrace.MaxPerNode("checkpoint.snapshot"));
  m["core.oracle_s"] = oracle_s;
  m["engines.sim_overhead_x"] = wall / oracle_s;
  m["obs.trace_overhead"] = Median(traced.wall_s) / wall - 1;
  m["obs.trace_dropped"] = double(traced.trace_dropped);

  PrintSamples("wall_s untraced", plain.wall_s);
  PrintSamples("wall_s traced", traced.wall_s);
  std::printf("state replay: %llu records, %llu epochs\n",
              (unsigned long long)replay.records,
              (unsigned long long)replay.epochs);
  std::printf("%s", vtrace.Summary().c_str());
  std::printf("%s", spans.Summary().c_str());
  std::printf("%-9s %-34s %16s %-12s %s\n", "layer", "metric", "value",
              "unit", "should move");
  for (const MetricDef& d : PerLayerMetrics()) {
    std::printf("%-9s %-34s %16.6f %-12s %s\n", d.layer, d.name, m[d.name],
                d.unit, d.moves);
  }
  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + w->name + "-seed" +
                             std::to_string(opt.seed);
    WriteFile(stem + ".spans.json", spans.ToJson());
    WriteFile(stem + ".vtrace.json", traced.first_trace);
  }
  PrintResult(warmups_ok && gate.failed() == 0, gate, PerLayerMetrics(), m);
  return 0;
}

}  // namespace
}  // namespace slash::perfbench

int main(int argc, char** argv) {
  return slash::perfbench::Main(argc, argv);
}
