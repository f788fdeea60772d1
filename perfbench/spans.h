// Tracing for the benchmark's traced run, from outside the program:
//
//   * HostSpans: host-time spans the benchmark records around its own calls
//     into each layer (name, start, end, parent), kept in memory and
//     written once at exit.
//   * VirtualTraceSummary: the program's existing virtual-time trace,
//     captured through an external obs::Tracer and summarised per track
//     and event name from the tracer's public Chrome JSON export.
#ifndef SLASH_PERFBENCH_SPANS_H_
#define SLASH_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace slash::perfbench {

/// Host seconds elapsed since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

class HostSpans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;  // host seconds since the recorder was created
    double end_s = 0;
    int parent = -1;     // index into spans(), -1 for a root span
  };

  HostSpans() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  size_t Begin(std::string name);
  /// Closes span `id` (the innermost open one); returns its duration.
  double End(size_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total time and self time (total minus the time
  /// covered by child spans), one line each.
  std::string Summary() const;

  /// {"spans": [{"name", "start_s", "end_s", "parent"}, ...]}.
  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Times one block as a HostSpans span: opened on construction, closed by
/// End() or the destructor, whichever comes first.
class ScopedSpan {
 public:
  ScopedSpan(HostSpans* spans, std::string name)
      : spans_(spans), id_(spans->Begin(std::move(name))) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (once) and returns its duration in seconds.
  double End() {
    if (!open_) return seconds_;
    open_ = false;
    seconds_ = spans_->End(id_);
    return seconds_;
  }

 private:
  HostSpans* spans_;
  size_t id_;
  bool open_ = true;
  double seconds_ = 0;
};

/// Per-track summary of one run's virtual-time trace.
class VirtualTraceSummary {
 public:
  /// Parses obs::Tracer::ToChromeJson() output (one event per line).
  explicit VirtualTraceSummary(const std::string& chrome_json);

  /// Occurrences of event `name` on the busiest node (pid).
  uint64_t MaxPerNode(const std::string& name) const;

  /// One line per (track, event, phase): count, and for spans the total,
  /// median and maximum duration in virtual microseconds.
  std::string Summary() const;

 private:
  struct Key {
    int track = 0;
    std::string name;
    char phase = 'i';  // 'i' instant, 'X' or 'B'/'E' span
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, std::vector<double>> durations_us_;  // instants: zeros
  std::map<std::string, std::map<int, uint64_t>> per_node_;
};

}  // namespace slash::perfbench

#endif  // SLASH_PERFBENCH_SPANS_H_
