#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <tuple>

#include "common/logging.h"
#include "obs/trace.h"

namespace slash::perfbench {
namespace {

// The text of field `key` on one trace_event line: a string's contents or
// a number's digits ("" when absent). Event names never contain quotes.
std::string Field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\": ");
  size_t p = line.find(needle);
  if (p == std::string_view::npos) return "";
  p += needle.size();
  if (p < line.size() && line[p] == '"') {
    const size_t end = line.find('"', p + 1);
    return std::string(line.substr(p + 1, end - p - 1));
  }
  const size_t end = line.find_first_of(",}", p);
  return std::string(line.substr(p, end - p));
}

std::string TrackName(int track) {
  switch (track) {
    case obs::kTrackEngine: return "engine";
    case obs::kTrackChannel: return "channel";
    case obs::kTrackRecovery: return "recovery";
    case obs::kTrackHealth: return "health";
    case obs::kTrackElastic: return "elastic";
  }
  return "track" + std::to_string(track);
}

}  // namespace

double HostSpans::Now() const { return SecondsSince(origin_); }

size_t HostSpans::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_s = Now();
  span.parent = open_.empty() ? -1 : int(open_.back());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double HostSpans::End(size_t id) {
  SLASH_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  Span& span = spans_[id];
  span.end_s = Now();
  return span.end_s - span.start_s;
}

std::string HostSpans::Summary() const {
  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& span : spans_) {
    const double d = span.end_s - span.start_s;
    Totals& t = by_name[span.name];
    ++t.count;
    t.total_s += d;
    t.self_s += d;
    if (span.parent >= 0) by_name[spans_[span.parent].name].self_s -= d;
  }
  std::ostringstream out;
  char line[160];
  for (const auto& [name, t] : by_name) {
    std::snprintf(line, sizeof(line),
                  "hspan %-16s count=%-4llu total_s=%.4f self_s=%.4f\n",
                  name.c_str(), (unsigned long long)t.count, t.total_s,
                  t.self_s);
    out << line;
  }
  return out.str();
}

std::string HostSpans::ToJson() const {
  std::ostringstream out;
  out << "{\"spans\": [";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                  s.start_s, s.end_s, s.parent);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name << buf;
  }
  out << "]}\n";
  return out.str();
}

VirtualTraceSummary::VirtualTraceSummary(const std::string& chrome_json) {
  // Open B spans per (node, track, name), as begin timestamps.
  std::map<std::tuple<int, int, std::string>, std::vector<double>> open;
  std::istringstream in(chrome_json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string phase = Field(line, "ph");
    if (phase.empty() || phase == "M") continue;
    const std::string name = Field(line, "name");
    const int pid = std::atoi(Field(line, "pid").c_str());
    const int tid = std::atoi(Field(line, "tid").c_str());
    const double ts_us = std::atof(Field(line, "ts").c_str());
    switch (phase[0]) {
      case 'i':
        durations_us_[{tid, name, 'i'}].push_back(0);
        ++per_node_[name][pid];
        break;
      case 'X':
        durations_us_[{tid, name, 'X'}].push_back(
            std::atof(Field(line, "dur").c_str()));
        break;
      case 'B':
        open[{pid, tid, name}].push_back(ts_us);
        break;
      case 'E': {
        std::vector<double>& begins = open[{pid, tid, name}];
        if (begins.empty()) break;  // its Begin fell out of the ring
        durations_us_[{tid, name, 'B'}].push_back(ts_us - begins.back());
        begins.pop_back();
        break;
      }
    }
  }
}

uint64_t VirtualTraceSummary::MaxPerNode(const std::string& name) const {
  const auto it = per_node_.find(name);
  if (it == per_node_.end()) return 0;
  uint64_t most = 0;
  for (const auto& [pid, n] : it->second) most = std::max(most, n);
  return most;
}

std::string VirtualTraceSummary::Summary() const {
  std::ostringstream out;
  char line[224];
  for (const auto& [key, durations] : durations_us_) {
    if (key.phase == 'i') {
      std::snprintf(line, sizeof(line), "vtrace %-8s %-26s instant count=%zu\n",
                    TrackName(key.track).c_str(), key.name.c_str(),
                    durations.size());
    } else {
      std::vector<double> sorted = durations;
      std::sort(sorted.begin(), sorted.end());
      double total = 0;
      for (double d : sorted) total += d;
      std::snprintf(line, sizeof(line),
                    "vtrace %-8s %-26s span    count=%zu total_us=%.3f "
                    "p50_us=%.3f max_us=%.3f\n",
                    TrackName(key.track).c_str(), key.name.c_str(),
                    sorted.size(), total, sorted[sorted.size() / 2],
                    sorted.back());
    }
    out << line;
  }
  return out.str();
}

}  // namespace slash::perfbench
