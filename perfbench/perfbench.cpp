#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "service/client.hpp"
#include "util/timer.hpp"

namespace perfbench {

using emorphic::Json;

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!word(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return word(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: '" + name + "'");
  }
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double MetricSet::get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("no metric named '" + name + "'");
}

MetricSet zeroed(const std::vector<MetricSpec>& specs) {
  MetricSet set;
  for (const MetricSpec& s : specs) set.set(s.name, 0.0, s.unit);
  return set;
}

Percentile percentile(std::vector<double> values, double p) {
  if (values.empty()) return {};
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside [0, 100]");
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double h = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double value = values[lo] + (h - static_cast<double>(lo)) *
                                        (values[hi] - values[lo]);
  const auto above = std::upper_bound(values.begin(), values.end(), value);
  return {value, n, static_cast<std::size_t>(values.end() - above)};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean of a value <= 0");
    acc += std::log(v);
  }
  return std::exp(acc / static_cast<double>(values.size()));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- SpanRecorder -------------------------------------------------------------

namespace {
std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(steady_ns()) {}

double SpanRecorder::now() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent,
                                 std::uint64_t group) {
  const double t = now();
  return add(std::move(name), parent, group, t, t);
}

void SpanRecorder::end(std::int64_t span) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(span)).end_s = t;
}

std::int64_t SpanRecorder::add(std::string name, std::int64_t parent,
                               std::uint64_t group, double start_s,
                               double end_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), parent, group, start_s, end_s, {}});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::counter(std::int64_t span, std::string name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(span))
      .counters.emplace_back(std::move(name), value);
}

std::vector<SpanRecorder::Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double SpanRecorder::total(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end_s - s.start_s;
  }
  return sum;
}

std::string SpanRecorder::to_json() const {
  std::vector<Span> spans = snapshot();
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":" + Json(s.name).dump() +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"group\":" + std::to_string(s.group) +
           ",\"start_s\":" + json_number(s.start_s) +
           ",\"end_s\":" + json_number(s.end_s) + ",\"counters\":{";
    for (std::size_t c = 0; c < s.counters.size(); ++c) {
      if (c > 0) out += ",";
      out += Json(s.counters[c].first).dump() + ":" +
             json_number(s.counters[c].second);
    }
    out += i + 1 < spans.size() ? "}},\n" : "}}\n";
  }
  return out + "]\n";
}

// --- closed-loop client -------------------------------------------------------

std::vector<RequestRecord> run_closed_loop(
    const std::string& socket_path, const std::vector<PlannedRequest>& plan) {
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::int64_t r = plan[i].repeat_of;
    if (r >= static_cast<std::int64_t>(i) || r < -1 ||
        (r >= 0 && plan[static_cast<std::size_t>(r)].repeat_of != -1)) {
      throw std::invalid_argument("plan entry " + std::to_string(i) +
                                  " repeats no earlier fresh request");
    }
  }
  emorphic::service::SynthClient client =
      emorphic::service::SynthClient::connect_unix(socket_path);
  std::vector<RequestRecord> records;
  records.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedRequest& entry = plan[i];
    emorphic::service::JobRequest request =
        entry.repeat_of < 0
            ? entry.request
            : plan[static_cast<std::size_t>(entry.repeat_of)].request;
    request.id = entry.request.id;
    RequestRecord record;
    record.index = i;
    emorphic::Timer timer;
    try {
      Json verdict = client.submit(request);
      if (verdict.at("type").as_string() != "accepted") {
        record.terminal = verdict;
      } else {
        record.terminal = client.await(request.id, [&](const Json& frame) {
          if (frame.at("type").as_string() == "progress") {
            record.progress.push_back(frame);
          }
        });
      }
    } catch (const std::exception& e) {
      record.error = e.what();
    }
    record.latency_s = timer.seconds();
    records.push_back(std::move(record));
    if (!records.back().error.empty()) break;  // the connection is gone
  }
  return records;
}

}  // namespace perfbench
