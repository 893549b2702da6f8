#include "common.h"

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::begin_object() {
  separator();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::begin_array() {
  separator();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
}

JsonWriter& JsonWriter::key(const std::string& name) {
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

void JsonWriter::value(double v) {
  separator();
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  out_ += buffer;
}

void JsonWriter::value(std::uint64_t v) {
  separator();
  out_ += std::to_string(v);
}

void JsonWriter::value(const std::string& v) {
  separator();
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out_ += buffer;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

double calibration_s() {
  // A fixed event-queue kernel that uses none of the library: a 4096-entry
  // heap of exponential timers, each pop updating a random slot of a 1 MiB
  // table — a simulator's heap and per-packet state, small enough to stay
  // in a core's L2 cache like the simulated workloads' hot data.
  constexpr std::size_t kTable = std::size_t{1} << 17;
  constexpr int kSteps = 250000;
  static std::vector<std::uint64_t> table(kTable, 1);
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto uniform = [&next] {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  };
  const double t0 = wall_now();
  for (std::uint32_t i = 0; i < 4096; ++i) {
    heap.push({-std::log(uniform()), i});
  }
  std::uint64_t sum = 0;
  for (int step = 0; step < kSteps; ++step) {
    const Event e = heap.top();
    heap.pop();
    std::uint64_t& slot = table[next() & (kTable - 1)];
    slot = slot * 6364136223846793005ULL + e.second;
    sum += slot >> 60;
    heap.push({e.first - std::log(uniform()), e.second});
  }
  const double elapsed = wall_now() - t0;
  table[0] += sum;  // keeps the loop's result live
  return elapsed;
}

Spans::Scope::Scope(Spans& spans, const char* name, const char* layer)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  index_ = static_cast<int>(spans_.spans_.size());
  const int parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  spans_.spans_.push_back(
      {name, layer, wall_now() - spans_.origin_, 0.0, parent, spans_.run_});
  spans_.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(index_)].end =
      wall_now() - spans_.origin_;
  spans_.open_.pop_back();
}

void Spans::write(JsonWriter& json) const {
  json.begin_array();
  for (const Span& span : spans_) {
    json.begin_object();
    json.key("name").value(std::string(span.name));
    json.key("layer").value(std::string(span.layer));
    json.key("start").value(span.start);
    json.key("end").value(span.end);
    json.key("parent").value(static_cast<double>(span.parent));
    json.key("run").value(static_cast<double>(span.run));
    json.end_object();
  }
  json.end_array();
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h_));
  return buffer;
}

}  // namespace perfbench
