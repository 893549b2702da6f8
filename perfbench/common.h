// Shared pieces of the benchmark driver: the raw-result JSON writer, wall
// and CPU clocks, the in-memory span recorder of the traced run, output
// checks, and the exact-counter digest.
//
// The driver prints raw measurements (per-unit wall/CPU times, counters,
// spans, live probe samples); perfbench/run.py turns them into the named
// metrics.  Nothing here reaches into src/: spans wrap the benchmark's own
// calls into each layer's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
/// Doubles are written with 17 significant digits so measured values keep
/// every digit.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  JsonWriter& key(const std::string& name);
  void value(double v);
  void value(std::uint64_t v);
  void value(const std::string& v);
  void value(bool v);
  const std::string& str() const { return out_; }

 private:
  void separator();
  std::string out_;
  std::vector<bool> first_;  // one entry per open container
  bool after_key_ = false;
};

double wall_now();        // steady clock, seconds
double cpu_now();         // process user + sys CPU, seconds (getrusage)
std::uint64_t peak_rss_kb();
/// Wall time of one pass of a fixed reference kernel that uses none of the
/// library.  Timed between units and between blocks of set-up
/// repetitions, it tracks the host's speed, which drifts on shared
/// machines; run.py divides it out of CPU-bound times.
double calibration_s();

/// Spans of the traced run: name, layer, start, end, parent span, run id.
/// Kept in memory and written out once the run ends.  A disabled recorder
/// records nothing, so untraced runs pay one branch per scope.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(wall_now()) {}

  class Scope {
   public:
    Scope(Spans& spans, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Run id stamped on spans opened from now on (one id per unit).
  void set_run(int run) { run_ = run; }
  void write(JsonWriter& json) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    double start;
    double end;
    int parent;
    int run;
  };
  bool enabled_;
  double origin_;
  int run_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Output checks: every check counts as one checked operation, and each
/// failure is kept (the first few verbatim) for the report.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what);
};

/// FNV-1a over 64-bit words; doubles are folded by their bit pattern, so
/// the digest changes when any digit of any counter does.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run one unit only and print its digest (reference generation).
  bool digest_only = false;
  /// live_loopback: probe-rate ladder, reference rate and the length of
  /// one rung (perfbench/config.json holds them; run.py passes them on).
  std::vector<double> ladder_pps;
  double reference_pps = 0.0;
  double rung_seconds = 0.0;
};

/// One measured repetition of a workload: timings, the probes it sent,
/// the digest of its exact counters, the counters themselves, and raw
/// per-probe samples where run.py needs them.
struct Unit {
  double wall_s = 0.0;
  /// Reference-kernel time around the unit: the mean of the passes just
  /// before and just after it.
  double calib_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t probes = 0;
  std::string digest;
  std::map<std::string, double> counts;
  std::map<std::string, std::vector<double>> samples;
};

/// Per-layer values measured by a traced run's extras, by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// The scenario entry call on the workload's spec with the probe plan
  /// cut to one interval (the set-up cost).
  virtual void setup() = 0;
  /// One measured unit.  Spans are recorded when `spans` is enabled.
  virtual Unit unit(Spans& spans, Checks& checks) = 0;
  /// Extra work of the traced run (layer differentials, invariance
  /// comparisons); runs first, before the set-up repetitions.
  virtual void traced_extras(Spans& /*spans*/, LayerValues& /*layer*/) {}
  /// Whether one unrecorded unit runs before each measuring phase, so
  /// caches and allocator pools are warm when timing starts.
  virtual bool needs_warm_up() const { return true; }
  /// Whether a measuring phase of `budget_s` seconds is complete after
  /// `units` units and `elapsed_s` seconds.  The default repeats units
  /// until the budget is spent, with at least three for a median.
  virtual bool phase_done(std::size_t units, double elapsed_s,
                          double budget_s) const {
    return units >= 3 && elapsed_s >= budget_s;
  }
};

std::unique_ptr<Workload> make_paper_path(const Options& options);
std::unique_ptr<Workload> make_mesh_sharded(const Options& options);
std::unique_ptr<Workload> make_fabric_build(const Options& options);
std::unique_ptr<Workload> make_live_loopback(const Options& options);

}  // namespace perfbench
