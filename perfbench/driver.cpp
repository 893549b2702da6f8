// perfbench_driver: runs one benchmark workload and prints its raw
// measurements as one JSON object on stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--digest-only]
//                    [--ladder R1,R2,... --reference-pps R --rung-seconds T]
//
// A run is: set-up repetitions (the scenario entry call with the probe
// plan cut to one interval; several, so run.py can take the median), then
// one unrecorded warm-up unit and measured units until the time budget is
// spent.  A pass of a fixed reference kernel runs between units and
// between blocks of set-up repetitions, so run.py can divide out the
// host's speed.  With --trace 1 the workload's traced extras run first,
// and every second unit records spans around each call into a layer.
// perfbench/run.py turns this into the named metrics.
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common.h"

namespace {

using namespace perfbench;

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) out.push_back(std::stod(item));
  return out;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(next());
    } else if (arg == "--trace") {
      options.trace = next() != "0";
    } else if (arg == "--digest-only") {
      options.digest_only = true;
    } else if (arg == "--ladder") {
      options.ladder_pps = parse_list(next());
    } else if (arg == "--reference-pps") {
      options.reference_pps = std::stod(next());
    } else if (arg == "--rung-seconds") {
      options.rung_seconds = std::stod(next());
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

std::unique_ptr<Workload> make(const Options& options) {
  if (options.workload == "paper_path") return make_paper_path(options);
  if (options.workload == "mesh_sharded") return make_mesh_sharded(options);
  if (options.workload == "fabric_build") return make_fabric_build(options);
  if (options.workload == "live_loopback") return make_live_loopback(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

void write_unit(JsonWriter& json, const Unit& unit) {
  json.begin_object();
  json.key("wall_s").value(unit.wall_s);
  json.key("cpu_s").value(unit.cpu_s);
  json.key("calib_s").value(unit.calib_s);
  json.key("probes").value(unit.probes);
  json.key("digest").value(unit.digest);
  json.key("counts").begin_object();
  for (const auto& [name, value] : unit.counts) json.key(name).value(value);
  json.end_object();
  json.key("samples").begin_object();
  for (const auto& [name, values] : unit.samples) {
    json.key(name).begin_array();
    for (const double v : values) json.value(v);
    json.end_array();
  }
  json.end_object();
  json.end_object();
}

struct Phase {
  std::vector<Unit> plain;
  std::vector<Unit> traced;
};

/// Runs units until the workload says the phase is done; each unit is
/// wrapped in a root span (layer "bench") carrying its run id.  With
/// `alternate`, every second unit records spans, so traced and untraced
/// units see the same drift in host speed.
Phase run_phase(Workload& workload, Spans& spans, Checks& checks,
                double budget_s, bool alternate) {
  if (workload.needs_warm_up()) {
    Spans quiet(false);
    workload.unit(quiet, checks);
  }
  Phase phase;
  std::size_t n = 0;
  const double start = wall_now();
  double calib_before = calibration_s();
  while (!workload.phase_done(n, wall_now() - start, budget_s)) {
    const bool traced = alternate && n % 2 == 1;
    spans.set_enabled(traced);
    spans.set_run(static_cast<int>(n));
    Unit unit;
    {
      Spans::Scope root(spans, "unit", "bench");
      unit = workload.unit(spans, checks);
    }
    const double calib_after = calibration_s();
    unit.calib_s = 0.5 * (calib_before + calib_after);
    calib_before = calib_after;
    (traced ? phase.traced : phase.plain).push_back(std::move(unit));
    ++n;
  }
  spans.set_enabled(false);
  spans.set_run(-1);
  return phase;
}

struct Setups {
  std::vector<double> times;
  /// Per repetition: the mean reference-kernel pass before and after its
  /// block of repetitions.
  std::vector<double> calib_s;
};

/// Set-up repetitions for 2 s and at least three, so a set-up of a
/// millisecond or less gets its median over thousands.  They run in blocks
/// of about 0.2 s with a reference-kernel pass between blocks, so each
/// repetition is scaled by the host's speed of its own moment.
Setups run_setups(Workload& workload) {
  Setups setups;
  std::vector<double>& times = setups.times;
  double calib_before = calibration_s();
  const double start = wall_now();
  while (times.size() < 3 || wall_now() - start < 2.0) {
    const double block_start = wall_now();
    do {
      const double t0 = wall_now();
      workload.setup();
      times.push_back(wall_now() - t0);
    } while (wall_now() - block_start < 0.2);
    const double calib_after = calibration_s();
    setups.calib_s.resize(times.size(), 0.5 * (calib_before + calib_after));
    calib_before = calib_after;
  }
  return setups;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    std::unique_ptr<Workload> workload = make(options);
    Spans spans(false);
    Checks checks;
    LayerValues layer;
    JsonWriter json;

    if (options.digest_only) {
      const Unit unit = workload->unit(spans, checks);
      json.begin_object();
      json.key("digest").value(unit.digest);
      json.key("failed").value(checks.failed);
      json.end_object();
      std::cout << json.str() << "\n";
      return checks.failed == 0 ? 0 : 1;
    }

    // The traced extras run first, while the process's peak RSS still
    // reflects nothing but them (fabric_build measures memory per flow).
    if (options.trace) {
      spans.set_enabled(true);
      workload->traced_extras(spans, layer);
      spans.set_enabled(false);
    }
    const Setups setups = run_setups(*workload);
    const Phase phase =
        run_phase(*workload, spans, checks, options.seconds, options.trace);

    json.begin_object();
    json.key("workload").value(options.workload);
    json.key("seed").value(options.seed);
    json.key("trace").value(options.trace);
    json.key("setup_s").begin_array();
    for (const double t : setups.times) json.value(t);
    json.end_array();
    json.key("setup_calib_s").begin_array();
    for (const double c : setups.calib_s) json.value(c);
    json.end_array();
    json.key("units").begin_array();
    for (const Unit& unit : phase.plain) write_unit(json, unit);
    json.end_array();
    json.key("traced_units").begin_array();
    for (const Unit& unit : phase.traced) write_unit(json, unit);
    json.end_array();
    json.key("peak_rss_kb").value(peak_rss_kb());
    json.key("checks").begin_object();
    json.key("attempted").value(checks.attempted);
    json.key("failed").value(checks.failed);
    json.key("failures").begin_array();
    for (const std::string& failure : checks.failures) json.value(failure);
    json.end_array();
    json.end_object();
    json.key("layer").begin_object();
    for (const auto& [name, value] : layer) json.key(name).value(value);
    json.end_object();
    json.key("spans");
    spans.write(json);
    json.end_object();
    std::cout << json.str() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
