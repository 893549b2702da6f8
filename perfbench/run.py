#!/usr/bin/env python3
"""The repo benchmark: builds the library tree and the workload driver from
source, runs one workload, checks its outputs, and prints every metric.

    python3 perfbench/run.py --workload paper_path --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: paper_path, mesh_sharded,
fabric_build, live_loopback (see perfbench/README.md for why each).  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace
1 the per-layer metrics of a traced run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The build goes
to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); spans of a
traced run are written there too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("paper_path", "mesh_sharded", "fabric_build", "live_loopback")
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the driver (incrementally after the first
    run); returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library tree at {ROOT}/src")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", jobs]):
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def run_driver(driver, args):
    proc = subprocess.run([driver] + args, capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout)


def driver_args(workload, seed, seconds, trace, config):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if workload == "live_loopback":
        live = config["live_loopback"]
        args += ["--ladder", ",".join(str(r) for r in live["ladder_pps"]),
                 "--reference-pps", str(live["reference_pps"]),
                 "--rung-seconds", str(live["rung_seconds"])]
    return args


def median(values):
    return statistics.median(values) if values else 0.0


# --- live_loopback ---------------------------------------------------------

def live_rungs(units):
    rungs = []
    for unit in units:
        c = unit["counts"]
        excess = unit["samples"]["excess_ms"]
        rungs.append({
            "reference": c["reference"] > 0.5,
            "rate_pps": c["rate_pps"],
            "achieved_pps": c["achieved_pps"],
            "sent": c["sent"],
            "returned": c["returned"],
            "p50_ms": benchlib.percentile(excess, 50) if excess else 0.0,
            "p99_ms": (benchlib.percentile(excess, 99) if excess
                       else float("inf")),
            "excess": excess,
        })
    return rungs


def live_end_to_end(units, config, lines):
    live = config["live_loopback"]
    rungs = live_rungs(units)
    reference = [r for r in rungs if r["reference"]]
    ladder = [r for r in rungs if not r["reference"]]
    lines.append("live_loopback: traffic crossed the host's loopback "
                 "interface (127.0.0.1), not a real link")
    for i, r in enumerate(reference):
        lines.append(f"  reference window {i}: {r['rate_pps']:.0f} pps, "
                     f"rtt excess from due time: "
                     + benchlib.describe_timing(r["excess"], "ms"))
    for r in ladder:
        lines.append(f"  rung {r['rate_pps']:.0f} pps (achieved "
                     f"{r['achieved_pps']:.1f}): returned "
                     f"{r['returned']:.0f}/{r['sent']:.0f}, rtt excess "
                     + (benchlib.describe_timing(r["excess"], "ms")
                        if r["excess"] else "none"))
    best = benchlib.max_rate(ladder, live["p99_limit_ms"])
    if best is None:
        raise RuntimeError("live_loopback: the lowest ladder rung failed")
    lines.append(f"  max rate: {best['rate_pps']:.0f} pps rung (p99 limit "
                 f"{live['p99_limit_ms']} ms, zero loss)")
    return {
        "rtt_excess_p50_ms": median([r["p50_ms"] for r in reference]),
        "max_rate_pps": best["achieved_pps"],
    }


def live_layer(units, lines):
    def pooled(name, only_reference):
        out = []
        for u in units:
            if only_reference and u["counts"]["reference"] < 0.5:
                continue
            out += u["samples"][name]
        return out

    fwd = pooled("fwd_excess_ms", True)
    ret = pooled("ret_excess_ms", True)
    lag = pooled("send_lag_ms", False)
    for name, values in (("forward leg excess", fwd),
                         ("return leg excess", ret),
                         ("generator send lag", lag)):
        lines.append(f"  netdyn {name}: "
                     + benchlib.describe_timing(values, "ms"))
    total = lambda key: sum(u["counts"][key] for u in units)  # noqa: E731
    probes = sum(u["probes"] for u in units)
    reference = [r for r in live_rungs(units) if r["reference"]]
    return {
        "netdyn.rtt_excess_p99_ms":
            median([r["p99_ms"] for r in reference]),
        "netdyn.fwd_excess_p50_ms": benchlib.percentile(fwd, 50),
        "netdyn.ret_excess_p50_ms": benchlib.percentile(ret, 50),
        "netdyn.emu_forwarded": total("emu_forwarded"),
        "netdyn.emu_overflow_drops": total("emu_overflow_drops"),
        "netdyn.echoed": total("echoed"),
        "netdyn.send_lag_p99_ms": benchlib.percentile(lag, 99),
        "netdyn.cpu_us_per_probe":
            sum(u["cpu_s"] for u in units) * 1e6 / probes,
    }


# --- metrics ---------------------------------------------------------------

def host_speed(raw, config):
    """Factors that turn measured host seconds into seconds at the
    reference host speed, one per unit and one per set-up repetition: the
    reference kernel's pass time on the reference host over its pass time
    around the unit or repetition."""
    reference = config["host_speed"]["reference_calib_s"]
    return ([reference / u["calib_s"] for u in raw["units"]],
            [reference / c for c in raw["setup_calib_s"]])


def end_to_end(raw, config, lines):
    units = raw["units"]
    speed, setup_speed = host_speed(raw, config)
    if raw["workload"] == "live_loopback":
        # Probing is paced by the schedule, the emulator's timers and the
        # scheduler, not by the CPU's speed.
        speed = [1.0] * len(units)
        setup_speed = [1.0] * len(setup_speed)
    setups = [t * k for t, k in zip(raw["setup_s"], setup_speed)]
    raw_walls = [u["wall_s"] for u in units]
    walls = [w * k for w, k in zip(raw_walls, speed)]
    rates = [u["probes"] / w for u, w in zip(units, walls)]
    lines.append(f"units: {len(units)}; wall per unit: "
                 + benchlib.describe_timing(raw_walls, "s"))
    lines.append(f"set-up repetitions: {len(raw['setup_s'])}; "
                 + benchlib.describe_timing(raw["setup_s"], "s"))
    lines.append("reference kernel pass: "
                 + benchlib.describe_timing([u["calib_s"] for u in units], "s")
                 + "; CPU-bound times below are at the reference host speed "
                 f"({config['host_speed']['reference_calib_s']} s a pass)")
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "probes_per_s": median(rates),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    if raw["workload"] == "live_loopback":
        # The rungs differ in rate, so the unit of work is the whole
        # probing session: the ladder plus the reference windows.
        metrics["wall_s"] = sum(walls)
        metrics["probes_per_s"] = sum(u["probes"] for u in units) / sum(walls)
        metrics.update(live_end_to_end(units, config, lines))
    else:
        # A simulator has no live probe path.  Its per-probe latency is
        # the host time one simulated probe round trip costs; the fastest
        # open-loop probe rate it could keep up with is its probe
        # throughput.
        metrics["rtt_excess_p50_ms"] = median(
            [1e3 * w / u["probes"] for u, w in zip(units, walls)])
        metrics["max_rate_pps"] = metrics["probes_per_s"]
    return metrics


SPAN_GROUPS = {
    "scenario.run_s": ("scenario.",),
    "analysis.loss_s": ("analysis.loss_stats", "analysis.fit_gilbert"),
    "analysis.phase_s": ("analysis.analyze_phase_plot",),
    "analysis.workload_s": ("analysis.analyze_workload",
                            "analysis.estimate_bottleneck"),
    "analysis.acf_s": ("analysis.autocorrelation", "analysis.periodogram"),
    "analysis.report_s": ("analysis.full_report",),
    "obs.export_s": ("obs.",),
}
SELF_LAYERS = ("bench", "scenario", "analysis", "obs", "netdyn")


def span_metrics(spans):
    """Per traced unit (run id >= 0; the extras have none): summed span
    time per group and self time per layer; returns the medians over
    units."""
    selfs = benchlib.self_times(spans)
    per_run = {}
    for span, self_s in zip(spans, selfs):
        run = int(span["run"])
        if run < 0:
            continue
        acc = per_run.setdefault(run, {})
        duration = span["end"] - span["start"]
        for group, prefixes in SPAN_GROUPS.items():
            if span["name"].startswith(prefixes):
                acc[group] = acc.get(group, 0.0) + duration
        key = f"self.{span['layer']}_s"
        acc[key] = acc.get(key, 0.0) + self_s
    names = list(SPAN_GROUPS) + [f"self.{layer}_s" for layer in SELF_LAYERS]
    return {n: median([acc.get(n, 0.0) for acc in per_run.values()])
            for n in names}


def per_layer(raw, lines):
    units, traced = raw["units"], raw["traced_units"]
    layer = dict(raw["layer"])
    counts = traced[0]["counts"]
    count = lambda key: counts.get(key, 0.0)  # noqa: E731
    m = span_metrics(raw["spans"])
    events, deliveries = count("events"), count("hop_deliveries")
    samples = count("analysis_samples")
    flows = count("flows_fluid") + count("flows_packetized")
    m.update({
        "sim.events": events,
        "sim.hop_deliveries": deliveries,
        "sim.events_per_delivery": events / deliveries if deliveries else 0.0,
        "sim.ns_per_event": m["scenario.run_s"] * 1e9 / events if events else 0.0,
        "scenario.calls": count("scenario_calls"),
        "scenario.generate_s": layer.get("scenario.generate_s", 0.0),
        "scenario.nodes": layer.get("scenario.nodes", 0.0),
        "scenario.links": layer.get("scenario.links", 0.0),
        "fluid.flows_fluid": count("flows_fluid"),
        "fluid.flows_packetized": count("flows_packetized"),
        "fluid.setup_us_per_flow":
            (median(raw["setup_s"]) - layer["fluid.setup_bare_s"]) * 1e6 / flows
            if flows else 0.0,
        "fluid.rss_bytes_per_flow": layer.get("fluid.rss_bytes_per_flow", 0.0),
        "pdes.domains_used": count("domains_used"),
        "pdes.cpu_per_wall": median([u["cpu_s"] / u["wall_s"] for u in units]),
        "pdes.stream_mismatch": layer.get("pdes.stream_mismatch", 0.0),
        "pdes.speedup_structural": 0.0,
        "pdes.speedup_parallel": 0.0,
        "analysis.samples": samples,
        "analysis.ns_per_sample":
            m["self.analysis_s"] * 1e9 / samples if samples else 0.0,
        "analysis.stream_push_ns": layer.get("analysis.stream_push_ns", 0.0),
        "analysis.audit_mismatch": count("audit_mismatch"),
        "obs.series_points": count("obs_series_points"),
        "obs.export_bytes": count("obs_export_bytes"),
        # live_loopback: reference windows only; its rungs differ in rate.
        "cpu_s": median([u["cpu_s"] for u in units + traced
                         if u["counts"].get("reference", 1.0) > 0.5]),
        "host.calib_s": median([u["calib_s"] for u in units + traced]),
        "trace.overhead_frac":
            median([u["wall_s"] for u in traced])
            / median([u["wall_s"] for u in units]) - 1.0,
    })
    if "pdes.wall_d1_s" in layer:
        d1, d4 = layer["pdes.wall_d1_s"], layer["pdes.wall_d4_nodonor_s"]
        m["pdes.speedup_structural"] = d1 / d4
        m["pdes.speedup_parallel"] = d4 / median([u["wall_s"] for u in units])
        lines.append(f"pdes: d=1 {d1:.3f} s, d=4 without donor {d4:.3f} s, "
                     f"d=4 with pool (median unit) "
                     f"{median([u['wall_s'] for u in units]):.3f} s")
        lines.append(
            f"pdes invariance d=1 vs d=4: {layer['pdes.stream_mismatch']:.0f} "
            f"streams differ (max mean-rtt diff "
            f"{layer['pdes.stream_max_rtt_diff_ms']:.3g} ms, loss_error diff "
            f"{layer['pdes.loss_error_diff']:.3g}, events "
            f"{layer['pdes.events_d1']:.0f} vs {layer['pdes.events_d4']:.0f})")
        if layer["pdes.stream_mismatch"] > 0:
            lines.append("WARNING: the sharded mesh does not reproduce the "
                         "sequential one stream for stream (known defect)")
    live = {}
    if raw["workload"] == "live_loopback":
        live = live_layer(traced, lines)
    for name in ("netdyn.rtt_excess_p99_ms",
                 "netdyn.fwd_excess_p50_ms", "netdyn.ret_excess_p50_ms",
                 "netdyn.emu_forwarded", "netdyn.emu_overflow_drops",
                 "netdyn.echoed", "netdyn.send_lag_p99_ms",
                 "netdyn.cpu_us_per_probe"):
        m[name] = live.get(name, 0.0)
    repeat = {k for u in traced for k in ("events", "hop_deliveries",
              "analysis_samples", "obs_series_points", "flows_fluid",
              "flows_packetized") if u["counts"].get(k) != counts.get(k)}
    lines.append("exact counters repeat across traced units: "
                 + ("yes" if not repeat else "NO: " + ", ".join(sorted(repeat))))
    return m


def digest_checks(raw, references):
    """Run-to-run repeatability of the exact-counter digest within the
    run, and equality with the reference digest for this seed."""
    attempted = failed = 0
    notes = []
    digests = [u["digest"] for u in raw["units"] + raw["traced_units"]]
    if not digests or not digests[0]:
        return attempted, failed, notes
    for d in digests[1:]:
        attempted += 1
        if d != digests[0]:
            failed += 1
            notes.append(f"digest changed between units: {digests[0]} vs {d}")
    expected = references.get(raw["workload"], {}).get(str(raw["seed"]))
    if expected is None:
        notes.append(f"no reference digest for seed {raw['seed']}; "
                     "checked repeatability only")
    else:
        attempted += 1
        if digests[0] != expected:
            failed += 1
            notes.append(f"digest {digests[0]} != reference {expected}")
    return attempted, failed, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    config = load_json("config.json")
    references = load_json("references.json")
    driver = build()
    raw = run_driver(driver, driver_args(args.workload, args.seed,
                                         args.seconds, args.trace, config))

    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}"]
    attempted = raw["checks"]["attempted"]
    failed = raw["checks"]["failed"]
    a, f, notes = digest_checks(raw, references)
    attempted += a
    failed += f
    if args.trace:
        computed = per_layer(raw, lines)
        listed = bench["per_layer"]
        spans_path = os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as out:
            json.dump(raw["spans"], out)
        lines.append(f"{len(raw['spans'])} spans written to {spans_path}")
    else:
        computed = end_to_end(raw, config, lines)
        computed["pass_frac"] = 1.0 - failed / attempted
        listed = bench["end_to_end"]

    moves = {row["metric"]: row for row in config["layers"]}
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in computed:
            raise RuntimeError(f"metric {name} was not computed")
        metrics[name] = {"value": computed[name], "unit": entry["unit"]}
        line = f"{name:28s} {computed[name]:<12.6g} {entry['unit']}"
        if name in moves:
            line += f"  -> {moves[name]['moves']} on {moves[name]['on']}"
        lines.append(line)
    lines.append(f"checks: {attempted} attempted, {failed} failed")
    for failure in raw["checks"]["failures"] + notes:
        lines.append(f"  {failure}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
