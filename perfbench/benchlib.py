"""Pure helpers of the benchmark: percentiles, the reporting rule for
timings, span self time, and the probe-rate ladder.  run.py uses them;
test_perfbench.py tests them."""

import statistics

# Percentiles a timing may be reported at, lowest first.
REPORTABLE_PERCENTILES = (90.0, 95.0, 99.0, 99.9, 99.99, 99.999)


def percentile(values, p):
    """p-th percentile (0..100) by linear interpolation on the sorted
    sample, the rule analysis::quantile uses in the library."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (k - lo)


def top_percentile(n):
    """The highest reportable percentile with at least ten samples beyond
    it in a sample of n, or None when not even p90 has ten."""
    best = None
    for p in REPORTABLE_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def describe_timing(values, unit):
    """'median X unit, pNN Y unit, n=N' by the reporting rule."""
    n = len(values)
    text = f"median {percentile(values, 50):.4g} {unit}"
    p = top_percentile(n)
    if p is not None:
        text += f", p{p:g} {percentile(values, p):.4g} {unit}"
    return text + f", n={n}"


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    counted once).  `spans` is a list of dicts with start, end, parent
    (index into the list, -1 for a root)."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(int(span["parent"]), []).append(i)
    result = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        intervals = sorted(
            (max(start, spans[c]["start"]), min(end, spans[c]["end"]))
            for c in children.get(i, []))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result.append((end - start) - covered)
    return result


def max_rate(rungs, limit_ms):
    """Highest rung of the ladder that passes, walking up from the lowest
    rung and stopping at the first that fails.  A rung passes when every
    probe returned and its p99 rtt excess is under the limit.  `rungs` is
    a list of dicts with rate_pps, sent, returned, p99_ms; returns the
    passing rung or None when the lowest rung already fails."""
    best = None
    for rung in sorted(rungs, key=lambda r: r["rate_pps"]):
        if rung["returned"] != rung["sent"] or not rung["p99_ms"] < limit_ms:
            break
        best = rung
    return best


def parse_seeds(text):
    """'3' or '0-99' (inclusive) as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def relative_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
