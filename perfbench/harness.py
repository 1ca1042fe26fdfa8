"""Closed-loop passes over a workload's ops, latency statistics and the
run record.

An op is a fixed amount of work -- one call into the library, a fixed
batch of calls to a millisecond-scale kernel, or one `exactla`
subprocess -- with inputs fixed at set-up.  A pass runs the op list in
order, round after round.  Before every op, and once after the last, a
fixed pure-Python calibration loop is timed.  An op's latency is its
wall time scaled to the reference speed of that loop, and an op's
latency in the pass is the median of its repeats; the percentiles are
taken over those per-op latencies, so a workload has at least 92
distinct ops (ten of them lie beyond p90).  Every op is verified outside
its timed interval: the first result of an op is checked by the
workload's own check, and every later result must match it.
"""

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

# every reported percentile needs this many samples beyond it
MIN_BEYOND = 10

# The wall time of calibration_loop() at the reference speed: a round
# figure near its time on an Intel Xeon at 2.0 GHz under Python 3.11.7.
CAL_REFERENCE_S = 0.002
# an op is scaled by the median of this many calibrations on each side
CAL_WINDOW = 3


class _Ring:
    def __init__(self, m):
        self.m = m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m


def calibration_loop():
    """A fixed amount of the work the library spends its time on (method
    calls and small-integer arithmetic), independent of the library.

    The machine's speed drifts by a third and more over seconds to
    minutes, and the drift slows this loop about as much as it slows the
    library; timing it next to every op measures the speed the op ran at.
    """
    r = _Ring(998244353)
    acc = 1
    xs = list(range(1, 65))
    for _ in range(160):
        for x in xs:
            acc = r.add(r.mul(acc, x), x)
    return acc


def time_calibration():
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def reference_seconds(seconds, calibrations):
    """Wall seconds scaled to the reference speed, given the calibration
    times measured around them."""
    return seconds * CAL_REFERENCE_S / statistics.median(calibrations)


@dataclass
class Op:
    name: str
    run: object                 # () -> result; what the timed pass measures
    check: object               # (result) -> failure cause or None
    local: object = None        # () -> result in this process (defaults to run)
    counted: object = None      # (Counters) -> result through CountingRing

    def __post_init__(self):
        if self.local is None:
            self.local = self.run


def percentile(values, q):
    """Linear interpolation between closest ranks (statistics' 'inclusive')."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, threshold):
    return sum(1 for v in values if v > threshold)


def fingerprint(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


@dataclass
class Verifier:
    """First result of each op checked, later results compared with it."""
    refs: dict = field(default_factory=dict)      # op name -> (fingerprint, cause)

    def verify(self, op, result):
        fp = fingerprint(result)
        ref = self.refs.get(op.name)
        if ref is None:
            try:
                cause = op.check(result)
            except Exception as e:          # a result the check cannot read is wrong
                cause = "check raised %s: %s" % (type(e).__name__, e)
            self.refs[op.name] = (fp, cause)
            return cause
        if fp != ref[0]:
            return "result differs from this op's first (verified) result"
        return ref[1]


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)   # wall seconds, one per attempted op
    names: list = field(default_factory=list)       # the op of each latency
    cals: list = field(default_factory=list)        # calibration before each op, and after the last
    failures: list = field(default_factory=list)    # (op name, cause)
    cycles: int = 0
    wall_s: float = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_pass(ops, verifier, call=lambda op: op.run(), seconds=0.0, results=None):
    """Ops in order, round after round, until one whole cycle has run and
    `seconds` have passed; the pass may stop inside a later cycle.

    With a `results` dict, the last result of each op is kept in it.
    """
    res = PassResult()
    start = time.perf_counter()
    done = False
    while not done:
        for i, op in enumerate(ops):
            res.cals.append(time_calibration())
            t0 = time.perf_counter()
            try:
                result, error = call(op), None
            except Exception as e:          # an op that raises is a failed op
                result, error = None, "%s: %s" % (type(e).__name__, e)
            dt = time.perf_counter() - t0
            res.latencies.append(dt)
            res.names.append(op.name)
            if results is not None:
                results[op.name] = result
            cause = error or verifier.verify(op, result)
            if cause:
                res.failures.append((op.name, cause))
            if i == len(ops) - 1:
                res.cycles += 1
            if res.cycles and time.perf_counter() - start >= seconds:
                done = True
                break
    res.cals.append(time_calibration())
    res.wall_s = time.perf_counter() - start
    return res


def reference_latencies(res):
    """Every latency of the pass at the reference speed: op k's wall time
    scaled by the median of the CAL_WINDOW calibrations before it and the
    CAL_WINDOW after it."""
    out = []
    for k, dt in enumerate(res.latencies):
        window = res.cals[max(0, k + 1 - CAL_WINDOW):k + 1 + CAL_WINDOW]
        out.append(reference_seconds(dt, window))
    return out


def op_latencies(res, wall=False):
    """op name -> the median of its latencies at the reference speed (or
    of its wall times).

    The speed correction takes out a drift that lasts seconds; the median
    over an op's repeats takes out the shorter bursts of interference."""
    by_op = {}
    for name, t in zip(res.names, res.latencies if wall else reference_latencies(res)):
        by_op.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in by_op.items()}


def latency_summary(res):
    lat = list(op_latencies(res).values())
    wall = list(op_latencies(res, wall=True).values())
    p90 = percentile(lat, 0.90)
    ok = res.attempted - len(res.failures)
    repeats = {}
    for name in res.names:
        repeats[name] = repeats.get(name, 0) + 1
    return {
        "ops_per_s": (ok / res.attempted) * len(lat) / sum(lat),
        "ops_per_s_wall": ok / res.busy_s,
        "op_ms_p50": 1000.0 * percentile(lat, 0.50),
        "op_ms_p90": 1000.0 * p90,
        "op_ms_p50_wall": 1000.0 * percentile(wall, 0.50),
        "op_ms_p90_wall": 1000.0 * percentile(wall, 0.90),
        "calibration_ms_p50": 1000.0 * statistics.median(res.cals),
        "ops_attempted": res.attempted,
        "ops_failed": len(res.failures),
        "error_rate": len(res.failures) / res.attempted,
        "distinct_ops": len(lat),
        "samples_beyond_p90": samples_beyond(lat, p90),
        "repeats_min": min(repeats.values()),
        "repeats_max": max(repeats.values()),
        "cycles": res.cycles,
    }


def pin_to_current_cpu():
    """Keep this process, and the subprocesses it starts, on the CPU it
    runs on now; returns that CPU, or None where that cannot be done.

    The CPUs of a shared host slow down independently of each other, so
    an op, and the calibrations around it, must run on the same one."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, IndexError, ValueError, AttributeError):
        return None
    return cpu


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0      # Linux reports KiB


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "mode": "traced+counted" if trace else "timed",
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "clock": "time.perf_counter",
        "reference_speed": "calibration_loop() in %g s" % CAL_REFERENCE_S,
    }
