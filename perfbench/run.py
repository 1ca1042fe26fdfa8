"""exactla benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the four workloads, or `all` to run each in turn in a
fresh process of its own.

Run from the root of a source checkout; the library is imported from
./src.  Each workload is one single-threaded closed loop in this process
(`cli-counted` runs one `exactla` subprocess at a time).

--trace 0  timed pass only: every end-to-end metric, its times scaled to
           the reference speed of a calibration loop (see harness.py).
--trace 1  a one-cycle untraced baseline, a traced pass (spans installed
           from outside the library), two counted passes (CountingRing)
           and, for zp-kernels, an uninstrumented kernel sweep: every
           per-layer metric.

The passes never share an op call.  Human-readable lines come first; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import harness
import tracer as tr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("zp-kernels", "z-growth", "tower-crossval", "cli-counted")
SETUP_REPEATS = 9
SETUP_CALIBRATIONS = 3      # on each side of a set-up
STARTUP_REPEATS = 5
SWEEP_REPEATS = 3
PINNED_N = 8
# most of the traced time must lie inside library spans
HARNESS_SHARE_MAX = 0.01

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# the per-layer metrics of the final JSON line: counts (exact, from the
# counted pass or from span counts) and times every workload exercises.
# Layer times that are zero by construction on some workload are printed
# in the full per-layer line instead.
PER_LAYER = {
    "rings.self_s": "s",
    "rings.adds": "count",
    "rings.subs": "count",
    "rings.muls": "count",
    "rings.divs": "count",
    "rings.exact_divs": "count",
    "rings.max_bits": "bits",
    "charpoly.self_s": "s",
    "matrix.self_s": "s",
    "multipoly.mp_mul_calls": "count",
    "multipoly.mp_rem_calls": "count",
    "poly.schoolbook_calls": "count",
    "poly.karatsuba_calls": "count",
    "poly.dft_calls": "count",
    "matrix.mat_mul_calls": "count",
    "elimination.calls": "count",
    "sequences.bm_per_wiedemann": "ratio",
    "modular.primes": "count",
    "modular.bound_slack": "ratio",
    "pinv.calls": "count",
    "bench.algos_ran": "count",
    "bench.algos_skipped": "count",
    "cli.startup_ms": "ms",
    "cli.exit_nonzero": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "counted_overhead_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}

LAYERS = ("rings", "multipoly", "poly", "matrix", "elimination", "charpoly",
          "sequences", "modular", "pinv", "bench", "cli")


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    return "count"


def source_of(name):
    """Which pass produced a metric (printed next to every number)."""
    if name == "setup_s":
        return "set-up at the reference speed, median of %d" % SETUP_REPEATS
    if name in ("ops_per_s", "op_ms_p50", "op_ms_p90"):
        return "timed pass at the reference speed, median repeat of each op"
    if name in END_TO_END:
        return "timed pass"
    if name.startswith("rings.") and not name.endswith("_s"):
        return "counted pass (2 passes, must agree)"
    if ".mul_ms." in name:
        return "kernel sweep, uninstrumented, median of %d" % SWEEP_REPEATS
    if name == "cli.startup_ms":
        return "fresh interpreters, median of %d" % STARTUP_REPEATS
    if name in ("cli.proc_ms_p50", "cli.exit_nonzero"):
        return "subprocess cycle"
    if name == "modular.bound_slack":
        return "inputs and results, untimed"
    if name == "counted_overhead_ratio":
        return "counted / baseline"
    if name == "trace_overhead_ratio":
        return "traced / baseline"
    return "traced pass"


def import_probe(env, code):
    """Wall time of a fresh interpreter running `code`.

    The output goes through a pipe: with a timeout and no pipe,
    subprocess polls for the exit in steps of up to 50 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


def build_ops(workload, seed, workdir):
    import workloads as w
    if workload == "zp-kernels":
        return w.zp_kernels(seed)
    if workload == "z-growth":
        return w.z_growth(seed)
    if workload == "tower-crossval":
        return w.tower_crossval(seed)
    return w.cli_counted(seed, workdir, ROOT)


def measure_setup(workload, seed, workdir, env):
    """SETUP_REPEATS set-ups, each a fresh interpreter importing the
    library, input generation (and matrix files) and one warm-up op;
    returns their wall times, the same at the reference speed, and the ops."""
    wall, reference = [], []
    ops = None
    for _ in range(SETUP_REPEATS):
        cals = [harness.time_calibration() for _ in range(SETUP_CALIBRATIONS)]
        t0 = time.perf_counter()
        import_probe(env, "import exactla.cli, exactla.pinv, exactla.sequences")
        ops = build_ops(workload, seed, workdir)
        ops[0].run()
        if len({op.name for op in ops}) != len(ops):
            raise ValueError("op names must be unique within a workload")
        dt = time.perf_counter() - t0
        cals += [harness.time_calibration() for _ in range(SETUP_CALIBRATIONS)]
        wall.append(dt)
        reference.append(harness.reference_seconds(dt, cals))
    return wall, reference, ops


def counted_pass(ops, verifier, per_op):
    """Every op with a counted variant, through CountingRing; per_op
    collects (OpStats, max_bits) by op name."""
    import workloads as w

    def call(op):
        c = w.Counters()
        result = op.counted(c)
        per_op[op.name] = c.totals()
        return result
    return harness.run_pass([op for op in ops if op.counted], verifier, call=call)


def pinned_count(seed):
    """Counted Berkowitz over Z at n = PINNED_N against its closed form."""
    import workloads as w
    from exactla import bench, charpoly
    c = w.Counters()
    charpoly.charpoly_berkowitz(c.matrix(bench.generate_matrix(bench.BenchCase(1, PINNED_N, seed))))
    got = c.totals()[0].total
    return got, charpoly.berkowitz_count(PINNED_N)


def trace_run(workload, seed, ops, verifier, env, out):
    """Baseline, traced and counted passes; returns (metrics, attempted, failures)."""
    import workloads as w
    from exactla import registry

    metrics = {}
    failures = []
    attempted = 0
    results = {}
    if workload == "cli-counted":
        sub = harness.run_pass(ops, verifier, results=results)
        attempted += sub.attempted
        failures += sub.failures
        metrics["cli.proc_ms_p50"] = 1000.0 * harness.percentile(sub.latencies, 0.5)
        metrics.update(w.cli_counts(results))
        results = {}

    base = harness.run_pass(ops, verifier, call=lambda op: op.local())
    tracer = tr.Tracer()
    inst = tr.install(tracer)
    try:
        traced = harness.run_pass(ops, verifier, call=lambda op: op.local(), results=results)
    finally:
        inst.uninstall()
    counts_a, counts_b = {}, {}
    counted_a = counted_pass(ops, verifier, counts_a)
    counted_b = counted_pass(ops, verifier, counts_b)
    for p in (base, traced, counted_a, counted_b):
        attempted += p.attempted
        failures += p.failures

    # the time of the traced ops that no span covers: the harness's own
    # code and any library code the tracer does not reach
    wall = traced.busy_s
    layer_self = tracer.layer_self()
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = layer_self.get(layer, 0.0)
    metrics["harness.self_s"] = wall - tracer.top_s
    metrics["trace.wall_s"] = wall
    for algo_id in registry.ids():
        rec = tracer.spans.get("charpoly.%s" % algo_id)
        metrics["charpoly.%s.self_s" % algo_id] = rec[2] if rec else 0.0
    metrics["multipoly.mp_mul_calls"] = tracer.calls("multipoly.mp_mul")
    metrics["multipoly.mp_rem_calls"] = tracer.calls("multipoly.mp_rem")
    for kind in ("schoolbook", "karatsuba", "dft"):
        metrics["poly.%s_calls" % kind] = tracer.calls("poly.%s_mul" % kind)
    metrics["poly.series_inverse_s"] = tracer.inclusive("poly.series_inverse")
    metrics["matrix.mat_mul_calls"] = tracer.calls("matrix.mat_mul")
    metrics["elimination.calls"] = tracer.entries_into("elimination")
    wied = tracer.calls("sequences.wiedemann_minpoly")
    metrics["sequences.bm_per_wiedemann"] = (
        tracer.calls("sequences.berlekamp_massey") / wied if wied else 0.0)
    primes, per_prime_s = tracer.edge_sum("modular", "charpoly")
    metrics["modular.primes"] = primes
    metrics["modular.per_prime_s"] = per_prime_s
    metrics["modular.crt_s"] = tracer.inclusive("modular.crt_reconstruct")
    metrics["pinv.calls"] = tracer.entries_into("pinv")
    metrics["bench.cross_validate_s"] = tracer.inclusive("bench.cross_validate")
    if workload == "tower-crossval":
        metrics.update(w.tower_counts(results))
    metrics.setdefault("bench.algos_ran", 0)
    metrics.setdefault("bench.algos_skipped", 0)
    metrics.setdefault("cli.exit_nonzero", 0)
    metrics.setdefault("cli.proc_ms_p50", 0.0)

    stats, bits = w.merge_counts(counts_a.values())
    for key, value in stats.as_dict().items():
        metrics["rings.%s" % key] = value
    metrics["rings.max_bits"] = bits
    if workload == "z-growth":
        metrics["modular.bound_slack"] = w.z_growth_slack(seed)
    elif workload == "cli-counted":
        metrics["modular.bound_slack"] = w.cli_slack(seed)
    else:
        metrics["modular.bound_slack"] = 0.0
    # counted and baseline wall over the same ops (some ops have no counted variant)
    base_counted_s = sum(t for op, t in zip(ops, base.latencies) if op.counted)
    metrics["counted_overhead_ratio"] = counted_a.busy_s / base_counted_s
    metrics["trace_overhead_ratio"] = traced.busy_s / base.busy_s

    bare = [import_probe(env, "pass") for _ in range(STARTUP_REPEATS)]
    with_cli = [import_probe(env, "import exactla.cli") for _ in range(STARTUP_REPEATS)]
    metrics["cli.startup_ms"] = 1000.0 * (statistics.median(with_cli) - statistics.median(bare))

    if workload == "zp-kernels":
        metrics.update(w.zp_sweep(SWEEP_REPEATS))

    # self-checks of the instrumentation
    checks = {}
    checks["counted_passes_identical"] = counts_a == counts_b
    got, want = pinned_count(seed)
    checks["pinned_berkowitz_count"] = got == want
    checks["harness_share_below_%g" % HARNESS_SHARE_MAX] = (
        metrics["harness.self_s"] <= HARNESS_SHARE_MAX * wall)
    checks["no_call_from_leaf_span_into_other_layer"] = tracer.leaf_violations == 0
    out["self_checks"] = checks
    out["pinned_berkowitz_count"] = {"n": PINNED_N, "counted": got, "closed_form": want}
    out["not_counted"] = [op.name for op in ops if not op.counted]
    out["passes"] = {
        "baseline": {"ops": base.attempted, "wall_s": base.busy_s},
        "traced": {"ops": traced.attempted, "wall_s": traced.busy_s},
        "counted": {"ops": counted_a.attempted, "wall_s": counted_a.busy_s, "repeats": 2},
    }
    return metrics, attempted, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "exactla", "__init__.py")):
        print("perfbench: exactla sources not found under %s" % src, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    import workloads as w

    env = w.cli_env(ROOT)
    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Every workload, each in a fresh process of its own, one after the
    other; the final line merges their results, metrics named
    <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("## %s" % workload)
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(merged))
    return 0


def run(args, workdir, env):
    import workloads as w

    record = harness.run_record(args.workload, args.seed, args.seconds, args.trace)
    record["pinned_cpu"] = harness.pin_to_current_cpu()
    setup_wall, setup_samples, ops = measure_setup(args.workload, args.seed, workdir, env)
    verifier = harness.Verifier()
    record["ops_per_cycle"] = len(ops)
    problems = []           # failed checks of the harness itself, not ops

    if args.trace:
        metrics, attempted, failures = trace_run(args.workload, args.seed, ops,
                                                 verifier, env, record)
        problems += ["self-check failed: " + name
                     for name, ok in record["self_checks"].items() if not ok]
        report = {k: metrics[k] for k in PER_LAYER}
        print("# per-layer metrics; the final line carries those named in BENCHMARK.json")
        names = sorted(metrics)
    else:
        res = harness.run_pass(ops, verifier, seconds=args.seconds)
        summary = harness.latency_summary(res)
        attempted, failures = res.attempted, list(res.failures)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": summary["ops_per_s"],
            "op_ms_p50": summary["op_ms_p50"],
            "op_ms_p90": summary["op_ms_p90"],
            "peak_rss_mb": harness.peak_rss_mb(children=args.workload == "cli-counted"),
        }
        report = metrics
        record["timed"] = dict(summary, busy_s=res.busy_s, wall_s=res.wall_s)
        record["op_ms"] = {name: 1000.0 * t for name, t in harness.op_latencies(res).items()}
        record["setup_samples_s"] = setup_samples
        record["setup_wall_s"] = setup_wall
        print("# end-to-end metrics; %d ops attempted (%d distinct, %d-%d repeats each, "
              "%d whole cycles), %d failed, error_rate %.6f; %d ops beyond p90; "
              "wall clock: %.6f ops/s, op_ms_p50 %.4f, op_ms_p90 %.4f; "
              "calibration loop %.4f ms (reference %g ms); "
              "set-up wall median %.4f s; peak_rss_mb of %s" % (
                  res.attempted, summary["distinct_ops"], summary["repeats_min"],
                  summary["repeats_max"], res.cycles, summary["ops_failed"],
                  summary["error_rate"], summary["samples_beyond_p90"],
                  summary["ops_per_s_wall"], summary["op_ms_p50_wall"],
                  summary["op_ms_p90_wall"], summary["calibration_ms_p50"],
                  1000.0 * harness.CAL_REFERENCE_S, statistics.median(setup_wall),
                  "the subprocesses" if args.workload == "cli-counted" else "this process"))
        names = list(END_TO_END)
        if summary["samples_beyond_p90"] < harness.MIN_BEYOND:
            problems.append("fewer than %d ops beyond p90" % harness.MIN_BEYOND)
    for name in names:
        print("%-36s %18.6f %-6s %s" % (name, metrics[name], unit_of(name), source_of(name)))

    if args.workload == "cli-counted":
        status, cause = w.cli_known_defect(workdir, ROOT)
        defect = "exactla charpoly --algo hessenberg on a Z matrix"
        record["known_defects"] = [{"op": defect, "status": status, "cause": cause}]
        print("known defect (probed once, not a timed op): %s: %s, %s" % (defect, status, cause))
        if status == "wrong":
            problems.append("known-defect probe gave a wrong result: " + cause)

    for name, cause in failures[:20]:
        print("FAILED %s: %s" % (name, cause))
    for problem in problems:
        print("FAILED " + problem)
    record["failures"] = [{"op": n, "cause": c} for n, c in failures]
    record["problems"] = problems
    print("record " + json.dumps(record, sort_keys=True))
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
