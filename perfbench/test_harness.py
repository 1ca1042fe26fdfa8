"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py          (or: python3 -m pytest perfbench)

They cover the percentile function and the samples-beyond rule, span
self-time arithmetic on a synthetic nest, that verification counts a
corrupted result as a failed op, that installing the tracer changes no
result and is fully undone, and that run.py and BENCHMARK.json name the
same metrics.
"""

import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as w  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# percentiles

def test_percentile_matches_statistics_inclusive():
    rng = random.Random(7)
    for n in (2, 3, 10, 101, 250):
        xs = [rng.random() for _ in range(n)]
        q = statistics.quantiles(xs, n=100, method="inclusive")
        assert abs(harness.percentile(xs, 0.50) - statistics.median(xs)) < 1e-12
        assert abs(harness.percentile(xs, 0.90) - q[89]) < 1e-12
        assert abs(harness.percentile(xs, 0.25) - q[24]) < 1e-12


def test_percentile_edges():
    assert harness.percentile([3.0], 0.9) == 3.0
    assert harness.percentile([1.0, 2.0], 0.0) == 1.0
    assert harness.percentile([1.0, 2.0], 1.0) == 2.0


def test_samples_beyond_p90_rule():
    def beyond(n):
        xs = [float(i) for i in range(n)]
        return harness.samples_beyond(xs, harness.percentile(xs, 0.9))
    # of n distinct per-op latencies, 92 leave 10 beyond p90 and 91 leave 9
    assert beyond(92) == harness.MIN_BEYOND
    assert beyond(91) == harness.MIN_BEYOND - 1
    assert beyond(100) == 10


def test_run_pass_runs_one_whole_cycle_then_until_seconds():
    ops = [harness.Op("a", lambda: 1, lambda r: None),
           harness.Op("b", lambda: 2, lambda r: None)]
    res = harness.run_pass(ops, harness.Verifier())
    assert (res.cycles, res.attempted) == (1, 2)
    res = harness.run_pass(ops, harness.Verifier(), seconds=0.02)
    assert res.wall_s >= 0.02 and res.cycles >= 1
    assert res.attempted in (2 * res.cycles, 2 * res.cycles + 1)


def test_latencies_are_each_ops_median_repeat_at_reference_speed():
    ref = harness.CAL_REFERENCE_S
    # op "a" ran at half the reference speed in its second repeat
    res = harness.PassResult(latencies=[0.1, 0.3, 0.4, 0.5, 0.2, 0.3],
                             names=["a", "b", "a", "b", "a", "b"],
                             cals=[ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref],
                             failures=[("b", "wrong")], cycles=3)
    lat = harness.reference_latencies(res)
    # windows: cals[0:4], [0:5], [0:6], [1:7], [2:7], [3:7]
    want = [0.1, 0.3, 0.4 / 1.5, 0.5 / 2, 0.2 / 2, 0.3 / 2]
    assert all(abs(x - y) < 1e-12 for x, y in zip(lat, want))
    per_op = harness.op_latencies(res)
    assert abs(per_op["a"] - 0.1) < 1e-12 and abs(per_op["b"] - 0.25) < 1e-12
    s = harness.latency_summary(res)
    assert abs(s["ops_per_s"] - (5 / 6) * 2 / 0.35) < 1e-12
    assert abs(s["ops_per_s_wall"] - 5 / 1.8) < 1e-12
    assert abs(s["op_ms_p50"] - 175.0) < 1e-9
    assert abs(s["op_ms_p90"] - 235.0) < 1e-9
    assert abs(s["error_rate"] - 1 / 6) < 1e-12
    assert (s["distinct_ops"], s["repeats_min"], s["repeats_max"]) == (2, 3, 3)


def test_run_pass_calibrates_around_every_op():
    ops = [harness.Op("a", lambda: 1, lambda r: None)]
    res = harness.run_pass(ops, harness.Verifier(), seconds=0.01)
    assert len(res.cals) == res.attempted + 1 and min(res.cals) > 0


def test_every_workload_has_enough_ops_beyond_p90():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for ops in (w.zp_kernels(1), w.z_growth(1), w.tower_crossval(1),
                    w.cli_counted(1, tmp, ROOT)):
            assert len({op.name for op in ops}) == len(ops) >= 92


# ---------------------------------------------------------------------------
# spans

def test_span_self_time_on_synthetic_nest():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    # outer [0, 10] > a [2, 5] > leaf [3, 4];  outer > b [6, 7];  later [12, 13]
    clock.now = 0.0
    t.enter("charpoly.outer")
    clock.now = 2.0
    t.enter("poly.a")
    clock.now = 3.0
    t.enter("rings.leaf")
    clock.now = 4.0
    t.exit()
    clock.now = 5.0
    t.exit()
    clock.now = 6.0
    t.enter("matrix.b")
    clock.now = 7.0
    t.exit()
    clock.now = 10.0
    t.exit()
    clock.now = 12.0
    t.enter("poly.a")
    clock.now = 13.0
    t.exit()

    assert t.spans["charpoly.outer"] == [1, 10.0, 6.0]
    assert t.spans["poly.a"] == [2, 4.0, 3.0]
    assert t.spans["rings.leaf"] == [1, 1.0, 1.0]
    assert t.spans["matrix.b"] == [1, 1.0, 1.0]
    assert t.top_s == 11.0
    assert t.layer_self() == {"charpoly": 6.0, "poly": 3.0, "rings": 1.0, "matrix": 1.0}
    assert sum(t.layer_self().values()) == t.top_s
    assert t.edge_sum("charpoly", "poly") == (1, 3.0)
    assert t.entries_into("poly") == 2


def test_wrapped_spans_and_leaf_spans_account_for_wall():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def tick(dt):
        clock.now += dt

    leaf = t.wrap_leaf("rings.mul", lambda: tick(1.0))
    inner = t.wrap("poly.mul", lambda: (tick(0.5), leaf(), leaf(), tick(0.5)))
    same_layer = t.wrap("poly.helper", lambda: inner(), nest_in_layer=False)
    outer = t.wrap("charpoly.run", lambda: (tick(2.0), same_layer(), leaf()))
    outer()
    assert t.spans["charpoly.run"] == [1, 6.0, 2.0]
    assert t.spans["poly.mul"] == [1, 3.0, 1.0]
    assert t.spans["poly.helper"] == [1, 3.0, 0.0]   # opened: its caller is not in poly
    assert t.spans["rings.mul"] == [3, 3.0, 3.0]
    assert sum(t.layer_self().values()) == t.top_s == 6.0
    assert t.leaf_violations == 0

    # inside a leaf nothing opens a span; a call into another layer is an error
    t2 = tr.Tracer(clock=clock)
    same = t2.wrap_leaf("rings.pow", t2.wrap("rings.Ring.helper", lambda: tick(1.0)))
    same()
    assert t2.leaf_violations == 0 and "rings.Ring.helper" not in t2.spans
    bad_leaf = t2.wrap_leaf("rings.bad", t2.wrap("poly.x", lambda: tick(1.0)))
    bad_leaf()
    assert t2.leaf_violations == 1 and "poly.x" not in t2.spans
    assert sum(t2.layer_self().values()) == t2.top_s == 2.0


def test_nest_in_layer_false_skips_span_inside_own_layer():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    fn = t.wrap("charpoly.berkowitz", lambda: None, nest_in_layer=False)
    algo = t.wrap("charpoly.berkowitz_sparse", lambda: fn())
    algo()
    assert "charpoly.berkowitz" not in t.spans
    fn()
    assert t.spans["charpoly.berkowitz"][0] == 1


def test_install_changes_no_result_and_uninstall_restores():
    from exactla import charpoly, matrix, poly, registry, rings
    before = (poly.poly_mul, charpoly.mat_mul, registry._BY_ID["kaltofen"],
              rings.IntegersMod.mul, matrix.DenseMatrix.apply)
    ops = w.zp_kernels(3)[:4]
    plain = [op.run() for op in ops]
    t = tr.Tracer()
    inst = tr.install(t)
    try:
        traced = [op.run() for op in ops]
        assert poly.poly_mul is not before[0]
    finally:
        inst.uninstall()
    after = (poly.poly_mul, charpoly.mat_mul, registry._BY_ID["kaltofen"],
             rings.IntegersMod.mul, matrix.DenseMatrix.apply)
    assert traced == plain
    assert all(x is y for x, y in zip(before, after))
    assert t.calls("poly.poly_mul") == 8 + 2 + 1 + 4       # the batched kernels
    assert t.leaf_violations == 0


def test_install_wraps_every_function_of_every_layer():
    import importlib
    import types
    t = tr.Tracer()
    inst = tr.install(t)
    try:
        for name in tr.LAYER_OF_MODULE:
            mod = importlib.import_module("exactla." + name)
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType):
                    # a wrapper is defined in the tracer, not in the layer
                    assert value.__module__ != mod.__name__, "%s.%s not traced" % (name, attr)
    finally:
        inst.uninstall()


# ---------------------------------------------------------------------------
# verification

def _corrupted(op, corrupt):
    return harness.Op(op.name, lambda: corrupt(op.run()), op.check)


def test_corrupted_results_count_as_failures():
    zp = w.zp_kernels(1)
    zg = w.z_growth(1)
    poly_op = zp[0]                                   # poly_mul, length 64
    det_op = next(op for op in zg if op.name.startswith("det_fraction_free."))
    cp_op = next(op for op in zg if op.name.startswith("berkowitz.Z."))

    def bump_first(xs):
        return [xs[0] + 1] + list(xs[1:])

    cases = [
        (poly_op, bump_first),
        (det_op, lambda d: d + 1),
        (cp_op, lambda c: tuple(bump_first(c))),
    ]
    for op, corrupt in cases:
        good = harness.run_pass([op], harness.Verifier())
        assert good.failures == []
        bad = harness.run_pass([_corrupted(op, corrupt)], harness.Verifier())
        assert len(bad.failures) == 1 and bad.failures[0][0] == op.name


def test_result_that_changes_between_passes_fails():
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        return 1 if state["n"] == 1 else 2
    op = harness.Op("flaky", flaky, lambda r: None)
    v = harness.Verifier()
    failures = [harness.run_pass([op], v).failures for _ in range(3)]
    assert failures[0] == []
    assert [name for f in failures[1:] for name, _ in f] == ["flaky", "flaky"]


def test_algorithm_that_stops_running_fails():
    ops = {op.name: op for op in w.tower_crossval(1)}
    kaltofen = ops["cross_validate.kaltofen.Z[x].n5"]
    hessenberg = ops["cross_validate.hessenberg.Z[x].n5"]
    assert kaltofen.check(kaltofen.run()) is None
    assert hessenberg.check(hessenberg.run()) is None          # skipped at the seed
    declined = (("kaltofen", "unsupported: declined", ""),)
    assert "no longer runs" in kaltofen.check(declined)


def test_check_that_raises_counts_as_failure():
    op = harness.Op("unreadable", lambda: "", lambda r: r.splitlines()[-1])
    res = harness.run_pass([op], harness.Verifier())
    assert res.failures and res.failures[0][1].startswith("check raised IndexError")


def test_raising_op_is_a_failure():
    op = harness.Op("boom", lambda: 1 // 0, lambda r: None)
    res = harness.run_pass([op], harness.Verifier())
    assert res.failures and res.failures[0][1].startswith("ZeroDivisionError")


def test_counted_variant_matches_and_pinned_count():
    ops = w.zp_kernels(2)
    v = harness.Verifier()
    harness.run_pass(ops[:3], v)
    per_op = {}
    res = run.counted_pass(ops[:3], v, per_op)
    assert res.failures == []
    assert all(stats.total > 0 for stats, _ in per_op.values())
    got, want = run.pinned_count(1)
    assert got == want


# ---------------------------------------------------------------------------
# BENCHMARK.json

def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [x["name"] for x in spec["workloads"]] == list(run.WORKLOADS)
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == run.END_TO_END
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == run.PER_LAYER


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d tests passed" % len(tests))
