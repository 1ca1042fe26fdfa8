"""The four workloads: inputs made from the seed, the ops that run on
them, each op's untimed check and its counted variant.

Ops call the library through the names its own callers use (for
example ``registry.get(id).run``), so that the spans the tracer installs
see them.  Results are plain data (coefficient tuples, entry lists,
exit code and output) so that two passes can be compared exactly.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from exactla import (bench, charpoly, cli, elimination, matrix, modular, pinv,
                     poly, registry, sequences)
from exactla.matrix import DenseMatrix
from exactla.rings import QQ, ZZ, CountingRing, IntegersMod, OpStats, PolynomialRing
from exactla.rng import Rng

from harness import Op

ZP_PRIMES = (10007, 998244353, (1 << 61) - 1)
QUOTIENT_1 = (("ideal", "1*x^3+-1"), ("p", "7"), ("vars", "x"))
QUOTIENT_2 = (("ideal", "1*x^2+-3;1*y^2+-1*x^1"), ("p", "11"), ("vars", "x,y"))


class Lazy:
    """A reference value computed on first use, outside any timed interval."""

    def __init__(self, fn):
        self.fn = fn
        self.done = False
        self.value = None

    def __call__(self):
        if not self.done:
            self.value = self.fn()
            self.done = True
        return self.value


def expect(got, want, what):
    return None if got == want else "%s: got %.200r, expected %.200r" % (what, got, want)


# ---------------------------------------------------------------------------
# counting

class Counters:
    """The CountingRings of one counted op, plus OpStats the library
    reported itself (the counted `run_case` path of `exactla bench`)."""

    def __init__(self):
        self.rings = []
        self.reported = []            # (OpStats, max_bits)

    def wrap(self, inner):
        r = CountingRing(inner, track_bits=True)
        r.name = inner.name           # error texts and skip reasons read as uncounted
        self.rings.append(r)
        return r

    def matrix(self, m):
        """m over a counted ring: the innermost scalar ring for Z[x]
        (as `bench.run_case` does), the entry ring otherwise."""
        ring = m.ring
        if isinstance(ring, PolynomialRing) and ring.base is ZZ:
            counted = PolynomialRing(self.wrap(ZZ), ring.var)
        else:
            counted = self.wrap(ring)
        return m.with_ring(counted, lambda x: x)

    def totals(self):
        return merge_counts([(r.stats, r.max_bits) for r in self.rings] + self.reported)

    def modular_primes(self):
        """Count the per-prime rings the modular pipeline builds."""
        return patched(modular, "IntegersMod", lambda orig: lambda p: self.wrap(orig(p)))


def merge_counts(pairs):
    """Summed OpStats and the largest max_bits of (OpStats, max_bits) pairs."""
    stats, bits = OpStats(), 0
    for s, b in pairs:
        stats, bits = stats.merged(s), max(bits, b)
    return stats, bits


@contextlib.contextmanager
def patched(owner, attr, make):
    """owner.attr replaced by make(owner.attr) for the duration."""
    old = getattr(owner, attr)
    setattr(owner, attr, make(old))
    try:
        yield
    finally:
        setattr(owner, attr, old)


def counted_charpoly(algo_id, m):
    return lambda c: tuple(registry.get(algo_id).run(c.matrix(m)).coeffs)


def charpoly_op(name, algo_id, m, check):
    return Op(name, lambda: tuple(registry.get(algo_id).run(m).coeffs), check,
              counted=counted_charpoly(algo_id, m))


def random_matrix(ring, n, rng, draw):
    return DenseMatrix(ring, n, n, [draw(rng) for _ in range(n * n)])


def batch(fn, times):
    """fn run `times` times in a row, the last result returned: one op
    made of a fixed number of calls to a millisecond-scale kernel."""
    def run(*args):
        for _ in range(times - 1):
            fn(*args)
        return fn(*args)
    return run


# ---------------------------------------------------------------------------
# zp-kernels

def zp_kernels(seed):
    """98 ops: every kernel in four variants of growing size (k = 0..3)."""
    rng = Rng(seed * 1000003 + 1)
    ops = []
    r10007, r998, r61 = (IntegersMod(p) for p in ZP_PRIMES)

    def below(p):
        return lambda g: g.below(p)

    def poly_op(ring, strategy, length, times, k):
        a = [rng.below(ring.m) for _ in range(length)]
        b = [rng.below(ring.m) for _ in range(length)]
        want = Lazy(lambda: poly.schoolbook_mul(ring, a, b))
        mul = batch(lambda r: poly.poly_mul(r, a, b, strategy), times)
        return Op("poly_mul.%s.%s.L%d.x%d.v%d" % (strategy, ring.name, length, times, k),
                  lambda: mul(ring),
                  lambda got: expect(got, want(), "poly_mul vs schoolbook_mul"),
                  counted=lambda c: mul(c.wrap(ring)))

    def series_op(k, order=255):
        s = [1 + rng.below(r998.m - 1)] + [rng.below(r998.m) for _ in range(order)]

        def check_inverse(inv):
            prod = poly.series_mul(r998, inv, s, order)
            return expect(prod, [1] + [0] * order, "series_inverse(a)*a mod z^%d" % (order + 1))
        return Op("series_inverse.%s.L%d.v%d" % (r998.name, order + 1, k),
                  lambda: poly.series_inverse(r998, s, order), check_inverse,
                  counted=lambda c: poly.series_inverse(c.wrap(r998), s, order))

    def mat_mul_ops(ring, n, cutoff=16):
        a = random_matrix(ring, n, rng, below(ring.m))
        b = random_matrix(ring, n, rng, below(ring.m))
        x = [rng.below(ring.m) for _ in range(n)]
        classical = Lazy(lambda: matrix.mat_mul(a, b, "classical").entries)

        def freivalds(entries):
            # exact Freivalds test: C x == A (B x)
            cx = DenseMatrix(ring, n, n, entries).apply(x)
            return expect(cx, a.apply(b.apply(x)), "mat_mul: C*x vs A*(B*x)")

        def check_strassen(entries):
            return expect(entries, classical(), "strassen vs classical") or freivalds(entries)

        tag = "%s.n%d" % (ring.name, n)
        return [
            Op("mat_mul.classical." + tag,
               lambda: matrix.mat_mul(a, b, "classical").entries, freivalds,
               counted=lambda c: matrix.mat_mul(c.matrix(a), c.matrix(b), "classical").entries),
            Op("mat_mul.strassen%d.%s" % (cutoff, tag),
               lambda: matrix.mat_mul(a, b, "strassen", cutoff).entries, check_strassen,
               counted=lambda c: matrix.mat_mul(c.matrix(a), c.matrix(b),
                                                "strassen", cutoff).entries),
        ]

    def charpoly_ops(ring, k):
        p = ring.m
        tag = "%s.n" % ring.name
        nk, nb, nh, nw = 8 + 2 * k, 16 + 4 * k, 24 + 8 * k, 24 + 4 * k
        kal = random_matrix(ring, nk, rng, below(p))
        hess_k = Lazy(lambda: tuple(charpoly.charpoly_hessenberg(kal).coeffs))
        a = random_matrix(ring, nb, rng, below(p))
        hess_a = Lazy(lambda: tuple(charpoly.charpoly_hessenberg(a).coeffs))
        h = random_matrix(ring, nh, rng, below(p))
        berk_h = Lazy(lambda: tuple(charpoly.charpoly_berkowitz(h).coeffs))
        w = random_matrix(ring, nw, rng, below(p))
        hess_w = Lazy(lambda: tuple(charpoly.charpoly_hessenberg(w).coeffs))
        wseed = rng.below(1 << 32)

        def check_minpoly(gen):
            # the minimal polynomial divides the characteristic polynomial
            _, rem = poly.divmod_poly(ring, list(hess_w())[::-1], list(gen))
            if rem or gen[-1] != 1:
                return "wiedemann generator does not divide the charpoly"
            return None
        return [
            charpoly_op("kaltofen.%s%d" % (tag, nk), "kaltofen", kal,
                        lambda got: expect(got, hess_k(), "kaltofen vs hessenberg")),
            charpoly_op("berkowitz.%s%d" % (tag, nb), "berkowitz", a,
                        lambda got: expect(got, hess_a(), "berkowitz vs hessenberg")),
            charpoly_op("hessenberg.%s%d" % (tag, nh), "hessenberg", h,
                        lambda got: expect(got, berk_h(), "hessenberg vs berkowitz")),
            Op("wiedemann.%s%d" % (tag, nw),
               lambda: sequences.wiedemann_minpoly(w, wseed), check_minpoly,
               counted=lambda c: sequences.wiedemann_minpoly(c.matrix(w), wseed)),
        ]

    for k in range(4):
        for ring, strategy, length, times in ((r998, "auto", 64, 8), (r998, "auto", 256, 2),
                                              (r998, "auto", 1024, 1), (r61, "karatsuba", 64, 4),
                                              (r61, "karatsuba", 256, 1),
                                              (r10007, "schoolbook", 64, 8)):
            ops.append(poly_op(ring, strategy, length, times, k))
        for ring in (r10007, r998, r61):
            ops += mat_mul_ops(ring, 16 * (k + 1))
            ops += charpoly_ops(ring, k)
    ops += [series_op(k) for k in range(2)]
    return ops


def zp_sweep(repeats):
    """Uninstrumented kernel timings across the strategy cutoffs
    (AUTO_KARATSUBA_DEGREE = 16, DEFAULT_STRASSEN_CUTOFF = 64);
    median of `repeats` runs each, in milliseconds."""
    clock = time.perf_counter
    rng = Rng(0x5eed)
    out = {}

    def median_ms(fn):
        times = []
        for _ in range(repeats):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return 1000.0 * statistics.median(times)

    r998 = IntegersMod(998244353)
    for length in (64, 1024):
        a = [rng.below(r998.m) for _ in range(length)]
        b = [rng.below(r998.m) for _ in range(length)]
        for strategy in ("schoolbook", "karatsuba", "dft"):
            out["poly.mul_ms.%s.L%d" % (strategy, length)] = median_ms(
                lambda: poly.poly_mul(r998, a, b, strategy))
    r61 = IntegersMod(ZP_PRIMES[2])
    a = random_matrix(r61, 64, rng, lambda g: g.below(r61.m))
    b = random_matrix(r61, 64, rng, lambda g: g.below(r61.m))
    out["matrix.mul_ms.classical.n64"] = median_ms(lambda: matrix.mat_mul(a, b, "classical"))
    # one Winograd level at n = 64 (the default cutoff 64 would stay classical)
    out["matrix.mul_ms.strassen.n64"] = median_ms(lambda: matrix.mat_mul(a, b, "strassen", 32))
    return out


# ---------------------------------------------------------------------------
# z-growth

def _group(group, n, seed, k):
    """The k-th bench-family matrix of a workload seed."""
    return bench.generate_matrix(bench.BenchCase(group, n, seed * 64 + k))


# sizes of the z-growth matrices: every size once, so that op latencies
# spread evenly instead of bunching around a few sizes
Z_GROUP1_SIZES = tuple(range(16, 35, 2))        # 4 ops each
Z_HESSENBERG_Q_SIZES = tuple(range(9, 17))
Z_GROUP5_SIZES = tuple(range(16, 41))           # 2 ops each


def z_growth(seed):
    """98 ops over Z and Q."""
    ops = []
    for k, n in enumerate(Z_GROUP1_SIZES):
        a = _group(1, n, seed, k)
        berk = Lazy(lambda a=a: tuple(charpoly.charpoly_berkowitz(a).coeffs))
        crt = Lazy(lambda a=a: tuple(modular.charpoly_modular(a).coeffs))
        tag = "Z.n%d" % n
        ops.append(Op("det_fraction_free." + tag,
                      lambda a=a: elimination.det_fraction_free(a),
                      lambda got, ref=berk: expect(got, ref()[-1], "det_fraction_free vs charpoly"),
                      counted=lambda c, a=a: elimination.det_fraction_free(c.matrix(a))))
        ops.append(charpoly_op("berkowitz." + tag, "berkowitz", a,
                               lambda got, ref=crt: expect(got, ref(), "berkowitz vs charpoly_modular")))
        ops.append(Op("charpoly_modular." + tag,
                      lambda a=a: tuple(modular.charpoly_modular(a).coeffs),
                      lambda got, ref=berk: expect(got, ref(), "charpoly_modular vs berkowitz"),
                      counted=lambda c, a=a: _counted_modular(c, modular.charpoly_modular, a)))
        ops.append(Op("det_modular." + tag,
                      lambda a=a: modular.det_modular(a),
                      lambda got, ref=berk: expect(got, ref()[-1], "det_modular vs charpoly constant term"),
                      counted=lambda c, a=a: _counted_modular(c, modular.det_modular, a)))

    for k, n in enumerate(Z_HESSENBERG_Q_SIZES):
        z = _group(1, n, seed, 16 + k)
        berk = Lazy(lambda z=z: tuple(Fraction(x) for x in charpoly.charpoly_berkowitz(z).coeffs))
        ops.append(charpoly_op("hessenberg.Q.n%d" % n, "hessenberg", z.with_ring(QQ, Fraction),
                               lambda got, ref=berk: expect(got, ref(),
                                                            "hessenberg over Q vs berkowitz over Z")))

    for k, n in enumerate(Z_GROUP5_SIZES):
        sparse = _group(5, n, seed, 32 + k)
        dense_ref = Lazy(lambda m=sparse: tuple(charpoly.charpoly_berkowitz(m).coeffs))
        sparse_ref = Lazy(lambda m=sparse: tuple(
            charpoly.charpoly_berkowitz(m, sparse_aware=True).coeffs))
        tag = "group5.n%d" % n
        ops.append(charpoly_op("berkowitz." + tag, "berkowitz", sparse,
                               lambda got, ref=sparse_ref: expect(got, ref(),
                                                                  "dense vs sparse-aware berkowitz")))
        ops.append(charpoly_op("berkowitz_sparse." + tag, "berkowitz_sparse", sparse,
                               lambda got, ref=dense_ref: expect(got, ref(),
                                                                 "sparse-aware vs dense berkowitz")))
    return ops


def _counted_modular(c, fn, a):
    with c.modular_primes():
        out = fn(c.matrix(a))
    return tuple(out.coeffs) if hasattr(out, "coeffs") else out


def z_growth_slack(seed):
    """Bits of the CRT bound / bits of the largest reconstructed value,
    averaged over the workload's modular ops (a property of the inputs)."""
    ratios = []
    for k, n in enumerate(Z_GROUP1_SIZES):
        a = _group(1, n, seed, k)
        ratios.append(_charpoly_slack(a))
        ratios.append(_det_slack(a))
    return sum(ratios) / len(ratios)


def _charpoly_slack(a):
    bound = max(modular.charpoly_coeff_bound(a).per_coeff)
    top = max(abs(x) for x in charpoly.charpoly_berkowitz(a).coeffs)
    return bound.bit_length() / max(1, top.bit_length())


def _det_slack(a):
    det = charpoly.charpoly_berkowitz(a).constant_term()
    return modular.hadamard_bound(a).bit_length() / max(1, abs(det).bit_length())


# ---------------------------------------------------------------------------
# tower-crossval

# the algorithms cross_validate skips on each entry ring at the seed
# commit (not a field, or not a field or exact-division domain); every
# other algorithm must run, so one that starts declining a ring fails
QUOTIENT_SKIPS = frozenset({"hessenberg", "frobenius"})
POLYNOMIAL_SKIPS = frozenset({"hessenberg"})


def tower_crossval(seed):
    """97 ops: all 12 algorithms on eight matrices, plus pinv."""
    rng = Rng(seed * 1000003 + 3)
    zx = PolynomialRing(ZZ, "x")

    def quotient(n, spec, k):
        return bench.generate_matrix(bench.BenchCase(3, n, seed * 64 + k, "", spec))
    # (tag, matrix, algorithms skipped at the seed commit, Frobenius counted)
    mats = [
        ("zp7[x]/x3-1.n5", quotient(5, QUOTIENT_1, 0), QUOTIENT_SKIPS, True),
        ("zp7[x]/x3-1.n6", quotient(6, QUOTIENT_1, 1), QUOTIENT_SKIPS, True),
        ("zp11[x,y]/tower.n4", quotient(4, QUOTIENT_2, 2), QUOTIENT_SKIPS, True),
        ("zp11[x,y]/tower.n5", quotient(5, QUOTIENT_2, 3), QUOTIENT_SKIPS, True),
        ("Z[x].n5", random_matrix(zx, 5, rng, lambda g: zx.random_element(g)), POLYNOMIAL_SKIPS, True),
        ("Z[x].n6", random_matrix(zx, 6, rng, lambda g: zx.random_element(g)), POLYNOMIAL_SKIPS, True),
        ("Z[x,y].group2.n3", bench.generate_matrix(bench.BenchCase(2, 3, seed)), POLYNOMIAL_SKIPS, True),
        # Frobenius takes its fraction-field block path here; CountingRing
        # has no gcd, so that one op has no counted variant
        ("jou.group4.n5", bench.jou_matrix(5), POLYNOMIAL_SKIPS, False),
    ]
    ops = []
    for tag, a, skips, frobenius_counted in mats:
        want = Lazy(lambda a=a: (charpoly.charpoly_berkowitz(a).digest(),
                                 charpoly.charpoly_chistov(a).digest()))
        for algo_id in registry.ids():
            ops.append(_crossval_op(tag, a, algo_id, want, algo_id in skips,
                                    counted=frobenius_counted or algo_id != "frobenius"))
    ops.append(_pinv_op(rng))
    return ops


def _summary(report):
    return tuple((e.algo, e.status, e.digest) for e in report.entries)


def _crossval_op(tag, a, algo_id, want, skipped_at_seed, counted):
    def check(got):
        ((algo, status, digest),) = got
        if status != "ok":
            if skipped_at_seed:
                return None
            return "%s no longer runs on %s: %s" % (algo, tag, status)
        berk, chistov = want()
        ref = chistov if algo == "berkowitz" else berk
        return expect(digest, ref, "%s digest vs %s" % (
            algo, "chistov" if algo == "berkowitz" else "berkowitz"))

    return Op("cross_validate.%s.%s" % (algo_id, tag),
              lambda: _summary(bench.cross_validate(a, [algo_id])), check,
              counted=(lambda c: _summary(bench.cross_validate(c.matrix(a), [algo_id])))
              if counted else None)


def _pinv_op(rng):
    """Moore-Penrose inverse of a rank-2 4x5 matrix over Q in K(t)."""
    def small():
        return Fraction(rng.int_between(-5, 5))
    u = [[1, 0], [0, 1]] + [[small(), small()] for _ in range(2)]
    v = [[1, 0] + [small() for _ in range(3)], [0, 1] + [small() for _ in range(3)]]
    a = DenseMatrix(QQ, 4, 5, [sum(Fraction(u[i][k]) * v[k][j] for k in range(2))
                               for i in range(4) for j in range(5)])

    def run(m):
        res = pinv.pinv_rank_r(m, 2, mode="generalized")
        return res.rank, tuple(res.matrix.entries)

    def check(got):
        rank, entries = got
        kt = pinv.rational_function_field(QQ)
        akt, _ = pinv.embed_in_kt(a, kt)
        x = DenseMatrix(kt, 5, 4, list(entries))
        if rank != 2:
            return "pinv rank %d, expected 2" % rank
        if not matrix.mat_mul(matrix.mat_mul(akt, x), akt).eq(akt):
            return "pinv: A X A != A"
        if not matrix.mat_mul(matrix.mat_mul(x, akt), x).eq(x):
            return "pinv: X A X != X"
        return None

    return Op("pinv_rank_r.generalized.Q.4x5.r2", lambda: run(a), check,
              counted=lambda c: run(c.matrix(a)))


def tower_counts(results):
    ran = skipped = 0
    for name, got in results.items():
        if name.startswith("cross_validate.") and got is not None:
            for _, status, _ in got:
                if status == "ok":
                    ran += 1
                else:
                    skipped += 1
    return {"bench.algos_ran": ran, "bench.algos_skipped": skipped}


# ---------------------------------------------------------------------------
# cli-counted

CLI_N = 10
CLI_VARIANTS = 6            # 16 commands on each: 96 ops
BENCH_CONFIG = "groups=1\nsizes=6\nseeds=%d\nalgos=berkowitz,hessenberg,kaltofen,faddeev\n"


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """`exactla` as a subprocess (the timed op) or in this process.

    The subprocess is `python -m exactla.cli`, the module behind the
    `exactla` console script, so that nothing needs to be installed."""

    def __init__(self, root, workdir):
        self.env = cli_env(root)
        self.workdir = workdir

    def subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "exactla.cli"] + argv,
                              capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def cli_counted(seed, workdir, root):
    runner = CliRunner(root, workdir)
    ops = []
    for k in range(CLI_VARIANTS):
        ops += _cli_variant(runner, seed * 64 + k, workdir, "v%d" % k)
    return ops


def _cli_matrix(seed):
    return bench.generate_matrix(bench.BenchCase(1, CLI_N, seed))


def _cli_variant(runner, seed, workdir, tag):
    """The 16 commands on the inputs of one variant seed."""
    def path(name):
        return os.path.join(workdir, "%s.%s" % (tag, name))
    z = _cli_matrix(seed)
    q = z.with_ring(QQ, Fraction)
    with open(path("z.txt"), "w") as fh:
        fh.write(matrix.format_matrix(z))
    with open(path("q.txt"), "w") as fh:
        fh.write(matrix.format_matrix(q))
    with open(path("bench.cfg"), "w") as fh:
        fh.write(BENCH_CONFIG % seed)
    berk = Lazy(lambda: charpoly.charpoly_berkowitz(z))
    ops = []

    def cli_op(name, argv, check, counting=lambda c: contextlib.nullcontext(), outfile=None):
        def finish(result):
            code, out, _ = result
            if outfile is None:
                return code, out
            with open(path(outfile)) as fh:
                return code, out, _mask_ms(fh.read())

        def counted(c):
            with counting(c):
                return finish(runner.in_process(argv))
        return Op("cli.%s.%s" % (name, tag), lambda: finish(runner.subprocess(argv)), check,
                  local=lambda: finish(runner.in_process(argv)), counted=counted)

    def counted_parse(c):
        return patched(cli, "parse_matrix", lambda orig: lambda text: c.matrix(orig(text)))

    for algo_id in registry.ids():
        # Hessenberg needs a field: it reads the same matrix lifted to Q,
        # as cross_validate does (see the known-defect probe for Z)
        m, fname = (q, "q.txt") if algo_id == "hessenberg" else (z, "z.txt")
        want = Lazy(lambda m=m, algo_id=algo_id:
                    (0, registry.get(algo_id).run(m).format() + "\n"))
        ops.append(cli_op("charpoly.%s" % algo_id,
                          ["charpoly", "--algo", algo_id, "--in", path(fname)],
                          lambda got, want=want: expect(got, want(), "exactla charpoly stdout"),
                          counting=counted_parse))
    ops.append(cli_op("det", ["det", "--in", path("z.txt")],
                      lambda got: expect(got, (0, "%d\n" % berk().constant_term()),
                                         "exactla det vs charpoly constant term"),
                      counting=counted_parse))

    def modular_counting(c):
        stack = contextlib.ExitStack()
        stack.enter_context(counted_parse(c))
        stack.enter_context(c.modular_primes())
        return stack
    ops.append(cli_op("det_modular", ["det", "--modular", "--in", path("z.txt")],
                      lambda got: expect(got, (0, "%d\n" % modular.det_modular(z)),
                                         "exactla det --modular vs det_modular"),
                      counting=modular_counting))

    case = bench.BenchCase(3, 4, seed, "", QUOTIENT_1)
    want_validate = Lazy(lambda: bench.cross_validate(bench.generate_matrix(case)))

    def check_validate(got):
        code, out = got
        report = want_validate()
        digests = {}
        for line in out.splitlines()[:-1]:
            algo, rest = line.split(None, 1)
            digests[algo] = None if rest.startswith("skipped:") else rest
        want = {e.algo: (e.digest if e.status == "ok" else None) for e in report.entries}
        skipped = {algo for algo, digest in digests.items() if digest is None}
        tail = "unanimous: %d algorithms agree" % len(report.ran())
        return (expect(code, 0, "exactla validate exit code")
                or expect(skipped, set(QUOTIENT_SKIPS), "exactla validate skips (pinned at the seed commit)")
                or expect(digests, want, "exactla validate digests")
                or expect(out.splitlines()[-1], tail, "exactla validate summary"))

    def counted_group_ring(c):
        return patched(bench, "group_ring", lambda orig: lambda cs: c.wrap(orig(cs)))
    ops.append(cli_op("validate", ["validate", "--group", "3", "--n", "4", "--seed", str(seed),
                                   "--p", "7", "--vars", "x", "--ideal", "1*x^3+-1"],
                      check_validate, counting=counted_group_ring))

    cfg = bench.parse_config(BENCH_CONFIG % seed)
    want_csv = Lazy(lambda: bench.render_csv(bench.run_benchmark(cfg)[0]))

    def check_bench(got):
        code, _, csv_rows = got
        return (expect(code, 0, "exactla bench exit code")
                or expect(csv_rows, _mask_ms(want_csv()), "exactla bench CSV (ms column masked)"))

    def library_reported(c):
        def record(orig):
            def run_case(case):
                rec = orig(case)
                c.reported.append((rec.stats, rec.max_bits))
                return rec
            return run_case
        return patched(bench, "run_case", record)
    ops.append(cli_op("bench", ["bench", "--config", path("bench.cfg"),
                                "--out-csv", path("out.csv"), "--out-md", path("out.md")],
                      check_bench, counting=library_reported, outfile="out.csv"))
    return ops


def _mask_ms(csv_text):
    """CSV rows with the wall-time column blanked: the rest is exact."""
    cols = bench.CSV_COLUMNS.split(",")
    ms = cols.index("ms")
    out = []
    for line in csv_text.splitlines()[1:]:
        cells = line.split(",")
        cells[ms] = "-"
        out.append(",".join(cells))
    return tuple([csv_text.splitlines()[0]] + out)


def cli_known_defect(workdir, root):
    """ROADMAP item 4: `exactla charpoly --algo hessenberg` on a Z matrix
    exits 1 although `exactla validate` lifts Hessenberg to Q.  Probed
    once per run, outside the timed ops; returns (status, cause)."""
    runner = CliRunner(root, workdir)
    zfile = os.path.join(workdir, "v0.z.txt")
    code, out, err = runner.subprocess(["charpoly", "--algo", "hessenberg", "--in", zfile])
    if code == 1 and "Z is not a field" in err:
        return "present", "exit 1: " + err.strip()
    with open(zfile) as fh:
        z = matrix.parse_matrix(fh.read())
    want = charpoly.charpoly_berkowitz(z).format() + "\n"
    if code == 0 and out == want:
        return "fixed", "exit 0 with the Berkowitz result"
    return "wrong", "exit %d, stdout %.100r, stderr %.100r" % (code, out, err)


def cli_slack(seed):
    ratios = [_det_slack(_cli_matrix(seed * 64 + k)) for k in range(CLI_VARIANTS)]
    return sum(ratios) / len(ratios)


def cli_counts(results):
    ran = skipped = 0
    for name, got in results.items():
        if name.startswith("cli.validate.") and got is not None:
            for line in got[1].splitlines()[:-1]:
                if " skipped: " in line:
                    skipped += 1
                else:
                    ran += 1
    exits = sum(1 for got in results.values() if got is None or got[0] != 0)
    return {"bench.algos_ran": ran, "bench.algos_skipped": skipped, "cli.exit_nonzero": exits}
