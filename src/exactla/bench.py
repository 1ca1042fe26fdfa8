"""Benchmark harness: the five deterministic matrix families, cross-
validation across algorithms, and instrumented timing/op-count runs.

Operation counting instruments the innermost scalar ring (Z coefficients
for the integer and Z[x] families, Q where an algorithm lifts integer
input to Q); for the multivariate families
(groups 2 and 3) the counters record entry-ring operations instead.
Their entry rings are towers of univariate rings whose coefficient
arithmetic is ring-routed too, but the counters stay on the entry ring
so that the published op counts do not move.
"""

import time
from dataclasses import dataclass, field

from . import registry
from .errors import (ConfigError, InvalidGroupParams, NotApplicable, ParseError,
                     Unsupported)
from .matrix import DenseMatrix
from .rings import (ZZ, CountingRing, MultiPolynomialRing, OpStats, PolynomialRing,
                    ring_from_string)
from .rng import Rng


@dataclass(frozen=True)
class BenchCase:
    group: int
    n: int
    seed: int
    algo: str = ""
    params: tuple = ()        # sorted (key, value) pairs for ring parameters

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass
class BenchRecord:
    case: BenchCase
    ring_name: str
    ms: float
    stats: OpStats
    max_bits: int
    digest: str


def _case_rng(case):
    return Rng((case.seed << 16) ^ (case.group << 8) ^ case.n)


def group_ring(case):
    g = case.group
    if g in (1, 5):
        return ZZ
    if g == 2:
        return MultiPolynomialRing(None, ("x", "y"))
    if g == 3:
        try:
            return ring_from_string("zp:%s[%s]/%s" % (
                case.param("p", 7), case.param("vars", "x"), case.param("ideal", "1*x^3+-1")))
        except ParseError as e:
            raise InvalidGroupParams("group-3 ring parameters: %s" % e)
    if g == 4:
        return PolynomialRing(ZZ, "x")
    raise InvalidGroupParams("group must be 1..5, got %r" % (g,))


def generate_matrix(case):
    """Deterministic matrix for a case; same case, same bits anywhere."""
    ring = group_ring(case)
    n = case.n
    if n < 1:
        raise InvalidGroupParams("matrix order must be positive")
    rng = _case_rng(case)
    g = case.group
    if g == 1:
        return DenseMatrix(ring, n, n, [rng.int_between(-99, 99) for _ in range(n * n)])
    if g == 2:
        return DenseMatrix(ring, n, n,
                           [ring.random_element(rng, total_degree=5, bound=99)
                            for _ in range(n * n)])
    if g == 3:
        return DenseMatrix(ring, n, n, [ring.random_element(rng) for _ in range(n * n)])
    if g == 4:
        return jou_matrix(n)
    # group 5: group_ring has refused every other group
    try:
        nonzeros = int(case.param("nonzeros", 2 * n))
    except ValueError:
        raise InvalidGroupParams("group-5 nonzeros must be an integer, got %r"
                                 % (case.param("nonzeros"),))
    if nonzeros < 0:
        raise InvalidGroupParams("group-5 nonzeros must not be negative, got %d" % nonzeros)
    entries = [0] * (n * n)
    placed = 0
    while placed < min(nonzeros, n * n):
        pos = rng.below(n * n)
        if entries[pos] == 0:
            val = 0
            while val == 0:
                val = rng.int_between(-99, 99)
            entries[pos] = val
            placed += 1
    return DenseMatrix(ring, n, n, entries)


def jou_matrix(n):
    """[Jou]_ij = x + x^2 (x - ij)^2 + (x^2 + j)(x + i)^2 over Z[x]; rank <= 3."""
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries.append((i * i * j,
                            2 * i * j + 1,
                            i * i * j * j + i * i + j,
                            2 * i - 2 * i * j,
                            2))
    return DenseMatrix(PolynomialRing(ZZ, "x"), n, n, entries)


@dataclass
class ValidationEntry:
    algo: str
    status: str          # "ok" or a skip reason
    digest: str = ""
    charpoly: object = None


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)
    unanimous: bool = True
    disagreement: tuple = ()

    def ran(self):
        return [e for e in self.entries if e.status == "ok"]


def cross_validate(a, algos=None):
    """Run every applicable algorithm; disagreement is reported, not raised."""
    report = ValidationReport()
    reference = None
    for algo_id in (algos or registry.ids()):
        algo = registry.get(algo_id)
        try:
            cp = algo.charpoly(a)
        except NotApplicable as e:
            report.entries.append(ValidationEntry(algo_id, str(e)))
            continue
        except Unsupported as e:
            # declared applicable but outside this build's support
            # (e.g. the Frobenius block fallback over a multivariate ring)
            report.entries.append(ValidationEntry(algo_id, "unsupported: %s" % e))
            continue
        digest = cp.digest()
        report.entries.append(ValidationEntry(algo_id, "ok", digest, cp))
        if reference is None:
            reference = (algo_id, digest)
        elif digest != reference[1] and report.unanimous:
            report.unanimous = False
            report.disagreement = (reference[0], algo_id)
    return report


def run_case(case):
    """Instrumented single run; returns a BenchRecord.  One CountingRing
    counts the ring the algorithm runs over, or Z under the Jou family's
    Z[x]: the literal ring, never Algo.charpoly's Kronecker image, so that
    the published op counts stay those of the algorithm on its input."""
    algo = registry.get(case.algo)
    m = generate_matrix(case)
    a = algo.prepare(m)
    counted = CountingRing(ZZ if case.group == 4 else a.ring, track_bits=True)
    a = a.with_ring(PolynomialRing(counted, "x") if case.group == 4 else counted,
                    lambda x: x)
    t0 = time.perf_counter()
    cp = algo.run(a)
    ms = (time.perf_counter() - t0) * 1000.0
    return BenchRecord(case, m.ring.name, ms, counted.stats, counted.max_bits,
                       cp.digest())


CSV_COLUMNS = "group,n,seed,algo,ring,ms,adds,subs,muls,divs,exact_divs,max_bits,digest"


def parse_config(text):
    """key=value lines; lists are comma-separated; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value" % lineno)
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _intlist(cfg, key, default):
    raw = cfg.get(key, default)
    if not raw:
        return []
    try:
        return [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError("bad integer list for %r" % key)


def run_benchmark(cfg):
    """Config dict -> (records, csv_text, markdown_text, unanimous)."""
    groups = _intlist(cfg, "groups", "1")
    sizes = _intlist(cfg, "sizes", "8")
    seeds = _intlist(cfg, "seeds", "1")
    algos = [a.strip() for a in cfg.get("algos", "berkowitz").split(",") if a.strip()]
    params = tuple(sorted((k, cfg[k]) for k in ("p", "vars", "ideal", "nonzeros")
                          if k in cfg))
    records = []
    unanimous = True
    for g in groups:
        for n in sizes:
            for seed in seeds:
                digests = {}
                for algo in algos:
                    try:
                        rec = run_case(BenchCase(g, n, seed, algo, params))
                    except (NotApplicable, Unsupported):
                        # Unsupported: applicable, but not over the counted
                        # ring (e.g. the Frobenius block path needs a gcd);
                        # cross_validate reports it unsupported
                        continue
                    records.append(rec)
                    digests.setdefault(rec.digest, []).append(algo)
                if len(digests) > 1:
                    unanimous = False
    csv_text = render_csv(records)
    md_text = render_markdown(records)
    return records, csv_text, md_text, unanimous


def render_csv(records):
    lines = [CSV_COLUMNS]
    for r in records:
        s = r.stats
        ring = '"%s"' % r.ring_name if "," in r.ring_name else r.ring_name
        lines.append("%d,%d,%d,%s,%s,%.3f,%d,%d,%d,%d,%d,%d,%s" % (
            r.case.group, r.case.n, r.case.seed, r.case.algo, ring,
            r.ms, s.adds, s.subs, s.muls, s.divs, s.exact_divs,
            r.max_bits, r.digest))
    return "\n".join(lines) + "\n"


def render_markdown(records):
    """One table per group: rows = n, columns = algorithms (like the
    experimental comparison tables: time above, op total below)."""
    by_group = {}
    for r in records:
        by_group.setdefault(r.case.group, []).append(r)
    out = []
    for g in sorted(by_group):
        rows = by_group[g]
        algos = sorted({r.case.algo for r in rows})
        sizes = sorted({r.case.n for r in rows})
        out.append("## Group %d (%s)\n" % (g, rows[0].ring_name))
        out.append("| n | " + " | ".join(algos) + " |")
        out.append("|---" * (len(algos) + 1) + "|")
        for n in sizes:
            cells = []
            for algo in algos:
                sel = [r for r in rows if r.case.n == n and r.case.algo == algo]
                if not sel:
                    cells.append("n/a")
                else:
                    ms = sum(r.ms for r in sel) / len(sel)
                    ops = sum(r.stats.total for r in sel) // len(sel)
                    cells.append("%.1f ms / %d ops" % (ms, ops))
            out.append("| %d | " % n + " | ".join(cells) + " |")
        out.append("")
    return "\n".join(out) + "\n"
