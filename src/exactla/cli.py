"""Command-line interface.

Subcommands: charpoly, det, validate, bench.  Exit codes: 0 success,
2 validation disagreement, 1 usage or input errors.
"""

import argparse
import sys

from . import registry
from .charpoly import determinant
from .errors import DimensionMismatch, ExactLAError, NotApplicable, ParseError
from .matrix import parse_matrix

# bench and modular are imported by the subcommands that use them, so
# that `charpoly` and `det` do not compile them in each fresh process


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError("%s is not UTF-8 text: %s" % (path, e))


def _read_matrix(path):
    return parse_matrix(_read_text(path))


def cmd_charpoly(args):
    m = _read_matrix(args.infile)
    if m.rows != m.cols:
        raise DimensionMismatch("charpoly needs a square matrix")
    algo = registry.get(args.algo)
    print(algo.charpoly(m).format())
    return 0


def cmd_det(args):
    m = _read_matrix(args.infile)
    if m.rows != m.cols:
        raise DimensionMismatch("det needs a square matrix")
    if args.modular and m.ring.name != "Z":
        raise NotApplicable("--modular needs an integer matrix")
    det = determinant
    if args.modular:
        from .modular import det_modular as det
    print(m.ring.format(det(m)))
    return 0


def cmd_validate(args):
    from . import bench
    params = ()
    if args.p or args.vars or args.ideal:
        params = tuple(sorted((k, v) for k, v in
                              (("p", args.p), ("vars", args.vars), ("ideal", args.ideal))
                              if v))
    case = bench.BenchCase(args.group, args.n, args.seed, "", params)
    a = bench.generate_matrix(case)
    report = bench.cross_validate(a)
    for e in report.entries:
        if e.status == "ok":
            print("%-20s %s" % (e.algo, e.digest))
        else:
            print("%-20s skipped: %s" % (e.algo, e.status))
    if not report.unanimous:
        print("DISAGREEMENT between %s and %s" % report.disagreement)
        return 2
    print("unanimous: %d algorithms agree" % len(report.ran()))
    return 0


def cmd_bench(args):
    from . import bench
    cfg = bench.parse_config(_read_text(args.config))
    records, csv_text, md_text, unanimous = bench.run_benchmark(cfg)
    with open(args.out_csv, "w") as fh:
        fh.write(csv_text)
    with open(args.out_md, "w") as fh:
        fh.write(md_text)
    print("wrote %d records to %s and %s" % (len(records), args.out_csv, args.out_md))
    if not unanimous:
        print("DISAGREEMENT: algorithm digests differ on at least one case")
        return 2
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="exactla",
                                 description="exact linear algebra over commutative rings")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a matrix file")
    p.add_argument("--algo", default="berkowitz", choices=sorted(registry.ids()))
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("det", help="determinant of a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--modular", action="store_true",
                   help="CRT pipeline over word-sized primes (integer matrices)")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("validate", help="cross-validate all applicable algorithms")
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="group-3 prime")
    p.add_argument("--vars", default=None, help="group-3 variables, comma-separated")
    p.add_argument("--ideal", default=None, help="group-3 ideal literals, ';'-separated")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("bench", help="run the benchmark protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-md", required=True)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ExactLAError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
