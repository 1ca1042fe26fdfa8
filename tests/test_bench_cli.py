"""Benchmark generators, cross-validation, config runs, and the CLI."""

import os
import sys
from fractions import Fraction

import pytest

from exactla import bench
from exactla import charpoly as cp
from exactla import registry
from exactla.cli import main
from exactla.errors import ConfigError, InvalidGroupParams, NotApplicable
from exactla.matrix import DenseMatrix, format_matrix, parse_matrix
from exactla.multipoly import to_dict
from exactla.rings import QQ, ZZ


def test_generator_determinism_and_ranges():
    case = bench.BenchCase(1, 8, 123)
    a = bench.generate_matrix(case)
    b = bench.generate_matrix(case)
    assert a.entries == b.entries
    assert all(-99 <= x <= 99 for x in a.entries)
    c = bench.generate_matrix(bench.BenchCase(1, 8, 124))
    assert c.entries != a.entries


def test_generator_rejects_bad_group():
    with pytest.raises(InvalidGroupParams):
        bench.generate_matrix(bench.BenchCase(9, 4, 1))


def test_group2_entries_degree_bound():
    a = bench.generate_matrix(bench.BenchCase(2, 3, 7))
    for e in a.entries:
        assert all(sum(k) <= 5 for k in to_dict(e, 2))


def test_group4_rank_property():
    for n in (5, 10, 15):
        a = bench.jou_matrix(n)
        c = cp.charpoly_berkowitz(a)
        assert all(x == () for x in c.coeffs[-(n - 3):])     # X^(n-3) divides


def test_group5_density():
    case = bench.BenchCase(5, 10, 5)
    a = bench.generate_matrix(case)
    nz = sum(1 for x in a.entries if x != 0)
    assert nz == 20                    # 2n nonzeros by default


def test_cross_validate_identity_unanimous():
    rep = bench.cross_validate(DenseMatrix.identity(ZZ, 4))
    assert rep.unanimous
    assert len(rep.ran()) == len(rep.entries)       # Z identity: all apply (hessenberg lifted)


def test_cross_validate_singular_and_structured():
    # sparse singular matrices exercise the Frobenius block case, the
    # Hessenberg skip branch and the zero-pivot determinant paths
    for seed in (1, 2):
        rep = bench.cross_validate(bench.generate_matrix(bench.BenchCase(5, 12, seed)))
        assert rep.unanimous
    for rows in ([[0, 0], [0, 0]], [[0, 1], [0, 0]],
                 [[1, 2, 3], [0, 5, 6], [0, 8, 9]]):
        rep = bench.cross_validate(DenseMatrix.from_rows(ZZ, rows))
        assert rep.unanimous, rows


def test_cross_validate_group3_skips_faddeev_when_p_below_n():
    case = bench.BenchCase(3, 8, 2, params=(("p", "7"), ("vars", "x"),
                                            ("ideal", "1*x^3+-1")))
    a = bench.generate_matrix(case)
    rep = bench.cross_validate(a)
    assert rep.unanimous
    by_id = {e.algo: e for e in rep.entries}
    assert by_id["faddeev"].status.startswith("IntegerNotInvertible")
    assert by_id["berkowitz"].status == "ok"


ZP12_XY = "3 3 zp:12[x,y]\n1*x^1 1 0\n1 1*y^1 2\n3 0 1\n"


def test_composite_modulus_multivariate_skips_integer_division(tmp_path, capsys):
    # 2 is not a unit mod 12: the four algorithms that divide by 1..n are
    # skipped up front instead of failing mid-run
    rep = bench.cross_validate(parse_matrix(ZP12_XY))
    by_id = {e.algo: e for e in rep.entries}
    ran = ["berkowitz", "berkowitz_sparse", "chistov", "chistov_sparse",
           "bareiss_modified", "kaltofen"]
    assert sorted(e.algo for e in rep.ran()) == sorted(ran)
    assert rep.unanimous and len({by_id[a].digest for a in ran}) == 1
    for algo in ("faddeev", "leverrier", "preparata_sarwate", "interpolation"):
        assert by_id[algo].status.startswith("IntegerNotInvertible"), by_id[algo]
    path = tmp_path / "zp12xy.txt"
    path.write_text(ZP12_XY)
    capsys.readouterr()
    assert main(["charpoly", "--algo", "faddeev", "--in", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: IntegerNotInvertible: cannot divide by 1..3 in zp:12[x,y]\n")


def test_run_benchmark_empty_and_small(tmp_path):
    records, csv_text, md_text, unanimous = bench.run_benchmark({"groups": "", "sizes": "",
                                                                 "seeds": "", "algos": ""})
    assert records == []
    assert csv_text.strip() == bench.CSV_COLUMNS
    cfg = {"groups": "1", "sizes": "8,12", "seeds": "1,2,3",
           "algos": "berkowitz,faddeev"}
    records, csv_text, md_text, unanimous = bench.run_benchmark(cfg)
    assert unanimous
    assert len(records) == 12           # 2 sizes x 3 seeds x 2 algos
    lines = csv_text.strip().splitlines()
    assert lines[0] == bench.CSV_COLUMNS
    assert len(lines) == 13
    # determinism: rerun identical except the wall-time column
    records2, csv2, _, _ = bench.run_benchmark(cfg)
    strip_ms = lambda text: [",".join(l.split(",")[:5] + l.split(",")[6:])
                             for l in text.strip().splitlines()]
    assert strip_ms(csv_text) == strip_ms(csv2)
    assert "| n |" in md_text


def test_parse_config():
    cfg = bench.parse_config("groups=1,5\n# comment\nsizes = 8\n\nalgos=berkowitz\n")
    assert cfg["groups"] == "1,5" and cfg["sizes"] == "8"
    with pytest.raises(ConfigError):
        bench.parse_config("nonsense line\n")


def test_cli_charpoly_det_validate(tmp_path, capsys):
    path = tmp_path / "m.txt"
    m = DenseMatrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    path.write_text(format_matrix(m))
    assert main(["charpoly", "--algo", "berkowitz", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "-1*X^3+16*X^2+12*X^1-3"
    assert main(["det", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "-3"
    assert main(["det", "--in", str(path), "--modular"]) == 0
    assert capsys.readouterr().out.strip() == "-3"
    assert main(["validate", "--group", "1", "--n", "4", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "unanimous" in out
    # group 3 with its parameters
    assert main(["validate", "--group", "3", "--n", "8", "--seed", "1",
                 "--p", "7", "--vars", "x", "--ideal", "1*x^3+-1"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out and "unanimous" in out


def test_cli_bench(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("groups=1\nsizes=6\nseeds=1\nalgos=berkowitz,chistov\n")
    out_csv = tmp_path / "out.csv"
    out_md = tmp_path / "out.md"
    assert main(["bench", "--config", str(cfg), "--out-csv", str(out_csv),
                 "--out-md", str(out_md)]) == 0
    assert out_csv.read_text().startswith(bench.CSV_COLUMNS)
    assert "Group 1" in out_md.read_text()


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["charpoly", "--in", "/nonexistent/file"]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 Z\n1 2 3\n")
    assert main(["det", "--in", str(bad)]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    # every bad input ends in one stderr line, never a traceback
    for name, text in (("modulus.txt", "2 2 zp:1\n1 2 3 4\n"),
                       ("multivariate.txt", "1 1 zp:1[x,y]\n1\n"),
                       ("header.txt", "x 2 Z\n1 2\n"),
                       ("quotient.txt", "1 1 zp:4[x]/1*x^2+1\n1\n"),
                       # variable names: repeated, not writable in a term,
                       # or the charpoly's X
                       ("repeated.txt", "1 1 Z[x,x]\n1\n"),
                       ("repeated-quotient.txt", "1 1 zp:7[x,x]/1*x^2+1;1*x^2+1\n1\n"),
                       ("digit-name.txt", "1 1 Z[1]\n1\n"),
                       ("spaced-name.txt", "1 1 Z[x y]\n1\n"),
                       ("charpoly-var.txt", "2 2 Z[X]\n1*X^1 1\n0 1\n"),
                       ("charpoly-var-quotient.txt", "1 1 zp:7[X]/1*X^2+1\n1\n"),
                       # rows*cols matches the entries, but a side is not positive
                       ("negative.txt", "-1 -1 Z\n5\n"),
                       ("negative-rect.txt", "-2 -3 Z\n1 2 3\n4 5 6\n"),
                       ("zero-rows.txt", "0 3 Z\n")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["det", "--in", str(path)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        if name in ("negative.txt", "negative-rect.txt", "zero-rows.txt"):
            assert "dimensions must be positive, got %s x %s" % tuple(text.split()[:2]) in err, err
    # a well-formed matrix of the wrong shape or ring: one stderr line, no stdout
    rect, q = tmp_path / "rect.txt", tmp_path / "q.txt"
    rect.write_text("2 3 Z\n1 2 3\n4 5 6\n")
    q.write_text("2 2 Q\n1/2 1\n0 3\n")
    for argv, err in ((["charpoly", "--in", str(rect)], "charpoly needs a square matrix"),
                      (["det", "--in", str(rect)], "det needs a square matrix"),
                      (["det", "--modular", "--in", str(q)], "--modular needs an integer matrix")):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: %s\n" % err), argv
    for cfg_text in ("groups=1\nsizes=3\nalgos=nosuch\n",
                     "groups=3\nsizes=3\np=abc\n",
                     "groups=5\nsizes=4\nalgos=berkowitz\nnonzeros=abc\n",
                     "groups=5\nsizes=3\nnonzeros=-5\n"):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(cfg_text)
        assert main(["bench", "--config", str(cfg), "--out-csv", str(tmp_path / "o.csv"),
                     "--out-md", str(tmp_path / "o.md")]) == 1, cfg_text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (cfg_text, err)
        if "nonzeros=-5" in cfg_text:
            assert "got -5" in err, err
    # input that is not UTF-8, whatever the locale
    bad_bytes = tmp_path / "not-utf8.txt"
    for argv, data in ((["det", "--in", str(bad_bytes)], b"2 2 Z\n1 2\n3 \xff\n"),
                       (["bench", "--config", str(bad_bytes), "--out-csv", str(tmp_path / "o.csv"),
                         "--out-md", str(tmp_path / "o.md")], b"groups=1\nsizes=3\xff")):
        bad_bytes.write_bytes(data)
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_bench_leaves_out_cases_the_counted_ring_cannot_run(tmp_path, capsys):
    # Frobenius on singular sparse Z matrices takes the fraction-field
    # block path, which the counted Z (no gcd) cannot run: that row is left
    # out, as cross_validate leaves out an Unsupported run, and the rest is
    # written
    both = {"groups": "5", "sizes": "4", "seeds": "1", "algos": "berkowitz,frobenius"}
    records, csv_text, _, unanimous = bench.run_benchmark(both)
    assert unanimous and [r.case.algo for r in records] == ["berkowitz"]
    _, alone, _, _ = bench.run_benchmark(dict(both, algos="berkowitz"))
    strip_ms = lambda text: [line.split(",")[:5] + line.split(",")[6:]
                             for line in text.splitlines()]
    assert strip_ms(csv_text) == strip_ms(alone)
    for cfg_text in ("groups=5\nsizes=4\nseeds=1\nalgos=berkowitz,frobenius\n",
                     "groups=5\nsizes=6\nalgos=frobenius\n",
                     "groups=4\nsizes=5\nalgos=frobenius\n"):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(cfg_text)
        out_csv = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg), "--out-csv", str(out_csv),
                     "--out-md", str(tmp_path / "o.md")]) == 0, cfg_text
        assert out_csv.read_text().startswith(bench.CSV_COLUMNS)
        assert capsys.readouterr().err == ""


def test_cli_charpoly_hessenberg_lifts_z_to_q(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text(format_matrix(bench.generate_matrix(bench.BenchCase(1, 6, 3))))
    assert main(["charpoly", "--algo", "berkowitz", "--in", str(path)]) == 0
    want = capsys.readouterr().out
    assert main(["charpoly", "--algo", "hessenberg", "--in", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == want and captured.err == ""


def test_prepare_returns_the_matrix_to_run_on(tmp_path, capsys):
    z = bench.generate_matrix(bench.BenchCase(1, 5, 2))
    assert registry.get("berkowitz").prepare(z) is z
    hess = registry.get("hessenberg")
    q = hess.prepare(z)
    assert q.ring is QQ and q.entries == [Fraction(x) for x in z.entries]
    q5 = z.with_ring(QQ, Fraction)
    assert hess.prepare(q5) is q5
    jou = bench.generate_matrix(bench.BenchCase(4, 3, 1))
    with pytest.raises(NotApplicable) as exc:
        hess.prepare(jou)
    assert str(exc.value) == "Z[x] is not a field"
    path = tmp_path / "jou.txt"
    path.write_text(format_matrix(jou))
    assert main(["charpoly", "--algo", "hessenberg", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Z[x] is not a field\n"


def test_z_charpoly_and_its_q_image_have_one_digest():
    # why a lifted (Q) result needs no retraction to compare with Z results
    for seed in range(1, 4):
        z = cp.charpoly_berkowitz(bench.generate_matrix(bench.BenchCase(1, 6, seed)))
        q = cp.CharPoly(QQ, [Fraction(c) for c in z.coeffs])
        assert q.digest() == z.digest() and q.format() == z.format()
        half = cp.CharPoly(QQ, q.coeffs[:-1] + (q.coeffs[-1] + Fraction(1, 2),))
        assert half.digest() != z.digest()


def test_cli_prints_integers_past_the_str_digit_limit(tmp_path, capsys):
    # two 2600-digit diagonal entries: det and the constant coefficient have
    # 5200 digits, past Python's default int-to-str limit of 4300
    x, y = 10 ** 2599 + 7, 2 * 10 ** 2599 + 3
    path = tmp_path / "big.txt"
    path.write_text("2 2 Z\n%d 0\n0 %d\n" % (x, y))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want_det = "%d\n" % (x * y)
        want_cp = "1*X^2-%d*X^1+%d\n" % (x + y, x * y)
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["det", "--in", str(path)]) == 0
    assert capsys.readouterr().out == want_det
    assert main(["charpoly", "--in", str(path)]) == 0
    assert capsys.readouterr().out == want_cp
    # the Hadamard bound needs more rungs than the prime ladder holds
    assert main(["det", "--in", str(path), "--modular"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound of 17269 bits needs more than "
                            "the prime ladder's 16864 bits\n")


def test_cli_det_of_sparse_high_degree_polynomial_entries(tmp_path, capsys):
    # binomials of degree 4096: Z[x] products take the plain loop over the
    # two nonzero terms instead of recursing Karatsuba down to single terms
    path = tmp_path / "sparse.txt"
    path.write_text("2 2 Z[x]\n1*x^4096+1 1*x^4096+-1\n1*x^4095+1 1*x^4096+2\n")
    assert main(["det", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "1*x^8192-1*x^8191+2*x^4096+1*x^4095+3\n"


def test_cli_det_of_sparse_high_degree_rational_polynomial_entries(tmp_path, capsys):
    # the same binomials over Q[x]: one Z product of the operands with
    # their denominators cleared instead of one Fraction op per pair of
    # coefficients; the expected value is the Z[x] determinant's
    path = tmp_path / "sparse.txt"
    path.write_text("2 2 Q[x]\n1*x^4096+1 1*x^4096+-1\n1*x^4095+1 1*x^4096+2\n")
    assert main(["det", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "1*x^8192-1*x^8191+2*x^4096+1*x^4095+3\n"


def test_cli_charpoly_parenthesizes_sum_coefficients(tmp_path, capsys):
    # X^2 - (x+1)X + x over Z[x]: a coefficient that is a sum is put in
    # parentheses where it multiplies a power of X
    path = tmp_path / "zx.txt"
    path.write_text("2 2 Z[x]\n1*x^1 1\n0 1\n")
    for algo in ("berkowitz", "kaltofen"):
        assert main(["charpoly", "--algo", algo, "--in", str(path)]) == 0
        assert capsys.readouterr().out == "1*X^2+(-1*x^1-1)*X^1+1*x^1\n", algo
    assert main(["det", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "1*x^1\n"
