"""Fuzzing of the input boundary: ring specs, matrix files, bench configs
and the exactla command.  A parser returns a value or raises an
ExactLAError; the command exits 0, 1 or 2 with at most one `error:` line
on stderr and never a traceback.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactla import registry
from exactla.bench import parse_config
from exactla.cli import main
from exactla.errors import ExactLAError, ParseError
from exactla.matrix import parse_matrix
from exactla.rings import MAX_LITERAL_EXPONENT, ring_from_string

RING_SPECS = ("Z", "Q", "zp:7", "zp:12", "zp:1", "zp:0", "zp:x", "zp:", "W", "",
              "Z[x]", "Q[x]", "zp:7[x]", "zp:1[x]", "Z[x,y]", "Q[x,y]", "zp:4[x,y]",
              "zp:7[x]/1*x^3+-1", "zp:7[x,y]/1*x^2+1;1*y^2+1*x^1", "zp:4[x]/1*x^2+1",
              "zp:7[x]/1*y^2", "zp:7[x,y]/1*x^2+1", "zp:7[x]/3", "zp:7[x,y]/1*y^2;1*x^2")
LITERALS = ("0", "1", "-3", "12", "1/2", "-2/3", "2/0", "x", "1*x^2+-1", "3*x^1*y^2",
            "1*y^1+2", "(1*x^1+1)/(2)", "1*x^1/1*x^1", "1*z^1", "abc", "--1", "1e3", "+")
FREE_TEXT = st.text(alphabet=" \n\t=#,;:/*^+-()[]0123456789ZQzpxyabc", max_size=40)

ring_specs = st.one_of(st.sampled_from(RING_SPECS), FREE_TEXT)


@st.composite
def matrix_files(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(FREE_TEXT)
    rows, cols = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    count = draw(st.one_of(st.just(max(rows * cols, 0)), st.integers(0, 9)))
    tokens = draw(st.lists(st.sampled_from(LITERALS), min_size=count, max_size=count))
    return "%d %d %s\n%s\n" % (rows, cols, draw(ring_specs), " ".join(tokens))


CONFIG_VALUES = {
    "groups": ("1", "2", "3", "4", "5", "0", "9", "x", "1,5", ""),
    "sizes": ("1", "2", "3", "0", "-1", "a", "2,3", ""),
    "seeds": ("1", "2", "-5", "q"),
    "algos": tuple(registry.ids()) + ("nosuch", "", "berkowitz,hessenberg"),
    "p": ("7", "11", "4", "1", "0", "-7", "abc"),
    "vars": ("x", "x,y", "y", "x,x", ""),
    "ideal": ("1*x^3+-1", "1*x^2+1;1*y^2+1*x^1", "1*y^2", "x", ""),
    "nonzeros": ("abc", "0", "-1", "3", "99", "1.5", ""),
}


@st.composite
def bench_configs(draw):
    # sizes is always set: its default, 8, makes some runs take minutes
    lines = ["%s=%s" % (key, draw(st.sampled_from(values)))
             for key, values in CONFIG_VALUES.items()
             if key == "sizes" or draw(st.booleans())]
    if draw(st.booleans()):
        lines.append(draw(FREE_TEXT))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _run_cli(argv):
    """(exit code, stderr) of main(argv); an exception escapes as is."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2), code
    assert "Traceback" not in err, err
    assert sum(line.count("error:") for line in err.splitlines()) <= 1, err


@settings(max_examples=300, deadline=None)
@given(ring_specs)
def test_ring_from_string_raises_only_package_errors(spec):
    try:
        ring_from_string(spec)
    except ExactLAError:
        pass


@settings(max_examples=200, deadline=None)
@given(matrix_files())
def test_parse_matrix_raises_only_package_errors(text):
    try:
        parse_matrix(text)
    except ExactLAError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(FREE_TEXT, bench_configs()))
def test_parse_config_raises_only_package_errors(text):
    try:
        parse_config(text)
    except ExactLAError:
        pass


@settings(max_examples=300, deadline=None)
@given(matrix_files(), st.booleans())
def test_cli_det_exits_cleanly(text, modular):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w") as fh:
            fh.write(text)
        code, err = _run_cli(["det", "--in", path] + (["--modular"] if modular else []))
    _assert_clean_exit(code, err)


@settings(max_examples=400, deadline=None)
@given(bench_configs())
def test_cli_bench_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "bench.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        code, err = _run_cli(["bench", "--config", cfg,
                              "--out-csv", os.path.join(tmp, "o.csv"),
                              "--out-md", os.path.join(tmp, "o.md")])
    _assert_clean_exit(code, err)


@pytest.mark.parametrize("text", ["1 1 Z[x]\n1*x^10000000\n",
                                  "1 1 Z[x]\n%s\n" % ("7" * 5000),
                                  "1 1 Z[x,y]\n1*x^60000*y^1*x^6000\n",
                                  "1 1 zp:7[x]/1*x^999999999\n1\n"])
def test_polynomial_literals_past_the_limits_are_parse_errors(text, tmp_path):
    with pytest.raises(ParseError):
        parse_matrix(text)
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, err = _run_cli(["det", "--in", str(path)])
    assert code == 1 and err.count("error:") == 1 and len(err.splitlines()) == 1, err


def test_literal_exponent_limit_is_inclusive():
    zx = ring_from_string("Z[x]")
    assert len(zx.parse("1*x^%d" % MAX_LITERAL_EXPONENT)) == MAX_LITERAL_EXPONENT + 1
    with pytest.raises(ParseError):
        zx.parse("1*x^%d" % (MAX_LITERAL_EXPONENT + 1))
