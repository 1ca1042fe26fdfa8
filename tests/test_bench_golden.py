"""Golden `exactla bench` CSV: every algorithm's op counts, max_bits and
digest on small cases of all five families, pinned byte for byte except
the wall-time column.

Regenerate (only when a count is meant to change) with
    PYTHONPATH=src python tests/test_bench_golden.py > tests/data/bench_golden.csv
"""

import csv
import io
import os
import sys

from exactla import bench, registry

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "bench_golden.csv")

ALL = ",".join(registry.ids())
NO_FROBENIUS = ",".join(a for a in registry.ids() if a != "frobenius")

# Frobenius is left out of group 5: its singular sparse matrices take the
# fraction-field block path, which the counted Z (no gcd) cannot run
CONFIGS = [
    {"groups": "1,3,4", "sizes": "3,4", "seeds": "1", "algos": ALL},
    {"groups": "5", "sizes": "3,4", "seeds": "1", "algos": NO_FROBENIUS},
    {"groups": "2", "sizes": "3", "seeds": "1", "algos": ALL},
    # a two-variable quotient tower, the book's Z17[y,x]/<L, H> and a larger
    # Z[x,y] case (these rows were written by the exponent-dict code)
    {"groups": "3", "sizes": "3,4", "seeds": "1", "algos": ALL,
     "p": "11", "vars": "x,y", "ideal": "1*x^2+-3;1*y^2+-1*x^1"},
    {"groups": "3", "sizes": "3", "seeds": "1", "algos": ALL,
     "p": "17", "vars": "y,x", "ideal": "1*y^3+-2*y^1+1;1*x^5+-5*x^1*y^1+1"},
    {"groups": "2", "sizes": "4", "seeds": "1", "algos": ALL},
]


def golden_csv():
    """The CSV of every config run, one header."""
    texts = [bench.run_benchmark(cfg)[1] for cfg in CONFIGS]
    return texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])


def _rows_without_ms(text):
    rows = list(csv.reader(io.StringIO(text)))
    ms = rows[0].index("ms")
    return [row[:ms] + row[ms + 1:] for row in rows]


def test_bench_csv_matches_golden():
    with open(GOLDEN) as fh:
        want = _rows_without_ms(fh.read())
    got = _rows_without_ms(golden_csv())
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert g == w


if __name__ == "__main__":
    sys.stdout.write(golden_csv())
