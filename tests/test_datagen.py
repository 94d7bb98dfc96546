"""The CSV writer of `gusbox generate` against Python's own ``%`` formatting.

``per_row_generate`` is the generator as it was before its lines were
formatted with numpy: the same draws, written one ``%`` template line per
row. ``generate_tpch_tiny`` must write the same bytes. The kernel tests
compare ``'%d' % v`` and ``'%.Nf' % x`` with the numpy slots on values the
generator never draws: halves, values one ulp from a rounding boundary,
negative zero, int64's ends and a hypothesis draw over the generator's ranges.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gusbox import datagen
from gusbox.datagen import DEFAULT_SCALE, TABLE_FILES, generate_tpch_tiny

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def per_row_generate(scale, seed, out_dir) -> dict[str, Path]:
    """The generator with one ``%`` template line per row."""
    counts = dict(DEFAULT_SCALE)
    counts.update(scale)
    n_l, n_o, n_c, n_p = counts["l"], counts["o"], counts["c"], counts["p"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    paths = {}

    def write(table, header, template, *columns):
        path = out / TABLE_FILES[table]
        with path.open("w", newline="", encoding="utf-8") as handle:
            handle.write(header + "\r\n")
            for row in zip(*(column.tolist() for column in columns)):
                handle.write(template % row + "\r\n")
        paths[table] = path

    acctbal = rng.uniform(-999.0, 9999.0, n_c)
    write("customer", "c_custkey,c_acctbal", "%d,%.2f", np.arange(1, n_c + 1), acctbal)
    retail = rng.uniform(1.0, 2000.0, n_p)
    sizes = rng.integers(1, 51, n_p)
    write("part", "p_partkey,p_retailprice,p_size", "%d,%.2f,%d",
          np.arange(1, n_p + 1), retail, sizes)
    custkeys = rng.integers(1, n_c + 1, n_o)
    totalprice = rng.uniform(1.0, 500000.0, n_o)
    write("orders", "o_orderkey,o_custkey,o_totalprice", "%d,%d,%.2f",
          np.arange(1, n_o + 1), custkeys, totalprice)
    order = rng.permutation(n_l)
    partkeys = rng.integers(1, n_p + 1, n_l)
    prices = rng.uniform(1.0, 100000.0, n_l)
    discounts = rng.uniform(0.0, 0.1, n_l)
    taxes = rng.uniform(0.0, 0.08, n_l)
    write("lineitem",
          "l_orderkey,l_linenumber,l_partkey,l_extendedprice,l_discount,l_tax",
          "%d,%d,%d,%.2f,%.4f,%.4f", order % n_o + 1, order // n_o + 1,
          partkeys[order], prices[order], discounts[order], taxes[order])
    return paths


@pytest.mark.parametrize("scale, seed", [
    (DEFAULT_SCALE, 0), (DEFAULT_SCALE, 7), ({"l": 9, "o": 1, "c": 1, "p": 1}, 2),
    # more than one block of rows per table
    ({"l": 2 * datagen._CHUNK + 5, "o": datagen._CHUNK + 1, "c": 3, "p": 7}, 4),
])
def test_same_bytes_as_the_per_row_writer(tmp_path, scale, seed):
    new = generate_tpch_tiny(scale, seed, tmp_path / "new")
    old = per_row_generate(scale, seed, tmp_path / "old")
    assert list(new) == ["customer", "part", "orders", "lineitem"]
    for table, path in new.items():
        assert path.read_bytes() == old[table].read_bytes(), table


def _written(values, places=None) -> bytes:
    column = np.array(values, dtype=np.int64 if places is None else np.float64)
    slots = datagen._integers(column) if places is None else datagen._fixed(column, places)
    return datagen._lines([slots])


def _python(values, places=None) -> bytes:
    template = "%d\r\n" if places is None else f"%.{places}f\r\n"
    return "".join(template % v for v in values).encode("ascii")


def _near_halves(places: int) -> list[float]:
    """(k + 0.5) / 10**places and its two neighbouring floats, for small and
    large k."""
    ks = [*range(0, 120), 999, 12345, 99999999, 10**11 + 7]
    values = []
    for k in ks:
        half = (k + 0.5) / 10**places
        values += [np.nextafter(half, -np.inf), half, np.nextafter(half, np.inf)]
    return [float(v) for v in values]


ADVERSARIAL = [0.125, 0.375, 2.675, 1.005, 0.005, 9.995, 99999.995, -0.0, 0.0,
               -0.001, -0.004999, 0.5, 1.5, 2.5, 1e-9, -1e-9, 1e-300, 5e-324,
               -999.0, 9999.0, 123456789.125]


@pytest.mark.parametrize("places", [1, 2, 4, 6])
def test_fixed_matches_python_on_adversarial_values(monkeypatch, places):
    settled_by_python = []
    exact_units = datagen._exact_units

    def recording(x, n):
        settled_by_python.extend(x.tolist())
        return exact_units(x, n)

    monkeypatch.setattr(datagen, "_exact_units", recording)
    # past 2**52 units every value takes Python's rounding; 2**62 is near the top
    values = ADVERSARIAL + _near_halves(places) + [
        (2.0**52 + 1) / 10**places, 2.0**62 / 10**places]
    values += [-v for v in values]
    assert _written(values, places) == _python(values, places)
    assert settled_by_python  # the exact halves, at least, take Python's rounding


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0**63 / 100, -1e300])
def test_fixed_refuses_values_it_cannot_write(value):
    with pytest.raises(ValueError, match="cannot write"):
        datagen._fixed(np.array([1.0, value]), 2)


def test_integers_match_python_at_every_width():
    values = [0, 1, -1, 9, 10, -10, 99, 100, 9999, 10000, 99999999, 100000000,
              2**32 - 1, 2**32, -2**32, INT64_MAX, INT64_MIN, INT64_MIN + 1]
    values += [10**k - 1 for k in range(1, 19)] + [10**k for k in range(1, 19)]
    assert _written(values) == _python(values)
    assert _written([5]) == b"5\r\n"


def test_lines_join_fields_with_commas():
    slots = [datagen._integers(np.array([1, -20])), datagen._fixed(np.array([0.5, 12.25]), 2),
             datagen._integers(np.array([300, 4]))]
    assert datagen._lines(slots) == b"1,0.50,300\r\n-20,12.25,4\r\n"


# the generator's float ranges and places
RANGES = [(-999.0, 9999.0, 2), (1.0, 2000.0, 2), (1.0, 500000.0, 2),
          (1.0, 100000.0, 2), (0.0, 0.1, 4), (0.0, 0.08, 4)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(RANGES).flatmap(lambda r: st.tuples(
    st.lists(st.floats(r[0], r[1]), min_size=1, max_size=50), st.just(r[2]))))
def test_fixed_matches_python_over_the_generator_ranges(case):
    values, places = case
    assert _written(values, places) == _python(values, places)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=50))
def test_integers_match_python_over_int64(values):
    assert _written(values) == _python(values)
