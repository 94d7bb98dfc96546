"""The columnar engine against the row-at-a-time reference in
``row_reference``: random catalogs and plans must give the same rows, in the
same order, with bit-identical values and ``f``, or the same error. Values
include ids at the int64 boundaries, ints past 2**53 and past int64, NaN,
-0.0 against 0.0, int keys joined to float keys, and strings."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gusbox import (
    BernoulliSpec,
    Comparison,
    Join,
    LineageBernoulliSpec,
    Sample,
    SampleRelation,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    analyze,
    execute,
)
from gusbox import engine, ingest
from gusbox.algebra import identity_gus
from gusbox.cli import main
from gusbox.datagen import generate_tpch_tiny
from gusbox.errors import ExpressionError, IngestError
from gusbox.exprs import Arith
from gusbox.ingest import ingest_csv
from gusbox.samplers import keyed_unit, keyed_units

import row_reference
from conftest import base_table, four_relation_plan, query1_plan
from test_dsl_ingest import query1_document

NAMES = ("a", "b", "c")
TYPES = ("int64", "float64", "string")
NARROW_INTS = [-1, 0, 1, 2, 3, 2**53, 2**53 + 1, 2**63 - 1, -2**63]
WIDE_INTS = NARROW_INTS + [2**63, -2**63 - 1, 2**64 + 3]
# row ids are int64; wider ints occur only as values
IDS = [0, 1, 2, 7, -1, 2**53 + 1, 2**63 - 1, -2**63]
# float("nan") builds a new object per draw: the row reference's dict join
# would match one NaN object with itself
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1.5, -2.5, 2.0**53, 2.0**53 + 2.0, 2.0**63,
                     math.inf, -math.inf]),
    st.builds(float, st.just("nan")))
STRINGS = st.sampled_from(["", "a", "b", "ab"])
NUMBERS = st.one_of(st.sampled_from(WIDE_INTS + [2**53 + 2]), FLOATS)
OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
EXPRS = ["{x}", "{x}*{y}", "{x}/{y}", "{x}//{y}", "-{x}+{y}", "{x}-{y}*1.5",
         "{x}*9223372036854775807", "({x}+9223372036854775807)*2", "1"]


def columns_of(names):
    return [(f"{name}_{suffix}", ctype) for name in names for suffix, ctype in zip("ixs", TYPES)]


@st.composite
def tables(draw, name):
    ids = draw(st.lists(st.sampled_from(IDS), unique=True, max_size=5))
    ints = st.sampled_from(WIDE_INTS if draw(st.booleans()) else NARROW_INTS)
    rows = tuple((draw(ints), draw(FLOATS), draw(STRINGS)) for _ in ids)
    return base_table(name, tuple(c for c, _ in columns_of([name])), TYPES,
                      ids=tuple(ids), rows=rows)


@st.composite
def atoms(draw, columns):
    col, ctype = draw(st.sampled_from(columns))
    family = [c for c, t in columns if (t == "string") == (ctype == "string") and c != col]
    if family and draw(st.booleans()):
        return Comparison(col, "=", col2=draw(st.sampled_from(family)))
    return Comparison(col, draw(OPS), draw(STRINGS if ctype == "string" else NUMBERS))


@st.composite
def relations(draw, names):
    """A sampled plan over ``names`` (each scanned once)."""
    if len(names) == 1:
        node = Scan(names[0])
    else:
        k = draw(st.integers(1, len(names) - 1))
        left, right = draw(relations(names[:k])), draw(relations(names[k:]))
        kind = draw(st.sampled_from(["join", "cross", "theta"]))
        if kind == "cross":
            node = Join(left, right)
        else:
            eq = ()
            if kind == "join":  # comparable sides, as for a col2 atom
                col, ctype = draw(st.sampled_from(columns_of(names[:k])))
                family = [c for c, t in columns_of(names[k:])
                          if (t == "string") == (ctype == "string")]
                eq = ((col, draw(st.sampled_from(family))),)
            theta = ()
            if kind == "theta" or draw(st.booleans()):
                theta = (draw(atoms(columns_of(names))),)
            node = Join(left, right, eq, theta)
    for _ in range(draw(st.integers(0, 2))):
        seed = draw(st.integers(0, 9))
        wrap = draw(st.sampled_from(["select", "bernoulli", "wor", "keyed", "union"]))
        if wrap == "select":
            node = Select(tuple(draw(st.lists(atoms(columns_of(names)),
                                              min_size=1, max_size=2))), node)
        elif wrap == "bernoulli":
            node = Sample(BernoulliSpec(draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])), seed), node)
        elif wrap == "wor":
            node = Sample(WorSpec(draw(st.integers(1, 4)), seed), node)
        elif wrap == "keyed":
            dims = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
            node = Sample(LineageBernoulliSpec.of(
                {name: (0.6, seed + k) for k, name in enumerate(dims)}), node)
        else:
            node = UnionDedup(Sample(BernoulliSpec(0.5, seed), node),
                              Sample(BernoulliSpec(0.5, seed + 1), node))
    return node


@st.composite
def plans(draw):
    names = tuple(sorted(draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))))
    node = draw(relations(names))
    if draw(st.booleans()):
        numeric = [c for c, t in columns_of(names) if t != "string"]
        x, y = draw(st.sampled_from(numeric)), draw(st.sampled_from(numeric))
        node = SumAggregate(draw(st.sampled_from(EXPRS)).format(x=x, y=y), node)
    return names, node


def _key(v):
    return (type(v).__name__, v.hex() if isinstance(v, float) else v)


def _outcome(run):
    try:
        relation, aggregate = run()
    except Exception as exc:  # both sides must fail alike
        return ("error", type(exc).__name__, str(exc))
    rows = [(tuple(map(_key, row.values)), row.lineage, _key(row.f)) for row in relation.rows]
    return ("ok", relation.schema, relation.columns, relation.column_types, rows,
            _key(aggregate))


def _columnar(plan, catalog, seed):
    result = execute(plan, catalog, master_seed=seed)
    relation = result.relation
    return relation, relation.total_f() if isinstance(plan, SumAggregate) else None


@given(st.data())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_columnar_engine_matches_row_reference(data):
    names, plan = data.draw(plans())
    catalog = {name: data.draw(tables(name)) for name in names}
    seed = data.draw(st.integers(0, 3))
    expected = _outcome(lambda: row_reference.execute(plan, catalog, seed))
    assert _outcome(lambda: _columnar(plan, catalog, seed)) == expected


def test_columnar_engine_matches_row_reference_on_desk_data(desk_catalog):
    for plan in (query1_plan(), four_relation_plan()):
        for seed in range(3):
            assert (_outcome(lambda: _columnar(plan, desk_catalog, seed))
                    == _outcome(lambda: row_reference.execute(plan, desk_catalog, seed)))


def test_fixed_edge_cases():
    """Hand-picked cases the random plans may miss."""
    l = base_table("l", ("l_i", "l_x"), ("int64", "float64"), ids=(2**53 + 1, -2**63, 5, 3, 9),
                   rows=((2**53 + 1, 2.0**53), (1, -0.0), (2**53, 0.0), (7, float("nan")),
                        (4, 4.0)))
    r = base_table("r", ("r_i", "r_x", "r_y"), ("int64", "float64", "float64"),
                   ids=(0, 2**63 - 1), rows=((1, 1.0, float("nan")), (2**53, 2.0**53, 0.0)))
    catalog = {"l": l, "r": r}
    int_to_float = Join(Scan("l"), Scan("r"), eq=(("l_i", "r_x"),))
    float_to_float = Join(Scan("l"), Scan("r"), eq=(("l_x", "r_y"),))
    divide_by_zero = SumAggregate("l_i/l_x", Scan("l"))
    cases = [
        int_to_float,
        float_to_float,
        Join(Scan("l"), Scan("r"), eq=(("l_x", "r_y"), ("l_i", "r_i"))),
        Select((Comparison("l_i", "<", 2.0**53 + 2.0),), Scan("l")),
        Select((Comparison("l_i", ">", 9007199254740992.0),), Scan("l")),
        Select((Comparison("l_x", "<", 2**53 + 1),), Scan("l")),
        Select((Comparison("l_i", "=", col2="l_x"),), Scan("l")),
        SumAggregate("l_i*l_i", Scan("l")),  # int64 overflow
        SumAggregate("l_i/3", Scan("l")),    # int division past 2**53
        divide_by_zero,
        Sample(WorSpec(3, 1), Scan("l")),  # the kept rows stay in input order
        SumAggregate("l_i//0", Scan("l")),
    ]
    for plan in cases:
        got = _outcome(lambda: _columnar(plan, catalog, 0))
        assert got == _outcome(lambda: row_reference.execute(plan, catalog, 0)), plan
    # 2**53 + 1 must not meet 2.0**53 through a float conversion
    assert [row.lineage for row in execute(int_to_float, catalog).relation.rows] == [
        (-2**63, 0), (5, 2**63 - 1)]
    # NaN never matches; -0.0 and 0.0 both meet 0.0
    assert [row.lineage for row in execute(float_to_float, catalog).relation.rows] == [
        (-2**63, 2**63 - 1), (5, 2**63 - 1)]
    # int = float columns compare exactly: 2**53 + 1 is not 2.0**53
    equal = Select((Comparison("l_i", "=", col2="l_x"),), Scan("l"))
    assert [row.lineage for row in execute(equal, catalog).relation.rows] == [(9,)]
    with pytest.raises(ExpressionError, match=r"^aggregate 'l_i/l_x': float division by zero$"):
        execute(divide_by_zero, catalog)


INT_COLUMN = [-2**63, -2**53 - 1, -1, 0, 1, 2**53, 2**53 + 1, 2**60, 2**60 + 1, 2**63 - 1]
FLOAT_COLUMN = [-math.inf, -1.7e308, -2.0**53, -1.5, -0.0, 0.0, 2.0**53, 2.0**53 + 2.0,
                1.7e308, math.inf, math.nan]
CONSTANT_CASES = [
    ("float64", 10**400), ("float64", -10**400),  # ints past the float range
    ("float64", 2**53 + 1), ("float64", -2**53 - 1),  # ints between two floats
    ("int64", math.inf), ("int64", -math.inf),
    ("int64", -2**63 - 1), ("int64", 2**63),  # ints outside int64
    ("int64", 1.5), ("int64", -1.5),  # no int equals them
    ("int64", 2.0**53), ("int64", 2.0**60),  # 2**53 + 1 and 2**60 + 1 round onto them
]


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
@pytest.mark.parametrize("ctype, constant", CONSTANT_CASES,
                         ids=[f"{t}-{c}" for t, c in CONSTANT_CASES])
def test_constant_comparisons_match_python(ctype, constant, op):
    """Comparisons that no float conversion gets right, checked against
    Python's own operator on the same values."""
    values = INT_COLUMN if ctype == "int64" else FLOAT_COLUMN
    test = engine.bind_predicate((Comparison("x", op, constant),), ["x"])
    expected = [engine._CMP_FUNCS[op](v, constant) for v in values]
    assert test([np.array(values, dtype=ctype)]).tolist() == expected


@pytest.mark.parametrize("pairs", [
    (("l_i", "r_i"), ("l_x", "r_j")),  # the first pair int64 = int64 keeps every row
    (("l_x", "r_j"), ("l_i", "r_i")),
    (("l_i", "r_x"), ("l_x", "r_j")),
], ids=["exact_then_float", "float_then_exact", "float_then_float"])
def test_two_pair_equi_joins_match_row_reference(pairs):
    l = base_table("l", ("l_i", "l_x"), ("int64", "float64"), ids=(1, 2, 3, 4, 5),
                   rows=((1, 1.0), (1, 1.5), (2, float("nan")), (2, 2.0), (3, -0.0)))
    r = base_table("r", ("r_i", "r_j", "r_x"), ("int64", "int64", "float64"), ids=(7, 8, 9),
                   rows=((1, 1, 1.0), (2, 2, 2.0), (3, 0, 3.0)))
    catalog = {"l": l, "r": r}
    plan = Join(Scan("l"), Scan("r"), eq=pairs)
    got = _outcome(lambda: _columnar(plan, catalog, 0))
    assert got == _outcome(lambda: row_reference.execute(plan, catalog, 0))
    assert got[4]  # some rows match


@pytest.mark.parametrize("expr", ["-x", "+x", "-(-x)", "-x+1"])
@pytest.mark.parametrize("values", [[-2**63 + 1, -5, 0, 7, 2**63 - 1], [-2**63, 3]],
                         ids=["inside", "with_int64_min"])
def test_unary_operators_over_int_columns(expr, values):
    arith = Arith(expr, ["x"], ["int64"])
    out = arith.over([np.array(values, dtype=np.int64)], len(values))
    assert [v.hex() for v in out.tolist()] == [float(arith((v,))).hex() for v in values]


FLOOR_X = [-7, -1, 0, 5, 9, -2**62, 2**62]
FLOOR_Y = [2, -3, 4, -5, 7, 3, -1]


@pytest.mark.parametrize("expr", ["x // y", "y // (x + 100)", "x // 3", "-7 // y", "x // -2.5"],
                         ids=["x_y", "y_x", "x_int", "int_y", "x_float"])
@pytest.mark.parametrize("ytype", ["int64", "float64"])
def test_floor_division_column_form_matches_row_form(expr, ytype):
    """No zero divisor and no ``-2**63 // -1``: the column form's ``//``
    runs, and its numbers are the row form's."""
    ys = FLOOR_Y if ytype == "int64" else [float(y) for y in FLOOR_Y]
    data = [np.array(FLOOR_X, dtype=np.int64), np.array(ys, dtype=ytype)]
    arith = Arith(expr, ["x", "y"], ["int64", ytype])
    out = arith.over(data, len(ys))
    assert [v.hex() for v in out.tolist()] == [arith(row).hex() for row in zip(FLOOR_X, ys)]
    if ytype == "int64" and "." not in expr:
        ids = Arith(expr, ["x", "y"], ["int64", ytype], integer=True)
        out = ids.over(data, len(ys))
        assert out.dtype == np.int64
        assert out.tolist() == [ids(row) for row in zip(FLOOR_X, ys)]


@pytest.mark.parametrize("integer", [False, True])
def test_int64_overflowing_floor_division_takes_the_row_form(integer):
    # numpy's int64 -2**63 // -1 wraps to -2**63; Python's is 2**63
    arith = Arith("x // y", ["x", "y"], ["int64", "int64"], integer=integer)
    out = arith.over([np.array([-2**63, 6]), np.array([-1, 4])], 2)
    assert out.tolist() == ([2**63, 1] if integer else [2.0**63, 1.0])


@pytest.mark.parametrize("integer", [False, True])
def test_int_literal_past_int64_matches_python(integer):
    ks = [-3, 0, 2**63 - 1]
    arith = Arith("k + 99999999999999999999", ["k"], ["int64"], integer=integer)
    out = arith.over([np.array(ks, dtype=np.int64)], len(ks))
    expected = [k + 99999999999999999999 for k in ks]
    assert out.tolist() == (expected if integer else [float(v) for v in expected])


_FIRST_FAULT = """
from gusbox.errors import ExpressionError
from gusbox.exprs import Arith
try:
    Arith("a // 1 + b", ["a", "b"], ["float64", "float64"], integer=True)
except ExpressionError as exc:
    print(exc)
"""


def test_id_expression_names_its_first_fault_under_every_hash_seed():
    # the int64 rule once walked a set of column names after the visit, so
    # 'a // 1 + b' named 'a' or 'b' depending on PYTHONHASHSEED
    for seed in range(6):
        done = subprocess.run([sys.executable, "-c", _FIRST_FAULT], capture_output=True,
                              text=True, env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert (done.stdout, done.stderr) == ("expression: column 'a' must be int64\n", ""), seed
    # the float literal comes before the float column in the source
    with pytest.raises(ExpressionError, match=r"^expression: float literal 1\.0 makes a float$"):
        Arith("1.0 + x", ["x"], ["float64"], integer=True)


def test_residual_joins_test_bounded_blocks(monkeypatch):
    """A theta join and a low-cardinality equi-join with selective ``theta``
    atoms match the row reference, and the ``theta`` test never sees more than
    one block of candidate pairs, however large the product of the inputs."""
    rng = np.random.default_rng(7)

    def table(name, m):
        return base_table(name, (f"{name}_k", f"{name}_v"), ("int64", "float64"),
                          ids=tuple(range(m)),
                          rows=tuple((int(k), float(v)) for k, v in zip(
                              rng.integers(0, 3, m), rng.integers(0, 400, m))))

    catalog = {"l": table("l", 400), "r": table("r", 500)}
    selective = (Comparison("l_v", "=", col2="r_v"), Comparison("l_k", "<", 2))
    widths = []
    bind = engine.bind_predicate

    def recording_bind(atoms, columns):
        test = bind(atoms, columns)

        def recording_test(data):
            widths.append(len(data[0]))
            return test(data)

        return recording_test

    monkeypatch.setattr(engine, "bind_predicate", recording_bind)
    for eq in ((), (("l_k", "r_k"),)):
        widths.clear()
        plan = SumAggregate("l_v+r_k", Join(Scan("l"), Scan("r"), eq, selective))
        got = _outcome(lambda: _columnar(plan, catalog, 0))
        assert got == _outcome(lambda: row_reference.execute(plan, catalog, 0))
        assert 0 < len(got[4]) < 2000
        assert sum(widths) > engine._PAIR_BLOCK
        assert max(widths) <= engine._PAIR_BLOCK


@st.composite
def sampling_free_plans(draw):
    names = tuple(sorted(draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))))

    def build(group):
        if len(group) == 1:
            node = Scan(group[0])
        else:
            k = draw(st.integers(1, len(group) - 1))
            left, right = build(group[:k]), build(group[k:])
            if draw(st.booleans()):
                node = Join(left, right)
            else:
                node = Join(left, right, eq=((f"{group[0]}_i", f"{group[k]}_i"),))
        if draw(st.booleans()):
            node = Select((draw(atoms(columns_of(group))),), node)
        return node

    return names, build(names)


@st.composite
def positive_tables(draw, name):
    ids = draw(st.lists(st.integers(-5, 5), unique=True, max_size=5))
    rows = tuple((draw(st.integers(0, 3)), draw(st.floats(0.0, 1e6)), draw(STRINGS))
                 for _ in ids)
    return base_table(name, tuple(c for c, _ in columns_of([name])), TYPES,
                      ids=tuple(ids), rows=rows)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_identity_sampling_estimate_is_the_sum(data):
    names, node = data.draw(sampling_free_plans())
    catalog = {name: data.draw(positive_tables(name)) for name in names}
    relation = execute(SumAggregate(f"{names[0]}_x", node), catalog).relation
    report = analyze(relation, identity_gus(relation.schema))
    exact = math.fsum(relation.f.tolist())
    assert report["a"] == 1.0
    assert report["varianceHat"] == 0.0
    assert abs(report["estimate"] - exact) <= 1e-12 * abs(exact)


def test_keyed_units_match_scalar_hash():
    keys = np.array([0, 1, -1, 2**63 - 1, -2**63, 2**53 + 1, 123456789], dtype=np.int64)
    for seed in (0, 1, 2**64 - 1, 98765):
        assert keyed_units(seed, keys).tolist() == [keyed_unit(seed, k) for k in keys.tolist()]


# each column draws mostly fields its type parses, plus fields that send the
# file down the row-by-row path or fail there
_TRICKY = ["", "x", "1_0", "٣", "9223372036854775808", "-9223372036854775809", "0x1",
           '"8"', '"a,b"', "1.5"]
_INT_FIELDS = st.sampled_from(["1", " 2", "+3", "-0", " 7 ", "12"] * 4 + _TRICKY)
_FLOAT_FIELDS = st.sampled_from(["4.5", "nan", "-inf", "1e400", ".5", "5.", "-0.0", "3"] * 4
                                + _TRICKY)
_STRING_FIELDS = st.sampled_from(["a", "b c", " d "] * 4 + _TRICKY)


@given(st.lists(st.tuples(_INT_FIELDS, _FLOAT_FIELDS, _STRING_FIELDS), max_size=6),
       st.sampled_from(["\n", "\r\n"]), st.booleans(),
       st.sampled_from(["rowIndex", "rowIndex", "k", "k*10+k"]))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_matches_row_reference(tmp_path, records, newline, blank, id_column):
    lines = ["k,v,s"] + [",".join(record) for record in records]
    if blank and len(lines) > 1:
        lines.insert(2, "")
    path = tmp_path / "t.csv"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    types = {"k": "int64", "v": "float64", "s": "string"}

    def columnar():
        table = ingest_csv(path, "t", types, id_column)
        return [row.values for row in table.rows], [row.lineage[0] for row in table.rows]

    def outcome(run):
        try:
            rows, ids = run()
        except Exception as exc:
            return ("error", type(exc).__name__, str(exc))
        return ("ok", [tuple(map(_key, row)) for row in rows], list(ids))

    assert outcome(columnar) == outcome(
        lambda: row_reference.ingest_rows(path, "t", types, id_column))


def test_ingest_takes_row_path_when_numpy_reads_ints_through_floats(tmp_path, monkeypatch):
    """numpy releases before the deprecation expired parse '1.5' or 2**63 in
    an int column through a float and only warn; such a file must still go
    row by row and fail, or land in an object column, as there."""
    loadtxt = np.loadtxt

    def lenient_loadtxt(fname, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        via_float = np.dtype([(name, np.float64 if dtype[name] == np.int64 else dtype[name])
                              for name in dtype.names])
        with np.errstate(invalid="ignore"):
            return loadtxt(fname, dtype=via_float, **kwargs).astype(dtype)

    monkeypatch.setattr(ingest.np, "loadtxt", lenient_loadtxt)
    path = tmp_path / "t.csv"
    path.write_text("k\n1\n1.5\n")
    with pytest.raises(IngestError, match="cannot parse '1.5' as int64 for 'k' at line 3"):
        ingest_csv(path, "t", {"k": "int64"})
    path.write_text("k\n1\n9223372036854775808\n")
    assert [row.values for row in ingest_csv(path, "t", {"k": "int64"}).rows] == [
        (1,), (2**63,)]


def test_cli_never_builds_rows(tmp_path, monkeypatch):
    """The estimate path reads arrays only: ``.rows`` is a view for callers."""
    generate_tpch_tiny({"l": 200, "o": 50, "c": 10, "p": 20}, 11, tmp_path)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(query1_document(p=0.4, n=20)))

    def refuse(self):
        raise AssertionError("rows materialised")

    monkeypatch.setattr(SampleRelation, "rows", property(refuse))
    out = tmp_path / "report.json"
    assert main(["estimate", str(plan), "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sampleRows"] > 0
