"""Relational operators: lineage propagation, determinism, and reference
implementations for the data-dependent cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gusbox import (
    BernoulliSpec,
    Comparison,
    ExpressionError,
    Join,
    PlanError,
    Sample,
    SampleRelation,
    Scan,
    SchemaError,
    Select,
    SelfJoinError,
    SumAggregate,
    UnionDedup,
    execute,
)
from gusbox import engine
from gusbox.engine import (
    TableReader,
    join,
    scan,
    select,
    union_dedup,
)
from gusbox.model import INT64_MAX, INT64_MIN
from gusbox.plan import validate_plan

from conftest import base_table, query1_plan, small_join_catalog, sum_aggregate


def tiny_table(name="t", ids=(0, 1, 2), vals=(1.0, 2.0, 3.0)):
    assert len(ids) == len(vals)
    return base_table(
        name, (f"{name}_k", f"{name}_v"), ("int64", "float64"),
        ids=tuple(ids), rows=tuple((i + 1, v) for i, v in enumerate(vals)),
    )


def with_rows(rel, rows):
    """A relation with ``rel``'s schema and columns holding ``rows``."""
    return SampleRelation.from_rows(rel.schema, rel.columns, rel.column_types, rows)


class TestScan:
    def test_one_row_per_base_row(self):
        rel = scan(tiny_table())
        assert [r.lineage for r in rel.rows] == [(0,), (1,), (2,)]
        assert all(r.f == 0.0 for r in rel.rows)

    def test_returns_the_stored_table(self):
        table = tiny_table()
        assert scan(table) is table

    def test_empty_table(self):
        rel = scan(base_table("t", ("t_k",), ("int64",), (), ()))
        assert len(rel) == 0

    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(SchemaError, match="duplicate lineage"):
            base_table("t", ("t_k",), ("int64",), ids=(1, 1), rows=((1,), (2,)))

    def test_typed_rows_enforced(self):
        with pytest.raises(SchemaError):
            base_table("t", ("t_v",), ("float64",), ids=(0,), rows=((1,),))


class TestSelect:
    def test_always_true_returns_input(self):
        rel = scan(tiny_table())
        assert select((), rel) is rel

    def test_always_false(self):
        rel = scan(tiny_table())
        out = select((Comparison("t_v", "<", 0.0),), rel)
        assert len(out) == 0

    def test_matches_naive_filter_on_generated_data(self, desk_catalog):
        rel = scan(desk_catalog["l"])
        pred = (Comparison("l_extendedprice", ">", 50000.0),)
        out = select(pred, rel)
        idx = rel.column_index("l_extendedprice")
        expected = [r for r in rel.rows if r.values[idx] > 50000.0]
        assert list(out.rows) == expected
        assert 0 < len(out) < len(rel)

    def test_selects_fuse(self, desk_catalog):
        rel = scan(desk_catalog["l"])
        a = (Comparison("l_extendedprice", ">", 20000.0),)
        b = (Comparison("l_discount", "<=", 0.05),)
        assert select(a, select(b, rel)).rows == select(a + b, rel).rows

    def test_lineage_unchanged(self, desk_catalog):
        rel = scan(desk_catalog["o"])
        out = select((Comparison("o_orderkey", "<=", 10),), rel)
        assert all(row in rel.rows for row in out.rows)

    def test_type_mismatch_rejected(self):
        catalog = {"t": tiny_table()}

        def where(*atoms):
            return SumAggregate("t_v", Select(atoms, Scan("t")))

        cases = [
            (Comparison("t_v", ">", "abc"),
             r"^plan\.child\.where\[1\]\.value: cannot compare numeric column with 'abc'$"),
            (Comparison("t_k", "=", True),
             r"^plan\.child\.where\[1\]\.value: cannot compare numeric column with True$"),
            (Comparison("nope", ">", 1.0),
             r"^plan\.child\.where\[1\]\.col: unknown column 'nope'$"),
        ]
        for atom, message in cases:
            with pytest.raises(PlanError, match=message):
                execute(where(Comparison("t_k", ">", 0), atom), catalog)


class TestJoin:
    def test_single_match_concatenates_lineage(self):
        l = base_table("l", ("l_k",), ("int64",), ids=(7,), rows=((1,),))
        r = base_table("r", ("r_k",), ("int64",), ids=(9,), rows=((1,),))
        out = join(Join(Scan("l"), Scan("r"), eq=(("l_k", "r_k"),)), scan(l), scan(r))
        assert len(out) == 1
        assert out.rows[0].lineage == (7, 9)
        assert out.rows[0].values == (1, 1)

    def test_string_to_number_pair_rejected(self):
        # ran and kept no row; an eq pair follows a col2 atom's rule
        l = base_table("l", ("l_k",), ("int64",), ids=(7,), rows=((1,),))
        r = base_table("r", ("r_s",), ("string",), ids=(9,), rows=(("1",),))
        with pytest.raises(PlanError, match=r"^plan\.eq\[0\]\.right: cannot compare l_k "
                                            r"\(int64\) with r_s \(string\)$"):
            execute(Join(Scan("l"), Scan("r"), eq=(("l_k", "r_s"),)), {"l": l, "r": r})

    def test_cross_product_size(self):
        l = tiny_table("l")
        r = tiny_table("r", ids=(5, 6), vals=(1.0, 2.0))
        out = join(Join(Scan("l"), Scan("r")), scan(l), scan(r))
        assert len(out) == len(l) * len(r)

    def test_matches_nested_loop_reference(self, desk_catalog):
        l = scan(desk_catalog["l"])
        o = scan(desk_catalog["o"])
        out = join(Join(Scan("l"), Scan("o"), eq=(("l_orderkey", "o_orderkey"),)), l, o)
        li = l.column_index("l_orderkey")
        oi = o.column_index("o_orderkey")
        reference = sum(
            1 for lr in l.rows for orow in o.rows if lr.values[li] == orow.values[oi]
        )
        assert len(out) == reference == len(l)

    def test_output_lineage_restricts_to_inputs(self, desk_catalog):
        l = scan(desk_catalog["l"])
        o = scan(desk_catalog["o"])
        out = join(Join(Scan("l"), Scan("o"), eq=(("l_orderkey", "o_orderkey"),)), l, o)
        l_pos = out.schema.index("l")
        o_pos = out.schema.index("o")
        l_ids = {r.lineage[0] for r in l.rows}
        o_ids = {r.lineage[0] for r in o.rows}
        for row in out.rows:
            assert row.lineage[l_pos] in l_ids
            assert row.lineage[o_pos] in o_ids

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.floats(-2, 2, allow_nan=False)),
                 min_size=0, max_size=8),
        st.lists(st.tuples(st.integers(0, 3), st.floats(-2, 2, allow_nan=False)),
                 min_size=0, max_size=8),
    )
    @settings(max_examples=150)
    def test_randomized_join_matches_nested_loop(self, left_rows, right_rows):
        l = base_table("l", ("l_k", "l_v"), ("int64", "float64"),
                       ids=tuple(range(len(left_rows))), rows=tuple(left_rows))
        r = base_table("r", ("r_k", "r_v"), ("int64", "float64"),
                       ids=tuple(range(len(right_rows))), rows=tuple(right_rows))
        out = join(Join(Scan("l"), Scan("r"), eq=(("l_k", "r_k"),)), scan(l), scan(r))
        expected = sorted(
            (lrow.values + rrow.values, lrow.lineage + rrow.lineage)
            for lrow in l.rows
            for rrow in r.rows
            if lrow.values[0] == rrow.values[0]
        )
        got = sorted((row.values, row.lineage) for row in out.rows)
        assert got == expected

    def test_theta_residual(self):
        l = tiny_table("l")
        r = tiny_table("r")
        node = Join(Scan("l"), Scan("r"), theta=(Comparison("l_v", "=", col2="r_v"),))
        out = join(node, scan(l), scan(r))
        assert len(out) == 3

    def test_self_join_rejected(self):
        t = tiny_table()
        with pytest.raises(SelfJoinError):
            join(Join(Scan("t"), Scan("t")), scan(t), scan(t))

    def test_column_collision_rejected(self):
        catalog = {"l": tiny_table("l"),
                   "x": base_table("x", ("l_k",), ("int64",), ids=(0,), rows=((1,),))}
        plan = SumAggregate("l_v", Join(Scan("l"), Scan("x")))
        with pytest.raises(PlanError, match=r"^plan\.child: join sides share column names "
                                            r"\['l_k'\]$"):
            execute(plan, catalog)


class TestUnionDedup:
    def test_disjoint_concatenates(self):
        t = tiny_table()
        rel = scan(t)
        left = with_rows(rel, rel.rows[:1])
        right = with_rows(rel, rel.rows[1:])
        assert len(union_dedup(left, right)) == 3

    def test_idempotent(self):
        rel = scan(tiny_table())
        assert union_dedup(rel, rel).rows == tuple(sorted(rel.rows, key=lambda r: r.lineage))

    def test_overlap_counted_once(self):
        rel = scan(tiny_table())
        left = with_rows(rel, rel.rows[:2])
        right = with_rows(rel, rel.rows[1:])
        assert len(union_dedup(left, right)) == 3

    def test_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            union_dedup(scan(tiny_table("a")), scan(tiny_table("b")))

    def test_sides_with_columns_in_another_order_rejected(self):
        # both sides cover r and t, so only the column check tells them apart;
        # validate_plan rejects the same plan before it runs
        catalog = {"r": tiny_table("r"), "t": tiny_table("t")}
        plan = UnionDedup(Join(Scan("r"), Scan("t")), Join(Scan("t"), Scan("r")))
        with pytest.raises(SchemaError, match=r"^union sides must have identical columns$"):
            execute(plan, catalog)
        with pytest.raises(PlanError, match=r"^plan: union sides must compute the same "
                                            r"relation"):
            validate_plan(plan)


class TestSumAggregate:
    def test_count_via_constant_one(self):
        rel = scan(tiny_table())
        assert sum_aggregate("1", rel) == 3.0

    def test_empty_relation(self):
        rel = with_rows(scan(tiny_table()), ())
        assert sum_aggregate("t_v", rel) == 0.0

    def test_arithmetic(self):
        t = base_table(
            "t", ("t_d", "t_x"), ("float64", "float64"),
            ids=(0, 1), rows=((0.1, 0.0), (0.2, 0.5)),
        )
        assert sum_aggregate("t_d*(1.0-t_x)", scan(t)) == pytest.approx(0.2, rel=1e-12)

    def test_non_numeric_column_rejected(self):
        t = base_table("t", ("t_s",), ("string",), ids=(0,), rows=(("x",),))
        with pytest.raises(ExpressionError):
            sum_aggregate("t_s", scan(t))


class TestExecutor:
    def test_deterministic_given_seed(self):
        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val*o_w",
            Join(Sample(BernoulliSpec(0.5, seed=3), Scan("l")), Scan("o"),
                 eq=(("l_ok", "o_ok"),)),
        )
        r1 = execute(plan, catalog, master_seed=11)
        r2 = execute(plan, catalog, master_seed=11)
        assert r1.relation.rows == r2.relation.rows
        assert r1.relation.total_f() == r2.relation.total_f()

    def test_aggregate_binds_f(self):
        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val*o_w",
            Join(Scan("l"), Scan("o"), eq=(("l_ok", "o_ok"),)),
        )
        res = execute(plan, catalog)
        assert res.relation.total_f() == pytest.approx(33.5, rel=1e-12)
        assert all(r.f != 0.0 for r in res.relation.rows)

    def test_query1_runs_on_desk_data(self, desk_catalog):
        res = execute(query1_plan(), desk_catalog, master_seed=1)
        assert res.relation.total_f() > 0
        assert 0 < len(res.relation) < 300

    def test_unknown_table_rejected(self):
        with pytest.raises(PlanError, match="unknown table"):
            execute(Scan("nope"), {})

    def test_plan_errors_name_the_node(self):
        catalog = small_join_catalog()
        plan = SumAggregate("l_val", Join(Scan("l"), Select((), Scan("x"))))
        with pytest.raises(PlanError, match=r"^plan\.child\.right\.child: unknown table 'x'"):
            execute(plan, catalog)
        with pytest.raises(PlanError, match=r"^plan: unknown table"):
            execute(Scan("x"), catalog)



_KEY_POOLS = {
    "int64": [INT64_MIN, -1, 0, 1, 3, 2**53 + 1, INT64_MAX],
    "float64": [-0.0, 0.0, float("nan"), 1.0, 2.5, 3.0, 2.0**53, 1e300, -1.0],
    "string": ["a", "b", "ab", "1"],
}
_PAIR_KINDS = [("int64", "int64"), ("int64", "float64"), ("float64", "int64"),
               ("float64", "float64"), ("string", "string")]


@st.composite
def partner_cases(draw):
    """A join's ``eq`` column pairs as (other input's type, block's type),
    which side the other input is on, its key rows, and two blocks' key rows."""
    kinds = draw(st.lists(st.sampled_from(_PAIR_KINDS), min_size=1, max_size=2))

    def rows(side: int):
        return draw(st.lists(st.tuples(*(st.sampled_from(_KEY_POOLS[k[side]]) for k in kinds)),
                             max_size=10))

    return kinds, draw(st.integers(0, 1)), rows(0), [rows(1), rows(1)]


class TestPartnerFilter:
    """The rows of a block that a join's partner filter keeps are the rows
    ``_equi_pairs`` pairs with some row of the other input on the first
    pair with no string column, a superset of those it pairs on every pair;
    with a string column in every pair there is no filter. Int, float and
    string keys, one or two pairs, and the test of the other input's keys
    used on two blocks (150 examples, about 0.5 s)."""

    @settings(max_examples=150, deadline=None)
    @given(partner_cases())
    def test_keeps_the_rows_the_join_pairs(self, case):
        kinds, other_side, other_rows, blocks = case
        other = base_table("o", tuple(f"o{i}" for i in range(len(kinds))),
                           tuple(k[0] for k in kinds), ids=range(len(other_rows)),
                           rows=other_rows)
        eq = tuple((f"o{i}", f"b{i}")[::1 if other_side == 0 else -1] for i in range(len(kinds)))
        node = Join(Scan("l"), Scan("r"), eq=eq)
        reader = TableReader(tuple(f"b{i}" for i in range(len(kinds))),
                             tuple(k[1] for k in kinds), None)
        keep = engine._partner_filter(node, other, other_side, reader)
        first = next((i for i, k in enumerate(kinds) if "string" not in k), None)
        assert (keep is None) == (first is None)
        for block_rows in blocks:
            block = base_table("b", reader.columns, reader.column_types,
                               ids=range(len(block_rows)), rows=block_rows)
            pairs = [(other.data[i], block.data[i]) for i in range(len(kinds))]
            if other_side == 1:
                pairs = [(b, o) for o, b in pairs]
            paired = set(engine._equi_pairs(pairs)[1 - other_side].tolist())
            if keep is None:
                continue
            kept = keep(block).lineage[:, 0].tolist()
            assert kept == sorted(set(engine._equi_pairs([pairs[first]])[1 - other_side].tolist()))
            assert paired <= set(kept)


class _Reader:
    """A ``TableReader`` over a stored table that records each read and the
    partner filter it was given."""

    def __init__(self, name: str, table: SampleRelation, log: list):
        self.reader = TableReader(table.columns, table.column_types, self.read)
        self.name, self.table, self.log = name, table, log

    def read(self, partner):
        self.log.append((self.name, partner is not None))
        return self.table if partner is None else partner(self.table)


class TestTableReader:
    """``execute`` reads a ``TableReader`` as the operator above its scan
    runs: a join with ``eq`` pairs after its other input and through a
    partner filter, everything else whole. Results equal those on the
    stored tables."""

    @staticmethod
    def run(plan, tables: dict, readers: set) -> tuple:
        log = []
        catalog = {name: _Reader(name, t, log).reader if name in readers else t
                   for name, t in tables.items()}
        log.append("execute")
        got = execute(plan, catalog, master_seed=3).relation
        want = execute(plan, tables, master_seed=3).relation
        assert (got.rows, got.schema) == (want.rows, want.schema)
        return log

    TABLES = {"l": tiny_table("l", ids=(0, 1, 2, 3), vals=(1.0, 2.0, 3.0, 4.0)),
              "r": tiny_table("r", ids=(5, 6), vals=(1.0, 2.0))}
    EQ = (("l_k", "r_k"),)

    @pytest.mark.parametrize("readers, expected", [
        ({"l"}, [("l", True)]),
        ({"r"}, [("r", True)]),
        ({"l", "r"}, [("l", False), ("r", True)]),
    ])
    def test_join_reads_after_its_other_input(self, readers, expected):
        plan = Join(Sample(BernoulliSpec(0.7, 1), Scan("l")) if "l" not in readers else Scan("l"),
                    Scan("r"), eq=self.EQ)
        assert self.run(plan, self.TABLES, readers) == ["execute", *expected]

    @pytest.mark.parametrize("plan", [
        Join(Scan("l"), Scan("r")),
        Join(Scan("l"), Scan("r"), theta=(Comparison("l_k", "=", col2="r_k"),)),
        Select((Comparison("l_v", ">", 1.5),), Scan("l")),
        Sample(BernoulliSpec(0.5, 1), Scan("l")),
        Scan("l"),
    ], ids=["cross", "theta", "select", "sampler", "root"])
    def test_other_operators_read_whole(self, plan):
        log = self.run(plan, self.TABLES, {"l", "r"})
        assert log == ["execute"] + [(name, False) for name in ("l", "r")
                                     if isinstance(plan, Join) or name == "l"]
