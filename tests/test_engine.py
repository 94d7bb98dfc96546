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
    JoinSpec,
    Predicate,
    Sample,
    SampleRelation,
    Scan,
    SchemaError,
    Select,
    SelfJoinError,
    SumAggregate,
    execute,
)
from gusbox.engine import (
    join,
    scan,
    select,
    union_dedup,
)

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
        assert select(Predicate(), rel) is rel

    def test_always_false(self):
        rel = scan(tiny_table())
        out = select(Predicate((Comparison("t_v", "<", 0.0),)), rel)
        assert len(out) == 0

    def test_matches_naive_filter_on_generated_data(self, desk_catalog):
        rel = scan(desk_catalog["l"])
        pred = Predicate((Comparison("l_extendedprice", ">", 50000.0),))
        out = select(pred, rel)
        idx = rel.column_index("l_extendedprice")
        expected = [r for r in rel.rows if r.values[idx] > 50000.0]
        assert list(out.rows) == expected
        assert 0 < len(out) < len(rel)

    def test_selects_fuse(self, desk_catalog):
        rel = scan(desk_catalog["l"])
        a = Predicate((Comparison("l_extendedprice", ">", 20000.0),))
        b = Predicate((Comparison("l_discount", "<=", 0.05),))
        assert select(a, select(b, rel)).rows == select(Predicate(a.atoms + b.atoms), rel).rows

    def test_lineage_unchanged(self, desk_catalog):
        rel = scan(desk_catalog["o"])
        out = select(Predicate((Comparison("o_orderkey", "<=", 10),)), rel)
        assert all(row in rel.rows for row in out.rows)

    def test_type_mismatch_rejected(self):
        rel = scan(tiny_table())
        with pytest.raises(ExpressionError):
            select(Predicate((Comparison("t_v", ">", "abc"),)), rel)
        with pytest.raises(ExpressionError):
            select(Predicate((Comparison("nope", ">", 1.0),)), rel)


class TestJoin:
    def test_single_match_concatenates_lineage(self):
        l = base_table("l", ("l_k",), ("int64",), ids=(7,), rows=((1,),))
        r = base_table("r", ("r_k",), ("int64",), ids=(9,), rows=((1,),))
        out = join(JoinSpec(equi=(("l_k", "r_k"),)), scan(l), scan(r))
        assert len(out) == 1
        assert out.rows[0].lineage == (7, 9)
        assert out.rows[0].values == (1, 1)

    def test_cross_product_size(self):
        l = tiny_table("l")
        r = tiny_table("r", ids=(5, 6), vals=(1.0, 2.0))
        out = join(JoinSpec(), scan(l), scan(r))
        assert len(out) == len(l) * len(r)

    def test_matches_nested_loop_reference(self, desk_catalog):
        l = scan(desk_catalog["l"])
        o = scan(desk_catalog["o"])
        out = join(JoinSpec(equi=(("l_orderkey", "o_orderkey"),)), l, o)
        li = l.column_index("l_orderkey")
        oi = o.column_index("o_orderkey")
        reference = sum(
            1 for lr in l.rows for orow in o.rows if lr.values[li] == orow.values[oi]
        )
        assert len(out) == reference == len(l)

    def test_output_lineage_restricts_to_inputs(self, desk_catalog):
        l = scan(desk_catalog["l"])
        o = scan(desk_catalog["o"])
        out = join(JoinSpec(equi=(("l_orderkey", "o_orderkey"),)), l, o)
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
        out = join(JoinSpec(equi=(("l_k", "r_k"),)), scan(l), scan(r))
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
        spec = JoinSpec(residual=Predicate((Comparison("l_v", "=", other_col="r_v"),)))
        out = join(spec, scan(l), scan(r))
        assert len(out) == 3

    def test_self_join_rejected(self):
        t = tiny_table()
        with pytest.raises(SelfJoinError):
            join(JoinSpec(), scan(t), scan(t))

    def test_column_collision_rejected(self):
        l = tiny_table("l")
        other = base_table("x", ("l_k",), ("int64",), ids=(0,), rows=((1,),))
        with pytest.raises(SchemaError, match="share column"):
            join(JoinSpec(), scan(l), scan(other))


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
            Join(
                JoinSpec(equi=(("l_ok", "o_ok"),)),
                Sample(BernoulliSpec(0.5, seed=3), Scan("l")),
                Scan("o"),
            ),
        )
        r1 = execute(plan, catalog, master_seed=11)
        r2 = execute(plan, catalog, master_seed=11)
        assert r1.relation.rows == r2.relation.rows
        assert r1.aggregate == r2.aggregate

    def test_aggregate_binds_f(self):
        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val*o_w",
            Join(JoinSpec(equi=(("l_ok", "o_ok"),)), Scan("l"), Scan("o")),
        )
        res = execute(plan, catalog)
        assert res.aggregate == pytest.approx(33.5, rel=1e-12)
        assert all(r.f != 0.0 for r in res.relation.rows)

    def test_query1_runs_on_desk_data(self, desk_catalog):
        res = execute(query1_plan(), desk_catalog, master_seed=1)
        assert res.aggregate is not None
        assert 0 < len(res.relation) < 300

    def test_unknown_table_rejected(self):
        from gusbox import PlanError

        with pytest.raises(PlanError, match="unknown table"):
            execute(Scan("nope"), {})

    def test_plan_errors_name_the_node(self):
        from gusbox import PlanError

        catalog = small_join_catalog()
        plan = SumAggregate("l_val", Join(JoinSpec(), Scan("l"), Select(Predicate(), Scan("x"))))
        with pytest.raises(PlanError, match=r"^plan\.child\.right\.child: unknown table 'x'"):
            execute(plan, catalog)
        with pytest.raises(PlanError, match=r"^plan: unknown table"):
            execute(Scan("x"), catalog)

