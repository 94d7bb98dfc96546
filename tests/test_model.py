"""Lineage schemas, subset masks, parameter tables, relations, and the
record base of the value classes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gusbox import (
    BernoulliSpec,
    Comparison,
    GusParams,
    Join,
    LineageBernoulliSpec,
    LineageSchema,
    PlanError,
    Row,
    SampleRelation,
    SchemaError,
    Sample,
    Scan,
    Select,
    SelfJoinError,
    WorSpec,
    common_lineage,
)
from gusbox.algebra import (
    compact,
    identity_gus,
    join_merge,
    null_gus,
    row_bernoulli_gus,
    row_wor_gus,
    union_merge,
)

from gusbox.model import Record

from conftest import gus_from_json, gus_to_json, mask_of, mask_of_key


class TestLineageSchema:
    def test_of_sorts_names(self):
        schema = LineageSchema.of(["o", "l"])
        assert schema.relations == ("l", "o")
        assert schema.n == 2
        assert schema.full_mask == 3

    def test_rejects_unsorted_duplicate_or_empty(self):
        with pytest.raises(SchemaError):
            LineageSchema(("o", "l"))
        with pytest.raises(SchemaError):
            LineageSchema(("l", "l"))
        with pytest.raises(SchemaError):
            LineageSchema(("", "l"))

    def test_mask_bijection(self):
        schema = LineageSchema.of(["c", "l", "o"])
        seen = set()
        for mask in range(schema.num_subsets):
            names = schema.names_of(mask)
            assert mask_of(schema, names) == mask
            seen.add(names)
        assert len(seen) == 8

    def test_subset_key_roundtrip(self):
        schema = LineageSchema.of(["l", "o"])
        assert schema.subset_key(0) == ""
        assert schema.subset_key(3) == "lo"
        for mask in range(4):
            assert mask_of_key(schema, schema.subset_key(mask)) == mask

    def test_prefix_names_need_backtracking(self):
        schema = LineageSchema.of(["a", "ab"])
        assert mask_of_key(schema, "ab") == 2
        assert mask_of_key(schema, "aab") == 3
        with pytest.raises(SchemaError):
            mask_of_key(schema, "b")

    def test_merge_disjoint_rejects_overlap(self):
        with pytest.raises(SelfJoinError):
            LineageSchema.of(["l", "o"]).merge_disjoint(LineageSchema.of(["o"]))


class TestCommonLineage:
    def test_partial_match(self):
        assert common_lineage((1, 2), (1, 3)) == 0b01

    def test_identical(self):
        assert common_lineage((1, 2), (1, 2)) == 0b11

    def test_disjoint(self):
        assert common_lineage((1, 2), (3, 4)) == 0

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            common_lineage((1, 2), (1,))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6).flatmap(
        lambda t: st.tuples(st.just(tuple(t)),
                            st.tuples(*[st.integers(0, 5) for _ in t]))))
    def test_symmetric_and_reflexive(self, pair):
        t, u = pair
        assert common_lineage(t, u) == common_lineage(u, t)
        assert common_lineage(t, t) == (1 << len(t)) - 1


class TestGusParams:
    def test_probability_ranges_enforced(self):
        schema = LineageSchema.of(["l"])
        with pytest.raises(SchemaError):
            GusParams(schema, (1.0, 1.5))
        with pytest.raises(SchemaError):
            GusParams(schema, (-0.1, 0.5))
        with pytest.raises(SchemaError, match=r"^b\[empty\] = 1000"):
            GusParams(schema, (10**400, 0.5))  # past float64

    def test_full_mask_entry_must_equal_a(self):
        # a is read from b[full], so the two cannot disagree
        schema = LineageSchema.of(["l", "o"])
        g = GusParams(schema, (0.25, 0.3, 0.35, 0.4))
        assert g.a == g.b[schema.full_mask] == 0.4
        with pytest.raises(AttributeError):
            g.a = 0.5
        assert list(GusParams._fields) == ["schema", "b"]
        builders = [
            identity_gus(schema), null_gus(schema), row_bernoulli_gus(0.3, schema),
            row_wor_gus(3, 7, schema), row_wor_gus(1, 1, schema),
            join_merge(row_bernoulli_gus(0.3, LineageSchema.of(["l"])),
                       row_wor_gus(2, 5, LineageSchema.of(["o"]))),
            compact(row_bernoulli_gus(0.3, schema), row_wor_gus(3, 7, schema)),
            union_merge(row_bernoulli_gus(0.3, schema), row_wor_gus(3, 7, schema)),
        ]
        for built in builders:
            assert built.a == built.b[built.schema.full_mask]
        assert [built.a for built in builders] == [
            1.0, 0.0, 0.3, 3 / 7, 1.0, 0.3 * (2 / 5), 0.3 * (3 / 7), 0.3 + 3 / 7 - 0.3 * (3 / 7)]

    @pytest.mark.parametrize("entry", [True, "0.5", None, np.True_],
                             ids=["bool", "str", "none", "numpy_bool"])
    def test_entry_that_is_not_a_number_names_its_subset(self, entry):
        # True was read as 1 (and written as "a": true), a string or None
        # failed with a bare TypeError from <=
        schema = LineageSchema.of(["l"])
        with pytest.raises(SchemaError, match=r"^b\[l\] must be a number, not "):
            GusParams(schema, (0.25, entry))
        with pytest.raises(SchemaError, match=r"^b\[empty\] must be a number, not "):
            GusParams(schema, [entry, 0.5])

    def test_array_of_bools_rejected(self):
        with pytest.raises(SchemaError, match=r"^b\[empty\] must be a number"):
            GusParams(LineageSchema.of(["l"]), np.array([True, True]))

    def test_tuple_list_and_array_make_one_record(self):
        schema = LineageSchema.of(["l", "o"])
        values = (0.25, 0.0, 0.5, 0.5)
        built = [GusParams(schema, values), GusParams(schema, list(values)),
                 GusParams(schema, np.array(values)), GusParams(schema, (0.25, -0.0, 0.5, 0.5)),
                 GusParams(schema, np.array([0.25, -0.0, 0.5, 0.5]))]
        for g in built:
            assert g == built[0] and hash(g) == hash(built[0])
            assert g.b.dtype == np.float64 and g.b.tolist() == list(values)
        assert GusParams(schema, (0.25, 0.0, 0.5, 0.75)) != built[0]
        assert GusParams(LineageSchema.of(["l", "p"]), values) != built[0]
        assert len(set(built)) == 1

    def test_table_is_a_read_only_copy(self):
        schema = LineageSchema.of(["l", "o"])
        mine = np.array([0.25, 0.5, 0.5, 0.5])
        g = GusParams(schema, mine)
        mine[:] = 0.0
        assert g.b.tolist() == [0.25, 0.5, 0.5, 0.5] and g.a == 0.5
        with pytest.raises(ValueError, match="read-only"):
            g.b[0] = 0.0
        assert type(g.a) is float and g.to_json_dict()["b"] == {
            "": 0.25, "l": 0.5, "o": 0.5, "lo": 0.5}

    def test_table_length_checked(self):
        with pytest.raises(SchemaError):
            GusParams(LineageSchema.of(["l", "o"]), (0.25, 0.5))

    def test_json_shape(self):
        g = row_bernoulli_gus(0.1, LineageSchema.of(["l"]))
        g2 = join_merge(g, identity_gus(LineageSchema.of(["o"])))
        doc = g2.to_json_dict()
        assert doc["schema"] == ["l", "o"]
        assert set(doc["b"]) == {"", "l", "o", "lo"}

    def test_ambiguous_subset_keys_rejected(self):
        schema = LineageSchema.of(["a", "ab", "b"])
        with pytest.raises(SchemaError, match="ambiguous"):
            identity_gus(schema).to_json_dict()

    @given(
        st.lists(st.sampled_from(["c", "l", "o", "p"]), min_size=1, max_size=3,
                 unique=True),
        st.data(),
    )
    def test_json_roundtrip_is_bit_exact(self, names, data):
        schema = LineageSchema.of(names)
        a = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        b = [data.draw(st.floats(0.0, 1.0, allow_nan=False))
             for _ in range(schema.num_subsets)]
        b[schema.full_mask] = a
        g = GusParams(schema, tuple(b))
        assert gus_from_json(gus_to_json(g)) == g


class TestRecord:
    """``model.Record`` gives the value classes what ``@dataclass(frozen=True)``
    gave them."""

    def test_equality_and_hash_are_per_class(self):
        assert BernoulliSpec(1.0, 0) == BernoulliSpec(1.0, 0)
        assert hash(BernoulliSpec(1.0, 0)) == hash(BernoulliSpec(1.0, 0))
        assert BernoulliSpec(1.0, 0) != BernoulliSpec(1.0, 1)
        # equal field values, different classes
        assert BernoulliSpec(1.0, 0) != WorSpec(1, 0)
        assert Scan("l") != Comparison("l", "=", 1) and Scan("l") != ("l",)
        assert len({Scan("l"), Scan("l"), Scan("o")}) == 2
        plan = Sample(WorSpec(5, 2), Join(Scan("l"), Scan("o"), (("a", "b"),)))
        assert plan == Sample(WorSpec(5, 2), Join(Scan("l"), Scan("o"), (("a", "b"),)))
        assert plan != Sample(WorSpec(5, 2), Join(Scan("l"), Scan("o")))

    def test_repr_is_the_dataclass_text(self):
        join = Join(Sample(BernoulliSpec(0.5, 3), Scan("l")),
                    Select((Comparison("o_totalprice", ">", 100.0),), Scan("o")),
                    (("l_orderkey", "o_orderkey"),))
        assert repr(join) == (
            "Join(left=Sample(method=BernoulliSpec(p=0.5, seed=3), child=Scan(table='l')), "
            "right=Select(where=(Comparison(col='o_totalprice', cmp='>', value=100.0, "
            "col2=None),), child=Scan(table='o')), eq=(('l_orderkey', 'o_orderkey'),), "
            "theta=())")
        sample = Sample(LineageBernoulliSpec.of({"c": (0.9, 4)}), Sample(WorSpec(5, 2), Scan("c")))
        assert repr(sample) == (
            "Sample(method=LineageBernoulliSpec(dims=(('c', 0.9, 4),)), "
            "child=Sample(method=WorSpec(n=5, seed=2), child=Scan(table='c')))")
        gus = GusParams(LineageSchema(("l", "o")), (0.25, 0.5, 0.5, 0.5))
        assert repr(gus) == (
            "GusParams(schema=LineageSchema(relations=('l', 'o')), b=array([0.25, 0.5 , 0.5 , 0.5 ]))")

    def test_keywords_and_defaults(self):
        assert BernoulliSpec(p=0.5) == BernoulliSpec(0.5, 0) == BernoulliSpec(0.5, seed=0)
        join = Join(right=Scan("o"), left=Scan("l"))
        assert (join.left, join.right, join.eq, join.theta) == (Scan("l"), Scan("o"), (), ())
        assert Comparison("x", "=", col2="y").value is None
        # __post_init__ runs on keyword construction too
        with pytest.raises(SchemaError, match="sorted"):
            LineageSchema(relations=("o", "l"))

    @pytest.mark.parametrize("build", [
        lambda: BernoulliSpec(),
        lambda: Join(Scan("l")),
        lambda: WorSpec(seed=1),
        lambda: BernoulliSpec(0.5, 1, 2),
        lambda: Scan("l", table="o"),
        lambda: Scan(name="l"),
    ], ids=["none", "missing_positional", "missing_keyword", "extra", "twice", "unknown"])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: WorSpec(2.5, 1), "n must be an integer, not 2.5"),
        (lambda: BernoulliSpec(True, 1), "p must be a number, not true"),
        (lambda: BernoulliSpec(0.5, 1.0), "seed must be an integer, not 1.0"),
        (lambda: LineageBernoulliSpec.of({"l": (0.5, 2.0)}), "seed must be an integer, not 2.0"),
        (lambda: BernoulliSpec("0.5"), 'p must be a number, not "0.5"'),
    ], ids=["wor_n_float", "p_bool", "seed_float", "keyed_seed_float", "p_string"])
    def test_spec_field_kinds_raise_plan_error(self, build, message):
        # the plan document's kind rule: each ran, or failed with a TypeError
        # from numpy, mix64 or a comparison
        with pytest.raises(PlanError) as info:
            build()
        assert str(info.value) == message

    def test_assignment_raises_attribute_error(self):
        scan = Scan("l")
        for name in ("table", "other"):
            with pytest.raises(AttributeError):
                setattr(scan, name, "o")
        with pytest.raises(AttributeError):
            del scan.table
        assert scan == Scan("l")

    def test_fields_in_declaration_order(self):
        assert Join._fields == ("left", "right", "eq", "theta")
        assert Comparison._fields == ("col", "cmp", "value", "col2")

        class Point(Record):
            x: int
            y: int = 0

        class Point3(Point):
            z: int = 0

        assert Point3._fields == ("x", "y", "z")
        assert Point3(1, z=2) == Point3(1, 0, 2) != Point(1, 0)


class TestExtendSchema:
    # a table widens by a join with the identity table over the new relations

    def test_bernoulli_widened(self):
        g = row_bernoulli_gus(0.1, LineageSchema.of(["l"]))
        wide = join_merge(g, identity_gus(LineageSchema.of(["o"])))
        s = wide.schema
        assert wide.a == 0.1
        assert wide.b[mask_of_key(s, "o")] == wide.b[0] == pytest.approx(0.01, rel=1e-12)
        assert wide.b[mask_of_key(s, "lo")] == wide.b[mask_of_key(s, "l")] == 0.1

    def test_identity_stays_identity(self):
        g = identity_gus(LineageSchema.of(["l"]))
        wide = join_merge(g, identity_gus(LineageSchema.of(["c", "o"])))
        assert wide.is_identity

    def test_same_schema_is_noop(self):
        g = row_bernoulli_gus(0.3, LineageSchema.of(["l"]))
        assert join_merge(g, identity_gus(LineageSchema(()))) == g


class TestSampleRelation:
    def test_duplicate_lineage_rejected(self):
        schema = LineageSchema.of(["l"])
        rows = (Row((), (1,), 0.0), Row((), (1,), 1.0))
        with pytest.raises(SchemaError, match="duplicate lineage"):
            SampleRelation.from_rows(schema, (), (), rows)

    @pytest.mark.parametrize("bad", [2**63, -2**63 - 1, 2**64 + 5, 1.0, True])
    def test_lineage_ids_must_be_int64(self, bad):
        schema = LineageSchema.of(["l", "o"])
        rows = (Row((), (2**63 - 1, -2**63), 0.0), Row((), (3, bad), 0.0))
        with pytest.raises(SchemaError, match=r"over \('l', 'o'\) holds a non-int64 id$"):
            SampleRelation.from_rows(schema, (), (), rows)
        assert SampleRelation.from_rows(schema, (), (), rows[:1]).lineage.dtype == "int64"

    def test_lineage_length_checked(self):
        schema = LineageSchema.of(["l", "o"])
        with pytest.raises(SchemaError):
            SampleRelation.from_rows(schema, (), (), (Row((), (1,), 0.0),))

    def test_total_f_is_order_independent(self):
        schema = LineageSchema.of(["l"])
        a = SampleRelation.from_rows(schema, (), (), (Row((), (1,), 0.1), Row((), (2,), 0.2)))
        b = SampleRelation.from_rows(schema, (), (), (Row((), (2,), 0.2), Row((), (1,), 0.1)))
        assert a.total_f() == b.total_f()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
           st.randoms(use_true_random=False))
    def test_total_f_adds_left_to_right_in_lineage_order(self, values, rnd):
        """Bit for bit the fold of Python 3.11's ``sum``, whatever the Python:
        3.12's compensated ``sum`` gives 1.0 for ``[1e16, 1.0, -1e16]``."""
        order = list(range(len(values)))
        rnd.shuffle(order)
        rel = SampleRelation.from_rows(
            LineageSchema.of(["l"]), (), (),
            [Row((), (order[i],), value) for i, value in enumerate(values)])
        total = 0
        for i in sorted(range(len(values)), key=order.__getitem__):
            total += values[i]
        got = rel.total_f()
        assert type(got) is type(total) and repr(got) == repr(total)

    @pytest.mark.parametrize("values,expected", [
        ([1e16, 1.0, -1e16], "0.0"), ([-0.0, -0.0], "0.0"), ([], "0"),
        ([1e308, 1e308], "inf")])
    def test_total_f_edge_cases(self, values, expected):
        rel = SampleRelation.from_rows(
            LineageSchema.of(["l"]), (), (), [Row((), (i,), v) for i, v in enumerate(values)])
        assert repr(rel.total_f()) == expected

    def test_total_f_over_the_empty_schema(self):
        # a lineage matrix with no columns has no key to sort by
        rel = SampleRelation.from_rows(LineageSchema(()), (), (), (Row((), (), 2.5),))
        assert rel.total_f() == 2.5

    def test_from_rows_checks_types_before_cells(self):
        schema = LineageSchema.of(["l"])
        with pytest.raises(SchemaError, match=r"^unknown column type 'decimal'$"):
            SampleRelation.from_rows(schema, ("x",), ("decimal",), (Row(("1",), (1,), 0.0),))
        with pytest.raises(SchemaError, match=r"^columns and column_types must align$"):
            SampleRelation.from_rows(schema, ("x",), (), ())
        with pytest.raises(SchemaError, match=r"^value '1' of column 'x' does not match type int64$"):
            SampleRelation.from_rows(schema, ("x",), ("int64",), (Row(("1",), (1,), 0.0),))

    def test_repeated_column_names_rejected(self):
        schema = LineageSchema.of(["l"])
        with pytest.raises(SchemaError, match=r"^repeated column name in \('x', 'x'\)$"):
            SampleRelation.from_rows(schema, ("x", "x"), ("int64", "float64"), ())
        with pytest.raises(SchemaError, match=r"^repeated column name in \('x', 'x'\)$"):
            SampleRelation(schema, ("x", "x"), ("int64", "int64"),
                           (np.zeros(1, dtype=np.int64),) * 2, np.zeros((1, 1), dtype=np.int64),
                           np.zeros(1))

    def test_from_rows_round_trips_through_rows(self):
        schema = LineageSchema.of(["l", "o"])
        rows = (Row((2**70, 1.5, "a"), (3, -2**63), 0.25), Row((-4, -0.0, ""), (1, 2), 1.0))
        rel = SampleRelation.from_rows(schema, ("i", "x", "s"), ("int64", "float64", "string"),
                                       rows)
        assert rel.rows == rows
        assert [c.dtype.kind for c in rel.data] == ["O", "f", "O"]

    def test_arrays_are_checked_for_dtype(self):
        schema = LineageSchema.of(["l"])
        ok = SampleRelation(schema, (), (), (), np.array([[1], [2], [3]]),
                            np.array([1.0, 2.0, 3.0]))
        assert len(ok) == 3
        with pytest.raises(SchemaError, match=r"^lineage must be int64 and f float64, "
                                              r"not float64 and float64$"):
            SampleRelation(schema, (), (), (), np.array([[1.0], [2.0], [3.0]]), ok.f)
        with pytest.raises(SchemaError, match=r"^lineage must be int64 and f float64, "
                                              r"not int64 and int64$"):
            SampleRelation(schema, (), (), (), ok.lineage, np.array([1, 2, 3]))
        with pytest.raises(SchemaError, match=r"^unknown column type 'decimal'$"):
            SampleRelation(schema, ("x",), ("decimal",), (np.zeros(3),), ok.lineage, ok.f)

    @staticmethod
    def _mixed_relation():
        rows = tuple(Row((i - 3, i * 0.5, f"s{i}", 2**64 + i), (i % 3, i), i / 4.0)
                     for i in range(7))
        return SampleRelation.from_rows(LineageSchema.of(["l", "o"]), ("i", "x", "s", "w"),
                                        ("int64", "float64", "string", "int64"), rows)

    @pytest.mark.parametrize("mask", [
        [True, False, True, True, False, False, True],
        [False] * 7,
        [True] * 7,
    ], ids=["some", "none", "all"])
    def test_take_of_a_mask_equals_take_of_its_positions(self, mask):
        rel = self._mixed_relation()
        assert [c.dtype.kind for c in rel.data] == ["i", "f", "O", "O"]
        mask = np.array(mask)
        by_mask, by_position = rel.take(mask), rel.take(np.flatnonzero(mask))
        assert by_mask.rows == by_position.rows
        assert by_mask.lineage.shape == (int(mask.sum()), 2)
        for a, b in zip(by_mask.data + (by_mask.lineage, by_mask.f),
                        by_position.data + (by_position.lineage, by_position.f)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()

    def test_take_of_positions_in_any_form(self):
        rel = self._mixed_relation()
        expected = (rel.rows[4], rel.rows[0], rel.rows[6])
        assert rel.take([4, 0, 6]).rows == expected
        assert rel.take(np.array([4, 0, 6], dtype=np.int64)).rows == expected
        assert rel.take(np.array([4, 0, 6], dtype=np.intp)).rows == expected
        assert rel.take(np.array([], dtype=np.intp)).lineage.shape == (0, 2)

    def test_take_of_no_positions_is_empty(self):
        rel = SampleRelation.from_rows(LineageSchema.of(["l"]), ("x",), ("string",),
                                       (Row(("a",), (1,), 0.5),))
        empty = rel.take([])
        assert len(empty) == 0 and empty.lineage.shape == (0, 1) and empty.rows == ()
