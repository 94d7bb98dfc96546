"""Parameter-table algebra: translation of samplers, merge rules, variance
coefficients, and plan normalization.

Golden tables pin hand-derived parameter values for three reference
scenarios: a two-table join of a p=0.1 coin filter with a 1000-of-150000
fixed-size sample, the same join extended through a four-relation chain,
and a bi-dimensional keyed filter. The pinned constants are rounded to four
significant digits, so golden comparisons use a 1e-3 relative tolerance;
algebraic identities are checked exactly or at 1e-12.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gusbox import (
    BernoulliSpec,
    GusParams,
    Join,
    LineageBernoulliSpec,
    LineageSchema,
    PlanError,
    Sample,
    SampleSizeError,
    Scan,
    SchemaError,
    Select,
    SelfJoinError,
    SumAggregate,
    UnionDedup,
    WorSpec,
)
from gusbox.algebra import (
    c_coefficients,
    compact,
    gus_of_lineage_bernoulli,
    identity_gus,
    join_merge,
    normalize_plan,
    null_gus,
    row_bernoulli_gus,
    row_wor_gus,
    union_merge,
)
from gusbox.dsl import parse_plan
from gusbox.engine import execute
from gusbox.model import project_masks
from gusbox.plan import Comparison, strip_sampling

from conftest import (
    gus_tables,
    mask_of_key,
    query1_plan,
    small_join_catalog,
    small_join_plan,
)
from test_acceptance import _dyadic_tables
from test_dsl_ingest import query1_document
from test_estimator import recursion_coefficient, submasks

REFERENCE_REL_TOL = 1e-3


def assert_matches_reference(g: GusParams, a: float, table: dict):
    """Compare against reference values rounded to 4 significant digits."""
    assert g.a == pytest.approx(a, rel=REFERENCE_REL_TOL)
    assert set(table) == {g.schema.subset_key(m) for m in range(g.schema.num_subsets)}
    for key, expected in table.items():
        mask = mask_of_key(g.schema, key)
        assert g.b[mask] == pytest.approx(expected, rel=REFERENCE_REL_TOL), key


def example_join_gus() -> GusParams:
    return join_merge(
        row_bernoulli_gus(0.1, LineageSchema.of(["l"])),
        row_wor_gus(1000, 150_000, LineageSchema.of(["o"])))


class TestSingleRelationTables:
    def test_bernoulli_point_one(self):
        g = row_bernoulli_gus(0.1, LineageSchema.of(["l"]))
        assert g.a == 0.1
        assert g.b[0] == pytest.approx(0.01, rel=1e-12)
        assert g.b[1] == 0.1

    def test_bernoulli_identity_at_one(self):
        assert row_bernoulli_gus(1.0, LineageSchema.of(["l"])).is_identity

    def test_bernoulli_half(self):
        g = row_bernoulli_gus(0.5, LineageSchema.of(["p"]))
        assert (g.a, g.b[0], g.b[1]) == (0.5, 0.25, 0.5)

    def test_wor_reference_values(self):
        g = row_wor_gus(1000, 150_000, LineageSchema.of(["o"]))
        assert g.a == pytest.approx(6.667e-3, rel=REFERENCE_REL_TOL)
        assert g.b[0] == pytest.approx(4.44e-5, rel=REFERENCE_REL_TOL)
        assert g.b[1] == g.a
        # exact fractions behind the printed values
        assert g.a == 1000 / 150_000
        assert g.b[0] == (1000 * 999) / (150_000 * 149_999)

    def test_wor_full_is_identity(self):
        assert row_wor_gus(5, 5, LineageSchema.of(["o"])).is_identity

    def test_wor_single_row_cannot_pair(self):
        assert row_wor_gus(1, 10, LineageSchema.of(["o"])).b[0] == 0.0

    def test_wor_bounds(self):
        with pytest.raises(SampleSizeError):
            row_wor_gus(6, 5, LineageSchema.of(["o"]))
        with pytest.raises(SampleSizeError):
            row_wor_gus(0, 5, LineageSchema.of(["o"]))
        with pytest.raises(SampleSizeError):
            row_wor_gus(1, 0, LineageSchema.of(["o"]))


class TestJoinMerge:
    def test_two_table_example(self):
        assert_matches_reference(
            example_join_gus(),
            a=6.667e-4,
            table={
                "": 4.44e-7,
                "o": 6.667e-5,
                "l": 4.44e-6,
                "lo": 6.667e-4,
            },
        )

    def test_merge_with_identity_duplicates_entries(self):
        g121 = join_merge(example_join_gus(), identity_gus(LineageSchema.of(["c"])))
        assert_matches_reference(
            g121,
            a=6.667e-4,
            table={
                "": 4.44e-7,
                "c": 4.44e-7,
                "o": 6.667e-5,
                "co": 6.667e-5,
                "l": 4.44e-6,
                "cl": 4.44e-6,
                "lo": 6.667e-4,
                "clo": 6.667e-4,
            },
        )

    def test_three_way_merge_walkthrough(self):
        g121 = join_merge(example_join_gus(), identity_gus(LineageSchema.of(["c"])))
        g123 = join_merge(g121, row_bernoulli_gus(0.5, LineageSchema.of(["p"])))
        assert_matches_reference(
            g123,
            a=3.334e-4,
            table={
                "": 1.11e-7,
                "p": 2.22e-7,
                "c": 1.11e-7,
                "cp": 2.22e-7,
                "o": 1.667e-5,
                "op": 3.335e-5,
                "co": 1.667e-5,
                "cop": 3.335e-5,
                "l": 1.11e-6,
                "lp": 2.22e-6,
                "cl": 1.11e-6,
                "clp": 2.22e-6,
                "lo": 1.667e-4,
                "lop": 3.334e-4,
                "clo": 1.667e-4,
                "clop": 3.334e-4,
            },
        )

    def test_requires_disjoint_schemas(self):
        g = row_bernoulli_gus(0.5, LineageSchema.of(["l"]))
        with pytest.raises(SelfJoinError):
            join_merge(g, row_bernoulli_gus(0.3, LineageSchema.of(["l"])))


class TestUnionMerge:
    def test_null_is_neutral(self):
        g = example_join_gus()
        assert union_merge(g, null_gus(g.schema)) == g

    def test_independent_halves_make_three_quarters(self):
        g = union_merge(
            row_bernoulli_gus(0.5, LineageSchema.of(["r"])),
            row_bernoulli_gus(0.5, LineageSchema.of(["r"])))
        assert g == row_bernoulli_gus(0.75, LineageSchema.of(["r"]))
        assert g.b[0] == g.a * g.a

    def test_self_union_of_identity(self):
        i = identity_gus(LineageSchema.of(["r"]))
        assert union_merge(i, i) == i

    def test_schema_mismatch(self):
        with pytest.raises(SchemaError):
            union_merge(
                row_bernoulli_gus(0.5, LineageSchema.of(["r"])),
                row_bernoulli_gus(0.5, LineageSchema.of(["s"])))


class TestCompact:
    def test_stacked_bernoulli(self):
        g = compact(
            row_bernoulli_gus(0.2, LineageSchema.of(["r"])),
            row_bernoulli_gus(0.3, LineageSchema.of(["r"])))
        assert g.a == pytest.approx(0.06, rel=1e-12)
        assert g.b[0] == pytest.approx(0.0036, rel=1e-12)
        assert g.b[1] == g.a

    def test_identity_is_neutral(self):
        g = example_join_gus()
        assert compact(g, identity_gus(g.schema)) == g

    def test_null_absorbs(self):
        g = example_join_gus()
        assert compact(g, null_gus(g.schema)) == null_gus(g.schema)


class TestCompose:
    def test_bidimensional_bernoulli(self):
        g = join_merge(
            row_bernoulli_gus(0.2, LineageSchema.of(["l"])),
            row_bernoulli_gus(0.3, LineageSchema.of(["o"])))
        assert_matches_reference(
            g, a=0.06, table={"": 0.0036, "o": 0.012, "l": 0.018, "lo": 0.06})

    def test_compose_with_identity_equals_extension(self):
        g = row_bernoulli_gus(0.2, LineageSchema.of(["l"]))
        wide = join_merge(g, identity_gus(LineageSchema.of(["o"])))
        assert wide == reference_extend_schema(g, LineageSchema.of(["l", "o"]))

    def test_subsample_stack_on_join_table(self):
        bidim = join_merge(
            row_bernoulli_gus(0.2, LineageSchema.of(["l"])),
            row_bernoulli_gus(0.3, LineageSchema.of(["o"])))
        g = compact(example_join_gus(), bidim)
        assert_matches_reference(
            g,
            a=4e-5,
            table={"": 1.598e-9, "o": 8e-7, "l": 7.992e-8, "lo": 4e-5},
        )

    def test_lineage_bernoulli_table_builder(self):
        schema = LineageSchema.of(["l", "o"])
        g = gus_of_lineage_bernoulli({"l": 0.2, "o": 0.3}, schema)
        assert g == join_merge(
            row_bernoulli_gus(0.2, LineageSchema.of(["l"])),
            row_bernoulli_gus(0.3, LineageSchema.of(["o"])))
        partial = gus_of_lineage_bernoulli({"l": 0.2}, schema)
        assert partial.a == 0.2
        assert partial.b[mask_of_key(schema, "o")] == pytest.approx(0.04, rel=1e-12)


# Reference implementations: the per-mask loops that model.project_masks
# and its gathers replace in join_merge, alone and widening a table with
# the identity table.

def reference_project(mask, positions):
    """Narrow mask of wide ``mask``; ``positions`` maps wide bit -> narrow bit."""
    out = 0
    for wide, narrow in positions.items():
        if mask >> wide & 1:
            out |= 1 << narrow
    return out


def reference_positions(wide, narrow):
    return {wide.index(r): i for i, r in enumerate(narrow.relations)}


def reference_extend_schema(g, wider):
    if g.schema == wider:
        return g
    positions = reference_positions(wider, g.schema)
    b = [g.b[reference_project(mask, positions)] for mask in range(wider.num_subsets)]
    b[wider.full_mask] = g.a
    return GusParams(wider, tuple(b))


def reference_join_merge(g1, g2):
    merged = g1.schema.merge_disjoint(g2.schema)
    pos1 = reference_positions(merged, g1.schema)
    pos2 = reference_positions(merged, g2.schema)
    a = g1.a * g2.a
    b = [g1.b[reference_project(mask, pos1)] * g2.b[reference_project(mask, pos2)]
         for mask in range(merged.num_subsets)]
    b[merged.full_mask] = a
    return GusParams(merged, tuple(b))


def exact_bits(g):
    """Schema and every entry by ``repr``: tells 1 from 1.0 and -0.0 from 0.0,
    and pins every bit of a float."""
    return g.schema.relations, repr(g.a), tuple(map(repr, g.b))


@st.composite
def split_schemas(draw):
    """Two disjoint, interleaved name sets drawn from a..g (either may be
    empty) and their union."""
    names = draw(st.lists(st.sampled_from("abcdefg"), unique=True, max_size=7))
    sides = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    left = [n for n, side in zip(names, sides) if side]
    right = [n for n, side in zip(names, sides) if not side]
    return LineageSchema.of(left), LineageSchema.of(right)


class TestMaskProjection:
    INTERLEAVED = (LineageSchema.of("abcde"), LineageSchema.of("bd"))

    def test_interleaved_schema(self):
        wide, narrow = self.INTERLEAVED
        b, d = 1 << 1, 1 << 3
        expected = [(1 if m & b else 0) | (2 if m & d else 0) for m in range(32)]
        assert project_masks(wide, narrow).tolist() == expected

    @given(split_schemas())
    def test_matches_reference_loop(self, schemas):
        left, right = schemas
        wide = left.merge_disjoint(right)
        for narrow in (left, right, wide):
            positions = reference_positions(wide, narrow)
            assert project_masks(wide, narrow).tolist() == [
                reference_project(mask, positions) for mask in range(wide.num_subsets)]

    @given(split_schemas(), st.data())
    def test_extend_schema_matches_reference_bit_for_bit(self, schemas, data):
        left, right = schemas
        g = data.draw(gus_tables(names=left.relations))
        wide = left.merge_disjoint(right)
        widened = join_merge(g, identity_gus(right))
        assert exact_bits(widened) == exact_bits(reference_extend_schema(g, wide))

    @given(split_schemas(), st.data())
    def test_join_merge_matches_reference_bit_for_bit(self, schemas, data):
        left, right = schemas
        g1 = data.draw(gus_tables(names=left.relations))
        g2 = data.draw(gus_tables(names=right.relations))
        assert exact_bits(join_merge(g1, g2)) == exact_bits(reference_join_merge(g1, g2))

    def test_interleaved_tables_with_inexact_products(self):
        wide, narrow = self.INTERLEAVED
        g = GusParams(narrow, (0.1 / 3, 0.07, 0.11, 0.3))
        other = GusParams(LineageSchema.of("ace"),
                          tuple(0.7 * (k + 1) / 9 for k in range(7)) + (0.7,))
        widened = join_merge(g, identity_gus(other.schema))
        assert exact_bits(widened) == exact_bits(reference_extend_schema(g, wide))
        assert exact_bits(join_merge(g, other)) == exact_bits(reference_join_merge(g, other))
        assert exact_bits(join_merge(other, g)) == exact_bits(reference_join_merge(other, g))

    def test_entries_keep_their_types(self):
        # hand-built tables may hold ints; the constructor stores them as
        # float64, so a gathered entry is the reference's, type included
        _, narrow = self.INTERLEAVED
        g = GusParams(narrow, (1, 1, 0.5, 1))
        h = GusParams(LineageSchema.of("ace"), (1,) * 8)
        assert exact_bits(join_merge(g, h)) == exact_bits(reference_join_merge(g, h))


class TestCoefficients:
    def test_identity_gives_zero_variance_weights(self):
        c = c_coefficients(identity_gus(LineageSchema.of(["l", "o"])))
        assert c[0] == 1.0
        assert all(c[s] == 0.0 for s in range(1, len(c)))

    def test_single_relation_bernoulli(self):
        p = 0.5
        c = c_coefficients(row_bernoulli_gus(p, LineageSchema.of(["r"])))
        assert c[0] == p * p
        assert c[1] == p - p * p

    @given(gus_tables(names=("x", "y", "z")))
    def test_subset_sums_of_c_recover_b(self, g):
        # c is the alternating-difference transform of b, so summing c over
        # the subsets of S must give b[S] back
        c = c_coefficients(g)
        for s in range(g.schema.num_subsets):
            assert sum(c[t] for t in sorted(submasks(s))) == pytest.approx(
                g.b[s], rel=1e-12, abs=1e-15)

    @given(gus_tables(names=("x", "y")))
    def test_recursion_weight_at_empty_set_is_b(self, g):
        for s in range(g.schema.num_subsets):
            assert recursion_coefficient(g, s, 0) == g.b[s]


class TestMergeLaws:
    @given(gus_tables(), gus_tables())
    def test_union_and_compact_commute_exactly(self, g1, g2):
        assert union_merge(g1, g2) == union_merge(g2, g1)
        assert compact(g1, g2) == compact(g2, g1)

    @given(gus_tables(), gus_tables(), gus_tables())
    @settings(max_examples=50)
    def test_union_and_compact_associate_exactly(self, g1, g2, g3):
        assert union_merge(union_merge(g1, g2), g3) == union_merge(g1, union_merge(g2, g3))
        assert compact(compact(g1, g2), g3) == compact(g1, compact(g2, g3))

    @given(gus_tables())
    def test_null_elements(self, g):
        assert union_merge(g, null_gus(g.schema)) == g
        assert compact(g, identity_gus(g.schema)) == g
        assert compact(g, null_gus(g.schema)) == null_gus(g.schema)

    @given(gus_tables(names=("x",)), gus_tables(names=("y",)), gus_tables(names=("z",)))
    @settings(max_examples=50)
    def test_product_merge_commutes_and_associates(self, g1, g2, g3):
        assert join_merge(g1, g2) == join_merge(g2, g1)
        assert join_merge(join_merge(g1, g2), g3) == join_merge(g1, join_merge(g2, g3))
        assert join_merge(g1, g2) == join_merge(g2, g1)

    @given(gus_tables())
    def test_results_keep_full_mask_pinned_to_a(self, g):
        for combined in (union_merge(g, g), compact(g, g)):
            assert combined.b[combined.schema.full_mask] == combined.a


# The per-entry formulas of the tuple tables the rules replaced, on Python
# floats; each takes and returns (schema, list of b). The array rules must
# give every table bit for bit: ``tobytes`` also tells -0.0 from 0.0. Only
# inexact tables can show a re-associated formula, so the laws' dyadic
# tables are joined by ``inexact_tables``.

def tuple_join_merge(s1, b1, s2, b2):
    merged = s1.merge_disjoint(s2)
    pos1, pos2 = reference_positions(merged, s1), reference_positions(merged, s2)
    return merged, [b1[reference_project(m, pos1)] * b2[reference_project(m, pos2)]
                    for m in range(merged.num_subsets)]


def tuple_union_merge(schema, b1, b2):
    a1, a2 = b1[-1], b2[-1]
    if not any(b1):
        return b2
    if not any(b2):
        return b1
    a = a1 + a2 - a1 * a2
    b = [2.0 * a - 1.0 + (1.0 - 2.0 * a1 + x) * (1.0 - 2.0 * a2 + y) for x, y in zip(b1, b2)]
    b[schema.full_mask] = a
    return b


def tuple_row_bernoulli(p, schema):
    b = [p * p] * schema.num_subsets
    b[schema.full_mask] = p
    return b


def tuple_row_wor(n, N, schema):
    a = n / N
    b = [n * (n - 1) / (N * (N - 1)) if N > 1 else a] * schema.num_subsets
    b[schema.full_mask] = a
    return b


def tuple_lineage_bernoulli(dims, schema):
    s, b = LineageSchema(()), [1.0]
    for name in sorted(dims):
        one = LineageSchema.of([name])
        s, b = tuple_join_merge(s, b, one, tuple_row_bernoulli(dims[name], one))
    rest = LineageSchema.of(set(schema.relations) - set(dims))
    return tuple_join_merge(s, b, rest, [1.0] * rest.num_subsets)[1]


def tuple_c(b):
    """The subset Mobius transform, one bit at a time, in place."""
    z, bit = list(b), 1
    while bit < len(z):
        for m in range(len(z)):
            if m & bit:
                z[m] -= z[m ^ bit]
        bit <<= 1
    return z


def same_bits(table, reference):
    return table.dtype == np.float64 and table.tobytes() == np.array(reference).tobytes()


@st.composite
def inexact_tables(draw, names=("x", "y")):
    """Feasible tables whose entries round in every product and sum; ``a``
    stays below 0.99, so a union's rounding cannot carry an entry past 1."""
    schema = LineageSchema.of(names)
    a = draw(st.floats(0.01, 0.99))
    lo = max(0.0, 2.0 * a - 1.0)
    b = [lo + draw(st.floats(0.0, 1.0)) * (a - lo) for _ in range(schema.num_subsets)]
    b[schema.full_mask] = a
    return GusParams(schema, b)


def any_tables(names=("x", "y")):
    return st.one_of(gus_tables(names=names), inexact_tables(names=names))


class TestTablesBitExact:
    def check_pair(self, g1, g2):
        b1, b2 = g1.b.tolist(), g2.b.tolist()
        assert same_bits(compact(g1, g2).b, [x * y for x, y in zip(b1, b2)])
        assert same_bits(union_merge(g1, g2).b, tuple_union_merge(g1.schema, b1, b2))
        assert same_bits(c_coefficients(g1), tuple_c(b1))

    @settings(max_examples=200)
    @given(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]).flatmap(
        lambda names: st.tuples(any_tables(names), any_tables(names))))
    def test_compact_union_and_coefficients(self, pair):
        self.check_pair(*pair)

    def test_dyadic_tables_of_the_laws(self):
        tables = _dyadic_tables(50, seed=12, names=("x", "y", "z"))
        for g1, g2 in zip(tables, tables[1:]):
            self.check_pair(g1, g2)
        lefts, rights = _dyadic_tables(20, seed=13, names=("y",)), _dyadic_tables(
            20, seed=14, names=("x", "z"))
        for g1, g2 in zip(lefts, rights):
            expected = tuple_join_merge(g1.schema, g1.b.tolist(), g2.schema, g2.b.tolist())
            assert same_bits(join_merge(g1, g2).b, expected[1])

    @settings(max_examples=200)
    @given(split_schemas(), st.data())
    def test_join_merge(self, schemas, data):
        left, right = schemas
        g1, g2 = data.draw(any_tables(left.relations)), data.draw(any_tables(right.relations))
        merged, expected = tuple_join_merge(g1.schema, g1.b.tolist(), g2.schema, g2.b.tolist())
        got = join_merge(g1, g2)
        assert got.schema == merged and same_bits(got.b, expected)

    @given(st.floats(0.0, 1.0), st.integers(1, 60), st.integers(0, 60),
           st.lists(st.sampled_from("abcde"), unique=True, max_size=5))
    def test_single_sampler_tables(self, p, N, extra, names):
        schema = LineageSchema.of(names)
        n = N - extra % N
        assert same_bits(row_bernoulli_gus(p, schema).b, tuple_row_bernoulli(p, schema))
        assert same_bits(row_wor_gus(n, N, schema).b, tuple_row_wor(n, N, schema))

    @given(st.lists(st.sampled_from("abcde"), unique=True, min_size=1, max_size=5), st.data())
    def test_lineage_bernoulli(self, names, data):
        schema = LineageSchema.of(names)
        keyed = data.draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
        dims = {name: data.draw(st.floats(0.0, 1.0)) for name in keyed}
        assert same_bits(gus_of_lineage_bernoulli(dims, schema).b,
                         tuple_lineage_bernoulli(dims, schema))


class TestNormalizePlan:
    def test_query1_shape(self):
        plan = small_join_plan(BernoulliSpec(0.5, seed=1), WorSpec(2, seed=2))
        norm = normalize_plan(plan, execute(plan, small_join_catalog()).populations)
        expected = join_merge(
            row_bernoulli_gus(0.5, LineageSchema.of(["l"])),
            row_wor_gus(2, 3, LineageSchema.of(["o"])))
        assert norm.gus == expected
        assert [s.rule for s in norm.trace] == [
            "sampler_to_gus", "sampler_to_gus", "join_gus_merge"]

    def test_no_sampling_gives_identity(self):
        norm = normalize_plan(small_join_plan())
        assert norm.gus.is_identity
        assert norm.gus.schema == LineageSchema.of(["l", "o"])
        assert norm.trace == ()

    def test_identity_inserted_for_unsampled_join_side(self):
        plan = small_join_plan(BernoulliSpec(0.5, seed=1), None)
        norm = normalize_plan(plan)
        rules = [s.rule for s in norm.trace]
        assert rules == ["sampler_to_gus", "identity_gus", "join_gus_merge"]
        assert norm.gus == reference_extend_schema(
            row_bernoulli_gus(0.5, LineageSchema.of(["l"])), LineageSchema.of(["l", "o"]))

    def test_selection_commutes_without_changing_parameters(self):
        pred = (Comparison("l_val", ">", 2.0),)
        plan = SumAggregate(
            "l_val", Select(pred, Sample(BernoulliSpec(0.25, seed=1), Scan("l"))))
        norm = normalize_plan(plan)
        assert norm.gus == row_bernoulli_gus(0.25, LineageSchema.of(["l"]))

    def test_stacked_samplers_fuse(self):
        plan = SumAggregate(
            "l_val",
            Sample(BernoulliSpec(0.5, seed=2), Sample(BernoulliSpec(0.25, seed=1), Scan("l"))),
        )
        norm = normalize_plan(plan)
        assert norm.gus == row_bernoulli_gus(0.125, LineageSchema.of(["l"]))
        assert [s.rule for s in norm.trace] == [
            "sampler_to_gus", "sampler_to_gus", "gus_compact"]

    def test_union_of_two_samples(self):
        plan = SumAggregate(
            "l_val",
            UnionDedup(
                Sample(BernoulliSpec(0.5, seed=1), Scan("l")),
                Sample(BernoulliSpec(0.5, seed=2), Scan("l")),
            ),
        )
        norm = normalize_plan(plan)
        assert norm.gus == row_bernoulli_gus(0.75, LineageSchema.of(["l"]))

    def test_union_of_different_relations_rejected(self):
        pred = (Comparison("l_val", ">", 2.0),)
        plan = SumAggregate(
            "l_val",
            UnionDedup(
                Select(pred, Sample(BernoulliSpec(0.5, seed=1), Scan("l"))),
                Sample(BernoulliSpec(0.5, seed=2), Scan("l")),
            ),
        )
        with pytest.raises(PlanError, match="same relation"):
            normalize_plan(plan)

    def test_wor_needs_populations(self):
        plan = small_join_plan(None, WorSpec(2, seed=1))
        with pytest.raises(PlanError, match="no population size"):
            normalize_plan(plan)

    def test_wor_above_sampling_rejected(self):
        plan = SumAggregate(
            "l_val",
            Sample(WorSpec(2, seed=2), Sample(BernoulliSpec(0.5, seed=1), Scan("l"))),
        )
        with pytest.raises(PlanError, match="randomized input"):
            normalize_plan(plan)

    def test_wor_population_resolved_through_selection(self):
        catalog = small_join_catalog()
        pred = (Comparison("l_val", ">", 2.0),)  # keeps 4 of 6 rows
        plan = SumAggregate(
            "l_val", Sample(WorSpec(2, seed=1), Select(pred, Scan("l"))))
        norm = normalize_plan(plan, execute(plan, catalog).populations)
        assert norm.gus == row_wor_gus(2, 4, LineageSchema.of(["l"]))

    def test_bernoulli_above_join_covers_both_relations(self):
        plan = SumAggregate(
            "l_val*o_w",
            Sample(
                BernoulliSpec(0.5, seed=3),
                Join(Scan("l"), Scan("o"), eq=(("l_ok", "o_ok"),)),
            ),
        )
        norm = normalize_plan(plan)
        assert norm.gus == row_bernoulli_gus(0.5, LineageSchema.of(["l", "o"]))

    def test_lineage_bernoulli_above_sampled_join(self):
        catalog = small_join_catalog()
        inner = small_join_plan(BernoulliSpec(0.5, seed=1), WorSpec(2, seed=2))
        plan = SumAggregate(
            inner.expr,
            Sample(
                LineageBernoulliSpec.of({"l": (0.25, 5), "o": (0.5, 6)}),
                inner.child,
            ),
        )
        norm = normalize_plan(plan, execute(plan, catalog).populations)
        base = join_merge(
            row_bernoulli_gus(0.5, LineageSchema.of(["l"])),
            row_wor_gus(2, 3, LineageSchema.of(["o"])))
        stacked = compact(
            gus_of_lineage_bernoulli({"l": 0.25, "o": 0.5}, base.schema), base)
        assert norm.gus == stacked
        assert [s.rule for s in norm.trace][-2:] == ["sampler_to_gus", "gus_compact"]

    def test_keyed_dimensions_sharing_a_seed_rejected(self):
        plan = Sample(LineageBernoulliSpec.of({"r": (0.5, 5), "t": (0.6, 5)}),
                      Join(Scan("r"), Scan("t")))
        with pytest.raises(PlanError, match=r"plan\.method\.dims\.r and "
                                            r"plan\.method\.dims\.t share seed 5"):
            normalize_plan(plan)

    def test_keyed_plans_with_distinct_seeds_keep_their_tables(self):
        for r_seed, t_seed in ((5, 6), (6, 5), (7, 90)):
            keyed = LineageBernoulliSpec.of({"r": (0.5, r_seed), "t": (0.6, t_seed)})
            norm = normalize_plan(Sample(keyed, Join(Scan("r"), Scan("t"))))
            assert norm.gus == gus_of_lineage_bernoulli(
                {"r": 0.5, "t": 0.6}, LineageSchema.of(["r", "t"]))

    def test_row_samplers_sharing_a_seed_rejected(self):
        # both Bernoulli samplers would draw the same PCG64 stream
        plan = Join(Sample(BernoulliSpec(0.5, seed=0), Scan("r")),
                    Sample(BernoulliSpec(0.5, seed=0), Scan("t")))
        with pytest.raises(PlanError, match=r"plan\.left\.method and "
                                            r"plan\.right\.method share seed 0"):
            normalize_plan(plan)

    def test_row_samplers_with_distinct_seeds_keep_their_table(self):
        plan = Join(Sample(BernoulliSpec(0.5, seed=1), Scan("r")),
                    Sample(BernoulliSpec(0.5, seed=2), Scan("t")))
        assert normalize_plan(plan).gus == join_merge(
            row_bernoulli_gus(0.5, LineageSchema.of(["r"])),
            row_bernoulli_gus(0.5, LineageSchema.of(["t"])))

    def test_row_sampler_and_keyed_dimension_may_share_a_number(self):
        keyed = LineageBernoulliSpec.of({"t": (0.6, 3)})
        plan = Join(Sample(BernoulliSpec(0.5, seed=3), Scan("r")), Sample(keyed, Scan("t")))
        assert normalize_plan(plan).gus == join_merge(
            row_bernoulli_gus(0.5, LineageSchema.of(["r"])),
            row_bernoulli_gus(0.6, LineageSchema.of(["t"])))

    def test_other_plan_errors_name_the_node(self):
        plan = SumAggregate("l_val", Join(Scan("o"), Sample(WorSpec(2, seed=1), Select(
            (Comparison("l_val", ">", 2.0),), Scan("l")))))
        with pytest.raises(PlanError, match=r"^plan\.child\.right: no population size"):
            normalize_plan(plan)

    def test_four_relation_chain_matches_hand_composition(self, desk_catalog):
        from conftest import four_relation_plan

        plan = four_relation_plan(p_l=0.3, n_o=25, p_p=0.5)
        norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
        expected = join_merge(
            join_merge(
                join_merge(
                    row_bernoulli_gus(0.3, LineageSchema.of(["l"])),
                    row_wor_gus(25, 75, LineageSchema.of(["o"]))),
                identity_gus(LineageSchema.of(["c"])),
            ),
            row_bernoulli_gus(0.5, LineageSchema.of(["p"])),
        )
        assert norm.gus == expected
        assert [s.rule for s in norm.trace] == [
            "sampler_to_gus", "sampler_to_gus", "join_gus_merge",
            "identity_gus", "join_gus_merge",
            "sampler_to_gus", "join_gus_merge",
        ]

    def test_self_join_rejected(self):
        plan = SumAggregate(
            "l_val", Join(Scan("l"), Sample(BernoulliSpec(0.5), Scan("l"))))
        with pytest.raises(SelfJoinError):
            normalize_plan(plan)



_OVER_2 = (Comparison("l_val", ">", 2.0),)  # keeps 4 of the 6 l rows

# plan, and the plan path and full-data population size of each WOR in it
WOR_PLANS = {
    "under_select": (
        SumAggregate("l_val", Select(_OVER_2, Sample(WorSpec(2, seed=1), Select(
            (Comparison("l_val", "<", 7.0),), Scan("l"))))),
        {"plan.child.child": 5}),
    "over_join": (
        SumAggregate("l_val*o_w", Sample(WorSpec(4, seed=3), Join(
            Scan("l"), Scan("o"), eq=(("l_ok", "o_ok"),)))),
        {"plan.child": 6}),
    "join_side": (small_join_plan(BernoulliSpec(0.5, seed=1), WorSpec(2, seed=2)),
                  {"plan.child.right": 3}),
    "both_union_sides": (
        SumAggregate("l_val", UnionDedup(
            Sample(WorSpec(2, seed=1), Select(_OVER_2, Scan("l"))),
            Sample(WorSpec(3, seed=2), Select(_OVER_2, Scan("l"))))),
        {"plan.child.left": 4, "plan.child.right": 4}),
}


class TestRewriteFromExecution:
    @pytest.mark.parametrize("name", sorted(WOR_PLANS))
    def test_result_and_catalog_give_the_same_rewrite(self, name):
        plan, populations = WOR_PLANS[name]
        catalog = small_join_catalog()
        executed = execute(plan, catalog, master_seed=3)
        assert executed.populations == populations
        # each WOR's population as the catalog gives it: its input, run alone
        from_catalog = {}
        for path in populations:
            node = plan
            for attr in path.split(".")[1:]:
                node = getattr(node, attr)
            from_catalog[path] = len(execute(node.child, catalog).relation)
        assert normalize_plan(plan, executed.populations) == normalize_plan(plan, from_catalog)

    def test_population_keys_are_plan_document_paths(self, desk_catalog):
        doc = query1_document(n=20)
        right = doc["plan"]["child"]["child"]["right"]
        right["child"] = {"op": "select", "child": right["child"],
                          "where": [{"col": "o_totalprice", "cmp": ">", "value": 0.0}]}
        plan = parse_plan(json.dumps(doc)).plan
        assert plan.child.child.right.method == WorSpec(20, seed=2)
        assert execute(plan, desk_catalog).populations == {"plan.child.child.right": 75}

    def test_run_of_another_plan_is_rejected_with_the_path(self):
        plan, _ = WOR_PLANS["both_union_sides"]
        other, _ = WOR_PLANS["under_select"]
        catalog = small_join_catalog()
        with pytest.raises(PlanError, match=r"^plan\.child\.left: .*no population"):
            normalize_plan(plan, execute(other, catalog).populations)
        unsampled = execute(strip_sampling(plan), catalog)
        assert unsampled.populations == {}
        with pytest.raises(PlanError, match=r"^plan\.child\.left: .*no population"):
            normalize_plan(plan, unsampled.populations)
