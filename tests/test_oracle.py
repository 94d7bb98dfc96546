"""Ground-truth machinery: exact group-by terms, configuration enumeration,
Monte Carlo moments, and inclusion frequencies."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gusbox import (
    BernoulliSpec,
    EnumerationInfeasibleError,
    Join,
    JoinSpec,
    LineageBernoulliSpec,
    LineageSchema,
    PlanError,
    Row,
    Sample,
    SampleRelation,
    Scan,
    SumAggregate,
    WorSpec,
    execute,
    execute_full,
    y_sample_terms,
)
from gusbox.algebra import gus_of_lineage_bernoulli, join_merge, normalize_plan, row_bernoulli_gus
from gusbox.oracle import (
    compare_inclusion_to_gus,
    enumerate_exact_moments,
    inclusion_probabilities,
    monte_carlo_moments,
)
from gusbox.oracle import exact_y_terms

from conftest import (
    base_table,
    lineage_relation,
    mask_of_key,
    query1_plan,
    small_join_catalog,
    small_join_plan,
)


class TestExactYTerms:
    def test_single_row_constant(self):
        rel = lineage_relation(["l", "o"], [((1, 1), 2.5)])
        assert exact_y_terms(rel) == {s: 6.25 for s in range(4)}

    def test_two_disjoint_rows(self):
        schema = LineageSchema.of(["l", "o"])
        rel = lineage_relation(["l", "o"], [((1, 1), 1.0), ((2, 2), 1.0)])
        y = exact_y_terms(rel)
        assert y[schema.full_mask] == 2.0
        assert y[0] == 4.0
        assert y[mask_of_key(schema, "l")] == 2.0
        assert y[mask_of_key(schema, "o")] == 2.0

    def test_agrees_with_streaming_implementation_on_full_data(self, desk_catalog):
        rel = execute_full(query1_plan(), desk_catalog).relation
        assert exact_y_terms(rel) == y_sample_terms(rel)

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.floats(-5, 5, allow_nan=False)),
        max_size=14, unique_by=lambda t: (t[0], t[1])))
    @settings(max_examples=200)
    def test_bit_identical_to_streaming_implementation(self, entries):
        rel = lineage_relation(["l", "o"], [((a, b), f) for a, b, f in entries])
        assert exact_y_terms(rel) == y_sample_terms(rel)


class TestEnumeration:
    def test_unsampled_plan_has_zero_variance(self):
        catalog = small_join_catalog()
        plan = small_join_plan()
        truth = execute_full(plan, catalog).aggregate
        mean, variance = enumerate_exact_moments(plan, catalog, 1.0)
        assert mean == pytest.approx(truth, rel=1e-12)
        assert variance == pytest.approx(0.0, abs=1e-18)

    def test_bernoulli_closed_form_variance(self):
        table = base_table("t", ("t_v",), ("float64",), ids=(0, 1, 2),
                           rows=((2.0,), (3.0,), (5.0,)))
        p = 0.4
        plan = SumAggregate("t_v", Sample(BernoulliSpec(p, seed=1), Scan("t")))
        mean, variance = enumerate_exact_moments(plan, {"t": table}, p)
        assert mean == pytest.approx(10.0, rel=1e-12)
        expected = (1.0 / p - 1.0) * (4.0 + 9.0 + 25.0)
        assert variance == pytest.approx(expected, rel=1e-12)

    def test_join_plan_mean_equals_truth(self):
        catalog = small_join_catalog()
        plan = small_join_plan(BernoulliSpec(0.5, seed=1), None)
        truth = execute_full(plan, catalog).aggregate
        mean, variance = enumerate_exact_moments(plan, catalog, 0.5)
        assert mean == pytest.approx(truth, rel=1e-12)
        assert variance > 0.0

    def test_budget_guard(self):
        table = base_table("t", ("t_v",), ("float64",), ids=tuple(range(12)),
                           rows=tuple((float(i),) for i in range(12)))
        plan = SumAggregate("t_v", Sample(BernoulliSpec(0.5, seed=1), Scan("t")))
        with pytest.raises(EnumerationInfeasibleError):
            enumerate_exact_moments(plan, {"t": table}, 0.5, budget=1000)

    @pytest.mark.parametrize("method, states", [
        (BernoulliSpec(0.5, seed=1), "2**20000"),
        (WorSpec(5000, seed=1), "C(20000, 5000)"),
        (LineageBernoulliSpec((("t", 0.5, 1),)), "2**20000"),
    ], ids=["bernoulli", "wor", "keyed"])
    def test_budget_guard_on_large_inputs(self, method, states):
        # 2**20000 has over 6000 digits: formatting it would raise
        # ValueError, and computing C(20000, 5000) in full is slow
        m = 20_000
        table = base_table("t", ("t_v",), ("float64",), ids=tuple(range(m)),
                           rows=tuple((float(i),) for i in range(m)))
        plan = SumAggregate("t_v", Sample(method, Scan("t")))
        a = normalize_plan(plan, execute(plan, {"t": table}).populations).gus.a
        with pytest.raises(EnumerationInfeasibleError,
                           match=rf"need {re.escape(states)} states, budget is 1048576"):
            enumerate_exact_moments(plan, {"t": table}, a)

    def test_wor_within_budget_counts_exactly(self):
        table = base_table("t", ("t_v",), ("float64",), ids=tuple(range(12)),
                           rows=tuple((float(i),) for i in range(12)))
        plan = SumAggregate("t_v", Sample(WorSpec(6, seed=1), Scan("t")))
        # C(12, 6) = 924 states fit a budget of 924 and not one of 923
        mean, _ = enumerate_exact_moments(plan, {"t": table}, 0.5, budget=924)
        assert mean == pytest.approx(66.0, rel=1e-12)
        with pytest.raises(EnumerationInfeasibleError, match=r"C\(12, 6\)"):
            enumerate_exact_moments(plan, {"t": table}, 0.5, budget=923)


class TestMonteCarlo:
    def test_deterministic_plan_has_zero_spread(self):
        catalog = small_join_catalog()
        mean, variance, stderr = monte_carlo_moments(
            small_join_plan(), catalog, 1.0, trials=50, seed=1)
        assert variance == 0.0
        assert stderr == 0.0

    def test_agrees_with_enumeration(self):
        catalog = small_join_catalog()
        plan = small_join_plan(BernoulliSpec(0.5, seed=1), None)
        exact_mean, exact_var = enumerate_exact_moments(plan, catalog, 0.5)
        mean, variance, stderr = monte_carlo_moments(plan, catalog, 0.5, trials=5000, seed=3)
        assert abs(mean - exact_mean) <= 5.0 * stderr
        # sampled variance tracks the exact one loosely at this trial count
        assert variance == pytest.approx(exact_var, rel=0.2)

    def test_reproducible(self):
        catalog = small_join_catalog()
        plan = small_join_plan(BernoulliSpec(0.5, seed=1), None)
        assert monte_carlo_moments(plan, catalog, 0.5, 200, seed=9) == \
            monte_carlo_moments(plan, catalog, 0.5, 200, seed=9)


class TestSharedKeyedSeeds:
    """Keyed decisions hash only (seed, base-tuple id), so two dimensions
    with one seed decide alike wherever their ids coincide. The inclusion
    check sees that correlation; the moment oracles refuse such plans."""

    @staticmethod
    def _plan_and_catalog(r_seed, t_seed):
        catalog = {
            "r": base_table("r", ("r_v",), ("float64",), ids=(1, 2, 3, 4),
                            rows=((1.0,), (2.0,), (3.0,), (4.0,))),
            "t": base_table("t", ("t_v",), ("float64",), ids=(1, 2, 3),
                            rows=((1.0,), (1.0,), (2.0,))),
        }
        keyed = LineageBernoulliSpec.of({"r": (0.5, r_seed), "t": (0.6, t_seed)})
        plan = SumAggregate("r_v*t_v", Sample(keyed, Join(JoinSpec(), Scan("r"), Scan("t"))))
        return plan, catalog

    def test_inclusion_check_sees_the_correlation(self):
        schema = LineageSchema.of(["r", "t"])
        independent = gus_of_lineage_bernoulli({"r": 0.5, "t": 0.6}, schema)
        trials = 5000
        outcomes = {}
        for seeds in ((5, 6), (5, 5)):
            plan, catalog = self._plan_and_catalog(*seeds)
            first, second = inclusion_probabilities(plan, catalog, trials, seed=17)
            outcomes[seeds] = compare_inclusion_to_gus(
                first, second, independent, trials)[0]
        assert not outcomes[(5, 6)]
        assert outcomes[(5, 5)]

    def test_moment_oracles_reject(self):
        plan, catalog = self._plan_and_catalog(5, 5)
        with pytest.raises(PlanError, match="share seed 5"):
            enumerate_exact_moments(plan, catalog, 0.3)
        with pytest.raises(PlanError, match="share seed 5"):
            monte_carlo_moments(plan, catalog, 0.3, trials=10, seed=1)


class TestSharedRowSeeds:
    """Row samplers with one seed draw one PCG64 stream, so on equally long
    inputs they keep the same positions. The inclusion check sees that
    correlation; ``normalize_plan`` refuses such plans."""

    @staticmethod
    def _plan_and_catalog(r_seed, t_seed):
        catalog = {
            name: base_table(name, (f"{name}_v",), ("float64",), ids=(1, 2, 3),
                             rows=((1.0,), (2.0,), (3.0,)))
            for name in ("r", "t")
        }
        plan = SumAggregate("r_v*t_v", Join(
            JoinSpec(),
            Sample(BernoulliSpec(0.5, seed=r_seed), Scan("r")),
            Sample(BernoulliSpec(0.5, seed=t_seed), Scan("t"))))
        return plan, catalog

    def test_inclusion_check_sees_the_correlation(self):
        independent = join_merge(
            row_bernoulli_gus(0.5, LineageSchema.of(["r"])),
            row_bernoulli_gus(0.5, LineageSchema.of(["t"])))
        trials = 5000
        outcomes = {}
        for seeds in ((1, 2), (0, 0)):
            plan, catalog = self._plan_and_catalog(*seeds)
            first, second = inclusion_probabilities(plan, catalog, trials, seed=17)
            outcomes[seeds] = compare_inclusion_to_gus(
                first, second, independent, trials)[0]
        assert not outcomes[(1, 2)]
        assert outcomes[(0, 0)]
        plan, _ = self._plan_and_catalog(0, 0)
        with pytest.raises(PlanError, match="share seed 0"):
            normalize_plan(plan)


def exact_inclusion_from_enumeration(node, catalog):
    """Exact single and pairwise inclusion probabilities by weighting every
    sampling configuration; the zero-noise twin of the Monte Carlo oracle."""
    import itertools

    from gusbox.oracle import enumerate_outcomes

    first, second = {}, {}
    for rel, weight in enumerate_outcomes(node, catalog, 1 << 20):
        present = sorted(row.lineage for row in rel.rows)
        for t in present:
            first[t] = first.get(t, 0.0) + weight
        for pair in itertools.combinations(present, 2):
            second[pair] = second.get(pair, 0.0) + weight
    return first, second


class TestExactRewriteSoundness:
    """Every rewrite rule, validated with zero statistical noise: the
    normalized parameter table must reproduce the enumerated inclusion
    probabilities of the original plan at float precision."""

    def _assert_plan_matches_table(self, relational_child, catalog, tol=1e-12):
        from itertools import combinations

        from gusbox import SumAggregate, common_lineage

        plan = SumAggregate("l_val", relational_child)
        norm = normalize_plan(plan, execute(plan, catalog).populations)
        first, second = exact_inclusion_from_enumeration(relational_child, catalog)
        universe = sorted(
            row.lineage
            for row in execute_full(relational_child, catalog).relation.rows
        )
        assert universe, "degenerate instance"
        for t in universe:
            assert first.get(t, 0.0) == pytest.approx(norm.gus.a, abs=tol), t
        for t, u in combinations(universe, 2):
            expected = norm.gus.b[common_lineage(t, u)]
            assert second.get((t, u), 0.0) == pytest.approx(expected, abs=tol), (t, u)

    def test_join_merge(self):
        catalog = small_join_catalog()
        self._assert_plan_matches_table(
            small_join_plan(BernoulliSpec(0.5, seed=1), WorSpec(2, seed=2)).child,
            catalog)

    def test_identity_extension_for_unsampled_side(self):
        catalog = small_join_catalog()
        self._assert_plan_matches_table(
            small_join_plan(BernoulliSpec(0.5, seed=1), None).child, catalog)

    def test_selection_commutes(self):
        from gusbox import Comparison, Predicate, Select

        catalog = small_join_catalog()
        node = Select(
            Predicate((Comparison("l_val", ">", 2.0),)),
            Sample(BernoulliSpec(0.5, seed=1), Scan("l")),
        )
        self._assert_plan_matches_table(node, catalog)

    def test_union_merge(self):
        from gusbox import UnionDedup

        catalog = small_join_catalog()
        node = UnionDedup(
            Sample(BernoulliSpec(0.375, seed=1), Scan("l")),
            Sample(BernoulliSpec(0.625, seed=2), Scan("l")),
        )
        self._assert_plan_matches_table(node, catalog)

    def test_compaction_of_stacked_filters(self):
        catalog = small_join_catalog()
        node = Sample(
            BernoulliSpec(0.5, seed=2), Sample(BernoulliSpec(0.75, seed=1), Scan("l")))
        self._assert_plan_matches_table(node, catalog)

    def test_keyed_composition_over_sampled_join(self):
        from gusbox import Join, JoinSpec, LineageBernoulliSpec

        catalog = small_join_catalog()
        node = Sample(
            LineageBernoulliSpec.of({"l": (0.5, 5), "o": (0.75, 6)}),
            Join(JoinSpec(equi=(("l_ok", "o_ok"),)),
                 Sample(BernoulliSpec(0.5, seed=1), Scan("l")),
                 Scan("o")),
        )
        self._assert_plan_matches_table(node, catalog)

    def test_wor_above_join_is_row_uniform(self):
        from gusbox import Join, JoinSpec

        catalog = small_join_catalog()
        node = Sample(
            WorSpec(2, seed=1),
            Join(JoinSpec(equi=(("l_ok", "o_ok"),)), Scan("l"), Scan("o")),
        )
        self._assert_plan_matches_table(node, catalog)

    def test_composite_plan_exercising_every_rule(self):
        # selection + stacked filters + union + join + keyed filter in one tree
        from gusbox import (
            Comparison,
            Join,
            JoinSpec,
            LineageBernoulliSpec,
            Predicate,
            Select,
            UnionDedup,
        )

        catalog = small_join_catalog()
        unioned = UnionDedup(
            Sample(BernoulliSpec(0.5, seed=1), Scan("l")),
            Sample(BernoulliSpec(0.5, seed=2), Scan("l")),
        )
        node = Sample(
            LineageBernoulliSpec.of({"o": (0.5, 9)}),
            Select(
                Predicate((Comparison("l_val", ">", 1.0),)),
                Join(JoinSpec(equi=(("l_ok", "o_ok"),)),
                     Sample(BernoulliSpec(0.5, seed=3), unioned),
                     Sample(WorSpec(2, seed=4), Scan("o"))),
            ),
        )
        self._assert_plan_matches_table(node, catalog)


class TestVarianceFormulaOnEveryRule:
    """Variance from exact data terms and the normalized coefficients must
    equal the enumerated estimator variance for each combining rule."""

    def _assert_variance_matches(self, plan, catalog):
        from gusbox.algebra import c_coefficients
        from gusbox.estimator import variance_estimate

        norm = normalize_plan(plan, execute(plan, catalog).populations)
        full = execute_full(plan, catalog)
        mean, variance = enumerate_exact_moments(plan, catalog, norm.gus.a)
        assert mean == pytest.approx(full.aggregate, rel=1e-12)
        from_tables = variance_estimate(
            exact_y_terms(full.relation), c_coefficients(norm.gus), norm.gus.a)
        assert from_tables == pytest.approx(variance, rel=1e-9)
        assert variance > 0.0

    def test_union_plan(self):
        from gusbox import UnionDedup

        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val",
            UnionDedup(
                Sample(BernoulliSpec(0.375, seed=1), Scan("l")),
                Sample(BernoulliSpec(0.625, seed=2), Scan("l")),
            ),
        )
        self._assert_variance_matches(plan, catalog)

    def test_stacked_plan(self):
        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val",
            Sample(BernoulliSpec(0.5, seed=2),
                   Sample(BernoulliSpec(0.75, seed=1), Scan("l"))),
        )
        self._assert_variance_matches(plan, catalog)

    def test_keyed_filter_plan(self):
        from gusbox import Join, JoinSpec, LineageBernoulliSpec

        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val*o_w",
            Sample(
                LineageBernoulliSpec.of({"l": (0.5, 5), "o": (0.75, 6)}),
                Join(JoinSpec(equi=(("l_ok", "o_ok"),)),
                     Sample(BernoulliSpec(0.5, seed=1), Scan("l")),
                     Scan("o")),
            ),
        )
        self._assert_variance_matches(plan, catalog)

    def test_wor_over_selection_plan(self):
        from gusbox import Comparison, Predicate, Select

        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val",
            Sample(WorSpec(2, seed=1),
                   Select(Predicate((Comparison("l_val", ">", 2.0),)), Scan("l"))),
        )
        self._assert_variance_matches(plan, catalog)

    def test_wor_over_join_plan(self):
        from gusbox import Join, JoinSpec

        catalog = small_join_catalog()
        plan = SumAggregate(
            "l_val*o_w",
            Sample(WorSpec(3, seed=1),
                   Join(JoinSpec(equi=(("l_ok", "o_ok"),)), Scan("l"), Scan("o"))),
        )
        self._assert_variance_matches(plan, catalog)


class TestInclusionProbabilities:
    def test_unsampled_plan_is_always_included(self):
        catalog = small_join_catalog()
        first, second = inclusion_probabilities(small_join_plan(), catalog,
                                                trials=20, seed=1)
        assert all(v == 1.0 for v in first.values())
        assert all(v == 1.0 for v in second.values())

    def test_bernoulli_scan_first_order(self):
        table = base_table("t", ("t_v",), ("float64",), ids=(0, 1, 2),
                           rows=((1.0,), (1.0,), (1.0,)))
        plan = SumAggregate("t_v", Sample(BernoulliSpec(0.1, seed=1), Scan("t")))
        trials = 20_000
        first, _ = inclusion_probabilities(plan, {"t": table}, trials=trials, seed=5)
        sigma = math.sqrt(0.1 * 0.9 / trials)
        for freq in first.values():
            assert abs(freq - 0.1) <= 5.0 * sigma

    def test_comparison_helper_flags_wrong_tables(self):
        catalog = small_join_catalog()
        plan = small_join_plan(BernoulliSpec(0.5, seed=1), None)
        trials = 4000
        first, second = inclusion_probabilities(plan, catalog, trials=trials, seed=2)
        right = normalize_plan(plan).gus
        violations, worst = compare_inclusion_to_gus(first, second, right, trials)
        assert violations == []
        assert worst < 5.0
        wrong = normalize_plan(small_join_plan(BernoulliSpec(0.25, seed=1), None)).gus
        violations, worst = compare_inclusion_to_gus(first, second, wrong, trials)
        assert violations
        assert worst > 5.0
