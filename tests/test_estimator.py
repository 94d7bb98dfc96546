"""Estimates, variance terms, the unbiased correction, and intervals."""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gusbox import (
    DegenerateSamplingError,
    LineageSchema,
    NotIdentifiableError,
    NumericOverflowError,
    SchemaError,
    analyze,
    confidence_interval,
    estimate_sum,
    execute,
    execute_full,
    quantile_bounds,
    variance_estimate,
    y_sample_terms,
    y_unbiased,
)
from gusbox.algebra import (
    c_coefficients,
    compact,
    gus_of_lineage_bernoulli,
    identity_gus,
    join_merge,
    normalize_plan,
    row_bernoulli_gus,
    row_wor_gus,
)
from gusbox.engine import bind_aggregate
from gusbox.oracle import enumerate_outcomes, exact_y_terms
from gusbox.plan import (
    BernoulliSpec,
    LineageBernoulliSpec,
    Sample,
    Scan,
    SumAggregate,
    WorSpec,
)

from conftest import (
    by_mask,
    four_relation_plan,
    gus_from_json,
    gus_tables,
    lineage_relation,
    mask_of_key,
    query1_plan,
    small_join_catalog,
    small_join_plan,
)


README = Path(__file__).resolve().parent.parent / "README.md"

# Reference implementations: the direct subset sums that the O(n * 2**n)
# transforms in the estimator and in algebra.c_coefficients replace.

def submasks(mask):
    """Yield every subset of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def recursion_coefficient(g, s, t):
    """Weight of y[s | t] in the expectation of the sample term Y[s]."""
    total = 0.0
    for u in submasks(t):
        term = g.b[s | u]
        if (t ^ u).bit_count() & 1:
            total -= term
        else:
            total += term
    return total


def top_down_y_unbiased(y_sample, g):
    """O(4**n) correction, top-down from the full mask:

        yhat[full] = Y[full] / b[full]
        yhat[S] = (Y[S] - sum over non-empty T <= complement(S) of
                   k(S, T) * yhat[S | T]) / b[S]
        k(S, T) = recursion_coefficient(g, S, T)

    which inverts E[Y[S]] = sum over T of k(S, T) * y[S | T].
    """
    full = g.schema.full_mask
    yhat = {full: y_sample[full] / g.b[full]}
    for s in sorted(range(full + 1), key=int.bit_count, reverse=True):
        if s == full:
            continue
        acc = y_sample[s]
        for t in submasks(full ^ s):
            if t:
                acc -= recursion_coefficient(g, s, t) * yhat[s | t]
        yhat[s] = acc / g.b[s]
    return yhat


def alternating_sum_y_unbiased(y_sample, g):
    """yhat[S] = sum over T >= S of Z[T] / b[T], where
    Z[T] = sum over U >= T of (-1)**|U - T| * Y[U]."""
    full = g.schema.full_mask
    z = {t: math.fsum((-1) ** (u ^ t).bit_count() * y_sample[u]
                      for u in range(full + 1) if u & t == t)
         for t in range(full + 1)}
    return {s: math.fsum(z[t] / g.b[t] for t in range(full + 1) if t & s == s)
            for s in range(full + 1)}


def alternating_sum_c(g):
    """c[S] = sum over T <= S of (-1)**|S - T| * b[T]."""
    return {s: math.fsum((-1) ** (s ^ t).bit_count() * g.b[t] for t in submasks(s))
            for s in range(g.schema.num_subsets)}


NAME_SETS = [("r",), ("r", "s"), ("r", "s", "t"), ("q", "r", "s", "t"),
             ("p", "q", "r", "s", "t")]

# negative ids, ids above 2**53 (not exact as doubles) and both int64 ends
LINEAGE_IDS = [-(2**63), -7, -1, 0, 1, 2, 3, 2**53, 2**53 + 1, 2**63 - 1]


@st.composite
def random_relations(draw, names=None):
    """Up to 25 rows over ``names`` (default: r0.. with 1 to 6 relations)."""
    if names is None:
        names = [f"r{i}" for i in range(draw(st.integers(1, 6)))]
    lineages = draw(st.lists(
        st.tuples(*[st.sampled_from(LINEAGE_IDS)] * len(names)), max_size=25,
        unique=True))
    fs = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=len(lineages), max_size=len(lineages)))
    return lineage_relation(names, list(zip(lineages, fs)))


def assert_tables_close(got, expected):
    # the floor covers subnormal results, which carry fewer significant bits
    floor = max(1e-12 * max(abs(v) for v in expected.values()), 1e-300)
    got = by_mask(got)
    assert got.keys() == expected.keys()
    for s, v in expected.items():
        assert got[s] == pytest.approx(v, rel=1e-12, abs=floor), s


class TestEstimateSum:
    def test_unit_a_is_plain_sum(self):
        rel = lineage_relation(["r"], [((1,), 2.0), ((2,), 3.0)])
        assert estimate_sum(rel, 1.0) == 5.0

    def test_scaling(self):
        rel = lineage_relation(["r"], [((1,), 5.0)])
        assert estimate_sum(rel, 0.1) == pytest.approx(50.0, rel=1e-12)

    def test_zero_a_rejected(self):
        rel = lineage_relation(["r"], [((1,), 5.0)])
        with pytest.raises(DegenerateSamplingError):
            estimate_sum(rel, 0.0)


class TestYSampleTerms:
    def test_single_row(self):
        rel = lineage_relation(["l", "o"], [((1, 1), 3.0)])
        assert by_mask(y_sample_terms(rel)) == {0: 9.0, 1: 9.0, 2: 9.0, 3: 9.0}

    def test_two_rows_sharing_one_side(self):
        schema = LineageSchema.of(["l", "o"])
        l_mask = mask_of_key(schema, "l")
        full = schema.full_mask
        rel = lineage_relation(["l", "o"], [((5, 1), 1.0), ((5, 2), 1.0)])
        y = y_sample_terms(rel)
        assert y[l_mask] == 4.0
        assert y[full] == 2.0
        assert y[0] == 4.0

    def test_matches_groupby_oracle_on_a_real_sample(self, desk_catalog):
        res = execute(query1_plan(), desk_catalog, master_seed=3)
        assert len(res.relation) > 5
        assert by_mask(y_sample_terms(res.relation)) == exact_y_terms(res.relation)

    def test_empty_relation_gives_zeros(self):
        rel = lineage_relation(["l", "o", "p"], [])
        assert by_mask(y_sample_terms(rel)) == exact_y_terms(rel) == dict.fromkeys(range(8), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(random_relations())
    # a pairwise sum of these 16 squares differs from the sequential one
    @example(lineage_relation(["r"], [((k,), k / 10) for k in range(1, 17)]))
    def test_bit_identical_with_oracle(self, rel):
        got = by_mask(y_sample_terms(rel))
        expected = exact_y_terms(rel)
        assert got.keys() == expected.keys()
        for s, v in expected.items():
            assert got[s].hex() == v.hex(), s


@st.composite
def relations_with_unique_column(draw):
    """2 to 6 lineage columns; the column at ``where`` (lowest, middle,
    highest or none) holds a distinct id per row, the others repeat ids
    from a small pool, so groups first become singletons at different
    depths of the subset walk."""
    n = draw(st.integers(2, 6))
    where = draw(st.sampled_from([0, n // 2, n - 1, None]))
    m = draw(st.integers(1, 25))
    unique_ids = draw(st.permutations(range(m)))
    rows = {}
    for k in range(m):
        lineage = [draw(st.integers(0, 2)) for _ in range(n)]
        if where is not None:
            lineage[where] = unique_ids[k]
        rows.setdefault(tuple(lineage), None)
    # squares of widely spread magnitudes, so that summing the same terms
    # in another key order changes the last bits
    fs = draw(st.lists(
        st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                  st.sampled_from([1e8, -1e8, 1.0, 3.0])),
        min_size=len(rows), max_size=len(rows)))
    return lineage_relation([f"r{i}" for i in range(n)], list(zip(rows, fs)))


class TestSingletonStop:
    """``y_sample_terms`` stops descending once every row is its own group."""

    @settings(max_examples=300, deadline=None)
    @given(relations_with_unique_column())
    # unique last column: by it alone the squares add up as 1e16 + 1 + 1,
    # by (r0, r2) as 1 + 1 + 1e16, which rounds differently
    @example(lineage_relation(["r0", "r1", "r2"], [
        ((1, 0, 0), 1e8), ((0, 0, 1), 1.0), ((0, 0, 2), 1.0)]))
    def test_bit_identical_with_oracle(self, rel):
        got = by_mask(y_sample_terms(rel))
        expected = exact_y_terms(rel)
        assert got.keys() == expected.keys()
        for s, v in expected.items():
            assert got[s].hex() == v.hex(), s

    def test_walk_skips_subtrees_of_singleton_groups(self, monkeypatch):
        # columns r0 and r5 are unique, so the whole subtree under {r0}
        # comes from one group-by: at most the root, {r0}, and the 2**5 - 1
        # non-empty subsets of r1..r5 are grouped, instead of all 2**6
        # subsets. r5 runs against r0, and the squares 1e16, 1, ..., 1 add
        # up to different bits in the two orders, so a singleton {r5}
        # filling {r0, r5} as well would be caught
        n = 6
        entries = [((k, k % 2, k % 3, k // 2, k // 3, 11 - k), 1e8 if k == 0 else 1.0)
                   for k in range(12)]
        rel = lineage_relation([f"r{i}" for i in range(n)], entries)
        calls = []
        real = np.bincount

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        got = y_sample_terms(rel)
        assert len(got) == 1 << n
        assert len(calls) <= (1 << n - 1) + 1
        monkeypatch.undo()
        assert by_mask(got) == exact_y_terms(rel)


class TestYUnbiased:
    def test_identity_returns_input(self):
        rel = lineage_relation(["l", "o"], [((1, 1), 2.0), ((2, 2), 3.0)])
        y = y_sample_terms(rel)
        assert y_unbiased(y, identity_gus(rel.schema)).tolist() == y.tolist()

    def test_single_relation_closed_form(self):
        p = 0.25
        g = row_bernoulli_gus(p, LineageSchema.of(["r"]))
        y = [40.0, 12.0]
        got = y_unbiased(y, g)
        y_r = y[1] / p
        assert got[1] == pytest.approx(y_r, rel=1e-12)
        assert got[0] == pytest.approx((y[0] - (p - p * p) * y_r) / (p * p), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference_implementations(self, data):
        names = data.draw(st.sampled_from(NAME_SETS))
        g = data.draw(gus_tables(names=names).filter(lambda t: min(t.b) > 0.0))
        y = y_sample_terms(data.draw(random_relations(names=names)))
        got = y_unbiased(y, g)
        assert_tables_close(got, top_down_y_unbiased(y, g))
        assert_tables_close(got, alternating_sum_y_unbiased(y, g))

    def test_zero_pair_probability_names_subset(self):
        g = row_wor_gus(1, 4, LineageSchema.of(["o"]))
        with pytest.raises(NotIdentifiableError, match="empty"):
            y_unbiased([1.0, 1.0], g)

    def test_exactly_unbiased_under_enumeration(self):
        # weight every sampling outcome of a small plan; the expectation of
        # the corrected terms must equal the full-data terms
        catalog = small_join_catalog()
        plan = small_join_plan(BernoulliSpec(0.6, seed=1), WorSpec(2, seed=2))
        norm = normalize_plan(plan, execute(plan, catalog).populations)
        y_true = exact_y_terms(execute_full(plan, catalog).relation)
        expectation = {s: 0.0 for s in y_true}
        for rel, weight in enumerate_outcomes(plan.child, catalog, 1 << 20):
            y_hat = y_unbiased(y_sample_terms(bind_aggregate(plan.expr, rel)), norm.gus)
            for s, v in enumerate(y_hat.tolist()):
                expectation[s] += weight * v
        for s, expected in y_true.items():
            assert expectation[s] == pytest.approx(expected, rel=1e-9)


class TestCCoefficients:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(NAME_SETS).flatmap(lambda names: gus_tables(names=names)))
    def test_matches_alternating_sum_definition(self, g):
        assert_tables_close(c_coefficients(g), alternating_sum_c(g))


class TestVarianceEstimate:
    def test_identity_gives_zero(self):
        g = identity_gus(LineageSchema.of(["l", "o"]))
        y = [float(s + 1) for s in range(4)]
        assert variance_estimate(y, c_coefficients(g), g.a) == 0.0

    def test_single_relation_bernoulli_closed_form(self):
        p = 0.25
        g = row_bernoulli_gus(p, LineageSchema.of(["r"]))
        y = [100.0, 34.0]
        got = variance_estimate(y, c_coefficients(g), g.a)
        assert got == pytest.approx((1.0 / p - 1.0) * y[1], rel=1e-12)

    def test_negative_estimate_clamped_with_diagnostic(self):
        # corrected y terms can dip negative on unlucky samples
        g = row_bernoulli_gus(0.5, LineageSchema.of(["r"]))
        diagnostics = []
        got = variance_estimate([100.0, -1.0], c_coefficients(g), g.a, diagnostics)
        assert got == 0.0
        assert any("clamped" in d for d in diagnostics)

    @pytest.mark.parametrize("y_hat, c_table, a", [
        ([0.0, 1e308, 1e308], [0.0, 1.0, 1.0], 1.0),  # past float64
        ([0.0, 1e308, 1e308], [0.0, 1.0, -1.0], 1e-10),  # inf - inf
    ], ids=["overflow", "inf_minus_inf"])
    def test_sum_that_fsum_rejects_is_nan(self, y_hat, c_table, a):
        # math.fsum raises on these; analyze reports the NaN as an overflow
        assert math.isnan(variance_estimate(y_hat, c_table, a))

    def test_exact_on_enumerable_instance(self):
        catalog = small_join_catalog()
        plan = small_join_plan(BernoulliSpec(0.6, seed=1), WorSpec(2, seed=2))
        norm = normalize_plan(plan, execute(plan, catalog).populations)
        from gusbox.oracle import enumerate_exact_moments

        _, exact_var = enumerate_exact_moments(plan, catalog, norm.gus.a)
        y = list(exact_y_terms(execute_full(plan, catalog).relation).values())
        got = variance_estimate(y, c_coefficients(norm.gus), norm.gus.a)
        assert got == pytest.approx(exact_var, rel=1e-9)


class TestConfidenceIntervals:
    def test_reference_multipliers_at_95(self):
        assert confidence_interval(0.0, 1.0, "normal") == (-1.96, 1.96)
        assert confidence_interval(0.0, 1.0, "chebyshev") == (-4.47, 4.47)

    def test_zero_sigma_collapses(self):
        assert confidence_interval(3.0, 0.0, "normal") == (3.0, 3.0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, "normal", level=1.0)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, "chebyshev", level=0.0)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, "wat")

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_chebyshev_contains_normal(self, level):
        n_lo, n_hi = confidence_interval(10.0, 2.0, "normal", level)
        c_lo, c_hi = confidence_interval(10.0, 2.0, "chebyshev", level)
        assert c_lo <= n_lo and n_hi <= c_hi


class TestQuantileBounds:
    def test_median_is_mu(self):
        assert quantile_bounds(7.0, 3.0, [0.5]) == [(0.5, 7.0)]

    def test_table_values(self):
        got = dict(quantile_bounds(100.0, 10.0, [0.05, 0.95]))
        assert got[0.05] == pytest.approx(83.55, abs=0.01)
        assert got[0.95] == pytest.approx(116.45, abs=0.01)

    def test_ordering(self):
        lo, hi = [v for _, v in quantile_bounds(5.0, 1.0, [0.05, 0.95])]
        assert lo < hi

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            quantile_bounds(0.0, 1.0, [1.5])


class TestAnalyze:
    def test_empty_sample_is_well_defined(self):
        rel = lineage_relation(["r"], [])
        report = analyze(rel, row_bernoulli_gus(0.5, LineageSchema.of(["r"])))
        assert report["estimate"] == 0.0
        assert report["varianceHat"] == 0.0
        assert report["ciChebyshev"] == [0.0, 0.0]
        assert any("empty sample" in d for d in report["diagnostics"])

    def test_overflowing_square_names_the_term(self):
        # the estimate 2e200 is finite; its square is not
        rel = lineage_relation(["r"], [((1,), 1e200)])
        with pytest.raises(NumericOverflowError,
                           match=r"^ySample\[''\] is inf: the sampled values overflow float64$"):
            analyze(rel, row_bernoulli_gus(0.5, LineageSchema.of(["r"])))

    def test_overflowing_subset_term_names_its_key(self):
        # the estimate and ySample[''] are 0; the squares of ySample.t are not finite
        rel = lineage_relation(["t"], [((1,), 1e200), ((2,), -1e200)])
        with pytest.raises(NumericOverflowError,
                           match=r"^ySample\.t is inf: the sampled values overflow float64$"):
            analyze(rel, row_bernoulli_gus(0.5, LineageSchema.of(["t"])))

    def test_schema_mismatch_rejected(self):
        rel = lineage_relation(["r"], [((1,), 1.0)])
        with pytest.raises(SchemaError):
            analyze(rel, row_bernoulli_gus(0.5, LineageSchema.of(["s"])))

    def test_blocking_filter_is_degenerate(self):
        from gusbox.algebra import null_gus

        rel = lineage_relation(["r"], [])
        with pytest.raises(DegenerateSamplingError):
            analyze(rel, null_gus(rel.schema))

    def test_report_serializes_with_subset_keys(self, desk_catalog):
        plan = query1_plan()
        norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
        res = execute(plan, desk_catalog, master_seed=2)
        doc = analyze(res.relation, norm.gus, quantiles=(0.05, 0.95))
        assert set(doc["ySample"]) == {"", "l", "o", "lo"}
        assert doc["ciNormal"][0] <= doc["estimate"] <= doc["ciNormal"][1]
        assert [q for q, _ in doc["quantileRequests"]] == [0.05, 0.95]
        assert doc["gus"]["a"] == norm.gus.a

    @pytest.mark.parametrize("plan", [
        query1_plan(), query1_plan(p=0.5, n=40, price=500.0), four_relation_plan(),
    ], ids=["query1", "query1_p05_n40", "four_relations"])
    def test_what_if_recipe_of_the_readme(self, desk_catalog, plan):
        # runs the README's code block on reports, then its 99% variant
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        recipe = compile(next(b for b in blocks if 'report["yHat"]' in b), "README.md", "exec")
        norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
        for seed in range(10):
            report = analyze(execute(plan, desk_catalog, master_seed=seed).relation, norm.gus)
            names = {"report": report, "norm": norm}
            exec(recipe, names)
            assert names["own"] == report["varianceHat"] and names["predicted"] >= 0.0
            g = row_bernoulli_gus(0.99, norm.gus.schema)
            assert variance_estimate(names["y_hat"], c_coefficients(g), g.a) >= 0.0

    def test_wide_lineage_stays_fast(self):
        # n = 14: 16384 subsets. The top-down correction this replaced did
        # about 4**14 = 2.7e8 Python steps, 16 times its cost at n = 12;
        # the transforms do n * 2**n.
        names = [f"r{i:02d}" for i in range(14)]
        rel = lineage_relation(
            names, [([k] + [k % (i + 2) for i in range(13)], k + 0.5) for k in range(30)])
        gus = row_bernoulli_gus(0.5, rel.schema)
        started = time.perf_counter()
        report = analyze(rel, gus)
        assert time.perf_counter() - started < 30.0
        assert len(report["yHat"]) == 1 << 14
        assert report["estimate"] == 2.0 * sum(k + 0.5 for k in range(30))


class TestSubsampleVariance:
    def test_keep_all_matches_direct_path(self, desk_catalog):
        plan = query1_plan()
        norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
        res = execute(plan, desk_catalog, master_seed=4)
        direct = analyze(res.relation, norm.gus, quantiles=(0.05, 0.95))
        via = analyze(res.relation, norm.gus, quantiles=(0.05, 0.95),
                      subsample={"l": (1.0, 1), "o": (1.0, 2)})
        assert via["estimate"] == direct["estimate"]
        assert via["ySample"] == direct["ySample"]
        assert via["yHat"] == direct["yHat"]
        assert via["varianceHat"] == direct["varianceHat"]
        assert via["ciChebyshev"] == direct["ciChebyshev"]
        assert via["subsample"]["rows"] == direct["sampleRows"]

    def test_effective_parameters_are_the_stacked_tables(self, desk_catalog):
        plan = query1_plan()
        norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
        res = execute(plan, desk_catalog, master_seed=4)
        report = analyze(res.relation, norm.gus, subsample={"l": (0.5, 1), "o": (0.5, 2)})
        expected = compact(
            norm.gus, gus_of_lineage_bernoulli({"l": 0.5, "o": 0.5}, norm.gus.schema))
        assert report["subsample"]["gus"] == expected.to_json_dict()
        assert report["a"] == norm.gus.a
        assert report["a"] == report["gus"]["a"]
        assert report["subsample"]["rows"] <= report["sampleRows"]
        assert any("sub-sample" in d for d in report["diagnostics"])

    def test_walkthrough_parameter_values(self):
        # the two-table walkthrough stacked with a (0.2, 0.3) keyed filter
        g12 = join_merge(
            row_bernoulli_gus(0.1, LineageSchema.of(["l"])),
            row_wor_gus(1000, 150_000, LineageSchema.of(["o"])))
        rel = lineage_relation(["l", "o"], [((1, 1), 1.0)])
        report = analyze(rel, g12, subsample={"l": (0.2, 1), "o": (0.3, 2)})
        g = gus_from_json(json.dumps(report["subsample"]["gus"]))
        s = g.schema
        assert g.a == pytest.approx(4e-5, rel=1e-3)
        assert g.b[0] == pytest.approx(1.598e-9, rel=1e-3)
        assert g.b[mask_of_key(s, "o")] == pytest.approx(8e-7, rel=1e-3)
        assert g.b[mask_of_key(s, "l")] == pytest.approx(7.992e-8, rel=1e-3)
        assert g.b[mask_of_key(s, "lo")] == pytest.approx(4e-5, rel=1e-3)

    def test_subsample_variance_quality_stays_within_3x(self, desk_catalog):
        # the sub-sample only degrades the precision of the variance terms;
        # the two variance estimates should stay within a small factor
        import statistics

        from gusbox.samplers import derive_seed

        plan = query1_plan(p=0.5, n=38)
        norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
        ratios = []
        for t in range(40):
            rel = execute(plan, desk_catalog, master_seed=derive_seed(555, t)).relation
            direct = analyze(rel, norm.gus)
            via = analyze(
                rel, norm.gus,
                subsample={"l": (0.7, derive_seed(t, 1)), "o": (0.7, derive_seed(t, 2))})
            assert direct["varianceHat"] > 0 and via["varianceHat"] > 0
            ratios.append(via["varianceHat"] / direct["varianceHat"])
        assert 1 / 3 <= statistics.median(ratios) <= 3
        assert sum(1 for r in ratios if 1 / 3 <= r <= 3) >= 36

    def test_unbiasedness_survives_subsampling(self):
        # enumeration includes the keyed filter's randomness, so the
        # corrected terms from the sub-sample still hit the full-data terms
        catalog = small_join_catalog()
        base = small_join_plan(BernoulliSpec(0.7, seed=1), None)
        subbed = SumAggregate(
            base.expr,
            Sample(
                LineageBernoulliSpec.of({"l": (0.5, 21), "o": (0.5, 22)}),
                base.child,
            ),
        )
        norm = normalize_plan(subbed)
        y_true = exact_y_terms(execute_full(subbed, catalog).relation)
        expectation = {s: 0.0 for s in y_true}
        for rel, weight in enumerate_outcomes(subbed.child, catalog, 1 << 20):
            y_hat = y_unbiased(y_sample_terms(bind_aggregate(base.expr, rel)), norm.gus)
            for s, v in enumerate(y_hat.tolist()):
                expectation[s] += weight * v
        for s, expected in y_true.items():
            assert expectation[s] == pytest.approx(expected, rel=1e-9)
