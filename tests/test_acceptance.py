"""Acceptance suite: one test (or tight group) per exit criterion, each
printing an `ACCEPTANCE <name>: PASS/FAIL` line. Run with ``-rA`` to see the
lines for passing criteria too.

Statistical criteria run under fixed seeds, so outcomes are reproducible.
The distributivity criterion checks the law where the system promises it.
Stacking a filter over a union distributes set-wise when the filter is one
shared realization, and the parameter table of the factored plan describes
the distributed plan; the rewriter rejects the distributed plan itself,
because its two keyed filters share a seed. With distinct seeds the two
filters are independent copies, and the rewriter's table for the
distributed plan holds. On parameter tables, where the merge rules assume
independent operands, the two sides differ by an exact, known gap.
"""

import math
import time
import warnings
import zlib

import numpy as np
import pytest

from gusbox import (
    BernoulliSpec,
    Comparison,
    GusParams,
    Join,
    LineageBernoulliSpec,
    LineageSchema,
    PlanError,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    execute,
    execute_full,
)
from gusbox.algebra import (
    c_coefficients,
    compact,
    identity_gus,
    join_merge,
    normalize_plan,
    null_gus,
    row_bernoulli_gus,
    row_wor_gus,
    union_merge,
)
from gusbox.engine import bind_aggregate
from gusbox.errors import NotIdentifiableError
from gusbox.estimator import variance_estimate, y_sample_terms, y_unbiased
from gusbox.oracle import (
    DEFAULT_STATE_BUDGET,
    compare_inclusion_to_gus,
    enumerate_exact_moments,
    enumerate_outcomes,
    exact_y_terms,
    inclusion_probabilities,
)
from gusbox.samplers import derive_seed

from conftest import base_table, mask_of_key, query1_plan

REFERENCE_REL_TOL = 1e-3


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


def _close(x, y, rel=1e-9, abs_tol=1e-12):
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Criterion 1: golden coefficient tables


def _check_table(g: GusParams, a: float, table: dict) -> bool:
    if not math.isclose(g.a, a, rel_tol=REFERENCE_REL_TOL):
        return False
    for key, expected in table.items():
        mask = mask_of_key(g.schema, key)
        if not math.isclose(g.b[mask], expected, rel_tol=REFERENCE_REL_TOL):
            return False
    return True


def test_criterion_1_golden_tables():
    started = time.perf_counter()
    g_b = row_bernoulli_gus(0.1, LineageSchema.of(["l"]))
    g_w = row_wor_gus(1000, 150_000, LineageSchema.of(["o"]))
    g_12 = join_merge(g_b, g_w)
    g_121 = join_merge(g_12, identity_gus(LineageSchema.of(["c"])))
    g_123 = join_merge(g_121, row_bernoulli_gus(0.5, LineageSchema.of(["p"])))
    bidim = join_merge(
        row_bernoulli_gus(0.2, LineageSchema.of(["l"])),
        row_bernoulli_gus(0.3, LineageSchema.of(["o"])))
    stacked = compact(g_12, bidim)

    ok = (
        _check_table(g_b, 0.1, {"": 0.01, "l": 0.1})
        and _check_table(g_w, 6.667e-3, {"": 4.44e-5, "o": 6.667e-3})
        and _check_table(
            g_12, 6.667e-4,
            {"": 4.44e-7, "o": 6.667e-5, "l": 4.44e-6, "lo": 6.667e-4})
        and _check_table(
            g_121, 6.667e-4,
            {"": 4.44e-7, "c": 4.44e-7, "o": 6.667e-5, "co": 6.667e-5,
             "l": 4.44e-6, "cl": 4.44e-6, "lo": 6.667e-4, "clo": 6.667e-4})
        and _check_table(
            g_123, 3.334e-4,
            {"": 1.11e-7, "p": 2.22e-7, "c": 1.11e-7, "cp": 2.22e-7,
             "o": 1.667e-5, "op": 3.335e-5, "co": 1.667e-5, "cop": 3.335e-5,
             "l": 1.11e-6, "lp": 2.22e-6, "cl": 1.11e-6, "clp": 2.22e-6,
             "lo": 1.667e-4, "lop": 3.334e-4, "clo": 1.667e-4, "clop": 3.334e-4})
        and _check_table(
            bidim, 0.06, {"": 0.0036, "o": 0.012, "l": 0.018, "lo": 0.06})
        and _check_table(
            stacked, 4e-5,
            {"": 1.598e-9, "o": 8e-7, "l": 7.992e-8, "lo": 4e-5})
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _line("1 golden coefficient tables", ok, f"{elapsed:.3f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: exact-variance equivalence against enumeration


def _random_instance(rng: np.random.Generator, idx: int):
    n_rel = int(rng.integers(2, 5))
    max_rows = 6 if n_rel == 2 else 4
    catalog = {}
    legs = []
    sampled = False
    for i in range(n_rel):
        name = f"r{i}"
        rows = int(rng.integers(3, max_rows + 1))
        keys = rng.integers(1, 4, rows)
        vals = np.round(rng.uniform(0.5, 3.0, rows), 3)
        catalog[name] = base_table(
            name, (f"{name}_k", f"{name}_v"), ("int64", "float64"),
            ids=tuple(range(1, rows + 1)),
            rows=tuple((int(k), float(v)) for k, v in zip(keys, vals)),
        )
        node = Scan(name)
        kind = rng.integers(0, 3)
        if kind == 0:
            node = Sample(BernoulliSpec(float(rng.choice([0.3, 0.5, 0.7])),
                                        seed=100 + i), node)
            sampled = True
        elif kind == 1:
            node = Sample(WorSpec(int(rng.integers(1, rows + 1)), seed=200 + i), node)
            sampled = True
        legs.append(node)
    if not sampled:
        legs[0] = Sample(BernoulliSpec(0.5, seed=100), legs[0])
    tree = legs[0]
    for i in range(1, n_rel):
        tree = Join(tree, legs[i], eq=((f"r0_k", f"r{i}_k"),))
    expr = "*".join(f"r{i}_v" for i in range(n_rel)) if idx % 2 == 0 else \
        "+".join(f"r{i}_v" for i in range(n_rel))
    return SumAggregate(expr, tree), catalog


def _criterion_2_instances():
    """Criterion 2's 12 random instances, as (plan, catalog, full result)."""
    rng = np.random.Generator(np.random.PCG64(20_240_601))
    checked = 0
    while checked < 12:
        plan, catalog = _random_instance(rng, checked)
        full = execute_full(plan, catalog)
        if len(full.relation) < 2:
            continue
        yield plan, catalog, full
        checked += 1


def test_criterion_2_variance_matches_enumeration():
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    for plan, catalog, full in _criterion_2_instances():
        norm = normalize_plan(plan, execute(plan, catalog).populations)
        truth = full.relation.total_f()
        mean, variance = enumerate_exact_moments(plan, catalog, norm.gus.a)
        from_tables = variance_estimate(
            exact_y_terms(full.relation), c_coefficients(norm.gus), norm.gus.a)
        assert _close(mean, truth), (checked, mean, truth)
        assert _close(from_tables, variance), (checked, from_tables, variance)
        if variance > 0:
            worst = max(worst, abs(from_tables - variance) / variance)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 10 and elapsed < 120.0
    _line("2 exact variance vs enumeration", ok,
          f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_variance_estimate_exactly_unbiased():
    # weighted over every sampling outcome, the unclamped variance estimate
    # averages to the estimate's exact variance, and each yHat[S] to the full
    # data's y term; an instance with a zero in b is not identifiable
    started = time.perf_counter()
    ran = skipped = 0
    worst_var = worst_y = 0.0
    for plan, catalog, full in _criterion_2_instances():
        g = normalize_plan(plan, execute(plan, catalog).populations).gus
        try:
            outcomes = [(w, y_unbiased(y_sample_terms(bind_aggregate(plan.expr, rel)), g))
                        for rel, w in enumerate_outcomes(plan.child, catalog,
                                                         DEFAULT_STATE_BUDGET)]
        except NotIdentifiableError:
            skipped += 1
            continue
        c, a2 = c_coefficients(g), g.a * g.a
        mean_var = math.fsum(
            w * (math.fsum(c[s] / a2 * y_hat[s] for s in c) - y_hat[0]) for w, y_hat in outcomes)
        _, variance = enumerate_exact_moments(plan, catalog, g.a)
        worst_var = max(worst_var, abs(mean_var - variance) / abs(variance))
        for s, expected in exact_y_terms(full.relation).items():
            mean_y = math.fsum(w * y_hat[s] for w, y_hat in outcomes)
            worst_y = max(worst_y, abs(mean_y - expected) / abs(expected))
        ran += 1
    elapsed = time.perf_counter() - started
    ok = ran >= 10 and worst_var <= 1e-12 and worst_y <= 1e-12
    _line("2 variance estimate exactly unbiased", ok,
          f"{ran} instances ran, {skipped} skipped (a zero in b), worst rel err "
          f"variance {worst_var:.2e}, yHat {worst_y:.2e}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: unbiasedness at scale


def test_criterion_3_unbiasedness_monte_carlo(desk_catalog):
    started = time.perf_counter()
    plan = query1_plan(p=0.3, n=25)
    norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
    full = execute_full(plan, desk_catalog)
    truth = full.relation.total_f()
    y_true = exact_y_terms(full.relation)

    trials = 20_000
    xs = []
    y_sums = {s: 0.0 for s in y_true}
    y_sq = {s: 0.0 for s in y_true}
    for t in range(trials):
        res = execute(plan, desk_catalog, master_seed=derive_seed(31_337, t))
        xs.append(res.relation.total_f() / norm.gus.a)
        y_hat = y_unbiased(y_sample_terms(res.relation), norm.gus)
        for s, v in y_hat.items():
            y_sums[s] += v
            y_sq[s] += v * v

    mean_x = math.fsum(xs) / trials
    stderr_x = math.sqrt(
        math.fsum((x - mean_x) ** 2 for x in xs) / (trials - 1) / trials)
    z_x = abs(mean_x - truth) / stderr_x
    ok = z_x <= 5.0

    worst_z = 0.0
    for s, total in y_sums.items():
        mean = total / trials
        var = max(y_sq[s] / trials - mean * mean, 0.0)
        stderr = math.sqrt(var / trials)
        z = abs(mean - y_true[s]) / stderr if stderr else 0.0
        worst_z = max(worst_z, z)
        ok = ok and z <= 5.0

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    _line("3 unbiasedness (20k trials)", ok,
          f"z(X)={z_x:.2f}, worst z(yhat)={worst_z:.2f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: rewritten tables match executed inclusion probabilities


def _rule_catalog():
    r = base_table(
        "r", ("r_k", "r_v"), ("int64", "float64"),
        ids=(1, 2, 3, 4), rows=((1, 1.0), (1, 2.0), (2, 3.0), (2, 4.0)))
    t = base_table(
        "t", ("t_k", "t_v"), ("int64", "float64"),
        ids=(1, 2, 3), rows=((1, 1.0), (2, 1.0), (2, 2.0)))
    return {"r": r, "t": t}


def _rule_plans():
    on_key = (("r_k", "t_k"),)
    return {
        "selection_commute": Select(
            (Comparison("r_v", ">", 1.5),),
            Sample(BernoulliSpec(0.6, seed=1), Scan("r"))),
        "join_merge": Join(
            Sample(BernoulliSpec(0.5, seed=1), Scan("r")),
            Sample(WorSpec(2, seed=2), Scan("t")),
            eq=on_key),
        "identity_insertion": Join(
            Sample(BernoulliSpec(0.5, seed=1), Scan("r")), Scan("t"), eq=on_key),
        "union_merge": UnionDedup(
            Sample(BernoulliSpec(0.4, seed=1), Scan("r")),
            Sample(BernoulliSpec(0.7, seed=2), Scan("r"))),
        "compaction": Sample(
            BernoulliSpec(0.5, seed=2),
            Sample(BernoulliSpec(0.6, seed=1), Scan("r"))),
        "composition": Sample(
            LineageBernoulliSpec.of({"r": (0.5, 5), "t": (0.6, 6)}),
            Join(Sample(BernoulliSpec(0.7, seed=1), Scan("r")), Scan("t"), eq=on_key)),
    }


@pytest.mark.parametrize("rule", sorted(_rule_plans()))
def test_criterion_4_soa_equivalence_per_rule(rule):
    catalog = _rule_catalog()
    plan = _rule_plans()[rule]
    trials = 50_000
    norm = normalize_plan(plan, execute(plan, catalog).populations)
    seed = zlib.crc32(rule.encode())  # stable across processes
    first, second = inclusion_probabilities(plan, catalog, trials=trials, seed=seed)
    violations, worst = compare_inclusion_to_gus(first, second, norm.gus, trials)
    ok = not violations
    _line(f"4 rewrite soundness [{rule}]", ok, f"worst z={worst:.2f}, {trials} trials")
    assert ok, violations


# ---------------------------------------------------------------------------
# Criterion 5: algebraic laws on 100 randomized parameter tables


def _dyadic_tables(count, seed, names=("x", "y")):
    rng = np.random.Generator(np.random.PCG64(seed))
    schema = LineageSchema.of(names)
    out = []
    for _ in range(count):
        a = int(rng.integers(0, 65)) / 64
        lo = max(0.0, 2.0 * a - 1.0)
        b = [lo + (int(rng.integers(0, 65)) / 64) * (a - lo)
             for _ in range(schema.num_subsets)]
        b[schema.full_mask] = a
        out.append(GusParams(schema, tuple(b)))
    return out


def test_criterion_5_commutativity_and_associativity():
    started = time.perf_counter()
    tables = _dyadic_tables(102, seed=9)
    ok = True
    for g1, g2, g3 in zip(tables, tables[1:], tables[2:]):
        ok = ok and union_merge(g1, g2) == union_merge(g2, g1)
        ok = ok and compact(g1, g2) == compact(g2, g1)
        ok = ok and union_merge(union_merge(g1, g2), g3) == union_merge(g1, union_merge(g2, g3))
        ok = ok and compact(compact(g1, g2), g3) == compact(g1, compact(g2, g3))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _line("5 laws: commutativity/associativity", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_5_null_elements():
    started = time.perf_counter()
    ok = True
    for g in _dyadic_tables(100, seed=10):
        zero = null_gus(g.schema)
        one = identity_gus(g.schema)
        ok = ok and union_merge(g, zero) == g
        ok = ok and compact(g, one) == g
        ok = ok and compact(g, zero) == zero
        ok = ok and union_merge(g, one) == one
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _line("5 laws: null elements", ok, f"{elapsed:.3f}s")
    assert ok


def _lineages(plan, catalog, master_seed):
    return {row.lineage for row in execute(plan, catalog, master_seed=master_seed).relation.rows}


def _inclusion_check(plan, catalog, gus, label):
    trials = 50_000
    seed = zlib.crc32(f"distributivity {label}".encode())  # stable across processes
    first, second = inclusion_probabilities(plan, catalog, trials=trials, seed=seed)
    return compare_inclusion_to_gus(first, second, gus, trials)


def test_criterion_5_distributivity():
    # Parameter tables: the merge rules treat every operand as an independent
    # filter, so union(compact(g, h), compact(g, k)) describes two independent
    # copies of g. Its a exceeds compact(g, union(h, k)).a by exactly
    # a_g*a_h*a_k*(1 - a_g); on dyadic tables no rounding enters.
    started = time.perf_counter()
    tables = _dyadic_tables(102, seed=11)
    gap_misses = []
    for g, h, k in zip(tables, tables[1:], tables[2:]):
        shared = compact(g, union_merge(h, k))
        copies = union_merge(compact(g, h), compact(g, k))
        gap = g.a * h.a * k.a * (1.0 - g.a)
        if copies.a - shared.a != gap or (shared == copies) != (gap == 0.0):
            gap_misses.append((g.a, h.a, k.a, shared.a, copies.a))
    elapsed = time.perf_counter() - started

    # Executed plans: a keyed filter with one seed is one realization wherever
    # it appears, so stacking it distributes over the union set-wise.
    catalog = _rule_catalog()
    g = LineageBernoulliSpec.of({"r": (0.5, 5)})
    g_copy = LineageBernoulliSpec.of({"r": (0.5, 6)})
    h = Sample(BernoulliSpec(0.4, seed=1), Scan("r"))
    k = Sample(BernoulliSpec(0.7, seed=2), Scan("r"))
    factored = Sample(g, UnionDedup(h, k))
    distributed = UnionDedup(Sample(g, h), Sample(g, k))
    independent = UnionDedup(Sample(g, h), Sample(g_copy, k))
    base = zlib.crc32(b"distributivity set law")
    set_mismatches = sum(
        _lineages(factored, catalog, derive_seed(base, i))
        != _lineages(distributed, catalog, derive_seed(base, i))
        for i in range(200))

    # The factored table describes the distributed plan...
    g_table, h_table, k_table = (
        row_bernoulli_gus(p, LineageSchema.of(["r"])) for p in (0.5, 0.4, 0.7))
    factored_gus = normalize_plan(factored).gus
    factored_ok = factored_gus == compact(g_table, union_merge(h_table, k_table))
    shared_violations, shared_z = _inclusion_check(
        distributed, catalog, factored_gus, "shared")
    # ...and the rewriter refuses the distributed plan rather than return
    # the independent-copies table for it.
    try:
        normalize_plan(distributed)
        rejection = ""
    except PlanError as exc:
        rejection = str(exc)
    rejected = ("plan.left.method.dims.r" in rejection
                and "plan.right.method.dims.r" in rejection)

    # Distinct seeds make independent copies; then the rewriter's table for
    # the distributed plan is the independent-copies table, and it holds.
    independent_gus = normalize_plan(independent).gus
    independent_ok = independent_gus == union_merge(
        compact(g_table, h_table), compact(g_table, k_table))
    copies_violations, copies_z = _inclusion_check(
        independent, catalog, independent_gus, "copies")

    ok = (not gap_misses and elapsed < 1.0 and set_mismatches == 0
          and factored_ok and not shared_violations and rejected
          and independent_ok and not copies_violations)
    _line("5 laws: distributivity", ok,
          f"{len(gap_misses)}/100 gap misses in {elapsed:.3f}s, "
          f"{set_mismatches}/200 set mismatches, worst z shared {shared_z:.2f}, "
          f"copies {copies_z:.2f}, shared seed {'rejected' if rejected else 'accepted'}")
    assert not gap_misses, gap_misses[0]
    assert elapsed < 1.0
    assert set_mismatches == 0
    assert factored_ok, factored_gus
    assert not shared_violations, shared_violations
    assert rejected, (
        "normalize_plan must reject the distributed plan whose keyed filters "
        f"share a seed, naming both; got {rejection or 'no error'}")
    assert independent_ok, independent_gus
    assert not copies_violations, copies_violations


# ---------------------------------------------------------------------------
# Criterion 6: interval multipliers and coverage


def test_criterion_6_interval_multipliers_and_coverage(desk_catalog):
    from gusbox.estimator import analyze, confidence_interval

    assert confidence_interval(0.0, 1.0, "normal", 0.95) == (-1.96, 1.96)
    assert confidence_interval(0.0, 1.0, "chebyshev", 0.95) == (-4.47, 4.47)

    plan = query1_plan(p=0.3, n=25)
    norm = normalize_plan(plan, execute(plan, desk_catalog).populations)
    truth = execute_full(plan, desk_catalog).relation.total_f()
    trials = 1000
    cheb_hits = normal_hits = 0
    for t in range(trials):
        res = execute(plan, desk_catalog, master_seed=derive_seed(271_828, t))
        report = analyze(res.relation, norm.gus)
        if report["ciChebyshev"][0] <= truth <= report["ciChebyshev"][1]:
            cheb_hits += 1
        if report["ciNormal"][0] <= truth <= report["ciNormal"][1]:
            normal_hits += 1
    cheb_rate = cheb_hits / trials
    normal_rate = normal_hits / trials
    ok = cheb_rate >= 0.95
    soft_ok = 0.90 <= normal_rate <= 0.99
    if not soft_ok:
        warnings.warn(
            f"normal-interval coverage {normal_rate:.1%} outside [90%, 99%]; "
            "distributional assumption is shaky at this scale")
    _line("6 interval multipliers and coverage", ok,
          f"chebyshev {cheb_rate:.1%} (hard), normal {normal_rate:.1%} "
          f"({'soft pass' if soft_ok else 'soft warn'})")
    assert ok
