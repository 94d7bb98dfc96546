"""Ground-truth machinery, independent of the estimator's fast paths.

* exact y terms on the full (unsampled) relational result, via a row-at-a-
  time sort-based group-by over the lineage and ``f`` arrays as Python
  lists, kept apart from the estimator's hierarchical group ids;
* exact estimator moments by enumerating every sampling configuration of a
  plan, weighting each outcome by its probability;
* seeded Monte Carlo moments and per-tuple inclusion frequencies.

Enumeration and Monte Carlo treat distinct sampling operators as
independent, which matches execution as long as no two samplers share a
seed. A keyed decision hashes only (seed, base-tuple id), whatever the
relation, so lineage-keyed dimensions with one seed decide alike on equal
ids, and row samplers (Bernoulli, WOR) with one seed draw from one stream.
``plan.validate_plan`` rejects both kinds of plan with a ``PlanError``;
``enumerate_exact_moments`` and ``monte_carlo_moments`` call it directly
and take the plan's inclusion probability ``a`` from the caller, while
``inclusion_probabilities`` does not validate and still measures such plans.
It runs the plan as given, so a sum root is bound on every trial: an
aggregate that names an unknown column, or is NaN or infinite on a kept
row, raises the ``ExpressionError`` that ``execute`` raises.
``enumerate_exact_moments`` runs the engine's operators itself, so it also
checks the plan's columns against the catalog (``plan.check_columns``), as
``execute`` does.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Mapping, Optional

from . import samplers
from .engine import (
    Catalog,
    bind_aggregate,
    execute,
    execute_full,
    join,
    scan,
    select,
    union_dedup,
)
from .errors import (
    DegenerateSamplingError,
    EnumerationInfeasibleError,
    PlanError,
    SampleSizeError,
)
from .model import GusParams, Record, SampleRelation, common_lineage, fsum_or_nan
from .plan import (
    BernoulliSpec,
    Join,
    LineageBernoulliSpec,
    PlanNode,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    check_columns,
    fold,
    validate_plan,
)

DEFAULT_STATE_BUDGET = 1 << 20


def exact_y_terms(full_result: SampleRelation) -> dict[int, float]:
    """Per-subset squared group totals on the complete data.

    Sort-based: rows are ordered by full lineage, stable-sorted per subset by
    the projected key, and runs of equal keys are folded. The accumulation
    order matches the estimator's group-id ``bincount`` and sequential sum
    exactly, so the two implementations must agree on every bit for
    identical input.
    """
    n = full_result.schema.n
    rows = sorted(zip(full_result.lineage.tolist(), full_result.f.tolist()), key=lambda x: x[0])
    out: dict[int, float] = {}
    for s in range(1 << n):
        positions = [i for i in range(n) if s >> i & 1]
        projected = sorted(
            ((tuple(lineage[i] for i in positions), f) for lineage, f in rows),
            key=lambda x: x[0],
        )
        total = 0.0
        for _, run in itertools.groupby(projected, key=lambda x: x[0]):
            run_sum = 0.0
            for _, f in run:
                run_sum += f
            total += run_sum * run_sum
        out[s] = total
    return out


def _merge_outcomes(outcomes) -> list[tuple[SampleRelation, float]]:
    merged: dict = {}
    for rel, weight in outcomes:
        key = frozenset(map(tuple, rel.lineage.tolist()))
        first, total = merged.get(key, (rel, 0.0))
        merged[key] = (first, total + weight)
    return list(merged.values())


def _comb_capped(m: int, n: int, cap: int) -> Optional[int]:
    """C(m, n), or None as soon as it is known to exceed ``cap``: the
    partial products C(m, 1), C(m, 2), ... only grow up to C(m, min(n, m - n))."""
    count = 1
    for i in range(min(n, m - n)):
        count = count * (m - i) // (i + 1)
        if count > cap:
            return None
    return count


def enumerate_outcomes(node: PlanNode, catalog: Catalog,
                        budget: int) -> list[tuple[SampleRelation, float]]:
    """Every outcome of ``node``'s sampling with its probability; a sum binds
    each outcome's ``f``. Errors name the node's path, as ``execute``'s do."""

    def guard(used: int, count: Optional[int], what: str):
        """Raise unless ``used`` states plus ``count`` more fit the budget;
        ``count`` is None when it is already known not to fit. ``what``
        names the count, so the message never prints a number past the
        budget (ints past 4300 digits cannot even be formatted)."""
        if count is None or used + count > budget:
            after = f" on top of {used}" if used else ""
            raise EnumerationInfeasibleError(
                f"enumeration would need {what} states{after}, budget is {budget}")

    def pow2(k: int) -> Optional[int]:
        """2**k, or None when it exceeds the budget."""
        return 1 << k if k < budget.bit_length() else None

    def visit(n: PlanNode, path: str, *inputs) -> list[tuple[SampleRelation, float]]:
        if isinstance(n, Scan):
            if n.table not in catalog:
                raise PlanError(f"{path}: unknown table {n.table!r}")
            return [(scan(catalog[n.table]), 1.0)]
        if isinstance(n, (Join, UnionDedup)):
            left, right = inputs
            guard(0, len(left) * len(right), f"{len(left)}*{len(right)}")
            op = union_dedup if isinstance(n, UnionDedup) else partial(join, n)
            return _merge_outcomes((op(l, r), wl * wr) for l, wl in left for r, wr in right)
        child = inputs[0]
        if isinstance(n, Select):
            return _merge_outcomes((select(n.where, rel), w) for rel, w in child)
        if isinstance(n, SumAggregate):
            return [(bind_aggregate(n.expr, rel), w) for rel, w in child]
        method = n.method
        out = []
        if isinstance(method, BernoulliSpec):
            p = method.p
            for rel, w in child:
                m = len(rel)
                guard(len(out), pow2(m), f"2**{m}")
                for bits in range(1 << m):
                    k = bits.bit_count()
                    weight = w * p**k * (1.0 - p) ** (m - k)
                    if weight == 0.0:
                        continue
                    positions = [i for i in range(m) if bits >> i & 1]
                    out.append((rel.take(positions), weight))
        elif isinstance(method, WorSpec):
            for rel, w in child:
                m = len(rel)
                if method.n > m:
                    raise SampleSizeError(
                        f"{path}.method: cannot draw {method.n} rows from a relation of {m}")
                count = _comb_capped(m, method.n, budget)
                guard(len(out), count, f"C({m}, {method.n})")
                for chosen in itertools.combinations(range(m), method.n):
                    out.append((rel.take(list(chosen)), w / count))
        elif isinstance(method, LineageBernoulliSpec):
            for rel, w in child:
                positions = [(rel.schema.index(name), p) for name, p, _ in method.dims]
                lineages = rel.lineage.tolist()
                keys = sorted({(pos, lineage[pos]) for lineage in lineages
                               for pos, _ in positions})
                probs = {key: p for pos, p in positions
                         for key in keys if key[0] == pos}
                k = len(keys)
                guard(len(out), pow2(k), f"2**{k}")
                for bits in range(1 << k):
                    weight = w
                    kept = set()
                    for i, key in enumerate(keys):
                        if bits >> i & 1:
                            weight *= probs[key]
                            kept.add(key)
                        else:
                            weight *= 1.0 - probs[key]
                    if weight == 0.0:
                        continue
                    chosen = [i for i, lineage in enumerate(lineages)
                              if all((pos, lineage[pos]) in kept
                                     for pos, _ in positions)]
                    out.append((rel.take(chosen), weight))
        else:
            raise PlanError(f"{path}.method: unknown sampler spec {type(method).__name__}")
        return _merge_outcomes(out)

    return fold(node, visit)


def enumerate_exact_moments(plan: PlanNode, catalog: Catalog, a: float,
                            budget: int = DEFAULT_STATE_BUDGET) -> tuple[float, float]:
    """Exact mean and variance of the estimate (the sum scaled by ``1/a``,
    with ``a`` the plan's inclusion probability), by summing over every
    sampling configuration of the plan."""
    if not isinstance(plan, SumAggregate):
        raise PlanError("exact moments need a plan with a sum aggregate at the root")
    validate_plan(plan)
    check_columns(plan, {name: tuple(zip(t.columns, t.column_types))
                         for name, t in catalog.items()})
    if a <= 0.0:
        raise DegenerateSamplingError("inclusion probability a must be positive")
    outcomes = enumerate_outcomes(plan, catalog, budget)
    total_weight = math.fsum(w for _, w in outcomes)
    if abs(total_weight - 1.0) > 1e-9:
        raise AssertionError(f"enumeration weights sum to {total_weight!r}, not 1")
    values = [(rel.total_f() / a, w) for rel, w in outcomes]
    mean = fsum_or_nan(x * w for x, w in values)
    variance = fsum_or_nan((x - mean) ** 2 * w for x, w in values)
    return mean, variance


def _trial_runs(plan: PlanNode, catalog: Catalog, trials: int, seed: int):
    """The relations that ``trials`` seeded runs of ``plan`` output, each
    executed as it is read; run ``t`` derives its run seed from ``(seed, t)``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return (execute(plan, catalog, master_seed=samplers.derive_seed(seed, trial)).relation
            for trial in range(trials))


def monte_carlo_moments(plan: PlanNode, catalog: Catalog, a: float, trials: int,
                        seed: int) -> tuple[float, float, float]:
    """Seeded sample mean/variance of the estimate (the sum scaled by
    ``1/a``), with the standard error of the mean. Trial streams derive
    from (seed, trial index)."""
    runs = _trial_runs(plan, catalog, trials, seed)
    if not isinstance(plan, SumAggregate):
        raise PlanError("estimator moments need a plan with a sum aggregate at the root")
    validate_plan(plan)
    if a <= 0.0:
        raise DegenerateSamplingError("inclusion probability a must be positive")
    values = [relation.total_f() / a for relation in runs]
    mean = fsum_or_nan(values) / trials
    if trials > 1:
        variance = fsum_or_nan((x - mean) ** 2 for x in values) / (trials - 1)
    else:
        variance = 0.0
    return mean, variance, math.sqrt(variance / trials)


def inclusion_probabilities(plan: PlanNode, catalog: Catalog, trials: int,
                            seed: int):
    """Empirical single and pairwise inclusion frequencies per lineage of
    the full relational result."""
    runs = _trial_runs(plan, catalog, trials, seed)
    universe = list(map(tuple, execute_full(plan, catalog).relation.lineage.tolist()))
    first = {t: 0 for t in universe}
    second = {pair: 0 for pair in itertools.combinations(sorted(universe), 2)}
    for out in runs:
        present = sorted(map(tuple, out.lineage.tolist()))
        for t in present:
            first[t] += 1
        for pair in itertools.combinations(present, 2):
            second[pair] += 1
    return (
        {t: count / trials for t, count in first.items()},
        {pair: count / trials for pair, count in second.items()},
    )


class BandViolation(Record):
    kind: str
    where: str
    observed: float
    expected: float
    z: float


def compare_inclusion_to_gus(first: Mapping, second: Mapping, gus: GusParams,
                             trials: int, nsigma: float = 5.0):
    """Check empirical inclusion frequencies against a parameter table.

    Returns (violations, worst z-score). A frequency with zero sampling
    noise (expected 0 or 1) must match exactly.
    """
    violations = []
    worst = 0.0

    def check(kind, where, observed, expected):
        nonlocal worst
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        if sigma == 0.0:
            z = 0.0 if observed == expected else math.inf
        else:
            z = abs(observed - expected) / sigma
        worst = max(worst, z)
        if z > nsigma:
            violations.append(BandViolation(kind, where, observed, expected, z))

    for t, freq in first.items():
        check("first-order", repr(t), freq, gus.a)
    b = gus.b.tolist()
    for (t, u), freq in second.items():
        check("second-order", f"{t!r},{u!r}", freq, b[common_lineage(t, u)])
    return violations, worst
