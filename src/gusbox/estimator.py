"""The statistical estimator: consumes the sampled rows (lineage plus
per-row aggregate values) and the top-level parameter table, produces the
estimate, variance terms, and confidence intervals.

The estimate is ``X = (1/a) * sum of f`` over the sample. Its variance
decomposes into data-dependent terms ``y[S]`` (group by the S part of the
lineage, sum f within groups, square, sum over groups) weighted by
coefficients derived from the parameter table.

``y_sample_terms`` computes the sample versions ``Y[S]`` with hierarchical
group ids: the id of a row under ``S`` is the rank of the pair (its id under
``S`` minus the highest bit, its rank in that bit's lineage column), so each
subset costs one ``argsort`` of those pairs (``_sorted_groups``) and one
``np.bincount`` over the rows, and a depth-first walk keeps at most
``n + 1`` id arrays alive. Rows are sorted by lineage and ranks follow key
order, so ``bincount`` adds within each group in row order and the squared
group totals are then summed sequentially in key order: the same additions,
in the same order, as the sort-based ``gusbox.oracle.exact_y_terms``, which
the result matches bit for bit. (A pairwise ``np.sum`` would change the
last bits.)

The walk adds bits in increasing order, so the subtree below a subset ``s``
reached with next bit ``lo`` holds the subsets ``s | t`` for ``t`` over the
bits ``lo..n-1``. Once every row is its own group under ``s``, it stays its
own group under each ``s | t``, and since ``t``'s bits all sit above ``s``'s,
the keys under ``s | t`` sort as their ``s`` part does: every subset of the
subtree sums the same squares in the same order, so it gets ``Y[s]``
exactly, without a group-by, and the oracle, which sorts by the projected
key, sums them in that order too. (A bit below ``lo`` could reorder the
keys; subsets with one lie outside the subtree and get their own group-by.)
Such an ``s`` shows in the sort that ranks it, as keys that all differ, and
its squares are those of ``f`` in that sort's order, so it needs neither
ranks nor a ``bincount``. Everything reads the relation's int64 lineage
matrix and ``f`` array directly; column ranks come from ``_sorted_groups``
too.

``Y[S]`` sums ``f*f'`` over ordered sample pairs agreeing on at least
``S``, so it is biased. The correction is two O(n * 2**n) transforms over
the subset lattice (``algebra.subset_transform``):
``Z = superset-Mobius(Y)`` keeps the pairs agreeing on exactly ``T``; such
a pair survives with probability ``b[T]``, so ``Z[T] / b[T]`` is unbiased
for its full-data counterpart; and ``yHat = superset-zeta(Z / b)`` sums those
back over the supersets of ``S``.

``analyze`` is the one entry that builds a report, and the report is the
document ``gusbox estimate`` writes: a dict whose subset tables are keyed by
subset key, in mask order. Given a sub-sample spec, it takes the y terms
from a lineage-keyed sub-sample of the sample, under the compaction of the
plan's table and the sub-sample filter's table.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Mapping, Optional, Sequence

import numpy as np

from . import samplers
from .algebra import c_coefficients, compact, gus_of_lineage_bernoulli, subset_transform
from .errors import (
    DegenerateSamplingError,
    NotIdentifiableError,
    NumericOverflowError,
    SchemaError,
)
from .model import GusParams, SampleRelation, left_sum

_NORMAL = NormalDist()


def estimate_sum(sample: SampleRelation, a: float) -> float:
    """Scale the sample total by the single-tuple inclusion probability."""
    if a <= 0.0:
        raise DegenerateSamplingError("inclusion probability a must be positive")
    return sample.total_f() / a


def _sorted_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the (non-empty) ``keys``, and the rank of each
    sorted key among the distinct keys: ``np.unique``'s ranks from one
    ``argsort`` without the rest of its work."""
    order = keys.argsort()
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)  # whether a sorted key starts a new group
    starts[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return order, starts.cumsum(dtype=np.int64)


def _ranks(order: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Each key's rank, in the keys' own order, from ``_sorted_groups``."""
    ranks = np.empty_like(step)
    ranks[order] = step
    return ranks


def y_sample_terms(sample: SampleRelation) -> dict[int, float]:
    """Per-subset squared group totals of f, grouped by the subset part of
    the lineage, via hierarchical group ids (see the module docstring)."""
    n = sample.schema.n
    if not len(sample):
        return dict.fromkeys(range(1 << n), 0.0)
    ordered = sample.in_lineage_order
    f = ordered.f
    codes = []
    for i in range(n):
        order, step = _sorted_groups(ordered.lineage[:, i])
        codes.append((_ranks(order, step), int(step[-1]) + 1))
    out = [0.0] * (1 << n)

    def visit(s: int, gid: np.ndarray, lo: int) -> None:
        g = np.bincount(gid, weights=f)
        out[s] = left_sum(g * g)
        for i in range(lo, n):
            code, k = codes[i]
            order, step = _sorted_groups(gid * k + code)
            child = s | 1 << i
            if step[-1] == len(f) - 1:
                # every row is its own group: so is it under child | t for
                # every t over bits i+1.., with the same key order
                g = f[order]
                out[child::2 << i] = [left_sum(g * g)] * (1 << n - 1 - i)
            else:
                visit(child, _ranks(order, step), i + 1)

    visit(0, np.zeros(len(f), dtype=np.int64), 0)
    return dict(enumerate(out))


def y_unbiased(y_sample: Mapping[int, float], g: GusParams) -> dict[int, float]:
    """Unbiased estimates of the full-data y terms from sample terms."""
    b = g.b
    for s, value in enumerate(b):
        if value <= 0.0:
            raise NotIdentifiableError(
                f"pair inclusion probability is 0 for subset "
                f"{g.schema.subset_key(s) or 'empty'}; its variance term cannot "
                "be estimated from this sample"
            )
    z = subset_transform([y_sample[s] for s in range(len(b))], supersets=True, inverse=True)
    z /= np.array(b, dtype=np.float64)
    return dict(enumerate(subset_transform(z, supersets=True, inverse=False).tolist()))


def variance_estimate(y_hat: Mapping[int, float], c_table: Mapping[int, float],
                      a: float, diagnostics: Optional[list] = None) -> float:
    """Plug the (estimated or exact) y terms into the variance formula,
    clamping a negative result to 0."""
    a2 = a * a
    terms = [c_table[s] / a2 * y_hat[s] for s in sorted(c_table)]
    try:
        raw = math.fsum(terms) - y_hat[0]
    except (OverflowError, ValueError):  # fsum: a partial sum past float64, or inf - inf
        return math.nan
    if raw < 0.0:
        if diagnostics is not None:
            diagnostics.append(
                f"variance estimate {raw:.6g} clamped to 0; the sample is too "
                "small to pin the variance terms down"
            )
        return 0.0
    return raw


def _normal_multiplier(level: float) -> float:
    if level == 0.95:
        return 1.96
    return _NORMAL.inv_cdf((1.0 + level) / 2.0)


def _chebyshev_multiplier(level: float) -> float:
    if level == 0.95:
        return 4.47
    return 1.0 / math.sqrt(1.0 - level)


def confidence_interval(mu: float, sigma: float, method: str,
                        level: float = 0.95) -> tuple[float, float]:
    """Two-sided interval around mu: normal multipliers if the estimate is
    assumed bell-shaped, distribution-free Chebyshev multipliers otherwise."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level {level} outside (0, 1)")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if method == "normal":
        m = _normal_multiplier(level)
    elif method == "chebyshev":
        m = _chebyshev_multiplier(level)
    else:
        raise ValueError(f"unknown interval method {method!r}")
    return (mu - m * sigma, mu + m * sigma)


def quantile_bounds(mu: float, sigma: float,
                    quantiles: Sequence[float]) -> list[tuple[float, float]]:
    """Normal-approximation quantiles of the estimate's distribution."""
    out = []
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile {q} outside (0, 1)")
        out.append((q, mu + _NORMAL.inv_cdf(q) * sigma))
    return out


def _require_finite(name: str, values: list[float], keys: Sequence[str] = ()) -> None:
    """Raise ``NumericOverflowError`` naming the first value that is not
    finite: the report holds it, and no strict JSON reader reads it. The
    values come from finite rows, so only float64 overflow makes one."""
    if math.isfinite(sum(values)):  # an inf or NaN term makes the sum inf or NaN
        return
    for i, value in enumerate(values):
        if not math.isfinite(value):
            where = f"{name}[{keys[i]!r}]" if keys else name
            raise NumericOverflowError(
                f"{where} is {value!r}: the sampled values overflow float64")


def analyze(sample: SampleRelation, gus: GusParams, quantiles: Sequence[float] = (),
            subsample: Optional[Mapping[str, tuple[float, int]]] = None) -> dict:
    """Full estimation pipeline on a sample whose f values are bound; returns
    the report document (see the module docstring).

    With ``subsample``, a ``{relation: (p, seed)}`` lineage-keyed filter,
    the y terms come from the rows of ``sample`` that filter keeps. That
    sub-sample is itself a uniform sample of the full data, whose table is
    the compaction of ``gus`` and the filter's table, so the same unbiased
    correction applies with that table. The coefficients still come from
    ``gus``, because the estimate comes from the full sample.
    """
    if sample.schema != gus.schema:
        raise SchemaError(
            f"sample schema {sample.schema.relations} does not match parameter "
            f"schema {gus.schema.relations}"
        )
    keys = gus.schema.subset_keys
    estimate = estimate_sum(sample, gus.a)
    _require_finite("estimate", [estimate])
    diagnostics = [] if len(sample) else ["empty sample: estimate and variance default to 0"]
    terms, terms_gus = sample, gus
    if subsample is not None:
        terms = samplers.lineage_bernoulli(sample, subsample)
        terms_gus = compact(gus, gus_of_lineage_bernoulli(
            {name: p for name, (p, _) in subsample.items()}, gus.schema))
        diagnostics.append(f"variance terms estimated from a {len(terms)}-row "
                           f"sub-sample of {len(sample)} sampled rows")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        y_s = y_sample_terms(terms)
        _require_finite("ySample", list(y_s.values()), keys)
        y_hat = y_unbiased(y_s, terms_gus)
    _require_finite("yHat", list(y_hat.values()), keys)
    c_table = c_coefficients(gus)
    variance = variance_estimate(y_hat, c_table, gus.a, diagnostics)
    # then sigma < 1.4e154, so no interval or quantile bound can overflow
    _require_finite("varianceHat", [variance])
    sigma = math.sqrt(variance)
    doc = {
        "estimate": estimate,
        "a": gus.a,
        "gus": gus.to_json_dict(),
        "ySample": dict(zip(keys, y_s.values())),
        "yHat": dict(zip(keys, y_hat.values())),
        "cTable": dict(zip(keys, c_table.values())),
        "varianceHat": variance,
        "ciNormal": list(confidence_interval(estimate, sigma, "normal")),
        "ciChebyshev": list(confidence_interval(estimate, sigma, "chebyshev")),
        "quantileRequests": [[q, v] for q, v in quantile_bounds(estimate, sigma, quantiles)],
        "sampleRows": len(sample),
        "diagnostics": diagnostics,
    }
    if subsample is not None:
        doc["subsample"] = {"rows": len(terms), "gus": terms_gus.to_json_dict()}
    return doc
