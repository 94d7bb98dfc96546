"""Algebra over sampling parameter tables, and the plan rewriter that
reduces all the sampling in a supported plan to a single parameter table
over the sampling-free plan.

The rewriter is the last of three steps: ``plan.validate_plan`` checks the
plan before any data is read, ``engine.execute`` runs it and records the
population each fixed-size sampler drew from, and ``normalize_plan`` turns
the plan into its table and rewrite trace. Every sampler commutes up past
selection and join, so the table depends only on the plan's shape and those
population sizes; this module reads no data and imports nothing from the
engine.

The merge rules:

* ``join_merge`` multiplies tables across disjoint schemas:
  ``a = a1*a2`` and ``b[T] = b1[T & L1] * b2[T & L2]``, each side's entry
  gathered through ``model.project_masks``. It also builds a
  multi-dimensional sampler from per-relation pieces, and widens a table:
  joined with the identity table (``a = 1``, every ``b[T] = 1``) over
  relations it never filters, each entry keeps its bits, since
  ``x * 1.0 == x``.
* ``compact`` stacks two filters over the same schema: ``a = a1*a2``,
  ``b[T] = b1[T] * b2[T]``.
* ``union_merge`` combines two independent samples of the same relation:
  ``a = a1 + a2 - a1*a2`` and ``b[T] = 2a - 1 + (1 - 2*a1 + b1[T]) *
  (1 - 2*a2 + b2[T])`` (the product of the two "neither tuple kept"
  probabilities, re-expressed).

The variance coefficients are the alternating subset sums
``c[S] = sum over T <= S of (-1)**|S - T| * b[T]``; with them the estimator
variance is ``sum_S c[S]/a**2 * y[S] - y[empty]``. ``c`` is the subset
Mobius transform of ``b``, computed by ``subset_transform`` in O(n * 2**n)
(Yates 1937; Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007): one pass
per bit, each adding or subtracting the half of the table without the bit
to or from the half with it (subsets) or the other way round (supersets).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import PlanError, SampleSizeError, SchemaError
from .model import GusParams, LineageSchema, Record, project_masks
from .plan import (
    BernoulliSpec,
    Join,
    PlanNode,
    Sample,
    Scan,
    UnionDedup,
    WorSpec,
    fold,
    validate_plan,
)


def identity_gus(schema: LineageSchema) -> GusParams:
    """The do-nothing filter: insertable anywhere without changing anything."""
    return GusParams(schema, np.ones(schema.num_subsets))


def null_gus(schema: LineageSchema) -> GusParams:
    """The filter that blocks everything; the additive null of the algebra."""
    return GusParams(schema, np.zeros(schema.num_subsets))


def row_bernoulli_gus(p: float, schema: LineageSchema) -> GusParams:
    """Per-row coin flips over a relation with the given lineage schema.

    Distinct rows get independent decisions whatever lineage they share,
    so every off-full entry is p**2.
    """
    if not 0.0 <= p <= 1.0:
        raise SchemaError(f"probability {p} outside [0, 1]")
    b = np.full(schema.num_subsets, p * p)
    b[schema.full_mask] = p
    return GusParams(schema, b)


def row_wor_gus(n: int, N: int, schema: LineageSchema) -> GusParams:
    """Uniform fixed-size choice of n rows out of N."""
    if N <= 0:
        raise SampleSizeError(f"population size {N} must be positive")
    if not 1 <= n <= N:
        raise SampleSizeError(f"sample size {n} outside [1, {N}]")
    a = n / N
    pair = n * (n - 1) / (N * (N - 1)) if N > 1 else a
    b = np.full(schema.num_subsets, pair)
    b[schema.full_mask] = a
    return GusParams(schema, b)


def join_merge(g1: GusParams, g2: GusParams) -> GusParams:
    """Single table covering both sides of a join over disjoint schemas."""
    merged = g1.schema.merge_disjoint(g2.schema)
    return GusParams(merged, g1.b[project_masks(merged, g1.schema)]
                     * g2.b[project_masks(merged, g2.schema)])


def compact(g1: GusParams, g2: GusParams) -> GusParams:
    """Two independent filters stacked over the same schema."""
    if g1.schema != g2.schema:
        raise SchemaError(
            f"compaction needs identical schemas: {g1.schema.relations} vs {g2.schema.relations}"
        )
    return GusParams(g1.schema, g1.b * g2.b)


def union_merge(g1: GusParams, g2: GusParams) -> GusParams:
    """Set union (dedup by lineage) of two independent samples of the same
    relation."""
    if g1.schema != g2.schema:
        raise SchemaError(
            f"union needs identical schemas: {g1.schema.relations} vs {g2.schema.relations}"
        )
    # null contributes nothing; skip the formula so the identity is bit-exact
    if g1.is_null:
        return g2
    if g2.is_null:
        return g1
    a = g1.a + g2.a - g1.a * g2.a
    # each entry's formula, grouped as written: the scalar parts round first
    b = 2.0 * a - 1.0 + (1.0 - 2.0 * g1.a + g1.b) * (1.0 - 2.0 * g2.a + g2.b)
    b[g1.schema.full_mask] = a
    return GusParams(g1.schema, b)


def gus_of_lineage_bernoulli(dims: Mapping[str, float], schema: LineageSchema) -> GusParams:
    """Parameter table of the lineage-keyed Bernoulli filter: per-relation
    coins joined onto the identity, then joined with the identity over the
    schema's other relations, which the filter never looks at."""
    names = sorted(dims)
    for name in names:
        if name not in schema.relations:
            raise SchemaError(f"dimension {name!r} not in schema {schema.relations}")
    g = identity_gus(LineageSchema(()))
    for name in names:
        g = join_merge(g, row_bernoulli_gus(dims[name], LineageSchema.of([name])))
    return join_merge(g, identity_gus(LineageSchema.of(set(schema.relations) - set(dims))))


def subset_transform(values: Sequence[float], *, supersets: bool,
                     inverse: bool) -> np.ndarray:
    """Fast zeta (``inverse=False``) or Mobius (``inverse=True``) transform of
    a table indexed by subset mask, over the subsets or the supersets of
    each mask; returns a new float64 array.

    The zeta transform sums ``values[T]`` over ``T <= S`` (or ``T >= S``);
    the Mobius transform undoes it, which gives the alternating sums
    ``sum of (-1)**|S ^ T| * values[T]``.
    """
    z = np.array(values, dtype=np.float64)
    step = 1
    while step < len(z):
        v = z.reshape(-1, 2, step)  # v[:, 1, :] holds the masks with this bit
        dst, src = (v[:, 0, :], v[:, 1, :]) if supersets else (v[:, 1, :], v[:, 0, :])
        if inverse:
            dst -= src
        else:
            dst += src
        step <<= 1
    return z


def c_coefficients(g: GusParams) -> np.ndarray:
    """Alternating subset sums of the pair-inclusion table, indexed by mask."""
    return subset_transform(g.b, supersets=False, inverse=True)


class RewriteStep(Record):
    """One applied rewrite, for the --explain trace."""

    rule: str
    note: str
    inputs: tuple[GusParams, ...]
    output: GusParams

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "note": self.note,
            "before": [g.to_json_dict() for g in self.inputs],
            "after": self.output.to_json_dict(),
        }


class NormalizedPlan(Record):
    gus: GusParams
    trace: tuple[RewriteStep, ...]


def _sampler_note(method) -> str:
    if isinstance(method, BernoulliSpec):
        return f"bernoulli(p={method.p})"
    if isinstance(method, WorSpec):
        return f"wor(n={method.n})"
    dims = ", ".join(f"{name}={p}" for name, p, _ in method.dims)
    return f"lineage_bernoulli({dims})"


def normalize_plan(plan: PlanNode,
                   populations: Mapping[str, int] = MappingProxyType({})) -> NormalizedPlan:
    """The one parameter table that all the sampling in a plan collapses
    into, over the sampling-free plan (``plan.strip_sampling``), with the
    rewrite steps that built it.

    The plan is checked with :func:`validate_plan` first, so the rewrite
    sees only plans the algebra can describe. A fixed-size (WOR) sampler's
    table needs the size of the population it draws from: ``populations``
    maps each WOR sampler's plan path to it, as a run of the plan records
    them (``ExecutionResult.populations``). Plans without a WOR sampler
    need none.
    """
    validate_plan(plan)
    steps: list[RewriteStep] = []

    def emit(rule, note, inputs, output):
        steps.append(RewriteStep(rule, note, tuple(inputs), output))

    def visit(node: PlanNode, path: str, *inputs: GusParams) -> GusParams:
        if isinstance(node, Scan):
            return identity_gus(LineageSchema.of([node.table]))
        if isinstance(node, Join):
            gl, gr = inputs
            merged = join_merge(gl, gr)
            if gl.is_identity and not gr.is_identity:
                emit("identity_gus", f"identity over {gl.schema.relations}", (), gl)
            if gr.is_identity and not gl.is_identity:
                emit("identity_gus", f"identity over {gr.schema.relations}", (), gr)
            if not (gl.is_identity and gr.is_identity):
                emit("join_gus_merge", "merge across join", (gl, gr), merged)
            return merged
        if isinstance(node, UnionDedup):
            gl, gr = inputs
            merged = union_merge(gl, gr)
            if not (gl.is_identity and gr.is_identity):
                emit("union_gus_merge", "merge across union", (gl, gr), merged)
            return merged
        g_child = inputs[0]
        if not isinstance(node, Sample):
            # selection commutes with the filter, and the sum reads the
            # table of its input; parameters unchanged
            return g_child
        # a sampling node: its own table, fused onto its input's
        method = node.method
        if isinstance(method, BernoulliSpec):
            g_s = row_bernoulli_gus(method.p, g_child.schema)
        elif isinstance(method, WorSpec):
            if path not in populations:
                raise PlanError(f"{path}: no population size for this fixed-size sampler; "
                                "pass the populations of a run of this plan")
            g_s = row_wor_gus(method.n, populations[path], g_child.schema)
        else:
            g_s = gus_of_lineage_bernoulli(
                {name: p for name, p, _ in method.dims}, g_child.schema)
        emit("sampler_to_gus", _sampler_note(method), (), g_s)
        if g_child.is_identity:
            return g_s
        merged = compact(g_s, g_child)
        emit("gus_compact", "fuse stacked filters", (g_s, g_child), merged)
        return merged

    return NormalizedPlan(fold(plan, visit), tuple(steps))
