"""Algebra over sampling parameter tables, and the plan rewriter that
reduces any supported plan to one relational subtree under a single
parameter table.

The merge rules:

* ``join_merge`` multiplies tables across disjoint schemas:
  ``a = a1*a2`` and ``b[T] = b1[T & L1] * b2[T & L2]``, each side's entry
  gathered through ``model.project_masks``. ``compose``, which builds a
  multi-dimensional sampler from per-relation pieces, is another name for
  it.
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

import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import PlanError, SampleSizeError, SchemaError
from .model import GusParams, LineageSchema, extend_schema, project_masks
from .plan import (
    BernoulliSpec,
    Cross,
    GusQuasi,
    Join,
    LineageBernoulliSpec,
    PlanNode,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    contains_sampling,
    lineage_schema_of,
)


def identity_gus(schema: LineageSchema) -> GusParams:
    """The do-nothing filter: insertable anywhere without changing anything."""
    return GusParams(schema, 1.0, (1.0,) * schema.num_subsets)


def null_gus(schema: LineageSchema) -> GusParams:
    """The filter that blocks everything; the additive null of the algebra."""
    return GusParams(schema, 0.0, (0.0,) * schema.num_subsets)


def row_bernoulli_gus(p: float, schema: LineageSchema) -> GusParams:
    """Per-row coin flips over a relation with the given lineage schema.

    Distinct rows get independent decisions whatever lineage they share,
    so every off-full entry is p**2.
    """
    if not 0.0 <= p <= 1.0:
        raise SchemaError(f"probability {p} outside [0, 1]")
    b = [p * p] * schema.num_subsets
    b[schema.full_mask] = p
    return GusParams(schema, p, tuple(b))


def row_wor_gus(n: int, N: int, schema: LineageSchema) -> GusParams:
    """Uniform fixed-size choice of n rows out of N."""
    if N <= 0:
        raise SampleSizeError(f"population size {N} must be positive")
    if not 1 <= n <= N:
        raise SampleSizeError(f"sample size {n} outside [1, {N}]")
    a = n / N
    pair = n * (n - 1) / (N * (N - 1)) if N > 1 else a
    b = [pair] * schema.num_subsets
    b[schema.full_mask] = a
    return GusParams(schema, a, tuple(b))


def gus_of_bernoulli(p: float, relation: str) -> GusParams:
    return row_bernoulli_gus(p, LineageSchema.of([relation]))


def gus_of_wor(n: int, N: int, relation: str) -> GusParams:
    return row_wor_gus(n, N, LineageSchema.of([relation]))


def join_merge(g1: GusParams, g2: GusParams) -> GusParams:
    """Single table covering both sides of a join over disjoint schemas."""
    merged = g1.schema.merge_disjoint(g2.schema)
    a = g1.a * g2.a
    b = list(map(operator.mul,
                 map(g1.b.__getitem__, project_masks(merged, g1.schema).tolist()),
                 map(g2.b.__getitem__, project_masks(merged, g2.schema).tolist())))
    b[merged.full_mask] = a
    return GusParams(merged, a, tuple(b))


# Builds a multi-dimensional sampler from per-relation pieces, before any
# join exists; the same arithmetic as a join.
compose = join_merge


def compact(g1: GusParams, g2: GusParams) -> GusParams:
    """Two independent filters stacked over the same schema."""
    if g1.schema != g2.schema:
        raise SchemaError(
            f"compaction needs identical schemas: {g1.schema.relations} vs {g2.schema.relations}"
        )
    a = g1.a * g2.a
    b = [x * y for x, y in zip(g1.b, g2.b)]
    b[g1.schema.full_mask] = a
    return GusParams(g1.schema, a, tuple(b))


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
    b = [
        2.0 * a - 1.0 + (1.0 - 2.0 * g1.a + x) * (1.0 - 2.0 * g2.a + y)
        for x, y in zip(g1.b, g2.b)
    ]
    b[g1.schema.full_mask] = a
    return GusParams(g1.schema, a, tuple(b))


def gus_of_lineage_bernoulli(dims: Mapping[str, float], schema: LineageSchema) -> GusParams:
    """Parameter table of the lineage-keyed Bernoulli filter: per-relation
    coins composed across dimensions, then widened to the target schema."""
    names = sorted(dims)
    for name in names:
        if name not in schema.relations:
            raise SchemaError(f"dimension {name!r} not in schema {schema.relations}")
    g: Optional[GusParams] = None
    for name in names:
        piece = gus_of_bernoulli(dims[name], name)
        g = piece if g is None else join_merge(g, piece)
    if g is None:
        return identity_gus(schema)
    return extend_schema(g, schema)


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


def c_coefficients(g: GusParams) -> dict[int, float]:
    """Alternating subset sums of the pair-inclusion table, one per subset."""
    return dict(enumerate(subset_transform(g.b, supersets=False, inverse=True).tolist()))


@dataclass(frozen=True)
class RewriteStep:
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


@dataclass(frozen=True)
class NormalizedPlan:
    relational: PlanNode
    gus: GusParams
    trace: tuple[RewriteStep, ...]


def _sampler_note(method) -> str:
    if isinstance(method, BernoulliSpec):
        return f"bernoulli(p={method.p})"
    if isinstance(method, WorSpec):
        return f"wor(n={method.n})"
    if isinstance(method, LineageBernoulliSpec):
        dims = ", ".join(f"{name}={p}" for name, p, _ in method.dims)
        return f"lineage_bernoulli({dims})"
    return type(method).__name__


def normalize_plan(plan: PlanNode, catalog=None) -> NormalizedPlan:
    """Rewrite a plan so all sampling collapses into one parameter table
    over the sampling-free relational plan.

    Fixed-size samplers need ``catalog`` to resolve their full-data input
    size, and may not sit above other samplers (their population size would
    be random). Union sides must compute the same relation once sampling is
    stripped; otherwise single-tuple inclusion would not be uniform and no
    single table can describe the result.

    No two lineage-keyed dimensions anywhere in the plan may share a seed.
    A keyed decision hashes only (seed, base-tuple id), so such dimensions
    make the same decisions rather than independent ones, and the merge
    rules, which assume independent filters, would give a wrong table. The
    ``PlanError`` names both dimensions by their path from the root, in the
    plan document's notation (``plan.child.method.dims.r``). Likewise no
    two row samplers (Bernoulli, WOR) may share a seed: a row sampler's
    stream depends only on the run seed and its own seed, so two of them
    would draw the same numbers. A keyed dimension and a row sampler may
    share a number, since they draw from different generators. Every other
    ``PlanError`` is prefixed with the offending node's path as well.
    """
    steps: list[RewriteStep] = []
    keyed_seeds: dict[int, str] = {}
    row_seeds: dict[int, str] = {}

    def emit(rule, note, inputs, output):
        steps.append(RewriteStep(rule, note, tuple(inputs), output))

    def claim_keyed_seeds(method: LineageBernoulliSpec, path: str) -> None:
        for name, _, seed in method.dims:
            where = f"{path}.method.dims.{name}"
            if seed in keyed_seeds:
                raise PlanError(
                    f"lineage-keyed dimensions {keyed_seeds[seed]} and {where} "
                    f"share seed {seed}: keyed decisions depend only on the seed "
                    "and the base-tuple id, so the two filters are not "
                    "independent; give each keyed dimension its own seed"
                )
            keyed_seeds[seed] = where

    def claim_row_seed(method, path: str) -> None:
        where = f"{path}.method"
        if method.seed in row_seeds:
            raise PlanError(
                f"row samplers {row_seeds[method.seed]} and {where} share seed "
                f"{method.seed}: both draw the same random stream, so they are "
                "not independent; give each sampler its own seed"
            )
        row_seeds[method.seed] = where

    def stack(note: str, g_s: GusParams, child: PlanNode,
              g_child: GusParams) -> tuple[PlanNode, GusParams]:
        """Emit a sampling node's table and fuse it onto its input's."""
        emit("sampler_to_gus", note, (), g_s)
        if g_child.is_identity:
            return child, g_s
        merged = compact(g_s, g_child)
        emit("gus_compact", "fuse stacked filters", (g_s, g_child), merged)
        return child, merged

    def rec(node: PlanNode, path: str) -> tuple[PlanNode, GusParams]:
        if isinstance(node, Scan):
            return node, identity_gus(LineageSchema.of([node.table]))
        if isinstance(node, Select):
            child, g = rec(node.child, f"{path}.child")
            # selection commutes with the filter; parameters unchanged
            return Select(node.predicate, child), g
        if isinstance(node, (Join, Cross)):
            lnode, gl = rec(node.left, f"{path}.left")
            rnode, gr = rec(node.right, f"{path}.right")
            merged = join_merge(gl, gr)
            if gl.is_identity and not gr.is_identity:
                emit("identity_gus", f"identity over {gl.schema.relations}", (), gl)
            if gr.is_identity and not gl.is_identity:
                emit("identity_gus", f"identity over {gr.schema.relations}", (), gr)
            if not (gl.is_identity and gr.is_identity):
                emit("join_gus_merge", "merge across join", (gl, gr), merged)
            if isinstance(node, Join):
                return Join(node.condition, lnode, rnode), merged
            return Cross(lnode, rnode), merged
        if isinstance(node, UnionDedup):
            lnode, gl = rec(node.left, f"{path}.left")
            rnode, gr = rec(node.right, f"{path}.right")
            if lnode != rnode:
                raise PlanError(
                    f"{path}: union sides must compute the same relation for the "
                    "result to stay uniformly sampled; rewrite the plan so both sides "
                    "share one relational subtree"
                )
            merged = union_merge(gl, gr)
            if not (gl.is_identity and gr.is_identity):
                emit("union_gus_merge", "merge across union", (gl, gr), merged)
            return UnionDedup(lnode, rnode), merged
        if isinstance(node, Sample):
            if isinstance(node.method, LineageBernoulliSpec):
                claim_keyed_seeds(node.method, path)
            elif isinstance(node.method, (BernoulliSpec, WorSpec)):
                claim_row_seed(node.method, path)
            child, g_child = rec(node.child, f"{path}.child")
            schema = lineage_schema_of(child)
            method = node.method
            if isinstance(method, BernoulliSpec):
                g_s = row_bernoulli_gus(method.p, schema)
            elif isinstance(method, WorSpec):
                if contains_sampling(node.child):
                    raise PlanError(
                        f"{path}: fixed-size sampling over an already randomized "
                        "input is not analyzable (its population size is random)"
                    )
                if catalog is None:
                    raise PlanError(
                        f"{path}: fixed-size sampling needs a catalog to resolve "
                        "its input size"
                    )
                from .engine import execute  # deferred: engine imports plan types

                population = len(execute(child, catalog).relation)
                g_s = row_wor_gus(method.n, population, schema)
            elif isinstance(method, LineageBernoulliSpec):
                g_s = gus_of_lineage_bernoulli(
                    {name: p for name, p, _ in method.dims}, schema)
            else:
                raise PlanError(f"{path}.method: unknown sampler spec {type(method).__name__}")
            return stack(_sampler_note(method), g_s, child, g_child)
        if isinstance(node, GusQuasi):
            child, g_child = rec(node.child, f"{path}.child")
            g_s = extend_schema(node.params, lineage_schema_of(child))
            return stack("explicit parameter table", g_s, child, g_child)
        if isinstance(node, SumAggregate):
            raise PlanError(f"{path}: sum aggregate may appear only at the plan root")
        raise PlanError(f"{path}: unsupported plan node {type(node).__name__}")

    if isinstance(plan, SumAggregate):
        child, gus = rec(plan.child, "plan.child")
        return NormalizedPlan(SumAggregate(plan.expr, child), gus, tuple(steps))
    child, gus = rec(plan, "plan")
    return NormalizedPlan(child, gus, tuple(steps))
