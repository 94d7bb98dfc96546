"""Deterministic in-memory execution of plans with lineage propagation.

Relations are columnar (see :class:`gusbox.model.SampleRelation`). A catalog
maps table names to the stored tables ``ingest.ingest_csv`` builds, and a
scan returns its table as it is. Every operator works on whole columns and
index vectors: selection builds a boolean mask, an equi-join factorises its
keys and matches them with ``argsort``/``searchsorted``, and a join without
equality pairs (a cross product) repeats and tiles row positions. A join's
``theta`` atoms are tested on blocks of candidate pairs, so memory follows
the block and the output, not the product of the inputs. Join and union
outputs are sorted by lineage with ``lexsort``. Output rows carry the
canonical merge of both lineage vectors. Comparisons and join keys give
Python's exact results for mixed ints and floats by one rule, as expressions
do (``gusbox.exprs``): numpy where both sides convert to one dtype exactly,
Python's operator on the rows where they do not (an int64 value past
``model.EXACT_FLOAT_INT`` against a float, an int constant outside int64,
object columns). Equality of two columns shares the join keys' code, so an
int meets a float only where the float is that integer, ``-0.0`` equals
``0.0`` and NaN never matches. Results equal the row-at-a-time reference
kept in the tests. No NULLs anywhere: ingestion rejects missing values, so
operators never see them.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from . import samplers
from .errors import ExpressionError, PlanError, SampleSizeError, SchemaError
from .exprs import Arith
from .model import (
    EXACT_FLOAT_INT,
    INT64_MAX,
    INT64_MIN,
    LineageSchema,
    Record,
    SampleRelation,
    lineage_order,
)
from .plan import (
    BernoulliSpec,
    Comparison,
    Join,
    LineageBernoulliSpec,
    PlanNode,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    check_columns,
    fold,
    strip_sampling,
)

_CMP_FUNCS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)

Catalog = Mapping[str, SampleRelation]  # stored tables by name (see ingest.ingest_csv)


def _python_mask(op: str, xs: list, c) -> np.ndarray:
    fn = _CMP_FUNCS[op]
    return np.fromiter((fn(x, c) for x in xs), dtype=bool, count=len(xs))


def _float_to_int(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as int64 where it holds an integer inside the int64 range, and
    the mask of those positions."""
    ok = (x >= -2.0**63) & (x < 2.0**63)
    as_int = np.where(ok, x, 0.0).astype(np.int64)
    return as_int, ok & (as_int == x)


def _compare_const(op: str, x: np.ndarray, c) -> np.ndarray:
    """``x op c`` as Python's operator gives it on every row: numpy where the
    column and the constant convert to one dtype exactly, Python's operator
    on the rows where they do not."""
    fn = _CMP_FUNCS[op]
    if x.dtype == _FLOAT and (type(c) is float or -EXACT_FLOAT_INT <= c <= EXACT_FLOAT_INT):
        return fn(x, float(c))
    if x.dtype == _INT and type(c) is int and INT64_MIN <= c <= INT64_MAX:
        return fn(x, np.int64(c))
    if x.dtype == _INT and type(c) is float:
        mask = fn(x, c)
        far = np.flatnonzero((x < -EXACT_FLOAT_INT) | (x > EXACT_FLOAT_INT))
        mask[far] = _python_mask(op, x[far].tolist(), c)
        return mask
    return _python_mask(op, x.tolist(), c)


def _equal_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xk, yk, x_ok, y_ok = _key_values(x, y)
    ok = _both(x_ok, y_ok)
    return xk == yk if ok is None else ok & (xk == yk)


def bind_predicate(atoms: Sequence[Comparison], columns: Sequence[str]
                   ) -> Callable[[Sequence[np.ndarray]], np.ndarray]:
    """Compile the conjunction of ``atoms``, whose columns
    ``plan.check_columns`` has checked against ``columns``, to a function
    from column arrays to the boolean mask of rows that pass."""
    columns = list(columns)
    compiled = []
    for atom in atoms:
        i = columns.index(atom.col)
        if atom.col2 is not None:
            j = columns.index(atom.col2)
            compiled.append(lambda data, i=i, j=j: _equal_columns(data[i], data[j]))
        else:
            compiled.append(
                lambda data, i=i, op=atom.cmp, c=atom.value: _compare_const(op, data[i], c))

    def test(data: Sequence[np.ndarray]) -> np.ndarray:
        mask = compiled[0](data)
        for atom_mask in compiled[1:]:
            mask &= atom_mask(data)
        return mask

    return test


def scan(table: SampleRelation) -> SampleRelation:
    """A stored table is already the relation its scan yields."""
    return table


def select(where: Sequence[Comparison], r: SampleRelation) -> SampleRelation:
    if not where:
        return r
    test = bind_predicate(where, r.columns)
    return r.take(test(r.data))


@lru_cache(maxsize=None)
def _merge_maps(left: LineageSchema, right: LineageSchema):
    merged = left.merge_disjoint(right)
    left_pos = [merged.index(name) for name in left.relations]
    right_pos = [merged.index(name) for name in right.relations]
    return merged, tuple(left_pos), tuple(right_pos)


def _key_values(x: np.ndarray, y: np.ndarray):
    """One equi-join column pair as two arrays of one sortable dtype plus
    the masks of the rows that can match at all (None: every row). Two rows
    match on the pair exactly when Python's ``==`` holds for their values:
    an int key meets a float key only where the float is that integer,
    ``-0.0`` meets ``0.0``, and NaN never matches."""
    if x.dtype == object or y.dtype == object:
        seen: dict = {}

        def codes(col: np.ndarray) -> np.ndarray:
            return np.fromiter((-1 if v != v else seen.setdefault(v, len(seen))
                                for v in col.tolist()), dtype=np.int64, count=len(col))

        xk, yk = codes(x), codes(y)
        return xk, yk, xk >= 0, yk >= 0
    if x.dtype == y.dtype == _INT:
        return x, y, None, None
    if x.dtype == y.dtype == _FLOAT:
        return x + 0.0, y + 0.0, ~np.isnan(x), ~np.isnan(y)  # + 0.0 turns -0.0 into 0.0
    if x.dtype == _FLOAT:
        xk, x_ok = _float_to_int(x)
        return xk, y, x_ok, None
    yk, y_ok = _float_to_int(y)
    return x, yk, None, y_ok


def _equi_pairs(pairs: Sequence[tuple[np.ndarray, np.ndarray]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)`` of every left row ``i`` and right row ``j``
    whose keys match on every column pair."""
    lk, rk, l_ok, r_ok = _key_values(*pairs[0])
    if len(pairs) > 1:
        # factorise each pair jointly and fold the codes into one key
        lk, rk = _factorise(lk, rk)
        for x, y in pairs[1:]:
            lc, rc, lc_ok, rc_ok = _key_values(x, y)
            lc, rc = _factorise(lc, rc)
            lk, rk = _factorise(lk * (len(x) + len(y)) + lc, rk * (len(x) + len(y)) + rc)
            l_ok, r_ok = _both(l_ok, lc_ok), _both(r_ok, rc_ok)
    left = lk.argsort() if l_ok is None else l_ok.nonzero()[0]
    if l_ok is not None:
        left = left[lk[left].argsort()]
    keys = lk[left]
    right = np.arange(len(rk)) if r_ok is None else r_ok.nonzero()[0]
    rkeys = rk[right]
    lo = keys.searchsorted(rkeys, side="left")
    counts = keys.searchsorted(rkeys, side="right") - lo
    right = right.repeat(counts)
    offset = (lo - counts.cumsum() + counts).repeat(counts)
    return left[np.arange(len(right)) + offset], right


def _factorise(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes for the values of two arrays, equal codes for equal values."""
    _, codes = np.unique(np.concatenate([x, y]), return_inverse=True)
    return codes[:len(x)].astype(np.int64), codes[len(x):].astype(np.int64)


def _both(a, b):
    if a is None:
        return b
    return a if b is None else a & b


# candidate pairs whose columns a join's theta test gathers at once, so
# that a selective theta join or cross product never holds the full product
_PAIR_BLOCK = 1 << 16


def _cross_blocks(m_left: int, m_right: int):
    """Every ``(i, j)`` position pair of a cross product, in blocks of whole
    left rows holding about ``_PAIR_BLOCK`` pairs each."""
    step = max(1, _PAIR_BLOCK // max(1, m_right))
    for start in range(0, m_left, step):
        stop = min(m_left, start + step)
        yield (np.arange(start, stop).repeat(m_right),
               np.tile(np.arange(m_right), stop - start))


def _passing_pairs(theta, left: SampleRelation, right: SampleRelation, blocks
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``blocks`` whose joined row passes ``theta`` (all of
    them when it is None), tested one block at a time."""
    kept_l, kept_r = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for li, ri in blocks:
        if theta is not None:
            keep = theta([c[li] for c in left.data] + [c[ri] for c in right.data])
            li, ri = li[keep], ri[keep]
        kept_l.append(li)
        kept_r.append(ri)
    return np.concatenate(kept_l), np.concatenate(kept_r)


def join(node: Join, left: SampleRelation, right: SampleRelation) -> SampleRelation:
    """``node`` over its inputs ``left`` and ``right``: reads its ``eq`` and ``theta``."""
    merged_schema, left_pos, right_pos = _merge_maps(left.schema, right.schema)
    columns = left.columns + right.columns
    types = left.column_types + right.column_types

    theta = bind_predicate(node.theta, columns) if node.theta else None

    if node.eq:
        li, ri = _equi_pairs([(left.data[left.column_index(lc)],
                               right.data[right.column_index(rc)])
                              for lc, rc in node.eq])
        if theta is not None:
            li, ri = _passing_pairs(theta, left, right, (
                (li[k:k + _PAIR_BLOCK], ri[k:k + _PAIR_BLOCK])
                for k in range(0, len(li), _PAIR_BLOCK)))
    else:
        li, ri = _passing_pairs(theta, left, right, _cross_blocks(len(left), len(right)))
    lineage = np.empty((len(li), merged_schema.n), dtype=np.int64)
    lineage[:, left_pos] = left.lineage[li]
    lineage[:, right_pos] = right.lineage[ri]
    order = lineage_order(lineage)
    li, ri = li[order], ri[order]
    return SampleRelation(
        merged_schema, columns, types,
        [c[li] for c in left.data] + [c[ri] for c in right.data],
        lineage[order], np.zeros(len(li), dtype=np.float64))


def union_dedup(left: SampleRelation, right: SampleRelation) -> SampleRelation:
    if left.schema != right.schema:
        raise SchemaError(
            f"union over different lineage schemas: {left.schema.relations} vs "
            f"{right.schema.relations}"
        )
    if left.columns != right.columns or left.column_types != right.column_types:
        raise SchemaError("union sides must have identical columns")
    lineage = np.concatenate([left.lineage, right.lineage])
    # lexsort is stable, so of two equal lineages the left side's row comes first
    order = lineage_order(lineage)
    ordered = lineage[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    order = order[first]
    return SampleRelation(
        left.schema, left.columns, left.column_types,
        [np.concatenate([a, b])[order] for a, b in zip(left.data, right.data)],
        ordered[first], np.concatenate([left.f, right.f])[order])


def bind_aggregate(expr: str, r: SampleRelation) -> SampleRelation:
    """Evaluate the aggregate expression per row into the ``f`` slot. A
    value that is NaN or infinite, which no estimate could use, raises an
    ``ExpressionError`` naming the expression and the first such value."""
    arith = Arith(expr, r.columns, r.column_types, what=f"aggregate {expr!r}")
    f = arith.over(r.data, len(r))
    bad = ~np.isfinite(f)
    if bad.any():
        value = float(f[bad][0])
        raise ExpressionError(f"{arith.what}: non-finite value {value!r} on a kept row")
    return SampleRelation(r.schema, r.columns, r.column_types, r.data, r.lineage, f)


def _has_row_sampler(n: PlanNode, path: str, *inputs: bool) -> bool:
    return any(inputs) or isinstance(n, Sample) and isinstance(n.method, (BernoulliSpec, WorSpec))


class ExecutionResult(Record):
    relation: SampleRelation      # pre-aggregate rows, f bound when aggregated
    populations: Mapping[str, int]  # input rows of each WOR sampler, by plan path


def execute(node: PlanNode, catalog: Catalog, master_seed: int = 0) -> ExecutionResult:
    """Run a plan, with sampling, against the catalog.

    Sampler streams are keyed by (master_seed, per-node seed), so one run is
    reproducible and distinct operators draw independently. The result
    records, by plan path, how many rows each fixed-size (WOR) sampler drew
    from; ``normalize_plan`` reads its population sizes from there. A
    ``PlanError`` starts with the offending node's path, as
    ``validate_plan``'s do (``plan.child.left: unknown table 'x'``): the
    plan's columns are checked against the catalog's first
    (``plan.check_columns``). A WOR sampler asked for more rows than its input
    holds raises a ``SampleSizeError`` naming its method. A plan with a
    Bernoulli or WOR sampler loads ``numpy.random`` before the walk
    (``samplers.load_numpy_random``).
    """
    check_columns(node, {name: tuple(zip(t.columns, t.column_types))
                         for name, t in catalog.items()})
    if fold(node, _has_row_sampler):  # here, not at the deepest sampler's stack frame
        samplers.load_numpy_random()
    populations: dict[str, int] = {}

    def visit(n: PlanNode, path: str, *inputs: SampleRelation) -> SampleRelation:
        if isinstance(n, Scan):
            return scan(catalog[n.table])
        if isinstance(n, Select):
            return select(n.where, *inputs)
        if isinstance(n, Join):
            return join(n, *inputs)
        if isinstance(n, UnionDedup):
            return union_dedup(*inputs)
        if isinstance(n, SumAggregate):
            return bind_aggregate(n.expr, *inputs)
        child, m = inputs[0], n.method
        if isinstance(m, BernoulliSpec):
            return samplers.bernoulli_sample(child, m.p, samplers.generator(master_seed, m.seed))
        if isinstance(m, WorSpec):
            populations[path] = len(child)
            try:
                return samplers.wor_sample(child, m.n, samplers.generator(master_seed, m.seed))
            except SampleSizeError as exc:
                raise SampleSizeError(f"{path}.method: {exc}") from None
        if isinstance(m, LineageBernoulliSpec):
            dims = {
                name: (p, samplers.derive_seed(master_seed, seed))
                for name, p, seed in m.dims
            }
            return samplers.lineage_bernoulli(child, dims)
        raise PlanError(f"{path}.method: unknown sampler spec {type(m).__name__}")

    return ExecutionResult(fold(node, visit), populations)


def execute_full(node: PlanNode, catalog: Catalog) -> ExecutionResult:
    """Run the sampling-free version of a plan (full-data ground truth)."""
    return execute(strip_sampling(node), catalog)
