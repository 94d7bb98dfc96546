"""Row-at-a-time reference for the columnar engine, samplers and CSV
ingestion: the operators as they ran over Python ``Row`` tuples before the
engine went columnar. Tests run a plan through both and require the same
rows, in the same order, with bit-identical values and ``f``.

Relations here are built from ``Row`` tuples with
``SampleRelation.from_rows``, which checks every cell, and read through
``.rows``; nothing below touches the column arrays.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from gusbox.engine import _CMP_FUNCS
from gusbox.errors import ExpressionError, IngestError, PlanError, SampleSizeError, SchemaError
from gusbox.exprs import Arith
from gusbox.model import Row, SampleRelation
from gusbox.plan import (
    BernoulliSpec,
    Join,
    LineageBernoulliSpec,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
)
from gusbox.samplers import derive_seed, generator, keyed_unit


def bind_predicate(atoms, columns):
    columns = list(columns)
    compiled = []
    for atom in atoms:
        i = columns.index(atom.col)
        fn = _CMP_FUNCS[atom.cmp]
        if atom.col2 is not None:
            compiled.append((fn, i, columns.index(atom.col2), True))
        else:
            compiled.append((fn, i, atom.value, False))

    def test(values: tuple) -> bool:
        for fn, i, rhs, is_col in compiled:
            other = values[rhs] if is_col else rhs
            if not fn(values[i], other):
                return False
        return True

    return test


def _with_rows(r: SampleRelation, rows) -> SampleRelation:
    """A relation with ``r``'s schema and columns holding ``rows``."""
    return SampleRelation.from_rows(r.schema, r.columns, r.column_types, rows)


def scan(table: SampleRelation) -> SampleRelation:
    """A stored table in its row form (its ``f`` is zeros already)."""
    return _with_rows(table, table.rows)


def select(where, r: SampleRelation) -> SampleRelation:
    if not where:
        return r
    test = bind_predicate(where, r.columns)
    return _with_rows(r, [row for row in r.rows if test(row.values)])


def join(node: Join, left: SampleRelation, right: SampleRelation) -> SampleRelation:
    merged = left.schema.merge_disjoint(right.schema)
    left_pos = [merged.index(name) for name in left.schema.relations]
    right_pos = [merged.index(name) for name in right.schema.relations]
    columns = left.columns + right.columns
    types = left.column_types + right.column_types
    theta = bind_predicate(node.theta, columns) if node.theta else None

    def merge(llin, rlin):
        out = [0] * merged.n
        for value, pos in zip(llin, left_pos):
            out[pos] = value
        for value, pos in zip(rlin, right_pos):
            out[pos] = value
        return tuple(out)

    out = []
    if node.eq:
        left_idx = [left.column_index(lc) for lc, _ in node.eq]
        right_idx = [right.column_index(rc) for _, rc in node.eq]
        buckets: dict = {}
        for row in left.rows:
            buckets.setdefault(tuple(row.values[i] for i in left_idx), []).append(row)
        pairs = ((lrow, rrow) for rrow in right.rows
                 for lrow in buckets.get(tuple(rrow.values[i] for i in right_idx), ()))
    else:
        pairs = ((lrow, rrow) for lrow in left.rows for rrow in right.rows)
    for lrow, rrow in pairs:
        values = lrow.values + rrow.values
        if theta is None or theta(values):
            out.append(Row(values, merge(lrow.lineage, rrow.lineage), 0.0))
    out.sort(key=lambda row: row.lineage)
    return SampleRelation.from_rows(merged, columns, types, out)


def union_dedup(left: SampleRelation, right: SampleRelation) -> SampleRelation:
    if left.schema != right.schema:
        raise SchemaError("union over different lineage schemas")
    seen = {row.lineage for row in left.rows}
    rows = list(left.rows)
    rows.extend(row for row in right.rows if row.lineage not in seen)
    rows.sort(key=lambda row: row.lineage)
    return _with_rows(left, rows)


def bind_aggregate(expr: str, r: SampleRelation) -> SampleRelation:
    fn = Arith(expr, r.columns, r.column_types, what=f"aggregate {expr!r}")
    rows = [Row(row.values, row.lineage, float(fn(row.values))) for row in r.rows]
    for row in rows:
        if not math.isfinite(row.f):
            raise ExpressionError(f"aggregate {expr!r}: non-finite value {row.f!r} on a kept row")
    return _with_rows(r, rows)


def total_f(r: SampleRelation) -> float:
    return sum(row.f for row in sorted(r.rows, key=lambda row: row.lineage))


def bernoulli_sample(r: SampleRelation, p: float, rng) -> SampleRelation:
    if not r.rows:
        return r
    draws = rng.random(len(r.rows))
    return _with_rows(r, [row for row, u in zip(r.rows, draws) if u < p])


def wor_sample(r: SampleRelation, n: int, rng) -> SampleRelation:
    m = len(r.rows)
    if n > m:
        raise SampleSizeError(f"cannot draw {n} rows from a relation of {m}")
    idx = list(range(m))
    for i in range(n):
        j = int(rng.integers(i, m))
        idx[i], idx[j] = idx[j], idx[i]
    return _with_rows(r, [r.rows[i] for i in sorted(idx[:n])])


def lineage_bernoulli(r: SampleRelation, dims) -> SampleRelation:
    positions = [(r.schema.index(name), p, seed) for name, (p, seed) in sorted(dims.items())]
    return _with_rows(r, [row for row in r.rows
                          if all(keyed_unit(seed, row.lineage[pos]) < p
                                 for pos, p, seed in positions)])


def execute(node, catalog, master_seed: int = 0):
    """(relation, aggregate) of a plan, as ``gusbox.engine.execute`` gives
    them in an ``ExecutionResult``, for plans whose columns
    ``plan.check_columns`` accepts."""

    def rec(n, path: str) -> SampleRelation:
        if isinstance(n, Scan):
            return scan(catalog[n.table])
        if isinstance(n, Select):
            return select(n.where, rec(n.child, f"{path}.child"))
        if isinstance(n, Join):
            return join(n, rec(n.left, f"{path}.left"), rec(n.right, f"{path}.right"))
        if isinstance(n, UnionDedup):
            return union_dedup(rec(n.left, f"{path}.left"), rec(n.right, f"{path}.right"))
        if isinstance(n, Sample):
            child, m = rec(n.child, f"{path}.child"), n.method
            if isinstance(m, BernoulliSpec):
                return bernoulli_sample(child, m.p, generator(master_seed, m.seed))
            if isinstance(m, WorSpec):
                try:
                    return wor_sample(child, m.n, generator(master_seed, m.seed))
                except SampleSizeError as exc:
                    raise SampleSizeError(f"{path}.method: {exc}") from None
            if isinstance(m, LineageBernoulliSpec):
                return lineage_bernoulli(
                    child, {name: (p, derive_seed(master_seed, seed)) for name, p, seed in m.dims})
        raise PlanError(f"unsupported plan node {type(n).__name__}")

    if isinstance(node, SumAggregate):
        relation = bind_aggregate(node.expr, rec(node.child, "plan.child"))
        return relation, total_f(relation)
    return rec(node, "plan"), None


_PARSERS = {"int64": int, "float64": float, "string": str}


def ingest_rows(path: Path, name: str, column_types: dict, id_column: str = "rowIndex"):
    """(rows, ids) of a CSV as ``gusbox.ingest.ingest_csv`` reads it, parsed
    record by record with the ``csv`` module."""
    pairs = list(column_types.items())
    columns = tuple(c for c, _ in pairs)
    types = tuple(t for _, t in pairs)
    rows = []
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise IngestError(f"table {name}: missing column(s) {missing} in {path}")
        for lineno, record in enumerate(reader, start=2):
            values = []
            for col, ctype in pairs:
                raw = record.get(col)
                if raw is None or raw == "":
                    raise IngestError(
                        f"table {name}: missing value for {col!r} at line {lineno}")
                try:
                    values.append(_PARSERS[ctype](raw))
                except ValueError:
                    raise IngestError(
                        f"table {name}: cannot parse {raw!r} as {ctype} "
                        f"for {col!r} at line {lineno}") from None
            rows.append(tuple(values))
    if id_column == "rowIndex":
        ids = tuple(range(len(rows)))
    elif id_column in columns:
        idx = columns.index(id_column)
        if types[idx] != "int64":
            raise IngestError(f"table {name}: id column {id_column!r} must be int64")
        ids = tuple(row[idx] for row in rows)
    else:
        try:
            fn = Arith(id_column, columns, types,
                       what=f"table {name} id expression", integer=True)
        except ExpressionError as exc:
            raise IngestError(str(exc)) from None
        ids = tuple(fn(row) for row in rows)
    if any(not -2**63 <= v < 2**63 for v in ids):
        raise IngestError(f"table {name}: row ids from {id_column!r} must fit int64")
    if len(set(ids)) != len(ids):
        raise IngestError(f"table {name}: duplicate row ids from {id_column!r}")
    return tuple(rows), ids
