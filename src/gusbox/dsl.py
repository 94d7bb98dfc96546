"""JSON plan documents: the user-facing description of tables, the operator
tree, and requested quantiles.

Node objects use an ``op`` discriminator: scan, select, join, cross, union,
sample, sum. A cross is a join with no equality pairs and no residual.
Errors carry the JSON path to the offending element.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping

from .errors import PlanError, SchemaError
from .model import COLUMN_TYPES
from .plan import (
    BernoulliSpec,
    Comparison,
    Join,
    JoinSpec,
    LineageBernoulliSpec,
    PlanNode,
    Predicate,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    validate_plan,
)

_OPS = ("scan", "select", "join", "cross", "union", "sample", "sum")


@dataclass(frozen=True)
class TableSpec:
    name: str
    path: str
    id_column: str                      # column name, expression, or "rowIndex"
    column_types: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PlanDocument:
    tables: dict[str, TableSpec]
    plan: PlanNode
    quantiles: tuple[float, ...]


def _need(obj: Mapping, key: str, path: str):
    if key not in obj:
        raise PlanError(f"{path}: missing required key {key!r}")
    return obj[key]


def _no_extras(obj: Mapping, allowed: set, path: str):
    extra = set(obj) - allowed
    if extra:
        raise PlanError(f"{path}: unexpected key(s) {sorted(extra)}")


@contextmanager
def _at(path: str):
    """Prefix ``path`` to conversion errors and the spec constructors' own."""
    try:
        yield
    except (TypeError, ValueError, OverflowError, PlanError) as exc:
        raise PlanError(f"{path}: {exc}") from None


def _parse_atom(doc, path: str) -> Comparison:
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: predicate atom must be an object")
    _no_extras(doc, {"col", "cmp", "value", "col2"}, path)
    col = _need(doc, "col", path)
    cmp_op = _need(doc, "cmp", path)
    other = {"other_col": doc["col2"]} if "col2" in doc else {"value": _need(doc, "value", path)}
    with _at(path):
        return Comparison(col, cmp_op, **other)


def _parse_predicate(doc, path: str) -> Predicate:
    if not isinstance(doc, list):
        raise PlanError(f"{path}: predicate must be a list of atoms")
    return Predicate(tuple(_parse_atom(a, f"{path}[{i}]") for i, a in enumerate(doc)))


def _integer(doc: Mapping, key: str) -> int:
    """``doc[key]`` (0 if absent), which must be a JSON integer, not a float,
    bool or string: ``int()`` would truncate 1.9 and accept ``true``."""
    value = doc.get(key, 0)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, not {json.dumps(value)}")
    return value


def _probability(doc: Mapping, key: str) -> float:
    """``doc[key]``, which must be a JSON number, not a bool or a string:
    ``float()`` would read ``true`` as 1.0 and ``"0.5"`` as 0.5."""
    value = doc[key]
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, not {json.dumps(value)}")
    return float(value)


def _string(doc: Mapping, key: str, default: str | None = None) -> str:
    """``doc[key]`` (``default`` if absent), which must be a JSON string."""
    value = doc.get(key, default)
    if type(value) is not str:
        raise ValueError(f"{key} must be a string, not {json.dumps(value)}")
    return value


def _parse_method(doc, path: str):
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: sampler method must be an object")
    kind = _need(doc, "method", path)
    if kind == "bernoulli":
        _no_extras(doc, {"method", "p", "seed"}, path)
        _need(doc, "p", path)
        with _at(path):
            return BernoulliSpec(_probability(doc, "p"), _integer(doc, "seed"))
    if kind == "wor":
        _no_extras(doc, {"method", "n", "seed"}, path)
        _need(doc, "n", path)
        with _at(path):
            return WorSpec(_integer(doc, "n"), _integer(doc, "seed"))
    if kind == "lineage_bernoulli":
        _no_extras(doc, {"method", "dims"}, path)
        dims_doc = _need(doc, "dims", path)
        if not isinstance(dims_doc, dict) or not dims_doc:
            raise PlanError(f"{path}.dims: need a non-empty object of relations")
        dims = {}
        for name, entry in dims_doc.items():
            where = f"{path}.dims.{name}"
            if not isinstance(entry, dict):
                raise PlanError(f"{where}: must be an object")
            _no_extras(entry, {"p", "seed"}, where)
            _need(entry, "p", where)
            with _at(where):
                dims[name] = (_probability(entry, "p"), _integer(entry, "seed"))
        with _at(path):
            return LineageBernoulliSpec.of(dims)
    raise PlanError(f"{path}: unknown sampling method {kind!r}")


def _parse_node(doc, tables: Mapping[str, TableSpec], path: str) -> PlanNode:
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: plan node must be an object")
    op = _need(doc, "op", path)
    if op not in _OPS:
        raise PlanError(f"{path}: unknown op {op!r}; expected one of {_OPS}")
    if op == "scan":
        _no_extras(doc, {"op", "table"}, path)
        _need(doc, "table", path)
        with _at(path):
            table = _string(doc, "table")
        if table not in tables:
            raise PlanError(f"{path}: table {table!r} is not declared")
        return Scan(table)
    if op == "select":
        _no_extras(doc, {"op", "where", "child"}, path)
        return Select(
            _parse_predicate(_need(doc, "where", path), f"{path}.where"),
            _parse_node(_need(doc, "child", path), tables, f"{path}.child"),
        )
    if op == "join":
        _no_extras(doc, {"op", "eq", "theta", "left", "right"}, path)
        eq_doc = doc.get("eq", [])
        if not isinstance(eq_doc, list):
            raise PlanError(f"{path}.eq: must be a list of [left, right] column pairs")
        equi = []
        for i, pair in enumerate(eq_doc):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise PlanError(f"{path}.eq[{i}]: must be a [left, right] column pair")
            equi.append((pair[0], pair[1]))
        residual = _parse_predicate(doc.get("theta", []), f"{path}.theta")
        return Join(
            JoinSpec(tuple(equi), residual),
            _parse_node(_need(doc, "left", path), tables, f"{path}.left"),
            _parse_node(_need(doc, "right", path), tables, f"{path}.right"),
        )
    if op in ("cross", "union"):
        _no_extras(doc, {"op", "left", "right"}, path)
        left = _parse_node(_need(doc, "left", path), tables, f"{path}.left")
        right = _parse_node(_need(doc, "right", path), tables, f"{path}.right")
        return Join(JoinSpec(), left, right) if op == "cross" else UnionDedup(left, right)
    if op == "sample":
        _no_extras(doc, {"op", "method", "child"}, path)
        return Sample(
            _parse_method(_need(doc, "method", path), f"{path}.method"),
            _parse_node(_need(doc, "child", path), tables, f"{path}.child"),
        )
    # op == "sum"
    _no_extras(doc, {"op", "expr", "child"}, path)
    _need(doc, "expr", path)
    with _at(path):
        expr = _string(doc, "expr")
    return SumAggregate(
        expr, _parse_node(_need(doc, "child", path), tables, f"{path}.child"))


def parse_plan(text: str) -> PlanDocument:
    """Parse and validate a plan document; raises PlanError with a JSON path
    on anything malformed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise PlanError(f"top level: {exc}") from None
    if not isinstance(doc, dict):
        raise PlanError("top level: plan document must be an object")
    _no_extras(doc, {"tables", "plan", "quantiles"}, "top level")

    tables_doc = _need(doc, "tables", "top level")
    if not isinstance(tables_doc, dict) or not tables_doc:
        raise PlanError("tables: need a non-empty object of table declarations")
    tables = {}
    for name, spec in tables_doc.items():
        path = f"tables.{name}"
        if not isinstance(spec, dict):
            raise PlanError(f"{path}: table declaration must be an object")
        _no_extras(spec, {"path", "idColumn", "columnTypes"}, path)
        types_doc = _need(spec, "columnTypes", path)
        if not isinstance(types_doc, dict) or not types_doc:
            raise PlanError(f"{path}.columnTypes: need a non-empty object")
        for col in types_doc:
            with _at(f"{path}.columnTypes"):
                ctype = _string(types_doc, col)
            if ctype not in COLUMN_TYPES:
                raise PlanError(
                    f"{path}.columnTypes.{col}: unknown type {ctype!r}; "
                    f"expected one of {tuple(COLUMN_TYPES)}"
                )
        _need(spec, "path", path)
        with _at(path):
            tables[name] = TableSpec(
                name=name,
                path=_string(spec, "path"),
                id_column=_string(spec, "idColumn", "rowIndex"),
                column_types=tuple(types_doc.items()),
            )

    plan = _parse_node(_need(doc, "plan", "top level"), tables, "plan")
    try:
        validate_plan(plan)
    except SchemaError as exc:  # self-joins and unions over different relations
        raise PlanError(str(exc)) from exc

    quantiles_doc = doc.get("quantiles", [])
    if not isinstance(quantiles_doc, list):
        raise PlanError("quantiles: must be a list of numbers in (0, 1)")
    quantiles = []
    for i, q in enumerate(quantiles_doc):
        if not isinstance(q, (int, float)) or not 0.0 < q < 1.0:
            raise PlanError(f"quantiles[{i}]: {q!r} is not in (0, 1)")
        quantiles.append(float(q))

    return PlanDocument(tables=tables, plan=plan, quantiles=tuple(quantiles))
