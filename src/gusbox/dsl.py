"""JSON plan documents: the user-facing description of tables, the operator
tree, and requested quantiles.

Node objects use an ``op`` discriminator: scan, select, join, cross, union,
sample, sum. A cross is a join with no ``eq`` pairs and no ``theta`` atoms.
Errors carry the JSON path to the offending element. Every column a node,
the ``sum`` expression or an ``idColumn`` uses is checked against the
declared ``columnTypes``, so a misspelt name or a wrong type fails before
any CSV is read.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Mapping

from .errors import ExpressionError, PlanError, SchemaError
from .exprs import Arith
from .model import COLUMN_TYPES, Record
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
    validate_plan,
)

# each op's node class, whose fields are the op's keys besides ``op``; a
# cross is a join without ``eq`` and ``theta``
_NODES = {"scan": Scan, "select": Select, "join": Join, "cross": Join,
          "union": UnionDedup, "sample": Sample, "sum": SumAggregate}
_OPS = tuple(_NODES)


class TableSpec(Record):
    path: str
    id_column: str                      # column name, expression, or "rowIndex"
    column_types: tuple[tuple[str, str], ...]


class PlanDocument(Record):
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
    _need(doc, "col", path)
    cmp_op = _need(doc, "cmp", path)
    if "col2" not in doc:
        _need(doc, "value", path)
    with _at(path):
        col = _string(doc, "col")
        if "col2" in doc:
            return Comparison(col, cmp_op, col2=_string(doc, "col2"))
        return Comparison(col, cmp_op, value=doc["value"])


def _parse_atoms(doc, path: str) -> tuple[Comparison, ...]:
    if not isinstance(doc, list):
        raise PlanError(f"{path}: predicate must be a list of atoms")
    return tuple(_parse_atom(a, f"{path}[{i}]") for i, a in enumerate(doc))


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


def _own_fields(op: str, doc: Mapping, path: str) -> dict:
    """The fields of an ``op`` node other than its inputs."""
    if op == "scan":
        _need(doc, "table", path)
        with _at(path):
            return {"table": _string(doc, "table")}
    if op == "select":
        return {"where": _parse_atoms(_need(doc, "where", path), f"{path}.where")}
    if op == "join":
        eq_doc = doc.get("eq", [])
        if not isinstance(eq_doc, list):
            raise PlanError(f"{path}.eq: must be a list of [left, right] column pairs")
        eq = []
        for i, pair in enumerate(eq_doc):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise PlanError(f"{path}.eq[{i}]: must be a [left, right] column pair")
            sides = dict(zip(("left", "right"), pair))
            with _at(f"{path}.eq[{i}]"):
                eq.append((_string(sides, "left"), _string(sides, "right")))
        return {"eq": tuple(eq), "theta": _parse_atoms(doc.get("theta", []), f"{path}.theta")}
    if op == "sample":
        return {"method": _parse_method(_need(doc, "method", path), f"{path}.method")}
    if op == "sum":
        _need(doc, "expr", path)
        with _at(path):
            return {"expr": _string(doc, "expr")}
    return {}  # cross, union


def _parse_node(doc, path: str) -> PlanNode:
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: plan node must be an object")
    op = _need(doc, "op", path)
    if op not in _OPS:  # a tuple, so an unhashable op is compared, not hashed
        raise PlanError(f"{path}: unknown op {op!r}; expected one of {_OPS}")
    cls = _NODES[op]
    _no_extras(doc, {"op", *(cls._inputs if op == "cross" else cls._fields)}, path)
    fields = _own_fields(op, doc, path)
    for name in cls._inputs:  # a comprehension would add a stack frame per plan level
        fields[name] = _parse_node(_need(doc, name, path), f"{path}.{name}")
    return cls(**fields)


def _arith(text: str, columns: Mapping[str, str], what: str,
           integer: bool = False) -> None:
    """Build ``text`` as an ``Arith`` over ``columns``: an unknown or
    non-numeric column, or bad syntax, fails here, before any CSV is read."""
    try:
        Arith(text, tuple(columns), tuple(columns.values()), what=what, integer=integer)
    except ExpressionError as exc:
        raise PlanError(str(exc)) from None


def _check_id_column(id_column: str, columns: Mapping[str, str], path: str) -> None:
    """``id_column`` as ``ingest_csv`` reads it: ``rowIndex``, a declared
    int64 column, or an integer expression over the declared columns."""
    if id_column == "rowIndex":
        return
    if id_column not in columns:
        _arith(id_column, columns, path, integer=True)
    elif columns[id_column] != "int64":
        raise PlanError(f"{path}: id column {id_column!r} must be int64")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object of the document. A key given twice is an error, where
    ``json.loads`` would keep the last value. The JSON path is not known
    here, so the message names the key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise PlanError(f"key {key!r} repeated in one object")
        obj[key] = value
    return obj


def parse_plan(text: str) -> PlanDocument:
    """Parse and validate a plan document; raises PlanError with a JSON path
    on anything malformed."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
                path=_string(spec, "path"),
                id_column=_string(spec, "idColumn", "rowIndex"),
                column_types=tuple(types_doc.items()),
            )
        _check_id_column(tables[name].id_column, types_doc, f"{path}.idColumn")

    plan = _parse_node(_need(doc, "plan", "top level"), "plan")
    try:
        # the report keys every subset of the output's relations by their
        # names, so names such as a, ab and b collide
        validate_plan(plan).subset_keys
    except SchemaError as exc:  # self-joins, unions over different relations, ambiguous keys
        raise PlanError(str(exc)) from exc
    columns = check_columns(plan, {name: spec.column_types for name, spec in tables.items()})
    if isinstance(plan, SumAggregate):
        _arith(plan.expr, columns, "plan.expr")

    quantiles_doc = doc.get("quantiles", [])
    if not isinstance(quantiles_doc, list):
        raise PlanError("quantiles: must be a list of numbers in (0, 1)")
    quantiles = []
    for i, q in enumerate(quantiles_doc):
        if not isinstance(q, (int, float)) or not 0.0 < q < 1.0:
            raise PlanError(f"quantiles[{i}]: {q!r} is not in (0, 1)")
        quantiles.append(float(q))

    return PlanDocument(tables=tables, plan=plan, quantiles=tuple(quantiles))
