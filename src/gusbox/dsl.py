"""JSON plan documents: the user-facing description of tables, the operator
tree, and requested quantiles.

Node objects use an ``op`` discriminator: scan, select, join, cross, union,
sample, sum. A cross is a join with no ``eq`` pairs and no ``theta`` atoms.
Errors carry the JSON path to the offending element. Every column a node,
the ``sum`` expression or an ``idColumn`` uses is checked against the
declared ``columnTypes``, so a misspelt name or a wrong type fails before
any CSV is read.

One reader, ``_read``, takes every value: each key has one JSON kind (a bool
is none: ``plan.check_kind``, as in the sampler specs) and one default, or
none if it is required. An object's missing keys come before wrong kinds.
"""

from __future__ import annotations

import json
import math
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
    check_kind,
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


_REQUIRED = object()  # the default of a key that must be given


def _read(obj: Mapping, key: str, path: str, kind: type | None = None, default=_REQUIRED):
    """``obj[key]``, or ``default`` if the key is absent; without one the key is
    required. A given value must be of ``kind`` (``str``, ``int`` or ``float``,
    read as a float), if there is one. Errors start with ``path``."""
    if key not in obj:
        if default is _REQUIRED:
            raise PlanError(f"{path}: missing required key {key!r}")
        return default
    value = obj[key]
    if kind is not None:
        check_kind(value, kind, f"{path}: {key}")
    if kind is float:
        with _at(path):  # an integer past the float range
            return float(value)
    return value


def _parse_atom(doc, path: str) -> Comparison:
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: predicate atom must be an object")
    _no_extras(doc, {"col", "cmp", "value", "col2"}, path)
    _read(doc, "col", path)  # each key's presence before any key's kind
    cmp_op = _read(doc, "cmp", path)
    value = _read(doc, "value", path, default=None if "col2" in doc else _REQUIRED)
    col, col2 = _read(doc, "col", path, str), _read(doc, "col2", path, str, None)
    if "value" in doc and value is None:  # not the absent constant of a col2 atom
        raise PlanError(f"{path}: value must be a number or a string, not null")
    with _at(path):
        return Comparison(col, cmp_op, value, col2)


def _parse_atoms(doc, path: str) -> tuple[Comparison, ...]:
    if not isinstance(doc, list):
        raise PlanError(f"{path}: predicate must be a list of atoms")
    return tuple(_parse_atom(a, f"{path}[{i}]") for i, a in enumerate(doc))


def _parse_method(doc, path: str):
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: sampler method must be an object")
    method = _read(doc, "method", path)
    if method == "bernoulli":
        _no_extras(doc, {"method", "p", "seed"}, path)
        p, seed = _read(doc, "p", path, float), _read(doc, "seed", path, int, 0)
        with _at(path):
            return BernoulliSpec(p, seed)
    if method == "wor":
        _no_extras(doc, {"method", "n", "seed"}, path)
        n, seed = _read(doc, "n", path, int), _read(doc, "seed", path, int, 0)
        with _at(path):
            return WorSpec(n, seed)
    if method == "lineage_bernoulli":
        _no_extras(doc, {"method", "dims"}, path)
        dims_doc = _read(doc, "dims", path)
        if not isinstance(dims_doc, dict) or not dims_doc:
            raise PlanError(f"{path}.dims: need a non-empty object of relations")
        dims = {}
        for name, entry in dims_doc.items():
            where = f"{path}.dims.{name}"
            if not isinstance(entry, dict):
                raise PlanError(f"{where}: must be an object")
            _no_extras(entry, {"p", "seed"}, where)
            dims[name] = (_read(entry, "p", where, float), _read(entry, "seed", where, int, 0))
        with _at(path):
            return LineageBernoulliSpec.of(dims)
    raise PlanError(f"{path}: unknown sampling method {method!r}")


def _own_fields(op: str, doc: Mapping, path: str) -> dict:
    """The fields of an ``op`` node other than its inputs."""
    if op == "scan":
        return {"table": _read(doc, "table", path, str)}
    if op == "select":
        return {"where": _parse_atoms(_read(doc, "where", path), f"{path}.where")}
    if op == "join":
        eq_doc = _read(doc, "eq", path, default=[])
        if not isinstance(eq_doc, list):
            raise PlanError(f"{path}.eq: must be a list of [left, right] column pairs")
        eq = []
        for i, pair in enumerate(eq_doc):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise PlanError(f"{path}.eq[{i}]: must be a [left, right] column pair")
            sides = dict(zip(("left", "right"), pair))
            eq.append(tuple(_read(sides, side, f"{path}.eq[{i}]", str) for side in sides))
        theta = _read(doc, "theta", path, default=[])
        return {"eq": tuple(eq), "theta": _parse_atoms(theta, f"{path}.theta")}
    if op == "sample":
        return {"method": _parse_method(_read(doc, "method", path), f"{path}.method")}
    if op == "sum":
        return {"expr": _read(doc, "expr", path, str)}
    return {}  # cross, union


def _parse_node(doc, path: str) -> PlanNode:
    if not isinstance(doc, dict):
        raise PlanError(f"{path}: plan node must be an object")
    op = _read(doc, "op", path)
    if op not in _OPS:  # a tuple, so an unhashable op is compared, not hashed
        raise PlanError(f"{path}: unknown op {op!r}; expected one of {_OPS}")
    cls = _NODES[op]
    _no_extras(doc, {"op", *(cls._inputs if op == "cross" else cls._fields)}, path)
    fields = _own_fields(op, doc, path)
    for name in cls._inputs:  # a comprehension would add a stack frame per plan level
        fields[name] = _parse_node(_read(doc, name, path), f"{path}.{name}")
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


def _no_constant(name: str):
    """``NaN``, ``Infinity`` and ``-Infinity``, which ``json.loads`` would read
    as floats: a plan document is strict JSON, as the report is."""
    raise PlanError(f"{name} is not valid JSON")


def _finite_float(text: str) -> float:
    """A JSON number with a fraction or an exponent; one past float64, which
    ``float`` would read as infinity, is an error."""
    value = float(text)
    if math.isinf(value):
        raise PlanError(f"{text} overflows float64")
    return value


def parse_plan(text: str) -> PlanDocument:
    """Parse and validate a plan document; raises PlanError with a JSON path
    on anything malformed."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise PlanError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise PlanError(f"top level: {exc}") from None
    if not isinstance(doc, dict):
        raise PlanError("top level: plan document must be an object")
    _no_extras(doc, {"tables", "plan", "quantiles"}, "top level")

    tables_doc = _read(doc, "tables", "top level")
    if not isinstance(tables_doc, dict) or not tables_doc:
        raise PlanError("tables: need a non-empty object of table declarations")
    tables = {}
    for name, spec in tables_doc.items():
        path = f"tables.{name}"
        if not isinstance(spec, dict):
            raise PlanError(f"{path}: table declaration must be an object")
        _no_extras(spec, {"path", "idColumn", "columnTypes"}, path)
        types_doc = _read(spec, "columnTypes", path)
        if not isinstance(types_doc, dict) or not types_doc:
            raise PlanError(f"{path}.columnTypes: need a non-empty object")
        for col in types_doc:
            ctype = _read(types_doc, col, f"{path}.columnTypes", str)
            if ctype not in COLUMN_TYPES:
                raise PlanError(f"{path}.columnTypes.{col}: unknown type {ctype!r}; "
                                f"expected one of {tuple(COLUMN_TYPES)}")
        tables[name] = TableSpec(_read(spec, "path", path, str),
                                 _read(spec, "idColumn", path, str, "rowIndex"),
                                 tuple(types_doc.items()))
        _check_id_column(tables[name].id_column, types_doc, f"{path}.idColumn")

    plan = _parse_node(_read(doc, "plan", "top level"), "plan")
    try:
        # the report keys every subset of the output's relations by their
        # names, so names such as a, ab and b collide
        validate_plan(plan).subset_keys
    except SchemaError as exc:  # self-joins, unions over different relations, ambiguous keys
        raise PlanError(str(exc)) from exc
    columns = check_columns(plan, {name: spec.column_types for name, spec in tables.items()})
    if isinstance(plan, SumAggregate):
        _arith(plan.expr, columns, "plan.expr")

    quantiles_doc = _read(doc, "quantiles", "top level", default=[])
    if not isinstance(quantiles_doc, list):
        raise PlanError("quantiles: must be a list of numbers in (0, 1)")
    quantiles = []
    for i, q in enumerate(quantiles_doc):
        check_kind(q, float, f"quantiles[{i}]")
        if not 0.0 < q < 1.0:
            raise PlanError(f"quantiles[{i}]: {q!r} is not in (0, 1)")
        quantiles.append(float(q))

    return PlanDocument(tables=tables, plan=plan, quantiles=tuple(quantiles))
