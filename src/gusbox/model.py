"""Core domain types: lineage schemas, subset masks, sampling parameter
tables, and lineage-carrying relations.

A relation (:class:`SampleRelation`) is columnar: one numpy array per
column, an ``m x n`` int64 lineage matrix holding each row's base-tuple ids
in schema order, and a float64 ``f`` array of per-row aggregate values. Its
constructor takes those arrays; :meth:`SampleRelation.from_rows` builds one
from :class:`Row` tuples of Python scalars and checks each cell. ``rows`` is
the reverse view, built on first use for tests and the benchmark harness;
every gusbox module, the oracle included, reads the arrays. A stored table
is a relation too: one over the one-name schema of its table, whose lineage
is the row ids and whose ``f`` is zeros, held as a zero-stride view (see
``gusbox.ingest``).

A lineage schema is the canonically ordered set of base relations feeding an
expression. Subsets of it are represented as bitmasks over the canonical
order, so a parameter table indexed "per subset" is a dense array of length
2**n. A sampling process over such a schema is summarized by the pair
``(a, b)``: ``a`` is the inclusion probability of any single tuple, and
``b[T]`` is the joint inclusion probability of two tuples that agree exactly
on the base relations in subset ``T``. Two tuples agreeing everywhere are the
same tuple, which forces ``b[full] == a``, so :class:`GusParams` stores
``b`` alone and reads ``a`` from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, SelfJoinError

Lineage = tuple  # vector of base-tuple ids, positionally aligned to a schema


@dataclass(frozen=True)
class LineageSchema:
    """Canonically ordered tuple of distinct base-relation names."""

    relations: tuple[str, ...]

    def __post_init__(self):
        names = self.relations
        if any(not n for n in names):
            raise SchemaError("relation names must be non-empty")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate relation names: {names}")
        if tuple(sorted(names)) != names:
            raise SchemaError(f"relation names must be sorted: {names}")

    @classmethod
    def of(cls, names: Iterable[str]) -> "LineageSchema":
        return cls(tuple(sorted(set(names))))

    @property
    def n(self) -> int:
        return len(self.relations)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.relations)) - 1

    @property
    def num_subsets(self) -> int:
        return 1 << len(self.relations)

    def index(self, name: str) -> int:
        try:
            return self.relations.index(name)
        except ValueError:
            raise SchemaError(f"unknown relation {name!r} in schema {self.relations}") from None

    def names_of(self, mask: int) -> tuple[str, ...]:
        if not 0 <= mask <= self.full_mask:
            raise SchemaError(f"mask {mask} out of range for schema of size {self.n}")
        return tuple(r for i, r in enumerate(self.relations) if mask >> i & 1)

    def subset_key(self, mask: int) -> str:
        """Serialization key for a subset: names concatenated in canonical
        order, empty string for the empty set."""
        return "".join(self.names_of(mask))

    @cached_property
    def subset_keys(self) -> tuple[str, ...]:
        """:meth:`subset_key` of every mask, indexed by mask; computed once
        per schema. Raises ``SchemaError`` if two masks share a key, since
        such a schema cannot be serialized."""
        keys = [""]
        for name in self.relations:
            keys += [key + name for key in keys]
        if len(set(keys)) != len(keys):
            raise SchemaError(
                f"schema {self.relations} has ambiguous subset keys; "
                "rename relations to serialize"
            )
        return tuple(keys)

    def merge_disjoint(self, other: "LineageSchema") -> "LineageSchema":
        overlap = set(self.relations) & set(other.relations)
        if overlap:
            raise SelfJoinError(
                f"lineage schemas overlap on {sorted(overlap)}; expressions over "
                "a shared base relation cannot be combined"
            )
        return LineageSchema.of(self.relations + other.relations)


def common_lineage(t: Lineage, u: Lineage) -> int:
    """Mask of positions where two lineage vectors carry the same id."""
    if len(t) != len(u):
        raise SchemaError(f"lineage length mismatch: {len(t)} vs {len(u)}")
    mask = 0
    for k, (a, b) in enumerate(zip(t, u)):
        if a == b:
            mask |= 1 << k
    return mask


@dataclass(frozen=True)
class GusParams:
    """Inclusion-probability summary of a uniform sampling process.

    ``b`` is dense over all 2**n subset masks of ``schema``, with entries in
    [0, 1]; ``a`` is its entry at the full mask.
    """

    schema: LineageSchema
    b: tuple[float, ...]

    def __post_init__(self):
        if len(self.b) != self.schema.num_subsets:
            raise SchemaError(
                f"b table has {len(self.b)} entries, schema needs {self.schema.num_subsets}"
            )
        for mask, value in enumerate(self.b):
            if not 0.0 <= value <= 1.0:
                raise SchemaError(
                    f"b[{self.schema.subset_key(mask) or 'empty'}] = {value} outside [0, 1]"
                )

    @property
    def a(self) -> float:
        return self.b[self.schema.full_mask]

    @property
    def is_identity(self) -> bool:
        return all(v == 1.0 for v in self.b)

    @property
    def is_null(self) -> bool:
        return all(v == 0.0 for v in self.b)

    def to_json_dict(self) -> dict:
        return {
            "schema": list(self.schema.relations),
            "a": self.a,
            "b": dict(zip(self.schema.subset_keys, self.b)),
        }


def project_masks(wide: LineageSchema, narrow: LineageSchema) -> np.ndarray:
    """Index array mapping every subset mask of ``wide`` to the mask, over
    ``narrow``, of its relations that ``narrow`` holds. Built one bit of
    ``wide`` at a time: the masks with that bit set are the masks without
    it, plus the bit's narrow counterpart (none if ``narrow`` lacks it).
    ``algebra.join_merge`` gathers each side's table through it in Python,
    so the gathered entries keep their exact values and types."""
    index = np.zeros(1, dtype=np.intp)
    for name in wide.relations:
        bit = 1 << narrow.relations.index(name) if name in narrow.relations else 0
        index = np.concatenate((index, index | bit))
    return index


class Row(NamedTuple):
    """One tuple of a lineage-carrying relation."""

    values: tuple
    lineage: Lineage
    f: float


INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# each column type, and the Python type of its values
COLUMN_TYPES = {"int64": int, "float64": float, "string": str}


def _fits_int64(values: Iterable) -> bool:
    return all(type(v) is int and INT64_MIN <= v <= INT64_MAX for v in values)


def _check_types(columns: Sequence[str], column_types: Sequence[str]) -> None:
    if len(columns) != len(column_types):
        raise SchemaError("columns and column_types must align")
    for ctype in column_types:
        if ctype not in COLUMN_TYPES:
            raise SchemaError(f"unknown column type {ctype!r}")


def column_array(values: Sequence, ctype: str) -> np.ndarray:
    """One column as an array: int64 when every value is a Python int inside
    the int64 range, float64 when every value is a float, and otherwise an
    object array of the values themselves (strings, ints past int64)."""
    if ctype == "int64" and _fits_int64(values):
        return np.array(values, dtype=np.int64)
    if ctype == "float64" and all(type(v) is float for v in values):
        return np.array(values, dtype=np.float64)
    out = np.empty(len(values), dtype=object)  # holding the values themselves
    out[:] = values
    return out


def value_tuples(data: Sequence[np.ndarray], m: int) -> Iterable[tuple]:
    """The rows of ``m``-row column arrays as tuples of Python scalars."""
    return zip(*(c.tolist() for c in data)) if data else itertools.repeat((), m)


def left_sum(values: np.ndarray) -> float:
    """Sum of a float64 array added left to right from the int 0: Python 3.11's
    ``sum`` bit for bit, whatever the Python (3.12's ``sum`` is compensated,
    ``np.sum`` pairwise). ``+ 0.0`` turns a ``-0.0`` total into ``0.0``."""
    return float(np.add.accumulate(values)[-1] + 0.0) if len(values) else 0


def lineage_order(lineage: np.ndarray) -> np.ndarray:
    """Permutation that sorts the rows of a lineage matrix lexicographically,
    as Python sorts lineage tuples."""
    if lineage.shape[1] == 0:
        return np.arange(len(lineage))
    return np.lexsort(lineage.T[::-1])


class SampleRelation:
    """Bag of rows with per-row lineage and an aggregate value ``f``, held
    column-wise: one array per column in ``data``, an ``m x n`` lineage
    matrix over ``schema`` and an ``f`` array. Numeric columns are int64 or
    float64 arrays; strings, and ints outside the int64 range, sit in object
    arrays. The lineage matrix is always int64: the keyed samplers hash ids
    as 64-bit values, so a wider id would share decisions with another.

    Duplicate-free by full lineage vector: sampling here is filtering, never
    replication, so a lineage identifies a row.

    ``SampleRelation(schema, columns, column_types, data, lineage, f)`` takes
    arrays as ingestion and the engine's operators produce them. It checks
    the column types, the shapes, and that ``lineage`` is int64 and ``f``
    float64, all in O(1) per relation; every operator keeps lineage unique by
    construction. Arrays may be views: a stored table's ``f`` has stride 0,
    and :meth:`take` always returns freshly gathered arrays.
    :meth:`from_rows` builds a relation from :class:`Row` tuples and checks
    them cell by cell.
    """

    def __init__(self, schema: LineageSchema, columns: Sequence[str],
                 column_types: Sequence[str], data: Sequence[np.ndarray],
                 lineage: np.ndarray, f: np.ndarray):
        self.schema = schema
        self.columns = tuple(columns)
        self.column_types = tuple(column_types)
        self.data = tuple(data)
        self.lineage = lineage
        self.f = f
        self.__post_init__()

    def __post_init__(self):
        _check_types(self.columns, self.column_types)
        m, n = len(self.f), self.schema.n
        if self.lineage.shape != (m, n):
            raise SchemaError(f"lineage matrix has shape {self.lineage.shape}, need {(m, n)}")
        if self.lineage.dtype != np.int64 or self.f.dtype != np.float64:
            raise SchemaError(f"lineage must be int64 and f float64, not "
                              f"{self.lineage.dtype} and {self.f.dtype}")
        if len(self.data) != len(self.columns) or {len(c) for c in self.data} - {m}:
            raise SchemaError(f"data must hold {len(self.columns)} columns of {m} rows")
        for array in (self.lineage, self.f, *self.data):
            array.flags.writeable = False  # operators share arrays between relations

    @classmethod
    def from_rows(cls, schema: LineageSchema, columns: Sequence[str],
                  column_types: Sequence[str], rows: Sequence[Row]) -> "SampleRelation":
        """A relation from :class:`Row` tuples, checking that the lineage
        vectors are unique and hold int64 ids, and that every value's Python
        type is its column's (``int``, ``float`` or ``str``)."""
        columns, column_types, rows = tuple(columns), tuple(column_types), tuple(rows)
        _check_types(columns, column_types)
        n = schema.n
        seen = set()
        for row in rows:
            if len(row.lineage) != n:
                raise SchemaError(
                    f"lineage {row.lineage} has length {len(row.lineage)}, schema has {n}"
                )
            if not _fits_int64(row.lineage):
                raise SchemaError(
                    f"lineage {row.lineage} over {schema.relations} holds a non-int64 id")
            if row.lineage in seen:
                raise SchemaError(f"duplicate lineage vector {row.lineage}")
            seen.add(row.lineage)
            if len(row.values) != len(columns):
                raise SchemaError(
                    f"row {row.values} has {len(row.values)} values for "
                    f"{len(columns)} columns"
                )
            for value, column, ctype in zip(row.values, columns, column_types):
                if type(value) is not COLUMN_TYPES[ctype]:
                    raise SchemaError(
                        f"value {value!r} of column {column!r} does not match type {ctype}")
        return cls(
            schema, columns, column_types,
            [column_array([row.values[i] for row in rows], ctype)
             for i, ctype in enumerate(column_types)],
            np.array([row.lineage for row in rows], dtype=np.int64).reshape(len(rows), n),
            np.array([row.f for row in rows], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.f)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """The relation as :class:`Row` tuples of Python scalars, built on
        first use. No library code reads it: the engine, the estimator and
        the oracle read the arrays. Tests and the benchmark harness do."""
        return tuple(Row(v, tuple(lineage), f) for v, lineage, f in zip(
            value_tuples(self.data, len(self)), self.lineage.tolist(), self.f.tolist()))

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(f"unknown column {name!r}; have {self.columns}") from None

    def take(self, index: np.ndarray) -> "SampleRelation":
        """The rows at ``index`` (positions or a boolean mask), in that order.
        A boolean array becomes positions once, so every column is gathered
        by position instead of scanning the mask again."""
        if isinstance(index, np.ndarray) and index.dtype == bool:
            index = np.flatnonzero(index)
        return SampleRelation(self.schema, self.columns, self.column_types,
                              [c[index] for c in self.data], self.lineage[index], self.f[index])

    def with_f(self, f: np.ndarray) -> "SampleRelation":
        return SampleRelation(self.schema, self.columns, self.column_types,
                              self.data, self.lineage, f)

    @cached_property
    def in_lineage_order(self) -> "SampleRelation":
        """This relation with its rows sorted by lineage."""
        return self.take(lineage_order(self.lineage))

    def total_f(self) -> float:
        """Sum of ``f`` in lineage order (:func:`left_sum`), so it does not
        depend on row order; past float64 it is ``inf``, with no numpy warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return left_sum(self.in_lineage_order.f)
