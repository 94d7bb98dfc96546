"""CSV ingestion into stored tables. A stored table is a
:class:`~gusbox.model.SampleRelation` over the one-name schema of its table:
its lineage holds a unique int64 id per row, and its ``f`` is zeros.

Each file is parsed into typed numpy columns by numpy's C tokenizer
(``np.loadtxt``). That parser accepts no field that Python's ``int()`` or
``float()`` would reject or read differently, so wherever it fails (and for
files with quote or NUL characters), the same file goes through the ``csv``
module row by row, which finds the first bad field and words the error with
its line.
Strings, and ints outside the int64 range, land in object columns; a row id
outside that range is an error, and so is a file that is not UTF-8.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ExpressionError, IngestError
from .exprs import Arith
from .model import COLUMN_TYPES, LineageSchema, SampleRelation, column_array

_DTYPES = {"int64": np.int64, "float64": np.float64, "string": object}


def _plain(path: Path) -> bool:
    """Whether the file has no quote and no NUL character, so that splitting
    lines at commas reads it as the ``csv`` module does."""
    raw = path.read_bytes()
    return b'"' not in raw and b"\0" not in raw


def _fast_columns(path: Path, header: list[str],
                  pairs: list[tuple[str, str]]) -> Optional[list[np.ndarray]]:
    """The declared columns parsed by ``np.loadtxt``, or None when the file
    needs the row-by-row path."""
    if not pairs or not _plain(path):
        return None
    # a repeated header name maps to its last column, as in csv.DictReader
    usecols = [len(header) - 1 - header[::-1].index(col) for col, _ in pairs]
    dtype = np.dtype([(f"c{i}", _DTYPES[ctype]) for i, (_, ctype) in enumerate(pairs)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no records
            # numpy releases before the deprecation expired read an int field
            # through a float ('1.5' as 1, 2**63 as a wrong int64) and only warn
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                               quotechar=None, skiprows=1, usecols=usecols, ndmin=1,
                               encoding="utf-8")
    except (ValueError, DeprecationWarning):  # ValueError includes UnicodeDecodeError
        return None
    columns = [table[name].copy() for name in dtype.names]
    for (_, ctype), column in zip(pairs, columns):
        if ctype == "string" and "" in column.tolist():
            return None
    return columns


def _row_columns(path: Path, name: str,
                 pairs: list[tuple[str, str]]) -> tuple[list[np.ndarray], int]:
    """The declared columns parsed row by row, and the number of records;
    raises on the first missing or unparsable value."""
    rows = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for lineno, record in enumerate(reader, start=2):
            values = []
            for col, ctype in pairs:
                raw = record.get(col)
                if raw is None or raw == "":
                    raise IngestError(
                        f"table {name}: missing value for {col!r} at line {lineno}")
                try:
                    values.append(COLUMN_TYPES[ctype](raw))
                except ValueError:
                    raise IngestError(
                        f"table {name}: cannot parse {raw!r} as {ctype} "
                        f"for {col!r} at line {lineno}") from None
            rows.append(values)
    return [column_array([row[i] for row in rows], ctype)
            for i, (_, ctype) in enumerate(pairs)], len(rows)


def ingest_csv(path: Union[str, Path], name: str,
               column_types: Union[Mapping[str, str], Sequence[tuple[str, str]]],
               id_column: str = "rowIndex") -> SampleRelation:
    """Load a headered CSV into a stored table over the schema ``(name,)``.

    ``id_column`` selects the unique int64 row id: the literal string
    ``"rowIndex"`` numbers rows 0..N-1, a declared int64 column uses its
    values, and anything else is treated as an integer expression over the
    declared columns (e.g. a key combination like ``okey*10+lineno``).
    """
    pairs = list(column_types.items()) if isinstance(column_types, Mapping) \
        else list(column_types)
    columns = tuple(c for c, _ in pairs)
    types = tuple(t for _, t in pairs)
    for col, ctype in pairs:
        if ctype not in COLUMN_TYPES:
            raise IngestError(f"table {name}: unknown type {ctype!r} for column {col!r}")

    path = Path(path)
    if not path.exists():
        raise IngestError(f"table {name}: file {path} does not exist")
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise IngestError(f"table {name}: missing column(s) {missing} in {path}")
        data = _fast_columns(path, header, pairs)
        if data is None:
            data, m = _row_columns(path, name, pairs)
        else:
            m = len(data[0])
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a NUL before Python 3.11
        raise IngestError(f"table {name}: cannot read {path}: {exc}") from None

    if id_column == "rowIndex":
        ids = np.arange(m, dtype=np.int64)
    elif id_column in columns:
        idx = columns.index(id_column)
        if types[idx] != "int64":
            raise IngestError(f"table {name}: id column {id_column!r} must be int64")
        ids = data[idx]
    else:
        try:
            arith = Arith(id_column, columns, types,
                          what=f"table {name} id expression", integer=True)
        except ExpressionError as exc:
            raise IngestError(str(exc)) from None
        ids = arith.over(data, m)

    if ids.dtype != np.int64:  # an int column or id expression holds ints past int64
        raise IngestError(f"table {name}: row ids from {id_column!r} must fit int64")
    ordered = np.sort(ids)
    if np.any(ordered[1:] == ordered[:-1]):
        raise IngestError(f"table {name}: duplicate row ids from {id_column!r}")
    return SampleRelation(LineageSchema.of([name]), columns, types, data,
                          ids.reshape(-1, 1), np.zeros(m, dtype=np.float64))
