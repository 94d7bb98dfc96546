"""CSV ingestion into stored tables. A stored table is a
:class:`~gusbox.model.SampleRelation` over the one-name schema of its table:
its lineage holds a unique int64 id per row, and its ``f`` is zeros: a
read-only zero-stride view of one float (``np.broadcast_to``) that holds no
bytes per row. Every operator that keeps rows gathers ``f`` into an ordinary
array, and ``engine.bind_aggregate`` replaces it.

Each file is parsed into typed numpy columns by numpy's C tokenizer
(``np.loadtxt``). The columns are the fields of the one structured block it
parses, not copies of them: they share that block, which is freed when the
last of them is. That parser accepts no field that Python's ``int()`` or
``float()`` would reject or read differently, so wherever it fails (and for
files with quote or NUL characters, which a check reading the file in
64 KiB blocks finds), the same file goes through the ``csv`` module row by
row, which finds the first bad field and words the error with its line.
Strings, and ints outside the int64 range, land in object columns; a row id
outside that range is an error, and so is a file that is not UTF-8. A
leading UTF-8 byte-order mark, which spreadsheet exports write, is skipped:
the header and the row path decode with ``utf-8-sig``, and ``np.loadtxt``
never reads the header line.

A table can be sampled as it is read (``ingest_csv``'s ``sample``): the file
is then parsed ``_ROW_BLOCK`` records at a time from one open handle, each
block gets its row ids and goes through the sampler, and only the rows the
sampler keeps are stored, so the table is never held whole; the ids of every
row are kept for the duplicate check. A file that needs the row path, or a
block whose ids cannot be read, ends that read before a row is stored: the
table is then read whole as above and goes through a new sampler, which draws
from the start of its stream, so the rows kept and every error are the
whole-table read's.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ExpressionError, IngestError
from .exprs import Arith
from .model import COLUMN_TYPES, LineageSchema, SampleRelation, column_array

_DTYPES = {"int64": np.int64, "float64": np.float64, "string": object}


# bytes per read of the quote and NUL check: small next to a table's file
_CHECK_BLOCK = 1 << 16


def _plain(path: Path) -> bool:
    """Whether the file has no quote and no NUL character, so that splitting
    lines at commas reads it as the ``csv`` module does. Read in blocks of
    ``_CHECK_BLOCK`` bytes, so the file is never held whole."""
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(_CHECK_BLOCK), b""):
            if b'"' in block or b"\0" in block:
                return False
    return True


def _loadtxt(source, pairs: list[tuple[str, str]], usecols: list[int], skiprows: int,
             max_rows: Optional[int] = None) -> Optional[list[np.ndarray]]:
    """The declared columns of ``source`` (a path, or a text handle read
    from where it stands) parsed by ``np.loadtxt``, or None when the records
    need the row-by-row path."""
    dtype = np.dtype([(f"c{i}", _DTYPES[ctype]) for i, (_, ctype) in enumerate(pairs)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no records
            # numpy releases before the deprecation expired read an int field
            # through a float ('1.5' as 1, 2**63 as a wrong int64) and only warn
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                               quotechar=None, skiprows=skiprows, usecols=usecols, ndmin=1,
                               encoding="utf-8", max_rows=max_rows)
    except (ValueError, DeprecationWarning):  # ValueError includes UnicodeDecodeError
        return None
    columns = [table[name] for name in dtype.names]
    for (_, ctype), column in zip(pairs, columns):
        if ctype == "string" and "" in column.tolist():
            return None
    return columns


def _usecols(header: list[str], pairs: list[tuple[str, str]]) -> list[int]:
    # a repeated header name maps to its last column, as in csv.DictReader
    return [len(header) - 1 - header[::-1].index(col) for col, _ in pairs]


def _fast_columns(path: Path, header: list[str],
                  pairs: list[tuple[str, str]]) -> Optional[list[np.ndarray]]:
    """The declared columns parsed by ``np.loadtxt``, or None when the file
    needs the row-by-row path."""
    if not pairs or not _plain(path):
        return None
    return _loadtxt(path, pairs, _usecols(header, pairs), skiprows=1)


def _row_columns(path: Path, name: str,
                 pairs: list[tuple[str, str]]) -> tuple[list[np.ndarray], int]:
    """The declared columns parsed row by row, and the number of records;
    raises on the first missing or unparsable value."""
    rows = []
    with path.open(newline="", encoding="utf-8-sig") as handle:
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


def _row_ids(name: str, id_column: str, columns: tuple[str, ...], types: tuple[str, ...],
             data: list[np.ndarray], m: int, first: int = 0) -> np.ndarray:
    """The int64 ids of ``m`` parsed rows, the first of them the file's row
    ``first`` (counted from 0), as ``ingest_csv`` describes them."""
    if id_column == "rowIndex":
        ids = np.arange(first, first + m, dtype=np.int64)
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
    return ids


def _require_unique(name: str, id_column: str, pieces: list[np.ndarray]) -> None:
    """Raise unless the ids in the arrays ``pieces`` are distinct. Empties
    ``pieces``, so that of their ids only one sorted copy is held."""
    ordered = np.concatenate(pieces)
    pieces.clear()
    ordered.sort()
    if np.any(ordered[1:] == ordered[:-1]):
        raise IngestError(f"table {name}: duplicate row ids from {id_column!r}")


# records per np.loadtxt call while a table is sampled as it is read: small
# next to the tables worth sampling, and large enough that the cost of a call
# does not show
_ROW_BLOCK = 1 << 14


def _sampled(path: Path, name: str, header: list[str], pairs: list[tuple[str, str]],
             id_column: str, sample: Callable) -> Optional[SampleRelation]:
    """The rows a sampler started by ``sample()`` keeps of the table, read
    and sampled ``_ROW_BLOCK`` records at a time; None, before any sampler
    is started, when the file needs the row path, and after it when a block
    does or a block's ids cannot be read."""
    if not pairs or not _plain(path):
        return None
    usecols = _usecols(header, pairs)
    schema = LineageSchema.of([name])
    columns = tuple(c for c, _ in pairs)
    types = tuple(t for _, t in pairs)
    keep = sample()
    kept = [[] for _ in range(len(pairs) + 1)]  # pieces of each kept column, then of the lineage
    ids = []
    m = 0
    with path.open(encoding="utf-8") as handle:
        while True:
            data = _loadtxt(handle, pairs, usecols, 0 if ids else 1, _ROW_BLOCK)
            if data is None:
                return None
            size = len(data[0])
            try:
                block_ids = _row_ids(name, id_column, columns, types, data, size, m)
            except (IngestError, ExpressionError):
                return None
            # a copy, where the ids are a field of the parsed block, frees the block
            ids.append(np.ascontiguousarray(block_ids))
            rows = keep(SampleRelation(schema, columns, types, data, block_ids.reshape(-1, 1),
                                       np.broadcast_to(np.float64(0.0), (size,))))
            for pieces, array in zip(kept, (*rows.data, rows.lineage)):
                pieces.append(array)
            m += size
            if size < _ROW_BLOCK:
                break
    _require_unique(name, id_column, ids)
    arrays = []
    for pieces in kept:  # each column's pieces are freed once it is joined
        arrays.append(np.concatenate(pieces))
        pieces.clear()
    return SampleRelation(schema, columns, types, arrays[:-1], arrays[-1],
                          np.broadcast_to(np.float64(0.0), (len(arrays[-1]),)))


def ingest_csv(path: Union[str, Path], name: str,
               column_types: Union[Mapping[str, str], Sequence[tuple[str, str]]],
               id_column: str = "rowIndex", sample: Optional[Callable] = None) -> SampleRelation:
    """Load a headered CSV into a stored table over the schema ``(name,)``.

    ``id_column`` selects the unique int64 row id: the literal string
    ``"rowIndex"`` numbers rows 0..N-1, a declared int64 column uses its
    values, and anything else is treated as an integer expression over the
    declared columns (e.g. a key combination like ``okey*10+lineno``).

    ``sample``, when given, samples the table as it is read. Each call
    ``sample()`` starts a sampler: a function from a stored table to the
    rows it keeps. The table is handed to one sampler in blocks of
    consecutive rows, in file order, and the stored table returned holds the
    rows it keeps; where it must be read whole, a new sampler gets the whole
    table. So the sampler must keep of the blocks in turn what it would keep
    of the whole table, as ``samplers.bernoulli_sample`` on one generator
    does.
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
        with path.open(newline="", encoding="utf-8-sig") as handle:
            header = next(csv.reader(handle), [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise IngestError(f"table {name}: missing column(s) {missing} in {path}")
        if sample is not None:
            kept = _sampled(path, name, header, pairs, id_column, sample)
            if kept is not None:
                return kept
        data = _fast_columns(path, header, pairs)
        if data is None:
            data, m = _row_columns(path, name, pairs)
        else:
            m = len(data[0])
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a NUL before Python 3.11
        raise IngestError(f"table {name}: cannot read {path}: {exc}") from None

    ids = _row_ids(name, id_column, columns, types, data, m)
    _require_unique(name, id_column, [ids])
    table = SampleRelation(LineageSchema.of([name]), columns, types, data,
                           ids.reshape(-1, 1), np.broadcast_to(np.float64(0.0), (m,)))
    return table if sample is None else sample()(table)
