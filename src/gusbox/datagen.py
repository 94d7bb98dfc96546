"""Seeded generator for a desk-scale star-ish schema (lineitem, orders,
customer, part) with closed foreign keys. Same scale and seed, same bytes:
a header line, then one line per row, comma-separated and CRLF-ended (the
bytes ``csv.writer`` wrote for these fields), with prices and balances to 2
decimals and discounts and taxes to 4.

Every column is drawn before any file is opened, so a draw that fails
leaves nothing on disk. The lines are formatted by numpy, a block of rows
at a time: each block becomes one byte array with a fixed-width slot per
field, where the digits a value does not need are 0 bytes, dropped before
the block is written. The bytes are those Python's ``'%d' % v`` and
``'%.Nf' % x`` write: the rounding is exact, and the few values whose last
digit float arithmetic cannot settle are rounded by Python's own formatting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .errors import PlanError

DEFAULT_SCALE = {"l": 1000, "o": 250, "c": 50, "p": 100}
_CHUNK = 2**15  # rows formatted per step; bounds the byte arrays alive
# the most rows a column of 8-byte values can hold; numpy refuses more
_MAX_ROWS = np.iinfo(np.intp).max // 8

TABLE_FILES = {
    "lineitem": "lineitem.csv",
    "orders": "orders.csv",
    "customer": "customer.csv",
    "part": "part.csv",
}

# the four ASCII digits of every number below 10000, one uint32 per number
_QUADS = ((np.arange(10_000, dtype=np.uint16)[:, None]
           // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10).astype(np.uint8)
          + ord("0")).view(np.uint32).ravel()
_POWERS = 10 ** np.arange(20, dtype=np.uint64)


def _digits(u: np.ndarray, pad: int) -> np.ndarray:
    """The decimal digits of the unsigned ints ``u`` as ASCII, one row per
    value, right-aligned in a width that holds the largest value and at
    least ``pad`` digits. A shorter value's leading zeros are 0 bytes, save
    in the last ``pad`` places."""
    top = int(u.max(initial=0))
    width = max(len(str(top)), pad)
    if top < 2**32:
        u = u.astype(np.uint32)  # divides faster than 64-bit ints
    quads = np.empty((len(u), -(-width // 4)), dtype=np.uint32)
    rest = u
    for j in range(quads.shape[1] - 1, 0, -1):
        rest, quads[:, j] = np.divmod(rest, 10_000)
    quads[:, 0] = rest
    out = _QUADS[quads].view(np.uint8)[:, 4 * quads.shape[1] - width:]
    if width > pad:
        # place i holds a leading zero where u < 10**(width - 1 - i)
        lead = u[:, None] < _POWERS[width - 1:pad - 1:-1].astype(u.dtype)
        out[:, :width - pad][lead] = 0
    return out


def _sign(negative: np.ndarray) -> list[np.ndarray]:
    """A ``-`` column where ``negative``, or no column if no value is."""
    if not negative.any():
        return []
    return [np.where(negative, np.uint8(ord("-")), np.uint8(0))[:, None]]


def _integers(v: np.ndarray) -> list[np.ndarray]:
    """The slots of ``'%d' % x`` for every int ``x`` of ``v``."""
    v = v.astype(np.int64, copy=False)
    # abs(-2**63) wraps to itself, which reads as 2**63 unsigned
    return _sign(v < 0) + [_digits(np.abs(v).view(np.uint64), 1)]


def _exact_units(x: np.ndarray, places: int) -> list[int]:
    """``|x| * 10**places`` rounded as Python's ``%`` formatting rounds it."""
    return [int(("%.*f" % (places, v)).replace(".", "")) for v in np.abs(x).tolist()]


def _fixed(x: np.ndarray, places: int) -> list[np.ndarray]:
    """The slots of ``'%.{places}f' % v`` for every float64 ``v`` of ``x``
    (``places >= 1``). Raises ``ValueError`` for a value that is not finite
    or has ``10**places`` times its magnitude at or past ``2**63``."""
    scaled = np.abs(x) * 10.0**places
    bad = ~(scaled < 2.0**63)  # NaN included
    if bad.any():
        raise ValueError(f"cannot write {float(x[bad][0])!r} to {places} places")
    units = np.rint(scaled).astype(np.uint64)
    # the product is rounded by at most one spacing, so it falls on the same
    # side of a half as the exact product unless it lies this close to one
    near = np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.spacing(scaled)
    if near.any():
        where = np.flatnonzero(near)
        units[where] = _exact_units(x[where], places)
    digits = _digits(units, places + 1)
    point = np.full((len(x), 1), ord("."), dtype=np.uint8)
    return _sign(np.signbit(x)) + [digits[:, :-places], point, digits[:, -places:]]


def _lines(fields: list[list[np.ndarray]]) -> bytes:
    """One CSV line per row: the row's slots of every field, fields joined
    by commas, CRLF-ended, with the 0 bytes dropped."""
    n = len(fields[0][0])
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    slots = [slot for field in fields for slot in (*field, comma)]
    slots[-1] = np.broadcast_to(np.frombuffer(b"\r\n", dtype=np.uint8), (n, 2))
    flat = np.concatenate(slots, axis=1).ravel()
    return flat[flat != 0].tobytes()


def generate_tpch_tiny(scale: Mapping[str, int], seed: int,
                       out_dir: Union[str, Path]) -> dict[str, Path]:
    """Write the four CSVs and return table name -> path."""
    counts = dict(DEFAULT_SCALE)
    unknown = set(scale) - set(counts)
    if unknown:
        raise PlanError(f"unknown scale key(s) {sorted(unknown)}; expected l, o, c, p")
    counts.update(scale)
    n_l, n_o, n_c, n_p = counts["l"], counts["o"], counts["c"], counts["p"]
    for key, value in counts.items():
        if value < 1:
            raise PlanError(f"scale {key}={value} must be >= 1")
        if value > _MAX_ROWS:
            raise PlanError(f"scale {key}={value} must be <= {_MAX_ROWS}, "
                            "the most rows a column can hold")
    if n_l > 9 * n_o:
        raise PlanError(
            f"l={n_l} needs more than 9 lines per order for o={n_o}; "
            "line numbers must stay single-digit for the combined row id"
        )

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    acctbal = rng.uniform(-999.0, 9999.0, n_c)
    retail = rng.uniform(1.0, 2000.0, n_p)
    sizes = rng.integers(1, 51, n_p)
    custkeys = rng.integers(1, n_c + 1, n_o)
    totalprice = rng.uniform(1.0, 500000.0, n_o)
    # line k is line k // n_o + 1 of order k % n_o + 1, so orderkeys cycle and
    # line numbers stay dense and <= 9; the lines are written shuffled
    order = rng.permutation(n_l)
    partkeys = rng.integers(1, n_p + 1, n_l)
    prices = rng.uniform(1.0, 100000.0, n_l)
    discounts = rng.uniform(0.0, 0.1, n_l)
    taxes = rng.uniform(0.0, 0.08, n_l)

    # each table: its header, then (column, places) per field, where places
    # is None for '%d' and N for '%.Nf'
    tables = {
        "customer": ("c_custkey,c_acctbal",
                     [(np.arange(1, n_c + 1), None), (acctbal, 2)]),
        "part": ("p_partkey,p_retailprice,p_size",
                 [(np.arange(1, n_p + 1), None), (retail, 2), (sizes, None)]),
        "orders": ("o_orderkey,o_custkey,o_totalprice",
                   [(np.arange(1, n_o + 1), None), (custkeys, None), (totalprice, 2)]),
        "lineitem": ("l_orderkey,l_linenumber,l_partkey,l_extendedprice,l_discount,l_tax",
                     [(order % n_o + 1, None), (order // n_o + 1, None),
                      (partkeys[order], None), (prices[order], 2),
                      (discounts[order], 4), (taxes[order], 4)]),
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for table, (header, fields) in tables.items():
        path = out / TABLE_FILES[table]
        with path.open("wb") as handle:
            handle.write(header.encode("ascii") + b"\r\n")
            for start in range(0, len(fields[0][0]), _CHUNK):
                handle.write(_lines([
                    _integers(column[start:start + _CHUNK]) if places is None
                    else _fixed(column[start:start + _CHUNK], places)
                    for column, places in fields]))
        paths[table] = path
    return paths
