"""Seeded generator for a desk-scale star-ish schema (lineitem, orders,
customer, part) with closed foreign keys. Same scale and seed, same bytes:
a header line, then one line per row, comma-separated and CRLF-ended (the
bytes ``csv.writer`` wrote for these fields), with prices and balances to 2
decimals and discounts and taxes to 4."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .errors import PlanError

DEFAULT_SCALE = {"l": 1000, "o": 250, "c": 50, "p": 100}
_CHUNK = 2**15  # rows formatted per step; bounds the Python objects alive

TABLE_FILES = {
    "lineitem": "lineitem.csv",
    "orders": "orders.csv",
    "customer": "customer.csv",
    "part": "part.csv",
}


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
    if n_l > 9 * n_o:
        raise PlanError(
            f"l={n_l} needs more than 9 lines per order for o={n_o}; "
            "line numbers must stay single-digit for the combined row id"
        )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    paths: dict[str, Path] = {}

    def write(table: str, header: str, template: str, *columns: np.ndarray) -> None:
        """One ``template`` line per row, formatted from ``_CHUNK`` rows of
        every column at a time."""
        path = out / TABLE_FILES[table]
        line = (template + "\r\n").__mod__
        with path.open("w", newline="", encoding="utf-8") as handle:
            handle.write(header + "\r\n")
            for start in range(0, len(columns[0]), _CHUNK):
                handle.writelines(map(line, zip(
                    *(column[start:start + _CHUNK].tolist() for column in columns))))
        paths[table] = path

    acctbal = rng.uniform(-999.0, 9999.0, n_c)
    write("customer", "c_custkey,c_acctbal", "%d,%.2f", np.arange(1, n_c + 1), acctbal)

    retail = rng.uniform(1.0, 2000.0, n_p)
    sizes = rng.integers(1, 51, n_p)
    write("part", "p_partkey,p_retailprice,p_size", "%d,%.2f,%d",
          np.arange(1, n_p + 1), retail, sizes)

    custkeys = rng.integers(1, n_c + 1, n_o)
    totalprice = rng.uniform(1.0, 500000.0, n_o)
    write("orders", "o_orderkey,o_custkey,o_totalprice", "%d,%d,%.2f",
          np.arange(1, n_o + 1), custkeys, totalprice)

    # line k is line k // n_o + 1 of order k % n_o + 1, so orderkeys cycle and
    # line numbers stay dense and <= 9; the lines are written shuffled
    order = rng.permutation(n_l)
    partkeys = rng.integers(1, n_p + 1, n_l)
    prices = rng.uniform(1.0, 100000.0, n_l)
    discounts = rng.uniform(0.0, 0.1, n_l)
    taxes = rng.uniform(0.0, 0.08, n_l)
    write("lineitem",
          "l_orderkey,l_linenumber,l_partkey,l_extendedprice,l_discount,l_tax",
          "%d,%d,%d,%.2f,%.4f,%.4f", order % n_o + 1, order // n_o + 1,
          partkeys[order], prices[order], discounts[order], taxes[order])
    return paths
