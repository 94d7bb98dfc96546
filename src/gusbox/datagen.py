"""Seeded generator for a desk-scale star-ish schema (lineitem, orders,
customer, part) with closed foreign keys. Same seed, same bytes."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .errors import PlanError

DEFAULT_SCALE = {"l": 1000, "o": 250, "c": 50, "p": 100}

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

    def write(table: str, header: list[str], rows) -> None:
        path = out / TABLE_FILES[table]
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        paths[table] = path

    acctbal = rng.uniform(-999.0, 9999.0, n_c)
    write("customer", ["c_custkey", "c_acctbal"],
          ([k + 1, f"{acctbal[k]:.2f}"] for k in range(n_c)))

    retail = rng.uniform(1.0, 2000.0, n_p)
    sizes = rng.integers(1, 51, n_p)
    write("part", ["p_partkey", "p_retailprice", "p_size"],
          ([k + 1, f"{retail[k]:.2f}", int(sizes[k])] for k in range(n_p)))

    custkeys = rng.integers(1, n_c + 1, n_o)
    totalprice = rng.uniform(1.0, 500000.0, n_o)
    write("orders", ["o_orderkey", "o_custkey", "o_totalprice"],
          ([k + 1, int(custkeys[k]), f"{totalprice[k]:.2f}"] for k in range(n_o)))

    # orderkeys cycle so line numbers stay dense and <= 9; order shuffled
    lines = [(k % n_o + 1, k // n_o + 1) for k in range(n_l)]
    order = rng.permutation(n_l)
    partkeys = rng.integers(1, n_p + 1, n_l)
    prices = rng.uniform(1.0, 100000.0, n_l)
    discounts = rng.uniform(0.0, 0.1, n_l)
    taxes = rng.uniform(0.0, 0.08, n_l)
    write(
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_partkey", "l_extendedprice",
         "l_discount", "l_tax"],
        (
            [lines[i][0], lines[i][1], int(partkeys[i]), f"{prices[i]:.2f}",
             f"{discounts[i]:.4f}", f"{taxes[i]:.4f}"]
            for i in (int(j) for j in order)
        ),
    )
    return paths
