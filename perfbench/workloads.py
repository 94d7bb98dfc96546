"""Seeded workload generators: CSVs plus one plan document per workload.

Every workload is a pure function of its seed: the same seed writes the
same bytes. The program under test sees only the files written here.

Every sampler in every plan carries an explicit seed that no other sampler
in the plan uses; samplers left at the default seed of 0 would share one
PCG64 stream and break the algebra's independence assumption.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gusbox import datagen

TPCH_SCALE = {"l": 200_000, "o": 50_000, "c": 5_000, "p": 10_000}

LINEITEM_TYPES = {
    "l_orderkey": "int64", "l_linenumber": "int64", "l_partkey": "int64",
    "l_extendedprice": "float64", "l_discount": "float64", "l_tax": "float64",
}
ORDERS_TYPES = {"o_orderkey": "int64", "o_custkey": "int64", "o_totalprice": "float64"}
CUSTOMER_TYPES = {"c_custkey": "int64", "c_acctbal": "float64"}
PART_TYPES = {"p_partkey": "int64", "p_retailprice": "float64", "p_size": "int64"}

# star-N shape: N - 1 dimension tables, each with DIM_ROWS[N] rows, and a
# fact table of FACT_ROWS[N] rows. The sampling probabilities below bring
# about 11k sampled rows to the estimator at N = 8 and about 700 at N = 12.
STAR_SHAPES = {8: (25_000, 50, 0.7), 12: (4_000, 20, 0.3)}  # fact rows, dim rows, fact p
STAR_KEYED_P = 0.9       # lineage-keyed keep probability on each of 3 dimensions
STAR_SELECT_MIN = 10.0   # fact rows with f_amount below this are filtered out


def _scan(table: str) -> dict:
    return {"op": "scan", "table": table}


def _sample(method: dict, child: dict) -> dict:
    return {"op": "sample", "method": method, "child": child}


def _join(left_col: str, right_col: str, left: dict, right: dict) -> dict:
    return {"op": "join", "eq": [[left_col, right_col]], "left": left, "right": right}


def _write_plan(out: Path, doc: dict) -> Path:
    path = out / "plan.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def tpch_join(seed: int, out: Path) -> Path:
    """Four-way join l-o-c-p over ``gusbox.datagen`` tables; returns the plan path.

    The WOR draw on orders sits above a select, so the rewriter re-executes
    that subplan to learn its population size.
    """
    paths = datagen.generate_tpch_tiny(TPCH_SCALE, seed, out)
    tables = {
        "l": {"path": paths["lineitem"].name, "idColumn": "l_orderkey*10+l_linenumber",
              "columnTypes": LINEITEM_TYPES},
        "o": {"path": paths["orders"].name, "idColumn": "o_orderkey",
              "columnTypes": ORDERS_TYPES},
        "c": {"path": paths["customer"].name, "idColumn": "c_custkey",
              "columnTypes": CUSTOMER_TYPES},
        "p": {"path": paths["part"].name, "idColumn": "p_partkey",
              "columnTypes": PART_TYPES},
    }
    lineitem = _sample({"method": "bernoulli", "p": 0.3, "seed": 1}, _scan("l"))
    orders = _sample(
        {"method": "wor", "n": 5000, "seed": 2},
        {"op": "select", "where": [{"col": "o_totalprice", "cmp": ">", "value": 100000.0}],
         "child": _scan("o")},
    )
    part = _sample({"method": "bernoulli", "p": 0.5, "seed": 3}, _scan("p"))
    joined = _join(
        "l_partkey", "p_partkey",
        _join("o_custkey", "c_custkey", _join("l_orderkey", "o_orderkey", lineitem, orders),
              _scan("c")),
        part,
    )
    # a light keyed filter on customers, so every sampler kind runs here too
    keyed = _sample({"method": "lineage_bernoulli", "dims": {"c": {"p": 0.9, "seed": 4}}},
                    joined)
    plan = {
        "op": "sum", "expr": "l_discount*(1.0-l_tax)",
        "child": {"op": "select",
                  "where": [{"col": "l_extendedprice", "cmp": ">", "value": 1000.0}],
                  "child": keyed},
    }
    return _write_plan(out, {"tables": tables, "plan": plan, "quantiles": [0.05, 0.95]})


def _dim(k: int) -> str:
    return f"d{k:02d}"


def star(n: int, seed: int, out: Path) -> Path:
    """Star schema with ``n`` base relations: a fact table ``f`` and
    ``n - 1`` dimensions joined to it in a chain; returns the plan path.

    The fact table gets a select and a row Bernoulli, the last dimension a
    WOR draw, and three dimensions a lineage-keyed Bernoulli above the joins.
    """
    fact_rows, dim_rows, fact_p = STAR_SHAPES[n]
    dims = [_dim(k) for k in range(1, n)]
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n])))
    tables = {}
    for name in dims:
        weights = rng.uniform(0.5, 2.0, dim_rows)
        lines = [f"{name}_key,{name}_w"]
        lines.extend(f"{k + 1},{weights[k]:.4f}" for k in range(dim_rows))
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        tables[name] = {"path": f"{name}.csv", "idColumn": f"{name}_key",
                        "columnTypes": {f"{name}_key": "int64", f"{name}_w": "float64"}}
    keys = rng.integers(1, dim_rows + 1, size=(fact_rows, len(dims)))
    amounts = rng.uniform(1.0, 100.0, fact_rows)
    key_cols = [f"f_{name}" for name in dims]
    lines = [",".join(key_cols + ["f_amount"])]
    lines.extend(",".join(map(str, keys[i].tolist())) + f",{amounts[i]:.2f}"
                 for i in range(fact_rows))
    (out / "f.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    tables["f"] = {"path": "f.csv", "idColumn": "rowIndex",
                   "columnTypes": {**{c: "int64" for c in key_cols}, "f_amount": "float64"}}

    node = _sample(
        {"method": "bernoulli", "p": fact_p, "seed": 1},
        {"op": "select", "where": [{"col": "f_amount", "cmp": ">=", "value": STAR_SELECT_MIN}],
         "child": _scan("f")},
    )
    for name in dims[:-1]:
        node = _join(f"f_{name}", f"{name}_key", node, _scan(name))
    last = dims[-1]
    node = _join(f"f_{last}", f"{last}_key", node,
                 _sample({"method": "wor", "n": dim_rows - dim_rows // 10, "seed": 2},
                         _scan(last)))
    keyed = {name: {"p": STAR_KEYED_P, "seed": 10 + k} for k, name in enumerate(dims[:3])}
    node = _sample({"method": "lineage_bernoulli", "dims": keyed}, node)
    plan = {"op": "sum", "expr": f"f_amount*{dims[0]}_w", "child": node}
    return _write_plan(out, {"tables": tables, "plan": plan, "quantiles": [0.05, 0.95]})


GENERATORS = {
    "tpch-join": tpch_join,
    "star-8": lambda seed, out: star(8, seed, out),
    "star-12": lambda seed, out: star(12, seed, out),
}
