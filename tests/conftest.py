"""Shared fixtures: hand-built stored tables, desk-scale generated data, the
two reference plan shapes used across the suite, and small helpers that
only the tests need (subset masks by name, parameter tables as JSON text,
the sum of an aggregate)."""

from __future__ import annotations

import json
from typing import Iterable, Mapping

import pytest
from hypothesis import strategies as st

from gusbox import (
    BernoulliSpec,
    Comparison,
    GusParams,
    Join,
    JoinSpec,
    LineageSchema,
    Predicate,
    Row,
    Sample,
    SampleRelation,
    Scan,
    Select,
    SumAggregate,
    WorSpec,
)
from gusbox.datagen import generate_tpch_tiny
from gusbox.engine import bind_aggregate
from gusbox.errors import SchemaError
from gusbox.ingest import ingest_csv

def mask_of(schema: LineageSchema, names: Iterable[str]) -> int:
    """Subset mask of the named relations."""
    mask = 0
    for name in names:
        mask |= 1 << schema.index(name)
    return mask


def mask_of_key(schema: LineageSchema, key: str) -> int:
    """Inverse of ``schema.subset_key``, resolved by backtracking so that
    names that are prefixes of other names still parse."""

    def walk(pos: int, rel_idx: int) -> int | None:
        if pos == len(key):
            return 0
        for i in range(rel_idx, schema.n):
            name = schema.relations[i]
            if key.startswith(name, pos):
                rest = walk(pos + len(name), i + 1)
                if rest is not None:
                    return rest | (1 << i)
        return None

    mask = walk(0, 0)
    if mask is None:
        raise SchemaError(f"subset key {key!r} does not match schema {schema.relations}")
    return mask


def gus_to_json(g: GusParams) -> str:
    return json.dumps(g.to_json_dict())


def gus_from_json(text: str) -> GusParams:
    """Inverse of :func:`gus_to_json`."""
    doc: Mapping = json.loads(text)
    schema = LineageSchema(tuple(doc["schema"]))
    table = doc["b"]
    if len(table) != schema.num_subsets:
        raise SchemaError(f"b table has {len(table)} keys, schema needs {schema.num_subsets}")
    b = [0.0] * schema.num_subsets
    for key, value in table.items():
        b[mask_of_key(schema, key)] = value
    return GusParams(schema, doc["a"], tuple(b))


def strict_json(text):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``,
    which RFC 8259 cannot represent."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def sum_aggregate(expr: str, r: SampleRelation) -> float:
    return bind_aggregate(expr, r).total_f()


LINEITEM_TYPES = {
    "l_orderkey": "int64",
    "l_linenumber": "int64",
    "l_partkey": "int64",
    "l_extendedprice": "float64",
    "l_discount": "float64",
    "l_tax": "float64",
}
ORDERS_TYPES = {"o_orderkey": "int64", "o_custkey": "int64", "o_totalprice": "float64"}
CUSTOMER_TYPES = {"c_custkey": "int64", "c_acctbal": "float64"}
PART_TYPES = {"p_partkey": "int64", "p_retailprice": "float64", "p_size": "int64"}

DESK_SCALE = {"l": 300, "o": 75, "c": 20, "p": 30}
DESK_SEED = 7


def lineage_relation(names, entries, columns=(), types=()):
    """Relation with bare lineage and f values: entries are (lineage, f) or
    (lineage, f, values)."""
    schema = LineageSchema.of(names)
    rows = []
    for entry in entries:
        lineage, f = entry[0], entry[1]
        values = entry[2] if len(entry) > 2 else ()
        rows.append(Row(tuple(values), tuple(lineage), float(f)))
    return SampleRelation.from_rows(schema, columns, types, rows)


def base_table(name, columns, column_types, ids, rows):
    """Stored table from hand-built rows: a relation over ``(name,)`` whose
    lineage is the row ids and whose ``f`` is zeros, as ``ingest_csv``
    builds it from a file."""
    return SampleRelation.from_rows(
        LineageSchema.of([name]), columns, column_types,
        [Row(tuple(row), (tid,), 0.0) for tid, row in zip(ids, rows, strict=True)])


def dyadic(draw, denominator=64):
    return draw(st.integers(0, denominator)) / denominator


@st.composite
def gus_tables(draw, names=("x", "y")):
    """Feasible tables on a coarse dyadic grid so double arithmetic in the
    merge rules is exact and laws can be asserted with ==."""
    schema = LineageSchema.of(names)
    a = dyadic(draw)
    lo = max(0.0, 2.0 * a - 1.0)
    b = []
    for _ in range(schema.num_subsets):
        b.append(lo + dyadic(draw) * (a - lo))
    b[schema.full_mask] = a
    return GusParams(schema, a, tuple(b))


def small_join_catalog():
    """Two toy tables with join fanout, small enough to enumerate."""
    l = base_table(
        "l", ("l_ok", "l_val"), ("int64", "float64"),
        ids=(10, 11, 12, 13, 14, 15),
        rows=((1, 2.0), (1, 3.0), (2, 5.0), (3, 7.0), (2, 1.5), (3, 4.0)),
    )
    o = base_table(
        "o", ("o_ok", "o_w"), ("int64", "float64"),
        ids=(1, 2, 3),
        rows=((1, 1.0), (2, 1.0), (3, 2.0)),
    )
    return {"l": l, "o": o}


def small_join_plan(l_sampler=None, o_sampler=None, expr="l_val*o_w"):
    left = Scan("l")
    right = Scan("o")
    if l_sampler is not None:
        left = Sample(l_sampler, left)
    if o_sampler is not None:
        right = Sample(o_sampler, right)
    return SumAggregate(expr, Join(JoinSpec(equi=(("l_ok", "o_ok"),)), left, right))


def query1_plan(p=0.3, n=25, price=100.0, bern_seed=1, wor_seed=2):
    """Bernoulli on lineitem joined with a fixed-size sample of orders,
    filtered on extended price, summing the discounted tax expression."""
    return SumAggregate(
        "l_discount*(1.0-l_tax)",
        Select(
            Predicate((Comparison("l_extendedprice", ">", price),)),
            Join(
                JoinSpec(equi=(("l_orderkey", "o_orderkey"),)),
                Sample(BernoulliSpec(p, seed=bern_seed), Scan("l")),
                Sample(WorSpec(n, seed=wor_seed), Scan("o")),
            ),
        ),
    )


def four_relation_plan(p_l=0.3, n_o=25, p_p=0.5):
    """((l join o) join c) join p with samplers on l, o, and p only."""
    return SumAggregate(
        "l_discount*(1.0-l_tax)",
        Join(
            JoinSpec(equi=(("l_partkey", "p_partkey"),)),
            Join(
                JoinSpec(equi=(("o_custkey", "c_custkey"),)),
                Join(
                    JoinSpec(equi=(("l_orderkey", "o_orderkey"),)),
                    Sample(BernoulliSpec(p_l, seed=11), Scan("l")),
                    Sample(WorSpec(n_o, seed=12), Scan("o")),
                ),
                Scan("c"),
            ),
            Sample(BernoulliSpec(p_p, seed=13), Scan("p")),
        ),
    )


@pytest.fixture(scope="session")
def desk_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("deskdata")
    return generate_tpch_tiny(DESK_SCALE, DESK_SEED, out)


@pytest.fixture(scope="session")
def desk_catalog(desk_paths):
    return {
        "l": ingest_csv(desk_paths["lineitem"], "l", LINEITEM_TYPES,
                        "l_orderkey*10+l_linenumber"),
        "o": ingest_csv(desk_paths["orders"], "o", ORDERS_TYPES, "o_orderkey"),
        "c": ingest_csv(desk_paths["customer"], "c", CUSTOMER_TYPES, "c_custkey"),
        "p": ingest_csv(desk_paths["part"], "p", PART_TYPES, "p_partkey"),
    }
