"""Plan-document parsing and CSV ingestion."""

import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from gusbox import IngestError, LineageSchema, PlanError, SchemaError, SelfJoinError, cli, ingest
from gusbox.cli import main
from gusbox.datagen import generate_tpch_tiny
from gusbox.dsl import parse_plan
from gusbox.engine import bind_aggregate, join, select
from gusbox.ingest import ingest_csv
from gusbox.plan import (
    BernoulliSpec,
    Comparison,
    Join,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
    validate_plan,
)
from gusbox.samplers import bernoulli_sample, generator

from conftest import CUSTOMER_TYPES, LINEITEM_TYPES, ORDERS_TYPES, PART_TYPES


def query1_document(lineitem_path="lineitem.csv", orders_path="orders.csv",
                    p=0.1, n=1000):
    return {
        "tables": {
            "l": {
                "path": lineitem_path,
                "idColumn": "l_orderkey*10+l_linenumber",
                "columnTypes": LINEITEM_TYPES,
            },
            "o": {
                "path": orders_path,
                "idColumn": "o_orderkey",
                "columnTypes": ORDERS_TYPES,
            },
        },
        "plan": {
            "op": "sum",
            "expr": "l_discount*(1.0-l_tax)",
            "child": {
                "op": "select",
                "where": [{"col": "l_extendedprice", "cmp": ">", "value": 100.0}],
                "child": {
                    "op": "join",
                    "eq": [["l_orderkey", "o_orderkey"]],
                    "left": {
                        "op": "sample",
                        "method": {"method": "bernoulli", "p": p, "seed": 1},
                        "child": {"op": "scan", "table": "l"},
                    },
                    "right": {
                        "op": "sample",
                        "method": {"method": "wor", "n": n, "seed": 2},
                        "child": {"op": "scan", "table": "o"},
                    },
                },
            },
        },
        "quantiles": [0.05, 0.95],
    }


class TestParsePlan:
    def test_reference_document_parses(self):
        doc = parse_plan(json.dumps(query1_document()))
        assert set(doc.tables) == {"l", "o"}
        assert doc.quantiles == (0.05, 0.95)
        root = doc.plan
        assert isinstance(root, SumAggregate)
        assert isinstance(root.child, Select)
        join = root.child.child
        assert isinstance(join, Join)
        assert isinstance(join.left, Sample)
        assert isinstance(join.left.method, BernoulliSpec)
        assert isinstance(join.right.method, WorSpec)
        assert join.right.method.n == 1000

    def test_empty_document_rejected(self):
        with pytest.raises(PlanError, match="line 1"):
            parse_plan("")
        with pytest.raises(PlanError, match="tables"):
            parse_plan("{}")

    def test_duplicate_scan_in_join_rejected(self):
        doc = query1_document()
        doc["plan"]["child"]["child"]["right"]["child"]["table"] = "l"
        with pytest.raises(PlanError, match="self-join"):
            parse_plan(json.dumps(doc))

    def test_union_of_same_table_is_allowed(self):
        doc = query1_document()
        doc["plan"] = {
            "op": "sum",
            "expr": "l_discount",
            "child": {
                "op": "union",
                "left": {
                    "op": "sample",
                    "method": {"method": "bernoulli", "p": 0.5, "seed": 1},
                    "child": {"op": "scan", "table": "l"},
                },
                "right": {
                    "op": "sample",
                    "method": {"method": "bernoulli", "p": 0.5, "seed": 2},
                    "child": {"op": "scan", "table": "l"},
                },
            },
        }
        parse_plan(json.dumps(doc))

    def test_unknown_op_carries_path(self):
        doc = query1_document()
        doc["plan"]["child"]["op"] = "filter"
        with pytest.raises(PlanError, match=r"plan\.child"):
            parse_plan(json.dumps(doc))

    def test_undeclared_table_rejected(self):
        doc = query1_document()
        doc["plan"]["child"]["child"]["left"]["child"]["table"] = "x"
        with pytest.raises(PlanError, match=r"^plan\.child\.child\.left\.child: "
                                            r"unknown table 'x'$"):
            parse_plan(json.dumps(doc))

    def test_nested_sum_rejected(self):
        doc = query1_document()
        doc["plan"]["child"]["child"]["left"] = {
            "op": "sum", "expr": "1", "child": {"op": "scan", "table": "l"}}
        with pytest.raises(PlanError, match="root"):
            parse_plan(json.dumps(doc))

    def test_bad_method_and_bad_quantiles(self):
        doc = query1_document()
        doc["plan"]["child"]["child"]["left"]["method"] = {"method": "block", "p": 0.5}
        with pytest.raises(PlanError, match="unknown sampling method"):
            parse_plan(json.dumps(doc))
        doc = query1_document()
        doc["quantiles"] = [0.0]
        with pytest.raises(PlanError, match="quantiles"):
            parse_plan(json.dumps(doc))

    def test_unexpected_keys_flagged(self):
        doc = query1_document()
        doc["plan"]["extra"] = 1
        with pytest.raises(PlanError, match="unexpected"):
            parse_plan(json.dumps(doc))

    def test_cross_parses_to_a_join_without_conditions(self):
        doc = query1_document()
        join = doc["plan"]["child"]["child"]
        doc["plan"]["child"]["child"] = {"op": "cross", "left": join["left"],
                                         "right": join["right"]}
        cross = parse_plan(json.dumps(doc)).plan.child.child
        assert cross == Join(Sample(BernoulliSpec(0.1, seed=1), Scan("l")),
                             Sample(WorSpec(1000, seed=2), Scan("o")))
        doc["plan"]["child"]["child"]["eq"] = []
        with pytest.raises(PlanError, match=r"^plan\.child\.child: unexpected key\(s\) \['eq'\]"):
            parse_plan(json.dumps(doc))

    def test_lineage_bernoulli_method(self):
        doc = query1_document()
        doc["plan"]["child"]["child"] = {
            "op": "sample",
            "method": {"method": "lineage_bernoulli",
                       "dims": {"l": {"p": 0.2, "seed": 1}, "o": {"p": 0.3}}},
            "child": {
                "op": "join",
                "eq": [["l_orderkey", "o_orderkey"]],
                "left": {"op": "scan", "table": "l"},
                "right": {"op": "scan", "table": "o"},
            },
        }
        parsed = parse_plan(json.dumps(doc))
        method = parsed.plan.child.child.method
        assert method.dims == (("l", 0.2, 1), ("o", 0.3, 0))


def _shared_keyed_seed(doc):
    join = doc["plan"]["child"]["child"]
    doc["plan"]["child"]["child"] = {
        "op": "sample", "child": join,
        "method": {"method": "lineage_bernoulli", "dims": {"l": {"p": 0.5}, "o": {"p": 0.5}}}}


def _keyed_seed_past_2_64(doc):
    # the keyed hash reads 64 bits of its seed: 5 + 2**64 would decide as 5 does
    _shared_keyed_seed(doc)
    doc["plan"]["child"]["child"]["method"]["dims"] = {
        "l": {"p": 0.5, "seed": 5}, "o": {"p": 0.5, "seed": 5 + 2**64}}


def _shared_row_seed(doc):
    join = doc["plan"]["child"]["child"]
    del join["left"]["method"]["seed"], join["right"]["method"]["seed"]


def _wor_over_sample(doc):
    right = doc["plan"]["child"]["child"]["right"]
    right["child"] = {"op": "sample", "method": {"method": "bernoulli", "p": 0.5, "seed": 9},
                      "child": right["child"]}


def _union_sides_differ(doc):
    doc["plan"]["child"] = {
        "op": "union",
        "left": {"op": "select", "where": [{"col": "l_tax", "cmp": ">", "value": 0.01}],
                 "child": {"op": "scan", "table": "l"}},
        "right": {"op": "sample", "method": {"method": "bernoulli", "p": 0.5, "seed": 6},
                  "child": {"op": "scan", "table": "l"}}}


def _self_join(doc):
    doc["plan"]["child"]["child"]["right"]["child"]["table"] = "l"


def _union_relations_differ(doc):
    join = doc["plan"]["child"]["child"]
    doc["plan"]["child"] = {"op": "union", "left": join["left"], "right": join["right"]}


def _wor_of_zero(doc):
    doc["plan"]["child"]["child"]["right"]["method"]["n"] = 0


def _bernoulli_p_over_one(doc):
    doc["plan"]["child"]["child"]["left"]["method"]["p"] = 1.5


def _negative_seed(doc):
    doc["plan"]["child"]["child"]["right"]["method"]["seed"] = -1


def _float_seed(doc):  # int() would truncate it to 1
    doc["plan"]["child"]["child"]["left"]["method"]["seed"] = 1.9


def _bool_seed(doc):
    doc["plan"]["child"]["child"]["left"]["method"]["seed"] = True


def _string_seed(doc):
    doc["plan"]["child"]["child"]["right"]["method"]["seed"] = "7"


def _huge_float_seed(doc):  # int(1e30) is 1000000000000000019884624838656
    doc["plan"]["child"]["child"]["right"]["method"]["seed"] = 1e30


def _float_sample_size(doc):  # int() would truncate it to 2
    doc["plan"]["child"]["child"]["right"]["method"]["n"] = 2.7


def _keyed_float_seed(doc):
    doc["plan"]["child"]["child"]["left"]["method"] = {
        "method": "lineage_bernoulli", "dims": {"l": {"p": 0.5, "seed": 3.0}}}


def _missing_p(doc):
    del doc["plan"]["child"]["child"]["left"]["method"]["p"]


def _unknown_comparison(doc):
    doc["plan"]["child"]["where"][0]["cmp"] = "~"


def _col2_with_less_than(doc):
    doc["plan"]["child"]["where"] = [{"col": "l_discount", "cmp": "<", "col2": "l_tax"}]


def _dims_entry_not_object(doc):
    doc["plan"]["child"]["child"]["left"]["method"] = {
        "method": "lineage_bernoulli", "dims": {"l": 3}}


def _keyed_p_over_one(doc):
    doc["plan"]["child"]["child"]["left"]["method"] = {
        "method": "lineage_bernoulli", "dims": {"l": {"p": 2.0, "seed": 3}}}


def _keyed_dimension_not_below(doc):
    doc["plan"]["child"]["child"]["left"]["method"] = {
        "method": "lineage_bernoulli", "dims": {"o": {"p": 0.5, "seed": 3}}}


def _nested_sum(doc):
    doc["plan"]["child"]["child"]["left"] = {
        "op": "sum", "expr": "1", "child": {"op": "scan", "table": "l"}}


STRUCTURAL_FAULTS = [
    (_shared_keyed_seed, r"^lineage-keyed dimensions plan\.child\.child\.method\.dims\.l "
                         r"and plan\.child\.child\.method\.dims\.o share seed 0"),
    (_keyed_seed_past_2_64, r"^plan\.child\.child\.method: "
                            r"seed 18446744073709551621 outside \[0, 2\*\*64\)$"),
    (_shared_row_seed, r"^row samplers plan\.child\.child\.left\.method and "
                       r"plan\.child\.child\.right\.method share seed 0"),
    (_wor_over_sample, r"^plan\.child\.child\.right: fixed-size sampling over an already "
                       r"randomized input"),
    (_union_sides_differ, r"^plan\.child: union sides must compute the same relation"),
    (_self_join, r"^plan\.child\.child: join sides share base relation\(s\) \['l'\]; "
                 r"self-joins are unsupported$"),
    (_union_relations_differ, r"^plan\.child: union sides cover different base relations: "
                              r"\('l',\) vs \('o',\)$"),
    (_wor_of_zero, r"^plan\.child\.child\.right\.method: sample size 0 must be >= 1$"),
    (_bernoulli_p_over_one, r"^plan\.child\.child\.left\.method: "
                            r"Bernoulli probability 1\.5 outside \[0, 1\]$"),
    (_negative_seed, r"^plan\.child\.child\.right\.method: seed -1 outside \[0, 2\*\*64\)$"),
    (_float_seed, r"^plan\.child\.child\.left\.method: seed must be an integer, not 1\.9$"),
    (_bool_seed, r"^plan\.child\.child\.left\.method: seed must be an integer, not true$"),
    (_string_seed, r'^plan\.child\.child\.right\.method: seed must be an integer, not "7"$'),
    (_huge_float_seed, r"^plan\.child\.child\.right\.method: "
                       r"seed must be an integer, not 1e\+30$"),
    (_float_sample_size, r"^plan\.child\.child\.right\.method: "
                         r"n must be an integer, not 2\.7$"),
    (_keyed_float_seed, r"^plan\.child\.child\.left\.method\.dims\.l: "
                        r"seed must be an integer, not 3\.0$"),
    (_missing_p, r"^plan\.child\.child\.left\.method: missing required key 'p'$"),
    (_unknown_comparison, r"^plan\.child\.where\[0\]: unknown comparison operator '~'$"),
    (_col2_with_less_than, r"^plan\.child\.where\[0\]: "
                           r"column-to-column comparisons support '=' only$"),
    (_dims_entry_not_object, r"^plan\.child\.child\.left\.method\.dims\.l: must be an object$"),
    (_keyed_p_over_one, r"^plan\.child\.child\.left\.method: "
                        r"probability 2\.0 for 'l' outside \[0, 1\]$"),
    (_keyed_dimension_not_below, r"^plan\.child\.child\.left\.method\.dims\.o: "
                                 r"dimension 'o' not in schema \('l',\)"),
    (_nested_sum, r"^plan\.child\.child\.left: sum aggregate may appear only at the plan root"),
]


@pytest.mark.parametrize("mutate, message", STRUCTURAL_FAULTS,
                         ids=[mutate.__name__[1:] for mutate, _ in STRUCTURAL_FAULTS])
def test_structural_faults_rejected_at_parse(mutate, message):
    # parse_plan reads no table, so these fail before any ingest
    doc = query1_document()
    mutate(doc)
    with pytest.raises(PlanError, match=message):
        parse_plan(json.dumps(doc))


@pytest.mark.parametrize("plan, error", [
    (Join(Scan("l"), Scan("l")), SelfJoinError),
    (UnionDedup(Scan("l"), Scan("o")), SchemaError),
], ids=["self_join", "union_relations_differ"])
def test_relation_set_faults_keep_their_type(plan, error):
    # parse_plan re-raises these as PlanError with the same message
    with pytest.raises(error, match=r"^plan: ") as raised:
        validate_plan(plan)
    assert type(raised.value) is error


def test_validate_plan_returns_the_output_schema():
    plan = parse_plan(json.dumps(query1_document())).plan
    assert validate_plan(plan) == LineageSchema.of(["l", "o"])
    assert validate_plan(plan.child, {"o": 1, "l": 2}) == LineageSchema.of(["l", "o"])


class TestIngestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,v\n1,1.5\n2,2.5\n3,3.5\n")
        table = ingest_csv(path, "t", {"k": "int64", "v": "float64"}, "k")
        assert len(table) == 3
        assert table.lineage[:, 0].tolist() == [1, 2, 3]
        assert table.rows[0].values == (1, 1.5)
        assert table.schema.relations == ("t",)
        assert table.f.tolist() == [0.0, 0.0, 0.0]

    def test_row_index_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v\n1.0\n2.0\n")
        table = ingest_csv(path, "t", {"v": "float64"})
        assert table.lineage[:, 0].tolist() == [0, 1]

    def test_id_expression_combines_keys(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ok,ln,v\n1,1,0.5\n1,2,0.5\n2,1,0.5\n")
        table = ingest_csv(
            path, "t", {"ok": "int64", "ln": "int64", "v": "float64"}, "ok*10+ln")
        assert table.lineage[:, 0].tolist() == [11, 12, 21]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k\n1\n1\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_csv(path, "t", {"k": "int64"}, "k")

    def test_repeated_column_name_rejected(self, tmp_path):
        # built a table with two k columns: the declared types read k as
        # float64 and the engine the first, int64, column
        path = tmp_path / "t.csv"
        path.write_text("k\n1\n")
        with pytest.raises(SchemaError, match=r"^repeated column name in \('k', 'k'\)$"):
            ingest_csv(path, "t", [("k", "int64"), ("k", "float64")])

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k\n1\n")
        with pytest.raises(IngestError, match="missing column"):
            ingest_csv(path, "t", {"k": "int64", "v": "float64"}, "k")

    def test_type_parse_failure(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k\nxyz\n")
        with pytest.raises(IngestError, match="cannot parse"):
            ingest_csv(path, "t", {"k": "int64"}, "k")

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,v\n1,\n")
        with pytest.raises(IngestError, match="missing value"):
            ingest_csv(path, "t", {"k": "int64", "v": "float64"}, "k")

    def test_string_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,name\n1,ann\n2,bob\n")
        table = ingest_csv(path, "t", {"k": "int64", "name": "string"}, "k")
        assert table.rows[1].values == (2, "bob")

    @pytest.mark.parametrize("rows, id_column", [
        ("-1,1.0\n18446744073709551615,2.0\n3,3.0\n", "k"),  # read through the row parser
        ("9223372036854775807,1.0\n", "k+1"),  # an id expression past int64
        ("-9223372036854775808,1.0\n", "k-1"),
    ], ids=["column", "expression_above", "expression_below"])
    def test_row_ids_past_int64_rejected(self, tmp_path, rows, id_column):
        path = tmp_path / "t.csv"
        path.write_text("k,v\n" + rows)
        message = f"table t: row ids from '{id_column}' must fit int64"
        with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
            ingest_csv(path, "t", {"k": "int64", "v": "float64"}, id_column)

    def test_wide_values_stay_in_object_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,v\n-9223372036854775808,1.0\n18446744073709551615,2.0\n")
        table = ingest_csv(path, "t", {"k": "int64", "v": "float64"})
        assert table.lineage.dtype == "int64" and table.data[0].dtype == object
        assert [row.values[0] for row in table.rows] == [-2**63, 2**64 - 1]
        path.write_text("k,v\n-9223372036854775808,1.0\n9223372036854775807,2.0\n")
        table = ingest_csv(path, "t", {"k": "int64", "v": "float64"}, "k")
        assert table.lineage[:, 0].tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("rows", ["1,2.5\n2,3.5\n", '1,"2.5"\n2,3.5\n'],
                             ids=["loadtxt", "row_parser"])
    def test_byte_order_mark_is_skipped(self, tmp_path, rows):
        # spreadsheet "CSV UTF-8" exports start with the mark; the header was
        # read as '\ufeffk' and the table had no column 'k'
        reports = []
        for name, head in (("plain", b"k,v\n"), ("bom", b"\xef\xbb\xbfk,v\n")):
            (tmp_path / f"{name}.csv").write_bytes(head + rows.encode())
            doc = {"tables": {"t": {"path": f"{name}.csv", "idColumn": "k",
                                    "columnTypes": {"k": "int64", "v": "float64"}}},
                   "plan": {"op": "sum", "expr": "v", "child": {"op": "scan", "table": "t"}}}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            out = tmp_path / f"{name}.out"
            assert main(["estimate", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0]
        assert json.loads(reports[0])["estimate"] == 6.0

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "row_parser"])
    def test_stored_f_is_a_zero_stride_view(self, tmp_path, quote):
        # a stored table's f holds no bytes per row; every operator that keeps
        # rows returns an ordinary array, and the aggregate replaces it
        (tmp_path / "t.csv").write_text(f"k,v\n1,{quote}1.5{quote}\n2,2.5\n3,3.5\n4,4.5\n")
        (tmp_path / "u.csv").write_text("j,w\n1,10.0\n3,30.0\n4,40.0\n")
        t = ingest_csv(tmp_path / "t.csv", "t", {"k": "int64", "v": "float64"}, "k")
        u = ingest_csv(tmp_path / "u.csv", "u", {"j": "int64", "w": "float64"}, "j")
        for table in (t, u):
            assert table.f.strides == (0,) and not table.f.flags.writeable
            assert table.f.dtype == np.float64 and np.array_equal(table.f, np.zeros(len(table)))
        derived = {
            "bernoulli": bernoulli_sample(t, 0.5, generator(1, 2)),
            "select": select((Comparison("v", ">", 2.0),), t),
            "join": join(Join(Scan("t"), Scan("u"), eq=(("k", "j"),)), t, u),
        }
        assert len(derived["select"]) == 3 and len(derived["join"]) == 3
        for name, rel in derived.items():
            assert rel.f.flags.c_contiguous and rel.f.strides == (8,), name
            assert np.array_equal(rel.f, np.zeros(len(rel))), name
        bound = bind_aggregate("v*2.0", t)
        assert bound.f.strides == (8,) and bound.f.tolist() == [3.0, 5.0, 7.0, 9.0]

    @pytest.mark.parametrize("mark", ['"', "\0"])
    def test_mark_past_the_first_block_takes_the_row_path(self, tmp_path, monkeypatch, mark):
        # the file's only quote or NUL sits past the first block the check
        # reads; split at commas, the quoted row would read s as '"a'
        path = tmp_path / "t.csv"
        last = '"a,b"' if mark == '"' else "a\0b"
        path.write_text("k,s\n" + "".join(f"{i},v{i}\n" for i in range(8000))
                        + f"8000,{last}\n")
        assert path.read_bytes().index(mark.encode()) > ingest._CHECK_BLOCK
        row_path = []

        def row_columns(*args):
            row_path.append(args[0])
            return real(*args)

        real = ingest._row_columns
        monkeypatch.setattr(ingest, "_row_columns", row_columns)
        if mark == "\0" and sys.version_info < (3, 11):  # the csv module reads NUL from 3.11
            with pytest.raises(IngestError, match="cannot read"):
                ingest_csv(path, "t", {"k": "int64", "s": "string"}, "k")
            return
        table = ingest_csv(path, "t", {"k": "int64", "s": "string"}, "k")
        assert row_path == [path]
        assert len(table) == 8001 and table.data[1][0] == "v0"
        assert table.data[1][-1] == ("a,b" if mark == '"' else "a\0b")

    @pytest.mark.parametrize("table, types", [
        ("lineitem", LINEITEM_TYPES), ("orders", ORDERS_TYPES),
        ("customer", CUSTOMER_TYPES), ("part", PART_TYPES)])
    def test_fast_columns_equal_row_columns(self, desk_paths, table, types):
        path = desk_paths[table]
        pairs = list(types.items())
        header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        fast = ingest._fast_columns(path, header, pairs)
        rows, m = ingest._row_columns(path, table, pairs)
        assert fast is not None and len(fast) == len(rows) == len(pairs)
        for (col, _), x, y in zip(pairs, fast, rows):
            assert x.dtype == y.dtype and len(x) == m, col
            assert x.tolist() == y.tolist(), col
        # the fields of one parsed block, not copies
        assert fast[0].base is not None and all(column.base is fast[0].base for column in fast)

    def test_id_expression_requires_int_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,v\n1,1.5\n")
        with pytest.raises(IngestError):
            ingest_csv(path, "t", {"k": "int64", "v": "float64"}, "v*10")


# a table sampled as it is read: an int id pair, a float and a string column
SAMPLED_TYPES = {"k": "int64", "j": "int64", "v": "float64", "s": "string"}


def _sampled_lines(n: int) -> list[str]:
    return ["k,j,v,s"] + [f"{i},{i % 3},{i * 0.5},w{i}" for i in range(n)]


def _sampler(p: float, events: list):
    """``ingest_csv``'s ``sample`` as the CLI builds it for a Bernoulli(p)
    node with seed 2 in a run with seed 9, recording in ``events`` each
    sampler it starts ("start") and the row count of each table it samples."""
    start = cli._bernoulli_at_scan(BernoulliSpec(p, 2), 9)

    def recorded():
        events.append("start")
        keep = start()

        def block(table):
            events.append(len(table))
            return keep(table)

        return block

    return recorded


def _outcome(read) -> object:
    """What ``read()`` gives: the table's columns, types, dtypes, values,
    lineage and ``f``, or the text of the ``IngestError`` it raises."""
    try:
        table = read()
    except IngestError as exc:
        return str(exc)
    return (table.columns, table.column_types, [c.dtype for c in table.data],
            [c.tolist() for c in table.data], table.lineage.dtype, table.lineage.tolist(),
            table.f.tolist())


def _whole_then_sampled(path, id_column: str, p: float):
    """The reference outcome: the table ingested whole, then sampled by the
    Bernoulli node ``_sampler`` stands for."""
    return _outcome(lambda: bernoulli_sample(
        ingest_csv(path, "t", SAMPLED_TYPES, id_column), p, generator(9, 2)))


class TestSampledIngest:
    """``ingest_csv(..., sample)`` parses, numbers and samples the table a
    block of rows at a time (here 4) and keeps exactly the rows, and raises
    exactly the errors, of the table ingested whole and then sampled."""

    LINES = _sampled_lines(11)
    FILES = {
        "blocks": "\n".join(LINES) + "\n",
        "byte_order_mark": "\ufeff" + "\n".join(LINES) + "\n",
        "crlf": "\r\n".join(LINES) + "\r\n",
        "blank_lines": "\n".join(LINES[:3] + [""] + LINES[3:6] + ["", ""] + LINES[6:]) + "\n\n",
        "no_final_newline": "\n".join(LINES),
        "whole_blocks": "\n".join(LINES[:9]) + "\n",
        "zero_rows": LINES[0] + "\n",
        "shorter_than_a_block": "\n".join(LINES[:4]) + "\n",
    }

    @pytest.mark.parametrize("id_column", ["rowIndex", "k", "k*10+j"])
    @pytest.mark.parametrize("shape", sorted(FILES))
    def test_equals_the_whole_table_sampled(self, tmp_path, monkeypatch, shape, id_column):
        path = tmp_path / "t.csv"
        path.write_bytes(self.FILES[shape].encode("utf-8"))
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 4)
        expected = _whole_then_sampled(path, id_column, 0.5)

        def whole(*args):
            raise AssertionError("the table was read whole")

        monkeypatch.setattr(ingest, "_fast_columns", whole)
        monkeypatch.setattr(ingest, "_row_columns", whole)
        events = []
        got = _outcome(lambda: ingest_csv(path, "t", SAMPLED_TYPES, id_column,
                                          _sampler(0.5, events)))
        assert got == expected
        rows = len(self.FILES[shape].strip("\ufeff").split()) - 1
        blocks = [4] * (rows // 4) + [rows % 4]
        assert events == ["start", *blocks]
        if rows > 4:
            assert 0 < len(got[5]) < rows  # some rows kept, some dropped

    @pytest.mark.parametrize("mark", ['"', "\0"])
    def test_quote_or_nul_takes_the_row_path_before_any_draw(self, tmp_path, monkeypatch,
                                                             mark):
        lines = _sampled_lines(11)
        lines[10] = lines[10].replace("w9", f"w{mark}9" if mark == "\0" else '"w,9"')
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 4)
        expected = _whole_then_sampled(path, "k", 0.5)
        events = []
        row_columns = ingest._row_columns

        def recorded(*args):
            events.append("row path")
            return row_columns(*args)

        monkeypatch.setattr(ingest, "_row_columns", recorded)
        got = _outcome(lambda: ingest_csv(path, "t", SAMPLED_TYPES, "k", _sampler(0.5, events)))
        assert got == expected
        # before Python 3.11 the csv module cannot read a NUL
        assert events == ["row path"] + ([] if isinstance(got, str) else ["start", 11])

    # (id column, the field changed in the file's row 9, which the third block reads)
    LATE_FAULTS = {
        "int_past_int64": ("k", "j", str(2**64)),
        "unparsable": ("k", "v", "xyz"),
        "missing_float": ("k", "v", ""),
        "missing_string": ("k", "s", ""),
        "id_past_int64": ("k", "k", str(2**63)),
        "id_expression_past_int64": ("k*10+j", "k", str(2**62)),
    }

    @pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
    def test_late_block_fault_reads_the_table_whole(self, tmp_path, monkeypatch, fault):
        id_column, column, value = self.LATE_FAULTS[fault]
        lines = _sampled_lines(12)
        fields = lines[10].split(",")
        fields["kjvs".index(column)] = value
        lines[10] = ",".join(fields)
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 4)
        expected = _whole_then_sampled(path, id_column, 0.5)
        events = []
        got = _outcome(lambda: ingest_csv(path, "t", SAMPLED_TYPES, id_column,
                                          _sampler(0.5, events)))
        assert got == expected
        if fault == "int_past_int64":
            assert got[2][1] == object
        else:
            assert got.startswith("table t: ")
        # two blocks drew before the fault; a new sampler gets the whole table
        assert events == ["start", 4, 4] + ([] if isinstance(got, str) else ["start", 12])

    def test_id_repeated_among_dropped_rows_is_rejected(self, tmp_path, monkeypatch):
        lines = _sampled_lines(12)
        lines[10] = lines[10].replace("9,", "1,", 1)
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 4)
        events = []
        with pytest.raises(IngestError, match=r"^table t: duplicate row ids from 'k'$"):
            ingest_csv(path, "t", SAMPLED_TYPES, "k", _sampler(0.0, events))
        assert events == ["start", 4, 4, 4, 0]

    def test_table_is_never_held_whole(self, tmp_path):
        # 200k lineitem rows kept at p = 0.1: the whole table's arrays hold
        # 11.2 MB, and reading it sampled allocates under half of that
        paths = generate_tpch_tiny({"l": 200_000, "o": 50_000}, 1, tmp_path)
        tracemalloc.start()
        try:
            table = ingest_csv(paths["lineitem"], "l", LINEITEM_TYPES,
                               "l_orderkey*10+l_linenumber", _sampler(0.1, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole = 200_000 * 8 * (len(LINEITEM_TYPES) + 1)  # the columns and the lineage
        assert 15_000 < len(table) < 25_000
        assert peak < whole / 2
