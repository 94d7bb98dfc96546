"""End-user surface: data generation and the estimate command."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from gusbox import (
    PlanError,
    SumAggregate,
    analyze,
    c_coefficients,
    cli,
    datagen,
    engine,
    errors,
    execute,
    ingest,
    normalize_plan,
    oracle,
)
from gusbox.algebra import RewriteStep
from gusbox.cli import main
from gusbox.datagen import generate_tpch_tiny
from gusbox.dsl import parse_plan
from gusbox.ingest import ingest_csv
from gusbox.plan import BernoulliSpec

from conftest import LINEITEM_TYPES, ORDERS_TYPES, strict_json
from test_dsl_ingest import query1_document
from test_golden import DOCUMENTS, FORMATS as GOLDEN_FORMATS


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        a = generate_tpch_tiny({"l": 120, "o": 30, "c": 10, "p": 15}, 7, tmp_path / "a")
        b = generate_tpch_tiny({"l": 120, "o": 30, "c": 10, "p": 15}, 7, tmp_path / "b")
        for table in a:
            assert a[table].read_bytes() == b[table].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_tpch_tiny({"l": 120, "o": 30}, 7, tmp_path / "a")
        b = generate_tpch_tiny({"l": 120, "o": 30}, 8, tmp_path / "b")
        assert a["lineitem"].read_bytes() != b["lineitem"].read_bytes()

    def test_foreign_keys_closed(self, tmp_path):
        paths = generate_tpch_tiny({"l": 120, "o": 30, "c": 10, "p": 15}, 3, tmp_path)
        l = ingest_csv(paths["lineitem"], "l", LINEITEM_TYPES,
                       "l_orderkey*10+l_linenumber")
        o = ingest_csv(paths["orders"], "o", ORDERS_TYPES, "o_orderkey")
        orderkeys = {row.values[0] for row in o.rows}
        assert {row.values[0] for row in l.rows} <= orderkeys
        partkeys = {row.values[l.columns.index("l_partkey")] for row in l.rows}
        assert partkeys <= set(range(1, 16))

    def test_value_ranges(self, tmp_path):
        paths = generate_tpch_tiny({"l": 200, "o": 40}, 5, tmp_path)
        l = ingest_csv(paths["lineitem"], "l", LINEITEM_TYPES,
                       "l_orderkey*10+l_linenumber")
        di = l.columns.index("l_discount")
        ti = l.columns.index("l_tax")
        pi = l.columns.index("l_extendedprice")
        for values, _lineage, _f in l.rows:
            assert 0.0 <= values[di] <= 0.1
            assert 0.0 <= values[ti] <= 0.08
            assert 1.0 <= values[pi] <= 100000.0

    def test_line_numbers_stay_single_digit(self, tmp_path):
        with pytest.raises(PlanError, match="single-digit"):
            generate_tpch_tiny({"l": 100, "o": 10}, 1, tmp_path)

    def test_parse_scale(self, tmp_path, capsys):
        assert cli._name_values("l=10, o=5", "scale", "key", "count", int) == {"l": 10, "o": 5}
        assert main(["generate", "--scale", "l=ten", "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: bad scale count 'ten' for 'l'\n"
        assert not (tmp_path / "d").exists()

    def test_repeated_scale_key_exits_2(self, tmp_path, capsys):
        # one parser for --scale and --subsample: neither lets a later entry win
        assert main(["generate", "--scale", "l=5,l=10", "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: scale key 'l' given more than once\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("scale, message", [
        ("x=1", "unknown scale key(s) ['x']; expected l, o, c, p"),
        ("l", "bad scale entry 'l'; expected key=count"),
        ("l=0", "scale l=0 must be >= 1"),
    ])
    def test_bad_scale_exits_2_before_writing(self, tmp_path, capsys, scale, message):
        assert main(["generate", "--scale", scale, "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "d").exists()

    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys):
        assert main(["generate", "--seed", "-1", "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: seed -1 outside [0, 2**64)\n"
        assert not (tmp_path / "d").exists()

    def test_output_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        assert main(["generate", "--out", str(tmp_path / "f" / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("scale", [
        "c=100000000000000000000",   # past int64: numpy refused the dimension
        f"o={datagen._MAX_ROWS + 1},l=1",  # numpy refused the array as too big
        "p=9223372036854775808",
    ])
    def test_count_no_column_can_hold_exits_2(self, tmp_path, capsys, scale):
        # each exited 1 with numpy's ValueError traceback, the second one
        # after writing customer.csv and part.csv
        assert main(["generate", "--scale", scale, "--out", str(tmp_path / "d")]) == 2
        key, _, value = scale.split(",")[0].partition("=")
        assert capsys.readouterr().err == (
            f"error: scale {key}={value} must be <= {datagen._MAX_ROWS}, "
            "the most rows a column can hold\n")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
         "and data type int64", None),
        ("", "out of memory"),
    ])
    def test_draw_out_of_memory_exits_2_before_writing(self, tmp_path, monkeypatch, capsys,
                                                       message, printed):
        # the lineitem shuffle is drawn after every other table's columns; a
        # real allocation this large could reach the OOM killer, so it is faked
        real = np.random.Generator

        class Exhausted:
            def __init__(self, bits):
                self.rng = real(bits)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def permutation(self, n):
                raise MemoryError(message)

        monkeypatch.setattr(np.random, "Generator", Exhausted)
        out = tmp_path / "d"
        assert main(["generate", "--scale", "l=10,o=5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {printed or message}\n"
        assert not out.exists()


@pytest.fixture()
def plan_on_disk(tmp_path):
    """Desk-scale data plus a Query-1 document sized to it."""
    generate_tpch_tiny({"l": 200, "o": 50, "c": 10, "p": 20}, 11, tmp_path)
    doc = query1_document(p=0.4, n=20)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(doc))
    return plan_path


class TestEstimateCommand:
    def test_json_report_is_deterministic(self, plan_on_disk, tmp_path, capsys):
        args = ["estimate", str(plan_on_disk), "--seed", "5", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        body = json.loads(first)
        assert body["a"] == pytest.approx(0.4 * 20 / 50, rel=1e-12)
        assert set(body["ySample"]) == {"", "l", "o", "lo"}
        assert body["gus"]["schema"] == ["l", "o"]
        assert len(body["quantileRequests"]) == 2

    def test_text_format(self, plan_on_disk, capsys):
        assert main(["estimate", str(plan_on_disk), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out and "ci chebyshev" in out

    def test_text_format_with_trace_and_oracle(self, plan_on_disk, capsys):
        assert main(["estimate", str(plan_on_disk), "--format", "text",
                     "--explain", "--oracle", "--oracle-trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "rewrite trace:" in out
        assert "oracle truth" in out and "oracle mc" in out

    def test_explain_trace_has_three_steps(self, plan_on_disk, capsys):
        assert main(["estimate", str(plan_on_disk), "--explain"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert [s["rule"] for s in body["trace"]] == [
            "sampler_to_gus", "sampler_to_gus", "join_gus_merge"]
        assert body["trace"][-1]["after"]["a"] == body["a"]

    @pytest.mark.parametrize("fmt, documents", [("json", 3), ("text", 0)])
    def test_explain_builds_each_step_document_as_it_is_written(self, plan_on_disk, monkeypatch,
                                                               capsys, fmt, documents):
        # JSON builds one step's document at a time, once; text builds none
        built = []
        to_json_dict = RewriteStep.to_json_dict

        class Document(dict):  # a dict that takes a weak reference
            pass

        def tracked(step):
            assert all(ref() is None for ref in built[:-1])  # all but the one being written
            document = Document(to_json_dict(step))
            built.append(weakref.ref(document))
            return document

        monkeypatch.setattr(RewriteStep, "to_json_dict", tracked)
        assert main(["estimate", str(plan_on_disk), "--explain", "--format", fmt]) == 0
        assert "sampler_to_gus" in capsys.readouterr().out
        assert len(built) == documents

    def test_subsample_with_p_one_matches_default(self, plan_on_disk, capsys):
        assert main(["estimate", str(plan_on_disk), "--seed", "5"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["estimate", str(plan_on_disk), "--seed", "5",
                     "--subsample", "l=1.0,o=1.0"]) == 0
        via = json.loads(capsys.readouterr().out)
        assert via["estimate"] == base["estimate"]
        assert via["varianceHat"] == base["varianceHat"]
        assert via["yHat"] == base["yHat"]
        assert via["subsample"]["rows"] == base["sampleRows"]

    @pytest.mark.parametrize("spec", [None, "l=0.5,o=0.5"])
    def test_report_is_the_analyze_document(self, desk_paths, desk_catalog, tmp_path, capsys,
                                            spec):
        # the command writes the dict analyze returns, with its key order; the
        # floats survive the round trip because the writer uses repr
        text = json.dumps(query1_document(
            str(desk_paths["lineitem"]), str(desk_paths["orders"]), p=0.3, n=25))
        (tmp_path / "plan.json").write_text(text)
        args = ["estimate", str(tmp_path / "plan.json"), "--seed", "5"]
        doc = parse_plan(text)
        executed = execute(doc.plan, desk_catalog, master_seed=5)
        normalized = normalize_plan(doc.plan, executed.populations)
        subsample = None
        if spec:
            args += ["--subsample", spec]
            subsample = cli._parse_subsample(spec, doc.plan, 5)
        report = analyze(executed.relation, normalized.gus, quantiles=doc.quantiles,
                         subsample=subsample)
        assert main(args) == 0
        written = json.loads(capsys.readouterr().out)
        assert report == written
        assert list(report) == list(written)
        assert json.dumps(report) == json.dumps(written)  # key order at every level
        assert ("subsample" in written) == bool(spec)

    def test_oracle_attachment_on_enumerable_plan(self, tmp_path, capsys):
        # four-row tables keep full enumeration cheap
        generate_tpch_tiny({"l": 4, "o": 2, "c": 2, "p": 2}, 2, tmp_path)
        doc = query1_document(p=0.5, n=1)
        doc["plan"]["child"]["child"]["right"]["method"] = {
            "method": "bernoulli", "p": 0.5, "seed": 2}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        assert main(["estimate", str(plan_path), "--oracle",
                     "--oracle-trials", "200"]) == 0
        body = strict_json(capsys.readouterr().out)
        exact = body["oracle"]["exact"]
        assert exact is not None
        assert body["oracle"]["monteCarlo"]["trials"] == 200
        assert exact["mean"] == pytest.approx(body["oracle"]["trueSum"], rel=1e-9)
        # formula variance with full-data terms must equal the enumerated one
        assert body["oracle"]["exactYVariance"] == pytest.approx(
            exact["variance"], rel=1e-9)

    def test_oracle_skips_enumeration_on_large_input(self, tmp_path, capsys):
        # 2**20000 outcomes: the exact oracle must be skipped with a note,
        # not crash on formatting the state count
        m = 20_000
        lines = ["t_id,t_v"] + [f"{k},{k % 7}.5" for k in range(m)]
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
        doc = {
            "tables": {"t": {"path": "t.csv", "idColumn": "t_id",
                             "columnTypes": {"t_id": "int64", "t_v": "float64"}}},
            "plan": {"op": "sum", "expr": "t_v",
                     "child": {"op": "sample",
                               "method": {"method": "bernoulli", "p": 0.5, "seed": 1},
                               "child": {"op": "scan", "table": "t"}}},
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        assert main(["estimate", str(plan_path), "--oracle", "--oracle-trials", "1"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["oracle"]["exact"] is None
        assert body["oracle"]["monteCarlo"]["trials"] == 1
        assert any(note.startswith("exact oracle skipped: enumeration would need 2**20000")
                   for note in body["diagnostics"])

    def test_out_file(self, plan_on_disk, tmp_path):
        target = tmp_path / "report.json"
        assert main(["estimate", str(plan_on_disk), "--out", str(target)]) == 0
        assert json.loads(target.read_text())["sampleRows"] >= 0

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["estimate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_self_join_exits_2(self, plan_on_disk, tmp_path, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["plan"]["child"]["child"]["right"]["child"]["table"] = "l"
        bad = plan_on_disk.parent / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: plan.child.child: join sides share base relation(s) ['l']; "
            "self-joins are unsupported\n")

    def test_keyed_dimensions_without_seeds_exit_2(self, plan_on_disk, capsys):
        # both dimensions fall back to seed 0, so their decisions coincide
        doc = json.loads(plan_on_disk.read_text())
        join = doc["plan"]["child"]["child"]
        doc["plan"]["child"]["child"] = {
            "op": "sample",
            "method": {"method": "lineage_bernoulli",
                       "dims": {"l": {"p": 0.5}, "o": {"p": 0.5}}},
            "child": join,
        }
        bad = plan_on_disk.parent / "shared_seed.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "plan.child.child.method.dims.l and plan.child.child.method.dims.o" in err
        assert "share seed 0" in err

    def test_row_samplers_without_seeds_exit_2(self, plan_on_disk, capsys):
        # both samplers fall back to seed 0 and would draw one stream
        doc = json.loads(plan_on_disk.read_text())
        join = doc["plan"]["child"]["child"]
        del join["left"]["method"]["seed"]
        del join["right"]["method"]["seed"]
        bad = plan_on_disk.parent / "shared_row_seed.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "plan.child.child.left.method and plan.child.child.right.method" in err
        assert "share seed 0" in err

    def test_structural_errors_come_before_ingest(self, plan_on_disk, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["tables"]["l"]["path"] = "missing.csv"
        join = doc["plan"]["child"]["child"]
        del join["left"]["method"]["seed"], join["right"]["method"]["seed"]
        bad = plan_on_disk.parent / "shared_seed_no_data.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "plan.child.child.left.method and plan.child.child.right.method" in err
        assert "share seed 0" in err

    @pytest.mark.parametrize("slot, value, message", [
        ("col", [1], "plan.child.where[0]: col must be a string, not [1]"),
        ("col", True, "plan.child.where[0]: col must be a string, not true"),
        ("col2", [1], "plan.child.where[0]: col2 must be a string, not [1]"),
        ("left", [1], "plan.child.child.eq[0]: left must be a string, not [1]"),
        ("right", True, "plan.child.child.eq[0]: right must be a string, not true"),
        # unknown names, checked against the declared columns below each node;
        # each exited 2 only after ingest, without a path
        ("col", "nope", "plan.child.where[0].col: unknown column 'nope'"),
        ("col2", "nope", "plan.child.where[0].col2: unknown column 'nope'"),
        ("left", "o_orderkey", "plan.child.child.eq[0].left: unknown column 'o_orderkey'"),
        ("right", "l_orderkey", "plan.child.child.eq[0].right: unknown column 'l_orderkey'"),
        ("theta", "nope", "plan.child.child.theta[0].col: unknown column 'nope'"),
        ("expr", "l_discount*nope", "plan.expr: unknown column 'nope'"),
        ("expr", "l_discount*", "plan.expr: cannot parse 'l_discount*': invalid syntax"),
        # types, join-side overlaps and id expressions, checked on the declared
        # columns too; each exited 2 only after ingest, without a path
        ("value", "x", "plan.child.where[0].value: cannot compare numeric column with 'x'"),
        ("value", True, "plan.child.where[0].value: cannot compare numeric column with True"),
        ("value", {}, "plan.child.where[0].value: cannot compare numeric column with {}"),
        ("col2", "l_flag", "plan.child.where[0].col2: cannot compare l_extendedprice "
                           "(float64) with l_flag (string)"),
        ("theta", "l_flag", "plan.child.child.theta[0].value: cannot compare string column "
                            "with 1.0"),
        ("overlap", "l_tax", "plan.child.child: join sides share column names ['l_tax']"),
        ("idColumn", "o_orderkey + nope", "tables.o.idColumn: unknown column 'nope'"),
        ("idColumn", "o_totalprice", "tables.o.idColumn: id column 'o_totalprice' must be int64"),
        ("idColumn", "o_totalprice*2", "tables.o.idColumn: column 'o_totalprice' must be int64"),
        # each ran: the constant was dropped and the atom read as a col2 one,
        # and the int-versus-string join kept no row (estimate 0.0)
        ("col2_and_value", "l_tax", "plan.child.where[0]: comparison needs exactly one of a "
                                    "constant or a second column"),
        ("left", "l_flag", "plan.child.child.eq[0].right: cannot compare l_flag (string) "
                           "with o_orderkey (int64)"),
        # a null constant beside a col2 ran as a column test
        ("col2_and_null", "l_tax", "plan.child.where[0]: value must be a number or a string, "
                                   "not null"),
        ("value", None, "plan.child.where[0]: value must be a number or a string, not null"),
    ])
    def test_column_names_read_before_ingest(self, plan_on_disk, capsys, slot, value, message):
        # read while the document is parsed, with a path: no CSV is opened
        doc = json.loads(plan_on_disk.read_text())
        for table in doc["tables"].values():
            table["path"] = "missing.csv"
        doc["tables"]["l"]["columnTypes"]["l_flag"] = "string"
        atom = doc["plan"]["child"]["where"][0]
        join = doc["plan"]["child"]["child"]
        if slot == "value":
            atom["value"] = value
        elif slot == "overlap":
            doc["tables"]["o"]["columnTypes"][value] = "float64"
        elif slot == "idColumn":
            doc["tables"]["o"]["idColumn"] = value
        elif slot == "col2":
            atom.update(cmp="=", col2=value)
            del atom["value"]
        elif slot == "col2_and_value":
            atom.update(cmp="=", col2=value)
        elif slot == "col2_and_null":
            atom.update(cmp="=", value=None, col2=value)
        elif slot == "col":
            atom["col"] = value
        elif slot == "theta":
            join["theta"] = [{"col": value, "cmp": ">", "value": 1.0}]
        elif slot == "expr":
            doc["plan"]["expr"] = value
        else:
            join["eq"][0][slot == "right"] = value
        bad = plan_on_disk.parent / "bad_column.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_json_constant_exits_2_before_ingest(self, plan_on_disk, capsys, constant):
        # json.loads read these as floats: Infinity and 1e400 ran, and NaN kept no row
        doc = json.loads(plan_on_disk.read_text())
        for table in doc["tables"].values():
            table["path"] = "missing.csv"
        text = json.dumps(doc).replace('"value": 100.0', f'"value": {constant}')
        assert constant in text
        bad = plan_on_disk.parent / "constant.json"
        bad.write_text(text)
        assert main(["estimate", str(bad)]) == 2
        fault = "overflows float64" if "e" in constant else "is not valid JSON"
        assert capsys.readouterr() == ("", f"error: {constant} {fault}\n")

    def test_wor_larger_than_its_input_exits_2(self, plan_on_disk, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["plan"]["child"]["child"]["right"]["method"]["n"] = 51
        bad = plan_on_disk.parent / "too_big.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: plan.child.child.right.method: cannot draw 51 rows from a relation of 50\n")

    def test_wor_of_zero_rows_rejected_before_ingest(self, plan_on_disk, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["tables"]["o"]["path"] = "missing.csv"
        doc["plan"]["child"]["child"]["right"]["method"]["n"] = 0
        bad = plan_on_disk.parent / "n0.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: plan.child.child.right.method: sample size 0 must be >= 1\n")

    def test_cross_reports_like_a_join_without_conditions(self, plan_on_disk, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["plan"]["expr"] = "l_discount*o_totalprice"
        join = doc["plan"]["child"]["child"]
        del join["eq"]
        reports = []
        for op in ("cross", "join"):
            join["op"] = op
            plan_path = plan_on_disk.parent / f"{op}.json"
            plan_path.write_text(json.dumps(doc))
            assert main(["estimate", str(plan_path), "--explain", "--oracle",
                         "--oracle-trials", "3"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["sampleRows"] > 0

    def test_oracle_runs_no_wor_input_again(self, plan_on_disk, monkeypatch, capsys):
        # the rewriter reads the run's populations and the oracles get the
        # table's a, so nothing executes the WOR's input (a select) on its
        # own: every execution is of a whole plan
        doc = json.loads(plan_on_disk.read_text())
        right = doc["plan"]["child"]["child"]["right"]
        right["child"] = {"op": "select", "child": right["child"],
                          "where": [{"col": "o_totalprice", "cmp": ">", "value": 0.0}]}
        plan_path = plan_on_disk.parent / "wor_over_select.json"
        plan_path.write_text(json.dumps(doc))
        calls = []
        real_execute = engine.execute

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real_execute(*args, **kwargs)

        for module in (engine, cli, oracle):
            monkeypatch.setattr(module, "execute", counted)
        assert main(["estimate", str(plan_path), "--oracle", "--oracle-trials", "1"]) == 0
        # the run, the full-data run and one Monte Carlo trial
        assert len(calls) == 3
        assert all(isinstance(node, SumAggregate) for node in calls)
        body = json.loads(capsys.readouterr().out)
        assert body["oracle"]["monteCarlo"]["trials"] == 1

    def test_plan_nodes_execute_once(self, plan_on_disk, monkeypatch, capsys):
        # the WOR sits above a select, so its population is that select's output
        doc = json.loads(plan_on_disk.read_text())
        right = doc["plan"]["child"]["child"]["right"]
        right["child"] = {"op": "select", "child": right["child"],
                          "where": [{"col": "o_totalprice", "cmp": ">", "value": 0.0}]}
        plan_path = plan_on_disk.parent / "wor_over_select.json"
        plan_path.write_text(json.dumps(doc))
        calls = []
        real_select = engine.select

        def counted(where, relation):
            calls.append(where[0].col)
            return real_select(where, relation)

        monkeypatch.setattr(engine, "select", counted)
        assert main(["estimate", str(plan_path), "--explain"]) == 0
        assert sorted(calls) == ["l_extendedprice", "o_totalprice"]
        body = json.loads(capsys.readouterr().out)
        assert body["a"] == pytest.approx(0.4 * 20 / 50, rel=1e-12)

    def test_repeated_subsample_relation_exits_2(self, plan_on_disk, capsys):
        assert main(["estimate", str(plan_on_disk), "--subsample", "l=0.2,o=0.5,l=0.3"]) == 2
        assert capsys.readouterr().err == (
            "error: subsample relation 'l' given more than once\n")

    @pytest.mark.parametrize("spec, message", [
        ("l=2", "subsample probability 2.0 outside [0, 1]"),
        ("x=0.5", "subsample relation 'x' is not in the plan's schema ('l', 'o')"),
        ("l=0.5,l=0.2", "subsample relation 'l' given more than once"),
    ])
    def test_subsample_spec_checked_before_ingest(self, plan_on_disk, capsys, spec, message):
        doc = json.loads(plan_on_disk.read_text())
        doc["tables"]["l"]["path"] = "missing.csv"
        bad = plan_on_disk.parent / "no_lineitem.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad), "--subsample", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_subsample_sharing_a_keyed_seed_exits_2(self, plan_on_disk, capsys):
        # the first sub-sample relation's seed is 0x5B5A11CE: on the plan's
        # l it would repeat the plan's own keyed decisions and keep every row
        doc = json.loads(plan_on_disk.read_text())
        doc["tables"]["l"]["path"] = "missing.csv"
        doc["plan"]["child"]["child"]["left"]["method"] = {
            "method": "lineage_bernoulli", "dims": {"l": {"p": 0.3, "seed": 0x5B5A11CE}}}
        bad = plan_on_disk.parent / "subsample_seed.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad), "--subsample", "l=0.5", "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: lineage-keyed dimensions plan.child.child.left.method.dims.l and "
            "subsample relation 'l' share seed 1532629454: ")

    def test_text_report_with_exact_oracle(self, tmp_path, capsys):
        generate_tpch_tiny({"l": 4, "o": 2, "c": 2, "p": 2}, 2, tmp_path)
        doc = query1_document(p=0.5, n=1)
        doc["plan"]["child"]["child"]["right"]["method"] = {
            "method": "bernoulli", "p": 0.5, "seed": 2}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        assert main(["estimate", str(plan_path), "--oracle", "--oracle-trials", "20"]) == 0
        exact = json.loads(capsys.readouterr().out)["oracle"]["exact"]
        assert main(["estimate", str(plan_path), "--format", "text", "--oracle",
                     "--oracle-trials", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (f"oracle exact    mean={exact['mean']:.4g} "
                f"variance={exact['variance']:.4g}") in lines
        assert [line.split()[:2] for line in lines[-4:]] == [
            ["oracle", "truth"], ["oracle", "exact"], ["oracle", "exact-y"], ["oracle", "mc"]]

    def test_plan_with_byte_order_mark_reads_as_without(self, plan_on_disk, capsys):
        # editors that save "UTF-8 with BOM" start the document with the mark;
        # it exited 2 with "Unexpected UTF-8 BOM" while its CSVs were accepted
        bom_path = plan_on_disk.with_name("bom.json")
        bom_path.write_bytes(b"\xef\xbb\xbf" + plan_on_disk.read_bytes())
        reports = []
        for path in (plan_on_disk, bom_path):
            assert main(["estimate", str(path), "--seed", "3", "--explain"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]

    def test_unreadable_plan_path_exits_2(self, tmp_path, capsys):
        assert main(["estimate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")

    def test_unwritable_out_exits_2(self, plan_on_disk, tmp_path, capsys):
        assert main(["estimate", str(plan_on_disk), "--out",
                     str(tmp_path / "missing" / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_table_path_that_is_a_directory_exits_2(self, plan_on_disk, tmp_path, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["tables"]["l"]["path"] = "."
        bad = tmp_path / "dir_table.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed -1 outside [0, 2**64)"),
        (["--seed", str(2**64)], "seed 18446744073709551616 outside [0, 2**64)"),
        (["--oracle", "--oracle-trials", "0"], "--oracle-trials 0 must be >= 1"),
        (["--oracle-trials", "-3"], "--oracle-trials -3 must be >= 1"),
    ], ids=["seed_-1", "seed_2_64", "trials_0", "trials_-3"])
    def test_run_flags_checked_before_ingest(self, plan_on_disk, capsys, flags, message):
        # a negative run seed used to reach numpy's SeedSequence and exit 1
        doc = json.loads(plan_on_disk.read_text())
        doc["tables"]["l"]["path"] = "missing.csv"
        bad = plan_on_disk.parent / "no_lineitem.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_row_ids_past_int64_exit_2(self, tmp_path, capsys):
        # a keyed hash reads ids modulo 2**64: -1 and 2**64 - 1 would share
        # every decision while the table treats them as independent tuples
        (tmp_path / "t.csv").write_text("k,v\n-1,1.0\n18446744073709551615,2.0\n3,3.0\n")
        doc = {"tables": {"t": {"path": "t.csv", "idColumn": "k",
                                "columnTypes": {"k": "int64", "v": "float64"}}},
               "plan": {"op": "sum", "expr": "v", "child": {
                   "op": "sample", "child": {"op": "scan", "table": "t"},
                   "method": {"method": "lineage_bernoulli", "dims": {"t": {"p": 0.5}}}}}}
        plan_path = tmp_path / "wide.json"
        plan_path.write_text(json.dumps(doc))
        assert main(["estimate", str(plan_path)]) == 2
        assert capsys.readouterr().err == "error: table t: row ids from 'k' must fit int64\n"

    @staticmethod
    def _tiny_document(tmp_path, csv=b"k,v,w\n1,1.0,1\n2,2.0,2\n3,3.0,1" + b"0" * 400 + b"\n",
                       **changes):
        """A one-table plan over ``t.csv`` (``k`` int64 ids, a float ``v`` and
        an int ``w`` that reaches 10**400), after ``changes``: each maps a
        dotted path in the document to a new value."""
        (tmp_path / "t.csv").write_bytes(csv)
        doc = {"tables": {"t": {"path": "t.csv", "idColumn": "k", "columnTypes": {
                   "k": "int64", "v": "float64", "w": "int64"}}},
               "plan": {"op": "sum", "expr": "v", "child": {
                   "op": "sample", "child": {"op": "scan", "table": "t"},
                   "method": {"method": "bernoulli", "p": 0.5, "seed": 1}}}}
        for dotted, value in changes.items():
            *parents, key = dotted.split(".")
            node = doc
            for name in parents:
                node = node[name]
            node[key] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        return plan_path

    @pytest.mark.parametrize("changes, message", [
        ({"plan.child.method.p": True},
         "plan.child.method: p must be a number, not true"),
        ({"plan.child.method.p": "0.5"},
         'plan.child.method: p must be a number, not "0.5"'),
        ({"plan.child.method.p": 10**400},
         "plan.child.method: int too large to convert to float"),
        ({"plan.child.method": {"method": "lineage_bernoulli",
                                "dims": {"t": {"p": True, "seed": 3}}}},
         "plan.child.method.dims.t: p must be a number, not true"),
        ({"plan.child.child.table": ["t"]},
         'plan.child.child: table must be a string, not ["t"]'),
        ({"tables.t.path": None}, "tables.t: path must be a string, not null"),
        ({"tables.t.idColumn": 5}, "tables.t: idColumn must be a string, not 5"),
        ({"tables.t.columnTypes.v": ["float64"]},
         'tables.t.columnTypes: v must be a string, not ["float64"]'),
        ({"plan.expr": 5}, "plan: expr must be a string, not 5"),
        ({"plan.expr": "1 / (v - 2.0)", "plan.child.method.p": 1.0},
         "aggregate '1 / (v - 2.0)': float division by zero"),
        ({"tables.t.idColumn": "k // (k - 1)"},
         "table t id expression: integer division or modulo by zero"),
        ({"plan.expr": "w", "plan.child.method.p": 1.0},
         "aggregate 'w': int too large to convert to float"),
        ({"plan.expr": "v ** 2"}, "plan.expr: unsupported syntax 'Pow'"),
        ({"plan.expr": "abs(v)"}, "plan.expr: unsupported syntax 'Call'"),
        ({"plan.expr": "v < 1"}, "plan.expr: unsupported syntax 'Compare'"),
        ({"plan.expr": "'a'"}, "plan.expr: literal 'a' is not numeric"),
        ({"plan.expr": "v * True"}, "plan.expr: literal True is not numeric"),
        ({"plan": {"op": "scan", "table": "t"}},
         "plan: estimation needs a sum aggregate at the root"),
        # read "quantiles[0]: True is not in (0, 1)"
        ({"quantiles": [True]}, "quantiles[0] must be a number, not true"),
    ], ids=["p_true", "p_string", "p_int_past_float", "keyed_p_true", "table_list", "path_null", "id_column_int",
            "column_type_list", "expr_int", "aggregate_zero_divisor", "id_zero_divisor",
            "aggregate_int_past_float", "expr_pow", "expr_call", "expr_compare", "expr_string",
            "expr_bool", "no_sum", "quantile_true"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, changes, message):
        # each exited 1 with a traceback, or ("p": true and "0.5") ran as a probability
        plan_path = self._tiny_document(tmp_path, **changes)
        assert main(["estimate", str(plan_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text("[]")
        assert main(["estimate", str(plan_path)]) == 2
        assert capsys.readouterr() == ("", "error: top level: plan document must be an object\n")

    def test_non_finite_aggregate_exits_2(self, tmp_path, capsys):
        # exited 0 with "estimate": NaN, which no strict JSON reader accepts
        plan_path = self._tiny_document(tmp_path, b"k,v,w\n2,nan,1\n4,inf,2\n",
                                        **{"plan.child.method.p": 0.9})
        assert main(["estimate", str(plan_path)]) == 2
        assert capsys.readouterr().err == (
            "error: aggregate 'v': non-finite value nan on a kept row\n")

    def test_non_finite_values_the_plan_drops_are_not_read(self, tmp_path, capsys):
        plan_path = self._tiny_document(
            tmp_path, b"k,v,w\n1,1.5,1\n2,nan,1\n4,inf,2\n",
            **{"plan.child.child": {"op": "select", "child": {"op": "scan", "table": "t"},
                                    "where": [{"col": "k", "cmp": "<", "value": 2}]}})
        assert main(["estimate", str(plan_path), "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["sampleRows"] <= 1

    @pytest.mark.parametrize("csv, p, seed, where", [
        # exited 0 with "estimate": Infinity, "yHat" NaN and two numpy warnings
        (b"k,v,w\n2,1e308,1\n4,1e308,2\n6,1e200,1\n", 0.9, 3, "estimate is inf"),
        (b"k,v,w\n2,1e200,1\n4,1e200,2\n", 0.9, 0, "ySample[''] is inf"),
        (b"k,v,w\n" + b"".join(b"%d,3e151,1\n" % k for k in range(1, 1001)), 0.001, 1,
         "yHat[''] is inf"),
        (b"k,v,w\n" + b"".join(b"%d,3e151,1\n" % k for k in range(1, 1001)), 0.001, 0,
         "varianceHat is inf"),
    ], ids=["estimate", "ySample", "yHat", "varianceHat"])
    def test_overflowing_totals_exit_2(self, tmp_path, capsys, csv, p, seed, where):
        plan_path = self._tiny_document(tmp_path, csv, **{"plan.child.method.p": p})
        with warnings.catch_warnings():  # no numpy warning may reach stderr
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["estimate", str(plan_path), "--seed", str(seed)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {where}: the sampled values overflow float64\n")

    def test_unidentifiable_plan_exits_3_before_its_data_overflow(self, tmp_path, capsys):
        # exited 2 with "estimate is inf": now every value is computed before
        # the report is checked for overflow
        plan_path = self._tiny_document(tmp_path, b"k,v,w\n2,1e308,1\n4,1e308,2\n",
                                        **{"plan.child.method": {"method": "wor", "n": 1}})
        with warnings.catch_warnings():  # no numpy warning may reach stderr
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["estimate", str(plan_path)]) == 3
        assert capsys.readouterr() == (
            "", "error: pair inclusion probability is 0 for subset empty; its variance "
                "term cannot be estimated from this sample\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("csv, seed, where", [
        # seeds 0 and 1 keep only the row 1,1.0 and exited 0 with Infinity
        # and NaN in the oracle block; seeds 2-7 keep a 1e308 row
        *((b"k,v,w\n1,1.0,1\n2,1e308,1\n3,1e308,1\n", seed,
           "oracle.exact.mean is inf: the oracle's sums overflow float64") for seed in (0, 1)),
        *((b"k,v,w\n1,1.0,1\n2,1e308,1\n3,1e308,1\n", seed,
           "estimate is inf: the sampled values overflow float64") for seed in range(2, 8)),
        # finite values whose squared deviations overflow: exited 1 with an
        # OverflowError traceback
        (b"k,v,w\n1,1.0,1\n2,5e307,1\n", 0,
         "oracle.exact.variance is nan: the oracle's sums overflow float64"),
    ], ids=["oracle_seed0", "oracle_seed1", *(f"estimate_seed{s}" for s in range(2, 8)),
            "oracle_square"])
    def test_overflowing_oracle_exits_2(self, tmp_path, capsys, csv, seed, where, fmt):
        plan_path = self._tiny_document(tmp_path, csv)
        with warnings.catch_warnings():  # no numpy warning may reach stderr
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["estimate", str(plan_path), "--seed", str(seed), "--oracle",
                         "--oracle-trials", "50", "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"error: {where}\n")

    @pytest.mark.parametrize("plan_bytes, csv, message", [
        (b"\xff", None, "cannot read {plan}: 'utf-8' codec can't decode byte 0xff in "
                        "position 0: invalid start byte"),
        (None, b"k,v,w\n1,1.0,1\n2,\xff\xfe,2\n", "table t: cannot read {csv}: 'utf-8' codec "
                                                 "can't decode byte 0xff in position 16: "
                                                 "invalid start byte"),
        (None, b"k,v,\xff\n1,1.0,1\n", "table t: cannot read {csv}: 'utf-8' codec can't decode "
                                       "byte 0xff in position 4: invalid start byte"),
    ], ids=["plan", "csv_row", "csv_header"])
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, plan_bytes, csv, message):
        plan_path = self._tiny_document(tmp_path, *([csv] if csv else []))
        if plan_bytes is not None:
            plan_path.write_bytes(plan_bytes)
        assert main(["estimate", str(plan_path)]) == 2
        assert capsys.readouterr().err == "error: {}\n".format(
            message.format(plan=plan_path, csv=tmp_path / "t.csv"))

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"quantiles": [1' + "0" * 5000 + "]}")
        assert main(["estimate", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: top level: ") and err.count("\n") == 1

    @pytest.mark.parametrize("error, code", [
        (errors.PlanError, 2), (errors.IngestError, 2), (errors.ExpressionError, 2),
        (errors.SchemaError, 2), (errors.SelfJoinError, 2), (errors.SampleSizeError, 2),
        (errors.EnumerationInfeasibleError, 2), (errors.NumericOverflowError, 2),
        (errors.GusboxError, 2),
        (errors.NotIdentifiableError, 3), (errors.DegenerateSamplingError, 3),
        (MemoryError, 2),
    ], ids=lambda value: value.__name__ if isinstance(value, type) else str(value))
    def test_exit_codes_by_error_type(self, plan_on_disk, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "run_estimate", fail)
        assert main(["estimate", str(plan_on_disk)]) == code
        assert capsys.readouterr().err == "error: boom\n"

    def test_not_identifiable_exits_3(self, plan_on_disk, capsys):
        doc = json.loads(plan_on_disk.read_text())
        doc["plan"]["child"]["child"]["right"]["method"]["n"] = 1
        bad = plan_on_disk.parent / "n1.json"
        bad.write_text(json.dumps(doc))
        assert main(["estimate", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--scale", "l=50,o=10,c=5,p=5",
                     "--seed", "3", "--out", str(out)]) == 0
        assert (out / "lineitem.csv").exists()
        assert "lineitem" in capsys.readouterr().out

    def test_cross_process_byte_identity(self, plan_on_disk):
        # separate interpreters, separate hash randomization: bytes must match
        cmd = [sys.executable, "-m", "gusbox.cli", "estimate", str(plan_on_disk),
               "--seed", "9", "--explain"]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert json.loads(runs[0])

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_closed_stdout_exits_2(self, plan_on_disk, fmt, unbuffered):
        # stdout is where the report goes, so a reader that has closed it is a
        # file that cannot be written. With a buffered stdout the write must
        # fail inside main, not in the interpreter's flush at exit, which
        # prints "Exception ignored in: ..." and exits 120
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "gusbox.cli", "estimate", str(plan_on_disk),
                 "--format", fmt], stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def _union_document(paths) -> dict:
    """A union of two Bernoulli samples of ``o``, so the plan scans ``o``
    twice, beside a declared table ``l`` that no scan reads."""
    doc = query1_document(str(paths["lineitem"]), str(paths["orders"]))
    sides = [{"op": "sample", "method": {"method": "bernoulli", "p": p, "seed": seed},
              "child": {"op": "scan", "table": "o"}} for p, seed in ((0.3, 1), (0.5, 2))]
    doc["plan"] = {"op": "sum", "expr": "o_totalprice",
                   "child": {"op": "union", "left": sides[0], "right": sides[1]}}
    return doc


class TestTableRelease:
    """Without ``--oracle``, ``gusbox estimate`` frees each stored table
    once the operator above its last scan has read it; with it, every
    table lives for the whole run."""

    @staticmethod
    def track(monkeypatch, operator: str = "join") -> tuple[dict, list]:
        """Weak references to the first column of every table the command
        ingests, by name, and the list that records, at each call of the
        engine's ``operator``, which of them are still alive."""
        refs, alive = {}, []
        ingest, run = cli.ingest_csv, getattr(engine, operator)

        def ingest_tracked(path, name, *args):
            table = ingest(path, name, *args)
            refs[name] = weakref.ref(table.data[0])
            return table

        def run_tracked(*args):
            alive.append({name: ref() is not None for name, ref in refs.items()})
            return run(*args)

        monkeypatch.setattr(cli, "ingest_csv", ingest_tracked)
        monkeypatch.setattr(engine, operator, run_tracked)
        return refs, alive

    def test_tables_are_freed_after_their_scans(self, desk_paths, tmp_path, monkeypatch,
                                               capsys):
        # l's select (under its Bernoulli sampler) and o's select (under its
        # WOR) have returned when the join starts; the select keeps l from
        # being sampled as it is read, so l is ingested whole
        doc = DOCUMENTS["wor_over_select"](desk_paths)
        left = doc["plan"]["child"]["child"]["left"]
        left["child"] = {"op": "select", "child": left["child"],
                         "where": [{"col": "l_extendedprice", "cmp": ">", "value": 0.0}]}
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        refs, alive = self.track(monkeypatch)
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5"]) == 0
        assert alive == [{"l": False, "o": False}]
        assert strict_json(capsys.readouterr().out)["sampleRows"] > 0

    def test_oracle_keeps_every_table(self, desk_paths, desk_catalog, tmp_path, monkeypatch,
                                      capsys):
        text = json.dumps(DOCUMENTS["wor_over_select"](desk_paths))
        (tmp_path / "plan.json").write_text(text)
        refs, alive = self.track(monkeypatch)
        monte_carlo = oracle.monte_carlo_moments

        def monte_carlo_tracked(*args, **kwargs):
            alive.append({name: ref() is not None for name, ref in refs.items()})
            return monte_carlo(*args, **kwargs)

        monkeypatch.setattr(oracle, "monte_carlo_moments", monte_carlo_tracked)
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5",
                     "--oracle", "--oracle-trials", "50"]) == 0
        written = strict_json(capsys.readouterr().out)["oracle"]
        assert len(alive) > 2 and all(seen == {"l": True, "o": True} for seen in alive)
        # the block the same calls give on a plain catalog
        monkeypatch.undo()
        doc = parse_plan(text)
        gus = normalize_plan(doc.plan, execute(doc.plan, desk_catalog, master_seed=5).populations).gus
        full = engine.execute_full(doc.plan, desk_catalog).relation
        mean, variance, stderr = oracle.monte_carlo_moments(
            doc.plan, desk_catalog, gus.a, trials=50, seed=5)
        assert written == {
            "exact": None,
            "exactYVariance": cli.estimator.variance_estimate(
                list(oracle.exact_y_terms(full).values()), c_coefficients(gus), gus.a),
            "trueSum": full.total_f(),
            "monteCarlo": {"mean": mean, "variance": variance, "stderr": stderr, "trials": 50},
        }

    def test_union_over_one_table_matches_a_plain_catalog(self, desk_paths, desk_catalog,
                                                           tmp_path, monkeypatch, capsys):
        # o is looked up twice and given up at the second scan; l, never
        # scanned, is dropped before the plan runs
        text = json.dumps(_union_document(desk_paths))
        (tmp_path / "plan.json").write_text(text)
        refs, alive = self.track(monkeypatch, "union_dedup")
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5", "--explain"]) == 0
        assert alive == [{"l": False, "o": False}]
        written = json.loads(capsys.readouterr().out)
        doc = parse_plan(text)
        executed = execute(doc.plan, {"o": desk_catalog["o"]}, master_seed=5)
        normalized = normalize_plan(doc.plan, executed.populations)
        report = analyze(executed.relation, normalized.gus, quantiles=doc.quantiles)
        report["trace"] = [step.to_json_dict() for step in normalized.trace]
        assert json.dumps(written) == json.dumps(report)
        assert [step["rule"] for step in written["trace"]] == [
            "sampler_to_gus", "sampler_to_gus", "union_gus_merge"]

    def test_unscanned_table_with_a_broken_csv_exits_2_before_execution(
            self, desk_paths, tmp_path, monkeypatch, capsys):
        doc = _union_document(desk_paths)
        (tmp_path / "broken.csv").write_text("l_orderkey\n1\n")
        doc["tables"]["l"]["path"] = str(tmp_path / "broken.csv")
        (tmp_path / "plan.json").write_text(json.dumps(doc))

        def never(*args, **kwargs):
            raise AssertionError("execute ran")

        monkeypatch.setattr(cli, "execute", never)
        assert main(["estimate", str(tmp_path / "plan.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: table l: missing column(s) ")


class TestSampleAtScan:
    """Without ``--oracle``, a table whose one scan sits under a Bernoulli
    sampler is sampled as it is read, here in blocks of 16 rows, and the
    report keeps its bytes."""

    @staticmethod
    def track(monkeypatch) -> dict:
        """Whether the command hands ``ingest_csv`` a sampler, by table."""
        sampled, read = {}, cli.ingest_csv

        def ingest_tracked(path, name, *args):
            sampled[name] = args[2] is not None
            return read(path, name, *args)

        monkeypatch.setattr(cli, "ingest_csv", ingest_tracked)
        return sampled

    @staticmethod
    def plain_report(text: str, catalog: dict, seed: int, options: list) -> str:
        """The report of the plan document ``text`` run on ``catalog`` in
        process, as ``gusbox estimate`` with ``options`` writes it."""
        doc = parse_plan(text)
        executed = execute(doc.plan, catalog, master_seed=seed)
        normalized = normalize_plan(doc.plan, executed.populations)
        subsample = None
        if "--subsample" in options:
            spec = options[options.index("--subsample") + 1]
            subsample = cli._parse_subsample(spec, doc.plan, seed)
        report = analyze(executed.relation, normalized.gus, quantiles=doc.quantiles,
                         subsample=subsample)
        if "--explain" in options:
            report["trace"] = normalized.trace
        return ("".join(cli._text_lines(report)) if "text" in options
                else json.dumps(report, indent=2, default=RewriteStep.to_json_dict) + "\n")

    # --oracle reads every table whole (test_table_scanned_twice_or_under_the_oracle_...);
    # keyed has no Bernoulli sampler over a scan, so it reads every table whole too
    @pytest.mark.parametrize("fmt", sorted(f for f, options in GOLDEN_FORMATS.items()
                                           if "--oracle" not in options))
    @pytest.mark.parametrize("document", ["query1", "wor_over_select", "keyed"])
    def test_report_matches_a_plain_catalog(self, desk_paths, desk_catalog, tmp_path,
                                            monkeypatch, capsys, document, fmt):
        text = json.dumps(DOCUMENTS[document](desk_paths))
        (tmp_path / "plan.json").write_text(text)
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 16)
        sampled = self.track(monkeypatch)
        options = GOLDEN_FORMATS[fmt]
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5", *options]) == 0
        assert sampled == ({"l": False, "o": False, "c": False} if document == "keyed"
                           else {"l": True, "o": False})
        assert capsys.readouterr().out == self.plain_report(text, desk_catalog, 5, options)

    @pytest.mark.parametrize("document, options", [
        ("union", []), ("query1", ["--oracle", "--oracle-trials", "5"])])
    def test_table_scanned_twice_or_under_the_oracle_is_read_whole(
            self, desk_paths, tmp_path, monkeypatch, capsys, document, options):
        doc = (_union_document(desk_paths) if document == "union"
               else DOCUMENTS[document](desk_paths))
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        sampled = self.track(monkeypatch)
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5", *options]) == 0
        assert sampled == {"l": False, "o": False}
        assert strict_json(capsys.readouterr().out)["sampleRows"] > 0

    def test_bernoulli_sample_gets_three_positional_arguments(self, desk_paths, tmp_path,
                                                              monkeypatch):
        # perfbench/spans.py reads a sampler's p from args[1]; l is read as
        # its join runs, and the sampler still draws for all of its rows
        (tmp_path / "plan.json").write_text(json.dumps(DOCUMENTS["query1"](desk_paths)))
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 16)
        calls, sample = [], cli.samplers.bernoulli_sample

        def recorded(*args, **kwargs):
            calls.append((len(args[0]), args[1], kwargs))
            return sample(*args, **kwargs)

        monkeypatch.setattr(cli.samplers, "bernoulli_sample", recorded)
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5", "--out",
                     str(tmp_path / "out.json")]) == 0
        assert [call[0] for call in calls] == [16] * 18 + [12]  # the 300 rows of l
        assert {(p, tuple(kwargs)) for _, p, kwargs in calls} == {(0.3, ())}

    @pytest.mark.parametrize("fault", ["unparsable", "not_utf8", "duplicate_id"])
    def test_ingest_error_exits_2_before_execution(self, tmp_path, monkeypatch, capsys, fault):
        # the fault sits in the fifth block of rows
        rows = [f"{i},{i * 0.5}" for i in range(40)]
        rows[35] = {"unparsable": "35,xyz", "not_utf8": "35,\udcff",
                    "duplicate_id": "3,1.0"}[fault]
        path = tmp_path / "t.csv"
        path.write_bytes("\n".join(["k,v", *rows, ""]).encode("utf-8", "surrogateescape"))
        doc = {"tables": {"t": {"path": "t.csv", "idColumn": "k",
                                "columnTypes": {"k": "int64", "v": "float64"}}},
               "plan": {"op": "sum", "expr": "v",
                        "child": {"op": "sample", "method": {"method": "bernoulli",
                                                             "p": 0.5, "seed": 1},
                                  "child": {"op": "scan", "table": "t"}}}}
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        with pytest.raises(errors.IngestError) as whole:
            ingest_csv(path, "t", {"k": "int64", "v": "float64"}, "k")
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 8)
        sampled = self.track(monkeypatch)

        def never(*args, **kwargs):
            raise AssertionError("execute ran")

        monkeypatch.setattr(cli, "execute", never)
        assert main(["estimate", str(tmp_path / "plan.json")]) == 2
        assert sampled == {"t": True}
        assert capsys.readouterr() == ("", f"error: {whole.value}\n")


A_TYPES = {"a_id": "int64", "a_k": "int64", "a_k2": "int64", "a_j": "int64", "a_v": "float64"}
B_TYPES = {"b_id": "int64", "b_k": "int64", "b_k2": "int64", "b_w": "float64"}


def _a_rows(n: int = 100) -> list[str]:
    """Rows of table ``a``: ``a_k`` cycles through 0..16, and from row 80
    on it is a key no row of ``b`` holds."""
    return [f"{i},{i % 17 if i < 80 else 1000 + i},{i % 3},{i % 5},{i * 0.5 + 1}"
            for i in range(n)]


def _bernoulli(table: str, p: float, seed: int) -> dict:
    return {"op": "sample", "method": {"method": "bernoulli", "p": p, "seed": seed},
            "child": {"op": "scan", "table": table}}


def _scan(table: str) -> dict:
    return {"op": "scan", "table": table}


class TestReadAtJoin:
    """Without ``--oracle``, a table sampled as it is read whose scan is a
    direct input of a join with ``eq`` pairs is read as the join runs, after
    the join's other input, here in blocks of 16 rows. Of each block's
    sampled rows only those the join can pair are stored, and the report
    keeps its bytes. Every table here has at most 100 rows; the class runs
    in under a second."""

    @staticmethod
    def track(monkeypatch) -> dict:
        """For each table the command ingests: whether it gets a sampler,
        whether ``execute`` is running, and how many rows it stores (None
        when the read raises)."""
        reads, read, run, running = {}, cli.ingest_csv, cli.execute, []

        def ingest_tracked(path, name, *args):
            reads[name] = [args[2] is not None, bool(running), None]
            table = read(path, name, *args)
            reads[name][2] = len(table)
            return table

        def execute_tracked(*args, **kwargs):
            running.append(True)
            try:
                return run(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(cli, "ingest_csv", ingest_tracked)
        monkeypatch.setattr(cli, "execute", execute_tracked)
        return reads

    @staticmethod
    def write(tmp_path, tables: dict, join: dict, expr: str = "a_v*b_w") -> str:
        """A plan document over ``tables`` (name: (column types, id
        column, CSV lines)) summing ``expr`` over ``join``, written with the
        CSVs to ``tmp_path``; returns its text."""
        for name, (_, _, lines) in tables.items():
            (tmp_path / f"{name}.csv").write_bytes(
                "\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        text = json.dumps({
            "tables": {name: {"path": f"{name}.csv", "idColumn": id_column,
                              "columnTypes": types}
                       for name, (types, id_column, _) in tables.items()},
            "plan": {"op": "sum", "expr": expr, "child": join}})
        (tmp_path / "plan.json").write_text(text)
        return text

    def check(self, tmp_path, monkeypatch, capsys, text: str) -> dict:
        """Run ``gusbox estimate`` on the written document with blocks of 16
        rows, check its report against the same plan on the whole tables,
        and return what ``track`` saw."""
        doc = parse_plan(text)
        catalog = {name: ingest_csv(tmp_path / spec.path, name, spec.column_types,
                                    spec.id_column)
                   for name, spec in doc.tables.items()}
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 16)
        reads = self.track(monkeypatch)
        assert main(["estimate", str(tmp_path / "plan.json"), "--seed", "5"]) == 0
        assert capsys.readouterr().out == TestSampleAtScan.plain_report(text, catalog, 5, [])
        return reads

    TABLES = {
        "a": (A_TYPES, "a_id", ["a_id,a_k,a_k2,a_j,a_v", *_a_rows()]),
        "b": (B_TYPES, "b_id", ["b_id,b_k,b_k2,b_w"]
              + [f"{i},{(i * 3) % 40},{i % 2},{1 + i * 0.25}" for i in range(30)]),
    }
    EQ = [["a_k", "b_k"]]
    # (join, {table: (gets a sampler, read while execute runs)})
    SHAPES = {
        "left": ({"op": "join", "eq": EQ, "left": _bernoulli("a", 0.5, 1), "right": _scan("b")},
                 {"a": (True, True), "b": (False, False)}),
        "right": ({"op": "join", "eq": [["b_k", "a_k"]], "left": _scan("b"),
                   "right": _bernoulli("a", 0.5, 1)},
                  {"a": (True, True), "b": (False, False)}),
        "both": ({"op": "join", "eq": EQ, "left": _bernoulli("a", 0.5, 1),
                  "right": _bernoulli("b", 0.7, 2)},
                 {"a": (True, True), "b": (True, True)}),
        "theta_only": ({"op": "join", "left": _bernoulli("a", 0.5, 1), "right": _scan("b"),
                        "theta": [{"col": "a_k", "cmp": "=", "col2": "b_k"}]},
                       {"a": (True, False), "b": (False, False)}),
        "two_pairs": ({"op": "join", "eq": [["a_k", "b_k"], ["a_k2", "b_k2"]],
                       "left": _bernoulli("a", 0.5, 1), "right": _scan("b")},
                      {"a": (True, True), "b": (False, False)}),
        "empty_other": ({"op": "join", "eq": EQ, "left": _bernoulli("a", 0.5, 1),
                         "right": {"op": "select", "child": _scan("b"),
                                   "where": [{"col": "b_w", "cmp": "<", "value": 0.0}]}},
                        {"a": (True, True), "b": (False, False)}),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_report_matches_a_plain_catalog(self, tmp_path, monkeypatch, capsys, shape):
        join, expected = self.SHAPES[shape]
        reads = self.check(tmp_path, monkeypatch, capsys, self.write(tmp_path, self.TABLES, join))
        assert {name: tuple(seen[:2]) for name, seen in reads.items()} == expected
        if shape == "left":  # the 80 rows a_k that b holds, at p = 0.5
            assert 0 < reads["a"][2] < 60
        if shape == "empty_other":
            assert reads["a"][2] == 0

    def test_filter_loads_no_masked_arrays(self, tmp_path):
        # np.unique without return_inverse imports numpy.ma (numpy 2.4), about
        # 1.4 MB of peak RSS that no estimate needs (about 0.4 s)
        self.write(tmp_path, self.TABLES, self.SHAPES["left"][0])
        argv = ["estimate", str(tmp_path / "plan.json"), "--out", str(tmp_path / "out.json")]
        done = _python("-c", "import sys; from gusbox import cli; "
                             f"assert cli.main({argv!r}) == 0; print('numpy.ma' in sys.modules)")
        assert (done.stdout, done.stderr) == ("False\n", "")

    INT_KEYS = [0, 1, 2, 3, 5, -1, 2**53 + 1, 7]
    FLOAT_KEYS = ["-0.0", "0.0", "nan", "1.0", "2.5", "3.0", "9007199254740992.0", "1e300",
                  "-1.0"]

    @pytest.mark.parametrize("sampled", ["int", "float", "both"])
    def test_int_keys_meet_float_keys_as_python_compares_them(self, tmp_path, monkeypatch,
                                                               capsys, sampled):
        tables = {
            "i": ({"i_id": "int64", "i_k": "int64", "i_v": "float64"}, "i_id",
                  ["i_id,i_k,i_v"] + [f"{n},{self.INT_KEYS[n % 8]},{n + 1.5}"
                                      for n in range(60)]),
            "x": ({"x_id": "int64", "x_k": "float64", "x_w": "float64"}, "x_id",
                  ["x_id,x_k,x_w"] + [f"{n},{self.FLOAT_KEYS[n % 9]},{n * 0.5 + 1}"
                                      for n in range(45)]),
        }
        left = _bernoulli("i", 0.6, 1) if sampled != "float" else _scan("i")
        right = _bernoulli("x", 0.7, 2) if sampled != "int" else _scan("x")
        join = {"op": "join", "eq": [["i_k", "x_k"]], "left": left, "right": right}
        reads = self.check(tmp_path, monkeypatch, capsys,
                           self.write(tmp_path, tables, join, "i_v*x_w"))
        assert {name: tuple(seen[:2]) for name, seen in reads.items()} == {
            "i": (sampled != "float",) * 2, "x": (sampled != "int",) * 2}

    @pytest.mark.parametrize("eq", [[["s_name", "t_name"]],
                                    [["s_name", "t_name"], ["s_k", "t_k"]]],
                             ids=["string_pair", "string_then_int_pair"])
    def test_string_keys_are_not_filtered(self, tmp_path, monkeypatch, capsys, eq):
        # the filter tests the first pair with no string column: with none,
        # s stores every row its sampler keeps; with an int pair, only the
        # rows whose s_k some row of t holds
        names = ["a", "b", "zz"]
        tables = {
            "s": ({"s_id": "int64", "s_name": "string", "s_k": "int64", "s_v": "float64"},
                  "s_id", ["s_id,s_name,s_k,s_v"] + [f"{i},{names[i % 3]},{i % 20},{i + 0.5}"
                                                     for i in range(60)]),
            "t": ({"t_id": "int64", "t_name": "string", "t_k": "int64", "t_w": "float64"},
                  "t_id", ["t_id,t_name,t_k,t_w"] + [f"{i},{names[i % 2]},{i % 10},{i + 1.0}"
                                                     for i in range(30)]),
        }
        join = {"op": "join", "eq": eq, "left": _bernoulli("s", 0.5, 1), "right": _scan("t")}
        reads = self.check(tmp_path, monkeypatch, capsys,
                           self.write(tmp_path, tables, join, "s_v*t_w"))
        sampled = len(ingest_csv(tmp_path / "s.csv", "s", tables["s"][0], "s_id",
                                 cli._bernoulli_at_scan(BernoulliSpec(0.5, 1), 5)))
        assert tuple(reads["s"][:2]) == (True, True)
        if len(eq) == 1:
            assert reads["s"][2] == sampled
        else:
            assert 0 < reads["s"][2] < sampled

    @pytest.mark.parametrize("column", ["a_k", "a_j"])
    def test_late_block_fault_reads_the_table_whole(self, tmp_path, monkeypatch, capsys,
                                                    column):
        # a value past int64 in the fifth block: a is read again whole, and
        # the column lands in an object array, the join key a_k or not
        a_types, id_column, lines = self.TABLES["a"]
        lines = list(lines)
        fields = lines[71].split(",")
        fields[list(a_types).index(column)] = str(2**64)
        lines[71] = ",".join(fields)
        tables = {**self.TABLES, "a": (a_types, id_column, lines)}
        join, expected = self.SHAPES["left"]
        seen = []
        sample = cli.samplers.bernoulli_sample

        def recorded(table, *args):
            seen.append(len(table))
            return sample(table, *args)

        monkeypatch.setattr(cli.samplers, "bernoulli_sample", recorded)
        reads = self.check(tmp_path, monkeypatch, capsys, self.write(tmp_path, tables, join))
        assert {name: tuple(r[:2]) for name, r in reads.items()} == expected
        assert seen == [16] * 4 + [100] * 2  # the command's draws, then the plain run's

    def test_repeated_id_among_dropped_rows_exits_2(self, tmp_path, monkeypatch, capsys):
        # rows 85 and 95 share an id, and no row of b pairs with either
        a_types, id_column, lines = self.TABLES["a"]
        lines = list(lines)
        lines[96] = "85" + lines[96][2:]
        tables = {**self.TABLES, "a": (a_types, id_column, lines)}
        join = {**self.SHAPES["left"][0], "left": _bernoulli("a", 1.0, 1)}
        self.write(tmp_path, tables, join)
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 16)
        reads = self.track(monkeypatch)
        assert main(["estimate", str(tmp_path / "plan.json")]) == 2
        assert reads == {"a": [True, True, None], "b": [False, False, 30]}
        assert capsys.readouterr() == ("", "error: table a: duplicate row ids from 'a_id'\n")

    @pytest.mark.parametrize("fault", ["unparsable", "not_utf8"])
    def test_ingest_error_exits_2_with_the_whole_read_text(self, tmp_path, monkeypatch,
                                                           capsys, fault):
        a_types, id_column, lines = self.TABLES["a"]
        lines = list(lines)
        lines[76] = lines[76].replace(",", {"unparsable": ",xyz", "not_utf8": ",\udcff"}[fault],
                                      1)
        tables = {**self.TABLES, "a": (a_types, id_column, lines)}
        self.write(tmp_path, tables, self.SHAPES["right"][0])
        with pytest.raises(errors.IngestError) as whole:
            ingest_csv(tmp_path / "a.csv", "a", a_types, id_column)
        monkeypatch.setattr(ingest, "_ROW_BLOCK", 16)
        reads = self.track(monkeypatch)
        assert main(["estimate", str(tmp_path / "plan.json"), "--out",
                     str(tmp_path / "out.json")]) == 2
        assert reads == {"a": [True, True, None], "b": [False, False, 30]}
        assert capsys.readouterr() == ("", f"error: {whole.value}\n")
        assert not (tmp_path / "out.json").exists()

    def test_fault_in_the_other_input_is_reported_first(self, tmp_path, monkeypatch, capsys):
        # the join's other input runs before a is read, so its WOR asking for
        # more rows than b holds is the error, not a's unparsable value
        a_types, id_column, lines = self.TABLES["a"]
        lines = list(lines)
        lines[5] = lines[5].replace(",", ",xyz", 1)
        tables = {**self.TABLES, "a": (a_types, id_column, lines)}
        join = {**self.SHAPES["left"][0], "right": {
            "op": "sample", "method": {"method": "wor", "n": 31, "seed": 2},
            "child": _scan("b")}}
        self.write(tmp_path, tables, join)
        reads = self.track(monkeypatch)
        assert main(["estimate", str(tmp_path / "plan.json")]) == 2
        assert reads == {"b": [False, False, 30]}
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: plan.child.right.method: ")


def _python(*args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter, without the caller's ``OPENBLAS_NUM_THREADS``
    unless ``env`` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**environ, **env})


class TestProcess:
    """``import gusbox`` loads numpy without OpenBLAS's thread pool, an
    estimate with a row sampler loads numpy.random without OpenSSL, and
    ``python -m gusbox.cli`` runs ``cli.run``, which ends in ``os._exit``."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="threads are counted in /proc/self/task (Linux)")
    def test_import_starts_no_blas_threads(self):
        done = _python("-c", "import os, gusbox; "
                             "print(len(os.listdir('/proc/self/task')), "
                             "os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert (done.stdout, done.stderr) == ("1 None\n", "")

    def test_user_blas_setting_is_kept(self):
        done = _python("-c", "import os, gusbox; print(os.environ['OPENBLAS_NUM_THREADS'])",
                       OPENBLAS_NUM_THREADS="2")
        assert (done.stdout, done.stderr) == ("2\n", "")

    def test_cli_import_loads_no_dataclasses(self):
        # the value classes derive from model.Record: a frozen dataclass
        # costs about a millisecond of import time per class
        done = _python("-c", "import sys, gusbox.cli; print('dataclasses' in sys.modules)")
        assert (done.stdout, done.stderr) == ("False\n", "")

    @staticmethod
    def _estimate_then(tmp_path, before: str, after: str, **changes) -> subprocess.CompletedProcess:
        """A fresh interpreter that runs ``before``, estimates the tiny
        document (after ``changes``) through ``cli.main``, then runs ``after``."""
        plan = TestEstimateCommand._tiny_document(tmp_path, **changes)
        argv = ["estimate", str(plan), "--out", str(tmp_path / "out.json")]
        return _python("-c", f"import sys; {before}; from gusbox import cli; "
                             f"assert cli.main({argv!r}) == 0; {after}")

    @pytest.mark.parametrize("sampler, loaded", [
        ({"method": "bernoulli", "p": 0.5, "seed": 1}, "True False False False False"),
        ({"method": "wor", "n": 2, "seed": 1}, "True False False False False"),
        ({"method": "lineage_bernoulli", "dims": {"t": {"p": 0.5, "seed": 1}}},
         "False False False False False"),
    ])
    def test_row_sampler_loads_numpy_random_without_openssl(self, tmp_path, sampler, loaded):
        # numpy.random's bit_generator imports secrets -> hmac -> hashlib,
        # whose _hashlib loads OpenSSL; gusbox never draws from secrets
        listed = "print(*(m in sys.modules for m in ('numpy.random', '_hashlib', 'hashlib', " \
                 "'hmac', 'secrets')))"
        done = self._estimate_then(tmp_path, listed,
                                   f"{listed}; import hashlib; print('_hashlib' in sys.modules)",
                                   **{"plan.child.method": sampler})
        assert (done.stdout, done.stderr) == (
            f"False False False False False\n{loaded}\nTrue\n", "")

    def test_python_without_builtin_hashes_keeps_openssl(self, tmp_path):
        # hashlib without OpenSSL or _md5 would log "code for hash md5 was not found"
        done = self._estimate_then(tmp_path, "sys.modules['_md5'] = None",
                                   "print('_hashlib' in sys.modules, 'logging' in sys.modules)")
        assert (done.stdout, done.stderr) == ("True False\n", "")

    @pytest.mark.parametrize("first", ["hashlib", "numpy.random"])
    def test_host_import_before_an_estimate_is_kept(self, tmp_path, first):
        # gusbox then hides nothing: the host's module stays, with OpenSSL
        done = self._estimate_then(tmp_path, f"import {first}; module = sys.modules[{first!r}]",
                                   f"print(sys.modules[{first!r}] is module, "
                                   "'_hashlib' in sys.modules)")
        assert (done.stdout, done.stderr) == ("True True\n", "")

    def test_pipe_gives_the_out_file_bytes(self, plan_on_disk, tmp_path):
        cmd = ["-m", "gusbox.cli", "estimate", str(plan_on_disk), "--seed", "4", "--explain"]
        piped = _python(*cmd)
        written = _python(*cmd, "--out", str(tmp_path / "out.json"))
        assert (piped.returncode, piped.stderr, written.returncode, written.stdout) == (0, "", 0, "")
        assert piped.stdout == (tmp_path / "out.json").read_text(encoding="utf-8")

    @staticmethod
    def _chain(tmp_path, document, depth):
        """A plan file whose sum reads ``depth`` nested selects or Bernoulli
        samplers over one scan. The text is built by hand, since json.dumps
        recurses as deeply."""
        select = '{"op": "select", "where": [{"col": "v", "cmp": ">", "value": 0.0}], "child": '
        heads = ([select] * depth if document == "selects" else
                 ['{"op": "sample", "method": {"method": "bernoulli", "p": 1.0, '
                  f'"seed": {seed}}}, "child": ' for seed in range(depth)])
        doc = json.loads(TestEstimateCommand._tiny_document(tmp_path).read_text())
        doc["plan"]["child"] = None
        (tmp_path / "deep.json").write_text(json.dumps(doc).replace(
            "null", "".join(heads) + '{"op": "scan", "table": "t"}' + "}" * len(heads)))
        return tmp_path / "deep.json"

    @pytest.mark.parametrize("document", ["brackets", "selects", "samplers"])
    def test_deeply_nested_plan_exits_2(self, tmp_path, document):
        # each overflows the stack in the JSON reader, which takes more frames
        # per plan level than any later walk, and once exited 1 with a
        # RecursionError traceback. A fresh interpreter runs them at its
        # default recursion limit.
        if document == "brackets":
            plan = tmp_path / "deep.json"
            plan.write_text('{"plan": ' + "[" * 100_000 + "]" * 100_000 + "}")
        else:
            plan = self._chain(tmp_path, document, 990 if document == "selects" else 1000)
        done = _python("-m", "gusbox.cli", "estimate", str(plan))
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: the plan nests too deeply\n")

    @pytest.mark.parametrize("document, depth", [("samplers", 900), ("samplers", 950),
                                                 ("selects", 950)])
    def test_deep_plan_runs(self, tmp_path, document, depth):
        # every plan walk takes one stack frame per level: a walk that builds
        # a node's inputs in a generator or comprehension takes two, and
        # fails on these chains at the default recursion limit. execute loads
        # numpy.random before its walk: a first import at the deepest
        # sampler's frame overflowed the 950-sampler chain
        done = _python("-m", "gusbox.cli", "estimate", str(self._chain(tmp_path, document, depth)))
        assert (done.returncode, done.stderr) == (0, "")
        assert strict_json(done.stdout)["sampleRows"] > 0

    @pytest.mark.parametrize("case, code", [("report", 0), ("overflow", 2),
                                            ("not_identifiable", 3)])
    def test_exit_codes(self, plan_on_disk, tmp_path, case, code):
        plan = plan_on_disk
        if case == "overflow":
            (tmp_path / "t").mkdir()
            plan = TestEstimateCommand._tiny_document(
                tmp_path / "t", b"k,v,w\n2,1e308,1\n4,1e308,2\n6,1e200,1\n",
                **{"plan.child.method.p": 0.9})
        elif case == "not_identifiable":
            doc = json.loads(plan_on_disk.read_text())
            doc["plan"]["child"]["child"]["right"]["method"]["n"] = 1
            plan = tmp_path / "n1.json"
            plan.write_text(json.dumps(doc))
        done = _python("-m", "gusbox.cli", "estimate", str(plan), "--seed", "3")
        assert done.returncode == code
        if code == 0:
            assert done.stderr == "" and strict_json(done.stdout)["sampleRows"] > 0
        else:
            # one line: no numpy warning and no traceback
            assert done.stdout == "" and done.stderr.startswith("error: ")
            assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


class TestIndentedJson:
    """The report as written: ``json.dumps(report, indent=2)`` bytes, or its
    text rendering, encoded piece by piece."""

    @pytest.mark.parametrize("extra", [
        ["--explain"],
        ["--subsample", "l=0.5,o=0.7"],
        ["--explain", "--oracle", "--oracle-trials", "20"],
    ], ids=["explain", "subsample", "oracle"])
    def test_cli_reports(self, plan_on_disk, tmp_path, capsys, monkeypatch, extra):
        # the bytes written to stdout and to --out are the whole report's
        # json.dumps and its text rendering, the trace as its steps' documents
        reports = []
        analyze = cli.estimator.analyze

        def recorded(*args, **kwargs):
            reports.append(analyze(*args, **kwargs))  # completed by the CLI after
            return reports[-1]

        monkeypatch.setattr(cli.estimator, "analyze", recorded)
        for fmt in ("json", "text"):
            args = ["estimate", str(plan_on_disk), "--seed", "3", "--format", fmt, *extra]
            out = tmp_path / f"report.{fmt}"
            assert main(args) == 0
            piped = capsys.readouterr().out
            assert main([*args, "--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            report = reports[-1]
            assert reports[-2] == report
            expected = (json.dumps(report, indent=2, default=RewriteStep.to_json_dict) + "\n"
                        if fmt == "json"
                        else "".join(cli._text_lines(report)))
            assert piped == out.read_text(encoding="utf-8") == expected

    def test_report_is_written_without_holding_its_text(self, tmp_path, monkeypatch):
        # a fact table crossed with eleven one-row tables: four subset tables
        # of 2**12 entries each
        tables, node = {}, None
        for name in "abcdefghijkl":
            rows = "1,1.5\n2,2.5\n3,4.0\n" if node is None else "1,1.5\n"
            (tmp_path / f"{name}.csv").write_text(f"{name}_k,{name}_v\n{rows}")
            tables[name] = {"path": f"{name}.csv", "idColumn": f"{name}_k",
                            "columnTypes": {f"{name}_k": "int64", f"{name}_v": "float64"}}
            scan = {"op": "scan", "table": name}
            node = ({"op": "sample", "child": scan,
                     "method": {"method": "bernoulli", "p": 0.6, "seed": 1}}
                    if node is None else {"op": "cross", "left": node, "right": scan})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"tables": tables, "plan": {
            "op": "sum", "expr": "a_v", "child": node}}))
        analyze = cli.estimator.analyze
        at_write = []

        def analyze_then_mark(*args, **kwargs):
            report = analyze(*args, **kwargs)
            tracemalloc.reset_peak()  # from here on the CLI writes the report
            at_write.append(tracemalloc.get_traced_memory()[0])
            return report

        monkeypatch.setattr(cli.estimator, "analyze", analyze_then_mark)
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            assert main(["estimate", str(plan), "--seed", "3", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads(out.read_text())["yHat"]) == 2**12
        # what writing allocated at its peak, against the report's length
        assert peak - at_write[0] < out.stat().st_size / 2
