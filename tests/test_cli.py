"""End-user surface: data generation and the estimate command."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gusbox import PlanError, SumAggregate, cli, datagen, engine, errors, oracle
from gusbox.cli import indented_json, main
from gusbox.datagen import generate_tpch_tiny
from gusbox.ingest import ingest_csv

from conftest import LINEITEM_TYPES, ORDERS_TYPES, strict_json
from test_dsl_ingest import query1_document


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
        body = json.loads(capsys.readouterr().out)
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

        def counted(predicate, relation):
            calls.append(predicate.atoms[0].col)
            return real_select(predicate, relation)

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
    ], ids=["p_true", "p_string", "p_int_past_float", "keyed_p_true", "table_list", "path_null", "id_column_int",
            "column_type_list", "expr_int", "aggregate_zero_divisor", "id_zero_divisor",
            "aggregate_int_past_float"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, changes, message):
        # each exited 1 with a traceback, or ("p": true and "0.5") ran as a probability
        plan_path = self._tiny_document(tmp_path, **changes)
        assert main(["estimate", str(plan_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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


def _python(*args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter, without the caller's ``OPENBLAS_NUM_THREADS``
    unless ``env`` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**environ, **env})


class TestProcess:
    """``import gusbox`` loads numpy without OpenBLAS's thread pool, and
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

    def test_pipe_gives_the_out_file_bytes(self, plan_on_disk, tmp_path):
        cmd = ["-m", "gusbox.cli", "estimate", str(plan_on_disk), "--seed", "4", "--explain"]
        piped = _python(*cmd)
        written = _python(*cmd, "--out", str(tmp_path / "out.json"))
        assert (piped.returncode, piped.stderr, written.returncode, written.stdout) == (0, "", 0, "")
        assert piped.stdout == (tmp_path / "out.json").read_text(encoding="utf-8")

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


def json_scalars():
    return st.one_of(
        st.none(), st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),  # NaN, +-inf, -0.0 and subnormals included
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0**-1074 * 3,
                         2**63, -(2**63) - 1, 2**64 + 1]),
        st.text(),
        st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\u2603", "\U0001f600"]),
    )


def json_keys():
    return st.one_of(st.text(), st.sampled_from(['"q"', "a\nb", "\x7f", "\u00fc\u20ac"]),
                     st.integers(-(2**70), 2**70), st.floats(), st.booleans(), st.none())


def json_documents():
    # st.deferred instead of st.recursive, whose extend lambda hypothesis
    # flags as not recursing (HypothesisDeprecationWarning)
    documents = st.deferred(lambda: st.one_of(
        json_scalars(),
        st.lists(documents, max_size=5),
        st.lists(documents, max_size=5).map(tuple),
        st.dictionaries(json_keys(), documents, max_size=5)))
    return documents


class TestIndentedJson:
    @settings(max_examples=500, deadline=None)
    @given(json_documents())
    def test_same_bytes_as_json_dumps(self, doc):
        assert indented_json(doc) == json.dumps(doc, indent=2)

    def test_fixed_shapes(self):
        nan = math.nan
        docs = [{}, [], (), {"a": {}}, {"a": []}, [[]], [{}], {"a": [1, [], {}, {"b": None}]},
                {"t": {str(k): k / 3 for k in range(50)}, "u": [[1, 2], [3.5, "x"]]},
                {1: {"x": 1.5}, 2.5: [True], None: {}, False: [None]}, 7, "s", None,
                # an all-float table: each distinct value is encoded once
                {"t": {"a": 0.0, "b": -0.0, "c": 0.0, "d": -0.0, "e": nan, "f": nan,
                       "g": float("nan"), "h": math.inf, "i": -math.inf, "j": math.inf,
                       "k": 1.5, "l": 1.5, "\u00e9\n": -1.5, '"q"': 5e-324}}]
        for doc in docs:
            assert indented_json(doc) == json.dumps(doc, indent=2)

    def test_unserializable_values_raise_like_json_dumps(self):
        for doc in ({"a": {1, 2}}, [object()], {"a": {"b": b"x"}}, {(1, 2): 3}):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2)
            with pytest.raises(TypeError):
                indented_json(doc)

    @pytest.mark.parametrize("extra", [
        ["--explain"],
        ["--subsample", "l=0.5,o=0.7"],
        ["--explain", "--oracle", "--oracle-trials", "20"],
    ], ids=["explain", "subsample", "oracle"])
    def test_cli_reports(self, plan_on_disk, capsys, monkeypatch, extra):
        seen = []

        def checked(doc, *nested):
            text = indented_json(doc, *nested)
            if not nested:  # the whole report, not a value inside it
                assert text == json.dumps(doc, indent=2)
                seen.append(doc)
            return text

        monkeypatch.setattr(cli, "indented_json", checked)
        assert main(["estimate", str(plan_on_disk), "--seed", "3", *extra]) == 0
        assert len(seen) == 1
        assert capsys.readouterr().out == json.dumps(seen[0], indent=2) + "\n"
