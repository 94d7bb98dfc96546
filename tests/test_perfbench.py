"""The benchmark harness's view of gusbox: ``perfbench/spans.py`` wraps gusbox
callables and ``SampleRelation.__post_init__`` by name, and
``perfbench/worker.py`` checks a report against the oracle. Both must keep
working as the program changes, and tracing must not change a report.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import gusbox
from gusbox.cli import main

from test_golden import DOCUMENTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_matches_untraced_and_passes_the_worker_check(
        desk_paths, tmp_path, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(DOCUMENTS["keyed"](desk_paths)))
    spans, traced, untraced = tmp_path / "spans.json", tmp_path / "traced", tmp_path / "plain"
    src = str(Path(gusbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "spans.py"), "--spans", str(spans),
         "estimate", str(plan), "--seed", "5", "--out", str(traced)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    record = json.loads(spans.read_text())
    assert record["exit"] == 0 and record["missing"] == []
    assert {span[0] for span in record["spans"]} >= {
        "cli.run_estimate", "engine.execute", "model.sample_relation_init",
        "samplers.lineage_bernoulli", "estimator.analyze"}

    assert main(["estimate", str(plan), "--seed", "5", "--out", str(untraced)]) == 0
    assert traced.read_bytes() == untraced.read_bytes()

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing lands in perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("worker", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    worker = importlib.import_module("worker")
    checks = worker.check_sample(plan, traced, 5)
    assert checks and all(ok for ok, _what in checks), checks


def test_traced_sampler_at_the_scan_runs_inside_its_ingest(desk_paths, tmp_path):
    # l's Bernoulli sampler runs while l is read, as its join runs after o:
    # spans.py still finds every wrapped name, and reads each call's p from
    # its second argument
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(DOCUMENTS["query1"](desk_paths)))
    spans = tmp_path / "spans.json"
    src = str(Path(gusbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "spans.py"), "--spans", str(spans),
         "estimate", str(plan), "--seed", "5", "--out", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    record = json.loads(spans.read_text())
    assert record["exit"] == 0 and record["missing"] == []
    names = [span[0] for span in record["spans"]]
    [bernoulli] = [span for span in record["spans"] if span[0] == "samplers.bernoulli_sample"]
    assert names[bernoulli[1]] == "ingest.ingest_csv"
    assert bernoulli[4]["expected"] == 0.3 * 300
    rows = [span[4]["rows"] for span in record["spans"] if span[0] == "ingest.ingest_csv"]
    [join] = [span for span in record["spans"] if span[0] == "engine.join"]
    # all of o, then the rows of l the sampler keeps and the join pairs, one
    # per o_orderkey match
    assert rows == [75, join[4]["rows_out"]]
    assert 0 < join[4]["rows_out"] < bernoulli[4]["rows_out"]
