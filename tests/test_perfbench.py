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
