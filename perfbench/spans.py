"""Traced `gusbox estimate`: timing spans recorded from outside the program.

Run as a script, this installs wrappers on the module attributes that
gusbox's callers look up at call time, runs ``gusbox.cli.main`` in-process
with the remaining arguments, and writes the spans to the file named by
``--spans``. Spans stay in memory until the run ends. The report the traced
run writes must be byte-identical to an untraced run's report.

    python3 perfbench/spans.py --spans SPANS.json estimate PLAN --seed S --out OUT

After the run it measures what one wrapper costs (``wrapper_cost``).
``layer_metrics`` turns one run's spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (span name, module, attribute) for each wrapped callable; a span's layer is
# the part of its name before the first dot
WRAPPED = (
    ("cli.run_estimate", "gusbox.cli", "run_estimate"),
    ("ingest.ingest_csv", "gusbox.cli", "ingest_csv"),
    ("dsl.parse_plan", "gusbox.cli", "parse_plan"),
    ("algebra.normalize_plan", "gusbox.cli", "normalize_plan"),
    ("engine.scan", "gusbox.engine", "scan"),
    ("engine.select", "gusbox.engine", "select"),
    ("engine.join", "gusbox.engine", "join"),
    ("engine.union_dedup", "gusbox.engine", "union_dedup"),
    ("engine.bind_aggregate", "gusbox.engine", "bind_aggregate"),
    ("samplers.bernoulli_sample", "gusbox.samplers", "bernoulli_sample"),
    ("samplers.wor_sample", "gusbox.samplers", "wor_sample"),
    ("samplers.lineage_bernoulli", "gusbox.samplers", "lineage_bernoulli"),
    ("estimator.analyze", "gusbox.estimator", "analyze"),
    ("estimator.y_sample_terms", "gusbox.estimator", "y_sample_terms"),
    ("estimator.y_unbiased", "gusbox.estimator", "y_unbiased"),
    ("estimator.variance_estimate", "gusbox.estimator", "variance_estimate"),
    ("algebra.c_coefficients", "gusbox.estimator", "c_coefficients"),
)

SPAN_NAMES = tuple(name for name, _module, _attr in WRAPPED) + (
    "engine.execute", "model.sample_relation_init")


def _expected_kept(name: str, args) -> float:
    """Expected output rows of one sampler call: p*N, n, or N times the
    product of the keyed probabilities."""
    n_in = len(args[0].rows)
    if name == "samplers.bernoulli_sample":
        return args[1] * n_in
    if name == "samplers.wor_sample":
        return float(args[1])
    product = 1.0
    for p, _seed in args[1].values():
        product *= p
    return product * n_in


def _counts(name: str, args, result) -> dict:
    """Row counts recorded at a span's boundary."""
    if name == "ingest.ingest_csv":
        return {"rows": len(result)}
    if name == "engine.execute":
        return {"rows": len(result.relation)}
    if name == "engine.join":
        return {"rows_in": len(args[1].rows) + len(args[2].rows), "rows_out": len(result.rows)}
    if name.startswith("samplers."):
        return {"rows_out": len(result.rows), "expected": _expected_kept(name, args)}
    if name.startswith("engine."):
        return {"rows_out": len(result.rows)}
    if name == "model.sample_relation_init":
        return {"rows": len(args[0].rows)}
    if name == "estimator.analyze":
        return {"sample_rows": len(args[0].rows), "subsets": args[1].schema.num_subsets}
    return {}


class Tracer:
    """Records one span per wrapped call: [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []  # wrapped attributes the program no longer has
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _counts(name, args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        from gusbox import cli, engine, model

        for name, module, attr in WRAPPED:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            else:
                self.missing.append(f"{module}.{attr}")
        # the CLI and normalize_plan's deferred import must see one wrapper
        execute = self.wrap("engine.execute", engine.execute)
        engine.execute = execute
        cli.execute = execute
        model.SampleRelation.__post_init__ = self.wrap(
            "model.sample_relation_init", model.SampleRelation.__post_init__)


def wrapper_cost(calls: int = 20_000, batches: int = 5) -> float:
    """Seconds one wrapper adds to a call: the median over batches of an empty
    function called through a wrapper, minus the same function called bare."""
    def empty(*args):
        return None

    wrapped = Tracer().wrap("calibration", empty)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            empty(None)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(None)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def layer_metrics(spans: list, wrapper_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<span>_s`` is the span's self time: its duration minus the part its
    child spans cover. ``engine.execute_s``, ``estimator.analyze_s`` and
    ``cli.run_estimate_s`` are inclusive; their self times are
    ``engine.execute.self_s``, ``estimator.analyze.self_s`` and ``cli.self_s``.
    ``trace.self_sum_s`` adds up every span's self time; it equals
    ``cli.run_estimate_s`` when every span nests under the CLI's.
    ``trace.overhead_s`` is the number of spans times ``wrapper_s``, the
    cost of one wrapper measured by ``wrapper_cost``.
    """
    child_time = [0.0] * len(spans)
    for _name, parent, start, end, _c in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = dict.fromkeys(SPAN_NAMES, 0.0)
    total = {"cli.run_estimate": 0.0, "engine.execute": 0.0, "estimator.analyze": 0.0,
             "reexec": 0.0}
    rows = dict.fromkeys(("ingest", "reexec", "join_in", "join_out", "init", "sample",
                          "subsets", "kept", "expected", "produced"), 0)

    def under(i: int, ancestor: str) -> bool:
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][1]
        return False

    for i, (name, parent, start, end, c) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
        if name == "engine.execute" and under(parent, "algebra.normalize_plan"):
            total["reexec"] += end - start
            rows["reexec"] += c["rows"]
        elif name in total:
            total[name] += end - start
        if name == "ingest.ingest_csv":
            rows["ingest"] += c["rows"]
        elif name == "engine.join":
            rows["join_in"] += c["rows_in"]
            rows["join_out"] += c["rows_out"]
        elif name == "model.sample_relation_init":
            rows["init"] += c["rows"]
        elif name == "estimator.analyze":
            rows["sample"] += c["sample_rows"]
            rows["subsets"] += c["subsets"]
        elif name.startswith("samplers."):
            rows["kept"] += c["rows_out"]
            rows["expected"] += c["expected"]
        rows["produced"] += c.get("rows_out", 0)

    out = {f"{name}_s": self_time[name] for name in SPAN_NAMES}
    out.update({
        "ingest.rows": rows["ingest"],
        "algebra.normalize_plan.reexec_rows": rows["reexec"],
        "algebra.normalize_plan.reexec_s": total["reexec"],
        "engine.execute_s": total["engine.execute"],
        "engine.execute.self_s": self_time["engine.execute"],
        "engine.join.rows_in": rows["join_in"],
        "engine.join.rows_out": rows["join_out"],
        "samplers.kept_rows": rows["kept"],
        "samplers.kept_ratio": rows["kept"] / rows["expected"] if rows["expected"] else 0.0,
        "model.sample_relation_init.rows": rows["init"],
        "model.sample_relation_init.rows_per_output_row":
            rows["init"] / rows["produced"] if rows["produced"] else 0.0,
        "estimator.analyze_s": total["estimator.analyze"],
        "estimator.analyze.self_s": self_time["estimator.analyze"],
        "estimator.sample_rows": rows["sample"],
        "estimator.subsets": rows["subsets"],
        "cli.run_estimate_s": total["cli.run_estimate"],
        "cli.self_s": self_time["cli.run_estimate"],
        "trace.self_sum_s": sum(self_time.values()),
        "trace.overhead_s": len(spans) * wrapper_s,
    })
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: spans.py --spans FILE estimate PLAN [gusbox options]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    from gusbox import cli

    code = cli.main(cli_args)
    doc = {"exit": code, "spans": tracer.spans, "missing": tracer.missing,
           "wrapper_s": wrapper_cost()}
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
