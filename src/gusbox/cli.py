"""Command-line surface.

    gusbox estimate <plan.json> [--seed N] [--explain] [--oracle]
                    [--subsample l=0.2,o=0.3] [--format json|text] [--out FILE]
    gusbox generate --scale l=1000,o=250,c=50,p=100 --seed 7 --out DIR

Exit codes: 0 success, 2 plan/ingestion/file errors, 3 estimate not identifiable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import estimator, oracle, samplers
from .algebra import normalize_plan
from .dsl import parse_plan
from .engine import execute, execute_full
from .errors import (
    DegenerateSamplingError,
    EnumerationInfeasibleError,
    GusboxError,
    NotIdentifiableError,
    PlanError,
)
from .ingest import ingest_csv
from .plan import PlanNode, SumAggregate, check_seed, validate_plan

_SUBSAMPLE_SEED_SPACE = 0x5B5A11CE


def _name_values(text: str, flag: str, key: str, what: str, convert) -> dict:
    """The ``key=what`` entries of the comma-separated list ``--flag``
    takes, in sorted entry order, each value read by ``convert``. A repeated
    name is an error."""
    entries = {}
    for part in sorted(p.strip() for p in text.split(",") if p.strip()):
        if "=" not in part:
            raise PlanError(f"bad {flag} entry {part!r}; expected {key}={what}")
        name, _, value = part.partition("=")
        name = name.strip()
        if name in entries:
            raise PlanError(f"{flag} {key} {name!r} given more than once")
        try:
            entries[name] = convert(value)
        except ValueError:
            raise PlanError(f"bad {flag} {what} {value!r} for {name!r}") from None
    return entries


def _parse_subsample(text: str, plan: PlanNode,
                     master_seed: int) -> dict[str, tuple[float, int]]:
    """The ``{relation: (p, run seed)}`` keyed filter a ``--subsample`` spec
    names, checked against the plan before any data is read. The i-th entry
    in sorted order gets the seed ``_SUBSAMPLE_SEED_SPACE + i``."""
    probabilities = _name_values(text, "subsample", "relation", "probability", float)
    if not probabilities:
        raise PlanError("empty subsample spec")
    for p in probabilities.values():
        if not 0.0 <= p <= 1.0:
            raise PlanError(f"subsample probability {p} outside [0, 1]")
    seeds = {name: _SUBSAMPLE_SEED_SPACE + i for i, name in enumerate(probabilities)}
    validate_plan(plan, seeds)
    return {name: (p, samplers.derive_seed(master_seed, seeds[name]))
            for name, p in probabilities.items()}


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _float_items(doc: dict, separator: str) -> str:
    """The items of a dict of str keys and float values as ``json.dumps``
    writes them, each distinct value encoded once: a report's 4096-entry
    subset tables hold only tens to hundreds of distinct values."""
    texts = {}
    items = []
    for key, value in doc.items():
        # 0.0 == -0.0, so a zero is cached under its own text; a NaN hits only
        # itself, and every NaN encodes alike
        cached = value or repr(value)
        text = texts.get(cached)
        if text is None:
            text = texts[cached] = repr(value) if math.isfinite(value) else json.dumps(value)
        items.append(encode_basestring_ascii(key) + ": " + text)
    return separator.join(items)


def indented_json(doc, newline: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, but faster on reports.

    The standard library encodes with an indent in Python, value by value.
    Here only containers that hold other containers are walked in Python;
    a container whose values are all scalars goes to the C encoder whole,
    with the indented line break as its item separator, except a dict of str
    keys and float values (the 2**n-entry subset tables), whose distinct
    values are each encoded once (``_float_items``). ``newline`` is a line
    break plus the indent of ``doc``'s own line.
    """
    if not isinstance(doc, (dict, list, tuple)):
        return json.dumps(doc)
    brackets = "{}" if isinstance(doc, dict) else "[]"
    if not doc:
        return brackets
    inner = newline + "  "
    values = doc.values() if isinstance(doc, dict) else doc
    types = set(map(type, values))
    if types == {float} and isinstance(doc, dict) and set(map(type, doc)) == {str}:
        body = _float_items(doc, "," + inner)
    elif types <= _SCALAR_TYPES:
        body = json.dumps(doc, separators=("," + inner, ": "))[1:-1]
    elif isinstance(doc, dict):
        # a one-entry dict coerces a non-string key as json.dumps does
        body = ("," + inner).join(
            (json.dumps(key) if type(key) is str else json.dumps({key: 0})[1:-4])
            + ": " + indented_json(value, inner) for key, value in doc.items())
    else:
        body = ("," + inner).join(indented_json(value, inner) for value in doc)
    return brackets[0] + inner + body + newline + brackets[1]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _text_report(report: estimator.EstimateReport, trace, oracle_doc) -> str:
    schema = report.gus.schema
    lines = [
        f"estimate        {_fmt(report.estimate)}",
        f"a               {_fmt(report.a)}",
        f"variance        {_fmt(report.variance_hat)}",
        f"sigma           {_fmt(report.sigma_hat)}",
        f"ci normal 95%   [{_fmt(report.ci_normal[0])}, {_fmt(report.ci_normal[1])}]",
        f"ci chebyshev    [{_fmt(report.ci_chebyshev[0])}, {_fmt(report.ci_chebyshev[1])}]",
        f"sample rows     {report.sample_rows}",
    ]
    for q, v in report.quantile_requests:
        lines.append(f"quantile {q:<6g} {_fmt(v)}")
    lines.append("subset          b(gus)       c            ySample      yHat")
    for s, key in enumerate(schema.subset_keys):
        key = key or "(empty)"
        lines.append(
            f"{key:<15} {_fmt(report.gus.b[s]):<12} {_fmt(report.c_table[s]):<12} "
            f"{_fmt(report.y_sample[s]):<12} {_fmt(report.y_hat[s])}"
        )
    if report.subsample_rows is not None:
        lines.append(f"subsample rows  {report.subsample_rows}")
    for note in report.diagnostics:
        lines.append(f"note: {note}")
    if trace is not None:
        lines.append("rewrite trace:")
        for step in trace:
            lines.append(f"  {step.rule}: {step.note} -> a={_fmt(step.output.a)}")
    if oracle_doc is not None:
        lines.append(f"oracle truth    {_fmt(oracle_doc['trueSum'])}")
        exact = oracle_doc.get("exact")
        if exact:
            lines.append(
                f"oracle exact    mean={_fmt(exact['mean'])} variance={_fmt(exact['variance'])}")
        lines.append(f"oracle exact-y  variance={_fmt(oracle_doc['exactYVariance'])}")
        mc = oracle_doc["monteCarlo"]
        lines.append(
            f"oracle mc       mean={_fmt(mc['mean'])} variance={_fmt(mc['variance'])} "
            f"stderr={_fmt(mc['stderr'])} trials={mc['trials']}"
        )
    return "\n".join(lines)


def run_estimate(args) -> int:
    plan_path = Path(args.plan)
    if args.oracle_trials < 1:
        raise PlanError(f"--oracle-trials {args.oracle_trials} must be >= 1")
    try:
        text = plan_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PlanError(f"cannot read {plan_path}: {exc}") from None
    doc = parse_plan(text)
    if not isinstance(doc.plan, SumAggregate):
        raise PlanError("plan: estimation needs a sum aggregate at the root")
    subsample = _parse_subsample(args.subsample, doc.plan, args.seed) if args.subsample else None
    catalog = {}
    for name, spec in doc.tables.items():
        path = Path(spec.path)
        if not path.is_absolute():
            path = plan_path.parent / path
        catalog[name] = ingest_csv(path, name, spec.column_types, spec.id_column)

    executed = execute(doc.plan, catalog, master_seed=args.seed)
    normalized = normalize_plan(doc.plan, executed.populations)

    report = estimator.analyze(
        executed.relation, normalized.gus, quantiles=doc.quantiles, subsample=subsample)

    oracle_doc = None
    if args.oracle:
        oracle_doc = {"exact": None, "exactYVariance": None, "monteCarlo": None}
        try:
            mean, variance = oracle.enumerate_exact_moments(
                doc.plan, catalog, normalized.gus.a)
            oracle_doc["exact"] = {"mean": mean, "variance": variance}
        except EnumerationInfeasibleError as exc:
            report.diagnostics.append(f"exact oracle skipped: {exc}")
        # the variance formula fed with full-data terms instead of sampled
        # estimates; must agree with the enumerated variance
        full = execute_full(doc.plan, catalog)
        oracle_doc["trueSum"] = full.aggregate
        oracle_doc["exactYVariance"] = estimator.variance_estimate(
            oracle.exact_y_terms(full.relation),
            report.c_table, normalized.gus.a)
        mean, variance, stderr = oracle.monte_carlo_moments(
            doc.plan, catalog, normalized.gus.a, trials=args.oracle_trials, seed=args.seed)
        oracle_doc["monteCarlo"] = {
            "mean": mean, "variance": variance, "stderr": stderr,
            "trials": args.oracle_trials,
        }

    if args.format == "json":
        body = report.to_json_dict()
        if args.explain:
            body["trace"] = [step.to_json_dict() for step in normalized.trace]
        if oracle_doc is not None:
            body["oracle"] = oracle_doc
        output = indented_json(body)
    else:
        output = _text_report(
            report, normalized.trace if args.explain else None, oracle_doc)

    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
    else:
        print(output)
    return 0


def run_generate(args) -> int:
    # imported here: `estimate` never needs it, and its import builds the
    # generator's digit tables
    from . import datagen

    scale = _name_values(args.scale, "scale", "key", "count", int)
    paths = datagen.generate_tpch_tiny(scale, args.seed, args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gusbox",
        description="Estimate sum aggregates, with variance and confidence "
                    "intervals, for query plans that sample their inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run a plan document and report the estimate")
    est.add_argument("plan", help="path to the JSON plan document")
    est.add_argument("--seed", type=int, default=0, help="run seed in [0, 2**64) (default 0)")
    est.add_argument("--explain", action="store_true",
                     help="include the plan rewrite trace")
    est.add_argument("--oracle", action="store_true",
                     help="attach exact and Monte Carlo ground truth when feasible")
    est.add_argument("--oracle-trials", type=int, default=2000,
                     help="Monte Carlo trials for --oracle (default 2000)")
    est.add_argument("--subsample", metavar="SPEC",
                     help="estimate variance terms from a keyed sub-sample, "
                          "e.g. l=0.2,o=0.3")
    est.add_argument("--format", choices=("json", "text"), default="json")
    est.add_argument("--out", help="write the report here instead of stdout")
    est.set_defaults(func=run_estimate)

    gen = sub.add_parser("generate", help="write deterministic desk-scale CSVs")
    gen.add_argument("--scale", default="", help="row counts, e.g. l=1000,o=250,c=50,p=100")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=run_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_seed(args.seed)  # before any file is read
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (NotIdentifiableError, DegenerateSamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GusboxError, OSError) as exc:  # OSError: a path or stdout that cannot be used
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit; let that succeed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a scale or an input too large for this host
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    """The command's entry (``gusbox`` and ``python -m gusbox.cli``): ``main``,
    then exit without tearing the interpreter down, since the report is
    already written. ``atexit`` hooks do not run; callers that need them,
    such as tests and coverage tools, call ``main`` in-process."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
