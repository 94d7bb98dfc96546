"""Command-line surface.

    gusbox estimate <plan.json> [--seed N] [--explain] [--oracle]
                    [--subsample l=0.2,o=0.3] [--format json|text] [--out FILE]
    gusbox generate --scale l=1000,o=250,c=50,p=100 --seed 7 --out DIR

Exit codes: 0 success, 2 plan/ingestion/file errors, 3 estimate not identifiable.

Without ``--oracle``, ``gusbox estimate`` samples a table while it reads it
when the plan scans that table once, directly under a Bernoulli sampler
(``_sample_at_scan``): the sampler's rows of each block of the CSV are kept
and the rest are never stored, and ``execute`` runs the plan with the
sampler replaced by its scan. Every other table is read whole. Each table
is freed after the plan's last scan of it (``_HandedOver``). With
``--oracle`` every table is read whole and kept, since the oracle runs the
plan again.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

from . import estimator, oracle, samplers
from .algebra import RewriteStep, c_coefficients, normalize_plan
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
from .plan import (
    BernoulliSpec,
    PlanNode,
    Sample,
    Scan,
    SumAggregate,
    check_seed,
    fold,
    validate_plan,
)

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


def _scan_counts(node: PlanNode, path: str, *inputs: Counter) -> Counter:
    """How many times the plan under ``node`` scans each table (a
    ``plan.fold`` visit)."""
    counts = Counter([node.table] if isinstance(node, Scan) else [])
    for scans in inputs:
        counts.update(scans)
    return counts


def _sample_at_scan(plan: PlanNode, scans: Counter) -> tuple[PlanNode, dict[str, BernoulliSpec]]:
    """``plan`` with each Bernoulli sampler over the only scan of its table
    replaced by that scan, and those samplers by table: ingestion runs them
    (``ingest_csv``'s ``sample``). A plan path changes only for such a scan."""
    pushed = {}

    def visit(n: PlanNode, path: str, *inputs: PlanNode) -> PlanNode:
        if (isinstance(n, Sample) and isinstance(n.method, BernoulliSpec)
                and isinstance(n.child, Scan) and scans[n.child.table] == 1):
            pushed[n.child.table] = n.method
            return inputs[0]
        return type(n)(**{**n.__dict__, **dict(zip(n._inputs, inputs))})

    return fold(plan, visit), pushed


def _bernoulli_at_scan(spec: BernoulliSpec, master_seed: int):
    """``ingest_csv``'s ``sample`` for a Bernoulli sampler: each sampler it
    starts draws the stream ``execute`` would give the sampler node, so the
    rows kept are the ones the node keeps."""

    def start():
        rng = samplers.generator(master_seed, spec.seed)
        return lambda table: samplers.bernoulli_sample(table, spec.p, rng)

    return start


class _HandedOver(dict):
    """Stored tables by name, each given up at the plan's last scan of it,
    so that it is freed once the operator above that scan has read it.
    ``engine.execute`` looks a table up once per scan and reads schemas
    through ``items()``; a table no scan reads is never held."""

    def __init__(self, tables: dict, scans: Counter):
        super().__init__((name, table) for name, table in tables.items() if scans[name])
        self._left = scans

    def __getitem__(self, name: str):
        self._left[name] -= 1
        return self.pop(name) if self._left[name] == 0 else super().__getitem__(name)


class _Trace(list):
    """The ``--explain`` rewrite steps: a list of ``RewriteStep`` records
    that iterates as their documents (``to_json_dict``), each built only when
    it is reached, so an encoder holds one step's document at a time. The
    text format reads the records (``records``)."""

    def __iter__(self):
        return map(RewriteStep.to_json_dict, super().__iter__())

    def records(self):
        return super().__iter__()


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


# items per piece a subset table is yielded in: small next to the table
_FLOAT_ITEMS_BLOCK = 512


def _float_items(doc: dict, separator: str) -> Iterator[str]:
    """The items of a dict of str keys and float values as ``json.dumps``
    writes them joined by ``separator``, yielded in pieces of
    ``_FLOAT_ITEMS_BLOCK`` items, each distinct value encoded once: a
    report's 4096-entry subset tables hold only tens to hundreds of
    distinct values."""
    texts = {}
    items = []
    lead = ""
    for key, value in doc.items():
        # 0.0 == -0.0, so a zero is cached under its own text; a NaN hits only
        # itself, and every NaN encodes alike
        cached = value or repr(value)
        text = texts.get(cached)
        if text is None:
            text = texts[cached] = repr(value) if math.isfinite(value) else json.dumps(value)
        items.append(encode_basestring_ascii(key) + ": " + text)
        if len(items) == _FLOAT_ITEMS_BLOCK:
            yield lead + separator.join(items)
            items.clear()
            lead = separator
    if items:
        yield lead + separator.join(items)


def indented_json(doc, newline: str = "\n") -> Iterator[str]:
    """``json.dumps(doc, indent=2)``, byte for byte, yielded in pieces, so a
    report is written as it is encoded instead of held whole.

    The standard library encodes with an indent in Python, value by value.
    Here only containers that hold other containers are walked in Python;
    a container whose values are all scalars goes to the C encoder whole,
    with the indented line break as its item separator, except a dict of str
    keys and float values (the 2**n-entry subset tables), whose distinct
    values are each encoded once (``_float_items``). ``newline`` is a line
    break plus the indent of ``doc``'s own line.
    """
    if not isinstance(doc, (dict, list, tuple)):
        yield json.dumps(doc)
        return
    brackets = "{}" if isinstance(doc, dict) else "[]"
    if not doc:
        yield brackets
        return
    inner = newline + "  "
    values = doc.values() if isinstance(doc, dict) else doc
    # a trace's values are dicts; iterating it would build every step's document
    types = {dict} if isinstance(doc, _Trace) else set(map(type, values))
    if types == {float} and isinstance(doc, dict) and set(map(type, doc)) == {str}:
        yield brackets[0] + inner
        yield from _float_items(doc, "," + inner)
    elif types <= _SCALAR_TYPES:
        yield brackets[0] + inner + json.dumps(doc, separators=("," + inner, ": "))[1:-1]
    else:
        # a one-entry dict coerces a non-string key as json.dumps does
        heads = ((json.dumps(key) if type(key) is str else json.dumps({key: 0})[1:-4]) + ": "
                 for key in doc) if isinstance(doc, dict) else itertools.repeat("")
        lead = brackets[0] + inner
        for head, value in zip(heads, values):
            yield lead + head
            yield from indented_json(value, inner)
            lead = "," + inner
    yield newline + brackets[1]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _text_lines(doc: dict) -> Iterator[str]:
    """The text rendering of a report document, one line at a time, each
    with its line break."""
    yield f"estimate        {_fmt(doc['estimate'])}\n"
    yield f"a               {_fmt(doc['a'])}\n"
    yield f"variance        {_fmt(doc['varianceHat'])}\n"
    yield f"sigma           {_fmt(math.sqrt(doc['varianceHat']))}\n"
    yield f"ci normal 95%   [{_fmt(doc['ciNormal'][0])}, {_fmt(doc['ciNormal'][1])}]\n"
    yield f"ci chebyshev    [{_fmt(doc['ciChebyshev'][0])}, {_fmt(doc['ciChebyshev'][1])}]\n"
    yield f"sample rows     {doc['sampleRows']}\n"
    for q, v in doc["quantileRequests"]:
        yield f"quantile {q:<6g} {_fmt(v)}\n"
    yield "subset          b(gus)       c            ySample      yHat\n"
    for key, b in doc["gus"]["b"].items():
        yield (f"{key or '(empty)':<15} {_fmt(b):<12} {_fmt(doc['cTable'][key]):<12} "
               f"{_fmt(doc['ySample'][key]):<12} {_fmt(doc['yHat'][key])}\n")
    if "subsample" in doc:
        yield f"subsample rows  {doc['subsample']['rows']}\n"
    for note in doc["diagnostics"]:
        yield f"note: {note}\n"
    if "trace" in doc:
        yield "rewrite trace:\n"
        for step in doc["trace"].records():
            yield f"  {step.rule}: {step.note} -> a={_fmt(step.output.a)}\n"
    if "oracle" in doc:
        oracle_doc = doc["oracle"]
        yield f"oracle truth    {_fmt(oracle_doc['trueSum'])}\n"
        exact = oracle_doc.get("exact")
        if exact:
            yield f"oracle exact    mean={_fmt(exact['mean'])} variance={_fmt(exact['variance'])}\n"
        yield f"oracle exact-y  variance={_fmt(oracle_doc['exactYVariance'])}\n"
        mc = oracle_doc["monteCarlo"]
        yield (f"oracle mc       mean={_fmt(mc['mean'])} variance={_fmt(mc['variance'])} "
               f"stderr={_fmt(mc['stderr'])} trials={mc['trials']}\n")


def run_estimate(args) -> int:
    plan_path = Path(args.plan)
    if args.oracle_trials < 1:
        raise PlanError(f"--oracle-trials {args.oracle_trials} must be >= 1")
    try:
        text = plan_path.read_text(encoding="utf-8-sig")  # a leading BOM is skipped, as in CSVs
    except (OSError, UnicodeDecodeError) as exc:
        raise PlanError(f"cannot read {plan_path}: {exc}") from None
    doc = parse_plan(text)
    if not isinstance(doc.plan, SumAggregate):
        raise PlanError("plan: estimation needs a sum aggregate at the root")
    subsample = (None if args.subsample is None
                 else _parse_subsample(args.subsample, doc.plan, args.seed))
    # the oracle re-runs the plan on the same tables, so it gets them whole
    plan, pushed = doc.plan, {}
    if not args.oracle:
        scans = fold(doc.plan, _scan_counts)
        plan, pushed = _sample_at_scan(doc.plan, scans)
        if pushed:
            samplers.load_numpy_random()
    catalog = {}
    for name, spec in doc.tables.items():
        path = Path(spec.path)
        if not path.is_absolute():
            path = plan_path.parent / path
        catalog[name] = ingest_csv(
            path, name, spec.column_types, spec.id_column,
            _bernoulli_at_scan(pushed[name], args.seed) if name in pushed else None)
    if not args.oracle:
        catalog = _HandedOver(catalog, scans)

    executed = execute(plan, catalog, master_seed=args.seed)
    normalized = normalize_plan(doc.plan, executed.populations)

    report = estimator.analyze(
        executed.relation, normalized.gus, quantiles=doc.quantiles, subsample=subsample)
    if args.explain:
        report["trace"] = _Trace(normalized.trace)

    if args.oracle:
        oracle_doc = {"exact": None, "exactYVariance": None, "monteCarlo": None}
        try:
            mean, variance = oracle.enumerate_exact_moments(
                doc.plan, catalog, normalized.gus.a)
            oracle_doc["exact"] = {"mean": mean, "variance": variance}
        except EnumerationInfeasibleError as exc:
            report["diagnostics"].append(f"exact oracle skipped: {exc}")
        # the variance formula fed with full-data terms instead of sampled
        # estimates; must agree with the enumerated variance
        full = execute_full(doc.plan, catalog)
        oracle_doc["trueSum"] = full.relation.total_f()
        oracle_doc["exactYVariance"] = estimator.variance_estimate(
            list(oracle.exact_y_terms(full.relation).values()),
            c_coefficients(normalized.gus), normalized.gus.a)
        mean, variance, stderr = oracle.monte_carlo_moments(
            doc.plan, catalog, normalized.gus.a, trials=args.oracle_trials, seed=args.seed)
        oracle_doc["monteCarlo"] = {
            "mean": mean, "variance": variance, "stderr": stderr,
            "trials": args.oracle_trials,
        }
        estimator.require_finite(oracle_doc, "the oracle's sums overflow float64", "oracle")
        report["oracle"] = oracle_doc

    # written piece by piece as it is encoded: the whole text is never held
    chunks = (itertools.chain(indented_json(report), ["\n"]) if args.format == "json"
              else _text_lines(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
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
    except RecursionError:  # the JSON reader and the plan walks recurse per level
        print("error: the plan nests too deeply", file=sys.stderr)
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
