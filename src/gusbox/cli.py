"""Command-line surface.

    gusbox estimate <plan.json> [--seed N] [--explain] [--oracle]
                    [--subsample l=0.2,o=0.3] [--format json|text] [--out FILE]
    gusbox generate --scale l=1000,o=250,c=50,p=100 --seed 7 --out DIR

Exit codes: 0 success, 2 plan/ingestion/file errors, 3 estimate not identifiable.

Without ``--oracle``, ``gusbox estimate`` samples a table while it reads it
when the plan scans that table once, directly under a Bernoulli sampler
(``_sample_at_scan``): the sampler's rows of each block of the CSV are kept
and the rest are never stored, and ``execute`` runs the plan with the
sampler replaced by its scan. When that scan is then a direct input of a
join with ``eq`` pairs, the table is not read before ``execute``: it is
handed over as an ``engine.TableReader`` and read when the join runs, after
the join's other input, and of each block's sampled rows only those the
join can pair are kept. Every other table is read whole, before
``execute``. Each table is freed after the plan's last scan of it
(``_HandedOver``). With ``--oracle`` every table is read whole and kept,
since the oracle runs the plan again.

The report is written as it is encoded (``json.dump``, ``_text_lines``); an
``--explain`` step's document is built only when the encoder reaches it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

from . import estimator, oracle, samplers
from .algebra import RewriteStep, c_coefficients, normalize_plan
from .dsl import parse_plan
from .engine import TableReader, execute, execute_full
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
    Join,
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


def _sample_at_scan(plan: PlanNode, scans: Counter
                    ) -> tuple[PlanNode, dict[str, BernoulliSpec], set[str]]:
    """``plan`` with each Bernoulli sampler over the only scan of its table
    replaced by that scan, those samplers by table: ingestion runs them
    (``ingest_csv``'s ``sample``), and the tables of those scans that are
    then a direct input of a join with ``eq`` pairs, which ``execute`` reads
    as the join runs. A plan path changes only for such a scan."""
    pushed, at_join = {}, set()

    def visit(n: PlanNode, path: str, *inputs: PlanNode) -> PlanNode:
        if (isinstance(n, Sample) and isinstance(n.method, BernoulliSpec)
                and isinstance(n.child, Scan) and scans[n.child.table] == 1):
            pushed[n.child.table] = n.method
            return inputs[0]
        if isinstance(n, Join) and n.eq:
            at_join.update(i.table for i in inputs if isinstance(i, Scan) and i.table in pushed)
        return type(n)(**{**n.__dict__, **dict(zip(n._inputs, inputs))})

    return fold(plan, visit), pushed, at_join


def _bernoulli_at_scan(spec: BernoulliSpec, master_seed: int, partner=None):
    """``ingest_csv``'s ``sample`` for a Bernoulli sampler: each sampler it
    starts draws the stream ``execute`` would give the sampler node, so the
    rows kept are the ones the node keeps. ``partner``, a join's partner
    filter (``engine.TableReader``), then cuts them to the rows it keeps;
    the sampler still draws for every row."""

    def start():
        rng = samplers.generator(master_seed, spec.seed)
        if partner is None:
            return lambda table: samplers.bernoulli_sample(table, spec.p, rng)
        return lambda table: partner(samplers.bernoulli_sample(table, spec.p, rng))

    return start


def _ingest(path: Path, name: str, spec, bernoulli, master_seed: int, partner=None):
    """The declared table ``name``, sampled as it is read when ``bernoulli``
    is its pushed sampler, and then cut by a join's ``partner`` filter."""
    return ingest_csv(path, name, spec.column_types, spec.id_column,
                      None if bernoulli is None
                      else _bernoulli_at_scan(bernoulli, master_seed, partner))


class _HandedOver(dict):
    """Stored tables by name, each given up at the plan's last scan of it,
    so that it is freed once the operator above that scan has read it, as
    ``engine.execute``'s catalog rule allows. A table no scan reads is never
    held."""

    def __init__(self, tables: dict, scans: Counter):
        super().__init__((name, table) for name, table in tables.items() if scans[name])
        self._left = scans

    def __getitem__(self, name: str):
        self._left[name] -= 1
        return self.pop(name) if self._left[name] == 0 else super().__getitem__(name)


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
        for step in doc["trace"]:
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
    plan, pushed, at_join = doc.plan, {}, set()
    if not args.oracle:
        scans = fold(doc.plan, _scan_counts)
        plan, pushed, at_join = _sample_at_scan(doc.plan, scans)
        if pushed:
            samplers.load_numpy_random()
    catalog = {}
    for name, spec in doc.tables.items():
        path = Path(spec.path)
        if not path.is_absolute():
            path = plan_path.parent / path
        read = functools.partial(_ingest, path, name, spec, pushed.get(name), args.seed)
        catalog[name] = (TableReader(tuple(c for c, _ in spec.column_types),
                                     tuple(t for _, t in spec.column_types), read)
                         if name in at_join else read())
    if not args.oracle:
        catalog = _HandedOver(catalog, scans)

    executed = execute(plan, catalog, master_seed=args.seed)
    normalized = normalize_plan(doc.plan, executed.populations)

    report = estimator.analyze(
        executed.relation, normalized.gus, quantiles=doc.quantiles, subsample=subsample)
    if args.explain:
        report["trace"] = normalized.trace

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
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
            json.dump(report, out, indent=2, default=RewriteStep.to_json_dict)
            out.write("\n")
        else:
            out.writelines(_text_lines(report))
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
