"""Query-plan tree: relational operators with sampling operators
interspersed, plus the predicate and sampler descriptions they carry.

Plans are immutable; rewriting produces new trees. A sum aggregate may
appear once, at the root. A cross product is a :class:`Join` with no
``eq`` pairs and no ``theta`` atoms. Every walk over a plan is a :func:`fold`
over each node's declared inputs; it names nodes by their path in the plan
document (``plan.child.left``), as error prefixes and population keys do.
:func:`validate_plan` holds every structural check and :func:`check_columns`
every column check; neither reads data, so a malformed plan fails before any
table is loaded.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .errors import PlanError, SchemaError, SelfJoinError
from .model import LineageSchema, Record

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Comparison(Record):
    """One predicate atom: column vs constant, or column = column."""

    col: str
    cmp: str
    value: Union[int, float, str, None] = None
    col2: Union[str, None] = None

    def __post_init__(self):
        if self.cmp not in _CMP_OPS:
            raise PlanError(f"unknown comparison operator {self.cmp!r}")
        if (self.value is None) == (self.col2 is None):
            raise PlanError("comparison needs exactly one of a constant or a second column")
        if self.col2 is not None and self.cmp != "=":
            raise PlanError("column-to-column comparisons support '=' only")


def _is_kind(value, kind: type) -> bool:
    """The JSON-kind rule: ``float`` admits ints too, and no kind admits a bool."""
    return isinstance(value, (int, float) if kind is float else kind) and type(value) is not bool


def check_kind(value, kind: type, name: str) -> None:
    """``{name} must be a number, not true`` and the like, unless ``_is_kind``."""
    if not _is_kind(value, kind):
        what = {str: "a string", int: "an integer", float: "a number"}[kind]
        raise PlanError(f"{name} must be {what}, not {json.dumps(value, default=repr)}")


def check_seed(seed: int) -> None:
    """Seeds are ints in ``[0, 2**64)``, which the 64-bit keyed hash reads whole."""
    check_kind(seed, int, "seed")
    if not 0 <= seed < 1 << 64:
        raise PlanError(f"seed {seed} outside [0, 2**64)")


class BernoulliSpec(Record):
    p: float
    seed: int = 0

    def __post_init__(self):
        check_kind(self.p, float, "p")
        if not 0.0 <= self.p <= 1.0:
            raise PlanError(f"Bernoulli probability {self.p} outside [0, 1]")
        check_seed(self.seed)


class WorSpec(Record):
    n: int
    seed: int = 0

    def __post_init__(self):
        check_kind(self.n, int, "n")
        if self.n < 1:
            raise PlanError(f"sample size {self.n} must be >= 1")
        check_seed(self.seed)


class LineageBernoulliSpec(Record):
    """Per-relation keep probabilities decided by a keyed hash of the
    relation's base-tuple id, so a base tuple gets one decision shared by
    every result row it contributes to."""

    dims: tuple[tuple[str, float, int], ...]  # (relation, p, seed), sorted

    def __post_init__(self):
        names = [d[0] for d in self.dims]
        if names != sorted(names) or len(set(names)) != len(names):
            raise PlanError("lineage-Bernoulli dimensions must be sorted and distinct")
        for name, p, seed in self.dims:
            check_kind(p, float, "p")
            if not 0.0 <= p <= 1.0:
                raise PlanError(f"probability {p} for {name!r} outside [0, 1]")
            check_seed(seed)

    @classmethod
    def of(cls, dims: Mapping[str, tuple[float, int]]) -> "LineageBernoulliSpec":
        return cls(tuple((name, p, seed) for name, (p, seed) in sorted(dims.items())))


SamplerSpec = Union[BernoulliSpec, WorSpec, LineageBernoulliSpec]


class PlanNode(Record):
    """Base class of the plan nodes, which are immutable records."""

    __slots__ = ()
    # a node class's input fields, also its document keys and path segments;
    # not annotated, since Record makes each annotated name a field
    _inputs = None


class Scan(PlanNode):
    table: str
    _inputs = ()


class Select(PlanNode):
    """Rows of ``child`` that pass every atom of ``where`` (all if empty)."""

    where: tuple[Comparison, ...]
    child: PlanNode
    _inputs = ("child",)


class Join(PlanNode):
    """Row pairs equal on every ``eq`` (left column, right column) pair that
    pass every ``theta`` atom on the concatenated row."""

    left: PlanNode
    right: PlanNode
    eq: tuple[tuple[str, str], ...] = ()
    theta: tuple[Comparison, ...] = ()
    _inputs = ("left", "right")


class UnionDedup(PlanNode):
    left: PlanNode
    right: PlanNode
    _inputs = ("left", "right")


class Sample(PlanNode):
    method: SamplerSpec
    child: PlanNode
    _inputs = ("child",)


class SumAggregate(PlanNode):
    expr: str
    child: PlanNode
    _inputs = ("child",)


def fold(root: PlanNode, visit: Callable, path: str = "plan"):
    """``visit(node, path, *inputs)`` for ``root``, after folding each of its
    ``_inputs`` fields in order at the path ``{path}.{field}``; ``inputs``
    are those results. A value that is not a plan node, and a sum aggregate
    anywhere but the root, raise a ``PlanError`` that names its path; a
    misplaced sum is folded first, so a fault inside it is met first."""
    if not isinstance(root, PlanNode) or root._inputs is None:
        raise PlanError(f"{path}: unsupported plan node {type(root).__name__}")
    inputs = []
    for name in root._inputs:  # a comprehension would add a stack frame per plan level
        node = getattr(root, name)
        inputs.append(fold(node, visit, f"{path}.{name}"))
        if isinstance(node, SumAggregate):
            raise PlanError(f"{path}.{name}: sum aggregate may appear only at the plan root")
    return visit(root, path, *inputs)


def strip_sampling(node: PlanNode) -> PlanNode:
    """The plan with every sampling node removed; what runs on full data."""

    def visit(n: PlanNode, path: str, *inputs: PlanNode) -> PlanNode:
        if isinstance(n, Sample):
            return inputs[0]
        return type(n)(**{**n.__dict__, **dict(zip(n._inputs, inputs))})

    return fold(node, visit)


# each kind of seed validate_plan claims: what holds it, and why two of one
# kind may not share a seed
_SHARED_SEED = {
    "keyed": ("lineage-keyed dimensions",
              "keyed decisions depend only on the seed and the base-tuple id, so the two "
              "filters are not independent; give each keyed dimension its own seed"),
    "row": ("row samplers",
            "both draw the same random stream, so they are not independent; "
            "give each sampler its own seed"),
}


def validate_plan(root: PlanNode,
                  subsample: Mapping[str, int] = MappingProxyType({})) -> LineageSchema:
    """Every structural check a plan needs, in one walk that reads no data.

    A sum aggregate may appear only at the root. Join sides cover disjoint
    base relations (``SelfJoinError``); union sides cover the same ones
    (``SchemaError``) and, once sampling is stripped, compute the same
    relation, or a single parameter table could not describe the result.
    Lineage-keyed dimensions name relations of their input. A fixed-size
    (WOR) sampler may not sit above another sampler, whose output size is
    random. No two lineage-keyed dimensions anywhere in the plan share a
    seed: a keyed decision hashes only (seed, base-tuple id), so such
    dimensions make the same decisions rather than independent ones, and
    the merge rules, which assume independent filters, would give a wrong
    table. Likewise no two row samplers (Bernoulli, WOR) share a seed: a row
    sampler's stream depends only on the run seed and its own seed. A keyed
    dimension and a row sampler may share a number, since they draw from
    different generators. Seeds are compared exactly: every spec holds its
    seeds in ``[0, 2**64)``, where the keyed hash's ``mix64`` is a bijection,
    so distinct seeds never make the same decisions.

    Every error starts with the offending node's path from the root, in the
    plan document's notation (``plan.child.method.dims.r``); a shared seed
    names both nodes. Inputs are checked before their node, so of two faults
    the one nearer the leaves is named. Returns the output's lineage schema.

    ``subsample`` maps each relation of a keyed sub-sample of the plan's
    output to its seed; its relations must be in that schema, and it claims
    its seeds as keyed dimensions do. Its errors name the relation.
    """
    claimed: dict[tuple[str, int], str] = {}  # (kind, seed) -> the first path to claim it

    def claim(kind: str, seed: int, where: str) -> None:
        first = claimed.setdefault((kind, seed), where)
        if first != where:
            what, why = _SHARED_SEED[kind]
            raise PlanError(f"{what} {first} and {where} share seed {seed}: {why}")

    def visit(node: PlanNode, path: str, *inputs) -> tuple[LineageSchema, bool]:
        """The node's lineage schema, and whether its output is random."""
        if isinstance(node, Scan):
            return LineageSchema.of([node.table]), False
        if isinstance(node, (Join, UnionDedup)):
            (left, l_random), (right, r_random) = inputs
            if isinstance(node, UnionDedup):
                if left != right:
                    raise SchemaError(
                        f"{path}: union sides cover different base relations: "
                        f"{left.relations} vs {right.relations}"
                    )
                if strip_sampling(node.left) != strip_sampling(node.right):
                    raise PlanError(
                        f"{path}: union sides must compute the same relation for the "
                        "result to stay uniformly sampled; rewrite the plan so both sides "
                        "share one relational subtree"
                    )
                return left, l_random or r_random
            overlap = set(left.relations) & set(right.relations)
            if overlap:
                raise SelfJoinError(
                    f"{path}: join sides share base relation(s) {sorted(overlap)}; "
                    "self-joins are unsupported"
                )
            return LineageSchema.of(left.relations + right.relations), l_random or r_random
        if not isinstance(node, Sample):  # a select or the sum: its input's
            return inputs[0]
        method = node.method
        if isinstance(method, LineageBernoulliSpec):
            for name, _, seed in method.dims:
                claim("keyed", seed, f"{path}.method.dims.{name}")
        elif isinstance(method, (BernoulliSpec, WorSpec)):
            claim("row", method.seed, f"{path}.method")
        else:
            raise PlanError(f"{path}.method: unknown sampler spec {type(method).__name__}")
        schema, randomized = inputs[0]
        if isinstance(method, WorSpec) and randomized:
            raise PlanError(
                f"{path}: fixed-size sampling over an already randomized "
                "input is not analyzable (its population size is random)"
            )
        if isinstance(method, LineageBernoulliSpec):
            for name, _, _ in method.dims:
                if name not in schema.relations:
                    raise PlanError(
                        f"{path}.method.dims.{name}: dimension {name!r} not in "
                        f"schema {schema.relations}"
                    )
        return schema, True

    schema, _ = fold(root, visit)
    for name, seed in subsample.items():
        if name not in schema.relations:
            raise PlanError(
                f"subsample relation {name!r} is not in the plan's schema {schema.relations}")
        claim("keyed", seed, f"subsample relation {name!r}")
    return schema


def _column_type(name: str, columns: Mapping[str, str], path: str) -> str:
    if name not in columns:
        raise PlanError(f"{path}: unknown column {name!r}")
    return columns[name]


def _check_pair(left: str, right: str, left_columns: Mapping[str, str],
                right_columns: Mapping[str, str], left_path: str, right_path: str) -> None:
    """A ``col2`` atom or an ``eq`` pair: both columns exist, and both or neither are strings."""
    ltype = _column_type(left, left_columns, left_path)
    rtype = _column_type(right, right_columns, right_path)
    if (ltype == "string") != (rtype == "string"):
        raise PlanError(f"{right_path}: cannot compare {left} ({ltype}) with {right} ({rtype})")


def _check_atoms(atoms: tuple[Comparison, ...], columns: Mapping[str, str], path: str) -> None:
    for i, atom in enumerate(atoms):
        where = f"{path}[{i}]"
        if atom.col2 is not None:
            _check_pair(atom.col, atom.col2, columns, columns, f"{where}.col", f"{where}.col2")
            continue
        numeric = _column_type(atom.col, columns, f"{where}.col") != "string"
        if not _is_kind(atom.value, float if numeric else str):
            raise PlanError(f"{where}.value: cannot compare {'numeric' if numeric else 'string'} "
                            f"column with {atom.value!r}")


def check_columns(root: PlanNode,
                  tables: Mapping[str, Iterable[tuple[str, str]]]) -> dict[str, str]:
    """Every column check a plan needs, in one walk that reads no data.

    ``tables`` maps each table to its ``(column, type)`` pairs. Every scan
    names one of them; a ``where`` or ``theta`` atom names its input's
    columns, each ``eq`` side its own side's, and join sides share no name.
    An atom and an ``eq`` pair compare strings with strings and numbers with
    numbers (a bool is not a number). Each error starts with the offending
    slot's path (``plan.child.where[0].value: …``). Returns the output columns
    (name -> type) of ``root``, or of its input if ``root`` is a sum aggregate.
    """

    def visit(node: PlanNode, path: str, *inputs: dict[str, str]) -> dict[str, str]:
        if isinstance(node, Scan):
            if node.table not in tables:
                raise PlanError(f"{path}: unknown table {node.table!r}")
            return dict(tables[node.table])
        if isinstance(node, Select):
            columns = inputs[0]
            _check_atoms(node.where, columns, f"{path}.where")
            return columns
        if isinstance(node, Join):
            left, right = inputs
            shared = sorted(left.keys() & right.keys())
            if shared:
                raise PlanError(f"{path}: join sides share column names {shared}")
            for i, (lc, rc) in enumerate(node.eq):
                _check_pair(lc, rc, left, right, f"{path}.eq[{i}].left", f"{path}.eq[{i}].right")
            columns = {**left, **right}
            _check_atoms(node.theta, columns, f"{path}.theta")
            return columns
        return inputs[0]  # a union's left side's; a sampler's or the sum's input's

    return fold(root, visit)
