"""The one walk over a plan, ``plan.fold``: every walker names a node by the
path the fold gives it, and meets a plan's faults inputs first."""

import pytest

from gusbox.algebra import normalize_plan
from gusbox.engine import execute
from gusbox.errors import ExpressionError, GusboxError, PlanError, SampleSizeError
from gusbox.oracle import (
    enumerate_exact_moments,
    enumerate_outcomes,
    inclusion_probabilities,
    monte_carlo_moments,
)
from gusbox.plan import (
    BernoulliSpec,
    Join,
    LineageBernoulliSpec,
    Sample,
    Scan,
    Select,
    SumAggregate,
    WorSpec,
    check_columns,
    strip_sampling,
    validate_plan,
)

from conftest import small_join_catalog

CATALOG = small_join_catalog()
TABLES = {name: tuple(zip(t.columns, t.column_types)) for name, t in CATALOG.items()}

WALKERS = {
    "strip_sampling": strip_sampling,
    "validate_plan": validate_plan,
    "check_columns": lambda plan: check_columns(plan, TABLES),
    "execute": lambda plan: execute(plan, CATALOG),
    "normalize_plan": normalize_plan,
    "enumerate_outcomes": lambda plan: enumerate_outcomes(plan, CATALOG, 1 << 20),
    "enumerate_exact_moments": lambda plan: enumerate_exact_moments(plan, CATALOG, 1.0),
    "monte_carlo_moments": lambda plan: monte_carlo_moments(plan, CATALOG, 1.0, 1, 0),
    "inclusion_probabilities": lambda plan: inclusion_probabilities(plan, CATALOG, 1, 0),
}


@pytest.mark.parametrize("walker", WALKERS)
def test_every_walker_names_a_node_that_is_not_one(walker):
    with pytest.raises(PlanError, match=r"^plan\.child: unsupported plan node str$"):
        WALKERS[walker](SumAggregate("l_val", "oops"))


@pytest.mark.parametrize("walker", ["strip_sampling", "validate_plan", "check_columns",
                                    "execute", "normalize_plan", "enumerate_outcomes",
                                    "inclusion_probabilities"])
def test_every_walker_rejects_a_sum_below_the_root(walker):
    # the join above resets f, so a run of this plan would total 0.0
    plan = Join(SumAggregate("l_val", Scan("l")), Scan("o"), eq=(("l_ok", "o_ok"),))
    with pytest.raises(PlanError,
                       match=r"^plan\.left: sum aggregate may appear only at the plan root$"):
        WALKERS[walker](plan)


@pytest.mark.parametrize("walker", ["execute", "inclusion_probabilities"])
@pytest.mark.parametrize("expr, message", [
    ("nope", r"^aggregate 'nope': unknown column 'nope'$"),
    ("l_val * 1e308 * 10.0",
     r"^aggregate 'l_val \* 1e308 \* 10\.0': non-finite value inf on a kept row$"),
])
def test_a_bad_aggregate_fails_every_run_of_the_sum(walker, expr, message):
    # inclusion_probabilities runs the plan as given, its sum root included
    with pytest.raises(ExpressionError, match=message):
        WALKERS[walker](SumAggregate(expr, Scan("l")))


@pytest.mark.parametrize("walker", ["validate_plan", "execute", "normalize_plan",
                                    "enumerate_outcomes"])
def test_foreign_sampler_spec_is_named(walker):
    with pytest.raises(PlanError, match=r"^plan\.method: unknown sampler spec str$"):
        WALKERS[walker](Sample("half", Scan("l")))


@pytest.mark.parametrize("walker", ["execute", "enumerate_outcomes", "enumerate_exact_moments"])
def test_oracle_and_engine_name_the_same_node(walker):
    with pytest.raises(SampleSizeError,
                       match=r"^plan\.child\.method: cannot draw 99 rows from a relation of 6$"):
        WALKERS[walker](SumAggregate("l_val", Sample(WorSpec(99, seed=1), Scan("l"))))
    with pytest.raises(PlanError, match=r"^plan\.child\.right: unknown table 'zz'$"):
        WALKERS[walker](SumAggregate("l_val", Join(Scan("l"), Scan("zz"))))


def _keyed(seed):
    return LineageBernoulliSpec.of({"l": (0.5, seed)})


# plans whose faults span two nodes: validate_plan meets the input's first
INPUTS_FIRST = {
    "nested_row_samplers": (
        Sample(BernoulliSpec(0.5, seed=1), Sample(BernoulliSpec(0.5, seed=1), Scan("l"))),
        r"^row samplers plan\.child\.method and plan\.method share seed 1: "),
    "nested_keyed_dimensions": (
        Sample(_keyed(3), Sample(_keyed(3), Join(Scan("l"), Scan("o")))),
        r"^lineage-keyed dimensions plan\.child\.method\.dims\.l and "
        r"plan\.method\.dims\.l share seed 3: "),
    "misplaced_sum_over_self_join": (
        SumAggregate("l_val", Select((), SumAggregate("l_val", Join(Scan("l"), Scan("l"))))),
        r"^plan\.child\.child\.child: join sides share base relation\(s\) \['l'\]; "
        r"self-joins are unsupported$"),
}


@pytest.mark.parametrize("case", INPUTS_FIRST)
def test_faults_are_met_inputs_first(case):
    plan, message = INPUTS_FIRST[case]
    with pytest.raises(GusboxError, match=message):
        validate_plan(plan)
