"""Approximate sum aggregation over sampled query plans.

Execute plans whose inputs pass through randomized filters, rewrite the
sampling into a single parameter table over the relational plan, and turn
the sampled rows into an unbiased estimate with variance and confidence
intervals. Verification oracles (exact enumeration, Monte Carlo) ship in
:mod:`gusbox.oracle`.
"""

from .algebra import (
    NormalizedPlan,
    RewriteStep,
    c_coefficients,
    compact,
    gus_of_lineage_bernoulli,
    identity_gus,
    join_merge,
    normalize_plan,
    null_gus,
    row_bernoulli_gus,
    row_wor_gus,
    union_merge,
)
from .engine import ExecutionResult, execute, execute_full
from .errors import (
    DegenerateSamplingError,
    EnumerationInfeasibleError,
    ExpressionError,
    GusboxError,
    IngestError,
    NotIdentifiableError,
    PlanError,
    SampleSizeError,
    SchemaError,
    SelfJoinError,
)
from .estimator import (
    EstimateReport,
    analyze,
    confidence_interval,
    estimate_sum,
    quantile_bounds,
    variance_estimate,
    y_sample_terms,
    y_unbiased,
)
from .model import (
    GusParams,
    LineageSchema,
    Row,
    SampleRelation,
    common_lineage,
)
from .plan import (
    BernoulliSpec,
    Comparison,
    Join,
    JoinSpec,
    LineageBernoulliSpec,
    PlanNode,
    Predicate,
    Sample,
    Scan,
    Select,
    SumAggregate,
    UnionDedup,
    WorSpec,
)

__version__ = "0.1.0"
