"""Approximate sum aggregation over sampled query plans.

Execute plans whose inputs pass through randomized filters, rewrite the
sampling into a single parameter table over the relational plan, and turn
the sampled rows into an unbiased estimate with variance and confidence
intervals. Verification oracles (exact enumeration, Monte Carlo) ship in
:mod:`gusbox.oracle`.

gusbox never calls BLAS, so when it is the first to import numpy it loads
numpy with ``OPENBLAS_NUM_THREADS=1``: OpenBLAS then starts no thread pool,
which would cost a thread per core at import. The variable is removed again
once numpy is loaded, so child processes do not inherit it, and a value set
by the user is left as it is. A host program that wants multi-threaded BLAS
imports numpy before gusbox, or sets the variable itself.
"""

import os as _os
import sys as _sys

_ONE_BLAS_THREAD = "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ
if _ONE_BLAS_THREAD:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401  (OpenBLAS reads the variable as it loads)
finally:
    if _ONE_BLAS_THREAD:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
    NumericOverflowError,
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
