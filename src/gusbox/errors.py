"""Exception hierarchy.

The CLI maps these to exit codes: plan/ingest/validation problems exit 2,
a non-identifiable estimate exits 3.
"""


class GusboxError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(GusboxError):
    """Lineage schemas, masks, or parameter tables used inconsistently."""


class SelfJoinError(SchemaError):
    """Join whose sides share a base relation; not analyzable."""


class PlanError(GusboxError):
    """Malformed or unsupported plan (parse errors, bad node placement)."""


class ExpressionError(GusboxError):
    """Invalid predicate or value expression, or a type mismatch in one."""


class IngestError(GusboxError):
    """CSV ingestion failure: missing columns, bad types, duplicate ids."""


class SampleSizeError(GusboxError):
    """Fixed-size sample larger than its input."""


class DegenerateSamplingError(GusboxError):
    """Inclusion probability a = 0; no unbiased estimate exists."""


class NotIdentifiableError(GusboxError):
    """Some pairwise inclusion probability is 0, so a variance term
    cannot be estimated from the sample (e.g. size-1 fixed samples)."""


class EnumerationInfeasibleError(GusboxError):
    """Exact enumeration would exceed the configured state budget."""
