"""Executable randomized filters.

All samplers are deterministic functions of (input, parameters, seed),
and each returns the kept rows of its columnar input in input order.
Stream-based samplers draw from a PCG64 generator: Bernoulli compares one
``rng.random(len)`` draw per row with ``p``, and WOR draws the swap
positions of all its Fisher-Yates steps with one
``rng.integers(np.arange(n), m)`` and stores only the positions those
swaps have displaced, so its state follows ``n``, not the input's ``m``.
The lineage-keyed Bernoulli derives each decision from a SplitMix-style
64-bit hash of (seed, base-tuple id), computed over the whole int64 lineage
column in wrapping uint64 arithmetic, so a base tuple receives one decision
shared across every result row that contains it. Seeds lie in ``[0, 2**64)`` and
ids in the int64 range (``plan.check_seed``, ingestion), where ``mix64`` is a
bijection: distinct seeds, and distinct ids, never alias.

``numpy.random``, which the stream-based samplers need, is loaded by
:func:`load_numpy_random` before a plan walk reaches them, and only for a
plan that has one; its ``bit_generator`` imports ``secrets``, whose
``hmac`` and ``hashlib`` load OpenSSL (about 3.5 MB resident) through
``_hashlib``. gusbox seeds every ``SeedSequence`` itself and never calls
``secrets``, so the loader keeps OpenSSL out where it can.
"""

from __future__ import annotations

import sys
from typing import Mapping

import numpy as np

from .errors import SampleSizeError, SchemaError
from .model import SampleRelation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SHIFTS = tuple(np.uint64(k) for k in (30, 27, 31))
_MULTIPLIERS = tuple(np.uint64(k) for k in (0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def mix64(x: int) -> int:
    """SplitMix64 finalizer; full avalanche on 64-bit inputs."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def keyed_unit(seed: int, key: int) -> float:
    """Deterministic pseudo-random number in [0, 1) for (seed, key)."""
    return mix64(seed * _GOLDEN + key) / 2.0**64


def derive_seed(master: int, node_seed: int) -> int:
    """Combine a run-level seed with a per-operator seed."""
    return mix64(master * _GOLDEN ^ mix64(node_seed))


# numpy.random imports secrets, which imports hmac, hashlib and _hashlib (OpenSSL)
_SECRETS_CHAIN = ("_hashlib", "hashlib", "hmac", "secrets")


def _builtin_hashes() -> bool:
    """Whether CPython's own hash modules, which ``hashlib`` uses without
    OpenSSL, are all built. Some builds (FIPS ones) leave them out, and
    ``hashlib`` then logs an error for each algorithm it cannot provide."""
    sha2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
    try:
        for name in ("_md5", "_sha1", *sha2, "_sha3", "_blake2"):
            __import__(name)
    except ImportError:
        return False
    return True


def load_numpy_random() -> None:
    """Import ``numpy.random``, which :func:`generator` needs.

    When none of ``_hashlib``, ``hashlib``, ``hmac`` and ``secrets`` is
    loaded yet, ``_hashlib`` is hidden for that one import: ``hashlib`` and
    ``hmac`` take CPython's built-in branches without OpenSSL. The modules
    imported that way are then dropped from ``sys.modules``, so a later
    ``import hashlib`` loads OpenSSL as usual. A process that loaded any of
    them first, or ``numpy.random`` itself, sees no change, nor does a
    Python built without those branches' hash modules. The hiding is
    process-wide: a thread that imports ``hashlib`` during it keeps the
    module without OpenSSL.
    """
    if "numpy.random" in sys.modules:
        return
    hide = not any(name in sys.modules for name in _SECRETS_CHAIN) and _builtin_hashes()
    if hide:
        sys.modules["_hashlib"] = None  # makes `import _hashlib` raise ImportError
    try:
        import numpy.random  # noqa: F401
    finally:
        if hide:
            for name in _SECRETS_CHAIN:
                sys.modules.pop(name, None)


def generator(master: int, node_seed: int) -> np.random.Generator:
    """PCG64 stream for one sampler invocation, keyed by both seeds; see
    :func:`load_numpy_random`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master, node_seed))))


def keyed_units(seed: int, keys: np.ndarray) -> np.ndarray:
    """:func:`keyed_unit` of every key of an int64 array, in uint64
    arithmetic that wraps as the masks in :func:`mix64` do."""
    x = keys.view(np.uint64) + np.uint64(seed * _GOLDEN & _MASK64)
    x ^= x >> _SHIFTS[0]
    x *= _MULTIPLIERS[0]
    x ^= x >> _SHIFTS[1]
    x *= _MULTIPLIERS[1]
    x ^= x >> _SHIFTS[2]
    return x / 2.0**64


def bernoulli_sample(r: SampleRelation, p: float, rng: np.random.Generator) -> SampleRelation:
    """Keep each row independently with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise SchemaError(f"Bernoulli probability {p} outside [0, 1]")
    if not len(r):
        return r
    return r.take(rng.random(len(r)) < p)


def wor_sample(r: SampleRelation, n: int, rng: np.random.Generator) -> SampleRelation:
    """Uniform fixed-size subset via a partial Fisher-Yates shuffle.

    Only the positions the shuffle has displaced are stored, so the working
    state is O(n), not O(m). The selected rows keep their input order.
    """
    m = len(r)
    if n > m:
        raise SampleSizeError(f"cannot draw {n} rows from a relation of {m}")
    moved: dict[int, int] = {}  # position -> row now there; absent: the row itself
    # step i's swap position, drawn for every step at once: the same PCG64
    # draws, in the same order, as one rng.integers(i, m) per step
    for i, j in enumerate(rng.integers(np.arange(n), m).tolist()):
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return r.take(np.sort(np.array([moved.get(i, i) for i in range(n)], dtype=np.intp)))


def lineage_bernoulli(r: SampleRelation, dims: Mapping[str, tuple[float, int]]) -> SampleRelation:
    """Keep a row iff every covered relation's base-tuple id hashes under
    its threshold. Decisions are per base tuple, not per row."""
    keep = None
    for name, (p, seed) in sorted(dims.items()):
        kept = keyed_units(seed, r.lineage[:, r.schema.index(name)]) < p
        keep = kept if keep is None else keep & kept
    return r if keep is None else r.take(keep)
