"""Cyclic gradient codes: encoding matrices and survivor-set decoding.

An encoding matrix ``B`` is n x n with row ``i`` supported on the cyclic
window of columns ``{i, ..., i+s} mod n`` (0-based).  Worker ``i`` computes
the ``B[i]``-weighted combination of the ``n`` data partitions; a parent that
hears back from any ``n - s`` workers recovers the plain sum by solving for
a combining row ``a`` with ``a @ B = 1``.

Construction: draw an ``s x n`` matrix ``H`` whose columns sum to zero
(first ``n - 1`` columns standard normal, last the negated sum).  Each row of
``B`` gets a leading 1 on its first support column and the remaining ``s``
entries from the linear system that puts the row in the null space of ``H``.
Since the all-ones vector is also in that null space, any ``n - s`` rows
almost surely span it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DECODE_TOL",
    "EncodingMatrix",
    "DecodeRow",
    "CodeConstructionError",
    "DecodeError",
    "build_encoding",
    "decode_row",
    "validate_code",
    "find_decode_failure",
]

DECODE_TOL = 1e-8
# Residuals above this (but under DECODE_TOL) suggest a poorly conditioned
# solve; warn rather than fail.
_WARN_RESIDUAL = 1e-10
_MAX_ATTEMPTS = 8
# Survivor sets per batched solve in find_decode_failure; a chunk's transient
# arrays stay near 1 MB up to n = 24.
_SWEEP_CHUNK = 256


class CodeConstructionError(RuntimeError):
    pass


class DecodeError(RuntimeError):
    def __init__(self, survivors: frozenset[int], residual: float):
        self.survivors = survivors
        self.residual = residual
        super().__init__(
            f"survivor set {sorted(survivors)} cannot recover the sum "
            f"(residual {residual:.3e} > {DECODE_TOL:.0e})"
        )


def _support(i: int, s: int, n: int) -> tuple[int, ...]:
    return tuple((i + t) % n for t in range(s + 1))


@dataclass(frozen=True)
class EncodingMatrix:
    """n x n coding matrix with cyclic row support; tolerates s stragglers."""

    n: int
    s: int
    entries: np.ndarray = field(repr=False)
    # Combining rows by survivor set, filled by the engine for the life of
    # this code; not part of equality, repr or the pickled state.
    _decode_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.s < self.n:
            raise ValueError(f"need 0 <= s < n, got n={self.n}, s={self.s}")
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.n, self.n):
            raise ValueError(f"expected shape {(self.n, self.n)}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite, got nan or inf")
        for i in range(self.n):
            outside = np.ones(self.n, dtype=bool)
            outside[list(_support(i, self.s, self.n))] = False
            if np.any(entries[i, outside] != 0.0):
                raise ValueError(f"row {i} has entries outside its cyclic support")
        object.__setattr__(self, "entries", entries)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_decode_cache": {}}

    def row_support(self, i: int) -> tuple[int, ...]:
        return _support(i, self.s, self.n)


@dataclass(frozen=True)
class DecodeRow:
    """Combining coefficients for one survivor set: zero off the set, a @ B = 1."""

    coefficients: np.ndarray = field(repr=False)
    survivor_set: frozenset[int]


def _try_build(n: int, s: int, seed: int) -> EncodingMatrix:
    rng = np.random.default_rng(seed)
    H = np.empty((s, n))
    H[:, : n - 1] = rng.standard_normal((s, n - 1))
    H[:, n - 1] = -H[:, : n - 1].sum(axis=1)
    B = np.zeros((n, n))
    for i in range(n):
        cols = _support(i, s, n)
        B[i, cols[0]] = 1.0
        x = np.linalg.solve(H[:, list(cols[1:])], -H[:, cols[0]])
        B[i, list(cols[1:])] = x
    for i in range(n):
        if np.any(B[i, list(_support(i, s, n))] == 0.0):
            # A zero inside a support window would break the equal-load
            # placement downstream; measure-zero, treat like a singular draw.
            raise np.linalg.LinAlgError("zero entry on support")
    return EncodingMatrix(n=n, s=s, entries=B)


def build_encoding(n: int, s: int, seed: int) -> EncodingMatrix:
    """Generate an encoding matrix for (n, s) from a seeded normal draw.

    Singular intermediate systems (a measure-zero event) trigger a redraw
    with seed+1; gives up after 8 attempts.
    """
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got n={n}, s={s}")
    if s == 0:
        return EncodingMatrix(n=n, s=0, entries=np.eye(n))
    for attempt in range(_MAX_ATTEMPTS):
        try:
            B = _try_build(n, s, seed + attempt)
        except np.linalg.LinAlgError:
            continue
        if validate_code(B):
            return B
    raise CodeConstructionError(
        f"no valid encoding matrix for (n={n}, s={s}) after {_MAX_ATTEMPTS} attempts"
    )


def decode_row(B: EncodingMatrix, survivors) -> DecodeRow:
    """Minimum-norm combining row over the surviving workers (0-based indices).

    Solves a @ B[survivors] = 1 and embeds the solution into length n with
    zeros elsewhere.  Raises DecodeError when the residual exceeds the decode
    tolerance, i.e. when the survivor set cannot reproduce the plain sum.
    """
    F = sorted(set(int(i) for i in survivors))
    if any(i < 0 or i >= B.n for i in F):
        raise ValueError(f"survivor indices {F} outside [0, {B.n})")
    if len(F) < B.n - B.s:
        raise ValueError(f"need at least {B.n - B.s} survivors, got {len(F)}")
    sub = B.entries[F, :]
    ones = np.ones(B.n)
    coeff, *_ = np.linalg.lstsq(sub.T, ones, rcond=None)
    residual = float(np.max(np.abs(coeff @ sub - ones)))
    if residual > DECODE_TOL:
        raise DecodeError(frozenset(F), residual)
    if residual > _WARN_RESIDUAL:
        warnings.warn(
            f"decode residual {residual:.3e} for survivors {F} passes tolerance "
            "but indicates ill-conditioning",
            stacklevel=2,
        )
    full = np.zeros(B.n)
    full[F] = coeff
    return DecodeRow(coefficients=full, survivor_set=frozenset(F))


def find_decode_failure(B: EncodingMatrix):
    """First survivor set of size n-s that cannot decode, or None if all can.

    Screens the sets in scan order, ``_SWEEP_CHUNK`` at a time.  With V an
    orthonormal basis of B's top n-s right singular vectors, one stacked
    solve of ``a @ (B_F V) = 1 @ V`` gives every set of a chunk a candidate
    row, whose residual is measured against the full ``B_F``.  A max-norm
    residual of at most ``DECODE_TOL / sqrt(n)`` bounds the 2-norm residual
    by ``DECODE_TOL``, and ``decode_row`` minimises the 2-norm, so such a set
    also passes ``decode_row``.  Every other set, and every set of a chunk
    whose solve is singular, is re-decided by ``decode_row`` in scan order,
    so the verdict and the first failure are those of a per-set sweep.

    A sweep that passes sends at most one UserWarning: when its worst
    residual is above the ill-conditioning threshold, naming the residual
    and its survivor set.
    """
    n, k = B.n, B.n - B.s
    V = np.linalg.svd(B.entries)[2][:k].T
    BV, target = B.entries @ V, V.sum(axis=0)[:, None]
    screen = DECODE_TOL / np.sqrt(n)
    worst, worst_set = 0.0, None
    sets = itertools.combinations(range(n), k)
    while chunk := list(itertools.islice(sets, _SWEEP_CHUNK)):
        F = np.array(chunk)
        rows = np.zeros((len(F), n))
        try:
            rows[np.arange(len(F))[:, None], F] = np.linalg.solve(
                np.swapaxes(BV[F], 1, 2), target
            )[..., 0]
            residual = np.abs(rows @ B.entries - 1.0).max(axis=1)
        except np.linalg.LinAlgError:
            residual = np.full(len(F), np.inf)
        for i in np.flatnonzero(~(residual <= screen)):  # NaN is flagged too
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    row = decode_row(B, chunk[i])
                except DecodeError as err:
                    return err.survivors, err.residual
            residual[i] = np.max(np.abs(row.coefficients @ B.entries - 1.0))
        i = int(np.argmax(residual))
        if residual[i] > worst:
            worst, worst_set = float(residual[i]), chunk[i]
    if worst > _WARN_RESIDUAL:
        warnings.warn(
            f"worst decode residual {worst:.3e}, for survivors {list(worst_set)}, "
            "passes tolerance but indicates ill-conditioning",
            stacklevel=2,
        )
    return None


def validate_code(B: EncodingMatrix) -> bool:
    """True iff every survivor set of size exactly n-s can recover the sum."""
    return find_decode_failure(B) is None

