"""Cyclic gradient codes: encoding matrices and survivor-set decoding.

An encoding matrix ``B`` is n x n with row ``i`` supported on the cyclic
window of columns ``{i, ..., i+s} mod n`` (0-based).  Worker ``i`` computes
the ``B[i]``-weighted combination of the ``n`` data partitions; a parent that
hears back from any ``n - s`` workers recovers the plain sum by solving for
a combining row ``a`` with ``a @ B = 1``.

Construction: each row of ``B`` gets a leading 1 on its first support column
and the remaining ``s`` entries from the linear system that puts the row in
the null space of an ``s x n`` matrix ``H`` with ``H @ 1 = 0``.  The rows
exist when any ``s`` columns of ``H`` are independent, and the code is MDS
(any ``n - s`` rows span the null space, so their span holds the all-ones
vector) when no ``n - s`` rows are dependent.  ``H`` depends on (n, s):

- s >= 1 and n + s odd: the cos/sin rows of the DFT at the s consecutive
  frequencies centred on n/2, a set closed under conjugation that misses 0;
  at frequency n/2 the row is cos(pi j).  By the BCH bound any s columns are
  independent.  The null space is shift-invariant, so row 0 is solved and
  row i is row 0 rolled by i: B is circulant bit for bit, the cyclic MDS
  code of Raviv, Tamo, Tandon and Dimakis.  A dependency c @ B = 0 has its
  spectrum on the s frequencies only, so it vanishes on the n - s
  consecutive others and, by the BCH bound again, has at least n - s + 1
  nonzeros: no n - s rows are dependent.
- s = 1 and n odd: H = (1, ..., 1, -(n - 1)).  The one dependency among the
  n rows is c = (1, ..., 1, -1/(n - 1)), which has no zero, so no n - 1 rows
  are dependent.
- n + s even and s >= 2, where no real DFT code of this shape exists:
  Tandon et al.'s seeded draw, the first n - 1 columns standard normal and
  the last their negated sum, which is MDS almost surely.

Every code is validated over all its survivor sets before it is returned.
A seed-free code (s = 0, n + s odd, or s = 1 with n odd) is built and
validated once per process; each build wraps its read-only entries in a new
``EncodingMatrix``, so every caller's decode cache is its own.
``worst_condition`` reads their worst condition number on request, never in
the build, over the validation's chunks: one set per orbit when circulant.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

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
    "worst_condition",
]

DECODE_TOL = 1e-8
# Residuals above this (but under DECODE_TOL) suggest a poorly conditioned
# solve; warn rather than fail.
_WARN_RESIDUAL = 1e-10
_MAX_ATTEMPTS = 8
# Survivor sets per chunk of a sweep (one batched solve or SVD); a chunk's
# transient arrays stay near 1 MB up to n = 24.
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
        # column j lies outside row i's window when (j - i) mod n > s
        offending = np.flatnonzero(((entries != 0.0) & (_rolls(self.n) > self.s)).any(axis=1))
        if offending.size:
            raise ValueError(f"row {offending[0]} has entries outside its cyclic support")
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


def _rolls(n: int) -> np.ndarray:
    """Index matrix with ``row0[_rolls(n)][i] == np.roll(row0, i)``."""
    return (np.arange(n)[None, :] - np.arange(n)[:, None]) % n


def _is_circulant(entries: np.ndarray) -> bool:
    """True iff every row is row 0 rolled, bit for bit."""
    return bool(np.array_equal(entries, entries[0][_rolls(len(entries))]))


def _from_parity(H: np.ndarray, circulant: bool) -> EncodingMatrix:
    """The code whose rows lie in the null space of the s x n matrix ``H``.

    Row i has a leading 1 on column i and the s solved entries that put it
    in the null space on the rest of its window.  A circulant code solves
    row 0 only and rolls it.  A zero inside a support window would break
    the equal-load placement downstream, so it raises ``LinAlgError`` like
    a singular solve.
    """
    s, n = H.shape
    B = np.zeros((n, n))
    for i in range(1 if circulant else n):
        cols = list(_support(i, s, n))
        B[i, cols[0]] = 1.0
        B[i, cols[1:]] = np.linalg.solve(H[:, cols[1:]], -H[:, cols[0]])
    if circulant:
        B = B[0][_rolls(n)]
    for i in range(n):
        if np.any(B[i, list(_support(i, s, n))] == 0.0):
            raise np.linalg.LinAlgError("zero entry on support")
    return EncodingMatrix(n=n, s=s, entries=B)


def _try_build(n: int, s: int, seed: int) -> EncodingMatrix:
    """Tandon et al.'s code: H's first n - 1 columns standard normal, its
    last the negated sum, so its columns sum to zero."""
    rng = np.random.default_rng(seed)
    H = np.empty((s, n))
    H[:, : n - 1] = rng.standard_normal((s, n - 1))
    H[:, n - 1] = -H[:, : n - 1].sum(axis=1)
    return _from_parity(H, circulant=False)


def _deterministic_build(n: int, s: int) -> EncodingMatrix:
    """The seed-free code for s >= 1 with n + s odd (circulant DFT) or
    s = 1 with n odd (H = (1, ..., 1, -(n - 1)))."""
    if (n + s) % 2 == 0:
        H = np.ones((1, n))
        H[0, -1] = 1.0 - n
        return _from_parity(H, circulant=False)
    j = np.arange(n)
    rows = []
    for f in range((n - s + 1) // 2, (n + 1) // 2):  # the frequencies below n/2
        rows += [np.cos(2 * np.pi * f * j / n), np.sin(2 * np.pi * f * j / n)]
    if n % 2 == 0:
        rows.append((-1.0) ** j)  # frequency n/2: cos(pi j)
    return _from_parity(np.array(rows), circulant=True)


@lru_cache(maxsize=None)
def _seed_free_entries(n: int, s: int) -> np.ndarray | None:
    """The read-only entries of the validated seed-free (n, s) code, built
    once per process, or None when it fails its zero-on-support check or
    its validation; a code too large to validate raises
    ``CodeConstructionError``."""
    if s == 0:
        entries = np.eye(n)
    else:
        try:
            B = _deterministic_build(n, s)
        except np.linalg.LinAlgError:
            return None
        if not validate_code(B):
            return None
        entries = B.entries
    entries.setflags(write=False)
    return entries


def build_encoding(n: int, s: int, seed: int) -> EncodingMatrix:
    """A validated encoding matrix for (n, s).

    - s = 0: the identity.
    - s >= 1 and n + s odd: the circulant DFT code, seed-free.
    - s = 1 and n odd: the code of H = (1, ..., 1, -(n - 1)), seed-free.
    - n + s even and s >= 2: the seeded Gaussian code; a singular draw or
      one that fails validation is redrawn with seed+1, and the build gives
      up with ``CodeConstructionError`` after 8 attempts.

    ``seed`` is ignored unless the code is the seeded one, or a seed-free
    code fails its zero-on-support check or its validation and the build
    falls back to the seeded draws (no seed-free code with n <= 22 does).
    A circulant code whose one-set-per-orbit sweep needs a table larger
    than numpy can allocate, such as (156, 13), raises
    ``CodeConstructionError`` before the sweep allocates it.

    A seed-free code is built and validated on its first build in the
    process only; every build returns a new ``EncodingMatrix`` over the
    same read-only entries, with an empty decode cache.  Seeded codes are
    drawn and validated on every build.
    """
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got n={n}, s={s}")
    if s == 0 or (n + s) % 2 or s == 1:
        entries = _seed_free_entries(n, s)
        if entries is not None:
            return EncodingMatrix(n=n, s=s, entries=entries)
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


def _orbit_representatives(n: int, s: int) -> list[tuple[int, ...]]:
    """One survivor set per rotation orbit, by straggler set.

    The representative's straggler s-subset has the least bitmask over its
    n rotations.  That rotation holds straggler 0 (rolling a set without 0
    down by one halves its mask), so only the sets with 0 are candidates.
    The representatives come in the scan order of their straggler sets.
    A candidate table larger than numpy can address raises
    ``CodeConstructionError`` before any allocation; a ``MemoryError``
    while the table is built raises it too.
    """
    if s == 0:
        return [tuple(range(n))]
    rest = itertools.chain.from_iterable(itertools.combinations(range(1, n), s - 1))
    count = comb(n - 1, s - 1)
    too_large = (
        f"cannot validate a code for (n={n}, s={s}): its {comb(n, s):,} survivor sets "
        f"need a table of {count:,} x {s} indices, more than"
    )
    if count * s > np.iinfo(np.intp).max // np.dtype(int).itemsize:
        raise CodeConstructionError(f"{too_large} numpy can address")
    try:
        stragglers = np.zeros((count, s), dtype=int)
        stragglers[:, 1:] = np.fromiter(rest, dtype=int).reshape(count, s - 1)
        bits = stragglers.astype(object) if n >= 63 else stragglers  # int64 masks hold 62 bits
        masks = least = (1 << bits).sum(axis=1)
        for r in range(1, n):
            least = np.minimum(least, ((masks << r) | (masks >> (n - r))) & ((1 << n) - 1))
        keep = stragglers[masks == least]
        alive = np.ones((len(keep), n), dtype=bool)
        alive[np.arange(len(keep))[:, None], keep] = False
        return list(map(tuple, np.nonzero(alive)[1].reshape(len(keep), n - s).tolist()))
    except MemoryError:
        raise CodeConstructionError(f"{too_large} this host can allocate") from None


def _sweep_chunks(n: int, s: int, circulant: bool):
    """The survivor sets that stand for a code, ``_SWEEP_CHUNK`` at a time in
    scan order: one per rotation orbit if it is circulant, else all."""
    if circulant:
        sets = iter(_orbit_representatives(n, s))
    else:
        sets = itertools.combinations(range(n), n - s)
    while chunk := list(itertools.islice(sets, _SWEEP_CHUNK)):
        yield chunk


def _orbit(F: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    return {tuple(sorted((f + r) % n for f in F)) for r in range(n)}


def _decided_residual(B: EncodingMatrix, F) -> float:
    """decode_row's verdict on F, its warning silenced: the max-norm
    residual of its row, or DecodeError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        row = decode_row(B, F)
    return float(np.max(np.abs(row.coefficients @ B.entries - 1.0)))


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

    When B is circulant bit for bit, row i is row 0 rolled by i, so
    ``B_{F+r}`` is ``B_F`` with its columns rolled by r: the set F + r
    decodes with F's row rolled by r, to the same residual.  The screen then
    runs on one set per rotation orbit (776 of the 15,504 sets at (20, 5)),
    and a representative it flags has its whole orbit re-decided by
    ``decode_row``, merged with the other flagged orbits in scan order, so
    the verdict and the first failure are again those of a per-set sweep.

    A sweep that passes sends at most one UserWarning: when its worst
    residual is above the ill-conditioning threshold, naming the residual
    and its survivor set.
    """
    n, k = B.n, B.n - B.s
    circulant = _is_circulant(B.entries)
    V = np.linalg.svd(B.entries)[2][:k].T
    BV, target = B.entries @ V, V.sum(axis=0)[:, None]
    screen = DECODE_TOL / np.sqrt(n)
    worst, worst_set = 0.0, None
    flagged = []  # survivor sets left to decode_row, circulant codes only
    for chunk in _sweep_chunks(n, B.s, circulant):
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
            if circulant:  # decided below, with its whole orbit
                flagged += _orbit(chunk[i], n)
                residual[i] = 0.0
                continue
            try:
                residual[i] = _decided_residual(B, chunk[i])
            except DecodeError as err:
                return err.survivors, err.residual
        i = int(np.argmax(residual))
        if residual[i] > worst:
            worst, worst_set = float(residual[i]), chunk[i]
    for F in sorted(flagged):
        try:
            residual = _decided_residual(B, F)
        except DecodeError as err:
            return err.survivors, err.residual
        if residual > worst:
            worst, worst_set = residual, F
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


def worst_condition(B: EncodingMatrix) -> float:
    """Largest 2-norm condition number of B_F over the survivor sets F of
    size n-s.  For a circulant code ``B_{F+r}`` is ``B_F`` with its columns
    rolled, so one set per orbit gives the whole orbit's singular values."""
    chunks = _sweep_chunks(B.n, B.s, _is_circulant(B.entries))
    return max(float(np.linalg.cond(B.entries[np.array(c)]).max()) for c in chunks)
