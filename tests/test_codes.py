import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import codedreduce.codes as codes
from codedreduce import engine
from codedreduce.codes import (
    CodeConstructionError,
    DecodeError,
    EncodingMatrix,
    build_encoding,
    decode_row,
    find_decode_failure,
    validate_code,
    worst_condition,
)
from codedreduce.topology import build_tree


def test_reference_decode_rows_match_known_solutions(reference_b):
    # |F| = n - s makes the solution unique, so coefficients are pinned.
    for survivors, expected in [
        ((1, 2), [0.0, 1.0, 2.0]),
        ((0, 2), [1.0, 0.0, 1.0]),
        ((0, 1), [2.0, -1.0, 0.0]),
    ]:
        row = decode_row(reference_b, survivors)
        np.testing.assert_allclose(row.coefficients, expected, atol=1e-9)
        np.testing.assert_allclose(
            row.coefficients @ reference_b.entries, np.ones(3), atol=1e-9
        )
        assert row.survivor_set == frozenset(survivors)


def test_identity_code_decodes_with_all_workers():
    B = build_encoding(3, 0, seed=0)
    np.testing.assert_array_equal(B.entries, np.eye(3))
    row = decode_row(B, [0, 1, 2])
    np.testing.assert_allclose(row.coefficients, np.ones(3), atol=1e-12)


def test_validate_reference_code(reference_b):
    assert validate_code(reference_b)


def test_identity_claimed_with_tolerance_is_invalid():
    fake = EncodingMatrix(n=3, s=1, entries=np.eye(3))
    assert not validate_code(fake)
    failure = find_decode_failure(fake)
    assert failure is not None
    survivors, residual = failure
    assert survivors == frozenset({0, 1})  # first failing set in scan order
    assert residual > codes.DECODE_TOL
    # survivors {1, 2} cannot produce the partition-0 coefficient either
    with pytest.raises(DecodeError):
        decode_row(fake, [1, 2])


def test_decode_error_names_offending_set():
    fake = EncodingMatrix(n=3, s=1, entries=np.eye(3))
    with pytest.raises(DecodeError) as err:
        decode_row(fake, [1, 2])
    assert err.value.survivors == frozenset({1, 2})


def test_construction_support_pattern():
    B = build_encoding(3, 1, seed=7)
    nonzero = {(i, j) for i in range(3) for j in range(3) if B.entries[i, j] != 0}
    assert nonzero == {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)}
    assert validate_code(B)


@pytest.mark.parametrize("n,s", [(4, 1), (5, 2), (8, 3), (12, 3)])
def test_generated_codes_decode_every_survivor_set(n, s):
    B = build_encoding(n, s, seed=3)
    for F in itertools.combinations(range(n), n - s):
        row = decode_row(B, F)
        resid = np.max(np.abs(row.coefficients @ B.entries - 1.0))
        assert resid <= 1e-8
        assert np.all(row.coefficients[[i for i in range(n) if i not in F]] == 0)


@pytest.mark.parametrize("n,s", [(4, 1), (6, 2), (9, 4)])
def test_column_redundancy_is_s_plus_1(n, s):
    B = build_encoding(n, s, seed=11)
    counts = (B.entries != 0).sum(axis=0)
    assert np.all(counts == s + 1)


def test_oversized_survivor_set_uses_min_norm_solution(reference_b):
    row = decode_row(reference_b, [0, 1, 2])
    np.testing.assert_allclose(
        row.coefficients @ reference_b.entries, np.ones(3), atol=1e-9
    )
    unique = decode_row(reference_b, [0, 1])
    assert np.linalg.norm(row.coefficients) <= np.linalg.norm(unique.coefficients) + 1e-12


def test_decode_is_deterministic(reference_b):
    a = decode_row(reference_b, [0, 2]).coefficients
    b = decode_row(reference_b, [0, 2]).coefficients
    np.testing.assert_array_equal(a, b)


def test_build_is_deterministic():
    np.testing.assert_array_equal(
        build_encoding(7, 2, seed=19).entries, build_encoding(7, 2, seed=19).entries
    )


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_encoding(3, 3, seed=0)
    with pytest.raises(ValueError):
        decode_row(build_encoding(4, 1, seed=0), [0, 1, 2, 9])
    with pytest.raises(ValueError):
        decode_row(build_encoding(4, 1, seed=0), [0, 1])  # below n - s
    with pytest.raises(ValueError, match=re.escape("need 0 <= s < n, got n=3, s=3")):
        EncodingMatrix(n=3, s=3, entries=np.eye(3))
    with pytest.raises(ValueError, match=re.escape("expected shape (3, 3), got (2, 2)")):
        EncodingMatrix(n=3, s=1, entries=np.eye(2))


def test_support_violation_rejected_by_constructor():
    dense = np.ones((3, 3))
    with pytest.raises(ValueError, match="support"):
        EncodingMatrix(n=3, s=1, entries=dense)


@pytest.mark.parametrize("n", range(1, 7))
def test_support_check_names_the_first_row_the_per_row_loop_names(n):
    """Every window entry set, wrapped windows included, is accepted; one
    entry outside a window is refused, naming the first such row as a
    per-row loop over `_support` would."""
    for s in range(n):
        full = np.zeros((n, n))
        for i in range(n):
            full[i, list(codes._support(i, s, n))] = 1.0
        EncodingMatrix(n=n, s=s, entries=full)
        for i, j in zip(*np.nonzero(full == 0.0)):
            entries = full.copy()
            entries[i, j] = entries[n - 1, (n - 1 + s + 1) % n] = 2.0
            outside = [np.delete(entries[r], list(codes._support(r, s, n))) for r in range(n)]
            first = next(r for r in range(n) if np.any(outside[r] != 0.0))
            with pytest.raises(ValueError, match=f"^row {first} has entries outside"):
                EncodingMatrix(n=n, s=s, entries=entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected_by_constructor(reference_b, bad):
    """A nan or inf on row 0's support would reach LAPACK in decode_row and
    validate_code; the constructor refuses it."""
    entries = reference_b.entries.copy()
    entries[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        EncodingMatrix(n=3, s=1, entries=entries)


def test_gives_up_after_eight_attempts(monkeypatch):
    calls = []

    def always_singular(n, s, seed):
        calls.append(seed)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(codes, "_try_build", always_singular)
    with pytest.raises(CodeConstructionError):
        build_encoding(6, 2, seed=100)
    assert calls == [100 + k for k in range(8)]


def _reference_failure(B):
    """The per-set sweep: decode_row on every survivor set in scan order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for F in itertools.combinations(range(B.n), B.n - B.s):
            try:
                decode_row(B, F)
            except DecodeError as err:
                return err.survivors, err.residual
    return None


def _reference_condition(B):
    """The worst condition number over every survivor set, in one array."""
    survivor_sets = np.array(list(itertools.combinations(range(B.n), B.n - B.s)))
    return float(np.linalg.cond(B.entries[survivor_sets]).max())


def _assert_sweeps_match(B):
    """The chunked sweeps agree with the per-set ones: the same first failure
    and, for a valid code, the same worst condition number."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        failure = find_decode_failure(B)
    assert failure == _reference_failure(B)
    if failure is None:
        np.testing.assert_allclose(worst_condition(B), _reference_condition(B), rtol=1e-12)


def _sweep_case(kind, n, s, seed):
    """A code the sweeps must agree on; "built" and "dft" come from construction."""
    rng = np.random.default_rng(seed)
    if kind in ("dft", "circulant"):
        if s == 0 or (n + s) % 2 == 0:
            s = s - 1 if s >= 2 else s + 1  # an (n, s) with a seed-free code
        B = codes._deterministic_build(n, s)
        if kind == "dft":
            return B
        # A random row 0 on the cyclic support, 1e-10 to 1e-6 from the DFT code's,
        # rolled exactly: some orbits pass the screen, some are flagged and
        # pass decode_row, some fail.
        row = B.entries[0].copy()
        nudge = 10 ** rng.uniform(-10, -6) * rng.standard_normal(s + 1)
        row[list(codes._support(0, s, n))] += nudge
        return EncodingMatrix(n=n, s=s, entries=row[codes._rolls(n)])
    if kind == "identity":
        return EncodingMatrix(n=n, s=1, entries=np.eye(n))
    if kind == "random":
        support = np.zeros((n, n), dtype=bool)
        for i in range(n):
            support[i, list(codes._support(i, s, n))] = True
        entries = np.where(support, rng.standard_normal((n, n)), 0.0)
        return EncodingMatrix(n=n, s=s, entries=entries)
    entries = codes._try_build(n, s, seed).entries.copy()
    r = int(rng.integers(n))
    if kind == "perturbed":
        # Nudges of 1e-10 to 1e-6 put some sets holding row r near DECODE_TOL:
        # some pass the screen, some are flagged and pass decode_row, some fail.
        window = list(codes._support(r, s, n))
        entries[r, window] += 10 ** rng.uniform(-10, -6) * rng.standard_normal(len(window))
    elif kind == "equal_rows":
        # Rows r and r+1 share the s columns of their overlapping windows.
        shared = [(r + 1 + t) % n for t in range(s)]
        entries[[r, (r + 1) % n]] = 0.0
        entries[np.ix_([r, (r + 1) % n], shared)] = rng.standard_normal(s)
    return EncodingMatrix(n=n, s=s, entries=entries)


@st.composite
def _sweep_cases(draw):
    kind = draw(
        st.sampled_from(
            ["built", "random", "perturbed", "identity", "equal_rows", "dft", "circulant"]
        )
    )
    n = draw(st.integers(2, 12))
    s = draw(st.integers(0, n - 1))
    return kind, n, s, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_sweep_cases())
@example(case=("identity", 3, 1, 0))
@example(case=("equal_rows", 8, 2, 0))
@example(case=("perturbed", 12, 5, 1))
@example(case=("built", 12, 6, 2))
@example(case=("dft", 20, 5, 0))
@example(case=("circulant", 12, 3, 4))
def test_batched_sweep_matches_per_set_sweep(case):
    try:
        B = _sweep_case(*case)
    except np.linalg.LinAlgError:
        assume(False)
    _assert_sweeps_match(B)


@st.composite
def _orbit_cases(draw):
    """Circulant codes past the n <= 12 of `_sweep_cases`: n + s is odd."""
    n = draw(st.integers(13, 16))
    s = draw(st.sampled_from([s for s in range(1, n) if (n + s) % 2]))
    return draw(st.sampled_from(["dft", "circulant"])), n, s, draw(st.integers(0, 2**16))


# The per-set reference takes up to about 0.5 s a code here, so the examples
# are few.
@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=_orbit_cases())
@example(case=("dft", 16, 7, 0))
@example(case=("dft", 15, 8, 0))
@example(case=("circulant", 16, 5, 3))
def test_orbit_sweep_matches_per_set_sweep_up_to_n_16(case):
    B = _sweep_case(*case)
    assert codes._is_circulant(B.entries)
    _assert_sweeps_match(B)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_worst_condition_of_the_identity_code_is_one(n):
    assert worst_condition(build_encoding(n, 0, seed=0)) == 1.0


def test_worst_condition_memory_stays_bounded():
    """One set per orbit, 256 at a time: the all-sets array would hold
    170,544 x 15 x 22 doubles, about 450 MB."""
    B = build_encoding(22, 7, seed=0)
    tracemalloc.start()
    try:
        cond = worst_condition(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{cond:.4g}" == "2.111e+04"
    assert peak < 16 * 2**20


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), data=st.data())
def test_orbit_representatives_cover_every_survivor_set_once(n, data):
    s = data.draw(st.integers(0, n - 1))
    covered = [
        F
        for rep in codes._orbit_representatives(n, s)
        for F in sorted({tuple(sorted((f + r) % n for f in rep)) for r in range(n)})
    ]
    assert sorted(covered) == list(itertools.combinations(range(n), n - s))


@pytest.mark.parametrize("n,s,orbits", [(20, 5, 776), (24, 5, 1771)])
def test_orbit_representative_counts(n, s, orbits):
    assert len(codes._orbit_representatives(n, s)) == orbits


def test_a_code_too_large_to_validate_is_refused_before_it_allocates():
    """GC's (156, 13) code is circulant, and its one-set-per-orbit sweep
    would need a table of C(155, 12) x 13 indices, more bytes than numpy
    can address: the build names (n, s) and the survivor-set count, with
    a traced peak under 1 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(CodeConstructionError) as err:
            build_encoding(156, 13, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "(n=156, s=13)" in str(err.value)
    assert "3,112,781,199,432,937,200 survivor sets" in str(err.value)
    assert peak < 2**20


def test_a_code_table_the_host_cannot_allocate_is_refused(small_host):
    """The (60, 11) code is circulant, and numpy can address its table of
    C(59, 10) x 11 indices but the host cannot hold it: numpy's MemoryError
    becomes a CodeConstructionError naming (n, s) and the survivor-set
    count."""
    with pytest.raises(CodeConstructionError) as err:
        build_encoding(60, 11, seed=0)
    assert "(n=60, s=11)" in str(err.value)
    assert "342,700,125,300 survivor sets" in str(err.value)
    assert "62,828,356,305 x 11 indices" in str(err.value)


def test_dft_code_is_seed_free_circulant_and_well_conditioned(monkeypatch):
    codes._seed_free_entries.cache_clear()  # an earlier test may have built (20, 5)
    swept = []
    real = codes._orbit_representatives

    def spy(n, s):
        swept.append((n, s))
        return real(n, s)

    monkeypatch.setattr(codes, "_orbit_representatives", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        B = build_encoding(20, 5, seed=0)
    assert caught == []  # worst residual under 1e-10
    assert swept == [(20, 5)]  # validated one survivor set per orbit
    assert B.entries.tobytes() == build_encoding(20, 5, seed=5).entries.tobytes()
    for i in range(B.n):
        assert B.entries[i].tobytes() == np.roll(B.entries[0], i).tobytes()


def test_second_seed_free_build_reuses_the_validated_entries(monkeypatch):
    """The (20, 5) code is built and validated once per process; a second
    build, at any seed, is a new object with its own empty decode cache."""
    codes._seed_free_entries.cache_clear()
    first = build_encoding(20, 5, seed=0)
    straggling = np.zeros((1, 1, 20), dtype=bool)
    straggling[0, 0, [2, 3, 5, 7, 11]] = True
    engine.worker_weights(build_tree(20, 1), first, straggling, 5)
    assert first._decode_cache
    swept = []
    real = codes._sweep_chunks

    def spy(n, s, circulant):
        swept.append((n, s))
        return real(n, s, circulant)

    monkeypatch.setattr(codes, "_sweep_chunks", spy)
    second = build_encoding(20, 5, seed=3)
    assert swept == []
    assert second is not first
    assert second._decode_cache == {}
    assert second.entries.tobytes() == first.entries.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        second.entries[0, 0] = 2.0


@pytest.fixture
def fresh_seed_free_codes():
    codes._seed_free_entries.cache_clear()
    yield
    codes._seed_free_entries.cache_clear()  # forget a failure a test forced


@pytest.mark.parametrize("failure", ["zero-on-support", "validation"])
def test_a_failed_seed_free_code_falls_back_to_the_seeded_draws(
    monkeypatch, fresh_seed_free_codes, failure
):
    """When the seed-free (5, 2) code fails its zero-on-support check or its
    validation, the build returns the seeded code of the given seed."""
    n, s, seed = 5, 2, 3
    checked = []
    if failure == "zero-on-support":

        def build(n, s):
            H = np.random.default_rng(0).standard_normal((s, n))
            H[:, 0] = -H[:, 2]  # row 0 solves to entries (0, 1) on columns 1, 2
            return codes._from_parity(H, circulant=False)

        with pytest.raises(np.linalg.LinAlgError, match="zero entry on support"):
            build(n, s)
        monkeypatch.setattr(codes, "_deterministic_build", build)
    else:
        real = codes.validate_code

        def reject_the_first(B):
            checked.append(B)
            return len(checked) > 1 and real(B)

        monkeypatch.setattr(codes, "validate_code", reject_the_first)
    B = build_encoding(n, s, seed)
    assert codes._seed_free_entries(n, s) is None
    if checked:
        assert checked[0].entries.tobytes() == codes._deterministic_build(n, s).entries.tobytes()
    assert B.entries.tobytes() == codes._try_build(n, s, seed).entries.tobytes()


def test_odd_n_with_one_straggler_builds_the_all_ones_parity_code():
    """H = (1, 1, -2): each row's window is in its null space."""
    B = build_encoding(3, 1, seed=7)
    np.testing.assert_array_equal(
        B.entries, [[1.0, -1.0, 0.0], [0.0, 1.0, 0.5], [2.0, 0.0, 1.0]]
    )
    assert B.entries.tobytes() == build_encoding(3, 1, seed=0).entries.tobytes()


def _counting_decode_row(monkeypatch):
    calls = []
    real = codes.decode_row

    def counting(B, survivors):
        calls.append(tuple(survivors))
        return real(B, survivors)

    monkeypatch.setattr(codes, "decode_row", counting)
    return calls


def test_singular_chunk_is_redecided_set_by_set(monkeypatch):
    entries = codes._try_build(8, 2, 0).entries.copy()
    entries[[6, 7]] = 0.0
    entries[np.ix_([6, 7], [7, 0])] = [1.5, -0.5]  # rows 6 and 7 equal
    B = EncodingMatrix(n=8, s=2, entries=entries)
    calls = _counting_decode_row(monkeypatch)
    failure = find_decode_failure(B)
    assert failure == _reference_failure(B)
    # The first chunk holds a set with both rows, so its stacked solve is
    # singular and every set up to the failure goes through decode_row.
    sets = list(itertools.combinations(range(8), 6))
    assert calls == sets[: sets.index(tuple(sorted(failure[0]))) + 1]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_validation_screens_survivor_sets_in_batches(monkeypatch):
    calls = _counting_decode_row(monkeypatch)
    build_encoding(18, 6, seed=0)
    assert len(calls) < 100  # a per-set sweep makes C(18, 12) = 18,564


def test_build_encoding_matches_reference_sweep():
    for attempt in range(codes._MAX_ATTEMPTS):
        try:
            B = codes._try_build(18, 6, attempt)
        except np.linalg.LinAlgError:
            continue
        if _reference_failure(B) is None:
            break
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        np.testing.assert_array_equal(build_encoding(18, 6, seed=0).entries, B.entries)


def test_validation_sends_one_conditioning_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        B = build_encoding(18, 6, seed=0)
    assert len(caught) == 1
    message = str(caught[0].message)
    match = re.search(r"residual (\S+), for survivors \[([\d, ]+)\]", message)
    assert match, message
    assert codes._WARN_RESIDUAL < float(match.group(1)) <= codes.DECODE_TOL
    survivors = [int(i) for i in match.group(2).split(",")]
    assert len(survivors) == B.n - B.s
