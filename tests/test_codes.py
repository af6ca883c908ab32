import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import codedreduce.codes as codes
from codedreduce.codes import (
    CodeConstructionError,
    DecodeError,
    EncodingMatrix,
    build_encoding,
    decode_row,
    find_decode_failure,
    load_matrix_csv,
    save_matrix_csv,
    validate_code,
)


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


def test_support_violation_rejected_by_constructor():
    dense = np.ones((3, 3))
    with pytest.raises(ValueError, match="support"):
        EncodingMatrix(n=3, s=1, entries=dense)


def test_gives_up_after_eight_attempts(monkeypatch):
    calls = []

    def always_singular(n, s, seed):
        calls.append(seed)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(codes, "_try_build", always_singular)
    with pytest.raises(CodeConstructionError):
        build_encoding(5, 2, seed=100)
    assert calls == [100 + k for k in range(8)]


def test_csv_round_trip(tmp_path, reference_b):
    path = tmp_path / "code.csv"
    save_matrix_csv(reference_b, path)
    loaded = load_matrix_csv(path)
    assert (loaded.n, loaded.s) == (3, 1)
    np.testing.assert_array_equal(loaded.entries, reference_b.entries)


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


def _sweep_case(kind, n, s, seed):
    """A code the sweeps must agree on; only "built" comes from construction."""
    rng = np.random.default_rng(seed)
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
    kind = draw(st.sampled_from(["built", "random", "perturbed", "identity", "equal_rows"]))
    n = draw(st.integers(2, 12))
    s = draw(st.integers(0, n - 1))
    return kind, n, s, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_sweep_cases())
@example(case=("identity", 3, 1, 0))
@example(case=("equal_rows", 8, 2, 0))
@example(case=("perturbed", 12, 5, 1))
@example(case=("built", 12, 6, 2))
def test_batched_sweep_matches_per_set_sweep(case):
    try:
        B = _sweep_case(*case)
    except np.linalg.LinAlgError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert find_decode_failure(B) == _reference_failure(B)


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
    build_encoding(20, 5, seed=0)
    assert len(calls) < 100  # a per-set sweep makes C(20, 15) = 15,504


def test_build_encoding_matches_reference_sweep():
    for attempt in range(codes._MAX_ATTEMPTS):
        try:
            B = codes._try_build(20, 5, attempt)
        except np.linalg.LinAlgError:
            continue
        if _reference_failure(B) is None:
            break
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        np.testing.assert_array_equal(build_encoding(20, 5, seed=0).entries, B.entries)


def test_validation_sends_one_conditioning_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        B = build_encoding(20, 5, seed=0)
    assert len(caught) == 1
    message = str(caught[0].message)
    match = re.search(r"residual (\S+), for survivors \[([\d, ]+)\]", message)
    assert match, message
    assert codes._WARN_RESIDUAL < float(match.group(1)) <= codes.DECODE_TOL
    survivors = [int(i) for i in match.group(2).split(",")]
    assert len(survivors) == B.n - B.s
