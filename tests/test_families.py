import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import projsum.families as families
from projsum.errors import (
    BudgetExceededError,
    DegenerateInputError,
    InvalidFamilyError,
    ProjsumError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from projsum.families import (
    ProjectionFamily,
    four_family,
    ladder_family,
    ladder_step,
    scalar_is_admissible,
    simplex_family,
    simplex_vertices,
    validate_family,
)
from projsum.selftest import n_operator
from projsum.strategies import canonical_strategy, ideal_correlation, induced_correlation
from oracles import lambda_sequence
from reference_data import (
    LADDER_RUNG2_PROJECTIONS,
    TETRAHEDRON_PROJECTIONS,
    TETRAHEDRON_VERTICES,
    TRIANGLE_PROJECTIONS,
)


def test_lambda_sequence_closed_form():
    seq = lambda_sequence(4, 51)
    for k, x in enumerate(seq):
        assert x == Fraction(4 * k, 2 * k + 1)


def test_lambda_sequence_three_questions():
    assert lambda_sequence(3) == [Fraction(3, 2)]
    assert lambda_sequence(3, 10) == [Fraction(3, 2)]


def test_lambda_sequence_five_questions_recurrence():
    seq = lambda_sequence(5, 4)
    assert seq == [Fraction(0), Fraction(5, 4), Fraction(15, 11), Fraction(40, 29)]


def test_lambda_sequence_rejects_bad_inputs():
    with pytest.raises(UnsupportedQuestionCountError):
        lambda_sequence(2)
    with pytest.raises(UnsupportedScalarError):
        lambda_sequence(4, 0)


def test_scalar_admissibility():
    assert scalar_is_admissible(3, Fraction(3, 2))
    assert not scalar_is_admissible(3, Fraction(4, 3))
    for k in range(1, 20):
        assert scalar_is_admissible(4, Fraction(4 * k, 2 * k + 1))
    assert not scalar_is_admissible(4, Fraction(3, 2))
    assert not scalar_is_admissible(4, Fraction(2))
    assert not scalar_is_admissible(4, Fraction(7, 2))
    assert not scalar_is_admissible(4, Fraction(-1))
    assert scalar_is_admissible(5, Fraction(15, 11))
    assert not scalar_is_admissible(5, Fraction(3, 2))
    with pytest.raises(UnsupportedQuestionCountError, match="^need n >= 3, got 2$"):
        scalar_is_admissible(2, 1)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scalar_is_refused(x):
    # Fraction itself refuses these with a bare ValueError or OverflowError
    with pytest.raises(UnsupportedScalarError, match="finite"):
        scalar_is_admissible(4, x)
    with pytest.raises(UnsupportedScalarError, match="finite"):
        ideal_correlation(4, x)


def test_family_reads_its_scalar_as_a_fraction():
    # "4/3" raised a bare TypeError; a float or a bool was stored as it was,
    # and ladder_step on the family raised AttributeError
    fam = four_family(1)
    for x in ("4/3", True):
        with pytest.raises(UnsupportedScalarError, match=f"^x must be a number, got {x!r}$"):
            ProjectionFamily(fam.n, x, fam.d, fam.projections)
    for x in (Fraction(4, 3), 4, np.int64(4)):
        stored = ProjectionFamily(fam.n, x, fam.d, fam.projections).x
        assert type(stored) is Fraction and stored == x
    rounded = ProjectionFamily(fam.n, 4 / 3, fam.d, fam.projections)
    assert rounded.x == Fraction(4 / 3) and type(rounded.x) is Fraction
    with pytest.raises(ProjsumError):
        ladder_step(rounded)


def test_simplex_vertices_gram():
    for n in range(3, 8):
        verts = simplex_vertices(n)
        gram = verts @ verts.T
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.allclose(np.abs(off + np.eye(n) * 0)[~np.eye(n, dtype=bool)],
                           1.0 / (n - 1), atol=1e-12)
    with pytest.raises(UnsupportedQuestionCountError, match="^need n >= 2, got 1$"):
        simplex_vertices(1)


def test_simplex_vertices_without_recursion_limit():
    n = 1001
    verts = simplex_vertices(n)
    assert verts.shape == (n, n - 1)
    gram = verts @ verts.T
    assert np.abs(np.diag(gram) - 1.0).max() < 1e-12
    assert np.abs(gram[~np.eye(n, dtype=bool)] + 1.0 / (n - 1)).max() < 1e-12


def test_simplex_vertices_match_references():
    assert np.allclose(simplex_vertices(4), TETRAHEDRON_VERTICES, atol=1e-12)


def test_triangle_family_matches_reference():
    fam = simplex_family(3)
    assert fam.x == Fraction(3, 2)
    assert fam.d == 2
    # our generator may order/reflect vertices differently, but for the
    # triangle it reproduces the reference projections entrywise
    for ours, ref in zip(fam.projections, TRIANGLE_PROJECTIONS):
        assert np.allclose(ours, ref, atol=1e-12)


def test_tetrahedron_family_matches_reference():
    fam = simplex_family(4)
    for ours, ref in zip(fam.projections, TETRAHEDRON_PROJECTIONS):
        assert np.allclose(ours, ref, atol=1e-12)


def test_simplex_family_validates():
    for n in range(3, 9):
        fam = simplex_family(n)
        assert fam.x == Fraction(n, n - 1)
        assert fam.d == n - 1
        report = validate_family(fam)
        assert report.passed
        assert report.ranks == (1,) * n
        assert report.expected_rank == 1


def test_validate_family_trace_table():
    fam = simplex_family(4)
    report = validate_family(fam)
    x = 4.0 / 3
    assert abs(report.trace_table[0, 0] - x / 4) < 1e-12
    assert abs(report.trace_table[0, 1] - x * (x - 1) / 12) < 1e-12
    assert report.trace_deviation < 1e-12


def test_four_family_ladder_dimensions_and_ranks():
    for k in range(1, 6):
        fam = four_family(k)
        assert fam.d == 2 * k + 1
        assert fam.x == Fraction(4 * k, 2 * k + 1)
        report = validate_family(fam)
        assert report.passed
        assert report.ranks == (k,) * 4
        assert report.sum_residual < 1e-12


def test_four_family_step_advances_scalar():
    fam = four_family(1)
    nxt = ladder_step(fam)
    assert nxt.x == Fraction(8, 5)
    assert nxt.d == 5
    assert validate_family(nxt).passed


def test_rung2_matches_reference_trace_table():
    ours = four_family(2)
    ref = LADDER_RUNG2_PROJECTIONS
    # both are projections summing to 8/5 with the same pairwise trace table
    for v in range(4):
        for w in range(4):
            t_ref = np.trace(ref[v] @ ref[w]).real / 5
            t_ours = np.trace(
                ours.projections[v] @ ours.projections[w]
            ).real / 5
            x = 8.0 / 5
            target = x / 4 if v == w else x * (x - 1) / 12
            assert abs(t_ref - target) < 1e-12
            assert abs(t_ours - target) < 1e-12


def test_reference_rung2_is_valid_family():
    fam = ProjectionFamily(
        n=4,
        x=Fraction(8, 5),
        d=5,
        projections=tuple(LADDER_RUNG2_PROJECTIONS.astype(np.complex128)),
    )
    report = validate_family(fam)
    assert report.passed
    assert report.ranks == (2, 2, 2, 2)


def test_four_family_step_rejects_wrong_input():
    fam3 = simplex_family(3)
    with pytest.raises(InvalidFamilyError, match="^the ladder is defined for n >= 4, got n = 3$"):
        ladder_step(fam3)
    # corrupt one projection so the sum is off
    fam = four_family(1)
    bad = list(fam.projections)
    bad[0] = bad[0] * 0.5
    broken = ProjectionFamily(n=4, x=fam.x, d=fam.d, projections=tuple(bad))
    with pytest.raises(InvalidFamilyError, match="^input family fails validation at 1e-8$"):
        ladder_step(broken)
    # x d / n = 3/4 is no projection rank
    fractional = ProjectionFamily(n=4, x=Fraction(1), d=3, projections=np.zeros((4, 3, 3)))
    with pytest.raises(InvalidFamilyError, match="^scalar 1 gives no rank in 0..d-1 at d = 3$"):
        ladder_step(fractional)


def test_ladder_family_validates_each_rung_once(monkeypatch):
    # the simplex as the first step's input, every later rung as the output
    # of the step that built it; the public step still checks its input
    validated = []
    validate = families.validate_family
    monkeypatch.setattr(
        families, "validate_family", lambda fam, *a, **kw: validated.append(fam.d) or validate(fam, *a, **kw)
    )
    for k, dims in ((1, []), (2, [3, 5]), (15, list(range(3, 32, 2)))):
        validated.clear()
        four_family(k)
        assert validated == dims
    rung2, rung3 = four_family(2), four_family(3)
    validated.clear()
    assert np.array_equal(ladder_step(rung2).projections, rung3.projections)
    assert validated == [5, 7]


# every (n, level) with n in 4..8 whose rung has d <= 41
SMALL_RUNGS = [(4, k) for k in range(1, 21)] + [
    (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (7, 1), (7, 2), (8, 1), (8, 2)
]


@given(rung=st.sampled_from(SMALL_RUNGS))
def test_ladder_rungs_have_closed_form_correlations(rung):
    n, level = rung
    fam = ladder_family(n, level)
    assert fam.x == lambda_sequence(n, level + 1)[level]
    assert fam.d == fam.x.denominator
    report = validate_family(fam)
    assert report.passed
    assert report.ranks == (int(fam.x * fam.d / n),) * n
    assert fam.correlation_gap > 0  # SpectralDegeneracyError if the top is not simple
    corr = induced_correlation(fam.canonical_strategy)
    assert np.abs(corr - ideal_correlation(n, fam.x)).max() < 1e-11


def test_ladder_family_refuses_before_allocating():
    tracemalloc.start()
    try:
        # n = 8 rungs have d = 7, 41, 239, 1393, 8119, 47321
        with pytest.raises(BudgetExceededError, match="level 5 of the n = 8 ladder has d = 8119"):
            ladder_family(8, 6)
        with pytest.raises(BudgetExceededError, match="level 1024 of the n = 4 ladder has d = 2049"):
            ladder_family(4, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the level-6 family alone would take 8 * 47321^2 complex entries, about 286 GB
    assert peak < 4_000_000


def test_ladder_family_rejects_levels_out_of_range():
    assert ladder_family(3, 1).x == Fraction(3, 2)
    with pytest.raises(UnsupportedScalarError):
        ladder_family(3, 2)
    with pytest.raises(UnsupportedScalarError):
        ladder_family(5, 0)
    with pytest.raises(UnsupportedQuestionCountError):
        ladder_family(2, 1)


def test_transpose_family():
    fam = four_family(2)
    tfam = fam.transposed
    assert tfam is fam.transposed and tfam.x == fam.x
    for p, q in zip(fam.projections, tfam.projections):
        assert np.allclose(q, p.T)
    assert validate_family(tfam).passed


def test_validate_family_flags_defects():
    fam = simplex_family(4)
    bad = list(fam.projections)
    bad[2] = bad[2] + 1e-4 * np.eye(3)
    broken = ProjectionFamily(n=4, x=fam.x, d=3, projections=tuple(bad))
    report = validate_family(broken)
    assert not report.passed
    assert report.idempotency.max() > 1e-5 or report.sum_residual > 1e-5


def test_simplex_family_rejects_small_n():
    with pytest.raises(UnsupportedQuestionCountError):
        simplex_family(2)


def test_ladder_family_reads_n_before_the_level():
    # check_question_count reads n first, so an n below 3 is named even when
    # the level is not an integer either
    with pytest.raises(UnsupportedQuestionCountError, match="^need n >= 3, got 2$"):
        ladder_family(2, 1.5)
    with pytest.raises(UnsupportedScalarError, match="^k must be an integer, got 1.5$"):
        ladder_family(4, 1.5)


def test_family_builders_refuse_counts_that_are_not_integers():
    # a float raised a bare TypeError, four_family(True) built k = 1, and
    # Fraction parsed a string
    x = Fraction(4, 3)
    cases = (
        (four_family, (1.5,), UnsupportedScalarError, "k must be an integer, got 1.5"),
        (four_family, (True,), UnsupportedScalarError, "k must be an integer, got True"),
        (ladder_family, (4.0, 2), UnsupportedQuestionCountError, "n must be an integer, got 4.0"),
        (simplex_family, (4.5,), UnsupportedQuestionCountError, "n must be an integer, got 4.5"),
        (simplex_family, (True,), UnsupportedQuestionCountError, "n must be an integer, got True"),
        (simplex_vertices, (4.5,), UnsupportedQuestionCountError, "n must be an integer, got 4.5"),
        (simplex_vertices, (True,), UnsupportedQuestionCountError, "n must be an integer, got True"),
        (scalar_is_admissible, (4.0, x), UnsupportedQuestionCountError, "n must be an integer, got 4.0"),
        (scalar_is_admissible, (4, "4/3"), UnsupportedScalarError, "x must be a number, got '4/3'"),
        (scalar_is_admissible, (4, False), UnsupportedScalarError, "x must be a number, got False"),
        (scalar_is_admissible, (4, None), UnsupportedScalarError, "x must be a finite number, got None"),
    )
    for build, args, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            build(*args)
    p = four_family(1).projections
    for n, d in ((4.0, 3), (4, 3.0), (True, 3)):
        with pytest.raises(InvalidFamilyError, match="^n and d must be integers"):
            ProjectionFamily(n=n, x=x, d=d, projections=p)
    # numpy integers are integers
    fam = ladder_family(np.int64(4), np.uint8(2))
    assert np.array_equal(fam.projections, four_family(2).projections)
    assert simplex_family(np.int32(4)).d == 3
    assert np.array_equal(simplex_vertices(np.int32(4)), simplex_vertices(4))
    assert scalar_is_admissible(np.int64(4), x)
    assert ProjectionFamily(n=np.int64(4), x=x, d=np.uint8(3), projections=p).d == 3


def test_ladder_step_refuses_a_rung_of_the_wrong_rank(monkeypatch):
    # the n = 4 simplex has complements of rank c = 2 and a kernel of 4 * 2 - 3 = 5
    fam = simplex_family(4)
    svd, kernel = np.linalg.svd, families.null_space
    monkeypatch.setattr(np.linalg, "svd", lambda a: (lambda u, s, vh: (u, 0 * s, vh))(*svd(a)))
    with pytest.raises(DegenerateInputError, match="^complement rank 0, expected 2$"):
        families._ladder_step(fam)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(families, "null_space", lambda a: kernel(a)[:, 1:])
    with pytest.raises(DegenerateInputError, match="^null space dimension 4, expected 5$"):
        families._ladder_step(fam)
    # a kernel of the right dimension that is not orthonormal
    monkeypatch.setattr(families, "null_space", lambda a: 2 * kernel(a))
    with pytest.raises(DegenerateInputError, match="^constructed family fails validation at 1e-8$"):
        families._ladder_step(fam)


def test_family_stores_read_only_copies():
    # a cached gap must stay true to the projections: an in-place write
    # used to leave correlation_gap at 0.160 while n_operator gave 0.207
    fam = four_family(2)
    gap = fam.correlation_gap
    with pytest.raises(ValueError, match="read-only"):
        fam.projections[0][0, 0] = 1.0
    assert gap == fam.correlation_gap
    assert abs(gap - n_operator(fam).gap) < 1e-12
    mine = [p.real.copy() for p in fam.projections]
    copy = ProjectionFamily(n=4, x=fam.x, d=fam.d, projections=tuple(mine))
    mine[0][0, 0] = 7.0
    assert copy.projections[0][0, 0] != 7.0
    for p in copy.projections:
        assert p.dtype == np.complex128 and p.flags.c_contiguous and not p.flags.writeable
    with pytest.raises(InvalidFamilyError, match="projection 1: entries do not form a matrix"):
        ProjectionFamily(n=2, x=fam.x, d=2, projections=(np.eye(2), [[1, 0], [0]]))
    # a cast to a number would read "1" as 1 and True as 1
    for bad in ([["1"]], [[True]]):
        with pytest.raises(InvalidFamilyError, match="projection 0: entries must be numbers"):
            ProjectionFamily(n=1, x=Fraction(1), d=1, projections=[bad])
    assert ProjectionFamily(n=1, x=Fraction(1), d=1, projections=[[[1]]]).projections[0, 0, 0] == 1


def test_canonical_strategy_built_once_per_family():
    fam = four_family(2)
    ref = fam.canonical_strategy
    assert fam.canonical_strategy is ref
    fresh = canonical_strategy(fam)
    assert np.array_equal(ref.alice, fresh.alice) and np.array_equal(ref.bob, fresh.bob)
    assert np.array_equal(ref.state, fresh.state)


def family_array_checks():
    """Every SMALL_RUNGS family, then one with a non-Hermitian, non-idempotent
    projection whose rank and sum are off."""
    for n, level in SMALL_RUNGS:
        yield ladder_family(n, level)
    fam = four_family(2)
    bad = np.array(fam.projections)
    noise = 0.02 * np.random.default_rng(3).standard_normal((5, 5))
    bad[1] += 0.6 * np.eye(5) + noise + 0.7j * np.eye(5, k=1)
    yield ProjectionFamily(n=4, x=fam.x, d=5, projections=bad)


def test_validate_family_matches_loop_oracle():
    for fam in family_array_checks():
        report = validate_family(fam)
        d = fam.d
        projs = list(fam.projections)
        herm = np.array([np.linalg.norm(p - p.conj().T) for p in projs])
        idem = np.array([np.linalg.norm(p @ p - p) for p in projs])
        total = sum(projs)
        sum_residual = np.linalg.norm(total - float(fam.x) * np.eye(d))
        ranks = tuple(
            int(np.count_nonzero(np.linalg.eigvalsh((p + p.conj().T) / 2) > 0.5)) for p in projs
        )
        table = np.array([[np.trace(p @ q).real / d for q in projs] for p in projs])
        assert report.ranks == ranks
        np.testing.assert_allclose(report.hermiticity, herm, rtol=1e-15, atol=0)
        np.testing.assert_allclose(report.idempotency, idem, rtol=1e-15, atol=0)
        np.testing.assert_allclose(report.sum_residual, sum_residual, rtol=1e-15, atol=0)
        np.testing.assert_allclose(report.trace_table, table, rtol=1e-15, atol=0)
    assert not report.passed and report.hermiticity[1] > 0.1 and report.ranks[1] != 2


@pytest.mark.parametrize("projections", [5, None, np.array(1.0)], ids=["int", "None", "0-d"])
def test_family_refuses_projections_that_are_not_a_sequence(projections):
    # len() raised a bare TypeError
    kind = type(projections).__name__
    with pytest.raises(InvalidFamilyError, match=f"^projections must be a sequence, got {kind}$"):
        ProjectionFamily(1, 1, 1, projections)


def test_family_is_one_read_only_stack():
    fam = four_family(3)
    for stack in (fam.projections, fam.transposed.projections):
        assert isinstance(stack, np.ndarray) and stack.shape == (4, 7, 7)
        assert stack.dtype == np.complex128 and stack.flags.c_contiguous
        assert not stack.flags.writeable
    assert np.array_equal(fam.transposed.projections, fam.projections.swapaxes(1, 2))
    # when stacking fails, the first offending projection is named
    projs = list(fam.projections)
    projs[2] = projs[2] * np.nan
    with pytest.raises(InvalidFamilyError, match=r"projection 2\[0\]\[0\]: non-finite entry"):
        ProjectionFamily(n=4, x=fam.x, d=7, projections=projs)
    projs[1] = projs[1][0]
    with pytest.raises(InvalidFamilyError, match=r"projection 1: expected a matrix, got shape \(7,\)"):
        ProjectionFamily(n=4, x=fam.x, d=7, projections=projs)
    with pytest.raises(InvalidFamilyError, match=r"projection of shape \(7, 7\) does not match d=5"):
        ProjectionFamily(n=4, x=fam.x, d=5, projections=fam.projections)
    with pytest.raises(InvalidFamilyError, match="expected 0 projections, got 0"):
        ProjectionFamily(n=0, x=Fraction(0), d=1, projections=[])
    # a sum of n projections lies between 0 and n I
    for x in (Fraction(-1, 3), Fraction(9), Fraction(10**400)):
        with pytest.raises(InvalidFamilyError, match=r"^scalar x must lie in \[0, n\] = \[0, 4\]$"):
            ProjectionFamily(n=4, x=x, d=7, projections=fam.projections)


def test_validate_family_peak_memory_stays_near_family_size():
    fam = simplex_family(60)
    tracemalloc.start()
    try:
        report = validate_family(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    # all n^2 products of the trace table at once would take n = 60 times the family
    assert peak < 4 * fam.projections.nbytes


@pytest.mark.parametrize("call", [n_operator, validate_family, canonical_strategy])
@pytest.mark.parametrize("fam", [None, {}, "four_family(1)"], ids=["None", "dict", "str"])
def test_every_family_reader_refuses_what_is_not_a_family(call, fam):
    # each raised a bare AttributeError
    message = f"^expected a ProjectionFamily, got {type(fam).__name__}$"
    with pytest.raises(InvalidFamilyError, match=message):
        call(fam)


def test_numpy_integers_are_stored_as_ints():
    # n, d and the scalar's numerator and denominator kept their numpy type
    fam = ladder_family(np.int64(4), np.int64(2))
    given = ProjectionFamily(
        np.int64(4), Fraction(np.int64(4), np.int64(3)), np.int64(3), simplex_family(4).projections
    )
    for f in (fam, fam.transposed, given):
        assert [type(v) for v in (f.n, f.d, f.x.numerator, f.x.denominator)] == [int] * 4
    assert (fam.n, fam.x, fam.d) == (4, Fraction(8, 5), 5) and given.x == Fraction(4, 3)


@pytest.mark.parametrize(
    "tol", [None, "x", float("nan"), -1e-9, float("inf"), True],
    ids=["None", "str", "nan", "negative", "inf", "bool"],
)
def test_validate_family_refuses_a_tol_that_is_not_a_finite_number(tol):
    # None and a string gave a report whose .passed raised a bare TypeError,
    # and NaN or a negative tol failed every family without a word
    message = f"^tol must be a finite real number >= 0, got {re.escape(repr(tol))}$"
    with pytest.raises(InvalidFamilyError, match=message):
        validate_family(four_family(1), tol)
    assert validate_family(four_family(1), np.float64(1e-9)).passed
