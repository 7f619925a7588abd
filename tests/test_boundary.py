"""Every entry point that takes an array refuses each kind of bad array with
the ProjsumError subclass it documents: it never returns NaN and never lets
a bare numpy ValueError or LinAlgError escape.  All of them read through
linalg.as_array, whose valid inputs come back bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from projsum.errors import (
    EigensolverError,
    InvalidFamilyError,
    InvalidShapeError,
    InvalidStrategyError,
    ProjsumError,
)
from projsum.families import ProjectionFamily, four_family
from projsum.linalg import as_array, hermitian_spectrum, nearest_isometry, schmidt, seminorm, unvec
from projsum.selftest import dilation_epsilon, find_intertwiner, fit_isometry
from projsum.strategies import Correlation, Strategy, ideal_correlation

FAM = four_family(1)
CANON = FAM.canonical_strategy
EYE = np.eye(3, dtype=np.complex128)

# name: (call with the array under test, a valid value for it, the error it documents)
ENTRY_POINTS = {
    "Strategy.state": (
        lambda a: Strategy(state=a, dim_a=3, dim_b=3, alice=CANON.alice, bob=CANON.bob),
        CANON.state,
        InvalidStrategyError,
    ),
    "Strategy.alice": (
        lambda a: Strategy(state=CANON.state, dim_a=3, dim_b=3, alice=a, bob=CANON.bob),
        CANON.alice,
        InvalidStrategyError,
    ),
    "Correlation": (
        lambda a: Correlation(n=4, k=2, table=a),
        ideal_correlation(4, FAM.x).table,
        InvalidStrategyError,
    ),
    "ProjectionFamily": (
        lambda a: ProjectionFamily(n=4, x=FAM.x, d=3, projections=a),
        FAM.projections,
        InvalidFamilyError,
    ),
    "fit_isometry.ops": (lambda a: fit_isometry(a, FAM, EYE / 3), FAM.projections, InvalidShapeError),
    "fit_isometry.rho": (lambda a: fit_isometry(FAM.projections, FAM, a), EYE / 3, InvalidShapeError),
    "find_intertwiner": (lambda a: find_intertwiner(FAM, a), FAM.projections, InvalidShapeError),
    "dilation_epsilon.v_a": (
        lambda a: dilation_epsilon(CANON, CANON, a, EYE, [1.0]),
        EYE,
        InvalidShapeError,
    ),
    "dilation_epsilon.v_b": (
        lambda a: dilation_epsilon(CANON, CANON, EYE, a, [1.0]),
        EYE,
        InvalidShapeError,
    ),
    "dilation_epsilon.junk": (
        lambda a: dilation_epsilon(CANON, CANON, EYE, EYE, a),
        np.ones(1, dtype=np.complex128),
        InvalidShapeError,
    ),
    "seminorm.x": (lambda a: seminorm(a, EYE / 3), EYE, InvalidShapeError),
    "seminorm.rho": (lambda a: seminorm(EYE, a), EYE / 3, InvalidShapeError),
    "unvec": (lambda a: unvec(a, (3, 3)), CANON.state, InvalidShapeError),
    "schmidt": (lambda a: schmidt(a, (3, 3)), CANON.state, InvalidShapeError),
    "nearest_isometry": (nearest_isometry, EYE, InvalidShapeError),
    "hermitian_spectrum": (hermitian_spectrum, EYE, EigensolverError),
}


def ragged(a):
    """The nested lists of a, with a pair appended to its last innermost list."""
    rows = a.tolist()
    inner = rows
    for _ in range(a.ndim - 1):
        inner = inner[-1]
    inner.append([inner[-1], inner[-1]])
    return rows


def with_last_entry(value):
    def bad(a):
        out = a.copy()
        out.flat[-1] = value
        return out

    return bad


BAD_INPUTS = {
    "ragged": ragged,
    "string": lambda a: a.real.astype(str),  # a cast would parse these
    "boolean": lambda a: a != 0,
    "complex": lambda a: a + 1j,  # only where a real value is expected
    "nan": with_last_entry(np.nan),
    "inf": with_last_entry(np.inf),
    "wrong rank": lambda a: a[0],
    "empty axis": lambda a: a[:0],
}

CASES = [
    (point, kind)
    for point, (_, good, _) in ENTRY_POINTS.items()
    for kind in BAD_INPUTS
    if kind != "complex" or not np.iscomplexobj(good)
]


@pytest.mark.parametrize("point", ENTRY_POINTS)
def test_every_entry_point_accepts_its_valid_value(point):
    call, good, _ = ENTRY_POINTS[point]
    call(good)


@pytest.mark.parametrize("point, kind", CASES)
def test_every_entry_point_refuses_every_bad_array(point, kind):
    call, good, error = ENTRY_POINTS[point]
    assert issubclass(error, ProjsumError)
    with pytest.raises(error):
        call(BAD_INPUTS[kind](np.asarray(good)))


def test_as_array_names_the_argument_and_the_entry():
    with pytest.raises(InvalidShapeError, match=r"^v\[1\]\[0\]: non-finite entry$"):
        as_array([[1, 2], [np.inf, 3]], 2, "v")
    with pytest.raises(InvalidShapeError, match="^v: entries must be real, got complex128$"):
        as_array([0.5 + 1j], 1, "v", dtype=float)
    with pytest.raises(InvalidShapeError, match=r"^v: expected a matrix, got shape \(2, 0\)$"):
        as_array(np.zeros((2, 0)), 2, "v")
    with pytest.raises(EigensolverError, match="^v: entries do not form a rank-3 array$"):
        as_array([[[1]], [[1, 2]]], 3, "v", EigensolverError)


def finite_arrays(kind):
    elements = {
        "i8": st.integers(-(2**53), 2**53),  # exact as a float
        "f8": st.floats(allow_nan=False, allow_infinity=False),
        "c16": st.complex_numbers(allow_nan=False, allow_infinity=False),
    }[kind]
    shapes = hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4)
    return hnp.arrays(kind, shapes, elements=elements)


@given(st.sampled_from(["i8", "f8", "c16"]).flatmap(finite_arrays))
def test_as_array_returns_finite_values_bit_for_bit(a):
    out = as_array(a, a.ndim, "a")
    assert out.tobytes() == a.astype(np.complex128).tobytes()
    assert as_array(a.tolist(), a.ndim, "a").tobytes() == out.tobytes()
    if a.dtype == np.complex128:
        assert out is a  # no copy
    else:
        assert as_array(a, a.ndim, "a", dtype=float).tobytes() == a.astype(float).tobytes()
