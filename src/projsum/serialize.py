"""JSON encoding of the package's machine artifacts.

Wire format: a complex scalar is a [real, imag] pair, and a complex array of
any rank is nested lists of such pairs: a vector is a list of pairs, a matrix
a list of row lists, a stack of matrices a list of matrices.  Documents are
written with sorted keys so repeated runs produce identical bytes.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .errors import InvalidStrategyError, SerializationError
from .families import ProjectionFamily
from .selftest import DilationCertificate, ResidualReport
from .strategies import Correlation, Strategy


def to_pairs(a) -> list:
    """Nested lists of an array of any rank, each complex entry a [real, imag] pair."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(t, (int, float)) for t in value)
    ):
        raise SerializationError(f"{where}: expected a [real, imag] pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise SerializationError(f"{where}: {exc}") from exc


def lists_to_matrix(rows, where: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SerializationError(f"{where}: expected a non-empty list of rows")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SerializationError(f"{where}: row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SerializationError(f"{where}: row {i} has length {len(row)}, expected {width}")
        out.append([_pair(z, f"{where}[{i}]") for z in row])
    return np.array(out, dtype=np.complex128)


def lists_to_vector(vals, where: str = "vector") -> np.ndarray:
    if not isinstance(vals, list) or not vals:
        raise SerializationError(f"{where}: expected a non-empty list of pairs")
    return np.array([_pair(z, f"{where}[{i}]") for i, z in enumerate(vals)])


def save_json(obj: dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_json(path) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise SerializationError(f"{path}: not a text file: {exc}") from exc
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise SerializationError(f"{path}: {exc}") from exc


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise SerializationError(f"{where}: expected an object")
    if key not in data:
        raise SerializationError(f"{where}: missing field {key!r}")
    return data[key]


# -- families ---------------------------------------------------------------


def family_to_dict(fam: ProjectionFamily) -> dict:
    return {
        "n": fam.n,
        "x": [fam.x.numerator, fam.x.denominator],
        "d": fam.d,
        "projections": to_pairs(fam.projections),
    }


def family_from_dict(data: dict, where: str = "family") -> ProjectionFamily:
    n = _require(data, "n", where)
    x_pair = _require(data, "x", where)
    d = _require(data, "d", where)
    projs = _require(data, "projections", where)
    if (
        not isinstance(x_pair, list)
        or len(x_pair) != 2
        or not all(isinstance(t, int) for t in x_pair)
        or x_pair[1] == 0
    ):
        raise SerializationError(f"{where}.x: expected [numerator, denominator]")
    if not isinstance(projs, list):
        raise SerializationError(f"{where}.projections: expected a list")
    matrices = tuple(
        lists_to_matrix(p, f"{where}.projections[{v}]") for v, p in enumerate(projs)
    )
    try:
        return ProjectionFamily(
            n=int(n), x=Fraction(x_pair[0], x_pair[1]), d=int(d), projections=matrices
        )
    except Exception as exc:
        raise SerializationError(f"{where}: {exc}") from exc


# -- strategies and correlations --------------------------------------------


def strategy_to_dict(strategy: Strategy) -> dict:
    return {
        "dimA": strategy.dim_a,
        "dimB": strategy.dim_b,
        "state": to_pairs(strategy.state),
        "alice": to_pairs(strategy.alice),
        "bob": to_pairs(strategy.bob),
    }


def strategy_from_dict(data: dict, where: str = "strategy") -> Strategy:
    dim_a = _require(data, "dimA", where)
    dim_b = _require(data, "dimB", where)
    state = lists_to_vector(_require(data, "state", where), f"{where}.state")

    def povms(key):
        raw = _require(data, key, where)
        if not isinstance(raw, list) or not raw:
            raise SerializationError(f"{where}.{key}: expected a non-empty list")
        out = []
        for v, povm in enumerate(raw):
            if not isinstance(povm, list) or not povm:
                raise SerializationError(f"{where}.{key}[{v}]: expected a list of matrices")
            out.append(
                tuple(
                    lists_to_matrix(e, f"{where}.{key}[{v}][{i}]")
                    for i, e in enumerate(povm)
                )
            )
        return tuple(out)

    try:
        return Strategy(
            state=state,
            dim_a=int(dim_a),
            dim_b=int(dim_b),
            alice=povms("alice"),
            bob=povms("bob"),
        )
    except (SerializationError, InvalidStrategyError):
        raise
    except Exception as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def correlation_to_dict(corr: Correlation) -> dict:
    return {"n": corr.n, "k": corr.k, "table": corr.table.tolist()}


def correlation_from_dict(data: dict, where: str = "correlation") -> Correlation:
    n = _require(data, "n", where)
    k = _require(data, "k", where)
    table = _require(data, "table", where)
    try:
        arr = np.asarray(table, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"{where}.table: not a numeric array: {exc}") from exc
    try:
        return Correlation(n=int(n), k=int(k), table=arr)
    except Exception as exc:
        raise SerializationError(f"{where}: {exc}") from exc


# -- certificates ------------------------------------------------------------


def certificate_to_dict(
    cert: DilationCertificate, report: ResidualReport | None = None
) -> dict:
    residuals = {
        "state": cert.state_residual,
        "delta": cert.delta,
        "fitA": None
        if cert.fit_residuals_a is None
        else np.asarray(cert.fit_residuals_a, dtype=float).tolist(),
        "fitB": None
        if cert.fit_residuals_b is None
        else np.asarray(cert.fit_residuals_b, dtype=float).tolist(),
    }
    if report is not None:
        residuals.update(
            {
                "repA": report.rep_residual_a,
                "repB": report.rep_residual_b,
                "tracial": report.tracial_residual,
                "syncMax": report.sync_max,
                "cBound": report.c_bound,
            }
        )
    return {
        "epsilon": cert.epsilon,
        "alpha": cert.alpha,
        "beta": cert.beta,
        "gap": cert.gap,
        "VA": to_pairs(cert.v_a),
        "VB": to_pairs(cert.v_b),
        "junk": to_pairs(cert.junk),
        "dims": {
            "refA": cert.ref_dim_a,
            "refB": cert.ref_dim_b,
            "ancA": cert.anc_dim_a,
            "ancB": cert.anc_dim_b,
        },
        "residuals": residuals,
    }
