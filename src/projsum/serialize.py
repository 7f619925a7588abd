"""JSON encoding of the package's machine artifacts.

Wire format: a complex scalar is a [real, imag] pair, and a complex array of
any rank is nested lists of such pairs: a vector is a list of pairs, a matrix
a list of row lists, a stack of matrices a list of matrices.  Documents are
written with sorted keys so repeated runs produce identical bytes.

The package reads the documents its commands read: a family, a strategy
and a sweep config.  Correlations, certificates and sweep reports are only
written.  Every reader goes through one check per kind: ``integral``,
``numbers`` (a rectangular array of JSON numbers) and ``from_pairs``, the
inverse of ``to_pairs``; ``from_fields`` applies the first two to a sweep
config's fields.  A string, a boolean or an integer beyond the float range is
bad input, named by the index of its entry.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, fields
from fractions import Fraction
from itertools import chain
from typing import get_type_hints

import numpy as np

from .errors import InvalidFamilyError, SerializationError
from .families import ProjectionFamily
from .selftest import DilationCertificate, ResidualReport
from .strategies import Strategy


def to_pairs(a) -> list:
    """Nested lists of an array of any rank, each complex entry a [real, imag] pair."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def integral(value, where: str) -> int:
    """A JSON integer, or a float with an integral value, as an int."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise SerializationError(f"{where}: not an integer: {value!r}")


def numbers(raw, depth: int, where: str, entry: int | None = None) -> np.ndarray:
    """float64 array of ``depth`` nested, rectangular, non-empty lists of JSON numbers.

    The first bad entry is named by its index cut to ``entry`` axes, so that
    ``from_pairs`` names the pair.  Depth 0 reads one number.
    """
    entry = depth if entry is None else entry
    level, shape = [raw], []

    def bad(p: int, problem: str):  # the index string is built only on failure
        index = "".join(f"[{i}]" for i in np.unravel_index(p, shape)[:entry])
        return SerializationError(f"{where}{index}: {problem}")

    for _ in range(depth):
        if set(map(type, level)) != {list}:
            p = next(p for p, r in enumerate(level) if type(r) is not list)
            raise bad(p, f"expected a list, got {level[p]!r}")
        width = len(level[0])
        if width == 0:
            raise bad(0, "expected a non-empty list")
        if set(map(len, level)) != {width}:
            p = next(p for p, r in enumerate(level) if len(r) != width)
            raise bad(p, f"length {len(level[p])}, expected {width}")
        shape.append(width)
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        p = next(p for p, t in enumerate(level) if type(t) not in (int, float))
        raise bad(p, f"not a number: {level[p]!r}")
    try:
        return np.array(level, dtype=np.float64).reshape(shape)
    except OverflowError as exc:  # float() rounds |t| >= 2**1024 - 2**970 past the largest float
        p = next(p for p, t in enumerate(level) if type(t) is int and abs(t) >= 2**1024 - 2**970)
        raise bad(p, str(exc)) from exc


def from_pairs(raw, rank: int, where: str) -> np.ndarray:
    """The complex128 array of rank ``rank`` that ``to_pairs`` wrote, bit for bit.

    A float64 view of the pairs keeps every bit, a -0.0 part included.
    """
    pairs = numbers(raw, rank + 1, where, entry=rank)
    if pairs.shape[-1] != 2:
        raise SerializationError(f"{where}: entries are not [real, imag] pairs")
    return pairs.view(np.complex128)[..., 0]


def from_fields(cls, data: dict, where: str):
    """cls(**data) for a dataclass: every field without a default and no other
    key; an ``int`` field is read by ``integral``, a ``tuple[float, ...]`` by
    ``numbers``, and any other is passed on for cls to check."""
    if not isinstance(data, dict):
        raise SerializationError(f"{where}: expected an object")
    kinds = get_type_hints(cls)
    missing = sorted({f.name for f in fields(cls) if f.default is MISSING} - set(data))
    if missing:
        raise SerializationError(f"{where} is missing fields: {missing}")
    if set(data) - set(kinds):
        raise SerializationError(f"{where} has unknown fields: {sorted(set(data) - set(kinds))}")
    values = {}
    for name, value in data.items():
        kind, at = kinds[name], f"{where} field {name!r}"
        if kind is int:
            value = integral(value, at)
        elif kind == tuple[float, ...]:
            value = numbers(value, 1, at)
        values[name] = value
    return cls(**values)


def lists_to_matrix(rows, where: str = "matrix") -> np.ndarray:
    return from_pairs(rows, 2, where)


def lists_to_vector(vals, where: str = "vector") -> np.ndarray:
    return from_pairs(vals, 1, where)


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


def family_from_dict(data: dict) -> ProjectionFamily:
    n, x, d, projections = (_require(data, key, "family") for key in ("n", "x", "d", "projections"))
    if type(x) is not list or len(x) != 2 or x[1] == 0:
        raise SerializationError("family.x: expected [numerator, denominator]")
    try:
        return ProjectionFamily(
            n=integral(n, "family.n"),
            x=Fraction(integral(x[0], "family.x[0]"), integral(x[1], "family.x[1]")),
            d=integral(d, "family.d"),
            projections=from_pairs(projections, 3, "family.projections"),
        )
    except InvalidFamilyError as exc:
        raise SerializationError(f"family: {exc}") from exc


# -- strategies and correlations --------------------------------------------


def strategy_to_dict(strategy: Strategy) -> dict:
    return {
        "dimA": strategy.dim_a,
        "dimB": strategy.dim_b,
        "state": to_pairs(strategy.state),
        "alice": to_pairs(strategy.alice),
        "bob": to_pairs(strategy.bob),
    }


def strategy_from_dict(data: dict) -> Strategy:
    dim_a, dim_b, state, alice, bob = (
        _require(data, key, "strategy") for key in ("dimA", "dimB", "state", "alice", "bob")
    )
    return Strategy(
        state=from_pairs(state, 1, "strategy.state"),
        dim_a=integral(dim_a, "strategy.dimA"),
        dim_b=integral(dim_b, "strategy.dimB"),
        alice=from_pairs(alice, 4, "strategy.alice"),
        bob=from_pairs(bob, 4, "strategy.bob"),
    )


def correlation_to_dict(table: np.ndarray) -> dict:
    return {"n": table.shape[0], "k": table.shape[2], "table": table.tolist()}


# -- certificates ------------------------------------------------------------


def certificate_to_dict(
    cert: DilationCertificate, report: ResidualReport | None = None
) -> dict:
    residuals = {
        "state": cert.state_residual,
        "delta": cert.delta,
        "fitA": cert.fit_residuals_a.tolist(),
        "fitB": cert.fit_residuals_b.tolist(),
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
