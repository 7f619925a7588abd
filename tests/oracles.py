"""Reference helpers the tests check the package against; no command runs them.

* ``find_intertwiner``: the unitary between two exact representations of a
  family, from ``fit_isometry``'s unweighted square case; the reference
  that a stored rung reproduces the ladder's family up to unitary
* ``eigvec_overlap_bound``: a vector's measured weight on the top
  eigenspace next to its spectral lower bound, the inequality behind beta
* ``aligned_junk_fidelity``: two ancilla states compared modulo the local
  unitary gauge, for junk recovered from planted and composed dilations
* ``compose_dilations``: the isometries and junk state of two chained
  dilations, which the tests measure with ``dilation_epsilon``; the package
  builds no certificate but ``extract_dilation``'s
* ``max_residual``: the worst of a fit's residuals
* ``spearman``: the rank correlation of the noise-robustness trend
* ``lambda_sequence``: the admissible scalars listed by their recurrence,
  the reference for ``scalar_is_admissible`` and the ladder's x
* ``partial_trace`` and ``state_seminorm``: the reduced densities and the
  state-weighted seminorm as their definitions state them, the references
  for ``reduced_densities`` and the residuals' ``||X M||_F``
* ``schmidt_reconstruct``: the vector a ``SchmidtDecomposition`` sums to
* ``stack_strategies``: strategies of one shape as one ``StrategyStack``
* ``random_unitary`` and ``random_hermitian``: seeded draws for planted
  strategies and gauge changes; ``perturb``'s ``povm-jitter`` makes the
  draws of one ``random_hermitian`` per question
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from projsum.errors import (
    FitDegenerateError,
    InvalidShapeError,
    InvalidStateError,
    ProjsumError,
    SerializationError,
    SpectralDegeneracyError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from projsum.families import ProjectionFamily, _next_scalar
from projsum.linalg import SchmidtDecomposition, as_array, dagger, hermitian_eig, unvec
from projsum.selftest import IsometryFit, fit_isometry
from projsum.strategies import StrategyStack


class NotARepresentationError(ProjsumError, RuntimeError):
    """The intertwiner solution space has the wrong dimension."""


class IntertwinerError(ProjsumError, RuntimeError):
    """An assembled intertwiner fails its unitarity or conjugation check."""


# --- from projsum.selftest


def eigvec_overlap_bound(a, xi) -> tuple[float, float]:
    """Measured top-eigenspace weight of xi and its spectral lower bound.

    Returns (||Q1 xi||^2, 1 - (l1 - <A xi, xi>) / (l1 - l2)) where Q1
    projects onto the top eigenvalue cluster and l2 is the next distinct
    eigenvalue.  Requires unit xi and at least two distinct eigenvalues.
    """
    w, v = hermitian_eig(a)
    xi = as_array(xi, 1, "xi")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-9:
        raise InvalidStateError("xi must be a unit vector")
    if xi.size != w.size:
        raise InvalidShapeError("xi length does not match the matrix")
    scale = max(1.0, float(np.abs(w).max()))
    top = w >= w[0] - 1e-8 * scale
    if bool(top.all()):
        raise SpectralDegeneracyError("all eigenvalues coincide at tolerance")
    l1 = float(w[0])
    l2 = float(w[~top][0])
    q1 = v[:, top]
    lhs = float(np.linalg.norm(q1.conj().T @ xi) ** 2)
    expectation = float(np.real(np.vdot(xi, as_array(a, 2, "a") @ xi)))
    rhs = 1.0 - (l1 - expectation) / (l1 - l2)
    return lhs, rhs


def find_intertwiner(fam: ProjectionFamily, candidate, tol: float = 1e-8) -> np.ndarray:
    """Unitary U with U R_v U^* = P_v kron I_s for an exact representation.

    ``candidate`` holds n projections R_v in M_r, where d | r and s = r/d.
    With r = d s the unweighted isometry fit (rho = I/r) is square, and for
    an exact representation its solution is such a U.  Operators that are
    not matrices of one square shape raise InvalidShapeError.  A wrong count
    or dimension, or a fit whose solution space is not s^2-dimensional,
    raises NotARepresentationError; a conjugation residual above tol raises
    IntertwinerError.
    """
    d, n = fam.d, fam.n
    ops = as_array(candidate, 3, "candidate")
    if ops.shape[1] != ops.shape[2]:
        raise InvalidShapeError("candidate operators must share a square shape")
    if len(ops) != n:
        raise NotARepresentationError(f"expected {n} candidate operators, got {len(ops)}")
    r = ops.shape[1]
    if r % d != 0:
        raise NotARepresentationError(f"family dimension {d} does not divide {r}")
    try:
        fit = fit_isometry(ops, fam, np.eye(r) / r)
    except FitDegenerateError as exc:
        raise NotARepresentationError(f"no unique intertwiner space: {exc}") from exc
    u = fit.isometry
    conjugated = u @ ops @ dagger(u)
    targets = np.kron(fam.projections, np.eye(fit.s))
    worst = float(np.linalg.norm(conjugated - targets, axis=(1, 2)).max())
    if worst > tol:
        raise IntertwinerError(f"conjugation residual {worst:.3e} exceeds {tol:.1e}")
    return u


def aligned_junk_fidelity(
    junk_1, dims_1: tuple[int, int], junk_2, dims_2: tuple[int, int]
) -> float:
    """Fidelity of two ancilla states, maximized over local basis changes.

    Certificates fix their ancilla bases only up to local unitaries, so the
    meaningful comparison is max over G_A, G_B of |<(G_A kron G_B) u, v>|,
    which equals the inner product of the Schmidt coefficient vectors.
    """
    s1 = np.linalg.svd(unvec(junk_1, dims_1), compute_uv=False)
    s2 = np.linalg.svd(unvec(junk_2, dims_2), compute_uv=False)
    m = min(s1.size, s2.size)
    return float(np.dot(s1[:m], s2[:m]))


def compose_dilations(inner, outer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The isometries and junk state (v_a, v_b, junk) of two chained dilations.

    ``inner`` exhibits a middle strategy as a dilation of a source, and
    ``outer`` the reference as a dilation of the middle one; each is a
    DilationCertificate, or any object with its v_a, v_b, junk, anc_dim_a and
    anc_dim_b.  The composed isometries are (V kron I) W and the junk states
    tensor, reordered so the outer ancilla comes first on each side.  Middle
    dimensions that differ raise InvalidShapeError.
    """
    ka1, kb1 = outer.anc_dim_a, outer.anc_dim_b
    ka2, kb2 = inner.anc_dim_a, inner.anc_dim_b
    middle_a, middle_b = outer.v_a.shape[1], outer.v_b.shape[1]
    if inner.v_a.shape[0] != middle_a * ka2 or inner.v_b.shape[0] != middle_b * kb2:
        raise InvalidShapeError("middle strategy dimensions of the two certificates do not match")
    v_a = np.kron(outer.v_a, np.eye(ka2)) @ inner.v_a
    v_b = np.kron(outer.v_b, np.eye(kb2)) @ inner.v_b
    junk = np.kron(outer.junk, inner.junk).reshape(ka1, kb1, ka2, kb2).transpose(0, 2, 1, 3)
    return v_a, v_b, junk.reshape(-1)


def max_residual(fit: IsometryFit) -> float:
    """The worst of a fit's residuals."""
    return float(fit.residuals.max(initial=0.0))


# --- from projsum.sweep


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks on ties.

    Both sequences are read by linalg.as_array, which raises SerializationError.
    """
    xs = as_array(xs, 1, "xs", SerializationError, dtype=float)
    ys = as_array(ys, 1, "ys", SerializationError, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise SerializationError("need two sequences of equal length >= 2")

    def ranks(a):
        order = np.argsort(a, kind="stable")
        r = np.empty(a.size)
        r[order] = np.arange(1, a.size + 1)
        for val in np.unique(a):
            mask = a == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


# --- from projsum.families


def lambda_sequence(n: int, count: int = 1) -> list[Fraction]:
    """First ``count`` admissible scalars for n questions, exactly.

    For n = 3 the single admissible value 3/2 is returned regardless of
    count.  For n >= 4 the sequence starts at 0 and increases strictly.
    """
    if n < 3:
        raise UnsupportedQuestionCountError(f"need n >= 3, got {n}")
    if count < 1:
        raise UnsupportedScalarError(f"count must be positive, got {count}")
    if n == 3:
        return [Fraction(3, 2)]
    seq = [Fraction(0)]
    while len(seq) < count:
        seq.append(_next_scalar(n, seq[-1]))
    return seq


# --- from projsum.linalg


def partial_trace(rho, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Trace out one factor of a density-like matrix on C^da tensor C^db."""
    m = as_array(rho, 2, "rho")
    da, db = dims
    if da <= 0 or db <= 0 or m.shape != (da * db, da * db):
        raise InvalidShapeError(f"matrix of shape {m.shape} does not match dims {dims}")
    r = m.reshape(da, db, da, db)
    side = keep.upper()
    if side == "A":
        return np.einsum("abcb->ac", r)
    if side == "B":
        return np.einsum("abad->bd", r)
    raise InvalidShapeError(f"keep must be 'A' or 'B', got {keep!r}")


def state_seminorm(x, psi, dims: tuple[int, int], side: str = "A") -> float:
    """Seminorm of a one-sided operator against a bipartite state.

    side='A' gives ||(X kron I) psi||, side='B' gives ||(I kron X) psi||;
    both equal the seminorm weighted by the matching reduced density.
    """
    m = unvec(psi, dims)
    xm = as_array(x, 2, "x")
    if side.upper() == "A":
        return float(np.linalg.norm(xm @ m))
    return float(np.linalg.norm(m @ xm.T))


def schmidt_reconstruct(dec: SchmidtDecomposition) -> np.ndarray:
    """The vector sum_l coefficients[l] left[:, l] kron right[:, l]."""
    return np.einsum("l,al,bl->ab", dec.coefficients, dec.left, dec.right).reshape(-1)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style random Hermitian matrix with O(1) entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- from projsum.strategies


def stack_strategies(strategies) -> StrategyStack:
    """The strategies, all of one shape, as one stack."""
    names = ("state", "alice", "bob")
    state, alice, bob = (np.stack([getattr(s, name) for s in strategies]) for name in names)
    return StrategyStack(state, strategies[0].dim_a, strategies[0].dim_b, alice, bob)
