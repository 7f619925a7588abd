"""Finite families of projections summing to a scalar multiple of identity.

A family is n Hermitian idempotents P_1..P_n in M_d with
sum_v P_v = x * I_d.  For n = 3 the only admissible scalar is 3/2; for
n >= 4 the admissible scalars form the increasing rational sequence

    x_0 = 0,     x_{l+1} = 1 + 1 / (n - 1 - x_l),

kept exact here with Fraction arithmetic.  Two concrete constructions are
provided: rank-one families built from the vertices of a regular simplex
(one per n >= 3), and for every n >= 4 an inductive ladder that climbs the
scalar sequence from the simplex, multiplying the dimension by n - 1 - x
per step.  Every function here works on a family's (n, d, d) stack whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    InvalidFamilyError,
    SpectralDegeneracyError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from .linalg import KRYLOV_BUDGET, as_array, dagger, fix_phases, krylov_eigh, null_space

PROJECTION_TOL = 1e-9
# relative to max(1, top eigenvalue)
GAP_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class ProjectionFamily:
    """n projections in M_d summing to x * I_d.

    d is the ambient matrix dimension; for the canonical constructions it
    equals the denominator of x in lowest terms.  The constructor reads each
    projection with linalg.as_array and stores one read-only C-ordered
    complex128 copy of them, of shape (n, d, d), so the quantities cached
    below stay true to it.
    """

    n: int
    x: Fraction
    d: int
    projections: np.ndarray

    def __post_init__(self):
        n, d = self.n, self.d
        if n < 1 or len(self.projections) != n:
            raise InvalidFamilyError(f"expected {n} projections, got {len(self.projections)}")
        # a sum of n projections is x I only for x in [0, n]; checked first, so
        # a scalar too large for a float never reaches validate_family
        if not 0 <= self.x <= n:
            raise InvalidFamilyError(f"scalar x must lie in [0, n] = [0, {n}]")
        for v, p in enumerate(self.projections):
            p = as_array(p, 2, f"projection {v}", InvalidFamilyError)
            if p.shape != (d, d):
                raise InvalidFamilyError(f"projection of shape {p.shape} does not match d={d}")
            if v == 0:  # the declared d is believed only once a projection has it
                stack = np.empty((n, d, d), dtype=np.complex128)
            stack[v] = p
        stack.flags.writeable = False
        object.__setattr__(self, "projections", stack)

    @cached_property
    def correlation_gap(self) -> float:
        """Gap below the top eigenvalue of N = sum_v P_v kron P_v^T, measured once.

        N acts on vec(X) as X -> sum_v P_v X P_v (see linalg.vec): a block-2
        Krylov solve finds its top two eigenpairs without forming it, and
        raises SpectralDegeneracyError on a degenerate top eigenvalue.  As
        sum_v P_v = x I, the gap is sum_v ||P_v T (I - P_v)||^2 = <T, (x I - N) T>
        for the second Ritz vector T, projected off I: no difference of
        eigenvalues cancels digits.  selftest.n_operator is the dense reference.
        """
        d, p = self.d, self.projections
        stack = p[:, None]

        def apply(rows):
            return (stack @ rows.reshape(-1, d, d) @ stack).sum(axis=0).reshape(rows.shape)

        w, v, _ = krylov_eigh(apply, d * d, count=2)
        top_gap(w)
        t = v[:, 1].reshape(d, d)
        t = t - np.trace(t) / d * np.eye(d)
        pt = p @ (t / np.linalg.norm(t))
        return float(np.linalg.norm(pt - pt @ p) ** 2)

    @cached_property
    def transposed(self) -> ProjectionFamily:
        """The entrywise transpose of every projection, same n, x and d, built once."""
        return ProjectionFamily(self.n, self.x, self.d, self.projections.swapaxes(1, 2))

    @cached_property
    def canonical_strategy(self):
        """strategies.canonical_strategy of this family, built once."""
        from .strategies import canonical_strategy  # strategies imports this module

        return canonical_strategy(self)


def top_gap(w: np.ndarray) -> float:
    """w[0] - w[1] of a descending spectrum; SpectralDegeneracyError if the
    top eigenvalue is not simple at GAP_DEGENERACY_TOL."""
    if w.size < 2 or w[1] > w[0] - GAP_DEGENERACY_TOL * max(1.0, abs(float(w[0]))):
        raise SpectralDegeneracyError("top eigenspace is degenerate at tolerance")
    return float(w[0] - w[1])


@dataclass(frozen=True)
class FamilyReport:
    """Residuals and derived data from validate_family."""

    n: int
    d: int
    x: Fraction
    hermiticity: np.ndarray      # per projection, Frobenius
    idempotency: np.ndarray      # per projection, Frobenius
    sum_residual: float          # ||sum P_v - x I||_F
    ranks: tuple[int, ...]       # eigenvalue counts above 1/2
    expected_rank: int | None    # x*d/n when integral, else None
    trace_table: np.ndarray      # normalized tr(P_v P_w) / d
    trace_deviation: float       # max deviation from the two predicted values
    tol: float

    @property
    def passed(self) -> bool:
        ranks_ok = self.expected_rank is None or all(
            r == self.expected_rank for r in self.ranks
        )
        return bool(
            self.hermiticity.max(initial=0.0) <= self.tol
            and self.idempotency.max(initial=0.0) <= self.tol
            and self.sum_residual <= self.tol
            and self.trace_deviation <= self.tol
            and ranks_ok
        )


def _next_scalar(n: int, x: Fraction) -> Fraction:
    """The admissible scalar after x for n >= 4 questions."""
    return 1 + Fraction(1, n - 1 - x)


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


def scalar_is_admissible(n: int, x: Fraction) -> bool:
    """Exact membership test for x in the admissible scalar set of n."""
    if n < 3:
        raise UnsupportedQuestionCountError(f"need n >= 3, got {n}")
    x = Fraction(x)
    if n == 3:
        return x == Fraction(3, 2)
    if x < 0:
        return False
    # the sequence increases toward the smaller root of t^2 - n t + n,
    # so anything at or beyond that root is out of reach
    if x * x - n * x + n <= 0 or 2 * x >= n:
        return False
    current = Fraction(0)
    while current < x:
        current = _next_scalar(n, current)
    return current == x


def simplex_vertices(n: int) -> np.ndarray:
    """Unit vertices of a regular simplex in R^(n-1), one per row.

    The first vertex is e_1; the others share first coordinate -1/(n-1) and
    are an (n-1)-vertex simplex scaled by c_n = sqrt(1 - 1/(n-1)^2).  So
    column j holds 1 on the diagonal and -1/(n-1-j) below it, both scaled by
    c_m for m = n-j+1..n.  Pairwise inner products are -1/(n-1).
    """
    if n < 2:
        raise UnsupportedQuestionCountError(f"need n >= 2, got {n}")
    diag = np.ones(n - 1)
    below = -1.0 / np.arange(n - 1, 0, -1)
    for m in range(3, n + 1):
        c = np.sqrt(1.0 - 1.0 / (m - 1) ** 2)
        diag[n - m + 1:] *= c
        below[n - m + 1:] *= c
    out = np.tril(np.broadcast_to(below, (n, n - 1)), -1)
    np.fill_diagonal(out, diag)
    return out


def simplex_family(n: int) -> ProjectionFamily:
    """n rank-one projections in M_(n-1) summing to (n/(n-1)) * I."""
    if n < 3:
        raise UnsupportedQuestionCountError(f"need n >= 3, got {n}")
    verts = simplex_vertices(n)
    projs = verts[:, :, None] * verts[:, None, :]
    return ProjectionFamily(n=n, x=Fraction(n, n - 1), d=n - 1, projections=projs)


def ladder_step(fam: ProjectionFamily) -> ProjectionFamily:
    """One rung up the ladder of n >= 4 projections: x -> 1 + 1/(n - 1 - x).

    Given projections of rank xd/n in M_d, stack orthonormal range bases of
    the complements Q_v = I - P_v (rank d - xd/n each) into a wide matrix,
    take an orthonormal basis of its null space, of dimension d(n - 1 - x),
    slice it back into n blocks R_v, and rescale R_v R_v^* to the new
    projections.  This is the functor of Kruglyak, Rabanovich & Samoilenko,
    "On sums of projections", Funct. Anal. Appl. 36 (2002).
    """
    n, x, d = fam.n, fam.x, fam.d
    if n < 4:
        raise InvalidFamilyError(f"the ladder is defined for n >= 4, got n = {n}")
    rank = x * d / n
    if rank.denominator != 1 or not 0 <= rank < d:
        raise InvalidFamilyError(f"scalar {x} gives no rank in 0..d-1 at d = {d}")
    if not validate_family(fam, tol=1e-8).passed:
        raise InvalidFamilyError("input family fails validation at 1e-8")
    return _ladder_step(fam)


def _ladder_step(fam: ProjectionFamily) -> ProjectionFamily:
    """ladder_step on a family already checked; validates only the rung it builds."""
    n, x, d = fam.n, fam.x, fam.d
    c = d - int(x * d / n)
    u, s, _ = np.linalg.svd(np.eye(d, dtype=np.complex128) - fam.projections)
    cols = np.count_nonzero(s > 0.5, axis=1)
    if (cols != c).any():
        raise DegenerateInputError(f"complement rank {cols[cols != c][0]}, expected {c}")
    # the n range bases side by side, d x n c; fix_phases acts per column
    gamma1 = fix_phases(u[:, :, :c].transpose(1, 0, 2).reshape(d, n * c))
    kernel = null_space(gamma1)                     # columns
    d_out = n * c - d                               # = d (n - 1 - x)
    if kernel.shape[1] != d_out:
        raise DegenerateInputError(f"null space dimension {kernel.shape[1]}, expected {d_out}")
    # the rows of kernel^T sliced into n blocks R_v of c columns each
    blocks = kernel.T.reshape(d_out, n, c).transpose(1, 0, 2)
    x_new = _next_scalar(n, x)
    # each block satisfies R^* R = ((n - 1 - x)/(n - x)) I, so this rescale
    # makes R R^* idempotent and the n blocks sum to x_new * I
    projs = float(x_new) * (blocks @ dagger(blocks))
    out = ProjectionFamily(n=n, x=x_new, d=d_out, projections=projs)
    if not validate_family(out, tol=1e-8).passed:
        raise DegenerateInputError("constructed family fails validation at 1e-8")
    return out


def ladder_family(n: int, level: int) -> ProjectionFamily:
    """Rung ``level`` of the ladder of n projections, with scalar x_level.

    Level 1 is simplex_family(n), with scalar n/(n-1) in M_(n-1); each higher
    level applies ladder_step, which takes d to d(n - 1 - x).  n = 3 has
    level 1 only.  The dimensions are first run through exactly, and
    BudgetExceededError is raised before anything is built once a rung's
    n d^2 entries would exceed linalg.KRYLOV_BUDGET.
    """
    if n < 3:
        raise UnsupportedQuestionCountError(f"need n >= 3, got {n}")
    if level < 1:
        raise UnsupportedScalarError(f"need k >= 1, got {level}")
    if n == 3 and level > 1:
        raise UnsupportedScalarError(f"n = 3 has one admissible scalar, so no level k = {level}")
    x, d = Fraction(n, n - 1), Fraction(n - 1)
    for rung in range(1, level + 1):
        if n * d * d > KRYLOV_BUDGET:
            raise BudgetExceededError(
                f"level {rung} of the n = {n} ladder has d = {d}: its {n} d^2 entries "
                f"exceed the {KRYLOV_BUDGET}-entry budget"
            )
        x, d = _next_scalar(n, x), d * (n - 1 - x)
    fam = simplex_family(n)
    if level > 1:  # validates the simplex; every later rung once, as it is built
        fam = ladder_step(fam)
    for _ in range(level - 2):
        fam = _ladder_step(fam)
    return fam


def four_family(k: int) -> ProjectionFamily:
    """Rank-k family of four projections in M_(2k+1) with scalar 4k/(2k+1):
    ladder_family(4, k), whose k = 1 is the tetrahedron family."""
    return ladder_family(4, k)


def validate_family(fam: ProjectionFamily, tol: float = PROJECTION_TOL) -> FamilyReport:
    """Measure every structural invariant; never raises, the report decides.

    Checks hermiticity and idempotency per projection, the scalar sum
    identity, ranks against x*d/n, and the pairwise normalized trace table
    against its two predicted values x/n and x(x-1)/(n(n-1)).
    """
    n, d, x = fam.n, fam.d, fam.x
    p = fam.projections
    herm = np.linalg.norm(p - dagger(p), axis=(1, 2))
    idem = np.linalg.norm(p @ p - p, axis=(1, 2))
    sum_residual = float(np.linalg.norm(p.sum(axis=0) - float(x) * np.eye(d)))
    ranks = tuple((np.linalg.eigvalsh((p + dagger(p)) / 2) > 0.5).sum(axis=1).tolist())
    xd = x * d
    expected_rank = None
    if xd.denominator == 1 and xd.numerator % n == 0:
        expected_rank = int(xd.numerator // n)
    # one row of products at a time keeps the peak at n d^2 entries, not n^2 d^2
    table = np.array([np.trace(pv @ p, axis1=1, axis2=2).real for pv in p]) / d
    target = np.full((n, n), float(x * (x - 1)) / (n * (n - 1)))
    np.fill_diagonal(target, float(x) / n)
    dev = np.abs(table - target).max(initial=0.0)
    return FamilyReport(
        n=n,
        d=d,
        x=x,
        hermiticity=herm,
        idempotency=idem,
        sum_residual=sum_residual,
        ranks=ranks,
        expected_rank=expected_rank,
        trace_table=table,
        trace_deviation=float(dev),
        tol=tol,
    )
