"""Certifying how close a strategy is to the canonical model of a family.

The pipeline: residual diagnostics quantify how nearly the measured
operators satisfy the defining relations of a projection family in the
state-weighted seminorm; an isometry is fitted that compresses each party
onto the reference family; the compressed state is projected onto the top
eigenspace of the family's correlation operator N = sum_v P_v kron P_v^T to
read off the junk state; and the final certificate reports the worst
residual of the local-dilation conditions.  Residuals are evaluated through
the vec identity on the stacks: a bipartite vector is its dim_a x dim_b
matrix M, on which X kron Y acts as X M Y^T (see linalg.vec).  M, the weights
rho_A, rho_B and the correlation come from the Strategy, Bob's target family
from ProjectionFamily.transposed; each owner derives them once.

The two d^2 x d^2 eigenproblems are solved without forming d^2 x d^2
matrices once they are large.  The spectral gap of N, which enters beta, is
ProjectionFamily.correlation_gap: measured matrix-free once per family, with
n_operator kept as the dense reference.  fit_isometry needs only the lowest
eigenpairs of its form: up to KRYLOV_MIN_ROWS rows it forms the matrix, takes
its eigenvalues alone and the wanted eigenvectors from linalg.lowest_eigvecs
(inverse iteration for a narrow band, one full eigh for a spread cluster);
above, it applies the form matrix-free to linalg.krylov_eigh.  Both paths
return phase-fixed eigenvectors, so they give the same isometry, and both
refuse a form whose solution eigenspace is not separated from the next
eigenvalue.

All certified quantities are measured, never assumed: every bound stored in
a certificate is recomputed from the returned isometries and junk state.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    FitDegenerateError,
    IntertwinerError,
    InvalidDimensionError,
    InvalidShapeError,
    InvalidStateError,
    InvalidStrategyError,
    InvalidReferenceError,
    JunkExtractionError,
    NotARepresentationError,
    SpectralDegeneracyError,
    UnsupportedOutcomeCountError,
)
from .families import ProjectionFamily, top_gap
from .linalg import (
    as_array,
    dagger,
    hermitian_eig,
    hermitian_spectrum,
    krylov_eigh,
    lowest_eigvecs,
    maximally_entangled,
    nearest_isometry,
    seminorm,
    unvec,
)
from .strategies import (
    Correlation,
    Strategy,
    correlation_distance,
    ideal_correlation,
    synchronicity_defect,
)

ALPHA_MIN = 0.1
PAIR_BUDGET = 1_000_000
# fit forms with more rows are solved matrix-free; measured crossover
KRYLOV_MIN_ROWS = 625
# relative to tr(rho), the scale of the fit form
FIT_SEPARATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# residual diagnostics


@dataclass(frozen=True)
class SyncReport:
    """Five agreement residuals per (question, outcome) with their budgets.

    values[v, i] holds, in order:
      0  ||(E kron I)psi - (I kron F)psi||
      1  ||(E kron I)psi - (E kron F)psi||
      2  ||(I kron F)psi - (E kron F)psi||
      3  ||(E - E^2) kron I psi||
      4  ||I kron (F - F^2) psi||
    budgets are (sqrt(delta),)*3 + (2 sqrt(delta),)*2 where delta is the
    1-norm distance to the synchronous reference.
    """

    values: np.ndarray
    budgets: np.ndarray
    delta: float

    @property
    def max_value(self) -> float:
        return float(self.values.max(initial=0.0))

    @property
    def within_budget(self) -> bool:
        return bool(np.all(self.values <= self.budgets[None, None, :]))


def sync_residuals(strategy: Strategy, reference: Correlation) -> SyncReport:
    """Agreement residuals of a strategy against a synchronous reference."""
    if synchronicity_defect(reference) > 1e-10:
        raise InvalidReferenceError("reference correlation is not synchronous")
    n, k = strategy.n_questions, strategy.n_outcomes
    if reference.table.shape != (n, n, k, k):
        raise InvalidReferenceError(
            f"reference shape {reference.table.shape} does not match the strategy"
        )
    delta = correlation_distance(strategy.correlation, reference)
    m = strategy.state_matrix
    e, f = strategy.alice, strategy.bob
    em = e @ m
    mft = m @ f.swapaxes(-1, -2)
    emft = e @ mft
    parts = (em - mft, em - emft, mft - emft, (e @ e - e) @ m, m @ (f @ f - f).swapaxes(-1, -2))
    values = np.linalg.norm(np.stack(parts, axis=2), axis=(-2, -1))
    root = np.sqrt(delta)
    budgets = np.array([root, root, root, 2 * root, 2 * root])
    return SyncReport(values=values, budgets=budgets, delta=delta)


def check_word_pairs(n: int, degree: int) -> None:
    """BudgetExceededError when the words of length 1..degree in n >= 1 letters
    make more than PAIR_BUDGET pairs.  The count stops once it passes the
    budget, within 1,001 lengths, so a huge degree is refused at once."""
    count = 0
    for length in range(1, degree + 1):
        count += n**length
        if count * count > PAIR_BUDGET:
            raise BudgetExceededError(
                f"words of length up to {degree} in {n} letters make over "
                f"{PAIR_BUDGET} pairs, the word-pair budget"
            )


def tracial_residual(strategy: Strategy, degree: int = 2, party: str = "alice") -> float:
    """Worst commutator defect |tr((W1 W2 - W2 W1) rho)| over short words.

    Words are products of the party's first-outcome operators with length
    1..degree; rho is that party's reduced state.  Raises
    InvalidDimensionError for a degree below 1, and BudgetExceededError when
    the pair count would exceed PAIR_BUDGET (check_word_pairs).
    """
    if degree < 1:
        raise InvalidDimensionError(f"monomial degree must be at least 1, got {degree}")
    check_word_pairs(strategy.n_questions, degree)
    if party not in ("alice", "bob"):
        raise InvalidStrategyError(f"party must be 'alice' or 'bob', got {party!r}")
    ops = getattr(strategy, party)[:, 0]
    rho = strategy.reduced_densities[party == "bob"]
    words = [ops]
    for _ in range(degree - 1):
        # word w followed by op o sits at index w * n + o
        words.append((words[-1][:, None] @ ops[None]).reshape(-1, *rho.shape))
    stacked = np.concatenate(words)
    weighted = stacked @ rho
    gram = np.einsum("iab,jba->ij", stacked, weighted)
    return float(np.abs(gram - gram.T).max())


@dataclass(frozen=True)
class ResidualReport:
    """How nearly a strategy's operators satisfy the family relations.

    rep_residual_a/b aggregate the seminorm defects of idempotency and of
    the scalar sum rule; they are guaranteed to stay below c_bound
    (= sqrt(n^2 + (1+2x) sqrt(delta)) * delta^(1/4)) whenever the induced
    correlation is delta-close to the synchronous target.
    """

    n: int
    x: Fraction
    delta: float
    c_bound: float
    idempotency_a: np.ndarray
    sum_residual_a: float
    idempotency_b: np.ndarray
    sum_residual_b: float
    sync: SyncReport
    tracial_a: float
    tracial_b: float
    monomial_degree: int

    @property
    def rep_residual_a(self) -> float:
        return max(float(self.idempotency_a.max(initial=0.0)), self.sum_residual_a)

    @property
    def rep_residual_b(self) -> float:
        return max(float(self.idempotency_b.max(initial=0.0)), self.sum_residual_b)

    @property
    def sync_max(self) -> float:
        return self.sync.max_value

    @property
    def tracial_residual(self) -> float:
        return max(self.tracial_a, self.tracial_b)

    @property
    def tracial_budget(self) -> float:
        # commutator words have combined length at most 2 * monomial_degree
        return 2.0 * (2 * self.monomial_degree) * np.sqrt(self.delta)

    @property
    def lemma35_pass(self) -> bool:
        return self.sync.within_budget

    @property
    def lemma63_pass(self) -> bool:
        return max(self.rep_residual_a, self.rep_residual_b) <= self.c_bound

    @property
    def tracial_pass(self) -> bool:
        return self.tracial_residual <= self.tracial_budget


def approx_rep_residuals(
    strategy: Strategy, x: Fraction | float, monomial_degree: int = 2
) -> ResidualReport:
    """Full residual diagnostics of a two-outcome strategy against (n, x)."""
    if strategy.n_outcomes != 2:
        raise UnsupportedOutcomeCountError("residual diagnostics need two outcomes")
    x = Fraction(x)
    n = strategy.n_questions
    sync = sync_residuals(strategy, ideal_correlation(n, x))
    delta = sync.delta
    c_bound = float(np.sqrt(n**2 + (1 + 2 * float(x)) * np.sqrt(delta)) * delta**0.25)
    rho_a, rho_b = strategy.reduced_densities
    xf = float(x)

    def side_residuals(povms, rho, dim):
        ops = povms[:, 0]
        total = ops.sum(axis=0) - xf * np.eye(dim)
        values = seminorm(np.concatenate([ops @ ops - ops, total[None]]), rho)
        return values[:-1], float(values[-1])

    idem_a, sum_a = side_residuals(strategy.alice, rho_a, strategy.dim_a)
    idem_b, sum_b = side_residuals(strategy.bob, rho_b, strategy.dim_b)
    tr_a = tracial_residual(strategy, degree=monomial_degree, party="alice")
    tr_b = tracial_residual(strategy, degree=monomial_degree, party="bob")
    return ResidualReport(
        n=n,
        x=x,
        delta=delta,
        c_bound=c_bound,
        idempotency_a=idem_a,
        sum_residual_a=sum_a,
        idempotency_b=idem_b,
        sum_residual_b=sum_b,
        sync=sync,
        tracial_a=tr_a,
        tracial_b=tr_b,
        monomial_degree=monomial_degree,
    )


# ---------------------------------------------------------------------------
# the correlation operator and spectral helpers


@dataclass(frozen=True)
class CorrelationOperator:
    """N = sum_v P_v kron P_v^T with its spectral data.

    For a valid family the top eigenvalue is x with a one-dimensional
    eigenspace spanned by the maximally entangled state; ``gap`` is the
    distance from the top eigenvalue to the rest of the spectrum.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    lambda_max: float
    gap: float
    top_vector: np.ndarray
    entangled_overlap: float


def n_operator(fam: ProjectionFamily) -> CorrelationOperator:
    """Assemble and diagonalize the family's correlation operator densely.

    The dense reference for ProjectionFamily.correlation_gap, which
    extract_dilation uses instead.
    """
    mat = sum(np.kron(p, p.T) for p in fam.projections)
    w, v = hermitian_eig(mat)
    gap = top_gap(w)
    top = v[:, 0]
    overlap = abs(np.vdot(maximally_entangled(fam.d), top))
    return CorrelationOperator(
        matrix=mat,
        spectrum=w,
        lambda_max=float(w[0]),
        gap=gap,
        top_vector=top,
        entangled_overlap=float(overlap),
    )


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


# ---------------------------------------------------------------------------
# intertwiners and isometry fitting


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


@dataclass(frozen=True)
class IsometryFit:
    """A fitted compression isometry with its measured residuals.

    ``isometry`` maps C^r into C^d kron C^s; residuals[v] is the weighted
    seminorm of E_v - V^* (P_v kron I_s) V.
    """

    isometry: np.ndarray
    s: int
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max(initial=0.0))


def _require_separation(w: np.ndarray, count: int, trace: float) -> None:
    """FitDegenerateError unless the ascending w[count - 1] < w[count] by
    more than FIT_SEPARATION_TOL * trace."""
    if w.size > count and w[count] - w[count - 1] <= FIT_SEPARATION_TOL * trace:
        raise FitDegenerateError(
            f"the fit form's eigenvalues {count} and {count + 1} are not separated "
            f"({w[count - 1]:.6e} vs {w[count]:.6e})"
        )


def fit_isometry(ops, fam: ProjectionFamily, rho) -> IsometryFit:
    """Least-squares isometry aligning measured operators with a family.

    Minimizes sum_v ||(P_v kron I_s) T - T E_v||^2 weighted by rho over
    matrices T (the quadratic form's lowest eigenvectors), then projects a
    solution onto the isometries by polar decomposition: the lowest
    eigenvector for s = 1, else one seeded draw projected onto the
    s^2-dimensional solution space.
    ``ops`` is an (n, r, r) stack, or a sequence of n equal-shape matrices.
    The ancilla dimension s is the least one with d s >= r, so that an
    isometry into C^(d s) exists.  A form of up to KRYLOV_MIN_ROWS rows is
    formed densely: its spectrum comes from linalg.hermitian_spectrum and
    only its s^2 lowest eigenvectors from linalg.lowest_eigvecs.  A larger
    one is solved matrix-free by linalg.krylov_eigh, whose basis budget
    raises BudgetExceededError before allocating.  Raises
    FitDegenerateError, before any eigenvector is computed on the dense
    path, when the lowest s^2 eigenvalues are not separated from the next
    one by FIT_SEPARATION_TOL * tr(rho): the solution would then be an
    arbitrary pick from a larger eigenspace, and when the solution's
    smallest singular value is at most 1e-8 of its largest.
    """
    ops = as_array(ops, 3, "ops")
    if ops.shape[1] != ops.shape[2]:
        raise InvalidShapeError("operators must share a square shape")
    if len(ops) != fam.n:
        raise InvalidShapeError(f"expected {fam.n} operators, got {len(ops)}")
    r = ops.shape[1]
    rho = as_array(rho, 2, "rho")
    if rho.shape != (r, r):
        raise InvalidShapeError(f"weight shape {rho.shape} does not match operators")
    d = fam.d
    s = max(1, -(-r // d))
    ds = d * s
    rows = r * ds
    count = s * s
    # The form is linear in rho, so adding a uniform ridge means: minimize
    # the rho-weighted residual, breaking ties in its null directions by the
    # unweighted residual.  Without it, a rank-deficient rho leaves the
    # eigensolver free to mix kernel junk into the solution block (the
    # mixing error scales like machine epsilon over the eigengap).
    lam = 1e-6
    trace = float(np.trace(rho).real)
    rho_reg = (rho + lam * (trace / r) * np.eye(r)) / (1.0 + lam)

    # On column-major vec(T) the form is T -> sum_v A_v T W_v + T C, with
    # A_v = P_v kron I_s, W_v = rho - E_v rho - rho E_v, C = sum_v E_v rho E_v;
    # W_v and C are made exactly Hermitian, so both paths solve one operator
    targets = np.kron(fam.projections, np.eye(s))
    er = ops @ rho_reg
    weights = rho_reg - er - dagger(er)
    weights = ((weights + dagger(weights)) / 2.0).swapaxes(-1, -2)
    c = (er @ ops).sum(axis=0)
    c_t = ((c + dagger(c)) / 2.0).T
    if rows <= KRYLOV_MIN_ROWS:
        # quad = sum_v W_v^T kron A_v + C^T kron I: one matmul over the
        # flattened stacks, C^T paired with the identity as one more term
        left = np.concatenate([weights, c_t[None]]).reshape(fam.n + 1, -1)
        right = np.concatenate([targets, np.eye(ds)[None]]).reshape(fam.n + 1, -1)
        quad = (left.T @ right).reshape(r, r, ds, ds).transpose(0, 2, 1, 3).reshape(rows, rows)
        w = hermitian_spectrum(quad)
        _require_separation(w, count, trace)
        vecs = lowest_eigvecs(quad, w, count)
    else:
        targets_t = targets.swapaxes(-1, -2)

        def negated_form(x):
            # a row is vec(T), which reshapes to T^T: apply the transposed map
            u = x.reshape(-1, r, ds)
            image = (weights[:, None] @ u @ targets_t[:, None]).sum(axis=0) + c_t @ u
            return -image.reshape(x.shape)

        # a block of s^2 + 1 measures whether the next eigenvalue coincides
        w, vecs = krylov_eigh(negated_form, rows, count + 1)
        w, vecs = -w, vecs[:, :count]
        _require_separation(w, count, trace)

    if count == 1:
        t = vecs[:, 0].reshape((ds, r), order="F")
    else:
        # any full-rank element of the solution space works: project one
        # fixed, reproducible draw onto it, which does not depend on the
        # basis the eigensolver returned
        rng = np.random.default_rng(7)
        draw = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        t = (vecs @ (vecs.conj().T @ draw)).reshape((ds, r), order="F")
    sv = np.linalg.svd(t, compute_uv=False)
    if sv[0] <= 0 or sv[-1] <= 1e-8 * sv[0]:
        raise FitDegenerateError("fitted map has a rank-deficient polar factor")
    v_iso = nearest_isometry(t)
    residuals = seminorm(ops - dagger(v_iso) @ targets @ v_iso, rho)
    return IsometryFit(isometry=v_iso, s=s, residuals=residuals)


# ---------------------------------------------------------------------------
# dilation certificates


@dataclass(frozen=True)
class DilationCertificate:
    """Measured witness that a reference strategy locally dilates a source.

    v_a maps the source's Alice space into (reference Alice space) kron
    (ancilla); likewise v_b.  ``epsilon`` is the worst of the 1 + 4 n^2
    dilation-condition residuals, evaluated with exactly these isometries
    and this junk state.
    """

    v_a: np.ndarray
    v_b: np.ndarray
    junk: np.ndarray
    ref_dim_a: int
    ref_dim_b: int
    anc_dim_a: int
    anc_dim_b: int
    epsilon: float
    alpha: float | None = None
    beta: float | None = None
    gap: float | None = None
    state_residual: float | None = None
    fit_residuals_a: np.ndarray | None = None
    fit_residuals_b: np.ndarray | None = None
    delta: float | None = None

    @property
    def source_dim_a(self) -> int:
        return int(self.v_a.shape[1])

    @property
    def source_dim_b(self) -> int:
        return int(self.v_b.shape[1])


def _dilation_residuals(
    strategy: Strategy,
    reference: Strategy,
    v_a: np.ndarray,
    v_b: np.ndarray,
    junk: np.ndarray,
) -> np.ndarray:
    """The state residual, then the (v, i, w, j) residuals in row-major order.

    With M, M0, J the matrices of the source state, reference state and junk:
    ||V_A M V_B^T - M0 kron J|| and ||V_A E M F^T V_B^T - (P M0 Q^T) kron J||.
    """
    da, db = reference.dim_a, reference.dim_b
    if v_a.shape[0] % da != 0 or v_b.shape[0] % db != 0:
        raise InvalidShapeError("isometry ranges are not multiples of the reference dims")
    ka = v_a.shape[0] // da
    kb = v_b.shape[0] // db
    if v_a.shape[1] != strategy.dim_a or v_b.shape[1] != strategy.dim_b:
        raise InvalidShapeError("isometry domains do not match the source strategy")
    if junk.size != ka * kb:
        raise InvalidShapeError(f"junk length {junk.size} != ancilla product {ka * kb}")
    junk_m = junk.reshape(ka, kb)
    m = strategy.state_matrix
    m0 = reference.state_matrix
    # the kron of two matrices is already in (ref, anc) x (ref, anc) order
    state = np.linalg.norm(v_a @ m @ v_b.T - np.kron(m0, junk_m))
    # [v, i, w, j] -> V_A E_vi M F_wj^T V_B^T and P_vi M0 Q_wj^T
    left = v_a @ strategy.alice @ m
    right = strategy.bob.swapaxes(-1, -2) @ v_b.T
    lifted = left[:, :, None, None] @ right[None, None]
    ref = (reference.alice @ m0)[:, :, None, None] @ reference.bob.swapaxes(-1, -2)[None, None]
    pairs = np.linalg.norm(lifted - np.kron(ref, junk_m), axis=(-2, -1))
    return np.concatenate([[state], pairs.reshape(-1)])


def dilation_epsilon(
    strategy: Strategy,
    reference: Strategy,
    v_a: np.ndarray,
    v_b: np.ndarray,
    junk: np.ndarray,
) -> float:
    """Worst dilation-condition residual for the given isometries and junk,
    each read by linalg.as_array, which raises InvalidShapeError."""
    if strategy.n_questions != reference.n_questions:
        raise InvalidStrategyError("question counts differ")
    if strategy.n_outcomes != reference.n_outcomes:
        raise InvalidStrategyError("outcome counts differ")
    v_a, v_b = as_array(v_a, 2, "v_a"), as_array(v_b, 2, "v_b")
    junk = as_array(junk, 1, "junk")
    return float(_dilation_residuals(strategy, reference, v_a, v_b, junk).max())


def extract_dilation(strategy: Strategy, fam: ProjectionFamily) -> DilationCertificate:
    """Fit isometries, read off the junk state, and certify the dilation.

    Each party's first-outcome operators are compressed onto the family
    (Bob against fam.transposed), weighted by the strategy's reduced
    densities; the compressed state is projected
    onto the top eigenspace of the correlation operator, and the remainder
    is normalized into the junk state.  The ancilla bases are rotated so the
    junk state comes out in Schmidt-diagonal form, which fixes the gauge
    freedom of the certificate.  Raises JunkExtractionError when the
    projected weight alpha is at or below ALPHA_MIN, read at call time.
    """
    if strategy.n_outcomes != 2:
        raise UnsupportedOutcomeCountError("dilation extraction needs two outcomes")
    if strategy.n_questions != fam.n:
        raise InvalidStrategyError(
            f"strategy has {strategy.n_questions} questions, family has {fam.n}"
        )
    rho_a, rho_b = strategy.reduced_densities
    fit_a = fit_isometry(strategy.alice[:, 0], fam, rho_a)
    fit_b = fit_isometry(strategy.bob[:, 0], fam.transposed, rho_b)
    gap = fam.correlation_gap
    d = fam.d
    sa, sb = fit_a.s, fit_b.s

    lifted = fit_a.isometry @ strategy.state_matrix @ fit_b.isometry.T
    junk_block = np.einsum("iaib->ab", lifted.reshape(d, sa, d, sb)) / np.sqrt(d)
    alpha = float(np.linalg.norm(junk_block))
    if alpha <= ALPHA_MIN:
        raise JunkExtractionError(
            f"projected weight alpha = {alpha:.3e} is at or below {ALPHA_MIN}"
        )
    u, sv, vh = np.linalg.svd(junk_block / alpha, full_matrices=True)
    # rotate ancillas so the junk state is Schmidt-diagonal; the dilation
    # residuals are invariant under this change of gauge
    g_a = u.conj().T
    g_b = vh.conj()
    v_a = np.kron(np.eye(d), g_a) @ fit_a.isometry
    v_b = np.kron(np.eye(d), g_b) @ fit_b.isometry
    junk = np.zeros(sa * sb, dtype=np.complex128)
    m = min(sa, sb)
    junk[np.arange(m) * sb + np.arange(m)] = sv[:m]

    reference = fam.canonical_strategy
    residuals = _dilation_residuals(strategy, reference, v_a, v_b, junk)
    delta = correlation_distance(strategy.correlation, ideal_correlation(fam.n, fam.x))
    eps_prime = max(fit_a.max_residual, fit_b.max_residual)
    # the spectral argument needs the correlation defect as well; folding it
    # into eps_prime makes the beta bound hold unconditionally
    eps_eff = max(eps_prime, delta)
    beta = float(np.sqrt(2.0 * (2 * fam.n + 1) * eps_eff / gap))
    return DilationCertificate(
        v_a=v_a,
        v_b=v_b,
        junk=junk,
        ref_dim_a=d,
        ref_dim_b=d,
        anc_dim_a=sa,
        anc_dim_b=sb,
        epsilon=float(residuals.max()),
        alpha=alpha,
        beta=beta,
        gap=gap,
        state_residual=float(residuals[0]),
        fit_residuals_a=fit_a.residuals,
        fit_residuals_b=fit_b.residuals,
        delta=delta,
    )


def compose_dilations(
    inner: DilationCertificate, outer: DilationCertificate
) -> DilationCertificate:
    """Chain two dilation certificates into one.

    ``inner`` exhibits the middle strategy as a dilation of the source,
    ``outer`` exhibits the final reference as a dilation of the middle one.
    The composed isometries are (V kron I) W, the junk states tensor, and
    the certified epsilon is the sum of the parts.
    """
    if inner.ref_dim_a != outer.source_dim_a or inner.ref_dim_b != outer.source_dim_b:
        raise InvalidShapeError(
            "middle strategy dimensions of the two certificates do not match"
        )
    ka1, kb1 = outer.anc_dim_a, outer.anc_dim_b
    ka2, kb2 = inner.anc_dim_a, inner.anc_dim_b
    v_a = np.kron(outer.v_a, np.eye(ka2)) @ inner.v_a
    v_b = np.kron(outer.v_b, np.eye(kb2)) @ inner.v_b
    junk = (
        np.kron(outer.junk, inner.junk)
        .reshape(ka1, kb1, ka2, kb2)
        .transpose(0, 2, 1, 3)
        .reshape(-1)
    )
    return DilationCertificate(
        v_a=v_a,
        v_b=v_b,
        junk=junk,
        ref_dim_a=outer.ref_dim_a,
        ref_dim_b=outer.ref_dim_b,
        anc_dim_a=ka1 * ka2,
        anc_dim_b=kb1 * kb2,
        epsilon=inner.epsilon + outer.epsilon,
    )


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
