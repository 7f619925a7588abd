"""Certifying how close a strategy is to the canonical model of a family.

The pipeline, each stage taking the strategy and the ProjectionFamily it is
audited against, with one shared precondition (_audit_delta): residual
diagnostics quantify how nearly the measured operators satisfy the family's
relations in the state-weighted seminorm; an isometry is fitted that
compresses each party onto the family; the compressed state is projected
onto the top eigenspace of the family's correlation operator
N = sum_v P_v kron P_v^T to read off the junk state; and the final
certificate reports the worst residual of the local-dilation conditions.
Residuals are evaluated through the vec identity on the stacks: a bipartite
vector is its dim_a x dim_b matrix M, on which X kron Y acts as X M Y^T (see
linalg.vec), and a state-weighted seminorm sqrt(tr(X^* X rho_A)) with
rho_A = M M^* is ||X M||_F.  M, the weights rho_A, rho_B and the correlation
come from the Strategy, Bob's target family from ProjectionFamily.transposed;
each owner derives them once.

The two d^2 x d^2 eigenproblems are solved without forming d^2 x d^2
matrices once they are large.  The spectral gap of N, which enters beta, is
ProjectionFamily.correlation_gap: measured matrix-free once per family, as a
sum of squares on an eigenvector, not a difference of eigenvalues, with
n_operator kept as the dense reference.  fit_isometry needs only the s
lowest eigenpairs of its form on one d x r ancilla row block (s is the
ancilla dimension): up to KRYLOV_MIN_ROWS rows it forms the matrix, takes
its eigenvalues alone and the wanted eigenvectors from linalg._lowest_eigvecs
(inverse iteration for one, one full eigh for more); above, it applies the
form matrix-free to linalg.krylov_eigh, with one guard pair beyond the s
wanted ones.  Both paths return phase-fixed eigenvectors, so they give the
same isometry, and both refuse a form whose solution eigenspace is not
separated from the next eigenvalue; the matrix-free path converges the
guard pair only to linalg.KRYLOV_GUARD_TOL and takes the residual the
solver measured on it off the separation it tests.

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
    JunkExtractionError,
    NotARepresentationError,
    SpectralDegeneracyError,
    UnsupportedOutcomeCountError,
)
from .families import ProjectionFamily, top_gap
from .linalg import (
    _hermitian_spectrum,
    _lowest_eigvecs,
    _seminorm,
    as_array,
    dagger,
    hermitian_eig,
    krylov_eigh,
    maximally_entangled,
    unvec,
)
from .strategies import Strategy, correlation_distance, ideal_correlation

ALPHA_MIN = 0.1
PAIR_BUDGET = 1_000_000
# fit forms with more rows are solved matrix-free; measured crossover
KRYLOV_MIN_ROWS = 441
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
    1-norm distance to the family's synchronous correlation p_{n,x}.
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


def _audit_delta(strategy: Strategy, fam: ProjectionFamily) -> float:
    """delta = ||p - p_{n,x}||_1, with p_{n,x} = ideal_correlation(fam.n, fam.x).

    The audits' one precondition comes first: a strategy without two outcomes
    raises UnsupportedOutcomeCountError, one without fam.n questions
    InvalidStrategyError.
    """
    n, k = strategy.n_questions, strategy.n_outcomes
    if k != 2:
        raise UnsupportedOutcomeCountError(f"strategy has {k} outcomes, the audits need 2")
    if n != fam.n:
        raise InvalidStrategyError(f"strategy has {n} questions, family has {fam.n}")
    return correlation_distance(strategy.correlation, ideal_correlation(fam.n, fam.x))


def sync_residuals(strategy: Strategy, fam: ProjectionFamily) -> SyncReport:
    """Agreement residuals of a strategy against the family's p_{n,x}."""
    delta = _audit_delta(strategy, fam)
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
    """How nearly a strategy's operators satisfy the relations of its family.

    A view of its SyncReport: delta is sync's, and rep_residual_a/b aggregate
    the idempotency defects (sync's outcome-0 columns 3 and 4) with the sum
    rule's ||(sum_v E_v - x I) M||; they are guaranteed to stay below c_bound
    (= sqrt(n^2 + (1+2x) sqrt(delta)) * delta^(1/4)) whenever the induced
    correlation is delta-close to the family's p_{n,x}.
    """

    n: int
    x: Fraction
    sync: SyncReport
    sum_residual_a: float
    sum_residual_b: float
    tracial_a: float
    tracial_b: float
    monomial_degree: int

    @property
    def delta(self) -> float:
        return self.sync.delta

    @property
    def c_bound(self) -> float:
        xf, delta = float(self.x), self.delta
        return float(np.sqrt(self.n**2 + (1 + 2 * xf) * np.sqrt(delta)) * delta**0.25)

    @property
    def rep_residual_a(self) -> float:
        return max(float(self.sync.values[:, 0, 3].max(initial=0.0)), self.sum_residual_a)

    @property
    def rep_residual_b(self) -> float:
        return max(float(self.sync.values[:, 0, 4].max(initial=0.0)), self.sum_residual_b)

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
    strategy: Strategy, fam: ProjectionFamily, monomial_degree: int = 2
) -> ResidualReport:
    """Full residual diagnostics of a strategy against the family's (n, x):
    sync_residuals' report, the sum rule on M and both tracial defects."""
    sync = sync_residuals(strategy, fam)
    m, xf = strategy.state_matrix, float(fam.x)
    total_a = strategy.alice[:, 0].sum(axis=0) - xf * np.eye(strategy.dim_a)
    total_b = strategy.bob[:, 0].sum(axis=0) - xf * np.eye(strategy.dim_b)
    return ResidualReport(
        n=fam.n,
        x=fam.x,
        sync=sync,
        sum_residual_a=float(np.linalg.norm(total_a @ m)),
        sum_residual_b=float(np.linalg.norm(m @ total_b.T)),
        tracial_a=tracial_residual(strategy, degree=monomial_degree, party="alice"),
        tracial_b=tracial_residual(strategy, degree=monomial_degree, party="bob"),
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


def _require_separation(w: np.ndarray, count: int, trace: float, residual: float = 0.0) -> None:
    """FitDegenerateError unless the ascending w[count - 1] < w[count] - residual
    by more than FIT_SEPARATION_TOL * trace.  ``residual`` is the measured
    ||A x - w[count] x|| of a Ritz pair, so some eigenvalue lies within it of
    w[count]; an exact spectrum passes 0."""
    if w.size > count and w[count] - residual - w[count - 1] <= FIT_SEPARATION_TOL * trace:
        measured = f", residual {residual:.1e}" if residual else ""
        raise FitDegenerateError(
            f"the fit form's eigenvalues {count} and {count + 1} are not separated "
            f"({w[count - 1]:.6e} vs {w[count]:.6e}{measured})"
        )


def fit_isometry(ops, fam: ProjectionFamily, rho) -> IsometryFit:
    """Least-squares isometry aligning measured operators with a family.

    Minimizes sum_v ||(P_v kron I_s) T - T E_v||^2 weighted by rho over
    matrices T, then projects a solution onto the isometries by polar
    decomposition.  The form is Q kron I_s: Q acts on each ancilla row block
    T_a (T's rows i s + a) alone, on d r rows.  A solution takes every T_a
    from the span of Q's s lowest eigenvectors: the lowest one for s = 1,
    else one seeded draw per block projected onto that span.
    ``ops`` is an (n, r, r) stack, or a sequence of n equal-shape matrices.
    The ancilla dimension s is the least one with d s >= r, so that an
    isometry into C^(d s) exists.  A Q of up to KRYLOV_MIN_ROWS rows is
    formed densely: its spectrum comes from linalg._hermitian_spectrum and
    only its s lowest eigenvectors from linalg._lowest_eigvecs.  A larger
    one is solved matrix-free by linalg.krylov_eigh for s + 1 pairs, the
    last a guard pair, and its basis budget raises BudgetExceededError
    before allocating.  Raises FitDegenerateError, before any eigenvector
    is computed on the dense path, when Q's s lowest eigenvalues are not
    separated from the next one by FIT_SEPARATION_TOL * tr(rho), less the
    guard pair's residual as the solver measured it on the matrix-free
    path: the solution would then be an arbitrary pick from a larger
    eigenspace, and when the solution's smallest singular value is at most
    1e-8 of its largest.  Only ``ops`` and ``rho`` are read by
    linalg.as_array; the arrays the fit builds go to unchecked kernels, and
    the form is applied only inside krylov_eigh.
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
    rows = r * d
    # The form is linear in rho, so adding a uniform ridge means: minimize
    # the rho-weighted residual, breaking ties in its null directions by the
    # unweighted residual.  Without it, a rank-deficient rho leaves the
    # eigensolver free to mix kernel junk into the solution block (the
    # mixing error scales like machine epsilon over the eigengap).
    lam = 1e-6
    trace = float(np.trace(rho).real)
    rho_reg = (rho + lam * (trace / r) * np.eye(r)) / (1.0 + lam)

    # On column-major vec(T_a) the form is T_a -> sum_v P_v T_a W_v + T_a C,
    # with W_v = rho - E_v rho - rho E_v, C = sum_v E_v rho E_v; W_v and C
    # are made exactly Hermitian, so both paths solve one operator
    er = ops @ rho_reg
    weights = rho_reg - er - dagger(er)
    weights = ((weights + dagger(weights)) / 2.0).swapaxes(-1, -2)
    c = (er @ ops).sum(axis=0)
    c_t = ((c + dagger(c)) / 2.0).T
    if rows <= KRYLOV_MIN_ROWS:
        # Q = sum_v W_v^T kron P_v + C^T kron I: one matmul over the
        # flattened stacks, C^T paired with the identity as one more term
        left = np.concatenate([weights, c_t[None]]).reshape(fam.n + 1, -1)
        right = np.concatenate([fam.projections, np.eye(d)[None]]).reshape(fam.n + 1, -1)
        quad = (left.T @ right).reshape(r, r, d, d).transpose(0, 2, 1, 3).reshape(rows, rows)
        w = _hermitian_spectrum(quad)
        _require_separation(w, s, trace)
        vecs = _lowest_eigvecs(quad, w, s)
    else:
        targets_t = fam.projections.swapaxes(-1, -2)

        def negated_form(x):
            # a row is vec(T_a), which reshapes to T_a^T: apply the transposed map
            u = x.reshape(-1, r, d)
            image = (weights[:, None] @ u @ targets_t[:, None]).sum(axis=0) + c_t @ u
            return -image.reshape(x.shape)

        # a block of s + 1 measures whether the next eigenvalue coincides;
        # that guard pair converges only to KRYLOV_GUARD_TOL, so its measured
        # residual is taken off the separation
        w, vecs, residuals = krylov_eigh(negated_form, rows, s + 1, guard=1)
        _require_separation(-w, s, trace, residuals[s])
        vecs = vecs[:, :s]

    if s > 1:
        # any full-rank solution works: project one fixed, reproducible draw
        # onto it, which does not depend on the basis the eigensolver
        # returned; read whole, the draw is vec(T)
        rng = np.random.default_rng(7)
        draw = rng.normal(size=(rows, s)) + 1j * rng.normal(size=(rows, s))
        vecs = vecs @ (vecs.conj().T @ draw)
    # column a is vec(T_a)
    t = vecs.reshape(r, d, s).transpose(1, 2, 0).reshape(d * s, r)
    # the rank check and nearest_isometry's polar factor from one thin SVD
    u, sv, vh = np.linalg.svd(t, full_matrices=False)
    if sv[0] <= 0 or sv[-1] <= 1e-8 * sv[0]:
        raise FitDegenerateError("fitted map has a rank-deficient polar factor")
    v_iso = u @ vh
    # V^* (P_v kron I_s) V = sum_a V_a^* P_v V_a over the ancilla row blocks
    v_blocks = v_iso.reshape(d, s, r).swapaxes(0, 1)
    compressed = (dagger(v_blocks) @ fam.projections[:, None] @ v_blocks).sum(axis=1)
    residuals = _seminorm(ops - compressed, rho)
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
    densities; the compressed state is projected onto the top eigenspace of
    the correlation operator, and the remainder is normalized into the junk
    state.  The ancilla bases are rotated so the junk state comes out in
    Schmidt-diagonal form, which fixes the gauge freedom of the certificate.
    The precondition is _audit_delta's.  Raises JunkExtractionError when the
    projected weight alpha is at or below ALPHA_MIN, read at call time.
    """
    delta = _audit_delta(strategy, fam)
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
    # rotate ancillas so the junk state is Schmidt-diagonal, (I_d kron g) V
    # as g on each (s, r) block of V; the dilation residuals are invariant
    # under this change of gauge
    v_a = (u.conj().T @ fit_a.isometry.reshape(d, sa, -1)).reshape(d * sa, -1)
    v_b = (vh.conj() @ fit_b.isometry.reshape(d, sb, -1)).reshape(d * sb, -1)
    junk = np.zeros(sa * sb, dtype=np.complex128)
    m = min(sa, sb)
    junk[np.arange(m) * sb + np.arange(m)] = sv[:m]

    reference = fam.canonical_strategy
    residuals = _dilation_residuals(strategy, reference, v_a, v_b, junk)
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
