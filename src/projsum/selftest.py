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
come from the StrategyStack, Bob's target family from
ProjectionFamily.transposed; each owner derives them once.

The two d^2 x d^2 eigenproblems are solved without forming d^2 x d^2
matrices once they are large.  The spectral gap of N, which enters beta, is
ProjectionFamily.correlation_gap: measured matrix-free once per family, as a
sum of squares on an eigenvector, not a difference of eigenvalues, with
n_operator kept as the dense reference.  fit_isometry needs only the s
lowest eigenpairs of its form on one d x r ancilla row block (s is the
ancilla dimension).  For s = 1 up to KRYLOV_MIN_ROWS rows it forms the
matrix, takes its eigenvalues alone and then linalg._lowest_eigvec; every
other form is applied as the gap's is (linalg.sandwich_operator) to
linalg.krylov_eigh, with one guard pair beyond the s wanted ones.  Both
paths return phase-fixed eigenvectors, so they give the same isometry, and
both refuse a form whose solution eigenspace is not separated from the
next eigenvalue; the matrix-free path converges the guard pair only to
linalg.KRYLOV_GUARD_TOL and takes the residual the solver measured on it
off the separation it tests.

Every stage runs on a strategies.StrategyStack.  A StrategyStack comes in
as itself and a Strategy as its stack of one (_lifted), and a Strategy's
call returns member 0 of its stack's results (_unlifted).  So each stage
(the audits, the reduced densities and correlations, the dense fit with its
eigenvalues, inverse iteration and polar factor, the junk and gauge step,
the dilation residuals) makes one numpy call for the whole stack; only the
matrix-free fits run member by member, and a stack's correlation and
reduced densities are derived once for both calls.  sweep.run_sweep hands
the certifier stacks of at most stack_size members, whose largest array
stays within STACK_ENTRIES entries.  Each member gets the bits it gets
alone: members are solved in the arithmetic each gets alone, every
reduction is written one way for any number of members, and a member of an
inverse iteration stops at its own convergence.  A member of a StrategyStack
fails alone (linalg._refuse): its error is recorded and its arrays are
filler until the end of the stack.  A Strategy raises its error where it
meets it.

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
    InvalidDimensionError,
    InvalidShapeError,
    InvalidStrategyError,
    JunkExtractionError,
    ProjsumError,
    UnsupportedOutcomeCountError,
)
from .families import ProjectionFamily, top_gap
from .linalg import (
    KRYLOV_BUDGET,
    _frobenius,
    _hermitian_spectrum,
    _lowest_eigvec,
    _refuse,
    _seminorm,
    as_array,
    dagger,
    hermitian_eig,
    is_integer,
    krylov_eigh,
    maximally_entangled,
    real_if_exact,
    sandwich_operator,
)
from .strategies import Strategy, StrategyStack, correlation_distance, ideal_correlation

ALPHA_MIN = 0.1
PAIR_BUDGET = 1_000_000
# s = 1 fit forms with more rows go matrix-free, as all ancilla fits do; measured crossover
KRYLOV_MIN_ROWS = 441
# relative to tr(rho), the scale of the fit form
FIT_SEPARATION_TOL = 1e-8
# entries of the largest array one stack of strategies may hold (stack_size),
# 1 MB complex: 113 trials at d = 3, 4 at d = 11 and one from d = 16 on,
# where a trial's dense fit form alone has d^4 entries.  Measured on 2
# cores, medians of in-process passes: the three k = 1 acceptance sweeps took
# 0.080 s here and 0.081 s at 16,384 entries (28 trials); the three k = 5
# sweeps took 0.302 s here, with a 4.4 MB peak of traced memory, against
# 0.358 s and 2.1 MB at 16,384 (one trial) and 0.313 s and 20 MB with each
# sweep's distinct trials, up to 25, in one stack
STACK_ENTRIES = 65_536


# ---------------------------------------------------------------------------
# stacks of strategies


def _lifted(strategy) -> tuple[StrategyStack, np.ndarray | None]:
    """The one check where strategies come in: (stack, failures) for the
    stages.  A Strategy gives its stack of one and no failure slots, so its
    errors are raised where they are met (linalg._refuse); a StrategyStack
    gives itself and one empty slot per member, so its members fail alone.
    Anything else raises InvalidStrategyError."""
    if not isinstance(strategy, (Strategy, StrategyStack)):
        raise InvalidStrategyError(
            f"expected a Strategy or a StrategyStack, got {type(strategy).__name__}"
        )
    single = isinstance(strategy, Strategy)
    return strategy.stack, None if single else np.full(len(strategy), None, dtype=object)


def _unlifted(strategy, results):
    """What a call on ``strategy`` returns of its stack's per-member results:
    member 0 for a Strategy, all of them for a StrategyStack."""
    return results[0] if isinstance(strategy, Strategy) else results


def _member_entries(strategy, fam: ProjectionFamily) -> int:
    """Entries of the largest array one member adds to a stack: the dense fit
    form of the larger party, (d r)^2, or the (n k)^2 dilation residual
    matrices, on the isometries' ranges."""
    d, pairs = fam.d, (strategy.n_questions * strategy.n_outcomes) ** 2
    dims = (strategy.dim_a, strategy.dim_b)
    ranges = [d * max(1, -(-r // d)) for r in dims]
    return max((d * max(dims)) ** 2, pairs * ranges[0] * ranges[1])


def stack_size(strategy, fam: ProjectionFamily) -> int:
    """How many strategies of the shape of ``strategy`` (a Strategy or a
    StrategyStack) one stack holds: STACK_ENTRIES // _member_entries, read at
    call time, and at least one."""
    return max(1, STACK_ENTRIES // _member_entries(strategy, fam))


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


def _audit_delta(stack: StrategyStack, fam: ProjectionFamily) -> np.ndarray:
    """delta = ||p - p_{n,x}||_1 of each member of a stack, with
    p_{n,x} = ideal_correlation(fam.n, fam.x).

    The audits' one precondition comes first: a strategy without two outcomes
    raises UnsupportedOutcomeCountError, one without fam.n questions
    InvalidStrategyError.
    """
    n, k = stack.n_questions, stack.n_outcomes
    if k != 2:
        raise UnsupportedOutcomeCountError(f"strategy has {k} outcomes, the audits need 2")
    if n != fam.n:
        raise InvalidStrategyError(f"strategy has {n} questions, family has {fam.n}")
    return correlation_distance(stack.correlation, ideal_correlation(fam.n, fam.x))


def sync_residuals(strategy: Strategy, fam: ProjectionFamily) -> SyncReport:
    """Agreement residuals of a strategy against the family's p_{n,x}; a
    StrategyStack gets a list, one report per member."""
    stack, _ = _lifted(strategy)
    delta = _audit_delta(stack, fam)
    m = stack.state_matrix[..., None, None, :, :]
    e, f = stack.alice, stack.bob
    em = e @ m
    mft = m @ f.swapaxes(-1, -2)
    emft = e @ mft
    parts = (em - mft, em - emft, mft - emft, (e @ e - e) @ m, m @ (f @ f - f).swapaxes(-1, -2))
    values = np.linalg.norm(np.stack(parts, axis=-3), axis=(-2, -1))
    root = np.sqrt(delta)
    budgets = np.stack([root, root, root, 2 * root, 2 * root], axis=-1)
    members = zip(values, budgets, delta)
    return _unlifted(strategy, [SyncReport(v, b, float(dl)) for v, b, dl in members])


def check_word_pairs(n: int, degree: int) -> None:
    """InvalidDimensionError for a degree that is not an integer of at least 1
    (linalg.is_integer), and BudgetExceededError when the words of length
    1..degree in n >= 1 letters make more than PAIR_BUDGET pairs.  The count
    stops once it passes the budget, within 1,001 lengths, so a huge degree is
    refused at once."""
    if not is_integer(degree) or degree < 1:
        raise InvalidDimensionError(
            f"monomial degree must be an integer of at least 1, got {degree!r}"
        )
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
    1..degree; rho is that party's reduced state.  The degree is checked by
    check_word_pairs.  A StrategyStack gets a list, one defect per member.
    """
    stack, _ = _lifted(strategy)
    check_word_pairs(stack.n_questions, degree)
    if party not in ("alice", "bob"):
        raise InvalidStrategyError(f"party must be 'alice' or 'bob', got {party!r}")
    ops = getattr(stack, party)[..., 0, :, :]
    rho = stack.reduced_densities[party == "bob"]
    words = [ops]
    for _ in range(degree - 1):
        # word w followed by op o sits at index w * n + o
        word = words[-1][..., :, None, :, :] @ ops[..., None, :, :, :]
        words.append(word.reshape(*rho.shape[:-2], -1, *rho.shape[-2:]))
    stacked = np.concatenate(words, axis=-3)
    weighted = stacked @ rho[..., None, :, :]
    gram = np.einsum("...iab,...jba->...ij", stacked, weighted)
    defect = np.abs(gram - gram.swapaxes(-1, -2)).max(axis=(-2, -1))
    return _unlifted(strategy, defect.tolist())


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
        return float(2.0 * (2 * self.monomial_degree) * np.sqrt(self.delta))

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
    sync_residuals' report, the sum rule on M and both tracial defects.

    A StrategyStack gets a list, one report per member, each equal to its
    own call's.
    """
    stack, _ = _lifted(strategy)
    sync = sync_residuals(stack, fam)
    m, xf = stack.state_matrix, float(fam.x)
    total_a = stack.alice[..., 0, :, :].sum(axis=-3) - xf * np.eye(stack.dim_a)
    total_b = stack.bob[..., 0, :, :].sum(axis=-3) - xf * np.eye(stack.dim_b)
    columns = (
        _frobenius(total_a @ m),
        _frobenius(m @ total_b.swapaxes(-1, -2)),
        tracial_residual(stack, degree=monomial_degree, party="alice"),
        tracial_residual(stack, degree=monomial_degree, party="bob"),
    )
    reports = [
        ResidualReport(
            n=fam.n,
            x=fam.x,
            sync=report,
            sum_residual_a=float(sum_a),
            sum_residual_b=float(sum_b),
            tracial_a=float(tracial_a),
            tracial_b=float(tracial_b),
            monomial_degree=monomial_degree,
        )
        for report, sum_a, sum_b, tracial_a, tracial_b in zip(sync, *columns)
    ]
    return _unlifted(strategy, reports)


# ---------------------------------------------------------------------------
# the dense correlation operator


@dataclass(frozen=True)
class CorrelationOperator:
    """The spectral data of N = sum_v P_v kron P_v^T.

    For a valid family the top eigenvalue is x with a one-dimensional
    eigenspace spanned by the maximally entangled state; ``gap`` is the
    distance from the top eigenvalue to the rest of the spectrum.
    """

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
        spectrum=w,
        lambda_max=float(w[0]),
        gap=gap,
        top_vector=top,
        entangled_overlap=float(overlap),
    )


# ---------------------------------------------------------------------------
# isometry fitting


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


def _require_separation(w, count: int, trace, residual: float = 0.0, failures=None) -> None:
    """FitDegenerateError, by _refuse, for each member of a stack of ascending
    spectra (..., m) whose w[count - 1] is not below w[count] - residual by
    more than FIT_SEPARATION_TOL * trace.  ``residual`` is the measured
    ||A x - w[count] x|| of a Ritz pair, so some eigenvalue lies within it of
    w[count]; an exact spectrum passes 0."""
    bad = w[..., count] - residual - w[..., count - 1] <= FIT_SEPARATION_TOL * trace

    def error(i):
        measured = f", residual {residual:.1e}" if residual else ""
        return FitDegenerateError(
            f"the fit form's eigenvalues {count} and {count + 1} are not separated "
            f"({w[i][count - 1]:.6e} vs {w[i][count]:.6e}{measured})"
        )

    _refuse(failures, bad, error)


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
    isometry into C^(d s) exists.  Q is solved in float64 when its terms and
    the family's projections have exactly zero imaginary parts
    (linalg.real_if_exact), as for a real family and a real strategy, and
    in complex128 otherwise; either way the isometry is complex128.  For
    s = 1, a Q of up to KRYLOV_MIN_ROWS rows is formed densely: its
    spectrum comes from linalg._hermitian_spectrum and its lowest
    eigenvector from linalg._lowest_eigvec.  Every other Q,
    each with s > 1 among them, is applied matrix-free
    (linalg.sandwich_operator) to linalg.krylov_eigh for s + 1 pairs, the
    last a guard pair, and its basis budget raises BudgetExceededError
    before allocating; for d = 1 every T solves.  Raises FitDegenerateError,
    before any eigenvector is computed on the dense path, when Q's s lowest
    eigenvalues are not separated from the next one by FIT_SEPARATION_TOL *
    tr(rho), less the guard pair's residual as the solver measured it on the
    matrix-free path: the solution would then be an arbitrary pick from a
    larger eigenspace, and when the solution's smallest singular value is at
    most 1e-8 of its largest.  Only ``ops`` and ``rho`` are read by
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
    # a stack of one, whose errors are raised where they are met
    fit = _fit(ops[None], fam, rho[None])
    return IsometryFit(isometry=fit.isometry[0], s=fit.s, residuals=fit.residuals[0])


def _by_arithmetic(terms: np.ndarray):
    """Selectors of the members of a stack of fit terms (members, n + 1, r, r)
    whose terms are all exactly real, then of the rest, so that each member
    is solved in the arithmetic it gets alone."""
    exact = ~terms.imag.any(axis=(-3, -2, -1))
    yield from (group for group in (exact, ~exact) if group.any())


def _fit(ops: np.ndarray, fam: ProjectionFamily, rho: np.ndarray, failures=None) -> IsometryFit:
    """fit_isometry of each member of a stack of arrays already read and
    checked, (members, n, r, r) and (members, r, r): the fit's arrays get the
    same leading axis, and each member the bits it gets alone.  The dense
    forms are solved together, in at most two groups (_by_arithmetic); the
    matrix-free ones one member at a time.  A member fails by _refuse: with
    ``failures`` None its error is raised, else it is recorded there and the
    member's arrays are filler."""
    r, d = ops.shape[-1], fam.d
    s = max(1, -(-r // d))
    rows = r * d
    batch = rho.shape[:-2]
    # The form is linear in rho, so adding a uniform ridge means: minimize
    # the rho-weighted residual, breaking ties in its null directions by the
    # unweighted residual.  Without it, a rank-deficient rho leaves the
    # eigensolver free to mix kernel junk into the solution block (the
    # mixing error scales like machine epsilon over the eigengap).
    lam = 1e-6
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    rho_reg = (rho + (lam * (trace / r))[..., None, None] * np.eye(r)) / (1.0 + lam)

    # On column-major vec(T_a) the form is T_a -> sum_v P_v T_a W_v + T_a C,
    # with W_v = rho - E_v rho - rho E_v, C = sum_v E_v rho E_v; W_v and C
    # are made exactly Hermitian, so both paths solve one operator, and
    # stacked transposed: W_1^T .. W_n^T, then C^T, which pairs with I
    rho_reg = rho_reg[..., None, :, :]
    er = ops @ rho_reg
    terms = np.concatenate(
        [rho_reg - er - dagger(er), (er @ ops).sum(axis=-3, keepdims=True)], axis=-3
    )
    # in place: this stack is the fit's largest array before the solver's budget check
    terms += dagger(terms)
    terms /= 2.0
    terms = terms.swapaxes(-1, -2)
    if d == 1:  # s = rows: Q's s lowest eigenvectors are all of them
        vecs = np.broadcast_to(np.eye(rows, dtype=np.complex128), batch + (rows, rows))
    elif s == 1 and rows <= KRYLOV_MIN_ROWS:
        vecs = np.empty(batch + (rows, 1), dtype=np.complex128)
        for members in _by_arithmetic(terms):
            # a real form of a real family is solved in float64
            group, projections = real_if_exact(terms[members], fam.projections)
            fails = None if failures is None else failures[members]
            # Q = sum_v W_v^T kron P_v + C^T kron I: one matmul over the
            # flattened stacks
            right = np.concatenate([projections, np.eye(d)[None]]).reshape(fam.n + 1, -1)
            lead = group.shape[:-3]
            quad = group.reshape(*lead, fam.n + 1, -1).swapaxes(-1, -2) @ right
            quad = quad.reshape(*lead, r, r, d, d).swapaxes(-3, -2).reshape(*lead, rows, rows)
            w = _hermitian_spectrum(quad, fails)
            _require_separation(w, 1, trace[members], failures=fails)
            vecs[members] = _lowest_eigvec(quad, w, fails)
            if failures is not None:  # fails is a copy of the group's slots
                failures[members] = fails
    else:
        # a row is vec(T_a), which reshapes to U = T_a^T, on which the
        # negated transposed map is U -> -(sum_v W_v^T U P_v^T + C^T U); a
        # block of s + 1 measures whether the next eigenvalue coincides, and
        # that guard pair converges only to KRYLOV_GUARD_TOL, so its measured
        # residual is taken off the separation
        vecs = np.zeros(batch + (rows, s), dtype=np.complex128)
        for i in range(len(rho)):
            if failures is not None and failures[i] is not None:
                continue
            try:
                member, projections = real_if_exact(terms[i], fam.projections)
                right = -np.concatenate([projections.swapaxes(-1, -2), np.eye(d)[None]])
                operator = sandwich_operator(member, right)
                w, v, residuals = krylov_eigh(operator, rows, s + 1, guard=1, dtype=member.dtype)
                _require_separation(-w, s, trace[i], residuals[s])
                vecs[i] = v[:, :s]
            except ProjsumError as error:
                if failures is None:
                    raise
                failures[i] = error

    if s > 1:
        # any full-rank solution works: project one fixed, reproducible draw
        # onto it, which does not depend on the basis the eigensolver
        # returned; read whole, the draw is vec(T)
        rng = np.random.default_rng(7)
        draw = rng.normal(size=(rows, s)) + 1j * rng.normal(size=(rows, s))
        vecs = vecs @ (dagger(vecs) @ draw)
    # column a is vec(T_a)
    t = np.moveaxis(vecs.reshape(*batch, r, d, s), -3, -1).reshape(*batch, d * s, r)
    # the rank check and nearest_isometry's polar factor from one thin SVD
    u, sv, vh = np.linalg.svd(t, full_matrices=False)
    degenerate = (sv[..., 0] <= 0) | (sv[..., -1] <= 1e-8 * sv[..., 0])
    message = "fitted map has a rank-deficient polar factor"
    _refuse(failures, degenerate, lambda i: FitDegenerateError(message))
    v_iso = u @ vh
    # V^* (P_v kron I_s) V = sum_a V_a^* P_v V_a over the ancilla row blocks
    v_blocks = v_iso.reshape(*batch, d, s, r).swapaxes(-3, -2)[..., None, :, :, :]
    compressed = (dagger(v_blocks) @ fam.projections[:, None] @ v_blocks).sum(axis=-3)
    residuals = _seminorm(ops - compressed, rho[..., None, :, :])
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
    The (v, i, w, j) terms are formed at once, in about four stacks of
    (n k)^2 matrices of the isometries' range dimensions; BudgetExceededError
    is raised, before they are allocated, when those stacks would exceed
    linalg.KRYLOV_BUDGET entries.  The source may be a StrategyStack, with v_a, v_b
    and junk stacked alike: each member gets its own residuals.
    """
    if strategy.n_questions != reference.n_questions:
        raise InvalidStrategyError("question counts differ")
    if strategy.n_outcomes != reference.n_outcomes:
        raise InvalidStrategyError("outcome counts differ")
    da, db = reference.dim_a, reference.dim_b
    (rows_a, cols_a), (rows_b, cols_b) = v_a.shape[-2:], v_b.shape[-2:]
    if rows_a % da != 0 or rows_b % db != 0:
        raise InvalidShapeError("isometry ranges are not multiples of the reference dims")
    ka, kb = rows_a // da, rows_b // db
    if cols_a != strategy.dim_a or cols_b != strategy.dim_b:
        raise InvalidShapeError("isometry domains do not match the source strategy")
    if junk.shape[-1] != ka * kb:
        raise InvalidShapeError(f"junk length {junk.shape[-1]} != ancilla product {ka * kb}")
    pairs = (strategy.n_questions * strategy.n_outcomes) ** 2
    if 4 * pairs * rows_a * rows_b > KRYLOV_BUDGET:
        raise BudgetExceededError(
            f"{pairs} dilation residuals of {rows_a} x {rows_b} matrices "
            f"exceed the {KRYLOV_BUDGET}-entry budget"
        )
    junk_m = junk.reshape(*junk.shape[:-1], ka, kb)
    m = strategy.state_matrix
    m0 = reference.state_matrix
    v_bt = v_b.swapaxes(-1, -2)
    # the kron of two matrices is already in (ref, anc) x (ref, anc) order
    state = _frobenius(v_a @ m @ v_bt - np.kron(m0, junk_m))
    # [v, i, w, j] -> V_A E_vi M F_wj^T V_B^T and P_vi M0 Q_wj^T
    left = v_a[..., None, None, :, :] @ strategy.alice @ m[..., None, None, :, :]
    right = strategy.bob.swapaxes(-1, -2) @ v_bt[..., None, None, :, :]
    lifted = left[..., :, :, None, None, :, :] @ right[..., None, None, :, :, :, :]
    ref = (reference.alice @ m0)[:, :, None, None] @ reference.bob.swapaxes(-1, -2)[None, None]
    # each member's J, against every (v, i, w, j)
    junk_m = junk_m[..., None, None, None, None, :, :]
    pairs = np.linalg.norm(lifted - np.kron(ref, junk_m), axis=(-2, -1))
    return np.concatenate([state[..., None], pairs.reshape(*pairs.shape[:-4], -1)], axis=-1)


def dilation_epsilon(
    strategy: Strategy,
    reference: Strategy,
    v_a: np.ndarray,
    v_b: np.ndarray,
    junk: np.ndarray,
) -> float:
    """Worst dilation-condition residual for the given isometries and junk,
    each read by linalg.as_array, which raises InvalidShapeError.  Both
    strategies are checked by _lifted; the reference is one Strategy, and a
    StrategyStack source gets the worst residual of all its members."""
    for given in (strategy, reference):
        _lifted(given)
    if isinstance(reference, StrategyStack):
        raise InvalidStrategyError("the reference must be one Strategy, got a StrategyStack")
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

    A StrategyStack gets a list, one entry per member: its certificate,
    equal to its own call's, or the FitDegenerateError or JunkExtractionError
    its own call raises.  Any other error a member meets is raised, that of
    the first such member.
    """
    stack, failures = _lifted(strategy)
    return _unlifted(strategy, _certify(stack, fam, failures))


def _certify(stack: StrategyStack, fam: ProjectionFamily, failures=None) -> list:
    """extract_dilation of each member of a stack, in a list.  A member fails
    by _refuse: with ``failures`` None its error is raised where it is met;
    else it is recorded in its slot of ``failures``, the member's arrays are
    filler to the end, and its FitDegenerateError or JunkExtractionError
    stands in the list in place of its certificate."""
    delta = _audit_delta(stack, fam)
    rho_a, rho_b = stack.reduced_densities
    fit_a = _fit(stack.alice[..., 0, :, :], fam, rho_a, failures)
    fit_b = _fit(stack.bob[..., 0, :, :], fam.transposed, rho_b, failures)
    gap = fam.correlation_gap
    d, batch = fam.d, delta.shape
    sa, sb = fit_a.s, fit_b.s

    lifted = fit_a.isometry @ stack.state_matrix @ fit_b.isometry.swapaxes(-1, -2)
    junk_block = np.einsum("...iaib->...ab", lifted.reshape(*batch, d, sa, d, sb)) / np.sqrt(d)
    alpha = _frobenius(junk_block)
    _refuse(
        failures,
        alpha <= ALPHA_MIN,
        lambda i: JunkExtractionError(
            f"projected weight alpha = {alpha[i]:.3e} is at or below {ALPHA_MIN}"
        ),
    )
    # a member whose alpha is refused is divided by nothing
    kept = (alpha > ALPHA_MIN)[..., None, None]
    normalized = np.zeros_like(junk_block)
    np.divide(junk_block, alpha[..., None, None], out=normalized, where=kept)
    u, sv, vh = np.linalg.svd(normalized, full_matrices=True)
    # rotate ancillas so the junk state is Schmidt-diagonal, (I_d kron g) V
    # as g on each (s, r) block of V; the dilation residuals are invariant
    # under this change of gauge
    blocks_a = fit_a.isometry.reshape(*batch, d, sa, -1)
    blocks_b = fit_b.isometry.reshape(*batch, d, sb, -1)
    v_a = (dagger(u)[..., None, :, :] @ blocks_a).reshape(*batch, d * sa, -1)
    v_b = (vh.conj()[..., None, :, :] @ blocks_b).reshape(*batch, d * sb, -1)
    junk = np.zeros(batch + (sa * sb,), dtype=np.complex128)
    m = min(sa, sb)
    junk[..., np.arange(m) * sb + np.arange(m)] = sv[..., :m]

    residuals = _dilation_residuals(stack, fam.canonical_strategy, v_a, v_b, junk)
    eps_prime = np.maximum(*(fit.residuals.max(axis=-1, initial=0.0) for fit in (fit_a, fit_b)))
    # the spectral argument needs the correlation defect as well; folding it
    # into eps_prime makes the beta bound hold unconditionally
    eps_eff = np.maximum(eps_prime, delta)
    beta = np.sqrt(2.0 * (2 * fam.n + 1) * eps_eff / gap)
    failed = [None] * len(stack) if failures is None else failures
    extraction = (FitDegenerateError, JunkExtractionError)
    for failure in failed:
        if failure is not None and not isinstance(failure, extraction):
            raise failure
    return [
        failure
        or DilationCertificate(
            v_a=v_a[i],
            v_b=v_b[i],
            junk=junk[i],
            ref_dim_a=d,
            ref_dim_b=d,
            anc_dim_a=sa,
            anc_dim_b=sb,
            epsilon=float(residuals[i].max()),
            alpha=float(alpha[i]),
            beta=float(beta[i]),
            gap=gap,
            state_residual=float(residuals[i][0]),
            fit_residuals_a=fit_a.residuals[i],
            fit_residuals_b=fit_b.residuals[i],
            delta=float(delta[i]),
        )
        for i, failure in enumerate(failed)
    ]


def compose_dilations(
    inner: DilationCertificate, outer: DilationCertificate, source: Strategy, reference: Strategy
) -> DilationCertificate:
    """Chain two dilation certificates into one.

    ``inner`` exhibits the middle strategy as a dilation of ``source``,
    ``outer`` exhibits ``reference`` as a dilation of the middle one.  The
    composed isometries are (V kron I) W and the junk states tensor; the
    residuals are measured on them, and epsilon is at most the parts' sum.
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
    residuals = _dilation_residuals(source, reference, v_a, v_b, junk)
    return DilationCertificate(
        v_a=v_a,
        v_b=v_b,
        junk=junk,
        ref_dim_a=outer.ref_dim_a,
        ref_dim_b=outer.ref_dim_b,
        anc_dim_a=ka1 * ka2,
        anc_dim_b=kb1 * kb2,
        epsilon=float(residuals.max()),
        state_residual=float(residuals[0]),
    )
