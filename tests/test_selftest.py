import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import projsum.families as families
import projsum.linalg as linalg
import projsum.selftest as selftest
from projsum.errors import (
    BudgetExceededError,
    FitDegenerateError,
    InvalidDimensionError,
    InvalidShapeError,
    InvalidStrategyError,
    JunkExtractionError,
    SpectralDegeneracyError,
    UnsupportedOutcomeCountError,
)
from projsum.families import (
    ProjectionFamily,
    four_family,
    ladder_family,
    simplex_family,
)
from projsum.linalg import (
    _lowest_eigvec,
    _reduced_densities,
    dagger,
    fix_phases,
    maximally_entangled,
    nearest_isometry,
    random_state,
    reduced_densities,
    seminorm,
)
from projsum.selftest import (
    DilationCertificate,
    ResidualReport,
    _dilation_residuals,
    approx_rep_residuals,
    compose_dilations,
    dilation_epsilon,
    extract_dilation,
    fit_isometry,
    n_operator,
    sync_residuals,
    tracial_residual,
)
from projsum.strategies import (
    NOISE_MODELS,
    Strategy,
    canonical_strategy,
    ideal_correlation,
    induced_correlation,
    perturb,
)
from oracles import (
    IntertwinerError,
    NotARepresentationError,
    aligned_junk_fidelity,
    eigvec_overlap_bound,
    find_intertwiner,
    partial_trace,
    random_unitary,
)
from test_linalg import loop_lowest_eigvec, restarted
from test_strategies import planted_strategy


# --- Kronecker oracles: the residuals as their definitions state them


def kron_dilation_residuals(strategy, reference, v_a, v_b, junk):
    """State residual, then (v, i, w, j) residuals, one kron product per term."""
    da, db = reference.dim_a, reference.dim_b
    ka, kb = v_a.shape[0] // da, v_b.shape[0] // db

    def interleave(vec4):
        # (ref_a, ref_b, anc_a, anc_b) -> (ref_a, anc_a, ref_b, anc_b)
        return vec4.reshape(da, db, ka, kb).transpose(0, 2, 1, 3).reshape(-1)

    big = np.kron(v_a, v_b)
    psi, psi_ref = strategy.state, reference.state
    out = [np.linalg.norm(big @ psi - interleave(np.kron(psi_ref, junk)))]
    n, k = strategy.n_questions, strategy.n_outcomes
    for v, i, w, j in itertools.product(range(n), range(k), range(n), range(k)):
        op = np.kron(strategy.alice[v, i], strategy.bob[w, j])
        ref_vec = np.kron(reference.alice[v, i], reference.bob[w, j]) @ psi_ref
        out.append(np.linalg.norm(big @ (op @ psi) - interleave(np.kron(ref_vec, junk))))
    return np.array(out)


def kron_sync_values(strategy):
    """The five agreement residuals of SyncReport, one (v, i) at a time."""
    psi, da, db = strategy.state, strategy.dim_a, strategy.dim_b
    eye_a, eye_b = np.eye(da), np.eye(db)
    values = np.zeros((strategy.n_questions, strategy.n_outcomes, 5))
    for v, i in np.ndindex(*values.shape[:2]):
        e, f = strategy.alice[v, i], strategy.bob[v, i]
        ea = np.kron(e, eye_b) @ psi
        fb = np.kron(eye_a, f) @ psi
        ef = np.kron(e, f) @ psi
        values[v, i] = [
            np.linalg.norm(ea - fb),
            np.linalg.norm(ea - ef),
            np.linalg.norm(fb - ef),
            np.linalg.norm(np.kron(e - e @ e, eye_b) @ psi),
            np.linalg.norm(np.kron(eye_a, f - f @ f) @ psi),
        ]
    return values


def seminorm_rep_residuals(strategy, x):
    """rep_residual_a/b as trace seminorms sqrt(tr(X^* X rho)) of the outcome-0
    idempotency defects and the sum rule, weighted by the reduced densities."""
    out = []
    for povms, rho in zip((strategy.alice, strategy.bob), strategy.reduced_densities):
        ops = povms[:, 0]
        total = ops.sum(axis=0) - x * np.eye(len(rho))
        out.append(float(seminorm(np.concatenate([ops @ ops - ops, total[None]]), rho).max()))
    return out


def kron_gauge_dilation(strategy, fam):
    """extract_dilation's isometries and junk, with the junk gauge applied to
    each isometry as the matrix I_d kron g."""
    rho_a, rho_b = strategy.reduced_densities
    fit_a = fit_isometry(strategy.alice[:, 0], fam, rho_a)
    fit_b = fit_isometry(strategy.bob[:, 0], fam.transposed, rho_b)
    d, sa, sb = fam.d, fit_a.s, fit_b.s
    lifted = fit_a.isometry @ strategy.state_matrix @ fit_b.isometry.T
    block = np.einsum("iaib->ab", lifted.reshape(d, sa, d, sb)) / np.sqrt(d)
    u, sv, vh = np.linalg.svd(block / np.linalg.norm(block))
    v_a = np.kron(np.eye(d), u.conj().T) @ fit_a.isometry
    v_b = np.kron(np.eye(d), vh.conj()) @ fit_b.isometry
    junk = np.zeros((sa, sb), dtype=complex)
    junk[np.diag_indices(min(sa, sb))] = sv
    return v_a, v_b, junk.reshape(-1)


def loop_tracial(strategy, degree, party):
    """max |tr((W1 W2 - W2 W1) rho)| over words built as Python lists."""
    dims = (strategy.dim_a, strategy.dim_b)
    side = "A" if party == "alice" else "B"
    rho = partial_trace(np.outer(strategy.state, strategy.state.conj()), dims, keep=side)
    ops = list((strategy.alice if party == "alice" else strategy.bob)[:, 0])
    words, frontier = list(ops), list(ops)
    for _ in range(degree - 1):
        frontier = [w @ op for w in frontier for op in ops]
        words.extend(frontier)
    return max(
        abs(np.trace((w1 @ w2 - w2 @ w1) @ rho)) for w1 in words for w2 in words
    )


def noisy_planted(dims, seed, model, level):
    fam = four_family(1)
    strat, _ = planted_strategy(fam, *dims, seed=seed)
    return fam, perturb(strat, model, level, seed=seed)


planted_cases = dict(
    dims=st.sampled_from([(1, 1), (2, 1), (1, 3), (2, 2)]),
    seed=st.integers(0, 2**16),
    model=st.sampled_from(NOISE_MODELS),
    level=st.sampled_from([0.0, 1e-3, 1e-1]),
)


@given(planted_isometries=st.booleans(), **planted_cases)
def test_dilation_residuals_match_kron_oracle(planted_isometries, dims, seed, model, level):
    fam, strat = noisy_planted(dims, seed, model, level)
    ka, kb = dims
    # with the planting seed these are the inverses of the planted unitaries
    rng = np.random.default_rng(seed if planted_isometries else [seed, 1])
    v_a = random_unitary(fam.d * ka, rng).conj().T
    v_b = random_unitary(fam.d * kb, rng).conj().T
    junk = random_state(ka * kb, np.random.default_rng([seed, 2]))
    reference = canonical_strategy(fam)
    fast = _dilation_residuals(strat, reference, v_a, v_b, junk)
    oracle = kron_dilation_residuals(strat, reference, v_a, v_b, junk)
    assert fast.shape == oracle.shape == (1 + 4 * 4 * 2 * 2,)
    assert np.abs(fast - oracle).max() < 1e-12
    assert abs(dilation_epsilon(strat, reference, v_a, v_b, junk) - oracle.max()) < 1e-12


@given(**planted_cases)
def test_sync_residuals_match_kron_oracle(dims, seed, model, level):
    fam, strat = noisy_planted(dims, seed, model, level)
    report = sync_residuals(strat, fam)
    assert np.abs(report.values - kron_sync_values(strat)).max() < 1e-12


@given(party=st.sampled_from(["alice", "bob"]), **planted_cases)
def test_tracial_residual_matches_list_oracle(party, dims, seed, model, level):
    _, strat = noisy_planted(dims, seed, model, level)
    fast = tracial_residual(strat, degree=3, party=party)
    assert abs(fast - loop_tracial(strat, 3, party)) < 1e-12


# --- synchronicity and tracial bounds


def test_sync_residuals_vanish_on_canonical():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    report = sync_residuals(strat, fam)
    assert report.delta < 1e-12
    assert report.max_value < 1e-10
    assert report.within_budget


def test_sync_residuals_budgets_on_noisy_strategies():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    for model in ("state-mixing", "povm-jitter", "outcome-noise"):
        for level in (1e-4, 1e-3, 1e-2, 1e-1):
            noisy = perturb(strat, model, level, seed=17)
            report = sync_residuals(noisy, fam)
            assert report.delta > 0
            assert report.within_budget, (model, level, report.max_value)


def three_outcome_strategy(fam):
    """The canonical strategy with I - P_v split into two halves."""
    canon = canonical_strategy(fam)

    def split(povms):
        rest = povms[:, 1:] / 2
        return np.concatenate([povms[:, :1], rest, rest], axis=1)

    return Strategy(
        state=canon.state,
        dim_a=canon.dim_a,
        dim_b=canon.dim_b,
        alice=split(canon.alice),
        bob=split(canon.bob),
    )


@pytest.mark.parametrize("audit", [sync_residuals, approx_rep_residuals, extract_dilation])
def test_audits_share_one_precondition(audit):
    fam = four_family(1)
    with pytest.raises(UnsupportedOutcomeCountError, match="3 outcomes"):
        audit(three_outcome_strategy(fam), fam)
    with pytest.raises(InvalidStrategyError, match="^strategy has 4 questions, family has 5$"):
        audit(fam.canonical_strategy, ladder_family(5, 1))


STRATEGY_CALLS = {
    "sync_residuals": sync_residuals,
    "approx_rep_residuals": approx_rep_residuals,
    "extract_dilation": extract_dilation,
    "tracial_residual": lambda given, fam: tracial_residual(given),
    "dilation_epsilon": lambda given, fam: dilation_epsilon(
        given, fam.canonical_strategy, np.eye(3), np.eye(3), [1.0]
    ),
    "dilation_epsilon reference": lambda given, fam: dilation_epsilon(
        fam.canonical_strategy, given, np.eye(3), np.eye(3), [1.0]
    ),
}


@pytest.mark.parametrize("call", STRATEGY_CALLS)
@pytest.mark.parametrize("given", [{}, None, 3, "strategies"], ids=["dict", "None", "int", "list"])
def test_only_a_strategy_or_a_stack_comes_in(call, given):
    fam = four_family(1)
    if given == "strategies":
        given = [fam.canonical_strategy, fam.canonical_strategy]
    name = type(given).__name__
    with pytest.raises(
        InvalidStrategyError, match=f"^expected a Strategy or a StrategyStack, got {name}$"
    ):
        STRATEGY_CALLS[call](given, fam)


def test_dilation_epsilon_takes_one_reference():
    fam = four_family(1)
    stack = perturb(fam.canonical_strategy, "outcome-noise", [0.0, 1e-3], [1, 2])
    eye = np.eye(3)
    # a stacked source gets the worst residual of its members
    worst = dilation_epsilon(stack, fam.canonical_strategy, eye, eye, [1.0])
    members = [perturb(fam.canonical_strategy, "outcome-noise", lv, 2) for lv in (0.0, 1e-3)]
    assert worst == max(dilation_epsilon(m, fam.canonical_strategy, eye, eye, [1.0]) for m in members)
    with pytest.raises(InvalidStrategyError, match="^the reference must be one Strategy, got a "):
        dilation_epsilon(fam.canonical_strategy, stack, eye, eye, [1.0])


def test_a_single_strategy_raises_its_first_error_at_once(monkeypatch):
    # every fit matrix-free; Alice's solver fails, and Bob's fit must not
    # then run on filler: a Strategy's errors are raised where they are met
    monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", 0)
    fam = four_family(1)
    noisy = perturb(fam.canonical_strategy, "povm-jitter", 1e-3, seed=1)
    solves, fits = [], []

    def failing_solver(apply, dim, count, **kw):
        solves.append(dim)
        raise BudgetExceededError("planted failure")

    fit = selftest._fit
    monkeypatch.setattr(selftest, "krylov_eigh", failing_solver)
    monkeypatch.setattr(selftest, "_fit", lambda *args: fits.append(args[1]) or fit(*args))
    with pytest.raises(BudgetExceededError, match="^planted failure$"):
        extract_dilation(noisy, fam)
    assert solves == [9] and fits == [fam]


def test_tracial_residual_canonical_and_budget():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    assert tracial_residual(strat) < 1e-12
    assert tracial_residual(strat, party="bob") < 1e-12
    ideal = ideal_correlation(4, fam.x)
    for level in (1e-3, 1e-2):
        noisy = perturb(strat, "povm-jitter", level, seed=23)
        delta = np.abs(
            induced_correlation(noisy) - ideal
        ).sum(axis=(2, 3)).max()
        # words up to degree 2 built from n operators
        budget = 2 * (2 * 2) * np.sqrt(delta)
        assert tracial_residual(noisy, degree=2) <= budget


def test_tracial_residual_budget_guard():
    strat = canonical_strategy(four_family(1))
    # the count stops at the budget, so a huge degree is refused at once
    for degree in (10, 10**6):
        with pytest.raises(BudgetExceededError, match="word-pair budget"):
            tracial_residual(strat, degree=degree)


# --- spectral analysis of the correlation operator


def test_tracial_residual_rejects_degree_below_one():
    strat = canonical_strategy(four_family(1))
    with pytest.raises(InvalidDimensionError, match="at least 1, got 0"):
        tracial_residual(strat, degree=0)
    # 2.5 and 2.0 raised a bare TypeError, and True measured degree 1
    strat = perturb(strat, "povm-jitter", 1e-2, seed=3)
    for degree in (2.5, 2.0, True):
        message = f"^monomial degree must be an integer of at least 1, got {degree!r}$"
        with pytest.raises(InvalidDimensionError, match=message):
            tracial_residual(strat, degree=degree)
    assert tracial_residual(strat, degree=np.int64(2)) == tracial_residual(strat, degree=2)


def test_tracial_residual_names_an_unknown_party():
    strat = canonical_strategy(four_family(1))
    with pytest.raises(InvalidStrategyError, match="^party must be 'alice' or 'bob', got 'carol'$"):
        tracial_residual(strat, party="carol")


def test_n_operator_triangle_spectrum():
    op = n_operator(simplex_family(3))
    assert np.allclose(op.spectrum, [1.5, 0.75, 0.75, 0.0], atol=1e-10)
    assert abs(op.lambda_max - 1.5) < 1e-12
    assert abs(op.gap - 0.75) < 1e-12
    assert op.entangled_overlap > 1 - 1e-12


def test_n_operator_top_eigenvalue_is_scalar():
    fams = [simplex_family(n) for n in (3, 4, 5, 6)]
    fams += [four_family(k) for k in (1, 2, 3)]
    for fam in fams:
        op = n_operator(fam)
        assert abs(op.lambda_max - float(fam.x)) < 1e-9
        assert op.gap > 1e-6
        assert op.entangled_overlap > 1 - 1e-9
        phi = maximally_entangled(fam.d)
        assert abs(abs(np.vdot(op.top_vector, phi)) - 1.0) < 1e-9


def test_n_operator_rejects_degenerate_top():
    e11 = np.diag([1.0, 0.0]).astype(np.complex128)
    e22 = np.diag([0.0, 1.0]).astype(np.complex128)
    fam = ProjectionFamily(
        n=4, x=Fraction(2), d=2, projections=(e11, e11, e22, e22)
    )
    with pytest.raises(SpectralDegeneracyError):
        n_operator(fam)
    with pytest.raises(SpectralDegeneracyError):
        fam.correlation_gap


def test_ladder_gap_is_four_over_d_squared(monkeypatch):
    # the matrix-free gap against 4/d^2, and against the dense oracle up to
    # d=31, whose gap is a difference of eigenvalues and so only good to
    # 1e-12.  The d=61 solve restarts; its gap must not depend on the start
    # block, so it is measured from four of them
    for k in (1, 5, 10, 15):
        fam = four_family(k)
        expected = 4.0 / fam.d**2
        assert abs(fam.correlation_gap - expected) <= 1e-13 * expected
        assert abs(n_operator(fam).gap - fam.correlation_gap) <= 1e-12 * expected
    fam = four_family(30)
    expected = 4.0 / fam.d**2
    for seed in range(linalg.KRYLOV_SEED, linalg.KRYLOV_SEED + 4):
        monkeypatch.setattr(linalg, "KRYLOV_SEED", seed)
        gap = ProjectionFamily(fam.n, fam.x, fam.d, fam.projections).correlation_gap
        assert abs(gap - expected) <= 1e-13 * expected


# simplex_family(n) is ladder_family(n, 1); every higher rung with d <= 31
GAP_RUNGS = [(n, 1) for n in range(3, 8)] + [(4, k) for k in range(2, 16)] + [
    (5, 2), (5, 3), (6, 2), (7, 2)
]


@given(rung=st.sampled_from(GAP_RUNGS))
def test_correlation_gap_matches_the_dense_oracle(rung):
    fam = ladder_family(*rung)
    dense = n_operator(fam).gap
    assert abs(fam.correlation_gap - dense) <= 1e-12 * dense


def test_eigvec_overlap_bound_two_level_equality():
    a = np.diag([2.0, 1.0])
    for theta in (0.0, 0.3, 1.0):
        xi = np.array([np.cos(theta), np.sin(theta)])
        lhs, rhs = eigvec_overlap_bound(a, xi)
        assert abs(lhs - np.cos(theta) ** 2) < 1e-12
        # two distinct eigenvalues make the bound tight
        assert abs(lhs - rhs) < 1e-12


def test_eigvec_overlap_bound_is_a_lower_bound():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(3, 9))
        w = np.sort(rng.uniform(0, 1, size=d))[::-1]
        w[0] += 0.5  # keep the top simple
        u = random_unitary(d, rng)
        a = (u * w) @ u.conj().T
        xi = random_state(d, rng)
        lhs, rhs = eigvec_overlap_bound(a, xi)
        assert lhs >= rhs - 1e-10


def test_eigvec_overlap_bound_rejects_flat_spectrum():
    with pytest.raises(SpectralDegeneracyError):
        eigvec_overlap_bound(np.eye(3), np.array([1.0, 0.0, 0.0]))


# --- intertwiners


def test_find_intertwiner_identity_candidate():
    fam = four_family(1)
    u = find_intertwiner(fam, fam.projections)
    assert u.shape == (3, 3)
    for p in fam.projections:
        assert np.linalg.norm(u @ p @ u.conj().T - p) < 1e-10


def test_find_intertwiner_recovers_conjugation():
    rng = np.random.default_rng(31)
    for fam in (simplex_family(3), four_family(2)):
        v = random_unitary(fam.d, rng)
        candidate = [v @ p @ v.conj().T for p in fam.projections]
        u = find_intertwiner(fam, candidate)
        for p, c in zip(fam.projections, candidate):
            assert np.linalg.norm(u @ c @ u.conj().T - p) < 1e-9


def test_find_intertwiner_at_d21():
    fam = four_family(10)
    v = random_unitary(fam.d, np.random.default_rng(43))
    candidate = [v @ p @ v.conj().T for p in fam.projections]
    u = find_intertwiner(fam, candidate)
    assert u.shape == (21, 21)
    assert np.linalg.norm(u.conj().T @ u - np.eye(21)) < 1e-12
    for p, c in zip(fam.projections, candidate):
        assert np.linalg.norm(u @ c @ u.conj().T - p) < 1e-9


def test_find_intertwiner_direct_sum_multiplicity_two():
    fam = four_family(1)
    rng = np.random.default_rng(37)
    v = random_unitary(6, rng)
    candidate = [v @ np.kron(p, np.eye(2)) @ v.conj().T for p in fam.projections]
    u = find_intertwiner(fam, candidate)
    assert u.shape == (6, 6)
    for p, c in zip(fam.projections, candidate):
        target = np.kron(p, np.eye(2))
        assert np.linalg.norm(u @ c @ u.conj().T - target) < 1e-8


def test_find_intertwiner_rejects_perturbed_candidate():
    fam = four_family(1)
    rng = np.random.default_rng(41)
    v = random_unitary(3, rng)
    candidate = [v @ p @ v.conj().T for p in fam.projections]
    candidate[0] = candidate[0] + 1e-5 * np.eye(3)
    with pytest.raises((IntertwinerError, NotARepresentationError)):
        find_intertwiner(fam, candidate)


def test_find_intertwiner_rejects_wrong_dimension():
    fam = four_family(1)
    candidate = [np.eye(4) for _ in range(4)]
    with pytest.raises(NotARepresentationError):
        find_intertwiner(fam, candidate)


def test_find_intertwiner_error_classes():
    fam = four_family(1)
    good = list(fam.projections)
    for bad_first in (1.0, np.ones(4), np.ones((4, 3))):
        with pytest.raises(InvalidShapeError):
            find_intertwiner(fam, [bad_first] + good[1:])
    with pytest.raises(InvalidShapeError):
        find_intertwiner(fam, good[:3] + [np.eye(6)])
    with pytest.raises(NotARepresentationError, match="expected 4 candidate operators, got 3"):
        find_intertwiner(fam, good[:3])


# --- isometry fitting


def test_fit_isometry_exact_conjugated_family():
    fam = four_family(1)
    rng = np.random.default_rng(43)
    for s in (1, 2):
        u = random_unitary(fam.d * s, rng)
        ops = [u @ np.kron(p, np.eye(s)) @ u.conj().T for p in fam.projections]
        rho = np.eye(fam.d * s) / (fam.d * s)
        fit = fit_isometry(ops, fam, rho)
        assert fit.s == s
        assert fit.max_residual < 1e-8
        v = fit.isometry
        assert np.allclose(v.conj().T @ v, np.eye(fam.d * s), atol=1e-10)


def test_fit_isometry_shape_and_budget_guards(monkeypatch):
    fam = four_family(1)
    with pytest.raises(InvalidShapeError, match="^operators must share a square shape$"):
        fit_isometry(np.zeros((4, 3, 2)), fam, np.eye(3) / 3)
    with pytest.raises(InvalidShapeError, match=r"^weight shape \(2, 2\) does not match operators$"):
        fit_isometry(fam.projections, fam, np.eye(2) / 2)
    with pytest.raises(InvalidShapeError, match="ops: entries do not form"):
        fit_isometry([np.eye(3)] * 3 + [np.eye(4)], fam, np.eye(3) / 3)
    with pytest.raises(InvalidShapeError, match="expected 4 operators"):
        fit_isometry(np.zeros((3, 3, 3)), fam, np.eye(3) / 3)
    # r = 94 against d = 31 gives s = 4 and a 94 * 31 = 2914-row form.  Its
    # Krylov basis for a block of 5 holds at most 250 vectors, within the
    # budget: the zero operators make a degenerate form, which is refused
    fam = four_family(15)
    ops = np.zeros((4, 94, 94))
    rho = np.eye(94) / 94
    with pytest.raises(FitDegenerateError, match="not separated"):
        fit_isometry(ops, fam, rho)
    # under a budget of 5 * 10^5 entries the same basis is refused before it
    # is allocated: with its projected matrix it takes 250 * 3164 complex
    # entries, about 13 MB
    monkeypatch.setattr(linalg, "KRYLOV_BUDGET", 5 * 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="2914-row"):
            fit_isometry(ops, fam, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_fit_isometry_degenerate_candidate_raises(monkeypatch):
    fam = four_family(1)
    # operators supported on half the space force a rank-deficient fit
    ops = [np.kron(p, np.diag([1.0, 0.0])) for p in fam.projections]
    rho = np.eye(6) / 6
    with pytest.raises(FitDegenerateError):
        fit_isometry(ops, fam, rho)
    # a separated form whose eigenvector is replaced by e_0: T has rank one
    monkeypatch.setattr(
        selftest, "_lowest_eigvec", lambda quad, w, failures: np.eye(w.shape[-1], 1)
    )
    with pytest.raises(FitDegenerateError, match="^fitted map has a rank-deficient polar factor$"):
        fit_isometry(fam.projections, fam, np.eye(3) / 3)


def test_fit_isometry_against_a_one_dimensional_family(monkeypatch):
    # d = 1 makes s = r = rows: Q's s lowest eigenvectors are all of them,
    # so every T solves, no eigensolver runs, and the isometry is the polar
    # factor of the seeded draw itself
    def unreachable(*args, **kw):
        raise AssertionError("an eigensolver ran for a one-dimensional family")

    monkeypatch.setattr(selftest, "krylov_eigh", unreachable)
    monkeypatch.setattr(selftest, "_lowest_eigvec", unreachable)
    fam = ProjectionFamily(3, Fraction(1), 1, [[[1]], [[0]], [[0]]])
    ops = [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]
    fit = fit_isometry(ops, fam, np.eye(2) / 2)
    assert fit.s == 2
    rng = np.random.default_rng(7)
    draw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(fit.isometry - nearest_isometry(draw.T)).max() < 1e-15
    assert fit.max_residual < 1e-15


def kron_fit_isometry(ops, fam, rho):
    """fit_isometry on the Kronecker form: the targets P_v kron I_s act on all
    of T, an (r d s)-row form whose s^2 lowest eigenvectors (one full eigh)
    span the solutions; returns the isometry and its residuals."""
    r, d = len(rho), fam.d
    s = -(-r // d)
    ds = d * s
    rho_reg = (rho + 1e-6 * (np.trace(rho).real / r) * np.eye(r)) / (1.0 + 1e-6)
    targets = np.kron(fam.projections, np.eye(s))
    # on column-major vec(T): vec(A T W) = (W^T kron A) vec(T)
    quad = sum(
        np.kron((rho_reg - e @ rho_reg - rho_reg @ e).T, a)
        + np.kron((e @ rho_reg @ e).T, np.eye(ds))
        for e, a in zip(ops, targets)
    )
    vecs = fix_phases(np.linalg.eigh((quad + dagger(quad)) / 2.0)[1][:, : s * s])
    if s == 1:
        x = vecs[:, 0]
    else:
        rng = np.random.default_rng(7)
        draw = rng.normal(size=len(quad)) + 1j * rng.normal(size=len(quad))
        x = vecs @ (vecs.conj().T @ draw)
    v = nearest_isometry(x.reshape((ds, r), order="F"))
    return v, seminorm(ops - dagger(v) @ targets @ v, rho)


def fit_paths(monkeypatch, ops, fam, rho):
    """fit_isometry on the dense path, then on the matrix-free one."""
    fits = []
    for min_rows in (10**9, 0):
        monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", min_rows)
        fits.append(fit_isometry(ops, fam, rho))
    return fits


@pytest.mark.parametrize(
    "k, ka, model, basis_blocks",
    [pytest.param(k, ka, model, None, id=f"{k}-{ka}-{model}")
     for k, ka, model in [(1, 1, "povm-jitter"), (5, 1, "state-mixing"), (7, 1, "povm-jitter"),
                          (1, 2, "povm-jitter"), (3, 2, "outcome-noise"), (1, 3, "povm-jitter")]]
    + [(5, 1, "povm-jitter", 10), (2, 2, "povm-jitter", 10)],
)
def test_fit_isometry_paths_agree(monkeypatch, k, ka, model, basis_blocks):
    # s = ka; for s > 1 the isometry is drawn from the solution space
    # independently of its basis, so equal isometries mean equal subspaces.
    # An ancilla fit is matrix-free on both paths, so for s > 1 the
    # reference is the Kronecker-form oracle; s = 3 runs a Krylov block of
    # 4.  Bob's ancilla is at least as large as Alice's, so rho_A has full
    # rank and the ridge does not set the solution.  A basis of 10 blocks is
    # smaller than the 121- and 50-row forms, so the matrix-free path restarts
    fam = four_family(k)
    strat, _ = planted_strategy(fam, ka, max(ka, 2), seed=k)
    noisy = perturb(strat, model, 1e-3, seed=k)
    ops, rho_a = noisy.alice[:, 0], noisy.reduced_densities[0]
    if basis_blocks is not None:
        monkeypatch.setattr(linalg, "KRYLOV_BASIS_BLOCKS", basis_blocks)
    rows = []
    solve = selftest.krylov_eigh
    monkeypatch.setattr(
        selftest,
        "krylov_eigh",
        lambda apply, dim, count, **kw: solve(
            lambda b: rows.append(len(b)) or apply(b), dim, count, **kw
        ),
    )
    dense, krylov = fit_paths(monkeypatch, ops, fam, rho_a)
    assert basis_blocks is None or restarted(rows)
    assert dense.s == krylov.s == ka
    if ka == 1:
        v, residuals = dense.isometry, dense.residuals
    else:
        v, residuals = kron_fit_isometry(ops, fam, rho_a)
    assert np.abs(krylov.isometry - v).max() < 1e-10
    assert np.abs(krylov.residuals - residuals).max() < 1e-10


@pytest.mark.parametrize("k, s", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_fit_isometry_matches_the_kron_form_oracle(monkeypatch, k, s):
    # an s-dimensional junk ancilla on both sides makes rho_A full rank, so
    # the solution is set by the noisy operators and not by the ridge
    fam = four_family(k)
    strat, _ = planted_strategy(fam, s, s, seed=k)
    noisy = perturb(strat, "povm-jitter", 1e-3, seed=k)
    ops, rho_a = noisy.alice[:, 0], noisy.reduced_densities[0]
    v, residuals = kron_fit_isometry(ops, fam, rho_a)
    for fit in fit_paths(monkeypatch, ops, fam, rho_a):
        assert fit.s == s
        assert np.abs(fit.isometry - v).max() < 1e-10
        assert np.abs(fit.residuals - residuals).max() < 1e-10


def test_fit_isometry_rejects_degenerate_form_on_both_paths(monkeypatch):
    # the k=1 canonical operators against the k=2 family: the lowest
    # eigenvalue (0.0889) of the 15-row form is triply degenerate
    strat = canonical_strategy(four_family(1))
    rho_a, _ = reduced_densities(strat.state, (strat.dim_a, strat.dim_b))
    for min_rows in (10**9, 0):
        monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", min_rows)
        with pytest.raises(FitDegenerateError, match="not separated"):
            fit_isometry(strat.alice[:, 0], four_family(2), rho_a)


def test_fit_refuses_a_separation_its_guard_residual_undoes(monkeypatch):
    # the solver's eigenvalues are kept, so the Ritz gap passes, but its
    # guard vector is tilted halfway to a random direction and returned with
    # the residual measured on it, which exceeds the gap: the fit must take
    # the residual the solver returns off the separation
    fam = four_family(1)
    noisy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=1)
    ops, rho = noisy.alice[:, 0], noisy.reduced_densities[0]
    monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", 0)
    solve = selftest.krylov_eigh
    spectra = []

    def tilted(apply, dim, count, **kw):
        w, vecs, residuals = solve(apply, dim, count, **kw)
        spectra.append(-w)
        z = np.random.default_rng(3).normal(size=dim) + 0j
        z -= vecs @ (vecs.conj().T @ z)
        guard = (vecs[:, -1] + z / np.linalg.norm(z)) / np.sqrt(2.0)
        vecs, residuals = vecs.copy(), residuals.copy()
        vecs[:, -1] = guard
        residuals[-1] = np.linalg.norm(apply(guard[None])[0] - w[-1] * guard)
        return w, vecs, residuals

    fit_isometry(ops, fam, rho)
    monkeypatch.setattr(selftest, "krylov_eigh", tilted)
    with pytest.raises(FitDegenerateError, match="not separated .*, residual"):
        fit_isometry(ops, fam, rho)
    w, = spectra
    assert w[1] - w[0] > selftest.FIT_SEPARATION_TOL * np.trace(rho).real


def count_applications(name, module, run):
    """run()'s result and the number of calls it made to the functions named
    ``name`` defined in ``module``, inner functions included."""
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == name and code.co_filename == module.__file__:
            calls.append(code)

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, len(calls)


def test_d31_matrix_free_solves_stay_within_their_application_counts(monkeypatch):
    # operator applications are steadier than time; the counts before the
    # solver estimated its residuals were 184 (155 block steps and 29
    # checks) for the fit and 53 for the gap.  Both apply the one
    # linalg.sandwich_operator kernel, and the fit only inside the solver:
    # the guard residual is the solver's
    fam = four_family(15)
    noisy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=1)
    solver_calls = []
    solve = selftest.krylov_eigh
    monkeypatch.setattr(
        selftest,
        "krylov_eigh",
        lambda apply, *args, **kw: solve(
            lambda b: solver_calls.append(len(b)) or apply(b), *args, **kw
        ),
    )
    run = lambda: fit_isometry(noisy.alice[:, 0], fam, noisy.reduced_densities[0])
    _, fit_calls = count_applications("apply", linalg, run)
    assert fit_calls == len(solver_calls) <= 150
    gap, gap_calls = count_applications("apply", linalg, lambda: fam.correlation_gap)
    assert gap_calls <= 53
    dense = n_operator(fam).gap
    assert abs(gap - dense) <= 1e-12 * dense


def test_d31_matrix_free_fit_solves_rayleigh_ritz_on_at_most_100_rows(monkeypatch):
    # the fit's block of 2 in a basis of KRYLOV_BASIS_BLOCKS blocks: every
    # dense eigh inside it is a Rayleigh-Ritz problem of at most 100 rows,
    # and the basis fills, so the largest has exactly 100
    fam = four_family(15)
    noisy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=1)
    rows = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args, **kw: rows.append(len(a)) or eigh(a, *args, **kw)
    )
    fit_isometry(noisy.alice[:, 0], fam, noisy.reduced_densities[0])
    assert max(rows) == 2 * linalg.KRYLOV_BASIS_BLOCKS == 100


def test_d31_matrix_free_fit_steps_take_no_wide_svd_and_fewer_checks(monkeypatch):
    # each block step's rank test is a QR of the 961 x 2 residual and an SVD
    # of its 2 x 2 factor, and no Rayleigh-Ritz check falls within one
    # spacing of a restart, which checks anyway.  Before, the fit made 35
    # checks, 7.72e6 rows^3 in all, and 137 SVDs of 2 x 961 blocks
    fam = four_family(15)
    noisy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=1)
    rows, shapes = [], []
    eigh, svd = np.linalg.eigh, np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args, **kw: rows.append(len(a)) or eigh(a, *args, **kw)
    )
    monkeypatch.setattr(
        np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw)
    )
    fit_isometry(noisy.alice[:, 0], fam, noisy.reduced_densities[0])
    assert len(rows) <= 33 and max(rows) == 100
    assert sum(m**3 for m in rows) <= 6.0e6
    # the only SVD wider than the block of 2 is the fit's own polar factor
    assert [shape for shape in shapes if max(shape) > 2] == [(1, 31, 31)]


def test_fit_isometry_reads_only_the_callers_arrays(monkeypatch):
    # the form, its spectrum and the residual operators are the fit's own
    # arrays: only ops and rho go through as_array, on both paths
    fam = four_family(1)
    noisy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=1)
    ops, rho = noisy.alice[:, 0], noisy.reduced_densities[0]
    reads = []
    real = linalg.as_array

    def counted(a, ndim, where, *args, **kw):
        reads.append(where)
        return real(a, ndim, where, *args, **kw)

    monkeypatch.setattr(linalg, "as_array", counted)
    monkeypatch.setattr(selftest, "as_array", counted)
    for min_rows in (10**9, 0):
        monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", min_rows)
        reads.clear()
        fit_isometry(ops, fam, rho)
        assert reads == ["ops", "rho"]


def full_eigh_vector(quad, w, failures):
    """The dense fit's eigenvector of each member from a full
    eigendecomposition: the oracle."""
    return fix_phases(np.linalg.eigh(quad)[1][..., :1])


@pytest.mark.parametrize(
    "k, ka, model, level",
    [(1, 1, "povm-jitter", 1e-3), (5, 1, "state-mixing", 1e-3), (5, 1, "povm-jitter", 0.1),
     (1, 2, "povm-jitter", 1e-3), (5, 2, "outcome-noise", 1e-3)],
)
def test_dense_fit_matches_full_eigh_oracle(monkeypatch, k, ka, model, level):
    # an ancilla fit (ka = 2) is matrix-free at any size: its oracle is the
    # full eigh of the Kronecker form
    fam = four_family(k)
    strat, _ = planted_strategy(fam, ka, 2, seed=k)
    noisy = perturb(strat, model, level, seed=k)
    rho_a, _ = reduced_densities(noisy.state, (noisy.dim_a, noisy.dim_b))
    ops = noisy.alice[:, 0]
    monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", 10**9)
    fit = fit_isometry(ops, fam, rho_a)
    assert fit.s == ka
    if ka == 1:
        monkeypatch.setattr(selftest, "_lowest_eigvec", full_eigh_vector)
        oracle = fit_isometry(ops, fam, rho_a)
        v, residuals, tol = oracle.isometry, oracle.residuals, 1e-12
    else:
        (v, residuals), tol = kron_fit_isometry(ops, fam, rho_a), 1e-10
    assert np.abs(fit.isometry - v).max() < tol
    assert np.abs(fit.residuals - residuals).max() < tol


def recorded_fit_forms(monkeypatch, fits):
    """Run fits(); return (quad, w) of every dense fit it made, member by
    member."""
    forms = []
    real = selftest._lowest_eigvec
    monkeypatch.setattr(
        selftest,
        "_lowest_eigvec",
        lambda quad, w, failures: forms.extend(zip(quad, w)) or real(quad, w, failures),
    )
    fits()
    monkeypatch.undo()
    return forms


@pytest.mark.parametrize("k", [1, 2, 5])
def test_dense_fit_vectors_match_the_loop_on_ladder_fits(monkeypatch, k):
    fam = four_family(k)
    noisy = [
        perturb(fam.canonical_strategy, model, level, seed=k)
        for model in NOISE_MODELS
        for level in (1e-4, 1e-3, 1e-2, 1e-1)
    ]

    def fits():
        for strat in noisy:
            rho_a, rho_b = reduced_densities(strat.state, (strat.dim_a, strat.dim_b))
            fit_isometry(strat.alice[:, 0], fam, rho_a)
            fit_isometry(strat.bob[:, 0], fam.transposed, rho_b)

    forms = recorded_fit_forms(monkeypatch, fits)
    assert len(forms) == 2 * len(noisy)
    for quad, w in forms:
        assert np.array_equal(_lowest_eigvec(quad, w), loop_lowest_eigvec(quad, w))


def test_dense_fit_checks_separation_before_vectors(monkeypatch):
    def unreachable(quad, w, failures):
        raise AssertionError("eigenvectors computed for a degenerate form")

    monkeypatch.setattr(selftest, "_lowest_eigvec", unreachable)
    strat = canonical_strategy(four_family(1))
    rho_a, _ = reduced_densities(strat.state, (strat.dim_a, strat.dim_b))
    with pytest.raises(FitDegenerateError, match="not separated"):
        fit_isometry(strat.alice[:, 0], four_family(2), rho_a)


# --- real arithmetic: a problem whose data is exactly real is solved in float64


def dtype_spy(monkeypatch):
    """Record the dtypes that reach each eigensolver: the gap's and the fit's
    krylov_eigh blocks and images, and the dense fit's matrices."""
    seen = {"gap": set(), "fit": set(), "spectrum": set(), "vector": set()}

    def krylov(name):
        def solve(apply, dim, count, guard=0, dtype=np.complex128):
            def recorded(rows):
                image = apply(rows)
                seen[name].update((rows.dtype, image.dtype))
                return image

            seen[name].add(np.dtype(dtype))
            return linalg.krylov_eigh(recorded, dim, count, guard, dtype)

        return solve

    def dense(name, solver):
        return lambda m, *w: seen[name].add(m.dtype) or solver(m, *w)

    monkeypatch.setattr(families, "krylov_eigh", krylov("gap"))
    monkeypatch.setattr(selftest, "krylov_eigh", krylov("fit"))
    monkeypatch.setattr(selftest, "_hermitian_spectrum", dense("spectrum", selftest._hermitian_spectrum))
    monkeypatch.setattr(selftest, "_lowest_eigvec", dense("vector", selftest._lowest_eigvec))
    return seen


def test_real_problems_reach_the_eigensolvers_in_float64(monkeypatch):
    # d = 11 fits are dense, d = 31 fits matrix-free; the same family
    # conjugated by a complex unitary, and povm-jitter's complex conjugation,
    # keep their solves complex
    real, cplx = np.dtype(np.float64), np.dtype(np.complex128)
    fam, big = four_family(5), four_family(15)
    u = random_unitary(fam.d, np.random.default_rng(47))
    rotated = ProjectionFamily(fam.n, fam.x, fam.d, u @ fam.projections @ dagger(u))
    cases = [
        (fam, fam.canonical_strategy, real, real),
        (fam, perturb(fam.canonical_strategy, "outcome-noise", 1e-3, seed=0), real, real),
        (big, perturb(big.canonical_strategy, "outcome-noise", 1e-3, seed=0), real, real),
        (rotated, rotated.canonical_strategy, cplx, cplx),
        (fam, perturb(fam.canonical_strategy, "povm-jitter", 1e-3, seed=0), cplx, real),
    ]
    for family, strat, fit_dtype, gap_dtype in cases:
        seen = dtype_spy(monkeypatch)
        rho_a, _ = strat.reduced_densities
        fit_isometry(strat.alice[:, 0], family, rho_a)
        ProjectionFamily(family.n, family.x, family.d, family.projections).correlation_gap
        monkeypatch.undo()
        dense = family.d * family.d <= selftest.KRYLOV_MIN_ROWS
        assert seen == {
            "gap": {gap_dtype},
            "fit": set() if dense else {fit_dtype},
            "spectrum": {fit_dtype} if dense else set(),
            "vector": {fit_dtype} if dense else set(),
        }


def complex_solve(monkeypatch, module, solve):
    """solve() with every problem in ``module`` kept complex128."""
    with monkeypatch.context() as patch:
        patch.setattr(module, "real_if_exact", lambda *arrays: arrays)
        return solve()


@pytest.mark.parametrize(
    "k, model", [(5, "canonical"), (5, "outcome-noise"), (15, "outcome-noise")]
)
def test_real_fit_matches_the_complex_solve(monkeypatch, k, model):
    # d = 11 is the dense path, d = 31 the matrix-free one
    fam = four_family(k)
    strat = fam.canonical_strategy
    if model != "canonical":
        strat = perturb(strat, model, 1e-3, seed=k)
    for ops, family, rho in zip(
        (strat.alice[:, 0], strat.bob[:, 0]), (fam, fam.transposed), strat.reduced_densities
    ):
        fit = fit_isometry(ops, family, rho)
        oracle = complex_solve(monkeypatch, selftest, lambda: fit_isometry(ops, family, rho))
        assert fit.isometry.dtype == np.complex128
        assert np.abs(fit.isometry - oracle.isometry).max() < 1e-12
        assert np.abs(fit.residuals - oracle.residuals).max() < 1e-12


def test_real_ancilla_fit_matches_the_complex_solve_and_the_kron_oracle(monkeypatch):
    # the d = 5 family planted with an ancilla of 2 by a real rotation, mixed
    # with the uniform outcome and weighted by a real density
    fam = four_family(2)
    rng = np.random.default_rng(53)
    o = np.linalg.qr(rng.normal(size=(10, 10)))[0]
    ops = 0.999 * (o @ np.kron(fam.projections, np.eye(2)) @ o.T) + 0.0005 * np.eye(10)
    weights = rng.uniform(0.5, 1.5, 10)
    rho = (o * (weights / weights.sum())) @ o.T
    fit = fit_isometry(ops, fam, rho)
    assert fit.s == 2
    oracle = complex_solve(monkeypatch, selftest, lambda: fit_isometry(ops, fam, rho))
    v, residuals = kron_fit_isometry(ops, fam, rho)
    for iso, res in ((oracle.isometry, oracle.residuals), (v, residuals)):
        assert np.abs(fit.isometry - iso).max() < 1e-12
        assert np.abs(fit.residuals - res).max() < 1e-12


def test_real_gap_matches_the_complex_solve_on_every_rung(monkeypatch):
    for rung in GAP_RUNGS:
        fam = ladder_family(*rung)
        fresh = ProjectionFamily(fam.n, fam.x, fam.d, fam.projections)
        oracle = complex_solve(monkeypatch, families, lambda: fresh.correlation_gap)
        dense = n_operator(fam).gap
        assert abs(fam.correlation_gap - oracle) <= 1e-12 * oracle, rung
        assert abs(fam.correlation_gap - dense) <= 1e-12 * dense, rung


def test_import_and_fit_load_no_scipy():
    # importing scipy.linalg alone takes longer than the whole package setup
    code = (
        "import sys, numpy as np\n"
        "from projsum.families import four_family\n"
        "from projsum.linalg import reduced_densities\n"
        "from projsum.selftest import fit_isometry\n"
        "from projsum.strategies import perturb\n"
        "fam = four_family(2)\n"
        "strat = perturb(fam.canonical_strategy, 'povm-jitter', 1e-3, 1)\n"
        "rho, _ = reduced_densities(strat.state, (strat.dim_a, strat.dim_b))\n"
        "fit_isometry(strat.alice[:, 0], fam, rho)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_loads_no_submodule_and_each_module_imports_alone():
    # the package fixes no import order, so a cycle would show in whichever
    # module a fresh interpreter imports first
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    names = sorted(f[:-3] for f in os.listdir(os.path.join(src, "projsum")) if f.endswith(".py"))
    assert names[0] == "__init__" and "selftest" in names
    code = "import sys, {0}; print(sorted(m for m in sys.modules if m.startswith('projsum')))"
    for name in names:
        module = "projsum" if name == "__init__" else f"projsum.{name}"
        out = subprocess.run(
            [sys.executable, "-c", code.format(module)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        if module == "projsum":
            assert out.stdout.strip() == "['projsum']"


# --- representation residual reports


def test_approx_rep_residuals_canonical():
    fam = four_family(2)
    strat = canonical_strategy(fam)
    report = approx_rep_residuals(strat, fam)
    assert report.delta < 1e-12
    assert report.rep_residual_a < 1e-10
    assert report.rep_residual_b < 1e-10
    assert report.sync_max < 1e-10
    assert report.tracial_residual < 1e-12
    assert report.lemma35_pass and report.lemma63_pass and report.tracial_pass


def test_approx_rep_residuals_noisy_within_bounds():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    for level in (1e-4, 1e-2):
        for model in ("state-mixing", "povm-jitter", "outcome-noise"):
            noisy = perturb(strat, model, level, seed=47)
            report = approx_rep_residuals(noisy, fam)
            assert report.lemma35_pass, (model, level)
            assert report.lemma63_pass, (model, level)
            assert report.tracial_pass, (model, level)
            c = np.sqrt(16 + (1 + 2 * 4 / 3) * np.sqrt(report.delta))
            assert report.rep_residual_a <= c * report.delta**0.25 + 1e-12


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_rep_residuals_match_the_trace_seminorm_oracle(model):
    fam = four_family(1)
    planted, _ = planted_strategy(fam, 2, 3, seed=4)
    for base in (fam.canonical_strategy, planted):
        for level in (0.0, 1e-4, 1e-2, 1e-1):
            noisy = perturb(base, model, level, seed=31)
            report = approx_rep_residuals(noisy, fam)
            oracle = seminorm_rep_residuals(noisy, float(fam.x))
            measured = [report.rep_residual_a, report.rep_residual_b]
            assert measured == pytest.approx(oracle, rel=1e-12, abs=0), (base.dim_a, level)


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_reports_and_certificates_hold_plain_floats_and_bools(model):
    # a numpy bool or float in a sweep row would need a cast before json
    fam = four_family(1)
    noisy = perturb(fam.canonical_strategy, model, 1e-2, seed=3)
    report = approx_rep_residuals(noisy, fam)
    names = [f.name for f in dataclasses.fields(report) if f.type == "float"]
    names += [name for name, v in vars(ResidualReport).items() if isinstance(v, property)]
    assert len(names) == 14
    for name in names:
        value = getattr(report, name)
        assert type(value) is (bool if name.endswith("_pass") else float), name
    cert = extract_dilation(noisy, fam)
    for name in ("epsilon", "alpha", "beta", "gap", "state_residual", "delta"):
        assert type(getattr(cert, name)) is float, name
    for name in ("ref_dim_a", "ref_dim_b", "anc_dim_a", "anc_dim_b", "source_dim_a", "source_dim_b"):
        assert type(getattr(cert, name)) is int, name


def test_rep_residuals_read_the_sync_report_and_weigh_no_seminorm(monkeypatch):
    fam = four_family(1)
    noisy = perturb(fam.canonical_strategy, "povm-jitter", 1e-2, seed=3)
    calls = count_projsum_calls(monkeypatch, sync_residuals, seminorm, linalg._seminorm)
    report = approx_rep_residuals(noisy, fam)
    assert calls == {"sync_residuals": 1}
    # the fits do weigh with the seminorm kernel, so the counter sees it
    extract_dilation(noisy, fam)
    assert calls["_seminorm"] == 2
    # delta, c_bound and the idempotency defects are views of the sync report
    names = [f.name for f in dataclasses.fields(report)]
    assert names == [
        "n", "x", "sync", "sum_residual_a", "sum_residual_b", "tracial_a", "tracial_b", "monomial_degree"
    ]


# --- dilation extraction


def test_extract_dilation_canonical_is_exact():
    for fam in (simplex_family(3), four_family(1), four_family(2)):
        strat = canonical_strategy(fam)
        cert = extract_dilation(strat, fam)
        assert cert.epsilon < 1e-10
        assert abs(cert.alpha - 1.0) < 1e-10
        assert cert.anc_dim_a == 1 and cert.anc_dim_b == 1
        assert cert.gap > 0


def test_extract_dilation_planted_round_trip():
    fam = four_family(1)
    for seed in range(3):
        for ka, kb in ((1, 2), (2, 2), (3, 2)):
            strat, junk = planted_strategy(fam, ka, kb, seed=seed)
            cert = extract_dilation(strat, fam)
            assert cert.epsilon < 1e-6, (seed, ka, kb, cert.epsilon)
            assert cert.anc_dim_a == ka and cert.anc_dim_b == kb
            fid = aligned_junk_fidelity(
                cert.junk, (cert.anc_dim_a, cert.anc_dim_b), junk, (ka, kb)
            )
            assert fid > 1 - 1e-8
            # stored junk is Schmidt-diagonal: nonnegative nonincreasing
            mat = cert.junk.reshape(ka, kb)
            sv = np.diag(mat[: min(ka, kb), : min(ka, kb)]).real
            assert np.all(sv >= -1e-12)
            assert np.all(np.diff(sv) <= 1e-12)


def test_extract_dilation_epsilon_matches_direct_check():
    fam = four_family(1)
    strat, _ = planted_strategy(fam, 2, 2, seed=8)
    cert = extract_dilation(strat, fam)
    direct = dilation_epsilon(
        strat, canonical_strategy(fam), cert.v_a, cert.v_b, cert.junk
    )
    assert abs(direct - cert.epsilon) < 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
@pytest.mark.parametrize("level", [0.0, 1e-3])
def test_block_gauge_matches_the_kron_gauge(dims, level):
    fam = four_family(1)
    strat, _ = planted_strategy(fam, *dims, seed=8)
    noisy = perturb(strat, "povm-jitter", level, seed=8)
    cert = extract_dilation(noisy, fam)
    assert (cert.anc_dim_a, cert.anc_dim_b) == dims
    v_a, v_b, junk = kron_gauge_dilation(noisy, fam)
    assert np.abs(cert.v_a - v_a).max() < 1e-12
    assert np.abs(cert.v_b - v_b).max() < 1e-12
    assert np.abs(cert.junk - junk).max() < 1e-12
    oracle = kron_dilation_residuals(noisy, fam.canonical_strategy, v_a, v_b, junk)
    assert abs(cert.epsilon - oracle.max()) < 1e-12
    assert abs(cert.state_residual - oracle[0]) < 1e-12


def test_dilation_epsilon_names_each_mismatch():
    fam = four_family(1)
    canon = fam.canonical_strategy
    eye = np.eye(3)
    short, narrow = np.eye(4)[:, :3], np.eye(6)[:, :2]
    cases = [
        ((canon, simplex_family(3).canonical_strategy, eye, eye, [1.0]), "question counts differ"),
        ((three_outcome_strategy(fam), canon, eye, eye, [1.0]), "outcome counts differ"),
        ((canon, canon, short, eye, [1.0]), "isometry ranges are not multiples of the reference dims"),
        ((canon, canon, narrow, eye, [1.0, 0.0]), "isometry domains do not match the source strategy"),
        ((canon, canon, eye, eye, [1.0, 0.0]), "junk length 2 != ancilla product 1"),
    ]
    for args, message in cases:
        error = InvalidStrategyError if "counts" in message else InvalidShapeError
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            dilation_epsilon(*args)


def test_dilation_residuals_budget_refuses_before_allocating(monkeypatch):
    # the residual stacks of a d = 201 certificate fit the budget, with room
    assert 4 * 8**2 * 201**2 <= linalg.KRYLOV_BUDGET
    fam = four_family(15)
    strat = perturb(fam.canonical_strategy, "outcome-noise", 1e-3, seed=0)
    eye = np.eye(fam.d)
    # at d = 31 the four stacks of 64 matrices take 246,016 entries, about 4 MB
    monkeypatch.setattr(selftest, "KRYLOV_BUDGET", 10**5)
    message = "64 dilation residuals of 31 x 31 matrices exceed the 100000-entry budget"
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            dilation_epsilon(strat, fam.canonical_strategy, eye, eye, [1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    # a certificate is refused at the same point, after its fits and gap
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        extract_dilation(strat, fam)
    monkeypatch.setattr(selftest, "KRYLOV_BUDGET", 4 * 64 * 31 * 31)
    assert extract_dilation(strat, fam).epsilon < 1e-2


def test_extract_dilation_matrix_free_matches_dense_oracle(monkeypatch):
    # d = 21: both 441-row fits forced matrix-free, as larger ones are by default
    fam = four_family(10)
    noisy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=23)
    monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", 0)
    cert = extract_dilation(noisy, fam)
    monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", 10**9)
    oracle = extract_dilation(noisy, fam)
    assert abs(cert.gap - n_operator(fam).gap) < 1e-10
    for field in ("epsilon", "alpha", "beta", "state_residual", "delta"):
        assert abs(getattr(cert, field) - getattr(oracle, field)) < 1e-10, field
    for field in ("v_a", "v_b", "junk", "fit_residuals_a", "fit_residuals_b"):
        assert np.abs(getattr(cert, field) - getattr(oracle, field)).max() < 1e-10, field


def test_extract_dilation_five_question_ladder():
    fam = ladder_family(5, 2)
    noisy = perturb(fam.canonical_strategy, "povm-jitter", 1e-3, seed=5)
    cert = extract_dilation(noisy, fam)
    assert (cert.ref_dim_a, cert.anc_dim_a) == (11, 1)
    assert cert.alpha > 0.999
    assert cert.epsilon == dilation_epsilon(
        noisy, fam.canonical_strategy, cert.v_a, cert.v_b, cert.junk
    )
    assert cert.epsilon < 1e-2
    report = approx_rep_residuals(noisy, fam)
    assert report.lemma35_pass and report.lemma63_pass and report.tracial_pass


def test_extract_dilation_at_d61():
    # the 3721-row fits and the 3721-dimensional gap, all matrix-free
    fam = four_family(30)
    noisy = perturb(canonical_strategy(fam), "outcome-noise", 1e-3, seed=29)
    cert = extract_dilation(noisy, fam)
    direct = dilation_epsilon(noisy, canonical_strategy(fam), cert.v_a, cert.v_b, cert.junk)
    assert abs(direct - cert.epsilon) < 1e-12
    assert 1e-6 < cert.epsilon < 1e-1
    assert abs(cert.gap - 4.0 / 61**2) < 1e-12
    assert cert.alpha > 0.99


def test_extract_dilation_alpha_threshold(monkeypatch):
    fam = four_family(1)
    strat, _ = planted_strategy(fam, 2, 2, seed=13)
    noisy = perturb(strat, "state-mixing", 0.05, seed=13)
    monkeypatch.setattr(selftest, "ALPHA_MIN", 1.0 - 1e-12)
    with pytest.raises(JunkExtractionError):
        extract_dilation(noisy, fam)


def count_projsum_calls(monkeypatch, *functions):
    """Count calls of the functions, under every name a projsum module binds
    them to, until monkeypatch.undo()."""
    calls = Counter()
    for fn in functions:
        def counted(*args, _f=fn, **kwargs):
            calls[_f.__name__] += 1
            return _f(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "projsum" or name.startswith("projsum."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counted)
    post_init = ProjectionFamily.__post_init__

    def counted_post_init(self):
        calls["ProjectionFamily"] += 1
        post_init(self)

    monkeypatch.setattr(ProjectionFamily, "__post_init__", counted_post_init)
    return calls


def test_certificate_derives_each_strategy_quantity_once(monkeypatch):
    fam = four_family(2)
    first, second = (perturb(fam.canonical_strategy, "povm-jitter", 1e-3, seed) for seed in (2, 3))
    calls = count_projsum_calls(monkeypatch, _reduced_densities, induced_correlation)
    report = approx_rep_residuals(first, fam)
    cert = extract_dilation(first, fam)
    # the first certificate builds the family's transpose, which Bob's fit keeps
    assert calls == {"_reduced_densities": 1, "induced_correlation": 1, "ProjectionFamily": 1}
    calls.clear()
    extract_dilation(second, fam)
    assert calls == {"_reduced_densities": 1, "induced_correlation": 1}
    # both stages read one correlation, so they report one delta
    assert cert.delta == report.delta


@given(
    k=st.sampled_from([1, 2]),
    model=st.sampled_from(NOISE_MODELS),
    level=st.sampled_from([1e-3, 1e-2]),
    seed=st.integers(0, 2**16),
)
def test_certificate_numbers_are_local_unitary_invariant(k, model, level, seed):
    fam = four_family(k)
    noisy = perturb(canonical_strategy(fam), model, level, seed=seed)
    rng = np.random.default_rng(seed)
    ua, ub = random_unitary(fam.d, rng), random_unitary(fam.d, rng)
    rotated = Strategy(
        state=np.kron(ua, ub) @ noisy.state,
        dim_a=fam.d,
        dim_b=fam.d,
        alice=ua @ noisy.alice @ dagger(ua),
        bob=ub @ noisy.bob @ dagger(ub),
    )
    cert, ref = extract_dilation(rotated, fam), extract_dilation(noisy, fam)
    for field in ("epsilon", "alpha", "beta", "delta"):
        assert getattr(cert, field) == pytest.approx(getattr(ref, field), rel=1e-9, abs=0), field


def test_extract_dilation_beta_bounds_state_residual():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    for level in (1e-4, 1e-3, 1e-2):
        noisy = perturb(strat, "state-mixing", level, seed=19)
        cert = extract_dilation(noisy, fam)
        assert cert.state_residual <= np.sqrt(2) * cert.beta + 1e-9
        # a rotation by `level` radians moves each of the sixteen table
        # rows by a few multiples of the level
        assert cert.delta <= 16 * level + 1e-12


@given(
    k=st.sampled_from([1, 2]),
    outer_shape=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    inner_shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    level=st.sampled_from([0.0, 1e-4, 1e-2]),
    seed=st.integers(0, 2**16),
)
def test_compose_dilations_chain(k, outer_shape, inner_shape, level, seed):
    # outer: a jittered planted strategy certified against the canonical
    # one; inner: a planted copy of that strategy, an exact dilation of it.
    # The composed epsilon is measured, and the sum of the parts bounds it
    fam = four_family(k)
    strat1 = perturb(planted_strategy(fam, *outer_shape, seed=seed)[0], "povm-jitter", level, seed)
    rng = np.random.default_rng(seed)
    ka2, kb2 = inner_shape
    da, db = strat1.dim_a, strat1.dim_b
    ua = random_unitary(da * ka2, rng)
    ub = random_unitary(db * kb2, rng)
    junk2 = random_state(ka2 * kb2, rng)
    big = np.kron(strat1.state, junk2).reshape(da, db, ka2, kb2)
    strat2 = Strategy(
        state=np.kron(ua, ub) @ big.transpose(0, 2, 1, 3).reshape(-1),
        dim_a=da * ka2,
        dim_b=db * kb2,
        alice=ua @ np.kron(strat1.alice, np.eye(ka2)) @ ua.conj().T,
        bob=ub @ np.kron(strat1.bob, np.eye(kb2)) @ ub.conj().T,
    )
    inner_eps = dilation_epsilon(strat2, strat1, ua.conj().T, ub.conj().T, junk2)
    assert inner_eps < 1e-10
    inner = DilationCertificate(
        v_a=ua.conj().T,
        v_b=ub.conj().T,
        junk=junk2,
        ref_dim_a=da,
        ref_dim_b=db,
        anc_dim_a=ka2,
        anc_dim_b=kb2,
        epsilon=inner_eps,
    )
    outer = extract_dilation(strat1, fam)
    reference = fam.canonical_strategy
    composed = compose_dilations(inner, outer, strat2, reference)
    assert composed.ref_dim_a == composed.ref_dim_b == fam.d
    assert composed.anc_dim_a == outer.anc_dim_a * ka2
    assert composed.anc_dim_b == outer.anc_dim_b * kb2
    for v in (composed.v_a, composed.v_b):
        assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() <= 1e-12
    parts = (composed.v_a, composed.v_b, composed.junk)
    assert composed.epsilon == dilation_epsilon(strat2, reference, *parts)
    assert composed.state_residual == _dilation_residuals(strat2, reference, *parts)[0]
    assert composed.epsilon <= inner.epsilon + outer.epsilon + 1e-12


def test_compose_dilations_refuses_middle_dimensions_that_differ():
    # the outer certificate's source has 3 x 6 dimensions, the inner one's
    # reference 3 x 3
    fam = four_family(1)
    strat, _ = planted_strategy(fam, 1, 2, seed=1)
    outer = extract_dilation(strat, fam)
    canon = fam.canonical_strategy
    inner = extract_dilation(canon, fam)
    with pytest.raises(InvalidShapeError, match="middle strategy dimensions"):
        compose_dilations(inner, outer, canon, canon)


def test_aligned_junk_fidelity_gauge_invariance():
    rng = np.random.default_rng(59)
    ka, kb = 3, 2
    junk = random_state(ka * kb, rng)
    ga = random_unitary(ka, rng)
    gb = random_unitary(kb, rng)
    rotated = np.kron(ga, gb) @ junk
    fid = aligned_junk_fidelity(junk, (ka, kb), rotated, (ka, kb))
    assert abs(fid - 1.0) < 1e-12
    # orthogonal product states with different Schmidt spectra score low
    a = np.kron([1.0, 0.0, 0.0], [1.0, 0.0])
    ent = np.zeros(6)
    ent[0] = ent[3] = 1.0 / np.sqrt(2)  # e_0 x e_0 + e_1 x e_1
    fid2 = aligned_junk_fidelity(a, (ka, kb), ent, (ka, kb))
    assert abs(fid2 - 1.0 / np.sqrt(2)) < 1e-12
