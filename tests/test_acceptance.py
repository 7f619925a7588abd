"""End-to-end acceptance gate.

Each test below is one numbered acceptance criterion, checked at a pinned
tolerance (and, where stated, a wall-clock budget).  Every test prints a
single PASS/FAIL line so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from projsum.families import four_family, simplex_family
from projsum.linalg import random_state
from projsum.selftest import extract_dilation, n_operator
from projsum.strategies import (
    canonical_strategy,
    chsh_fixture,
    chsh_win_probability,
    ideal_correlation,
    induced_correlation,
    synchronicity_defect,
)
from projsum.sweep import SweepConfig, run_sweep

from oracles import (
    aligned_junk_fidelity,
    eigvec_overlap_bound,
    find_intertwiner,
    lambda_sequence,
    spearman,
    state_seminorm,
)
from reference_data import LADDER_RUNG2_PROJECTIONS, TETRAHEDRON_PROJECTIONS
from test_strategies import planted_strategy

NOISE_LEVELS = (0.0,) + tuple(np.logspace(-4, -1, 7))
NOISE_MODELS = ("state-mixing", "povm-jitter", "outcome-noise")

_sweep_cache = {}


def standard_sweep(model):
    """3 noise models x (zero + 7 log-spaced levels) x 10 trials, n=4, k=1."""
    if model not in _sweep_cache:
        cfg = SweepConfig(
            n=4,
            k=1,
            noise_model=model,
            levels=NOISE_LEVELS,
            trials_per_level=10,
            seed=1234,
        )
        _sweep_cache[model] = run_sweep(cfg)
    return _sweep_cache[model]


def report(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_01_admissible_scalar_ladder():
    start = time.perf_counter()
    ladder = lambda_sequence(4, 51)
    ok = ladder == [Fraction(4 * k, 2 * k + 1) for k in range(51)]
    ok = ok and lambda_sequence(3) == [Fraction(3, 2)]
    ok = ok and time.perf_counter() - start < 1.0
    report(1, "admissible scalars exact, n=3 singleton, <1s", ok)


def test_02_tetrahedron_base_case():
    fam = four_family(1)
    projs = np.asarray(fam.projections)
    ok = np.max(np.abs(projs - TETRAHEDRON_PROJECTIONS)) <= 1e-12
    ok = ok and np.max(np.abs(projs[0] - np.diag([1.0, 0.0, 0.0]))) <= 1e-12
    total = projs.sum(axis=0)
    ok = ok and np.linalg.norm(total - (4.0 / 3.0) * np.eye(3)) <= 1e-12
    report(2, "rank-1 base family matches reference matrices", ok)


def test_03_second_rung_family():
    fam = four_family(2)
    projs = [np.asarray(p) for p in fam.projections]
    total = sum(projs)
    ok = np.linalg.norm(total - 1.6 * np.eye(5)) <= 1e-9
    ranks = [int((np.linalg.eigvalsh(p) > 0.5).sum()) for p in projs]
    ok = ok and ranks == [2, 2, 2, 2]
    for v in range(4):
        for w in range(v + 1, 4):
            ok = ok and abs(np.trace(projs[v] @ projs[w]).real - 0.4) <= 1e-9
    u = find_intertwiner(fam, list(LADDER_RUNG2_PROJECTIONS), tol=1e-7)
    resid = max(
        np.linalg.norm(u @ r @ u.conj().T - p)
        for r, p in zip(LADDER_RUNG2_PROJECTIONS, projs)
    )
    ok = ok and resid <= 1e-7
    report(3, "rank-2 family sums, traces, and unitary equivalence", ok)


def test_04_canonical_correlation_closed_form():
    start = time.perf_counter()
    ok = True
    for k in range(1, 6):
        fam = four_family(k)
        corr = induced_correlation(canonical_strategy(fam))
        ideal = ideal_correlation(4, fam.x)
        ok = ok and np.max(np.abs(corr - ideal)) <= 1e-11
        ok = ok and synchronicity_defect(corr) <= 1e-11
        x = float(fam.x)
        for v in range(4):
            ok = ok and abs(corr[v, v, 0, 0] - x / 4.0) <= 1e-11
            w = (v + 1) % 4
            ok = ok and abs(corr[v, w, 0, 0] - x * (x - 1) / 12.0) <= 1e-11
    ok = ok and time.perf_counter() - start < 5.0
    report(4, "canonical correlations hit the closed form, <5s", ok)


def test_05_correlation_operator_spectra():
    ok = True
    families = [simplex_family(n) for n in range(3, 7)]
    families += [four_family(k) for k in range(1, 6)]
    for fam in families:
        op = n_operator(fam)  # raises if the top eigenvalue is degenerate
        ok = ok and abs(op.lambda_max - float(fam.x)) <= 1e-9
        ok = ok and op.entangled_overlap >= 1.0 - 1e-9
    triangle = n_operator(simplex_family(3)).spectrum
    ok = ok and np.max(np.abs(triangle - [1.5, 0.75, 0.75, 0.0])) <= 1e-10
    report(5, "top eigenvalue x, simple, entangled top vector", ok)


def test_06_planted_dilations():
    start = time.perf_counter()
    fam = four_family(1)
    dims = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)]
    ok = True
    for seed in range(20):
        ka, kb = dims[seed % len(dims)]
        strat, junk = planted_strategy(fam, ka, kb, seed=seed)
        cert = extract_dilation(strat, fam)
        ok = ok and cert.epsilon <= 1e-6
        fid = aligned_junk_fidelity(
            cert.junk, (cert.anc_dim_a, cert.anc_dim_b), junk, (ka, kb)
        )
        ok = ok and fid >= 1.0 - 1e-5
    ok = ok and time.perf_counter() - start < 30.0
    report(6, "20 planted instances: eps<=1e-6, junk recovered, <30s", ok)


def test_07_residual_budget_audit():
    start = time.perf_counter()
    ok = True
    for model in NOISE_MODELS:
        for row in standard_sweep(model):
            ok = ok and row.lemma35_pass and row.lemma63_pass
            ok = ok and row.tracial_residual <= 8.0 * np.sqrt(row.delta) + 1e-12
    ok = ok and time.perf_counter() - start < 120.0
    report(7, "sweep rows all inside residual budgets, <2min", ok)


def test_08_robustness_trend():
    ok = True
    for model in NOISE_MODELS:
        rows = standard_sweep(model)
        medians = []
        for level in NOISE_LEVELS:
            eps = [r.epsilon for r in rows if r.level == level]
            ok = ok and all(e is not None for e in eps)
            medians.append(float(np.median(eps)))
        ok = ok and all(
            medians[i + 1] >= medians[i] - 1e-12 for i in range(len(medians) - 1)
        )
        ok = ok and spearman(NOISE_LEVELS, medians) >= 0.9
        ok = ok and medians[0] <= 1e-7
    report(8, "median epsilon nondecreasing in noise, clean at zero", ok)


def test_09_inequality_suites():
    start = time.perf_counter()
    ok = True

    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        d = int(rng.integers(2, 13))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs, rhs = eigvec_overlap_bound(b.conj().T @ b, random_state(d, rng))
        ok = ok and lhs - rhs >= -1e-10

    rng = np.random.default_rng(7)
    for _ in range(1000):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 4))
        while da * db > 12:
            db = int(rng.integers(2, 4))
        psi = random_state(da * db, rng)
        x1, x2 = (rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)) for _ in "ab")
        y1, y2 = (rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db)) for _ in "ab")
        op = np.kron(x1, y1) - np.kron(x2, y2)
        sn = lambda m, side: state_seminorm(m, psi, (da, db), side=side)
        lhs = abs(np.vdot(psi, op @ psi))
        rhs = sn(x1 - x2, "A") * sn(y2.conj().T, "B") + sn(y1 - y2, "B") * sn(
            x1.conj().T, "A"
        )
        ok = ok and rhs - lhs >= -1e-10
        lhs = float(np.linalg.norm(op @ psi))
        rhs = sn(x1 - x2, "A") * np.linalg.norm(y2, 2) + sn(y1 - y2, "B") * np.linalg.norm(x1, 2)
        ok = ok and rhs - lhs >= -1e-10

    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 13))
        xi = rng.normal(size=d) + 1j * rng.normal(size=d)
        eta = rng.normal(size=d) + 1j * rng.normal(size=d)
        m = int(rng.integers(1, d + 1))
        q, _ = np.linalg.qr(rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m)))
        proj = q @ q.conj().T
        eps1 = abs(np.linalg.norm(xi) ** 2 - np.linalg.norm(eta) ** 2)
        eps2 = float(np.linalg.norm(xi - proj @ eta))
        bound = eps2 + np.sqrt(eps1 + (np.linalg.norm(xi) + np.linalg.norm(eta)) * eps2)
        ok = ok and bound - np.linalg.norm(xi - eta) >= -1e-10

    ok = ok and time.perf_counter() - start < 30.0
    report(9, "spectral/vector inequalities on 3x1000 instances, <30s", ok)


def test_10_chsh_fixture():
    corr = induced_correlation(chsh_fixture())
    win = chsh_win_probability(corr)
    ok = abs(win - (2.0 + np.sqrt(2.0)) / 4.0) <= 1e-9
    report(10, "CHSH winning probability (2+sqrt2)/4", ok)
