import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from projsum.errors import (
    InvalidLevelError,
    InvalidStrategyError,
    UnsupportedScalarError,
)
from projsum.families import four_family, ladder_family, lambda_sequence, simplex_family
from projsum.linalg import (
    maximally_entangled,
    random_hermitian,
    random_state,
    random_unitary,
    reduced_densities,
)
from projsum.selftest import dilation_epsilon
from projsum.strategies import (
    NOISE_MODELS,
    Correlation,
    Strategy,
    canonical_strategy,
    chsh_fixture,
    chsh_win_probability,
    correlation_distance,
    ideal_correlation,
    induced_correlation,
    marginals,
    perturb,
    schmidt_reduce,
    synchronicity_defect,
)


def planted_strategy(fam, ka, kb, seed):
    """Canonical strategy hidden behind local unitaries and ancilla junk."""
    rng = np.random.default_rng(seed)
    base = canonical_strategy(fam)
    d = fam.d
    ua = random_unitary(d * ka, rng)
    ub = random_unitary(d * kb, rng)
    junk = random_state(ka * kb, rng)
    big = np.kron(base.state, junk).reshape(d, d, ka, kb)
    state = np.kron(ua, ub) @ big.transpose(0, 2, 1, 3).reshape(-1)
    alice = tuple(
        tuple(ua @ np.kron(e, np.eye(ka)) @ ua.conj().T for e in povm)
        for povm in base.alice
    )
    bob = tuple(
        tuple(ub @ np.kron(f, np.eye(kb)) @ ub.conj().T for f in povm)
        for povm in base.bob
    )
    strat = Strategy(
        state=state, dim_a=d * ka, dim_b=d * kb, alice=alice, bob=bob
    )
    return strat, junk


# --- loop oracles: the closed forms and the noise models one entry or one
# question at a time, as their definitions state them


def loop_ideal_correlation(n, x):
    table = np.zeros((n, n, 2, 2))
    same = Fraction(x, n)
    cross = Fraction(x * (x - 1), n * (n - 1))
    for v in range(n):
        for w in range(n):
            p11 = same if v == w else cross
            p12 = same - p11
            table[v, w] = [[float(p11), float(p12)], [float(p12), float(1 - 2 * same + p11)]]
    return table


def loop_synchronicity_defect(p):
    worst = 0.0
    for v in range(p.n):
        for i in range(p.k):
            for j in range(p.k):
                if i != j:
                    worst = max(worst, abs(float(p.table[v, v, i, j])))
    return worst


def loop_chsh_win_probability(corr):
    total = 0.0
    for v, w, i, j in np.ndindex(2, 2, 2, 2):
        if (i + j) % 2 == (v * w) % 2:
            total += corr.table[v, w, i, j]
    return total / 4.0


def loop_perturb(strategy, model, level, seed):
    """perturb with one seeded draw and one renormalization per question."""
    rng = np.random.default_rng(seed)
    if model == "state-mixing":
        psi = strategy.state
        chi = random_state(psi.size, rng)
        chi = chi - (psi.conj() @ chi) * psi
        chi = chi / np.linalg.norm(chi)
        return replace(strategy, state=np.cos(level) * psi + np.sin(level) * chi)
    k = strategy.n_outcomes

    def per_question(stack, dim):
        out = np.empty_like(stack)
        for v, povm in enumerate(stack):
            if model == "outcome-noise":
                out[v] = (1.0 - level) * povm + level * (np.eye(dim, dtype=np.complex128) / k)
                continue
            w, vecs = np.linalg.eigh(random_hermitian(dim, rng))
            u = (vecs * np.exp(1j * level * w)) @ vecs.conj().T
            povm = u @ povm @ u.conj().T
            total = povm.sum(axis=0)
            w, vecs = np.linalg.eigh((total + total.conj().T) / 2)
            inv_sqrt = (vecs * (1.0 / np.sqrt(np.maximum(w, 1e-300)))) @ vecs.conj().T
            m = inv_sqrt @ povm @ inv_sqrt
            out[v] = (m + m.conj().swapaxes(-1, -2)) / 2
        return out

    return replace(
        strategy,
        alice=per_question(strategy.alice, strategy.dim_a),
        bob=per_question(strategy.bob, strategy.dim_b),
    )


@pytest.mark.parametrize("n, level", [(3, 1), (4, 1), (4, 6), (5, 3), (7, 4)])
def test_ideal_correlation_matches_fraction_loop(n, level):
    for x in lambda_sequence(n, level):
        assert np.array_equal(ideal_correlation(n, x).table, loop_ideal_correlation(n, x))


def test_table_reductions_match_entry_loops():
    rng = np.random.default_rng(31)
    for n, k in ((2, 2), (3, 1), (4, 3), (5, 2)):
        for _ in range(20):
            corr = Correlation(n=n, k=k, table=rng.normal(size=(n, n, k, k)))
            assert synchronicity_defect(corr) == loop_synchronicity_defect(corr)
            if n == 2 and k == 2:
                assert chsh_win_probability(corr) == loop_chsh_win_probability(corr)
    chsh = induced_correlation(chsh_fixture())
    assert chsh_win_probability(chsh) == loop_chsh_win_probability(chsh)


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_perturb_matches_per_question_loop(model):
    bases = [canonical_strategy(four_family(2)), canonical_strategy(ladder_family(5, 2))]
    bases.append(planted_strategy(four_family(1), 2, 1, seed=3)[0])
    for base in bases:
        for level in (1e-4, 1e-2, 0.3, 1.0):
            for seed in range(3):
                new = perturb(base, model, level, seed)
                old = loop_perturb(base, model, level, seed)
                for field in ("state", "alice", "bob"):
                    assert np.array_equal(getattr(new, field), getattr(old, field)), field


def test_ideal_correlation_tetrahedron_values():
    corr = ideal_correlation(4, Fraction(4, 3))
    table = corr.table
    for v in range(4):
        assert abs(table[v, v, 0, 0] - 1.0 / 3) < 1e-15
        assert table[v, v, 0, 1] == 0.0
        assert table[v, v, 1, 0] == 0.0
        assert abs(table[v, v, 1, 1] - 2.0 / 3) < 1e-15
        for w in range(4):
            if v == w:
                continue
            assert abs(table[v, w, 0, 0] - 1.0 / 27) < 1e-15
            assert abs(table[v, w, 0, 1] - 8.0 / 27) < 1e-15
            assert abs(table[v, w, 1, 0] - 8.0 / 27) < 1e-15
            assert abs(table[v, w, 1, 1] - 10.0 / 27) < 1e-15


def test_ideal_correlation_triangle_values():
    corr = ideal_correlation(3, Fraction(3, 2))
    assert abs(corr.table[0, 0, 0, 0] - 0.5) < 1e-15
    assert abs(corr.table[0, 1, 0, 0] - 0.125) < 1e-15
    # rows sum to one
    assert np.allclose(corr.table.sum(axis=(2, 3)), 1.0, atol=1e-12)


def test_ideal_correlation_rejects_inadmissible_scalar():
    with pytest.raises(UnsupportedScalarError):
        ideal_correlation(4, Fraction(3, 2))


def test_canonical_strategy_induces_ideal_correlation():
    for fam in (simplex_family(3), simplex_family(5), four_family(2)):
        strat = canonical_strategy(fam)
        strat.validate()
        corr = induced_correlation(strat)
        ideal = ideal_correlation(fam.n, fam.x)
        assert correlation_distance(corr, ideal) < 1e-12
        assert synchronicity_defect(corr) < 1e-13


def test_canonical_strategy_state_and_transpose_structure():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    assert np.allclose(strat.state, maximally_entangled(3), atol=1e-15)
    for (e1, _), (f1, _) in zip(strat.alice, strat.bob):
        assert np.allclose(f1, e1.T, atol=1e-15)


def test_correlation_invariant_under_local_rotation():
    # conjugating both sides by U kron conj(U) fixes the maximally
    # entangled state, so the induced correlation cannot move
    fam = simplex_family(4)
    strat = canonical_strategy(fam)
    rng = np.random.default_rng(11)
    u = random_unitary(fam.d, rng)
    alice = tuple(
        tuple(u @ e @ u.conj().T for e in povm) for povm in strat.alice
    )
    bob = tuple(
        tuple(u.conj() @ f @ u.T for f in povm) for povm in strat.bob
    )
    rotated = Strategy(
        state=strat.state, dim_a=fam.d, dim_b=fam.d, alice=alice, bob=bob
    )
    rotated.validate()
    dist = correlation_distance(
        induced_correlation(rotated), induced_correlation(strat)
    )
    assert dist < 1e-12


def test_marginals_non_signaling():
    strat, _ = planted_strategy(four_family(1), 2, 2, seed=5)
    corr = induced_correlation(strat)
    pa, pb, residual = marginals(corr)
    assert residual < 1e-12
    assert np.allclose(pa.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(pb.sum(axis=1), 1.0, atol=1e-12)


def test_chsh_values():
    strat = chsh_fixture()
    strat.validate()
    corr = induced_correlation(strat)
    win = chsh_win_probability(corr)
    assert abs(win - (2 + np.sqrt(2)) / 4) < 1e-12
    assert abs(corr.table[0, 0, 0, 0] - (2 + np.sqrt(2)) / 8) < 1e-12


def test_strategy_validate_rejects_bad_inputs():
    fam = simplex_family(3)
    strat = canonical_strategy(fam)
    with pytest.raises(InvalidStrategyError):
        Strategy(
            state=strat.state * 2.0,
            dim_a=2,
            dim_b=2,
            alice=strat.alice,
            bob=strat.bob,
        ).validate()
    broken = tuple(
        (e1 * 0.9, e2) for e1, e2 in strat.alice
    )
    with pytest.raises(InvalidStrategyError):
        Strategy(
            state=strat.state, dim_a=2, dim_b=2, alice=broken, bob=strat.bob
        ).validate()
    ragged = strat.alice.tolist()
    ragged[2].append(ragged[2][0])
    with pytest.raises(InvalidStrategyError):
        Strategy(state=strat.state, dim_a=2, dim_b=2, alice=ragged, bob=strat.bob)
    for bad in (np.nan, np.inf):
        state = strat.state.copy()
        state[1] = bad
        with pytest.raises(InvalidStrategyError, match="non-finite"):
            Strategy(state=state, dim_a=2, dim_b=2, alice=strat.alice, bob=strat.bob)
        bob = strat.bob.copy()
        bob[2, 1, 0, 0] = bad
        with pytest.raises(InvalidStrategyError, match=r"bob\[2\]\[1\]\[0\]\[0\]: non-finite entry"):
            Strategy(state=strat.state, dim_a=2, dim_b=2, alice=strat.alice, bob=bob)


def test_constructors_refuse_strings_and_booleans():
    # a cast to a number would read "0.5" as 0.5 and True as 1
    for table in ([[[["0.5", "0"], ["0", "0.5"]]]], [[[[True, False], [False, True]]]]):
        with pytest.raises(InvalidStrategyError, match="table: entries must be numbers"):
            Correlation(n=1, k=2, table=table)
    assert Correlation(n=1, k=2, table=[[[[1, 0], [0, 1]]]]).table[0, 0, 0, 0] == 1.0
    eye = [[[[1]]]]
    for field, bad in (("state", ["1"]), ("alice", [[[["1"]]]]), ("bob", [[[[True]]]])):
        fields = {"state": [1], "alice": eye, "bob": eye, field: bad}
        with pytest.raises(InvalidStrategyError, match=f"{field}: entries must be numbers"):
            Strategy(dim_a=1, dim_b=1, **fields)
    assert Strategy(state=[1], dim_a=1, dim_b=1, alice=eye, bob=eye).state[0] == 1


def test_correlation_refuses_a_ragged_table():
    for table in ([[[[0.5, 0], [0]]]], [[[[0.5, 0], [0, 0.5]]], [[[0.5]]]]):
        with pytest.raises(InvalidStrategyError, match="table: entries do not form"):
            Correlation(n=1, k=2, table=table)


def test_strategy_owns_its_state_matrix_densities_and_correlation():
    strat, _ = planted_strategy(four_family(1), 2, 1, seed=3)
    m = strat.state_matrix
    assert m.shape == (6, 3) and np.shares_memory(m, strat.state) and not m.flags.writeable
    assert np.array_equal(m.reshape(-1), strat.state)
    rhos = strat.reduced_densities
    assert rhos is strat.reduced_densities
    for rho, expected in zip(rhos, reduced_densities(strat.state, (6, 3))):
        assert np.array_equal(rho, expected) and not rho.flags.writeable
    assert strat.correlation is strat.correlation
    assert np.array_equal(strat.correlation.table, induced_correlation(strat).table)
    # a perturbed copy derives its own values
    noisy = perturb(strat, "state-mixing", 1e-2, seed=1)
    assert not np.array_equal(noisy.reduced_densities[0], rhos[0])


def whole_product_correlation(strategy):
    """induced_correlation through the whole (n, n, k, k, d, d) product at once."""
    m = strategy.state_matrix
    kernels = m.conj().T @ strategy.alice @ m
    products = kernels[:, None, :, None] * strategy.bob[None, :, None, :]
    return np.sum(products, axis=(4, 5)).real


def test_induced_correlation_builds_its_table_a_row_at_a_time():
    bases = [canonical_strategy(four_family(k)) for k in (1, 5)]
    bases += [simplex_family(10).canonical_strategy, planted_strategy(four_family(1), 2, 1, seed=3)[0]]
    for base in bases:
        for model in NOISE_MODELS:
            noisy = perturb(base, model, 1e-3, seed=5)
            assert np.array_equal(induced_correlation(noisy).table, whole_product_correlation(noisy))
    strat = simplex_family(30).canonical_strategy  # d = 29: 1.6 MB of operators
    tracemalloc.start()
    try:
        induced_correlation(strat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole (n, n, k, k, d, d) product of kernels and Bob's stack takes 48 MB
    assert peak < 8_000_000


def test_strategy_stores_read_only_copies():
    fam = simplex_family(3)
    p = np.stack(fam.projections)
    alice = np.stack([p, np.eye(2) - p], axis=1)
    bob = alice.swapaxes(2, 3).copy()
    state = maximally_entangled(2)
    before = alice.copy()
    strat = Strategy(state=state, dim_a=2, dim_b=2, alice=alice, bob=bob)
    assert strat.alice.shape == (3, 2, 2, 2) and strat.alice.dtype == np.complex128
    assert (strat.n_questions, strat.n_outcomes) == (3, 2)
    for stored in (strat.state, strat.alice, strat.bob):
        assert not stored.flags.writeable
    with pytest.raises(ValueError):
        strat.alice[0, 0] = np.eye(2)
    with pytest.raises(ValueError):
        strat.state[0] = 1.0
    # the caller's arrays are neither frozen nor shared
    assert alice.flags.writeable and bob.flags.writeable and state.flags.writeable
    alice[0, 0] = 0.0
    assert np.array_equal(strat.alice, before)
    # nested tuples of nested lists build the same stack
    nested = tuple(tuple(e.tolist() for e in povm) for povm in strat.alice)
    rebuilt = Strategy(state=state, dim_a=2, dim_b=2, alice=nested, bob=bob)
    assert np.array_equal(rebuilt.alice, strat.alice)
    # stored C-ordered, also when built from a transposed view
    assert canonical_strategy(fam).bob.flags.c_contiguous


def test_schmidt_reduce_planted_instance():
    fam = four_family(1)
    strat, junk = planted_strategy(fam, 2, 2, seed=3)
    red = schmidt_reduce(strat)
    red.strategy.validate()
    # compression preserves the induced correlation exactly
    dist = correlation_distance(
        induced_correlation(red.strategy), induced_correlation(strat)
    )
    assert dist < 1e-12
    # the recorded isometries exhibit the original as an exact dilation
    eps = dilation_epsilon(strat, red.strategy, red.v_a, red.v_b, red.junk)
    assert eps < 1e-10


def test_schmidt_reduce_full_rank_is_faithful():
    fam = simplex_family(3)
    strat = canonical_strategy(fam)
    red = schmidt_reduce(strat)
    assert red.strategy.dim_a == strat.dim_a
    eps = dilation_epsilon(strat, red.strategy, red.v_a, red.v_b, red.junk)
    assert eps < 1e-10


def test_perturb_is_deterministic():
    strat = canonical_strategy(four_family(1))
    for model in NOISE_MODELS:
        a = perturb(strat, model, 0.01, seed=42)
        b = perturb(strat, model, 0.01, seed=42)
        assert np.array_equal(a.state, b.state)
        for pa, pb in zip(a.alice, b.alice):
            for ma, mb in zip(pa, pb):
                assert np.array_equal(ma, mb)
        if model == "outcome-noise":
            continue  # mixing with the uniform POVM draws no randomness
        c = perturb(strat, model, 0.01, seed=43)
        moved = (
            not np.array_equal(a.state, c.state)
            or not np.array_equal(a.alice[0][0], c.alice[0][0])
        )
        assert moved


def test_perturb_zero_level_identity():
    strat = canonical_strategy(simplex_family(3))
    for model in NOISE_MODELS:
        out = perturb(strat, model, 0.0, seed=1)
        assert np.array_equal(out.state, strat.state)
        assert np.array_equal(out.alice[0][0], strat.alice[0][0])


def test_perturb_outputs_validate():
    strat = canonical_strategy(four_family(1))
    for model in NOISE_MODELS:
        for level in (1e-4, 1e-2, 0.3):
            noisy = perturb(strat, model, level, seed=7)
            noisy.validate()


def test_perturb_moves_correlation_monotonically():
    strat = canonical_strategy(four_family(1))
    ideal = induced_correlation(strat)
    for model in NOISE_MODELS:
        dists = []
        for level in (1e-3, 1e-2, 1e-1):
            noisy = perturb(strat, model, level, seed=9)
            dists.append(correlation_distance(induced_correlation(noisy), ideal))
        assert dists[0] < dists[1] < dists[2]
        assert dists[0] > 0


def test_perturb_rejects_bad_arguments():
    strat = canonical_strategy(simplex_family(3))
    with pytest.raises(InvalidLevelError):
        perturb(strat, "no-such-model", 0.1, seed=0)
    with pytest.raises(InvalidLevelError):
        perturb(strat, "state-mixing", 1.5, seed=0)
    with pytest.raises(InvalidLevelError):
        perturb(strat, "state-mixing", -0.1, seed=0)
    # a 1-dimensional state has no orthogonal direction to rotate toward
    eye = [[[[1]]]]
    point = Strategy(state=[1], dim_a=1, dim_b=1, alice=eye, bob=eye)
    with pytest.raises(InvalidStrategyError, match="1-dimensional state"):
        perturb(point, "state-mixing", 0.1, seed=0)
    assert perturb(point, "outcome-noise", 0.1, seed=0).state[0] == 1


def test_ideal_correlation_is_cached_and_read_only():
    corr = ideal_correlation(4, Fraction(4, 3))
    assert ideal_correlation(4, Fraction(4, 3)) is corr
    assert ideal_correlation(3, 1.5) is ideal_correlation(3, Fraction(3, 2))
    with pytest.raises(ValueError, match="read-only"):
        corr.table[0, 0, 0, 0] = 1.0
    mine = corr.table.copy()
    copy = Correlation(n=4, k=2, table=mine)
    mine[0, 0, 0, 0] = 1.0
    assert copy.table[0, 0, 0, 0] == corr.table[0, 0, 0, 0]
    assert not copy.table.flags.writeable
