import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projsum.errors import (
    InvalidLevelError,
    InvalidStrategyError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from projsum.families import four_family, ladder_family, simplex_family
from projsum.linalg import (
    maximally_entangled,
    random_state,
    reduced_densities,
)
from projsum.selftest import dilation_epsilon
from projsum.strategies import (
    NOISE_MODELS,
    Strategy,
    StrategyStack,
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

from oracles import lambda_sequence, random_hermitian, random_unitary


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
    n, _, k, _ = p.shape
    for v in range(n):
        for i in range(k):
            for j in range(k):
                if i != j:
                    worst = max(worst, abs(float(p[v, v, i, j])))
    return worst


def loop_chsh_win_probability(corr):
    total = 0.0
    for v, w, i, j in np.ndindex(2, 2, 2, 2):
        if (i + j) % 2 == (v * w) % 2:
            total += corr[v, w, i, j]
    return total / 4.0


def loop_perturb(strategy, model, level, seed):
    """perturb with one seeded draw per question."""
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
            out[v] = u @ povm @ u.conj().T
        return out

    return replace(
        strategy,
        alice=per_question(strategy.alice, strategy.dim_a),
        bob=per_question(strategy.bob, strategy.dim_b),
    )


@pytest.mark.parametrize("n, level", [(3, 1), (4, 1), (4, 6), (5, 3), (7, 4)])
def test_ideal_correlation_matches_fraction_loop(n, level):
    for x in lambda_sequence(n, level):
        assert np.array_equal(ideal_correlation(n, x), loop_ideal_correlation(n, x))


def test_table_reductions_match_entry_loops():
    rng = np.random.default_rng(31)
    for n, k in ((2, 2), (3, 1), (4, 3), (5, 2)):
        for _ in range(20):
            corr = rng.normal(size=(n, n, k, k))
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


JITTER_BASES = (
    canonical_strategy(four_family(2)),
    planted_strategy(four_family(1), 2, 1, seed=3)[0],
    # outcome-noise leaves POVMs that are not projective
    perturb(canonical_strategy(ladder_family(5, 2)), "outcome-noise", 0.3, seed=0),
)


def sum_defects(stack):
    """||sum_i E_i - I||_2 of each question's POVM in an (n, k, d, d) stack."""
    eye = np.eye(stack.shape[-1])
    return np.linalg.norm(stack.sum(axis=1) - eye, ord=2, axis=(-2, -1))


@given(level=st.sampled_from([1e-4, 0.3, 1.0]), seed=st.integers(0, 2**16))
def test_povm_jitter_keeps_povms_without_renormalizing(level, seed):
    # a unitary conjugation keeps each operator PSD and each POVM's sum, so
    # the output sums to I as closely as the input did
    for base in JITTER_BASES:
        new = perturb(base, "povm-jitter", level, seed)
        for stack, old in ((new.alice, base.alice), (new.bob, base.bob)):
            assert np.abs(stack - stack.conj().swapaxes(-1, -2)).max() <= 1e-14
            assert np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2).min() >= -1e-14
            assert (sum_defects(stack) <= sum_defects(old) + 1e-14).all()


def test_ideal_correlation_tetrahedron_values():
    table = ideal_correlation(4, Fraction(4, 3))
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
    assert abs(corr[0, 0, 0, 0] - 0.5) < 1e-15
    assert abs(corr[0, 1, 0, 0] - 0.125) < 1e-15
    # rows sum to one
    assert np.allclose(corr.sum(axis=(2, 3)), 1.0, atol=1e-12)


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


@pytest.mark.parametrize(
    "shape", [(2, 2), (4, 4, 2), (4, 3, 2, 2), (4, 4, 2, 3), (0, 0, 2, 2), (1, 4, 4, 2, 2)]
)
def test_table_readers_refuse_a_table_of_the_wrong_shape(shape):
    # synchronicity_defect raised a bare IndexError, and marginals an
    # AxisError, for a table that is not (n, n, k, k)
    message = r"^a correlation table has shape \(n, n, k, k\), got "
    for reader in (synchronicity_defect, marginals):
        with pytest.raises(InvalidStrategyError, match=message):
            reader(np.zeros(shape))


def test_chsh_values():
    strat = chsh_fixture()
    strat.validate()
    corr = induced_correlation(strat)
    win = chsh_win_probability(corr)
    assert abs(win - (2 + np.sqrt(2)) / 4) < 1e-12
    assert abs(corr[0, 0, 0, 0] - (2 + np.sqrt(2)) / 8) < 1e-12
    with pytest.raises(InvalidStrategyError, match="needs a 2-question 2-outcome table"):
        chsh_win_probability(ideal_correlation(4, Fraction(4, 3)))


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
    # a float of integral value passed the checks, then crashed in np.eye
    stacks = {"alice": strat.alice, "bob": strat.bob}
    for dim_a, dim_b in ((2.0, 2), (2, 2.0), (True, 2)):
        with pytest.raises(InvalidStrategyError, match="^dim_[ab] must be an integer, got "):
            Strategy(state=strat.state, dim_a=dim_a, dim_b=dim_b, **stacks)
    assert Strategy(state=strat.state, dim_a=np.int64(2), dim_b=2, **stacks).dim_a == 2


def test_constructors_refuse_strings_and_booleans():
    # a cast to a number would read "0.5" as 0.5 and True as 1
    eye = [[[[1]]]]
    for field, bad in (("state", ["1"]), ("alice", [[[["1"]]]]), ("bob", [[[[True]]]])):
        fields = {"state": [1], "alice": eye, "bob": eye, field: bad}
        with pytest.raises(InvalidStrategyError, match=f"{field}: entries must be numbers"):
            Strategy(dim_a=1, dim_b=1, **fields)
    assert Strategy(state=[1], dim_a=1, dim_b=1, alice=eye, bob=eye).state[0] == 1


def test_correlation_distance_refuses_tables_of_different_shapes():
    four, five = ideal_correlation(4, Fraction(4, 3)), ideal_correlation(5, Fraction(5, 4))
    with pytest.raises(InvalidStrategyError, match="table shapes differ"):
        correlation_distance(four, five)


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
    assert np.array_equal(strat.correlation, induced_correlation(strat))
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
            assert np.array_equal(induced_correlation(noisy), whole_product_correlation(noisy))
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


def test_outcome_noise_reads_the_level_alone():
    # no draw: every seed gives the same bytes, but a bad seed is still refused
    strat = canonical_strategy(four_family(1))
    a, b = (perturb(strat, "outcome-noise", 0.01, seed=seed) for seed in (0, 2**40 + 3))
    for x, y in ((a.state, b.state), (a.alice, b.alice), (a.bob, b.bob)):
        assert x.tobytes() == y.tobytes()
    for seed in (-1, 1.5, True):
        with pytest.raises(InvalidLevelError, match="seed must be nonnegative and integral"):
            perturb(strat, "outcome-noise", 0.01, seed=seed)


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
    # default_rng would raise a bare ValueError; level 0 is refused too
    for level in (0.1, 0.0):
        with pytest.raises(InvalidLevelError, match="seed must be nonnegative"):
            perturb(strat, "state-mixing", level, seed=-1)
    # else a bare TypeError, or a bool read as 0 or 1
    for level in (None, "0.1", True):
        with pytest.raises(InvalidLevelError, match=r"level must be a real number in \[0, 1\]"):
            perturb(strat, "state-mixing", level, seed=0)
    for seed in (1.5, None, True):
        with pytest.raises(InvalidLevelError, match="seed must be nonnegative and integral"):
            perturb(strat, "state-mixing", 0.1, seed=seed)
    # numpy scalars, integer levels and exact fractions are real numbers
    same = perturb(strat, "state-mixing", np.float64(0.1), seed=np.int64(3))
    assert np.array_equal(same.state, perturb(strat, "state-mixing", 0.1, seed=3).state)
    assert perturb(strat, "state-mixing", 0, seed=0) is strat
    full = perturb(strat, "outcome-noise", 1, seed=np.uint8(0))
    assert np.array_equal(full.alice, perturb(strat, "outcome-noise", 1.0, seed=0).alice)
    assert np.array_equal(
        perturb(strat, "povm-jitter", Fraction(1, 10), seed=0).bob,
        perturb(strat, "povm-jitter", 0.1, seed=0).bob,
    )
    # a 1-dimensional state has no orthogonal direction to rotate toward
    eye = [[[[1]]]]
    point = Strategy(state=[1], dim_a=1, dim_b=1, alice=eye, bob=eye)
    with pytest.raises(InvalidStrategyError, match="1-dimensional state"):
        perturb(point, "state-mixing", 0.1, seed=0)
    assert perturb(point, "outcome-noise", 0.1, seed=0).state[0] == 1


def test_ideal_correlation_is_cached_and_read_only():
    corr = ideal_correlation(4, Fraction(4, 3))
    assert ideal_correlation(4, Fraction(4, 3)) is corr
    # the cache keys on types as well: a float x has an entry of its own, and
    # an n that is not an integer is refused after an equal integer was cached
    assert np.array_equal(ideal_correlation(3, 1.5), ideal_correlation(3, Fraction(3, 2)))
    for n in (4.0, np.float64(4.0), True):
        with pytest.raises(UnsupportedQuestionCountError, match="^n must be an integer, got "):
            ideal_correlation(n, Fraction(4, 3))
    with pytest.raises(UnsupportedScalarError, match="^x must be a number, got '4/3'$"):
        ideal_correlation(4, "4/3")
    assert np.array_equal(ideal_correlation(np.int64(4), Fraction(4, 3)), corr)
    strat = canonical_strategy(four_family(1))
    # a correlation is its table: read-only, C-ordered float64 of shape (n, n, k, k)
    for table in (corr, induced_correlation(strat), strat.correlation):
        assert type(table) is np.ndarray and table.dtype == np.float64
        assert table.shape == (4, 4, 2, 2) and table.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0, 0] = 1.0


def test_strategy_validate_names_each_violation():
    canon = canonical_strategy(simplex_family(3))
    alice, bob = canon.alice, canon.bob
    skew = alice.copy()
    skew[1, 1, 0, 1] += 1e-3
    negative = alice.copy()
    negative[2] = [np.diag([-0.5, 1.0]), np.diag([1.5, 0.0])]
    split = np.concatenate([bob[:, :1], bob[:, 1:] / 2, bob[:, 1:] / 2], axis=1)
    cases = [
        (dict(dim_b=3), "state length 4 != dim_a*dim_b = 6"),
        (dict(bob=bob[:2]), "parties disagree on the question count"),
        (dict(bob=split), "bob question 0: outcome count 3 != 2"),
        (
            dict(alice=np.zeros((3, 2, 3, 3))),
            "alice question 0 outcome 0: shape (3, 3), expected (2, 2)",
        ),
        (dict(alice=skew), "alice question 1 outcome 1: not Hermitian at tolerance"),
        (dict(alice=negative), "alice question 2 outcome 0: negative eigenvalue -5.000e-01"),
    ]
    for change, message in cases:
        fields = dict(state=canon.state, dim_a=2, dim_b=2, alice=alice, bob=bob) | change
        with pytest.raises(InvalidStrategyError, match=f"^{re.escape(message)}$"):
            Strategy(**fields)


# --- stacks: perturb with sequences of levels and seeds builds a StrategyStack,
# each member of which is the strategy one perturb call returns, bit for bit

STACK_LEVELS = (0.0, 1e-4, 1e-2, 0.3, 1.0)


@settings(max_examples=30)
@given(
    k=st.sampled_from([1, 5]),
    model=st.sampled_from(NOISE_MODELS),
    members=st.lists(
        st.tuples(st.sampled_from(STACK_LEVELS), st.integers(0, 2**63)), min_size=1, max_size=8
    ),
)
# level-0 members among moving ones, and state-mixing's norms at d = 11
@example(k=1, model="state-mixing", members=[(0.0, 1), (1e-2, 2), (0.0, 3), (1.0, 4), (1e-4, 5)])
@example(k=5, model="state-mixing", members=[(1e-2, seed) for seed in range(8)])
@example(k=5, model="povm-jitter", members=[(0.0, 1), (1e-2, 2), (0.3, 3), (0.0, 4)])
@example(k=1, model="outcome-noise", members=[(1e-4, 1), (0.0, 2), (1.0, 3)])
def test_a_stacked_perturb_equals_its_members_bit_for_bit(k, model, members):
    canon = canonical_strategy(four_family(k))
    levels, seeds = zip(*members)
    stack = perturb(canon, model, levels, np.array(seeds, dtype=np.uint64))
    assert type(stack) is StrategyStack and len(stack) == len(members)
    assert (stack.dim_a, stack.dim_b) == (canon.dim_a, canon.dim_b)
    for i, (level, seed) in enumerate(members):
        # one strategy runs the stacked code too, so the loop, which reduces
        # each vector by itself, is the reference for both
        alone = perturb(canon, model, level, seed)
        looped = loop_perturb(canon, model, level, seed) if level else canon
        for name in ("state", "alice", "bob"):
            mine = getattr(stack, name)[i]
            for its in (getattr(alone, name), getattr(looped, name)):
                assert mine.dtype == its.dtype and mine.shape == its.shape, name
                assert mine.tobytes() == its.tobytes(), (i, name)


def test_perturb_refuses_sequences_of_other_lengths():
    canon = canonical_strategy(four_family(1))
    lengths = "^levels and seeds must be non-empty sequences of one length, got "
    for levels, seeds in (([0.1, 0.2], [1]), ([], []), ((0.1,), (1, 2))):
        with pytest.raises(InvalidLevelError, match=lengths):
            perturb(canon, "povm-jitter", levels, seeds)
    # each level and seed is check_noise's; a scalar and a sequence is no stack
    level = r"^level must be a real number in \[0, 1\], got "
    with pytest.raises(InvalidLevelError, match=level + "1.5$"):
        perturb(canon, "povm-jitter", [0.1, 1.5], [1, 2])
    with pytest.raises(InvalidLevelError, match="^seed must be nonnegative and integral, got -1$"):
        perturb(canon, "povm-jitter", [0.1, 0.2], [1, -1])
    with pytest.raises(InvalidLevelError, match=level + r"\[0.1\]$"):
        perturb(canon, "povm-jitter", [0.1], 1)


def bad_members():
    """(change to the canonical strategy of simplex_family(3), its message):
    one per check a member of a stack can fail alone."""
    canon = canonical_strategy(simplex_family(3))
    skew, negative, short = (canon.alice.copy() for _ in range(3))
    skew[1, 1, 0, 1] += 1e-3
    negative[2] = [np.diag([-0.5, 1.0]), np.diag([1.5, 0.0])]
    short[0, 1] *= 0.5  # still PSD and Hermitian
    return canon, [
        (dict(alice=skew), "alice question 1 outcome 1: not Hermitian at tolerance"),
        (dict(alice=negative), "alice question 2 outcome 0: negative eigenvalue -5.000e-01"),
        (dict(bob=short.swapaxes(2, 3)), "bob question 0: POVM does not sum to identity"),
        (dict(state=canon.state * 1.01), "state vector is not normalized"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_a_stack_names_its_invalid_member(case):
    canon, cases = bad_members()
    change, message = cases[case]
    fields = dict(state=canon.state, dim_a=2, dim_b=2, alice=canon.alice, bob=canon.bob)
    # one strategy keeps its message
    with pytest.raises(InvalidStrategyError, match=f"^{re.escape(message)}$"):
        Strategy(**(fields | change))
    members = [canon] * 4
    stack = StrategyStack.of(members)
    stack.validate()  # valid members pass
    for name, array in change.items():
        getattr(stack, name)[2] = array
    with pytest.raises(InvalidStrategyError, match=f"^{re.escape('member 2: ' + message)}$"):
        stack.validate()
