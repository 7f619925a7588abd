import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import projsum.linalg as linalg
from projsum.errors import (
    BudgetExceededError,
    EigensolverError,
    InvalidShapeError,
    InvalidStateError,
    NonHermitianError,
)
from projsum.linalg import (
    dagger,
    fix_phases,
    hermitian_eig,
    hermitian_spectrum,
    is_hermitian,
    krylov_eigh,
    lowest_eigvecs,
    maximally_entangled,
    nearest_isometry,
    null_space,
    partial_trace,
    random_hermitian,
    random_state,
    random_unitary,
    reduced_densities,
    schmidt,
    seminorm,
    state_seminorm,
    unvec,
    vec,
)


def test_vec_matrix_unit_convention():
    # vec(E_ab) = e_a kron e_b
    e = np.zeros((2, 3))
    e[1, 2] = 1.0
    v = vec(e)
    expected = np.kron(np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(v, expected)


def test_vec_kron_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        y = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        d = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        lhs = np.kron(x, y) @ vec(d)
        rhs = vec(x @ d @ y.T)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_unvec_round_trip():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 5))
    assert np.allclose(unvec(vec(m), (3, 5)), m)
    with pytest.raises(InvalidShapeError):
        unvec(vec(m), (4, 4))


def test_maximally_entangled_is_vec_of_scaled_identity():
    for d in (2, 3, 5):
        phi = maximally_entangled(d)
        assert np.allclose(phi, vec(np.eye(d) / np.sqrt(d)))
        assert abs(np.linalg.norm(phi) - 1.0) < 1e-14


def test_schmidt_known_coefficients():
    psi = np.array([0.8, 0.0, 0.0, 0.6])
    dec = schmidt(psi, (2, 2))
    assert dec.rank == 2
    assert np.allclose(dec.coefficients, [0.8, 0.6])
    assert np.allclose(dec.reconstruct(), psi)


def test_schmidt_reconstructs_random_states():
    rng = np.random.default_rng(2)
    for _ in range(25):
        da, db = rng.integers(2, 6), rng.integers(2, 6)
        psi = random_state(da * db, rng)
        dec = schmidt(psi, (da, db))
        assert np.allclose(dec.reconstruct(), psi, atol=1e-12)
        # coefficients sorted descending and normalized
        assert np.all(np.diff(dec.coefficients) <= 1e-15)
        assert abs(np.sum(dec.coefficients**2) - 1.0) < 1e-12
        # left/right vectors orthonormal
        left = dec.left
        assert np.allclose(left.conj().T @ left, np.eye(dec.rank), atol=1e-12)


def test_schmidt_rank_cut():
    phi = maximally_entangled(2)
    dec = schmidt(phi, (2, 2))
    assert dec.rank == 2
    product = np.kron([1.0, 0.0], [0.0, 1.0])
    assert schmidt(product, (2, 2)).rank == 1


def test_partial_trace_agrees_with_reduced_densities():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = random_state(12, rng)
        rho = np.outer(psi, psi.conj())
        ra = partial_trace(rho, (3, 4), keep="A")
        rb = partial_trace(rho, (3, 4), keep="B")
        qa, qb = reduced_densities(psi, (3, 4))
        assert np.allclose(ra, qa, atol=1e-12)
        assert np.allclose(rb, qb, atol=1e-12)
        assert abs(np.trace(ra) - 1.0) < 1e-12
        assert abs(np.trace(rb) - 1.0) < 1e-12


def test_partial_trace_of_product():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    a = a @ a.T
    a /= np.trace(a)
    b = rng.normal(size=(2, 2))
    b = b @ b.T
    b /= np.trace(b)
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, (3, 2), keep="A"), a, atol=1e-12)
    assert np.allclose(partial_trace(rho, (3, 2), keep="B"), b, atol=1e-12)


def test_seminorm_oracle():
    # ||X||_rho^2 = tr(X^* X rho); diagonal case is a weighted column norm
    rho = np.diag([0.5, 0.5])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.sqrt(0.5 * (1 + 9) + 0.5 * (4 + 16))
    assert abs(seminorm(x, rho) - expected) < 1e-12
    # vector version against a direct norm
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    rho2 = np.outer(psi, psi.conj())
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert abs(seminorm(z, rho2) - 1.0) < 1e-12
    # a stack gets one value per matrix, each equal to the single-matrix call
    stack = np.array([[x, z], [z, 2 * x]])
    values = seminorm(stack, rho)
    assert values.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        assert abs(values[idx] - seminorm(stack[idx], rho)) < 1e-12
    with pytest.raises(InvalidShapeError):
        seminorm(np.zeros((3, 2, 2)), np.eye(3))


def test_state_seminorm_matches_matrix_seminorm():
    rng = np.random.default_rng(5)
    psi = random_state(6, rng)
    rho_a, _ = reduced_densities(psi, (2, 3))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    direct = np.linalg.norm(np.kron(x, np.eye(3)) @ psi)
    assert abs(state_seminorm(x, psi, (2, 3), side="A") - direct) < 1e-12
    assert abs(seminorm(x, rho_a) - direct) < 1e-12


def test_null_space_shapes_and_orthonormality():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 8))
    ns = null_space(a)
    assert ns.shape == (8, 5)
    assert np.allclose(a @ ns, 0.0, atol=1e-12)
    assert np.allclose(ns.conj().T @ ns, np.eye(5), atol=1e-12)
    full = rng.normal(size=(4, 4)) + np.eye(4) * 10
    assert null_space(full).shape == (4, 0)


def test_null_space_deterministic_signs():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 5))
    n1 = null_space(a)
    n2 = null_space(a.copy())
    assert np.array_equal(n1, n2)
    # each column's largest entry is real positive
    for col in n1.T:
        idx = np.argmax(np.abs(col))
        assert col[idx].real > 0
        assert abs(col[idx].imag) < 1e-14


def test_hermitian_eig_descending_and_reconstructs():
    rng = np.random.default_rng(8)
    for _ in range(10):
        h = random_hermitian(5, rng)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def matrix_action(a):
    """The action on row vectors that krylov_eigh expects, of a Hermitian matrix."""
    return lambda rows: rows @ a.T


@given(
    dim=st.integers(4, 40),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_krylov_eigh_matches_eigh(dim, count, seed):
    h = random_hermitian(dim, np.random.default_rng(seed))
    w, v = krylov_eigh(matrix_action(h), dim, count)
    ref_w, ref_v = hermitian_eig(h)
    scale = np.abs(ref_w).max()
    assert np.allclose(w, ref_w[:count], rtol=0, atol=1e-12 * scale)
    assert np.allclose(v.conj().T @ v, np.eye(count), atol=1e-12)
    assert np.linalg.norm(h @ v - v * w, axis=0).max() <= 1e-12 * scale
    for j in range(count):
        # a simple eigenvalue fixes its vector, and the phase convention its phase
        neighbours = np.delete(ref_w, j)
        if np.abs(neighbours - ref_w[j]).min() > 1e-3 * scale:
            assert np.abs(v[:, j] - ref_v[:, j]).max() < 1e-9


def test_krylov_eigh_planted_degenerate_spectrum():
    rng = np.random.default_rng(11)
    dim = 30
    u = random_unitary(dim, rng)
    spectrum = np.concatenate([[5.0, 5.0, 3.0, 3.0, 3.0], rng.uniform(-1.0, 1.0, dim - 5)])
    h = (u * spectrum) @ u.conj().T
    top2 = u[:, :2]
    w, v = krylov_eigh(matrix_action(h), dim, 1)
    assert abs(w[0] - 5.0) < 1e-11
    assert np.linalg.norm(v - top2 @ (top2.conj().T @ v)) < 1e-10
    idx = np.argmax(np.abs(v[:, 0]))
    assert v[idx, 0].real > 0 and abs(v[idx, 0].imag) < 1e-15
    # a block as large as the multiplicity measures it
    w, v = krylov_eigh(matrix_action(h), dim, 2)
    assert np.allclose(w, [5.0, 5.0], atol=1e-11)
    assert np.linalg.norm(v - top2 @ (top2.conj().T @ v)) < 1e-10
    w, v = krylov_eigh(matrix_action(h), dim, 4)
    assert np.allclose(w, [5.0, 5.0, 3.0, 3.0], atol=1e-11)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_krylov_eigh_guards(monkeypatch):
    h = random_hermitian(50, np.random.default_rng(12))
    with pytest.raises(InvalidShapeError):
        krylov_eigh(matrix_action(h), 50, 0)
    with pytest.raises(InvalidShapeError):
        krylov_eigh(matrix_action(h), 50, 51)

    def unreachable(rows):
        raise AssertionError("apply called despite the budget")

    # a basis of 1,200 vectors of length 10^6 is refused before any allocation
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="1000000-row"):
            krylov_eigh(unreachable, 1_000_000, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # a full basis without convergence raises instead of returning
    monkeypatch.setattr(linalg, "KRYLOV_MAX_BLOCKS", 3)
    with pytest.raises(BudgetExceededError, match="no convergence within 3 basis vectors"):
        krylov_eigh(matrix_action(h), 50, 1)


@given(
    dim=st.integers(4, 40),
    count=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**16),
)
def test_lowest_eigvecs_matches_hermitian_eig(dim, count, seed):
    h = random_hermitian(dim, np.random.default_rng(seed))
    w = hermitian_spectrum(h)
    v = lowest_eigvecs(h, w, count)
    ref_w, ref_v = hermitian_eig(h)
    ref_w, ref_v = ref_w[::-1], ref_v[:, ::-1]
    scale = np.abs(ref_w).max()
    assert np.allclose(w, ref_w, rtol=0, atol=1e-12 * scale)
    assert np.allclose(v.conj().T @ v, np.eye(count), atol=1e-12)
    assert np.linalg.norm(h @ v - v * w[:count], axis=0).max() <= 1e-12 * scale
    for j in range(count):
        neighbours = np.delete(ref_w, j)
        if np.abs(neighbours - ref_w[j]).min() > 1e-3 * scale:
            assert np.abs(v[:, j] - ref_v[:, j]).max() < 1e-9


def loop_lowest_eigvecs(a, w, count):
    """lowest_eigvecs by inverse iteration alone: a spread cluster takes a
    shift and a solve per wanted eigenvalue and sweep."""
    m = np.asarray(a, dtype=np.complex128)
    dim = len(w)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return np.eye(dim, count, dtype=np.complex128)
    offset = linalg.INVERSE_SHIFT * scale
    band = w[count - 1] - w[0]
    if count == dim or band <= linalg.INVERSE_BAND * (w[count] - w[count - 1]):
        shifts, blocks = np.array([w[0] - max(offset, band)]), [slice(0, count)]
    else:
        shifts, blocks = w[:count] - offset, [slice(i, i + 1) for i in range(count)]
    eye = np.eye(dim)
    rng = np.random.default_rng(linalg.KRYLOV_SEED)
    x = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    for _ in range(linalg.INVERSE_MAX_SWEEPS):
        for i, cols in enumerate(blocks):
            for attempt in range(4):
                try:
                    x[:, cols] = np.linalg.solve(m - shifts[i] * eye, x[:, cols])
                    break
                except np.linalg.LinAlgError:
                    shifts[i] -= 16 * np.spacing(scale)
            else:
                raise EigensolverError("shifted solves stay singular")
        q = x / np.linalg.norm(x) if count == 1 else np.linalg.qr(x)[0]
        mq = m @ q
        theta, y = np.linalg.eigh(dagger(q) @ mq)
        x = q @ y
        residual = np.linalg.norm(mq @ y - x * theta, axis=0)
        if residual.max() <= linalg.INVERSE_TOL * scale:
            return fix_phases(x)
    raise EigensolverError("no convergence")


def is_narrow(w, count):
    """Whether lowest_eigvecs takes inverse iteration for these eigenvalues."""
    return count == len(w) or w[count - 1] - w[0] <= linalg.INVERSE_BAND * (w[count] - w[count - 1])


def planted(head, seed, dim=30):
    """A Hermitian matrix with the given lowest eigenvalues, the rest in [2, 4],
    and its eigenvectors (columns, in the order of the spectrum)."""
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    spectrum = np.concatenate([head, rng.uniform(2.0, 4.0, dim - len(head))])
    return (u * spectrum) @ u.conj().T, u


def assert_spans(v, basis):
    assert np.allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-12)
    assert np.linalg.norm(v - basis @ (basis.conj().T @ v)) < 1e-10


def test_lowest_eigvecs_planted_cluster_and_degeneracy():
    # a cluster of three eigenvalues 1e-9 apart inside the wanted four
    h, u = planted([-1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9], seed=14)
    for count in (1, 4):
        assert_spans(lowest_eigvecs(h, hermitian_spectrum(h), count), u[:, :count])
    # an exactly degenerate lowest eigenvalue, wanted once, twice, and with
    # two of the next (also degenerate) one
    h, u = planted([-1.0, -1.0, 0.5, 0.5, 0.5], seed=15)
    w = hermitian_spectrum(h)
    assert_spans(lowest_eigvecs(h, w, 1), u[:, :2])
    assert_spans(lowest_eigvecs(h, w, 2), u[:, :2])
    v = lowest_eigvecs(h, w, 4)
    assert_spans(v, u[:, :5])
    assert_spans(v[:, :2], u[:, :2])


def test_lowest_eigvecs_matches_the_loop_on_planted_narrow_bands():
    cases = [
        (planted([-1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9], seed=14)[0], 1),
        (planted([-1.0, -1.0, 0.5, 0.5, 0.5], seed=15)[0], 1),
        (planted([-1.0, -1.0, 0.5, 0.5, 0.5], seed=15)[0], 2),
        (planted(1e-7 * np.arange(8.0), seed=17)[0], 8),
        (np.diag(np.arange(12.0)), 1),
        (np.diag(np.r_[0.0, 0.0, 0.0, np.arange(1.0, 10.0)]), 3),
        (random_hermitian(20, np.random.default_rng(16)), 1),
    ]
    for h, count in cases:
        w = hermitian_spectrum(h)
        assert is_narrow(w, count)
        assert np.array_equal(lowest_eigvecs(h, w, count), loop_lowest_eigvecs(h, w, count))


def count_calls(monkeypatch, *names):
    """Count the calls of the named np.linalg functions until monkeypatch.undo()."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_lowest_eigvecs_spread_cluster_takes_one_eigh(monkeypatch):
    cases = [
        (planted([-1.0, -0.5, 0.0, 0.5], seed=18)[0], 4),
        (planted([-1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9], seed=14)[0], 4),
        (planted([-1.0, 1.0], seed=19, dim=9)[0], 2),
    ]
    for h, count in cases:
        w = hermitian_spectrum(h)
        assert not is_narrow(w, count)
        basis = hermitian_eig(h)[1][:, ::-1][:, :count]
        assert_spans(loop_lowest_eigvecs(h, w, count), basis)
        calls = count_calls(monkeypatch, "eigh", "solve")
        v = lowest_eigvecs(h, w, count)
        monkeypatch.undo()
        assert calls == {"eigh": 1, "solve": 0}
        assert_spans(v, basis)
        assert np.abs(v - fix_phases(v)).max() < 1e-15


def test_lowest_eigvecs_narrow_band_takes_one_solve_per_sweep(monkeypatch):
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(b.shape) or solve(a, b))
    # eight wanted eigenvalues 1e-7 apart, the rest at least 2 above them
    h, u = planted(1e-7 * np.arange(8.0), seed=17)
    w = hermitian_spectrum(h)
    v = lowest_eigvecs(h, w, 8)
    assert_spans(v, u[:, :8])
    assert np.linalg.norm(h @ v - v * w[:8], axis=0).max() <= 1e-12 * np.abs(w).max()
    assert solves and all(shape == (30, 8) for shape in solves)


def test_lowest_eigvecs_exact_diagonal_and_singular_shifts(monkeypatch):
    h = np.diag(np.arange(12.0))
    flat = np.diag(np.r_[0.0, 0.0, 0.0, np.arange(1.0, 10.0)])
    for shift in (linalg.INVERSE_SHIFT, 0.0):
        # with no offset every shift is an exact eigenvalue: the solve is
        # singular and the shift must move instead of raising LinAlgError
        monkeypatch.setattr(linalg, "INVERSE_SHIFT", shift)
        for count in (1, 2, 4):
            v = lowest_eigvecs(h, hermitian_spectrum(h), count)
            assert np.allclose(v, np.eye(12)[:, :count], rtol=0, atol=1e-12)
        # a threefold eigenvalue, wanted whole: one shared shift
        assert_spans(lowest_eigvecs(flat, hermitian_spectrum(flat), 3), np.eye(12)[:, :3])


def test_lowest_eigvecs_guards(monkeypatch):
    h = random_hermitian(20, np.random.default_rng(16))
    w = hermitian_spectrum(h)
    for count in (0, 21):
        with pytest.raises(InvalidShapeError):
            lowest_eigvecs(h, w, count)
    with pytest.raises(InvalidShapeError):
        lowest_eigvecs(h[:19, :19], w, 1)
    assert np.array_equal(lowest_eigvecs(np.zeros((3, 3)), np.zeros(3), 2), np.eye(3, 2))
    # a shift far from the eigenvalue needs many sweeps: none left raises
    monkeypatch.setattr(linalg, "INVERSE_SHIFT", 0.5)
    monkeypatch.setattr(linalg, "INVERSE_MAX_SWEEPS", 1)
    with pytest.raises(EigensolverError, match="no convergence within 1 inverse-iteration sweeps"):
        lowest_eigvecs(h, w, 1)
    bad = h.copy()
    bad[3, 3] = np.nan
    with pytest.raises(EigensolverError, match=r"^a\[3\]\[3\]: non-finite entry$"):
        hermitian_spectrum(bad)


def test_fix_phases_largest_entry_real_positive():
    v = np.array([[0.1 - 0.2j], [-0.9j]])
    fixed = fix_phases(v)
    idx = np.argmax(np.abs(fixed[:, 0]))
    assert fixed[idx, 0].real > 0
    assert abs(fixed[idx, 0].imag) < 1e-14
    assert abs(np.linalg.norm(fixed) - np.linalg.norm(v)) < 1e-14


def test_nearest_isometry_projects_back():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)[:, :2]
    noisy = u + 1e-8 * rng.normal(size=u.shape)
    v = nearest_isometry(noisy)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    assert np.linalg.norm(v - u) < 1e-7
    with pytest.raises(InvalidShapeError):
        nearest_isometry(np.ones((2, 3)))


def test_random_unitary_and_state_are_normalized():
    rng = np.random.default_rng(10)
    u = random_unitary(6, rng)
    assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
    psi = random_state(6, rng)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_is_hermitian_and_dagger():
    x = np.array([[1.0, 2j], [-2j, 3.0]])
    assert is_hermitian(x)
    assert np.array_equal(dagger(x), x.conj().T)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a stack gets one verdict per matrix
    stack = np.stack([x, np.array([[0.0, 1.0], [0.0, 0.0]]), x]).reshape(3, 1, 2, 2)
    assert is_hermitian(stack).tolist() == [[True], [False], [True]]
    assert np.array_equal(dagger(stack)[1, 0], stack[1, 0].conj().T)


def test_state_checks_raise():
    with pytest.raises(InvalidStateError):
        schmidt(np.zeros(4), (2, 2))
