import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import projsum.linalg as linalg
from projsum.errors import (
    BudgetExceededError,
    EigensolverError,
    InvalidDimensionError,
    InvalidShapeError,
    InvalidStateError,
    NonHermitianError,
)
from projsum.linalg import (
    _hermitian_spectrum,
    _lowest_eigvec,
    _wide_svd,
    dagger,
    fix_phases,
    hermitian_eig,
    is_hermitian,
    krylov_eigh,
    maximally_entangled,
    nearest_isometry,
    null_space,
    random_state,
    real_if_exact,
    reduced_densities,
    schmidt,
    seminorm,
    unvec,
    vec,
)

from oracles import (
    partial_trace,
    random_hermitian,
    random_unitary,
    schmidt_reconstruct,
    state_seminorm,
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
    with pytest.raises(InvalidDimensionError, match="^dimension must be positive, got 0$"):
        maximally_entangled(0)
    # np.eye raised a bare TypeError for 2.5 and read True as 1
    for bad in (2.5, 2.0, True):
        with pytest.raises(InvalidDimensionError, match=f"^dimension must be an integer, got {bad}$"):
            maximally_entangled(bad)
    assert np.array_equal(maximally_entangled(np.int64(3)), maximally_entangled(3))


def test_schmidt_known_coefficients():
    psi = np.array([0.8, 0.0, 0.0, 0.6])
    dec = schmidt(psi, (2, 2))
    assert dec.rank == 2
    assert np.allclose(dec.coefficients, [0.8, 0.6])
    assert np.allclose(schmidt_reconstruct(dec), psi)


def test_schmidt_reconstructs_random_states():
    rng = np.random.default_rng(2)
    for _ in range(25):
        da, db = rng.integers(2, 6), rng.integers(2, 6)
        psi = random_state(da * db, rng)
        dec = schmidt(psi, (da, db))
        assert np.allclose(schmidt_reconstruct(dec), psi, atol=1e-12)
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
    with pytest.raises(InvalidShapeError, match=r"^expected a square matrix, got \(2, 3\)$"):
        hermitian_eig(np.zeros((2, 3)))


def matrix_action(a):
    """The action on row vectors that krylov_eigh expects, of a Hermitian matrix."""
    return lambda rows: rows @ a.T


@given(
    dim=st.integers(4, 40),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_krylov_eigh_matches_eigh(dim, count, seed, data):
    h = random_hermitian(dim, np.random.default_rng(seed))
    w, v, residuals = krylov_eigh(matrix_action(h), dim, count)
    assert_top_pairs(h, w, v, residuals)
    guard = data.draw(st.integers(0, count - 1), label="guard")
    if guard:
        w, v, residuals = krylov_eigh(matrix_action(h), dim, count, guard)
        assert_top_pairs(h, w, v, residuals, guard)


def recorded_action(a, rows):
    """matrix_action that appends the row count of every call to ``rows``."""
    return lambda block: rows.append(len(block)) or block @ a.T


def restarted(rows):
    """True only if krylov_eigh restarted: each block step applies the
    operator once and each convergence check at most once, and a basis that
    never restarts holds at most KRYLOV_BASIS_BLOCKS full steps, each checked
    at most once."""
    return len(rows) > 2 * linalg.KRYLOV_BASIS_BLOCKS


@given(
    dim=st.integers(45, 120),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_krylov_eigh_restarted_matches_eigh(dim, count, seed, data):
    # a basis of 10 blocks fills long before these solves converge
    h = random_hermitian(dim, np.random.default_rng(seed))
    guard = data.draw(st.integers(0, count - 1), label="guard")
    for g in {0, guard}:
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "KRYLOV_BASIS_BLOCKS", 10)
            w, v, residuals = krylov_eigh(recorded_action(h, rows), dim, count, g)
            assert restarted(rows)
        assert_top_pairs(h, w, v, residuals, g)


def assert_top_pairs(h, w, v, residuals, guard=0):
    """w, v are the top eigenpairs of h, to 1e-12 of its norm but for the last
    ``guard``, and residuals their measured ||h x - theta x||, each within
    its pair's tolerance of the norm, which bounds every Ritz value; a guard
    eigenvalue is within its residual of one of h."""
    count = len(w)
    ref_w, ref_v = hermitian_eig(h)
    scale = np.abs(ref_w).max()
    recomputed = np.linalg.norm(h @ v - v * w, axis=0)
    assert np.abs(residuals - recomputed).max() <= 1e-14 * scale
    tol = np.where(np.arange(count) < count - guard, linalg.KRYLOV_TOL, linalg.KRYLOV_GUARD_TOL)
    assert (residuals <= tol * scale).all()
    assert np.allclose(v.conj().T @ v, np.eye(count), atol=1e-12)
    for j in range(count - guard, count):
        assert np.abs(ref_w - w[j]).min() <= residuals[j] + 1e-14 * scale
    count -= guard
    assert np.allclose(w[:count], ref_w[:count], rtol=0, atol=1e-12 * scale)
    assert recomputed[:count].max(initial=0.0) <= 1e-12 * scale
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
    w, v, _ = krylov_eigh(matrix_action(h), dim, 1)
    assert abs(w[0] - 5.0) < 1e-11
    assert np.linalg.norm(v - top2 @ (top2.conj().T @ v)) < 1e-10
    idx = np.argmax(np.abs(v[:, 0]))
    assert v[idx, 0].real > 0 and abs(v[idx, 0].imag) < 1e-15
    # a block as large as the multiplicity measures it
    w, v, _ = krylov_eigh(matrix_action(h), dim, 2)
    assert np.allclose(w, [5.0, 5.0], atol=1e-11)
    assert np.linalg.norm(v - top2 @ (top2.conj().T @ v)) < 1e-10
    w, v, _ = krylov_eigh(matrix_action(h), dim, 4)
    assert np.allclose(w, [5.0, 5.0, 3.0, 3.0], atol=1e-11)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_krylov_eigh_planted_pair_across_restarts(monkeypatch):
    # a double top eigenvalue just above the bulk converges slowly, so a
    # basis of 10 blocks restarts; a block of 2 still sees both copies
    rng = np.random.default_rng(13)
    dim = 80
    u = random_unitary(dim, rng)
    spectrum = np.concatenate([[1.0, 1.0], rng.uniform(-1.0, 0.95, dim - 2)])
    h = (u * spectrum) @ u.conj().T
    top2 = u[:, :2]
    monkeypatch.setattr(linalg, "KRYLOV_BASIS_BLOCKS", 10)
    rows = []
    w, v, _ = krylov_eigh(recorded_action(h, rows), dim, 2)
    assert restarted(rows)
    assert np.allclose(w, [1.0, 1.0], rtol=0, atol=1e-12)
    assert np.linalg.norm(v - top2 @ (top2.conj().T @ v)) < 1e-10
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("restart", [False, True], ids=["one basis", "restarted"])
def test_krylov_eigh_window_follows_a_block_that_shrank(monkeypatch, restart):
    # five distinct eigenvalues of multiplicities 1, 1, 5, 1, 32: a block of
    # 2 spans a 7-dimensional invariant space, through blocks of 2, 2, 2 and
    # 1, so each block's coefficients come from a window that starts at the
    # previous block as it was built, not two full blocks back.  A basis of
    # 3 blocks restarts from 2 Ritz vectors, the window of the next block
    rng = np.random.default_rng(29)
    dim = 40
    u = random_unitary(dim, rng)
    spectrum = np.repeat([5.0, 4.0, 2.0, 1.0, -1.0], [1, 1, 5, 1, 32])
    h = (u * spectrum) @ u.conj().T
    if restart:
        monkeypatch.setattr(linalg, "KRYLOV_BASIS_BLOCKS", 3)
        monkeypatch.setattr(linalg, "KRYLOV_KEEP_BLOCKS", 1)
    rows = []
    w, v, _ = krylov_eigh(recorded_action(h, rows), dim, 2)
    assert rows[:4] == [2, 2, 2, 1]
    assert restarted(rows) == restart
    assert np.allclose(w, [5.0, 4.0], rtol=0, atol=1e-12)
    assert np.abs(v - fix_phases(u[:, :2])).max() < 1e-12


@pytest.mark.parametrize("top", [1.0, 0.5 + 1e-4])
def test_krylov_eigh_guard_pair_meets_its_own_tolerance(top):
    # the wanted eigenvalue sits above a 3-fold cluster at 0.5 split by 1e-6,
    # whose guard pair needs only KRYLOV_GUARD_TOL.  Far above the cluster
    # the wanted pair converges first and the guard lets the solve stop
    # sooner; 1e-4 above it the wanted pair converges last and must still
    # reach KRYLOV_TOL
    rng = np.random.default_rng(17)
    dim = 300
    u = random_unitary(dim, rng)
    cluster = 0.5 + np.array([1e-6, 0.0, -1e-6])
    spectrum = np.concatenate([[top], cluster, rng.uniform(-1.0, 0.45, dim - 4)])
    h = (u * spectrum) @ u.conj().T
    strict, guarded = [], []
    krylov_eigh(recorded_action(h, strict), dim, 2)
    w, v, _ = krylov_eigh(recorded_action(h, guarded), dim, 2, guard=1)
    assert len(guarded) < len(strict) if top == 1.0 else len(guarded) <= len(strict)
    residual = np.linalg.norm(h @ v - v * w, axis=0)
    scale = np.abs(w).max()
    assert residual[0] <= linalg.KRYLOV_TOL * scale
    assert residual[1] <= linalg.KRYLOV_GUARD_TOL * scale
    assert abs(w[0] - top) <= residual[0]
    assert np.abs(cluster - w[1]).min() <= residual[1]
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    with pytest.raises(InvalidShapeError):
        krylov_eigh(matrix_action(h), dim, 2, guard=2)


def test_krylov_eigh_applies_the_operator_to_ritz_vectors_once():
    # every check before the last is judged on residual estimates: of the
    # blocks applied, all but the last are orthonormal basis blocks, and the
    # last holds the returned eigenvectors
    h = random_hermitian(60, np.random.default_rng(19))
    blocks = []
    w, v, residuals = krylov_eigh(lambda b: blocks.append(b) or b @ h.T, 60, 2)
    basis = np.concatenate(blocks[:-1])
    assert len(blocks) > 20  # geometrically spaced checks: at least 10 of them
    assert np.allclose(basis.conj() @ basis.T, np.eye(len(basis)), atol=1e-12)
    assert np.allclose(np.abs(blocks[-1].conj() @ v), np.eye(2), atol=1e-12)
    assert_top_pairs(h, w, v, residuals)


def test_krylov_eigh_real_dtype_matches_the_complex_solve():
    # a real symmetric operator in float64: real blocks throughout, and the
    # complex solve's eigenpairs, as complex128
    h = random_hermitian(60, np.random.default_rng(20)).real
    blocks = []
    w, v, residuals = krylov_eigh(
        lambda b: blocks.append(b) or b @ h.T, 60, 2, dtype=np.float64
    )
    ref_w, ref_v, _ = krylov_eigh(matrix_action(h.astype(complex)), 60, 2)
    assert {b.dtype for b in blocks} == {np.dtype(np.float64)}
    assert v.dtype == np.complex128
    assert np.allclose(w, ref_w, rtol=0, atol=1e-12)
    assert np.allclose(v, ref_v, rtol=0, atol=1e-10)
    assert_top_pairs(h, w, v, residuals)


def test_real_if_exact_reads_every_imaginary_part():
    a = np.arange(4.0).reshape(2, 2).astype(complex).T
    b = np.eye(3)
    real_a, real_b = real_if_exact(a, b)
    assert real_a.dtype == np.float64 and real_a.flags.c_contiguous
    assert np.array_equal(real_a, a.real) and np.array_equal(real_b, b)
    # one imaginary entry, however small, keeps every array as given
    c = np.eye(3, dtype=complex)
    c[2, 1] = 1e-300j
    kept = real_if_exact(a, b, c)
    assert all(x is y for x, y in zip(kept, (a, b, c)))


@pytest.mark.parametrize("s", [1e-8, 1e-10, 1e-12, 1e-13])
def test_wide_svd_resolves_the_krylov_rank_cut(s):
    # a 2 x 10,201 residual block with singular values 1 and s, its rows
    # mixed by a unitary: the QR-first SVD reads s as the thin SVD does, and
    # keeps or drops the second direction on the same side of the cut.  A
    # Gram-matrix test reads about 1e-8 for every s here
    rng = np.random.default_rng(23)
    dim = 10_201
    rows = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))[0].T
    block = random_unitary(2, rng) @ (np.array([[1.0], [s]]) * rows)
    u, sv, vh = _wide_svd(block)
    _, ref, ref_vh = np.linalg.svd(block, full_matrices=False)
    assert np.allclose(sv, ref, rtol=1e-4, atol=0) and abs(sv[1] - s) <= 1e-4 * s
    cut = linalg.KRYLOV_TOL * np.linalg.norm(block, axis=1).max()
    assert ((sv > cut) == (ref > cut)).all()
    assert np.abs((u * sv) @ vh - block).max() <= 1e-15
    assert np.allclose(vh.conj() @ vh.T, np.eye(2), atol=1e-15)
    assert np.allclose(np.abs(vh.conj() @ ref_vh.T), np.eye(2), atol=1e-5)


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


@given(dim=st.integers(4, 40), seed=st.integers(0, 2**16))
def test_lowest_eigvecs_matches_hermitian_eig(dim, seed):
    h = random_hermitian(dim, np.random.default_rng(seed))
    w = _hermitian_spectrum(h)
    v = _lowest_eigvec(h, w)
    ref_w, ref_v = hermitian_eig(h)
    ref_w, ref_v = ref_w[::-1], ref_v[:, ::-1]
    scale = np.abs(ref_w).max()
    assert np.allclose(w, ref_w, rtol=0, atol=1e-12 * scale)
    assert v.shape == (dim, 1)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.linalg.norm(h @ v - v * w[0]) <= 1e-12 * scale
    if ref_w[1] - ref_w[0] > 1e-3 * scale:
        assert np.abs(v[:, 0] - ref_v[:, 0]).max() < 1e-9


def loop_lowest_eigvec(a, w):
    """_lowest_eigvec as a loop of shifted solves, each followed by a
    Rayleigh-Ritz step on the normalised vector, in the arithmetic of ``a``:
    a real matrix gets the real half of the complex start."""
    m = np.asarray(a)
    dim = len(w)
    scale = float(np.abs(w).max())
    if scale == 0.0:
        return np.eye(dim, 1, dtype=np.complex128)
    shift = w[0] - linalg.INVERSE_SHIFT * scale
    eye = np.eye(dim)
    rng = np.random.default_rng(linalg.KRYLOV_SEED)
    x = rng.normal(size=(dim, 1))
    if np.iscomplexobj(m):
        x = x + 1j * rng.normal(size=(dim, 1))
    for _ in range(linalg.INVERSE_MAX_SWEEPS):
        for attempt in range(4):
            try:
                x = np.linalg.solve(m - shift * eye, x)
                break
            except np.linalg.LinAlgError:
                shift -= 16 * np.spacing(scale)
        else:
            raise EigensolverError("shifted solves stay singular")
        q = x / np.linalg.norm(x)
        mq = m @ q
        theta, y = np.linalg.eigh(dagger(q) @ mq)
        x = q @ y
        if np.linalg.norm(mq @ y - x * theta) <= linalg.INVERSE_TOL * scale:
            return fix_phases(x)
    raise EigensolverError("no convergence")


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


def test_hermitian_spectrum_refuses_a_failed_or_non_finite_solve(monkeypatch):
    h = np.diag([1.0, 2.0, 3.0])

    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    message = "^eigenvalues of a 3-row matrix: Eigenvalues did not converge$"
    with pytest.raises(EigensolverError, match=message):
        _hermitian_spectrum(h)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([1.0, np.nan, 3.0]))
    with pytest.raises(EigensolverError, match="^a 3-row matrix has a non-finite eigenvalue$"):
        _hermitian_spectrum(h)


def test_lowest_eigvec_refuses_shifted_solves_that_stay_singular(monkeypatch):
    h = np.diag([1.0, 2.0, 3.0])
    w = _hermitian_spectrum(h)
    calls = []

    def singular(a, b):
        calls.append(a)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(EigensolverError, match="^shifted solves of a 3-row matrix stay singular$"):
        _lowest_eigvec(h, w)
    # each of the four tries moves the shift further below the lowest eigenvalue
    below = [a[0, 0] for a in calls]
    assert len(below) == 4 and 0 < below[0] < below[1] < below[2] < below[3]


def test_lowest_eigvecs_planted_cluster_and_degeneracy():
    # a cluster of three eigenvalues 1e-9 apart just above the wanted one
    h, u = planted([-1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9], seed=14)
    assert_spans(_lowest_eigvec(h, _hermitian_spectrum(h)), u[:, :1])
    # an exactly degenerate lowest eigenvalue: the vector lies in its eigenspace
    h, u = planted([-1.0, -1.0, 0.5, 0.5, 0.5], seed=15)
    assert_spans(_lowest_eigvec(h, _hermitian_spectrum(h)), u[:, :2])


def test_lowest_eigvecs_matches_the_loop_on_planted_narrow_bands():
    cases = [
        planted([-1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9], seed=14)[0],
        planted([-1.0, -1.0, 0.5, 0.5, 0.5], seed=15)[0],
        planted(1e-7 * np.arange(8.0), seed=17)[0],
        np.diag(np.arange(12.0)).astype(complex),
        np.diag(np.r_[0.0, 0.0, 0.0, np.arange(1.0, 10.0)]).astype(complex),
        random_hermitian(20, np.random.default_rng(16)),
        random_hermitian(20, np.random.default_rng(16)).real,  # a real start, real solves
    ]
    for h in cases:
        w = _hermitian_spectrum(h)
        assert np.array_equal(_lowest_eigvec(h, w), loop_lowest_eigvec(h, w))


def count_calls(monkeypatch, *names):
    """Count the calls of the named np.linalg functions until monkeypatch.undo()."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_lowest_eigvecs_exact_diagonal_and_singular_shifts(monkeypatch):
    h = np.diag(np.arange(12.0)).astype(complex)
    flat = np.diag(np.r_[0.0, 0.0, 0.0, np.arange(1.0, 10.0)]).astype(complex)
    for shift in (linalg.INVERSE_SHIFT, 0.0):
        # with no offset every shift is an exact eigenvalue: the solve is
        # singular and the shift must move instead of raising LinAlgError
        monkeypatch.setattr(linalg, "INVERSE_SHIFT", shift)
        calls = count_calls(monkeypatch, "eigh")
        v = _lowest_eigvec(h, _hermitian_spectrum(h))
        assert calls == {"eigh": 0}
        assert np.allclose(v, np.eye(12)[:, :1], rtol=0, atol=1e-12)
        # a threefold lowest eigenvalue
        assert_spans(_lowest_eigvec(flat, _hermitian_spectrum(flat)), np.eye(12)[:, :3])


def test_lowest_eigvecs_guards(monkeypatch):
    # the zero matrix takes any unit vector; a shift far from the
    # eigenvalue needs many sweeps, and none left raises
    assert np.array_equal(_lowest_eigvec(np.zeros((3, 3), complex), np.zeros(3)), np.eye(3, 1))
    h = random_hermitian(20, np.random.default_rng(16))
    monkeypatch.setattr(linalg, "INVERSE_SHIFT", 0.5)
    monkeypatch.setattr(linalg, "INVERSE_MAX_SWEEPS", 1)
    with pytest.raises(EigensolverError, match="no convergence within 1 inverse-iteration sweeps"):
        _lowest_eigvec(h, _hermitian_spectrum(h))


def stack_members(dim, real):
    """Matrices whose inverse iterations take different numbers of sweeps,
    an exact diagonal, whose first shift is singular when INVERSE_SHIFT is
    0, and the zero matrix, which takes none."""
    mats = [
        planted([-1.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9], seed=14, dim=dim)[0],
        planted(1e-7 * np.arange(8.0), seed=17, dim=dim)[0],
        random_hermitian(dim, np.random.default_rng(16)),
        np.diag(np.arange(float(dim))).astype(complex),
        np.zeros((dim, dim), complex),
        random_hermitian(dim, np.random.default_rng(18)),
    ]
    return np.stack([m.real if real else m for m in mats])


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("shift", [None, 0.0])
def test_lowest_eigvec_of_a_stack_equals_its_members(monkeypatch, real, shift):
    # each member stops at its own convergence, so it gets the bits it gets
    # alone; with no shift offset the exact diagonal's solve is singular
    if shift is not None:
        monkeypatch.setattr(linalg, "INVERSE_SHIFT", shift)
    stack = stack_members(12, real)
    w = _hermitian_spectrum(stack)
    alone = [_lowest_eigvec(member, _hermitian_spectrum(member)) for member in stack]
    if shift is not None:
        # the stack fails whole, and each member alone moves its own shift
        message = "^shifted solves of a 12-row matrix stay singular$"
        with pytest.raises(EigensolverError, match=message):
            _lowest_eigvec(stack, w)
        for member, got in zip(stack, alone):
            assert np.array_equal(got, loop_lowest_eigvec(member, _hermitian_spectrum(member)))
        return
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    vecs = _lowest_eigvec(stack, w)
    for got, want in zip(vecs, alone):
        assert np.array_equal(got, want)
    # the members need different numbers of sweeps, all solved as one stack
    assert solves.count(stack.shape) >= 2 and set(solves) == {stack.shape}


def test_stacked_solvers_raise_the_error_of_their_first_failing_member(monkeypatch):
    # a stack fails whole, with the error its first failing member raises
    # alone: a failed eigenvalue solve, and an inverse iteration that does
    # not converge beside the zero matrix, which needs no sweep
    stack = np.stack([np.diag(w) for w in ([1.0, 2.0, 3.0], [2.0, 3.0, 5.0], [3.0, 4.0, 5.0])])
    eigvalsh = np.linalg.eigvalsh

    def fail(m):
        if m.ndim > 2 or m[2, 2] == 5.0 and m[0, 0] == 2.0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    message = "^eigenvalues of a 3-row matrix: Eigenvalues did not converge$"
    for failing in (stack[1], stack):
        with pytest.raises(EigensolverError, match=message):
            _hermitian_spectrum(failing)
    monkeypatch.undo()
    h = random_hermitian(20, np.random.default_rng(16))
    stack = np.stack([np.zeros((20, 20), complex), h, h])
    w = _hermitian_spectrum(stack)
    monkeypatch.setattr(linalg, "INVERSE_SHIFT", 0.5)
    monkeypatch.setattr(linalg, "INVERSE_MAX_SWEEPS", 1)
    message = "^no convergence within 1 inverse-iteration sweeps of a 20-row matrix$"
    for failing, spectrum in ((stack[1], w[1]), (stack, w)):
        with pytest.raises(EigensolverError, match=message):
            _lowest_eigvec(failing, spectrum)


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
    assert is_hermitian(np.zeros((2, 3))) is False
    # a stack gets one verdict per matrix
    stack = np.stack([x, np.array([[0.0, 1.0], [0.0, 0.0]]), x]).reshape(3, 1, 2, 2)
    assert is_hermitian(stack).tolist() == [[True], [False], [True]]
    assert np.array_equal(dagger(stack)[1, 0], stack[1, 0].conj().T)


def test_state_checks_raise():
    with pytest.raises(InvalidStateError):
        schmidt(np.zeros(4), (2, 2))
