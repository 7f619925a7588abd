"""Dense complex linear algebra and bipartite-state primitives.

Conventions used across the package:

* everything is complex128; exactness statements become tolerance checks
* bipartite basis order is row-major, index = a * dim_b + b, which makes
  ``vec`` and ``np.kron`` mutually consistent:  vec(X D Y^T) = (X kron Y) vec(D)
* eigen- and singular vectors are sorted by descending value and phase-fixed
  (largest-magnitude component made real positive) so repeated runs produce
  identical output
* operators too large to form densely are applied matrix-free and
  diagonalized by ``krylov_eigh``, thick-restart block Lanczos whose basis
  holds KRYLOV_BASIS_BLOCKS (50) blocks, so its memory is O(basis * dim)
  and its Rayleigh-Ritz problems have at most 100 rows for a block of 2; its
  convergence checks estimate the Ritz residuals from the last block's
  coupling and apply the operator to Ritz vectors only to accept them,
  returning the residuals so measured,
  and a caller may hold its last ("guard") pairs to a looser tolerance; of
  a dense one that selftest.fit_isometry builds, ``_hermitian_spectrum``
  computes only the eigenvalues and ``_lowest_eigvecs`` the few lowest
  eigenvectors, by inverse iteration for one and one full eigh for more
* array arguments are read by ``as_array``: ragged entries, strings,
  booleans, the wrong rank, an empty axis and a non-finite entry are refused
  with a ProjsumError naming the argument (and the entry), never cast
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    EigensolverError,
    InvalidDimensionError,
    InvalidShapeError,
    InvalidStateError,
    NonHermitianError,
)

HERMITIAN_TOL = 1e-10
STATE_TOL = 1e-9
RANK_TOL = 1e-9
# a Ritz pair is converged when ||A x - theta x|| <= KRYLOV_TOL * max|theta|;
# directions the images add below this fraction of their norm are dropped
KRYLOV_TOL = 1e-13
# the looser test of krylov_eigh's guard pairs, which only show whether the
# next eigenvalue is separated from the wanted ones
KRYLOV_GUARD_TOL = 1e-10
# krylov_eigh's basis holds KRYLOV_BASIS_BLOCKS blocks and a restart keeps
# KRYLOV_KEEP_BLOCKS blocks of Ritz vectors.  A d=31 fit takes as many steps
# at 50 blocks as at 100, on Rayleigh-Ritz problems of 100 rows, not 200; at
# 40 a guard pair is accepted above the bound test_linalg.py holds it to
KRYLOV_BASIS_BLOCKS = 50
KRYLOV_KEEP_BLOCKS = 6
# block steps, across restarts, before krylov_eigh gives up; a d=121 ladder
# fit (block 2) converged within 719
KRYLOV_MAX_BLOCKS = 1000
# complex entries of the Krylov basis plus its projected matrix: 268 MB, as
# much as a dense 4096 x 4096 operator
KRYLOV_BUDGET = 4096**2
KRYLOV_SEED = 2021
# _lowest_eigvecs shifts this fraction of max|eigenvalue| below the wanted
# eigenvalue, a few units in the last place.  Its residual test is a tenth
# of krylov_eigh's: one sweep leaves residuals of 3e-15 (9 rows) to 1.4e-13
# (625 rows) times max|eigenvalue|, a second one about 4e-16, below the 1e-15
# of a full np.linalg.eigh
INVERSE_SHIFT = 1e-15
INVERSE_TOL = 1e-14
INVERSE_MAX_SWEEPS = 8


def as_array(a, ndim: int | None, where: str, error=InvalidShapeError, dtype=np.complex128):
    """The one reader of a caller's array: ``a`` as ``dtype``, uncopied if it
    already is, with ``ndim`` non-empty axes (None: any number).  Raises
    ``error``, naming ``where``, for ragged entries, entries that are not
    numbers (a cast would read "1" as 1 and True as 1), complex entries when
    ``dtype`` is real, the wrong rank or an empty axis, and a non-finite
    entry, named by its index as serialize.numbers names one.
    """
    try:
        arr = np.asarray(a)
    except (TypeError, ValueError) as exc:  # ragged
        raise error(f"{where}: entries do not form {_layout(ndim)}") from exc
    kind = arr.dtype.kind
    if kind not in "iufc":
        raise error(f"{where}: entries must be numbers, got {arr.dtype}")
    if kind == "c" and np.dtype(dtype).kind != "c":
        raise error(f"{where}: entries must be real, got {arr.dtype}")
    if ndim is not None and arr.ndim != ndim or 0 in arr.shape:
        raise error(f"{where}: expected {_layout(ndim)}, got shape {arr.shape}")
    arr = arr.astype(dtype, copy=False)
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) < arr.size:  # half the cost of finite.all() on a small array
        index = "".join(f"[{i}]" for i in np.argwhere(~finite)[0])
        raise error(f"{where}{index}: non-finite entry")
    return arr


def _layout(ndim: int | None) -> str:
    return {None: "an array", 1: "a vector", 2: "a matrix"}.get(ndim, f"a rank-{ndim} array")


def dagger(a) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack of shape (..., m, m)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def is_hermitian(a, tol: float = HERMITIAN_TOL):
    """Max-entry check against the conjugate transpose.

    A stack of shape (..., m, m) gets one verdict per matrix, as a bool array.
    ``a`` is read by as_array, which raises InvalidShapeError.
    """
    m = as_array(a, None, "a")
    if m.ndim < 2:
        raise InvalidShapeError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        return False
    ok = np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0) <= tol
    return ok if m.ndim > 2 else bool(ok)


def vec(d) -> np.ndarray:
    """Row-major vectorization: vec(E_ab) = e_a kron e_b.

    Satisfies (X kron Y) vec(D) = vec(X D Y^T) and
    <(X kron Y) vec(I/sqrt(d)), vec(I/sqrt(d))> = tr(X Y^T) / d.
    """
    return as_array(d, 2, "d").reshape(-1)


def unvec(psi, dims: tuple[int, int]) -> np.ndarray:
    """Inverse of vec for a bipartite vector with the given factor dims."""
    v = as_array(psi, 1, "psi")
    da, db = dims
    if da <= 0 or db <= 0 or v.size != da * db:
        raise InvalidShapeError(f"cannot reshape length {v.size} to {dims}")
    return v.reshape(da, db)


def maximally_entangled(d: int) -> np.ndarray:
    """Unit vector (1/sqrt(d)) * sum_i e_i kron e_i in C^d tensor C^d."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be positive, got {d}")
    return vec(np.eye(d, dtype=np.complex128)) / np.sqrt(d)


def fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties go to the earliest index; zero columns keep their values.  This is the
    package-wide determinism convention for eigen/singular vectors.
    """
    out = np.array(v, dtype=np.complex128, copy=True)
    cols = out if out.ndim > 1 else out[:, None]
    cols *= _phase_factors(cols)
    return out


def _phase_factors(cols: np.ndarray) -> np.ndarray:
    """conj(t) / |t|, t the first largest-magnitude entry of each column (1 for
    a zero column).  |t| is np.hypot, as abs() of one entry is."""
    top = cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]
    mag = np.hypot(top.real, top.imag)
    return np.divide(top.conj(), mag, out=np.ones_like(top), where=mag > 0)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_l coefficients[l] * left[:, l] kron right[:, l].

    Coefficients are real, nonincreasing and strictly positive; left and
    right columns are orthonormal.  ``right`` holds the conjugated right
    singular vectors so the reconstruction identity is exact.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dims: tuple[int, int]

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> np.ndarray:
        return np.einsum(
            "l,al,bl->ab", self.coefficients, self.left, self.right
        ).reshape(-1)


def schmidt(psi, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite vector.

    The rank cut is relative: singular values <= RANK_TOL * sigma_max
    are discarded.  Raises InvalidStateError on a (near-)zero vector.
    """
    m = unvec(psi, dims)
    nrm = float(np.linalg.norm(m))
    if nrm <= 1e-300:
        raise InvalidStateError("cannot decompose the zero vector")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    u, s, vh = u[:, :r], s[:r], vh[:r, :]
    # joint phase freedom: fix the left vector, push the phase to the right
    factors = _phase_factors(u)
    u *= factors
    vh *= factors.conj()[:, None]
    return SchmidtDecomposition(coefficients=s, left=u, right=vh.T.copy(), dims=(dims[0], dims[1]))


def partial_trace(rho, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Trace out one factor of a density-like matrix on C^da tensor C^db."""
    m = as_array(rho, 2, "rho")
    da, db = dims
    if da <= 0 or db <= 0 or m.shape != (da * db, da * db):
        raise InvalidShapeError(f"matrix of shape {m.shape} does not match dims {dims}")
    r = m.reshape(da, db, da, db)
    side = keep.upper()
    if side == "A":
        return np.einsum("abcb->ac", r)
    if side == "B":
        return np.einsum("abad->bd", r)
    raise InvalidShapeError(f"keep must be 'A' or 'B', got {keep!r}")


def reduced_densities(psi, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Both reduced density matrices of a bipartite vector, without forming psi psi^*."""
    m = unvec(psi, dims)
    return m @ m.conj().T, m.T @ m.conj()


def seminorm(x, rho):
    """State-weighted seminorm  sqrt(tr(X^* X rho))  for rho PSD with unit trace.

    Vanishes exactly on the kernel of rho; tiny negative traces from roundoff
    are clipped to zero.  A stack x of shape (..., m, m) gets one value per
    matrix, as a float array, all weighted by the same rho.
    """
    xm = as_array(x, None, "x")
    rm = as_array(rho, 2, "rho")
    if xm.ndim < 2 or xm.shape[-2:] != rm.shape or rm.shape[0] != rm.shape[1]:
        raise InvalidShapeError(f"operator {xm.shape} and weight {rm.shape} must be square and equal")
    return _seminorm(xm, rm)


def _seminorm(xm: np.ndarray, rm: np.ndarray):
    """seminorm of arrays already read and checked."""
    val = np.trace(dagger(xm) @ xm @ rm, axis1=-2, axis2=-1).real
    root = np.sqrt(np.maximum(val, 0.0))
    return root if xm.ndim > 2 else float(root)


def state_seminorm(x, psi, dims: tuple[int, int], side: str = "A") -> float:
    """Seminorm of a one-sided operator against a bipartite state.

    side='A' gives ||(X kron I) psi||, side='B' gives ||(I kron X) psi||;
    both equal the seminorm weighted by the matching reduced density.
    """
    m = unvec(psi, dims)
    xm = as_array(x, 2, "x")
    if side.upper() == "A":
        return float(np.linalg.norm(xm @ m))
    return float(np.linalg.norm(m @ xm.T))


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the null space, as columns.

    The rank cut is relative: singular values > RANK_TOL * sigma_max
    count toward the rank.  The returned columns are phase-fixed; the basis
    may be empty (shape (n, 0)).
    """
    m = as_array(a, 2, "a")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))  # 0 for the zero matrix
    basis = vh[rank:, :].conj().T
    return fix_phases(basis) if basis.shape[1] else basis


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and phase-fixed eigenvectors of a Hermitian matrix.

    Raises NonHermitianError when the max-entry deviation from the conjugate
    transpose exceeds HERMITIAN_TOL.
    """
    m = as_array(a, 2, "a")
    if m.shape[0] != m.shape[1]:
        raise InvalidShapeError(f"expected a square matrix, got {m.shape}")
    if not is_hermitian(m):
        raise NonHermitianError("matrix is not Hermitian at tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    order = np.arange(w.size - 1, -1, -1)
    return w[order].real.copy(), fix_phases(v[:, order])


def krylov_eigh(
    apply, dim: int, count: int, guard: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top ``count`` eigenpairs of a Hermitian operator known only by its action.

    ``apply`` maps a (b, dim) stack of row vectors to the stack of their
    images.  Thick-restart block Lanczos (Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 2000) from a seeded random block of ``count`` vectors, with
    full reorthogonalisation and Rayleigh-Ritz extraction; the wanted Ritz
    pairs are returned once each residual ||A x - theta x|| is at most
    KRYLOV_TOL * max|theta|, as eigenvalues (descending), phase-fixed
    eigenvectors (columns), like hermitian_eig, and those measured
    residuals.  The last ``guard`` of them need only KRYLOV_GUARD_TOL *
    max|theta|: a caller that asks for one pair more than it uses, to see
    whether the next eigenvalue coincides, reads that pair's residual from
    the third value.  An eigenvalue of multiplicity m is seen min(m, count)
    times, so the multiplicities among the wanted values are measured
    instead of assumed simple.

    At each Rayleigh-Ritz check the residuals are first estimated for free:
    A x - theta x = y_last^T R for the Ritz vector x = y^T basis, where R
    is what the last block's images add to the basis and y_last the last
    block's rows of y (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2011, section 6.3), and ||y_last^T R|| comes from R's thin
    SVD, which the step computes anyway.  Only when every estimate passes
    are the Ritz vectors formed and the operator applied to them; that
    measured residual is the acceptance test and the third value returned.

    The basis holds at most cap = min(dim, KRYLOV_BASIS_BLOCKS * count)
    vectors, so memory is O(cap * dim) and no Rayleigh-Ritz problem is
    larger than cap.  When the next block would not fit, the basis restarts
    from its top KRYLOV_KEEP_BLOCKS * count Ritz vectors, whose projected
    block is diag(theta), and goes on from that block, which is orthogonal
    to them.  Until the basis is full, and for an operator with dim <= cap
    throughout, the steps are those of unrestarted block Lanczos.
    BudgetExceededError is raised, before allocating, when the basis and
    its projected matrix would exceed KRYLOV_BUDGET entries, and when the
    wanted pairs have not converged within KRYLOV_MAX_BLOCKS block steps,
    counted across restarts; an unconverged result is never returned.
    """
    if not 1 <= count <= dim or not 0 <= guard < count:
        raise InvalidShapeError(
            f"need 1 <= count <= dim and 0 <= guard < count, got {count}, {dim}, {guard}"
        )
    cap = min(dim, KRYLOV_BASIS_BLOCKS * count)
    if cap * (dim + cap) > KRYLOV_BUDGET:
        raise BudgetExceededError(
            f"a {dim}-row operator needs up to {cap} basis vectors, "
            f"over the {KRYLOV_BUDGET}-entry basis budget"
        )
    keep = KRYLOV_KEEP_BLOCKS * count
    tol = np.full(count, KRYLOV_TOL)
    tol[count - guard :] = KRYLOV_GUARD_TOL
    basis = np.empty((cap, dim), dtype=np.complex128)  # orthonormal rows
    proj = np.empty((cap, cap), dtype=np.complex128)  # basis^* A basis
    rng = np.random.default_rng(KRYLOV_SEED)
    start = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    new = np.linalg.qr(start)[0].T
    m = 0
    check_at = count
    steps = generated = 0
    while True:
        b = len(new)
        basis[m : m + b] = new
        image = apply(new)
        m += b
        steps += 1
        generated += b
        q = basis[:m]
        coeff = (image.conj() @ q.T).conj()
        proj[:m, m - b : m] = coeff.T
        proj[m - b : m, : m - b] = coeff[:, : m - b].conj()
        # what the images add to the basis; none left means an invariant
        # subspace, on which the Ritz pairs are exact
        u, sv, vh = np.linalg.svd(image - coeff @ q, full_matrices=False)
        fresh = vh[sv > KRYLOV_TOL * np.linalg.norm(image, axis=1).max()][: dim - m]
        full = m + len(fresh) > cap
        if m >= check_at or len(fresh) == 0 or full or steps >= KRYLOV_MAX_BLOCKS:
            theta, y = np.linalg.eigh(proj[:m, :m])
            theta, y = theta[::-1], y[:, ::-1]
            bound = tol * np.abs(theta).max()
            estimate = np.linalg.norm((y[m - b : m, :count].T @ u) * sv, axis=1)
            if (estimate <= bound).all():
                ritz = y[:, :count].T @ q
                residual = np.linalg.norm(apply(ritz) - theta[:count, None] * ritz, axis=1)
                if (residual <= bound).all():
                    return theta[:count], fix_phases(ritz.T), residual
            if len(fresh) == 0 or steps >= KRYLOV_MAX_BLOCKS:
                raise BudgetExceededError(
                    f"no convergence within {generated} basis vectors of a {dim}-row operator"
                )
            # Rayleigh-Ritz costs m^3: check at geometrically spaced sizes
            check_at = m + max(count, m // 4)
        # a second projection restores the orthogonality lost to cancellation
        fresh -= (fresh.conj() @ q.T).conj() @ q
        if full:
            # thick restart: the top Ritz vectors span part of the old basis,
            # so the fresh block is orthogonal to them too
            basis[:keep] = y[:, :keep].T @ q
            proj[:keep, :keep] = np.diag(theta[:keep])
            m = keep
            check_at = m + max(count, m // 4)
        new = np.linalg.qr(fresh.T)[0].T


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix the caller built, ascending, from its
    lower triangle as np.linalg.eigvalsh reads it; EigensolverError when
    LAPACK fails or an eigenvalue is not finite."""
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalues of a {len(m)}-row matrix: {exc}") from exc
    if not np.isfinite(w).all():
        raise EigensolverError(f"a {len(m)}-row matrix has a non-finite eigenvalue")
    return w


def _lowest_eigvecs(m: np.ndarray, w: np.ndarray, count: int) -> np.ndarray:
    """Phase-fixed eigenvectors (columns) of the ``count`` lowest eigenvalues.

    ``m`` is a Hermitian matrix the caller built and ``w`` its whole
    spectrum, ascending, as _hermitian_spectrum returns it, so the caller
    judges the eigenvalues before any vector is computed; 1 <= count <=
    len(w).  One vector comes from shifted inverse iteration (Ipsen, SIAM
    Review 39, 1997): a seeded random vector is solved against m - sigma I,
    sigma just below w[0], and normalised, until its residual
    ||A x - theta x|| is at most INVERSE_TOL * max|w|; a shift that makes
    the solve singular is moved further down.  More vectors take one
    np.linalg.eigh, which reads the lower triangle as _hermitian_spectrum
    does.  EigensolverError is raised when LAPACK fails or after
    INVERSE_MAX_SWEEPS sweeps; an unconverged result is never returned.
    """
    dim = len(w)
    scale = float(np.abs(w).max())
    if scale == 0.0:  # the zero matrix: any orthonormal block is an answer
        return np.eye(dim, count, dtype=np.complex128)
    if count > 1:
        try:
            return fix_phases(np.linalg.eigh(m)[1][:, :count])
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigenvectors of a {dim}-row matrix: {exc}") from exc
    shift = w[0] - INVERSE_SHIFT * scale
    eye = np.eye(dim)
    rng = np.random.default_rng(KRYLOV_SEED)
    x = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
    for _ in range(INVERSE_MAX_SWEEPS):
        for attempt in range(4):
            try:
                x = np.linalg.solve(m - shift * eye, x)
                break
            except np.linalg.LinAlgError:
                shift -= 16 * np.spacing(scale)
        else:
            raise EigensolverError(f"shifted solves of a {dim}-row matrix stay singular")
        x /= np.linalg.norm(x)
        mx = m @ x
        theta = (dagger(x) @ mx).real
        if np.linalg.norm(mx - x * theta) <= INVERSE_TOL * scale:
            return fix_phases(x)
    raise EigensolverError(
        f"no convergence within {INVERSE_MAX_SWEEPS} inverse-iteration sweeps "
        f"of a {dim}-row matrix"
    )


def nearest_isometry(t) -> np.ndarray:
    """Polar projection of a tall (or square) matrix onto the isometries.

    Returns U @ Vh from the thin SVD; for square full-rank input this is the
    closest unitary in Frobenius norm.
    """
    m = as_array(t, 2, "t")
    if m.shape[0] < m.shape[1]:
        raise InvalidShapeError(f"no isometry with shape {m.shape}: more columns than rows")
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style random Hermitian matrix with O(1) entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector drawn from the complex Gaussian measure."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
