"""Dense complex linear algebra and bipartite-state primitives.

Conventions used across the package:

* arrays are read and returned as complex128; exactness statements become
  tolerance checks.  An eigenproblem is solved in the arithmetic of its
  data: a caller whose arrays have an exactly zero imaginary part, which
  ``real_if_exact`` reads, hands ``krylov_eigh``, ``_hermitian_spectrum``
  and ``_lowest_eigvec`` their float64 real parts, and gets complex128
  eigenvectors back either way
* bipartite basis order is row-major, index = a * dim_b + b, which makes
  ``vec`` and ``np.kron`` mutually consistent:  vec(X D Y^T) = (X kron Y) vec(D)
* eigen- and singular vectors are sorted by descending value and phase-fixed
  (largest-magnitude component made real positive) so repeated runs produce
  identical output
* operators too large to form densely are applied matrix-free and
  diagonalized by ``krylov_eigh``, thick-restart block Lanczos whose basis
  holds KRYLOV_BASIS_BLOCKS (50) blocks, so its memory is O(basis * dim)
  and its Rayleigh-Ritz problems have at most 100 rows for a block of 2; its
  rank test on each block is a QR and an SVD of the block's small factor
  (``_wide_svd``), its convergence checks estimate the Ritz residuals from
  the last block's coupling and apply the operator to Ritz vectors only to
  accept them, returning the residuals so measured, and a caller may hold
  its last ("guard") pairs to a looser tolerance; each operator it is given
  is a ``sandwich_operator``, X -> sum_v L_v X R_v on row-major vec(X); of a
  dense matrix that selftest.fit_isometry builds, ``_hermitian_spectrum``
  computes only the eigenvalues and ``_lowest_eigvec`` the lowest eigenvector
* the private kernels take stacks (..., m, n) as well as matrices, with one
  numpy call per step for the whole stack, and give each member the bits it
  gets alone; ``_frobenius`` is np.linalg.norm of each member so.  A member
  that fails fails alone: ``_refuse`` raises its error for a single input
  and records it in the caller's ``failures`` for a stack
* array arguments are read by ``as_array``: ragged entries, strings,
  booleans, the wrong rank, an empty axis and a non-finite entry are refused
  with a ProjsumError naming the argument (and the entry), never cast; an
  integer argument passes ``is_integer`` or is refused with the class its
  reader documents
"""
from __future__ import annotations

import numbers
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
# entries of the Krylov basis plus its projected matrix, of either dtype:
# 268 MB complex or 134 MB real, as much as a dense 4096 x 4096 operator
KRYLOV_BUDGET = 4096**2
KRYLOV_SEED = 2021
# _lowest_eigvec shifts this fraction of max|eigenvalue| below the wanted
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
    ``dtype`` is real, the wrong rank or an empty axis, and a boolean or a
    non-finite entry, each named by its index as serialize.numbers names one.
    """
    try:
        arr = np.asarray(a)
    except (TypeError, ValueError) as exc:  # ragged
        raise error(f"{where}: entries do not form {_layout(ndim)}") from exc
    kind = arr.dtype.kind
    if kind not in "iufc":
        raise error(f"{where}: entries must be numbers, got {arr.dtype}")
    if not isinstance(a, np.ndarray):  # a boolean among numbers is cast, so read the entries
        entries = np.array(a, dtype=object)
        bools = [p for p, t in enumerate(entries.flat) if isinstance(t, (bool, np.bool_))]
        if bools:
            index = "".join(f"[{i}]" for i in np.unravel_index(bools[0], entries.shape))
            raise error(f"{where}{index}: boolean entry")
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


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for anything else, a bool and
    a float of integral value among them: range() reads True as 1 and refuses
    2.0 with a bare TypeError."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _layout(ndim: int | None) -> str:
    return {None: "an array", 1: "a vector", 2: "a matrix"}.get(ndim, f"a rank-{ndim} array")


def dagger(a) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack of shape (..., m, m)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def real_if_exact(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays' real parts, C-ordered, when every imaginary part is exactly
    zero; else the arrays as given.  Read, not assumed: one non-zero
    imaginary entry anywhere keeps them all complex."""
    if any(np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return arrays
    return tuple(np.ascontiguousarray(a.real) for a in arrays)


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
    """Unit vector (1/sqrt(d)) * sum_i e_i kron e_i in C^d tensor C^d;
    InvalidDimensionError unless d is an integer >= 1."""
    if not is_integer(d):
        raise InvalidDimensionError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise InvalidDimensionError(f"dimension must be positive, got {d}")
    return vec(np.eye(d, dtype=np.complex128)) / np.sqrt(d)


def fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties go to the earliest index; zero columns keep their values.  A stack
    (..., rows, columns) is fixed matrix by matrix.  This is the package-wide
    determinism convention for eigen/singular vectors.
    """
    out = np.array(v, dtype=np.complex128, copy=True)
    cols = out if out.ndim > 1 else out[:, None]
    cols *= _phase_factors(cols)[..., None, :]
    return out


def _phase_factors(cols: np.ndarray) -> np.ndarray:
    """conj(t) / |t|, t the first largest-magnitude entry of each column (1 for
    a zero column), of each matrix of a stack (..., rows, columns).  |t| is
    np.hypot, as abs() of one entry is."""
    first = np.abs(cols).argmax(axis=-2)[..., None, :]
    top = np.take_along_axis(cols, first, axis=-2)[..., 0, :]
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


def reduced_densities(psi, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Both reduced density matrices of a bipartite vector, without forming psi psi^*."""
    return _reduced_densities(unvec(psi, dims))


def _reduced_densities(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reduced_densities of each state matrix M of a stack (..., dim_a, dim_b)
    already read: M M^* and M^T conj(M)."""
    return m @ dagger(m), m.swapaxes(-1, -2) @ m.conj()


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
    """seminorm of arrays already read and checked; rm may carry leading axes
    that broadcast against xm's."""
    val = np.trace(dagger(xm) @ xm @ rm, axis1=-2, axis2=-1).real
    root = np.sqrt(np.maximum(val, 0.0))
    return root if xm.ndim > 2 else float(root)


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
    apply, dim: int, count: int, guard: int = 0, dtype=np.complex128
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
    instead of assumed simple.  ``dtype`` is the arithmetic of ``apply``:
    the basis, the projected matrix and the start block are complex128, or
    float64 for an operator with real entries, whose start block is the
    real half of the complex one; the eigenvectors come back complex128
    either way.

    At each Rayleigh-Ritz check the residuals are first estimated for free:
    A x - theta x = y_last^T R for the Ritz vector x = y^T basis, where R
    is what the last block's images add to the basis and y_last the last
    block's rows of y (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2011, section 6.3), and ||y_last^T R|| comes from R's thin
    SVD, which the step's rank test computes anyway as a QR of R^T and an
    SVD of the b x b factor (_wide_svd).  Only when every estimate passes
    are the Ritz vectors formed and the operator applied to them; that
    measured residual is the acceptance test and the third value returned.
    Checks come at geometrically spaced basis sizes, but one that would
    land within a spacing of the cap is left to the restart, which checks.

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
    basis = np.empty((cap, dim), dtype=dtype)  # orthonormal rows
    proj = np.empty((cap, cap), dtype=dtype)  # basis^* A basis
    new = np.linalg.qr(_start(dim, count, dtype))[0].T

    def next_check(m):
        # Rayleigh-Ritz costs m^3: check at geometrically spaced sizes, but
        # not within one spacing of the cap, where the restart checks anyway
        spacing = max(count, m // 4)
        return m + spacing if m + 2 * spacing <= cap else cap

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
        u, sv, vh = _wide_svd(image - coeff @ q)
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
            check_at = next_check(m)
        # a second projection restores the orthogonality lost to cancellation
        fresh -= (fresh.conj() @ q.T).conj() @ q
        if full:
            # thick restart: the top Ritz vectors span part of the old basis,
            # so the fresh block is orthogonal to them too
            basis[:keep] = y[:, :keep].T @ q
            proj[:keep, :keep] = np.diag(theta[:keep])
            m = keep
            check_at = next_check(m)
        new = np.linalg.qr(fresh.T)[0].T


def _start(dim: int, count: int, dtype) -> np.ndarray:
    """The seeded random start block of the eigensolvers, (dim, count), drawn
    real part first, so a real block is the real half of the complex one."""
    rng = np.random.default_rng(KRYLOV_SEED)
    start = rng.normal(size=(dim, count))
    if np.dtype(dtype).kind == "c":
        start = start + 1j * rng.normal(size=(dim, count))
    return start


def _wide_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thin SVD u, sv, vh of a wide b x dim block, as np.linalg.svd
    returns it, from a QR of a^T and the SVD of its b x b factor (Chan, ACM
    TOMS 8, 1982): a = R^T Q^T = u diag(sv) w^* Q^T, so vh = w^* Q^T.  QR is
    backward stable, so sv carries the thin SVD's absolute error, about
    eps * ||a||, not the eps * ||a||^2 of the b x b Gram matrix's eigenvalues."""
    qq, rr = np.linalg.qr(a.T)
    u, sv, wh = np.linalg.svd(rr.T)
    return u, sv, wh @ qq.T


def sandwich_operator(left: np.ndarray, right: np.ndarray):
    """X -> sum_v L_v X R_v on row-major vec(X), as krylov_eigh applies it to
    a (k, a b) stack of rows; ``left`` and ``right`` are the (m, a, a) and
    (m, b, b) stacks of the L_v and R_v.  Two matmuls: the stacked
    [L_1; ..; L_m] times X, regrouped as [L_1 X .. L_m X], times the stacked
    [R_1; ..; R_m]."""
    a, b = left.shape[-1], right.shape[-1]
    left, right = left.reshape(-1, a), right.reshape(-1, b)

    def apply(rows):
        k = len(rows)
        lx = (left @ rows.reshape(k, a, b)).reshape(k, -1, a, b).swapaxes(1, 2)
        return (lx.reshape(k * a, -1) @ right).reshape(rows.shape)

    return apply


def _frobenius(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a stack (..., rows, columns), bit for
    bit: its entries' squares summed by one BLAS dot per matrix (of the real
    parts, plus one of the imaginary parts), as np.linalg.norm sums a whole
    array, so a matrix gets the same bits alone and in any stack.
    np.linalg.norm(..., axis=(-2, -1)) is a pairwise sum instead."""
    flat = a.reshape(*a.shape[:-2], 1, -1)
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(p @ p.swapaxes(-1, -2) for p in parts)[..., 0, 0])


def _refuse(failures, bad, error) -> None:
    """The members of a stack whose entry of the boolean array ``bad`` is true
    fail with ``error(i)``, i the member's index (() for an input that is not
    a stack).  With ``failures`` None the first one is raised; else each is
    recorded in its slot of ``failures``, an object array of one slot per
    member, unless the slot holds that member's earlier failure."""
    if not bad.any():  # the common case, at a tenth of argwhere's cost
        return
    for i in map(tuple, np.argwhere(bad)):
        if failures is None:
            raise error(i)
        if failures[i] is None:
            failures[i] = error(i)


def _hermitian_spectrum(m: np.ndarray, failures=None) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix the caller built, ascending, from its
    lower triangle as np.linalg.eigvalsh reads it, in the matrix's arithmetic
    (real symmetric for a float64 one); of each matrix of a stack (..., dim,
    dim), in one call.  A matrix whose LAPACK solve fails, or which has an
    eigenvalue that is not finite, fails with EigensolverError by _refuse; a
    failed member of a stack gets a spectrum of zeros."""
    dim = m.shape[-1]
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        if m.ndim == 2:
            raise EigensolverError(f"eigenvalues of a {dim}-row matrix: {exc}") from exc
        # find the members that fail, one at a time
        w, errors = np.zeros(m.shape[:-1]), np.full(len(m), None, dtype=object)
        for i, member in enumerate(m):
            try:
                w[i] = _hermitian_spectrum(member)
            except EigensolverError as error:
                errors[i] = error
        _refuse(failures, np.not_equal(errors, None), errors.__getitem__)
        return w
    bad = ~np.isfinite(w).all(axis=-1)
    message = f"a {dim}-row matrix has a non-finite eigenvalue"
    _refuse(failures, bad, lambda i: EigensolverError(message))
    w[bad] = 0.0
    return w


def _lowest_eigvec(m: np.ndarray, w: np.ndarray, failures=None) -> np.ndarray:
    """Phase-fixed complex128 eigenvector (one column) of the lowest eigenvalue
    of a Hermitian matrix ``m`` the caller built, complex or real symmetric,
    whose whole ascending spectrum ``w`` _hermitian_spectrum returned, so the
    caller judges it first; of each matrix of a stack (..., dim, dim), one
    solve per sweep for the whole stack.  Shifted inverse iteration (Ipsen,
    SIAM Review 39, 1997): a seeded random vector, real for a real ``m``, is
    solved in ``m``'s arithmetic against m - sigma I, sigma just below w[0]
    (_shifted_solve), and normalised, until ||A x - theta x|| <= INVERSE_TOL
    * max|w|.  Each member stops at its own convergence, so it gets the bits
    it gets alone.  It fails with EigensolverError, by _refuse, when its
    solve stays singular or after INVERSE_MAX_SWEEPS sweeps: an unconverged
    result is never returned.  A member whose slot of ``failures`` already
    holds a failure is not iterated."""
    dim = w.shape[-1]
    scale = np.abs(w).max(axis=-1)
    # the zero matrix: any unit vector is an answer
    x = np.where((scale == 0.0)[..., None, None], np.eye(dim, 1), _start(dim, 1, m.dtype))
    active = scale > 0.0
    if failures is not None:
        active = active & np.equal(failures, None)
    shift = w[..., 0] - INVERSE_SHIFT * scale
    for _ in range(INVERSE_MAX_SWEEPS):
        if not active.any():
            break
        y, shift, singular = _shifted_solve(m, shift, x, scale, active)
        message = f"shifted solves of a {dim}-row matrix stay singular"
        _refuse(failures, singular, lambda i: EigensolverError(message))
        active = active & ~singular
        y = y / _frobenius(y)[..., None, None]
        my = m @ y
        theta = (dagger(y) @ my).real
        converged = _frobenius(my - y * theta) <= INVERSE_TOL * scale
        x = np.where(active[..., None, None], y, x)
        active = active & ~converged
    message = (
        f"no convergence within {INVERSE_MAX_SWEEPS} inverse-iteration sweeps "
        f"of a {dim}-row matrix"
    )
    _refuse(failures, active, lambda i: EigensolverError(message))
    return fix_phases(x)


def _shifted_solve(m, shift, x, scale, active):
    """x solved against m - shift I for each active member of a stack, in one
    call (the others keep x), with the right-hand sides as (..., dim, 1).
    When that solve is singular the members are solved one at a time, and a
    member whose solve is singular moves its shift 16 units in the last place
    of its ``scale`` further down, up to four tries.  Returns the solutions,
    the shifts, and which members stayed singular."""
    eye = np.eye(m.shape[-1])
    if m.ndim > 2:
        try:
            a = m - shift[..., None, None] * eye
            a[~active] = eye  # in place: a is as large as m
            return np.linalg.solve(a, x), shift, np.zeros(active.shape, dtype=bool)
        except np.linalg.LinAlgError:
            members = [_shifted_solve(*member) for member in zip(m, shift, x, scale, active)]
            return tuple(map(np.array, zip(*members)))
    if active:
        for _ in range(4):
            try:
                return np.linalg.solve(m - shift * eye, x), shift, np.False_
            except np.linalg.LinAlgError:
                shift = shift - 16 * np.spacing(scale)
    return x, shift, np.bool_(active)


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


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector drawn from the complex Gaussian measure."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
