"""Bipartite measurement strategies and the correlations they induce.

A strategy is a shared unit vector plus one POVM per question and party.
The canonical strategy of a projection family measures {P_v, I - P_v} and
the transposed family on a maximally entangled state; it reproduces the
closed-form synchronous correlation

    p(1,1|v,w) = x/n               if v = w,
    p(1,1|v,w) = x(x-1)/(n(n-1))   otherwise,

with the remaining outcomes filled in by the fixed marginals x/n.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidLevelError,
    InvalidStrategyError,
    UnsupportedScalarError,
)
from .families import ProjectionFamily, scalar_is_admissible
from .linalg import (
    STATE_TOL,
    as_array,
    dagger,
    is_hermitian,
    maximally_entangled,
    random_state,
    reduced_densities,
    schmidt,
)

POVM_TOL = 1e-8

NOISE_MODELS = ("state-mixing", "povm-jitter", "outcome-noise")


@dataclass(frozen=True)
class Strategy:
    """Shared state with per-question POVMs for both parties.

    ``alice[v, i]`` is the operator for outcome i of question v: ``alice``
    and ``bob`` are (n, k, d, d) complex128 stacks, so every question has
    the same number of outcomes and both parties answer the same question
    set.  The constructor reads any nested sequence of that shape by as_array,
    stores read-only copies of the state and both stacks, validates them once;
    a constructed strategy, and each value it derives once below, stays valid.
    """

    state: np.ndarray
    dim_a: int
    dim_b: int
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        for name, ndim in (("state", 1), ("alice", 4), ("bob", 4)):
            arr = as_array(getattr(self, name), ndim, name, InvalidStrategyError)
            # a C-ordered copy: slices of a transposed input would make
            # every np.kron of them copy its d^2 x d^2 result once more
            arr = np.array(arr, order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.validate()

    @property
    def n_questions(self) -> int:
        return self.alice.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.alice.shape[1]

    @property
    def state_matrix(self) -> np.ndarray:
        """The state as its read-only dim_a x dim_b matrix M (see linalg.vec)."""
        return self.state.reshape(self.dim_a, self.dim_b)

    @cached_property
    def reduced_densities(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rho_A, rho_B) from linalg.reduced_densities, computed once."""
        rho_a, rho_b = reduced_densities(self.state, (self.dim_a, self.dim_b))
        rho_a.flags.writeable = rho_b.flags.writeable = False
        return rho_a, rho_b

    @cached_property
    def correlation(self) -> Correlation:
        """induced_correlation of this strategy, computed once."""
        return induced_correlation(self)

    def validate(self) -> None:
        """Raise InvalidStrategyError on any structural violation.

        The constructor calls this once.  Each check covers a party's whole
        stack at once; the message names the first offending question and
        outcome.
        """
        psi = self.state
        if psi.size != self.dim_a * self.dim_b:
            raise InvalidStrategyError(
                f"state length {psi.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        if abs(np.linalg.norm(psi) - 1.0) > STATE_TOL:
            raise InvalidStrategyError("state vector is not normalized")
        n, k = self.alice.shape[:2]
        if self.bob.shape[0] != n:
            raise InvalidStrategyError("parties disagree on the question count")
        for side, stack, dim in (("alice", self.alice, self.dim_a), ("bob", self.bob, self.dim_b)):
            if stack.shape[1] != k:
                raise InvalidStrategyError(f"{side} question 0: outcome count {stack.shape[1]} != {k}")
            if stack.shape[2:] != (dim, dim):
                raise InvalidStrategyError(
                    f"{side} question 0 outcome 0: shape {stack.shape[2:]}, expected {(dim, dim)}"
                )
            hermitian = is_hermitian(stack, POVM_TOL)
            low = np.linalg.eigvalsh((stack + dagger(stack)) / 2).min(axis=-1)
            sums = np.abs(stack.sum(axis=1) - np.eye(dim)).max(axis=(1, 2)) <= POVM_TOL
            for v in range(n):
                for i in range(k):
                    if not hermitian[v, i]:
                        raise InvalidStrategyError(
                            f"{side} question {v} outcome {i}: not Hermitian at tolerance"
                        )
                    if low[v, i] < -POVM_TOL:
                        raise InvalidStrategyError(
                            f"{side} question {v} outcome {i}: negative eigenvalue {low[v, i]:.3e}"
                        )
                if not sums[v]:
                    raise InvalidStrategyError(
                        f"{side} question {v}: POVM does not sum to identity"
                    )


@dataclass(frozen=True)
class Correlation:
    """Conditional outcome table, table[v, w, i, j] = p(i, j | v, w).

    The constructor stores a read-only float copy of the table, so a
    correlation can be shared (ideal_correlation caches its results).
    """

    n: int
    k: int
    table: np.ndarray

    def __post_init__(self):
        t = np.array(as_array(self.table, 4, "table", InvalidStrategyError, dtype=float))
        if t.shape != (self.n, self.n, self.k, self.k):
            raise InvalidStrategyError(
                f"table shape {t.shape} does not match (n, n, k, k) = "
                f"{(self.n, self.n, self.k, self.k)}"
            )
        t.flags.writeable = False
        object.__setattr__(self, "table", t)


def canonical_strategy(fam: ProjectionFamily) -> Strategy:
    """Projective two-outcome strategy of a family on the maximally entangled state.

    Alice measures {P_v, I - P_v}, Bob the transposes.  The induced
    correlation is synchronous and matches ideal_correlation(n, x).
    ProjectionFamily.canonical_strategy builds it once per family.
    """
    d = fam.d
    p = fam.projections
    alice = np.stack([p, np.eye(d, dtype=np.complex128) - p], axis=1)
    return Strategy(
        state=maximally_entangled(d),
        dim_a=d,
        dim_b=d,
        alice=alice,
        bob=alice.swapaxes(2, 3),
    )


@lru_cache(maxsize=64)
def ideal_correlation(n: int, x: Fraction | float) -> Correlation:
    """Closed-form synchronous two-outcome target correlation for (n, x).

    Exact in Fraction arithmetic before the final float conversion. Raises
    UnsupportedScalarError when x is not an admissible scalar for n.
    Cached: a float and a Fraction of equal value hash alike, so calls with
    the same (n, Fraction(x)) share one read-only result.
    """
    x = Fraction(x)
    if not scalar_is_admissible(n, x):
        raise UnsupportedScalarError(f"x = {x} is not admissible for n = {n}")
    same = Fraction(x, n)

    def block(p11):
        # the 2 x 2 outcome block of a question pair whose p(1,1) is p11
        p12 = same - p11
        return [[float(p11), float(p12)], [float(p12), float(1 - 2 * same + p11)]]

    cross = Fraction(x * (x - 1), n * (n - 1))
    table = np.where(np.eye(n, dtype=bool)[:, :, None, None], block(same), block(cross))
    return Correlation(n=n, k=2, table=table)


def induced_correlation(strategy: Strategy) -> Correlation:
    """Correlation table of a strategy, p = <(E kron F) psi, psi>.

    Computed through the reshaped state: with M the dim_a x dim_b matrix of
    psi, p(i,j|v,w) = sum over entries of (M^* E M) .* F.
    """
    m = strategy.state_matrix
    kernels = m.conj().T @ strategy.alice @ m
    bob = strategy.bob[:, None]
    # row v at a time, peak n k^2 d^2: [w, i, j] -> sum of kernels[v, i] .* bob[w, j]
    table = np.array([np.sum(kv[None, :, None] * bob, axis=(3, 4)).real for kv in kernels])
    return Correlation(n=strategy.n_questions, k=strategy.n_outcomes, table=table)


def chsh_fixture() -> Strategy:
    """The two-qubit CHSH strategy: Z/X for Alice, rotated bases for Bob.

    Outcome 0 collects the +1 eigenspace.  Under uniformly random questions
    the game 'i xor j = v and w' is won with probability (2 + sqrt(2))/4.
    """
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)

    def pvm(obs):
        return ((eye + obs) / 2, (eye - obs) / 2)

    alice = (pvm(z), pvm(x))
    bob = (pvm((z + x) / np.sqrt(2)), pvm((z - x) / np.sqrt(2)))
    return Strategy(
        state=maximally_entangled(2), dim_a=2, dim_b=2, alice=alice, bob=bob
    )


def chsh_win_probability(corr: Correlation) -> float:
    """Winning probability of the xor game under uniform question pairs."""
    if corr.n != 2 or corr.k != 2:
        raise InvalidStrategyError("the xor game needs a 2-question 2-outcome table")
    v, w, i, j = np.indices(corr.table.shape)
    wins = corr.table[(i + j) % 2 == (v * w) % 2]   # in the table's C order
    # a running sum from 0.0 in that order, so the digits do not depend on
    # how a reduction would pair the terms
    return np.cumsum(np.append(0.0, wins))[-1] / 4.0


def correlation_distance(p: Correlation, q: Correlation) -> float:
    """Entrywise 1-norm distance between two tables of equal shape."""
    if p.table.shape != q.table.shape:
        raise InvalidStrategyError(
            f"table shapes differ: {p.table.shape} vs {q.table.shape}"
        )
    return float(np.abs(p.table - q.table).sum())


def synchronicity_defect(p: Correlation) -> float:
    """Largest off-diagonal outcome weight on matching questions.

    Zero iff both parties always agree when asked the same question.
    """
    off_diagonal = ~np.eye(p.k, dtype=bool)
    # np.diagonal moves the question axis last: [i, j, v] = p(i, j | v, v)
    return float(np.abs(np.diagonal(p.table)[off_diagonal]).max(initial=0.0))


def marginals(p: Correlation) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-party marginals and the worst non-signaling deviation.

    Returns (p_a, p_b, residual) where p_a[v, i] averages sum_j p(i,j|v,w)
    over w, and the residual is the largest deviation of any single-w
    (or single-v) marginal from that average.
    """
    row = p.table.sum(axis=3)          # [v, w, i] = sum_j p(i,j|v,w)
    col = p.table.sum(axis=2)          # [v, w, j] = sum_i p(i,j|v,w)
    p_a = row.mean(axis=1)             # [v, i]
    p_b = col.mean(axis=0)             # [w, j]
    res_a = float(np.abs(row - p_a[:, None, :]).max())
    res_b = float(np.abs(col - p_b[None, :, :]).max())
    return p_a, p_b, max(res_a, res_b)


@dataclass(frozen=True)
class SchmidtReduction:
    """Output of schmidt_reduce: the compressed strategy plus dilation data.

    iota_a, iota_b embed the Schmidt supports back into the original spaces;
    v_a, v_b are the isometries exhibiting the original strategy as an exact
    dilation of the compressed one, with the first Schmidt pair as junk.
    """

    strategy: Strategy
    iota_a: np.ndarray
    iota_b: np.ndarray
    v_a: np.ndarray
    v_b: np.ndarray
    junk: np.ndarray


def schmidt_reduce(strategy: Strategy) -> SchmidtReduction:
    """Compress a strategy onto the Schmidt supports of its state.

    The compressed state is diagonal with full Schmidt rank; measurement
    operators are conjugated by the support embeddings.  When the input
    induces a synchronous correlation the compressed strategy induces the
    same one.
    """
    dec = schmidt(strategy.state, (strategy.dim_a, strategy.dim_b))
    r = dec.rank
    iota_a = dec.left                  # (dim_a, r), isometric columns
    iota_b = dec.right
    state = np.zeros(r * r, dtype=np.complex128)
    state[(np.arange(r)) * r + np.arange(r)] = dec.coefficients
    alice = dagger(iota_a) @ strategy.alice @ iota_a
    bob = dagger(iota_b) @ strategy.bob @ iota_b
    reduced = Strategy(state=state, dim_a=r, dim_b=r, alice=alice, bob=bob)

    def dilation_isometry(iota, dim):
        # xi |-> (iota^* xi) kron xi_1 + e_1 kron (I - iota iota^*) xi
        xi1 = iota[:, 0].reshape(-1, 1)
        e1 = np.zeros((r, 1), dtype=np.complex128)
        e1[0, 0] = 1.0
        proj = iota @ iota.conj().T
        return np.kron(iota.conj().T, xi1) + np.kron(e1, np.eye(dim) - proj)

    v_a = dilation_isometry(iota_a, strategy.dim_a)
    v_b = dilation_isometry(iota_b, strategy.dim_b)
    # on the Schmidt supports V maps xi_l to e_l kron xi_1, so the junk
    # state of the exact dilation is the first Schmidt pair
    junk = np.kron(iota_a[:, 0], iota_b[:, 0])
    return SchmidtReduction(
        strategy=reduced, iota_a=iota_a, iota_b=iota_b, v_a=v_a, v_b=v_b, junk=junk
    )


def _renormalize_povm(stack: np.ndarray) -> np.ndarray:
    """Conjugate each question's POVM in an (n, k, d, d) stack by T^(-1/2),
    T its outcome sum, so that it sums to the identity again."""
    total = stack.sum(axis=1)
    w, v = np.linalg.eigh((total + dagger(total)) / 2)
    inv_sqrt = (v * (1.0 / np.sqrt(np.maximum(w, 1e-300)))[:, None, :]) @ dagger(v)
    m = inv_sqrt[:, None] @ stack @ inv_sqrt[:, None]
    return (m + dagger(m)) / 2


def perturb(strategy: Strategy, model: str, level: float, seed: int) -> Strategy:
    """Deterministic noise injection, reproducible from (model, level, seed).

    state-mixing   rotates the state by ``level`` radians toward a seeded
                   random direction orthogonal to it; a 1-dimensional
                   state has none and raises InvalidStrategyError
    povm-jitter    conjugates each question's POVM by exp(i * level * H) for
                   a seeded random Hermitian H, then renormalizes
    outcome-noise  mixes each POVM with the uniform one at weight ``level``

    level = 0 returns the strategy unchanged.
    """
    if model not in NOISE_MODELS:
        raise InvalidLevelError(f"unknown noise model {model!r}; pick from {NOISE_MODELS}")
    if not (0.0 <= level <= 1.0):
        raise InvalidLevelError(f"level must lie in [0, 1], got {level}")
    if level == 0.0:
        return strategy
    rng = np.random.default_rng(seed)

    if model == "state-mixing":
        psi = strategy.state
        if psi.size < 2:
            raise InvalidStrategyError("a 1-dimensional state has no direction orthogonal to it")
        chi = random_state(psi.size, rng)
        chi = chi - (psi.conj() @ chi) * psi
        chi = chi / np.linalg.norm(chi)
        new_state = np.cos(level) * psi + np.sin(level) * chi
        return replace(strategy, state=new_state)

    if model == "povm-jitter":

        def jitter(stack):
            n, _, dim, _ = stack.shape
            # the draws of one linalg.random_hermitian per question, in turn
            g = rng.normal(size=(n, 2, dim, dim))
            g = g[:, 0] + 1j * g[:, 1]
            w, v = np.linalg.eigh((g + dagger(g)) / 2.0)
            u = ((v * np.exp(1j * level * w)[:, None, :]) @ dagger(v))[:, None]
            return _renormalize_povm(u @ stack @ dagger(u))

        # the seeded draws run over Alice's questions, then Bob's
        return replace(strategy, alice=jitter(strategy.alice), bob=jitter(strategy.bob))

    # outcome-noise
    k = strategy.n_outcomes

    def mix(stack, dim):
        return (1.0 - level) * stack + level * (np.eye(dim, dtype=np.complex128) / k)

    return replace(
        strategy, alice=mix(strategy.alice, strategy.dim_a), bob=mix(strategy.bob, strategy.dim_b)
    )
