"""Bipartite measurement strategies and the correlations they induce.

A strategy is a shared unit vector plus one POVM per question and party.
The canonical strategy of a projection family measures {P_v, I - P_v} and
the transposed family on a maximally entangled state; it reproduces the
closed-form synchronous correlation

    p(1,1|v,w) = x/n               if v = w,
    p(1,1|v,w) = x(x-1)/(n(n-1))   otherwise,

with the remaining outcomes filled in by the fixed marginals x/n.  A
correlation is its read-only float64 table p[v, w, i, j] = p(i, j | v, w),
C-ordered, of shape (n, n, k, k).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidLevelError,
    InvalidStrategyError,
    UnsupportedScalarError,
)
from .families import ProjectionFamily, as_fraction, scalar_is_admissible
from .linalg import (
    STATE_TOL,
    as_array,
    dagger,
    is_integer,
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
            # a C-ordered copy, so state_matrix is a read-only view, not a copy
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
    def correlation(self) -> np.ndarray:
        """induced_correlation of this strategy, computed once."""
        return induced_correlation(self)

    def validate(self) -> None:
        """Raise InvalidStrategyError on any structural violation.

        The constructor calls this once.  Each check covers a party's whole
        stack at once; the message names the first offending question and
        outcome.
        """
        for name in ("dim_a", "dim_b"):
            dim = getattr(self, name)
            if not is_integer(dim):
                raise InvalidStrategyError(f"{name} must be an integer, got {dim!r}")
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
            # not is_hermitian: its as_array would re-read a checked stack
            adjoint = dagger(stack)
            hermitian = np.abs(stack - adjoint).max(axis=(2, 3)) <= POVM_TOL
            low = np.linalg.eigvalsh((stack + adjoint) / 2).min(axis=-1)
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


@lru_cache(maxsize=64, typed=True)
def ideal_correlation(n: int, x: Fraction | float) -> np.ndarray:
    """Closed-form synchronous two-outcome target table for (n, x), (n, n, 2, 2).

    Exact in Fraction arithmetic before the final float conversion. Raises
    what scalar_is_admissible raises, and UnsupportedScalarError when x is not
    admissible for n.  Cached by the arguments' values and types, so repeated
    calls share one read-only table, and 4.0 never finds the entry of 4.
    """
    x = as_fraction(x)
    if not scalar_is_admissible(n, x):
        raise UnsupportedScalarError(f"x = {x} is not admissible for n = {n}")
    same = Fraction(x, n)

    def block(p11):
        # the 2 x 2 outcome block of a question pair whose p(1,1) is p11
        p12 = same - p11
        return [[float(p11), float(p12)], [float(p12), float(1 - 2 * same + p11)]]

    cross = Fraction(x * (x - 1), n * (n - 1))
    table = np.where(np.eye(n, dtype=bool)[:, :, None, None], block(same), block(cross))
    table.flags.writeable = False
    return table


def induced_correlation(strategy: Strategy) -> np.ndarray:
    """Correlation table of a strategy, p = <(E kron F) psi, psi>.

    Computed through the reshaped state: with M the dim_a x dim_b matrix of
    psi, p(i,j|v,w) = sum over entries of (M^* E M) .* F.  A stack of
    strategies read like one (selftest's), whose arrays carry a leading
    member axis, gets one table per member.
    """
    m = strategy.state_matrix[..., None, None, :, :]
    kernels = dagger(m) @ strategy.alice @ m
    bob = strategy.bob[..., :, None, :, :, :]
    # row v at a time, peak n k^2 d^2 per member: [w, i, j] -> sum of kernels[v, i] .* bob[w, j]
    rows = [
        np.sum(kernels[..., v, None, :, None, :, :] * bob, axis=(-2, -1)).real
        for v in range(strategy.n_questions)
    ]
    table = np.stack(rows, axis=-4)
    table.flags.writeable = False
    return table


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


def chsh_win_probability(p: np.ndarray) -> float:
    """Winning probability of the xor game under uniform question pairs."""
    if p.shape != (2, 2, 2, 2):
        raise InvalidStrategyError("the xor game needs a 2-question 2-outcome table")
    v, w, i, j = np.indices(p.shape)
    wins = p[(i + j) % 2 == (v * w) % 2]   # in the table's C order
    # a running sum from 0.0 in that order, so the digits do not depend on
    # how a reduction would pair the terms
    return np.cumsum(np.append(0.0, wins))[-1] / 4.0


def correlation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Entrywise 1-norm distance between two tables of equal shape; of each
    table of a stack p, (..., *q.shape), from q, as an array."""
    if p.shape[p.ndim - q.ndim :] != q.shape:
        raise InvalidStrategyError(f"table shapes differ: {p.shape} vs {q.shape}")
    distance = np.abs(p - q).sum(axis=tuple(range(p.ndim - q.ndim, p.ndim)))
    return float(distance) if distance.ndim == 0 else distance


def _check_table(p) -> None:
    """InvalidStrategyError unless p has the (n, n, k, k) shape of a table."""
    shape = np.shape(p)
    if len(shape) != 4 or shape[0] != shape[1] or shape[2] != shape[3] or 0 in shape:
        raise InvalidStrategyError(f"a correlation table has shape (n, n, k, k), got {shape}")


def synchronicity_defect(p: np.ndarray) -> float:
    """Largest off-diagonal outcome weight on matching questions.

    Zero iff both parties always agree when asked the same question.  A
    table that is not (n, n, k, k) raises InvalidStrategyError.
    """
    _check_table(p)
    off_diagonal = ~np.eye(p.shape[-1], dtype=bool)
    # np.diagonal moves the question axis last: [i, j, v] = p(i, j | v, v)
    return float(np.abs(np.diagonal(p)[off_diagonal]).max(initial=0.0))


def marginals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-party marginals and the worst non-signaling deviation.

    Returns (p_a, p_b, residual) where p_a[v, i] averages sum_j p(i,j|v,w)
    over w, and the residual is the largest deviation of any single-w
    (or single-v) marginal from that average.  A table that is not
    (n, n, k, k) raises InvalidStrategyError.
    """
    _check_table(p)
    row = p.sum(axis=3)                # [v, w, i] = sum_j p(i,j|v,w)
    col = p.sum(axis=2)                # [v, w, j] = sum_i p(i,j|v,w)
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


def check_noise(model: str, level: float, seed: int) -> float:
    """The level of a noise model as a float.  InvalidLevelError for a model
    not in NOISE_MODELS, a level that is not a real number in [0, 1] or a seed
    that is not an integer >= 0 (a bool is neither)."""
    if model not in NOISE_MODELS:
        raise InvalidLevelError(f"unknown noise model {model!r}; pick from {NOISE_MODELS}")
    if isinstance(level, bool) or not isinstance(level, numbers.Real) or not 0 <= level <= 1:
        raise InvalidLevelError(f"level must be a real number in [0, 1], got {level!r}")
    if not is_integer(seed) or seed < 0:
        raise InvalidLevelError(f"seed must be nonnegative and integral, got {seed!r}")
    return float(level)


def perturb(strategy: Strategy, model: str, level: float, seed: int) -> Strategy:
    """Deterministic noise injection, reproducible from (model, level, seed).

    state-mixing   rotates the state by ``level`` radians toward a seeded
                   random direction orthogonal to it; a 1-dimensional
                   state has none and raises InvalidStrategyError
    povm-jitter    conjugates each question's POVM by exp(i * level * H) for
                   a seeded random Hermitian H; a unitary conjugation keeps
                   the POVM's sum, so it sums to I as closely as its input
    outcome-noise  mixes each POVM with the uniform one at weight ``level``;
                   it draws nothing, so its output depends on the level alone

    level = 0 returns the strategy unchanged.  The arguments are checked by
    check_noise, whatever the model.
    """
    level = check_noise(model, level, seed)
    if level == 0.0:
        return strategy

    if model == "state-mixing":
        rng = np.random.default_rng(seed)
        psi = strategy.state
        if psi.size < 2:
            raise InvalidStrategyError("a 1-dimensional state has no direction orthogonal to it")
        chi = random_state(psi.size, rng)
        chi = chi - (psi.conj() @ chi) * psi
        chi = chi / np.linalg.norm(chi)
        new_state = np.cos(level) * psi + np.sin(level) * chi
        return replace(strategy, state=new_state)

    if model == "povm-jitter":
        rng = np.random.default_rng(seed)

        def jitter(stack):
            n, _, dim, _ = stack.shape
            # per question, in turn, one complex Gaussian g made Hermitian
            g = rng.normal(size=(n, 2, dim, dim))
            g = g[:, 0] + 1j * g[:, 1]
            w, v = np.linalg.eigh((g + dagger(g)) / 2.0)
            u = ((v * np.exp(1j * level * w)[:, None, :]) @ dagger(v))[:, None]
            return u @ stack @ dagger(u)

        # the seeded draws run over Alice's questions, then Bob's
        return replace(strategy, alice=jitter(strategy.alice), bob=jitter(strategy.bob))

    # outcome-noise
    k = strategy.n_outcomes

    def mix(stack, dim):
        return (1.0 - level) * stack + level * (np.eye(dim, dtype=np.complex128) / k)

    return replace(
        strategy, alice=mix(strategy.alice, strategy.dim_a), bob=mix(strategy.bob, strategy.dim_b)
    )
