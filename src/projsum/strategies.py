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

A StrategyStack holds strategies of one shape with a leading member axis on
each array, and is read as a Strategy is read.  perturb builds one from
sequences of levels and seeds, and validates it once; selftest certifies
every strategy as a stack, with one numpy call per stage.  A Strategy's
stack is its stack of one (Strategy.stack), and its correlation and reduced
densities are member 0 of that stack's, so each is derived in one place.
The noise models and the checks of Strategy.validate are written once, for
a stack: one strategy is perturbed as a stack of one, and validated without
the member axis.
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
from .families import ProjectionFamily, _check_family, as_fraction, scalar_is_admissible
from .linalg import (
    STATE_TOL,
    _frobenius,
    _reduced_densities,
    _refuse,
    as_array,
    dagger,
    is_integer,
    maximally_entangled,
    random_state,
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
    stores read-only copies of the state and both stacks, validates them once
    and stores each dimension, a numpy integer too, as an int; a constructed
    strategy, and each value it derives once below, stays valid.
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
        object.__setattr__(self, "dim_a", int(self.dim_a))
        object.__setattr__(self, "dim_b", int(self.dim_b))

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
    def stack(self) -> StrategyStack:
        """This strategy as a StrategyStack of one member, whose arrays are
        read-only views of its own; built once."""
        state, alice, bob = (a[None] for a in (self.state, self.alice, self.bob))
        return StrategyStack(state, self.dim_a, self.dim_b, alice, bob)

    @cached_property
    def reduced_densities(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rho_A, rho_B): member 0 of the stack's."""
        rho_a, rho_b = self.stack.reduced_densities
        return rho_a[0], rho_b[0]

    @cached_property
    def correlation(self) -> np.ndarray:
        """induced_correlation of this strategy: member 0 of the stack's."""
        return self.stack.correlation[0]

    def validate(self) -> None:
        """Raise InvalidStrategyError on any structural violation.

        The constructor calls this once.  The checks run in this order, each
        covering a party's whole stack (and, for a StrategyStack, every
        member) at once: integer dimensions, the state's length and its norm
        (within STATE_TOL of 1), both parties' question counts, then per party
        its outcome count, its operators' shape and its POVMs, each operator
        Hermitian and with no eigenvalue below -POVM_TOL, and each question's
        outcomes summing to I, all within POVM_TOL.  The norm and the POVMs are
        boolean tables that linalg._refuse reads: the message names the first
        offending question and outcome, a stack's first the failing member.
        """
        for name in ("dim_a", "dim_b"):
            dim = getattr(self, name)
            if not is_integer(dim):
                raise InvalidStrategyError(f"{name} must be an integer, got {dim!r}")
        psi = self.state
        if psi.shape[-1] != self.dim_a * self.dim_b:
            raise InvalidStrategyError(
                f"state length {psi.shape[-1]} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        lead = psi.ndim - 1  # a stack's member axis, which its messages name first

        def refuse(bad, message):  # _refuse, with message(index) of the first failure
            _refuse(bad, lambda at: InvalidStrategyError(
                "".join(f"member {m}: " for m in at[:lead]) + message(at)))

        # one BLAS dot per member, as np.linalg.norm of one state
        unnormalized = np.abs(_frobenius(psi[..., None, :]) - 1.0) > STATE_TOL
        refuse(unnormalized, lambda at: "state vector is not normalized")
        n, k = self.alice.shape[-4:-2]
        if self.bob.shape[-4] != n:
            raise InvalidStrategyError("parties disagree on the question count")
        for side, dim in (("alice", self.dim_a), ("bob", self.dim_b)):
            stack = getattr(self, side)
            if stack.shape[-3] != k:
                raise InvalidStrategyError(
                    f"{side} question 0: outcome count {stack.shape[-3]} != {k}"
                )
            if stack.shape[-2:] != (dim, dim):
                raise InvalidStrategyError(
                    f"{side} question 0 outcome 0: shape {stack.shape[-2:]}, expected {(dim, dim)}"
                )
            # not is_hermitian: its as_array would re-read a checked stack
            adjoint = dagger(stack)
            low = np.linalg.eigvalsh((stack + adjoint) / 2).min(axis=-1)
            # [..., question, slot, check]: outcome i < k not Hermitian (check 0)
            # or with an eigenvalue below -POVM_TOL (check 1); slot k, check 0,
            # the question's sum, so argwhere reads a question's outcomes first
            bad = np.zeros(low.shape[:-1] + (k + 1, 2), dtype=bool)
            bad[..., :k, 0] = ~(np.abs(stack - adjoint).max(axis=(-2, -1)) <= POVM_TOL)
            bad[..., :k, 1] = low < -POVM_TOL
            sums = np.abs(stack.sum(axis=-3) - np.eye(dim)).max(axis=(-2, -1))
            bad[..., k, 0] = ~(sums <= POVM_TOL)

            def message(at):
                v, i, check = at[lead:]
                if i == k:
                    return f"{side} question {v}: POVM does not sum to identity"
                fault = ("not Hermitian at tolerance", f"negative eigenvalue {low[at[:-1]]:.3e}")
                return f"{side} question {v} outcome {i}: {fault[check]}"

            refuse(bad, message)


@dataclass(frozen=True)
class StrategyStack:
    """Strategies of one shape as one stack, read as a Strategy is read.

    ``state`` is (members, dim_a dim_b) and ``alice`` and ``bob`` are
    (members, n, k, d, d): a Strategy's arrays with a leading member axis.
    The derived values are those of a Strategy, one per member, each
    computed once for the whole stack; its ``stack`` is itself.  The arrays
    are taken as they are: perturb validates each stack it builds before it
    returns it.
    """

    state: np.ndarray
    dim_a: int
    dim_b: int
    alice: np.ndarray
    bob: np.ndarray

    def __len__(self) -> int:
        return len(self.state)

    def __getitem__(self, members: slice) -> StrategyStack:
        """The members a slice selects, as a stack of their own."""
        if not isinstance(members, slice):
            raise InvalidStrategyError(f"a stack takes a slice, got {type(members).__name__}")
        state, alice, bob = (a[members] for a in (self.state, self.alice, self.bob))
        return StrategyStack(state, self.dim_a, self.dim_b, alice, bob)

    n_questions = property(lambda self: self.alice.shape[-4])
    n_outcomes = property(lambda self: self.alice.shape[-3])
    state_matrix = property(lambda self: self.state.reshape(len(self), self.dim_a, self.dim_b))
    stack = property(lambda self: self)

    @cached_property
    def reduced_densities(self) -> tuple[np.ndarray, np.ndarray]:
        rhos = _reduced_densities(self.state_matrix)
        for rho in rhos:
            rho.flags.writeable = False
        return rhos

    @cached_property
    def correlation(self) -> np.ndarray:
        return induced_correlation(self)

    # Strategy.validate's checks, on every member; a message names the member
    validate = Strategy.validate



def canonical_strategy(fam: ProjectionFamily) -> Strategy:
    """Projective two-outcome strategy of a family on the maximally entangled state.

    Alice measures {P_v, I - P_v}, Bob the transposes.  The induced
    correlation is synchronous and matches ideal_correlation(n, x).
    ProjectionFamily.canonical_strategy builds it once per family.  Anything
    but a ProjectionFamily raises InvalidFamilyError.
    """
    _check_family(fam)
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
    p = _check_table(p)
    if p.shape != (2, 2, 2, 2):
        raise InvalidStrategyError("the xor game needs a 2-question 2-outcome table")
    v, w, i, j = np.indices(p.shape)
    wins = p[(i + j) % 2 == (v * w) % 2]   # in the table's C order
    # a running sum from 0.0 in that order, so the digits do not depend on
    # how a reduction would pair the terms
    return np.cumsum(np.append(0.0, wins))[-1] / 4.0


def correlation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Entrywise 1-norm distance between two tables of equal shape; of each
    table of a stack p, (..., *q.shape), from q, as an array.  Both are read
    by _check_table."""
    p, q = _check_table(p, stacked=True), _check_table(q)
    if p.shape[p.ndim - q.ndim :] != q.shape:
        raise InvalidStrategyError(f"table shapes differ: {p.shape} vs {q.shape}")
    distance = np.abs(p - q).sum(axis=tuple(range(p.ndim - q.ndim, p.ndim)))
    return float(distance) if distance.ndim == 0 else distance


def _check_table(p, stacked: bool = False) -> np.ndarray:
    """The one reader of a table: p by as_array, as finite float64, with
    InvalidStrategyError unless it has the (n, n, k, k) shape of a table (with
    any leading axes, when stacked)."""
    try:
        shape = np.shape(p)
    except ValueError:  # ragged entries, which as_array refuses by name
        shape = as_array(p, None, "table", InvalidStrategyError).shape
    square = len(shape) >= 4 and shape[-4] == shape[-3] and shape[-2] == shape[-1]
    if not square or len(shape) > 4 and not stacked or 0 in shape:
        raise InvalidStrategyError(f"a correlation table has shape (n, n, k, k), got {shape}")
    return as_array(p, None, "table", InvalidStrategyError, dtype=float)


def synchronicity_defect(p: np.ndarray) -> float:
    """Largest off-diagonal outcome weight on matching questions.

    Zero iff both parties always agree when asked the same question.  A
    table that is not (n, n, k, k) raises InvalidStrategyError.
    """
    p = _check_table(p)
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
    p = _check_table(p)
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


def perturb(strategy: Strategy, model: str, level, seed):
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
    check_noise, whatever the model.  With equal-length, non-empty sequences
    (lists, tuples or 1-dimensional arrays) of levels and seeds it returns a
    StrategyStack, member i of which is the strategy perturb(strategy, model,
    level[i], seed[i]) returns, bit for bit; the stack is validated once.
    Sequences of other lengths raise InvalidLevelError, and anything but a
    Strategy, a StrategyStack among them, InvalidStrategyError.
    """
    if not isinstance(strategy, Strategy):
        raise InvalidStrategyError(f"perturb takes a Strategy, got {type(strategy).__name__}")
    if not (_is_sequence(level) and _is_sequence(seed)):
        level = check_noise(model, level, seed)
        if level == 0.0:
            return strategy
        # a stack of one member, whose arrays the strategy takes without the member axis
        state, alice, bob = _perturbed(strategy, model, np.array([level]), [seed])
        return replace(strategy, state=state[0], alice=alice[0], bob=bob[0])
    if len(level) != len(seed) or len(level) == 0:
        raise InvalidLevelError(
            f"levels and seeds must be non-empty sequences of one length, got "
            f"{len(level)} and {len(seed)}"
        )
    levels = np.array([check_noise(model, lv, sd) for lv, sd in zip(level, seed)])
    state, alice, bob = _perturbed(strategy, model, levels, seed)
    stack = StrategyStack(state, strategy.dim_a, strategy.dim_b, alice, bob)
    stack.validate()
    return stack


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1


def _perturbed(strategy: Strategy, model: str, levels: np.ndarray, seeds) -> list[np.ndarray]:
    """The state and both stacks of ``strategy`` perturbed at each of the
    checked ``levels`` with its seed, with a leading member axis.  A member
    at level 0 keeps the strategy's arrays; the others are perturbed
    together, with one seeded draw each, and each reduction over a member's
    entries is a BLAS dot of its own, so a member gets the bits it gets
    alone."""
    arrays = [
        np.array(np.broadcast_to(a, levels.shape + a.shape))
        for a in (strategy.state, strategy.alice, strategy.bob)
    ]
    moving = np.flatnonzero(levels)
    if not moving.size:
        return arrays
    level = levels[moving]
    parties = ((1, strategy.alice), (2, strategy.bob))  # each party's index in arrays

    if model == "state-mixing":
        psi = strategy.state
        if psi.size < 2:
            raise InvalidStrategyError("a 1-dimensional state has no direction orthogonal to it")
        chi = np.stack([random_state(psi.size, np.random.default_rng(seeds[t])) for t in moving])
        chi = chi - np.array([psi.conj() @ c for c in chi])[:, None] * psi
        chi = chi / _frobenius(chi[:, None, :])[:, None]
        arrays[0][moving] = np.cos(level)[:, None] * psi + np.sin(level)[:, None] * chi
    elif model == "povm-jitter":
        # per member, in turn, one complex Gaussian per question made
        # Hermitian: Alice's questions, then Bob's
        draws = ([], [])
        for t in moving:
            rng = np.random.default_rng(seeds[t])
            for drawn, (_, stack) in zip(draws, parties):
                n, _, dim, _ = stack.shape
                drawn.append(rng.normal(size=(n, 2, dim, dim)))
        for (index, stack), drawn in zip(parties, draws):
            g = np.stack(drawn)
            g = g[:, :, 0] + 1j * g[:, :, 1]
            w, v = np.linalg.eigh((g + dagger(g)) / 2.0)
            phases = np.exp(1j * level[:, None, None] * w)
            u = ((v * phases[..., None, :]) @ dagger(v))[:, :, None]
            arrays[index][moving] = u @ stack @ dagger(u)
    else:  # outcome-noise
        weight = level[:, None, None, None, None]
        for index, stack in parties:
            uniform = np.eye(stack.shape[-1], dtype=np.complex128) / strategy.n_outcomes
            arrays[index][moving] = (1.0 - weight) * stack + weight * uniform
    return arrays
