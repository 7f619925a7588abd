"""Noise-robustness sweeps: perturb a canonical strategy, audit the bounds.

Each trial perturbs the canonical strategy of a family at a given noise
level with its own derived seed, collects the residual diagnostics, runs
the dilation extraction, and checks every theoretical budget along the way.
Rows are fully determined by the configuration, and the output is ordered
by (level, trial).  Each trial draws its noise independently of the others,
but a draw can repeat the strategy of the trial before it bit for bit (every
trial at level 0, every trial of a level of ``outcome-noise``, which reads
the level alone); such a trial reuses that trial's row, with its own level,
trial index and seed, instead of certifying the same strategy again.

Every trial is perturbed first; the distinct strategies are then audited
and certified as stacks (see selftest): a stack holds as many trials as keep
its largest array within selftest.STACK_ENTRIES entries, 113 at d = 3 and
one from d = 16 on, so a sweep makes one numpy call per stack where it made
one per trial.  A row does not depend on the stack its trial ran in.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    SerializationError,
    UnsupportedQuestionCountError,
)
from .families import ProjectionFamily, ladder_family
from .linalg import is_integer
from .selftest import approx_rep_residuals, check_word_pairs, extract_dilation
from .serialize import from_fields
from .strategies import check_noise, perturb

CSV_HEADER = (
    "level,trial,delta,epsilon,alpha,rep_residual_A,rep_residual_B,"
    "tracial_residual,sync_max,lemma35_pass,lemma63_pass"
)
# rows of one sweep: 100,000 SweepRows hold about 56 MB
SWEEP_MAX_ROWS = 100_000


@dataclass(frozen=True)
class SweepConfig:
    """Plan for one sweep: family, noise model, levels, trial count.

    An integer field that is not an integer (a bool is not one) raises
    SerializationError, and a numpy integer is stored as an int.  The levels
    are a non-empty ascending sequence (SerializationError otherwise), each
    checked with the noise model and the seed by strategies.check_noise and
    stored as a float.  A plan of more than SWEEP_MAX_ROWS rows (levels x
    trials) raises BudgetExceededError at construction, before any trial
    runs, as does selftest.check_word_pairs for its monomial degree.
    """

    n: int
    k: int
    noise_model: str
    levels: tuple[float, ...]
    trials_per_level: int
    seed: int
    monomial_degree: int = 2

    def __post_init__(self):
        for name in ("n", "k", "trials_per_level", "seed", "monomial_degree"):
            value = getattr(self, name)
            if not is_integer(value):
                raise SerializationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        try:
            levels = tuple(self.levels)
        except TypeError as exc:
            raise SerializationError(f"levels must be a sequence, got {self.levels!r}") from exc
        if not levels:
            raise SerializationError("levels must be non-empty")
        levels = tuple(check_noise(self.noise_model, level, self.seed) for level in levels)
        if list(levels) != sorted(levels):
            raise SerializationError("levels must be sorted ascending")
        if self.trials_per_level < 1:
            raise SerializationError("trials_per_level must be positive")
        rows = len(levels) * self.trials_per_level
        if rows > SWEEP_MAX_ROWS:
            raise BudgetExceededError(
                f"{len(levels)} levels x {self.trials_per_level} trials make {rows} rows, "
                f"over the {SWEEP_MAX_ROWS}-row sweep budget"
            )
        if self.n < 3:  # as ladder_family would, before counting words in n letters
            raise UnsupportedQuestionCountError(f"need n >= 3, got {self.n}")
        check_word_pairs(self.n, self.monomial_degree)
        object.__setattr__(self, "levels", levels)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        return from_fields(cls, data, "sweep config")


@dataclass(frozen=True)
class SweepRow:
    """One trial's measurements; epsilon and alpha are None when extraction fails."""

    level: float
    trial: int
    seed: int
    delta: float
    epsilon: float | None
    alpha: float | None
    extraction_failed: bool
    rep_residual_a: float
    rep_residual_b: float
    tracial_residual: float
    sync_max: float
    lemma35_pass: bool
    lemma63_pass: bool
    tracial_pass: bool
    beta: float | None = None
    state_residual: float | None = None
    fit_residual: float | None = None


def trial_seed(root_seed: int, level_index: int, trial_index: int) -> int:
    """Stable per-trial seed derived from the root seed and grid position, all
    nonnegative integers (SerializationError otherwise, as SweepConfig raises)."""
    position = (root_seed, level_index, trial_index)
    if not all(map(is_integer, position)) or min(position) < 0:
        raise SerializationError(
            f"seed and grid position must be nonnegative integers, got {position!r}"
        )
    seq = np.random.SeedSequence([root_seed, level_index, trial_index])
    return int(seq.generate_state(1)[0])


def build_family(n: int, k: int) -> ProjectionFamily:
    """Family for a sweep: level k of the ladder of n projections."""
    return ladder_family(n, k)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Execute every (level, trial) cell; deterministic given the config.

    Every trial is perturbed first.  A trial whose perturbed strategy equals
    the previous trial's bit for bit takes that trial's row with its own
    level, trial index and seed, so a repeated failed extraction is a failed
    row, not a second attempt.  The distinct strategies are then audited and
    certified in one call each, which runs them as stacks
    (selftest.STACK_ENTRIES); a member's FitDegenerateError or
    JunkExtractionError makes a failed row, and any other error is raised
    from the first trial in grid order that meets one.
    """
    fam = build_family(config.n, config.k)
    canon = fam.canonical_strategy
    cells = []  # (level, trial, seed, index of the trial's distinct strategy)
    distinct = []
    previous = None  # the dimensions and array bytes of the last trial's strategy
    for li, level in enumerate(config.levels):
        for ti in range(config.trials_per_level):
            seed = trial_seed(config.seed, li, ti)
            noisy = perturb(canon, config.noise_model, level, seed)
            key = (noisy.dim_a, noisy.dim_b) + tuple(
                a.tobytes() for a in (noisy.state, noisy.alice, noisy.bob)
            )
            if key != previous:
                distinct.append(noisy)
                previous = key
            cells.append((level, ti, seed, len(distinct) - 1))
    reports = approx_rep_residuals(distinct, fam, monomial_degree=config.monomial_degree)
    results = extract_dilation(distinct, fam)
    measured = []
    for report, cert in zip(reports, results):
        if isinstance(cert, Exception):  # a failed extraction
            cert = fit_residual = None
        else:
            fit_residual = float(max(cert.fit_residuals_a.max(), cert.fit_residuals_b.max()))
        measured.append(
            dict(
                delta=report.delta,
                epsilon=cert and cert.epsilon,
                alpha=cert and cert.alpha,
                extraction_failed=cert is None,
                rep_residual_a=report.rep_residual_a,
                rep_residual_b=report.rep_residual_b,
                tracial_residual=report.tracial_residual,
                sync_max=report.sync_max,
                lemma35_pass=report.lemma35_pass,
                lemma63_pass=report.lemma63_pass,
                tracial_pass=report.tracial_pass,
                beta=cert and cert.beta,
                state_residual=cert and cert.state_residual,
                fit_residual=fit_residual,
            )
        )
    return [SweepRow(level=lv, trial=ti, seed=seed, **measured[i]) for lv, ti, seed, i in cells]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def emit_report(rows: list[SweepRow], fmt: str, path) -> None:
    """Write rows as CSV (fixed column set) or JSON (all fields, lossless)."""
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            handle.write(CSV_HEADER + "\n")
            writer = csv.writer(handle, lineterminator="\n")
            # each column is the SweepRow field its lower-cased name gives
            fields = CSV_HEADER.lower().split(",")
            for r in rows:
                values = (getattr(r, f) for f in fields)
                writer.writerow(str(v).lower() if type(v) is bool else _fmt(v) for v in values)
    elif fmt == "json":
        with open(path, "w") as handle:
            json.dump([asdict(r) for r in rows], handle, indent=1)
            handle.write("\n")
    else:
        raise SerializationError(f"unknown report format {fmt!r}")
