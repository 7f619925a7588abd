"""Noise-robustness sweeps: perturb a canonical strategy, audit the bounds.

Each trial perturbs the canonical strategy of a family at a given noise
level with its own derived seed, collects the residual diagnostics, runs
the dilation extraction, and checks every theoretical budget along the way.
Rows are fully determined by the configuration; trials are independent, and
the output is ordered by (level, trial).
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    FitDegenerateError,
    JunkExtractionError,
    SerializationError,
    UnsupportedQuestionCountError,
)
from .families import ProjectionFamily, ladder_family
from .selftest import approx_rep_residuals, check_word_pairs, extract_dilation
from .serialize import from_fields, load_json
from .strategies import NOISE_MODELS, perturb

CSV_HEADER = (
    "level,trial,delta,epsilon,alpha,rep_residual_A,rep_residual_B,"
    "tracial_residual,sync_max,lemma35_pass,lemma63_pass"
)
# rows of one sweep: 100,000 SweepRows hold about 56 MB
SWEEP_MAX_ROWS = 100_000


@dataclass(frozen=True)
class SweepConfig:
    """Plan for one sweep: family, noise model, levels, trial count.

    A plan of more than SWEEP_MAX_ROWS rows (levels x trials), or whose
    monomial degree makes more than selftest.PAIR_BUDGET word pairs, raises
    BudgetExceededError at construction, before any trial runs.
    """

    n: int
    k: int
    noise_model: str
    levels: tuple[float, ...]
    trials_per_level: int
    seed: int
    monomial_degree: int = 2

    def __post_init__(self):
        if self.noise_model not in NOISE_MODELS:
            raise SerializationError(
                f"unknown noise model {self.noise_model!r}; pick from {NOISE_MODELS}"
            )
        levels = tuple(float(l) for l in self.levels)
        if not levels:
            raise SerializationError("levels must be non-empty")
        if any(not (0.0 <= l <= 1.0) for l in levels):
            raise SerializationError("levels must lie in [0, 1]")
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
        if self.seed < 0:
            raise SerializationError("seed must be nonnegative")
        if self.monomial_degree < 1:
            raise SerializationError("monomial_degree must be at least 1")
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
    """Stable per-trial seed derived from the root seed and grid position."""
    seq = np.random.SeedSequence([root_seed, level_index, trial_index])
    return int(seq.generate_state(1)[0])


def build_family(n: int, k: int) -> ProjectionFamily:
    """Family for a sweep: level k of the ladder of n projections."""
    return ladder_family(n, k)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Execute every (level, trial) cell; deterministic given the config."""
    fam = build_family(config.n, config.k)
    canon = fam.canonical_strategy
    rows: list[SweepRow] = []
    for li, level in enumerate(config.levels):
        for ti in range(config.trials_per_level):
            seed = trial_seed(config.seed, li, ti)
            noisy = perturb(canon, config.noise_model, level, seed)
            report = approx_rep_residuals(
                noisy, fam.x, monomial_degree=config.monomial_degree
            )
            epsilon = alpha = beta = state_residual = fit_residual = None
            failed = False
            try:
                cert = extract_dilation(noisy, fam)
                epsilon = float(cert.epsilon)
                alpha = float(cert.alpha)
                beta = float(cert.beta)
                state_residual = float(cert.state_residual)
                fit_residual = float(
                    max(cert.fit_residuals_a.max(), cert.fit_residuals_b.max())
                )
            except (JunkExtractionError, FitDegenerateError):
                failed = True
            rows.append(
                SweepRow(
                    level=float(level),
                    trial=ti,
                    seed=seed,
                    delta=float(report.delta),
                    epsilon=epsilon,
                    alpha=alpha,
                    extraction_failed=failed,
                    rep_residual_a=float(report.rep_residual_a),
                    rep_residual_b=float(report.rep_residual_b),
                    tracial_residual=float(report.tracial_residual),
                    sync_max=float(report.sync_max),
                    lemma35_pass=bool(report.lemma35_pass),
                    lemma63_pass=bool(report.lemma63_pass),
                    tracial_pass=bool(report.tracial_pass),
                    beta=beta,
                    state_residual=state_residual,
                    fit_residual=fit_residual,
                )
            )
    return rows


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


def load_report(path) -> list[SweepRow]:
    """Read back a JSON report produced by emit_report, checking each field's kind."""
    data = load_json(path)
    if not isinstance(data, list):
        raise SerializationError("report JSON must be a list of rows")
    return [from_fields(SweepRow, row, f"report row {i}") for i, row in enumerate(data)]


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks on ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise SerializationError("need two sequences of equal length >= 2")

    def ranks(a):
        order = np.argsort(a, kind="stable")
        r = np.empty(a.size)
        r[order] = np.arange(1, a.size + 1)
        for val in np.unique(a):
            mask = a == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)
