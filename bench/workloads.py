"""The benchmark's workloads: seeded inputs, one call at a time, output checks.

Every workload drives projsum through its public entry points only
(``sweep.run_sweep`` with ``sweep.emit_report``, and ``cli.main``), from one
process, as a closed loop with a single caller: each call starts when the
previous one has returned.  Calls go through the module attribute, so a
tracer installed on the module sees them.

A workload's input is a list of top-level calls.  Each call covers one or
more items: the trials of a sweep, or one certificate.  An item fails when
its call raises or when any check on its output fails.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from projsum import cli, sweep
from projsum.families import ProjectionFamily, four_family
from projsum.selftest import ALPHA_MIN, dilation_epsilon, n_operator
from projsum.serialize import (
    lists_to_matrix,
    lists_to_vector,
    load_json,
    save_json,
    strategy_from_dict,
    strategy_to_dict,
)
from projsum.strategies import canonical_strategy, perturb

NOISE_MODELS = ("state-mixing", "povm-jitter", "outcome-noise")

# the fixed inputs whose scalar outputs are stored in reference.json; a run
# checks them on top of its seeded inputs, whatever its seed
REFERENCE_SEED = 1234
REL_TOL = 1e-9
# roundoff floor for values near zero, the repository's 1e-12 certificate rule
ABS_TOL = 1e-12
EPSILON_TOL = 1e-12
ISOMETRY_TOL = 1e-10


def derive_seed(seed: int, tag: int) -> int:
    """Independent child seed for one input of a workload."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def agree(a: float, b: float) -> bool:
    """1e-9 relative agreement, with a 1e-12 absolute floor."""
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


@functools.cache
def eps_per_beta_squared(n: int, k: int) -> float:
    """gap / 2(2n+1): beta = sqrt(2(2n+1) eps / gap) squared times this is eps.

    At zero noise eps is roundoff and beta its square root, so the reference
    check compares eps, where the 1e-12 floor applies, instead of beta.
    """
    return n_operator(sweep.build_family(n, k)).gap / (2 * (2 * n + 1))


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# -- host-speed calibration ---------------------------------------------------

# Host speed drifts by up to a third over minutes on shared machines, and the
# drift shows in a fixed kernel as in the program.  Each top-level call is
# bracketed by runs of a calibration kernel resembling its workload's work,
# and its time is also reported scaled to the host speed at which the
# kernel takes its usual seconds.  Interpreter-bound and threaded-LAPACK
# work drift differently, so the workloads use different kernels.
_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(9, 9)) + 1j * _RNG.normal(size=(9, 9))
_MID = _RNG.normal(size=(121, 121)) + 1j * _RNG.normal(size=(121, 121))
_LARGE = _RNG.normal(size=(384, 384)) + 1j * _RNG.normal(size=(384, 384))
_SMALL, _MID, _LARGE = (m + m.conj().T for m in (_SMALL, _MID, _LARGE))


def _interpreter_kernel() -> None:
    total = 0
    for i in range(400_000):
        total += i * i
    for _ in range(250):
        np.linalg.eigh(_SMALL)
        np.kron(_SMALL, _SMALL)
        np.linalg.svd(_SMALL)


def _mixed_kernel() -> None:
    _interpreter_kernel()
    for _ in range(4):
        np.linalg.eigh(_MID)


def _lapack_kernel() -> None:
    np.linalg.eigh(_LARGE)


@dataclass(frozen=True)
class Calibration:
    """A fixed kernel that runs no projsum code, and its usual seconds.

    ``usual_s`` is the kernel's typical time on the 2-vCPU Xeon virtual
    machine the benchmark was tuned on (2 BLAS threads), so a scale near 1
    means that machine's usual speed.
    """

    kernel: Callable[[], None]
    usual_s: float

    def seconds(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start


INTERPRETER = Calibration(_interpreter_kernel, 0.045)
MIXED = Calibration(_mixed_kernel, 0.059)
LAPACK = Calibration(_lapack_kernel, 0.046)


# -- sweeps ------------------------------------------------------------------

ROW_SCALARS = (
    "delta",
    "epsilon",
    "alpha",
    "beta",
    "rep_residual_a",
    "rep_residual_b",
    "tracial_residual",
    "sync_max",
)
# (CSV column, SweepRow field) of every numeric CSV column after level, trial
CSV_NUMBERS = (
    (2, "delta"),
    (3, "epsilon"),
    (4, "alpha"),
    (5, "rep_residual_a"),
    (6, "rep_residual_b"),
    (7, "tracial_residual"),
    (8, "sync_max"),
)


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` then a CSV report, once per noise model, n = 4."""

    name: str
    k: int
    levels: tuple[float, ...]
    trials: int
    calibration: Calibration = INTERPRETER

    def make_inputs(self, seed: int, workdir: Path, reference: bool = False):
        return [
            sweep.SweepConfig(
                n=4,
                k=self.k,
                noise_model=model,
                levels=self.levels,
                trials_per_level=1 if reference else self.trials,
                seed=derive_seed(seed, index),
            )
            for index, model in enumerate(NOISE_MODELS)
        ]

    def input_bytes(self, cfg) -> bytes:
        return json.dumps(asdict(cfg), sort_keys=True).encode()

    def label(self, cfg) -> str:
        return cfg.noise_model

    def items(self, cfg) -> int:
        return len(cfg.levels) * cfg.trials_per_level

    def warm_up(self, inputs, workdir: Path) -> None:
        """One trial at the highest noise level."""
        cfg = inputs[0]
        self.call(replace(cfg, levels=cfg.levels[-1:], trials_per_level=1), workdir)

    def call(self, cfg, workdir: Path):
        rows = sweep.run_sweep(cfg)
        sweep.emit_report(rows, "csv", workdir / f"{cfg.noise_model}.csv")
        return rows

    def collect(self, cfg, workdir: Path, rows):
        return rows, (workdir / f"{cfg.noise_model}.csv").read_bytes()

    def digest(self, output) -> bytes:
        rows, report = output
        return json.dumps([asdict(r) for r in rows]).encode() + report

    def corrupt(self, output):
        rows, report = output
        return [replace(rows[0], tracial_residual=1.0)] + rows[1:], report

    def check(self, cfg, output) -> dict[int, list[str]]:
        rows, report = output
        n_items = self.items(cfg)
        if len(rows) != n_items:
            return {i: [f"{len(rows)} rows for {n_items} trials"] for i in range(n_items)}
        table = list(csv.reader(io.StringIO(report.decode())))
        if not table or ",".join(table[0]) != sweep.CSV_HEADER or len(table) != n_items + 1:
            return {i: ["CSV report header or row count is wrong"] for i in range(n_items)}
        bad = {}
        for i, (row, line) in enumerate(zip(rows, table[1:])):
            problems = self._row_problems(cfg, i, row, line)
            if problems:
                bad[i] = problems
        return bad

    def _row_problems(self, cfg, i, row, line) -> list[str]:
        level, trial = cfg.levels[i // cfg.trials_per_level], i % cfg.trials_per_level
        where = f"{cfg.noise_model} level {level:g} trial {trial}"
        if row.level != level or row.trial != trial:
            return [f"{where}: row is out of grid order"]
        if row.extraction_failed or not _finite(*(getattr(row, f) for f in ROW_SCALARS)):
            return [f"{where}: extraction failed or a value is missing or not finite"]
        problems = []
        if not row.lemma35_pass:
            problems.append(f"{where}: Lemma 3.5 synchronicity budget failed")
        if not row.lemma63_pass:
            problems.append(f"{where}: Lemma 6.3 representation budget failed")
        if row.tracial_residual > 8.0 * math.sqrt(row.delta) + 1e-12:
            problems.append(f"{where}: tracial residual above 8 sqrt(delta)")
        if row.alpha <= ALPHA_MIN:
            problems.append(f"{where}: alpha {row.alpha} <= {ALPHA_MIN}")
        csv_level, csv_trial = float(line[0]), int(line[1])
        csv_ok = abs(csv_level - level) <= 1e-11 * level and csv_trial == trial
        for column, field in CSV_NUMBERS:
            value = getattr(row, field)
            csv_ok = csv_ok and abs(float(line[column]) - value) <= 1e-11 * abs(value)
        csv_ok = csv_ok and line[9:] == [
            str(row.lemma35_pass).lower(),
            str(row.lemma63_pass).lower(),
        ]
        if not csv_ok:
            problems.append(f"{where}: CSV line disagrees with the returned row")
        return problems

    def scalars(self, cfg, output) -> list[dict[str, float]]:
        rows, _ = output
        return [{f: getattr(r, f) for f in ROW_SCALARS} for r in rows]

    def eps_per_beta_squared(self, cfg) -> float:
        return eps_per_beta_squared(cfg.n, cfg.k)


# -- certificates through the command line ----------------------------------

CERT_SCALARS = ("epsilon", "alpha", "beta", "gap")
RESIDUAL_SCALARS = ("delta", "state", "repA", "repB", "tracial", "syncMax", "cBound")


def _cert_scalars(cert: dict) -> dict[str, float]:
    values = {f: cert[f] for f in CERT_SCALARS}
    values.update({f: cert["residuals"][f] for f in RESIDUAL_SCALARS})
    return values


@dataclass(frozen=True)
class Certify:
    """One ``projsum selftest`` call: a strategy file for the rung k."""

    k: int
    family: ProjectionFamily
    strategy_path: Path
    cert_path: Path


@dataclass(frozen=True)
class LadderWorkload:
    """``projsum selftest`` on one noisy strategy per rung of the n = 4 ladder."""

    name: str
    ks: tuple[int, ...]
    noise_model: str
    level: float
    warm_up_k: int
    calibration: Calibration = LAPACK

    def make_inputs(self, seed: int, workdir: Path, reference: bool = False):
        inputs = []
        for k in self.ks:
            fam = four_family(k)
            noisy = perturb(canonical_strategy(fam), self.noise_model, self.level, derive_seed(seed, k))
            path = workdir / f"strategy-k{k}.json"
            save_json(strategy_to_dict(noisy), path)
            inputs.append(Certify(k, fam, path, workdir / f"cert-k{k}.json"))
        return inputs

    def input_bytes(self, item: Certify) -> bytes:
        return item.strategy_path.read_bytes()

    def label(self, item: Certify) -> str:
        return f"k{item.k}"

    def items(self, item: Certify) -> int:
        return 1

    def warm_up(self, inputs, workdir: Path) -> None:
        """One certificate at the warm-up rung, whose eigensolves start LAPACK's threads."""
        self.call(next(i for i in inputs if i.k == self.warm_up_k), workdir)

    def call(self, item: Certify, workdir: Path):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(
                [
                    "selftest",
                    str(item.strategy_path),
                    "--n",
                    "4",
                    "--k",
                    str(item.k),
                    "--cert",
                    str(item.cert_path),
                ]
            )
        return code, printed.getvalue()

    def collect(self, item: Certify, workdir: Path, result):
        code, printed = result
        cert = item.cert_path.read_bytes() if code == 0 else b""
        return code, printed, cert

    def digest(self, output) -> bytes:
        code, printed, cert = output
        # the first printed line names the certificate path
        summary = printed.partition("\n")[2]
        return f"{code}\n{summary}".encode() + cert

    def corrupt(self, output):
        code, printed, cert = output
        data = json.loads(cert)
        data["epsilon"] += 1e-6
        return code, printed, json.dumps(data).encode()

    def check(self, item: Certify, output) -> dict[int, list[str]]:
        problems = self._problems(item, output)
        return {0: problems} if problems else {}

    def _problems(self, item: Certify, output) -> list[str]:
        code, printed, raw = output
        where = f"k={item.k}"
        if code != 0:
            return [f"{where}: projsum selftest exited {code}"]
        try:
            cert = json.loads(raw)
            values = _cert_scalars(cert)
            v_a = lists_to_matrix(cert["VA"], "VA")
            v_b = lists_to_matrix(cert["VB"], "VB")
            junk = lists_to_vector(cert["junk"], "junk")
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{where}: unreadable certificate: {exc}"]
        if not _finite(*values.values()):
            return [f"{where}: a certificate value is missing or not finite"]
        problems = []
        strategy = strategy_from_dict(load_json(item.strategy_path))
        epsilon = dilation_epsilon(strategy, canonical_strategy(item.family), v_a, v_b, junk)
        if abs(epsilon - values["epsilon"]) > EPSILON_TOL:
            problems.append(f"{where}: recomputed epsilon {epsilon!r} != {values['epsilon']!r}")
        for side, v in (("VA", v_a), ("VB", v_b)):
            defect = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]))
            if defect > ISOMETRY_TOL:
                problems.append(f"{where}: {side} is not an isometry, defect {defect:.3e}")
        if values["alpha"] <= ALPHA_MIN:
            problems.append(f"{where}: alpha {values['alpha']} <= {ALPHA_MIN}")
        root = math.sqrt(values["delta"])
        if max(values["repA"], values["repB"]) > values["cBound"]:
            problems.append(f"{where}: Lemma 6.3 representation budget failed")
        if values["syncMax"] > 2.0 * root:
            problems.append(f"{where}: synchronicity residual above the 2 sqrt(delta) budget")
        if values["tracial"] > 8.0 * root + 1e-12:
            problems.append(f"{where}: tracial residual above 8 sqrt(delta)")
        expected = (
            f"wrote certificate to {item.cert_path}\n"
            f"  delta   {values['delta']:.6e}\n"
            f"  epsilon {values['epsilon']:.6e}\n"
            f"  alpha   {values['alpha']:.9f}\n"
            f"  beta    {values['beta']:.6e}\n"
            f"  gap     {values['gap']:.9f}\n"
        )
        if printed != expected:
            problems.append(f"{where}: printed summary disagrees with the certificate")
        return problems

    def scalars(self, item: Certify, output) -> list[dict[str, float]]:
        return [_cert_scalars(json.loads(output[2]))]

    def eps_per_beta_squared(self, item: Certify) -> float:
        return eps_per_beta_squared(item.family.n, item.k)


# why each workload was chosen: bench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance sweep at d=3, bound by per-trial Python overhead
        SweepWorkload(
            name="sweep-n4k1",
            k=1,
            levels=(0.0,) + tuple(float(l) for l in np.logspace(-4, -1, 7)),
            trials=10,
        ),
        # 96 trials sharing one d=11 family: 121x121 eigensolves, and the
        # only workload where a per-family cache pays off
        SweepWorkload(
            name="sweep-n4k5",
            k=5,
            levels=(0.0,) + tuple(float(l) for l in np.logspace(-4, -1, 3)),
            trials=8,
            calibration=MIXED,
        ),
        # each family certified once, through the CLI and JSON files; the
        # d=31 rung's 961x961 eigensolves dominate
        LadderWorkload(
            name="ladder-certify",
            ks=(1, 5, 10, 15),
            noise_model="povm-jitter",
            level=1e-3,
            warm_up_k=5,
        ),
    )
}


# -- passes and checks -------------------------------------------------------


@dataclass
class Call:
    """One timed top-level call of a pass and what it returned.

    ``scale`` is the calibration's usual seconds over the mean of the
    calibration times measured just before and just after the call.
    """

    label: str
    items: int
    seconds: float
    scale: float
    output: object
    error: str | None

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    """The calls of one pass over the inputs."""

    calls: list[Call]
    traced: bool

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def scaled_seconds(self) -> float:
        return sum(c.scaled_seconds for c in self.calls)


def run_pass(workload, inputs, workdir, tracer=None, number=0) -> Pass:
    calibration = workload.calibration
    calls, before = [], calibration.seconds()
    for inp in inputs:
        label = workload.label(inp)
        if tracer is not None:
            tracer.item = f"{number}/{label}"
        start = perf_counter()
        try:
            result = workload.call(inp, workdir)
            error = None
        except Exception as exc:  # a raising call is a failed operation, not a crash
            result, error = None, f"{label}: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        output = None if error else workload.collect(inp, workdir, result)
        after = calibration.seconds()
        scale = 2 * calibration.usual_s / (before + after)
        calls.append(Call(label, workload.items(inp), seconds, scale, output, error))
        before = after
    return Pass(calls, tracer is not None)


class Verdicts:
    """Failed items per call; identical outputs of one call share a verdict."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self._seen = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, calls, reference=None):
        for index, (inp, call) in enumerate(zip(self.inputs, calls)):
            self.attempted += call.items
            bad = self._check(index, inp, call)
            if reference is not None and call.output is not None:
                bad = dict(bad)
                expected = reference.get(call.label, [])
                got = self.workload.scalars(inp, call.output)
                to_eps = self.workload.eps_per_beta_squared(inp)
                for item, values in enumerate(got):
                    want = expected[item] if item < len(expected) else {}
                    for key, value in values.items():
                        if key not in want or want[key] is None:
                            ok = False
                        elif key == "beta":
                            ok = agree(value**2 * to_eps, want[key] ** 2 * to_eps)
                        else:
                            ok = agree(value, want[key])
                        if not ok:
                            bad.setdefault(item, []).append(
                                f"{call.label} item {item}: {key} = {value!r}, "
                                f"reference {want.get(key)!r}"
                            )
            self.failed += len(bad)
            for problems in bad.values():
                self.messages.extend(problems)

    def _check(self, index, inp, call):
        if call.error is not None:
            return {i: [call.error] for i in range(call.items)}
        key = (index, self.workload.digest(call.output))
        if key not in self._seen:
            try:
                self._seen[key] = self.workload.check(inp, call.output)
            except Exception as exc:  # a check that cannot run fails its items
                message = f"{call.label}: check raised {type(exc).__name__}: {exc}"
                self._seen[key] = {i: [message] for i in range(call.items)}
        return self._seen[key]


def sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()
