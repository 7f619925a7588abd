import dataclasses
import json
import tracemalloc
from collections import Counter
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projsum import selftest, strategies, sweep
from projsum.cli import main
from projsum.errors import (
    BudgetExceededError,
    EigensolverError,
    FitDegenerateError,
    InvalidDimensionError,
    InvalidLevelError,
    JunkExtractionError,
    SerializationError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from projsum.selftest import approx_rep_residuals, extract_dilation
from projsum.strategies import NOISE_MODELS, Strategy, StrategyStack, perturb
from projsum.sweep import (
    CSV_HEADER,
    SWEEP_MAX_ROWS,
    SweepConfig,
    SweepRow,
    build_family,
    emit_report,
    run_sweep,
    trial_seed,
)

from oracles import spearman, stack_strategies


def small_config(**overrides):
    base = dict(
        n=4,
        k=1,
        noise_model="state-mixing",
        levels=(0.0, 1e-3, 1e-2),
        trials_per_level=2,
        seed=5,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_config_validation():
    # the noise model, each level and the seed are perturb's to check
    with pytest.raises(InvalidLevelError, match="^unknown noise model 'gaussian'"):
        small_config(noise_model="gaussian")
    with pytest.raises(SerializationError):
        small_config(levels=(1e-2, 1e-3))
    with pytest.raises(InvalidLevelError, match=r"^level must be a real number in \[0, 1\], got 1.5$"):
        small_config(levels=(0.5, 1.5))
    with pytest.raises(SerializationError):
        small_config(levels=())
    for levels in (0.1, None, np.float64(0.1)):  # a bare TypeError, before
        with pytest.raises(SerializationError, match="^levels must be a sequence, got "):
            small_config(levels=levels)
    with pytest.raises(SerializationError):
        small_config(trials_per_level=0)
    with pytest.raises(InvalidLevelError, match="^seed must be nonnegative and integral, got -1$"):
        small_config(seed=-1)
    with pytest.raises(UnsupportedQuestionCountError, match="^need n >= 3, got 2$"):
        small_config(n=2)


@pytest.mark.parametrize("levels", [(True,), ("0.1",), (None,), ([0.1],), (0.0, np.array(0.1))])
def test_config_refuses_each_level_perturb_refuses(levels):
    # these ran at 1.0 and 0.1, or raised a bare TypeError
    strat = build_family(4, 1).canonical_strategy
    with pytest.raises(InvalidLevelError, match=r"^level must be a real number in \[0, 1\], got "):
        perturb(strat, "state-mixing", levels[-1], seed=5)
    with pytest.raises(InvalidLevelError, match=r"^level must be a real number in \[0, 1\], got "):
        small_config(levels=levels)


@pytest.mark.parametrize("field", ["n", "k", "trials_per_level", "seed", "monomial_degree"])
def test_config_refuses_non_integral_integer_fields(field):
    # else a bare TypeError at construction or in run_sweep, or True read as 1
    good = getattr(small_config(), field)
    for value in (good + 0.5, float(good), True, "2", None):
        with pytest.raises(SerializationError, match=f"^{field} must be an integer, got "):
            small_config(**{field: value})
    # numpy integers are integers, stored as ints
    cfg = small_config(**{field: np.int64(good)})
    assert type(getattr(cfg, field)) is int and cfg == small_config()


def test_config_rejects_monomial_degree_below_one():
    # degree 0 used to run, measuring degree-1 words against a zero budget;
    # selftest.check_word_pairs refuses it, as tracial_residual would
    message = "^monomial degree must be an integer of at least 1, got 0$"
    with pytest.raises(InvalidDimensionError, match=message):
        small_config(monomial_degree=0)


def test_config_refuses_more_rows_than_the_sweep_budget():
    # 1e18 is an integral JSON number: without the budget run_sweep would
    # append rows until memory runs out
    data = {"n": 4, "k": 1, "noise_model": "state-mixing", "levels": [0.0], "seed": 1}
    for trials in (1e18, SWEEP_MAX_ROWS + 1):
        with pytest.raises(BudgetExceededError, match=f"over the {SWEEP_MAX_ROWS}-row"):
            SweepConfig.from_dict({**data, "trials_per_level": trials})
    # at the budget the plan is constructed (and not run here)
    cfg = small_config(levels=(0.0, 0.1), trials_per_level=SWEEP_MAX_ROWS // 2)
    assert len(cfg.levels) * cfg.trials_per_level == SWEEP_MAX_ROWS == 100_000


def test_config_from_dict_round_trip():
    data = {
        "n": 4,
        "k": 2,
        "noise_model": "povm-jitter",
        "levels": [0.0, 0.1],
        "trials_per_level": 3,
        "seed": 9,
    }
    cfg = SweepConfig.from_dict(data)
    assert cfg.k == 2 and cfg.levels == (0.0, 0.1) and cfg.monomial_degree == 2
    with pytest.raises(SerializationError):
        SweepConfig.from_dict({k: v for k, v in data.items() if k != "seed"})
    with pytest.raises(SerializationError):
        SweepConfig.from_dict({**data, "extra": 1})


def test_trial_seed_is_stable_and_distinct():
    assert trial_seed(5, 0, 0) == trial_seed(5, 0, 0)
    seeds = {trial_seed(5, li, ti) for li in range(3) for ti in range(4)}
    assert len(seeds) == 12
    assert trial_seed(5, 0, 1) != trial_seed(6, 0, 1)
    assert trial_seed(np.int64(5), np.uint8(1), 0) == trial_seed(5, 1, 0)


@pytest.mark.parametrize(
    "args",
    [(-1, 0, 0), (5, -1, 0), (5, 0, -1), (1.5, 0, 0), (5, 1.0, 0), (True, 0, 0), (5, 0, "1")],
)
def test_trial_seed_rejects_negative_arguments(args):
    # numpy's SeedSequence would raise a bare ValueError; a float raised a
    # bare TypeError, and True was read as 1
    with pytest.raises(SerializationError, match="^seed and grid position must be nonnegative integers"):
        trial_seed(*args)


def test_build_family_dispatch():
    assert build_family(4, 3).d == 7
    assert build_family(5, 1).d == 4
    assert build_family(5, 2).d == 11
    with pytest.raises(UnsupportedScalarError):
        build_family(3, 2)
    with pytest.raises(BudgetExceededError):
        build_family(8, 6)


def test_run_sweep_is_deterministic_and_level_major():
    cfg = small_config()
    rows1 = run_sweep(cfg)
    rows2 = run_sweep(cfg)
    assert rows1 == rows2
    assert [(r.level, r.trial) for r in rows1] == [
        (lv, t) for lv in cfg.levels for t in range(cfg.trials_per_level)
    ]
    zero = [r for r in rows1 if r.level == 0.0]
    assert all(r.epsilon < 1e-10 for r in zero)
    assert all(r.lemma35_pass and r.lemma63_pass and r.tracial_pass for r in rows1)


def test_csv_output_is_byte_identical(tmp_path):
    cfg = small_config()
    rows = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, "csv", p1)
    emit_report(rows, "csv", p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] in ("true", "false")


def test_csv_empty_cells_for_failed_extraction(tmp_path):
    row = SweepRow(
        level=0.5,
        trial=0,
        seed=1,
        delta=0.4,
        epsilon=None,
        alpha=None,
        extraction_failed=True,
        rep_residual_a=0.1,
        rep_residual_b=0.1,
        tracial_residual=0.01,
        sync_max=0.2,
        lemma35_pass=True,
        lemma63_pass=True,
        tracial_pass=True,
    )
    path = tmp_path / "fail.csv"
    emit_report([row], "csv", path)
    cells = path.read_text().splitlines()[1].split(",")
    header = CSV_HEADER.split(",")
    assert cells[header.index("epsilon")] == ""
    assert cells[header.index("alpha")] == ""
    assert cells[header.index("delta")] == "0.4"


def test_json_report_round_trip(tmp_path):
    cfg = small_config(trials_per_level=1)
    rows = run_sweep(cfg)
    path = tmp_path / "report.json"
    emit_report(rows, "json", path)
    # file is plain JSON with one object per row, every field as it was
    data = json.loads(path.read_text())
    assert data == [asdict(r) for r in rows]
    assert set(data[0]) == set(SweepRow.__dataclass_fields__)


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(SerializationError):
        emit_report([], "yaml", tmp_path / "x.yaml")


def test_epsilon_tracks_noise_level():
    cfg = small_config(levels=(0.0, 1e-3, 1e-2, 1e-1), trials_per_level=3)
    rows = run_sweep(cfg)
    medians = []
    for lv in cfg.levels:
        medians.append(np.median([r.epsilon for r in rows if r.level == lv]))
    assert all(a <= b for a, b in zip(medians, medians[1:]))
    assert spearman(list(cfg.levels), medians) == 1.0


def test_spearman_values():
    assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
    assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    assert abs(spearman([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) + 0.5) < 1e-12
    # ties get averaged ranks
    rho = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert 0.9 < rho < 1.0


def count_calls(monkeypatch):
    """Count the strategies run_sweep hands to the audits and the extraction;
    one call takes a sequence of them, which it runs as stacks."""
    calls = {"audit": 0, "extract": 0}

    def audit(strategies, *args, **kwargs):
        calls["audit"] += len(strategies)
        return approx_rep_residuals(strategies, *args, **kwargs)

    def extract(strategies, *args, **kwargs):
        calls["extract"] += len(strategies)
        return extract_dilation(strategies, *args, **kwargs)

    monkeypatch.setattr(sweep, "approx_rep_residuals", audit)
    monkeypatch.setattr(sweep, "extract_dilation", extract)
    return calls


def test_failed_extractions_leave_their_certificate_cells_empty(tmp_path, capsys, monkeypatch):
    # at level 1 outcome noise leaves no junk to extract in any trial
    config = dict(n=4, k=1, noise_model="outcome-noise", levels=[1.0], trials_per_level=3, seed=1)
    calls = count_calls(monkeypatch)
    rows = run_sweep(SweepConfig(**config))
    assert [r.extraction_failed for r in rows] == [True] * 3
    # the three trials repeat one strategy: one attempt, not three
    assert calls == {"audit": 1, "extract": 1}
    for r in rows:
        assert (r.epsilon, r.alpha, r.beta, r.state_residual, r.fit_residual) == (None,) * 5
        # the audits do not depend on the extraction
        assert r.delta > 0 and r.rep_residual_a > 0 and r.rep_residual_b > 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_csv, out_json = tmp_path / "report.csv", tmp_path / "report.json"
    for out, fmt in ((out_csv, "csv"), (out_json, "json")):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out == f"wrote 3 rows to {out} (3 extraction failures)\n"
    header = CSV_HEADER.split(",")
    for line in out_csv.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[header.index("epsilon")] == cells[header.index("alpha")] == ""
        assert cells[header.index("delta")] != ""
    data = json.loads(out_json.read_text())
    for key in ("epsilon", "alpha", "beta", "state_residual", "fit_residual"):
        assert [row[key] for row in data] == [None] * 3, key
    assert data == [asdict(r) for r in rows]


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_repeated_strategies_are_certified_once(monkeypatch, model):
    # level 0 returns the canonical strategy, and outcome noise draws nothing
    calls = count_calls(monkeypatch)
    levels, trials = (0.0, 1e-3, 1e-2), 3
    rows = run_sweep(small_config(noise_model=model, levels=levels, trials_per_level=trials))
    assert len(rows) == len(levels) * trials
    expected = len(levels) if model == "outcome-noise" else 1 + (len(levels) - 1) * trials
    assert calls == {"audit": expected, "extract": expected}


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_rows_hold_plain_values_that_json_writes(model):
    # the report and the certificate give plain floats and bools, and the
    # row takes them as they are; outcome noise at level 1 fails to extract
    rows = run_sweep(small_config(noise_model=model, levels=(0.0, 1e-2, 1.0), trials_per_level=2))
    if model == "outcome-noise":
        assert rows[-1].extraction_failed and rows[-1].epsilon is None
    for row in rows:
        json.dumps(asdict(row))
        for name, value in asdict(row).items():
            assert value is None or type(value) in (int, float, bool), name


def fresh_row(fam, model, level, trial, seed, degree) -> dict:
    """The row of one trial, certified from scratch."""
    noisy = perturb(fam.canonical_strategy, model, level, seed)
    report = approx_rep_residuals(noisy, fam, monomial_degree=degree)
    row = dict(
        level=level,
        trial=trial,
        seed=seed,
        delta=float(report.delta),
        rep_residual_a=float(report.rep_residual_a),
        rep_residual_b=float(report.rep_residual_b),
        tracial_residual=float(report.tracial_residual),
        sync_max=float(report.sync_max),
        lemma35_pass=bool(report.lemma35_pass),
        lemma63_pass=bool(report.lemma63_pass),
        tracial_pass=bool(report.tracial_pass),
        extraction_failed=False,
    )
    try:
        cert = extract_dilation(noisy, fam)
    except (JunkExtractionError, FitDegenerateError):
        none = dict.fromkeys(("epsilon", "alpha", "beta", "state_residual", "fit_residual"))
        return {**row, **none, "extraction_failed": True}
    return {
        **row,
        "epsilon": float(cert.epsilon),
        "alpha": float(cert.alpha),
        "beta": float(cert.beta),
        "state_residual": float(cert.state_residual),
        "fit_residual": float(max(cert.fit_residuals_a.max(), cert.fit_residuals_b.max())),
    }


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_reused_rows_equal_fresh_ones(model):
    # level 1 outcome noise is a failing cell, repeated in each of its trials
    cfg = small_config(noise_model=model, levels=(0.0, 1e-2, 1.0), trials_per_level=2)
    fam = build_family(cfg.n, cfg.k)
    rows = run_sweep(cfg)
    expected = [
        fresh_row(fam, model, level, ti, trial_seed(cfg.seed, li, ti), cfg.monomial_degree)
        for li, level in enumerate(cfg.levels)
        for ti in range(cfg.trials_per_level)
    ]
    assert [asdict(r) for r in rows] == expected
    if model == "outcome-noise":
        assert [r.extraction_failed for r in rows] == [False] * 4 + [True] * 2


# --- stacks: a sweep certifies its distinct strategies as stacks, and each
# member of a stack gets the bits it gets alone

STACK_LEVELS = (0.0, 1e-4, 1e-2, 1.0)


@lru_cache(maxsize=None)
def sweep_pool(k):
    """The family of n = 4 at rung k, and 24 strategies a sweep of it meets:
    each noise model at each of STACK_LEVELS with perturb seeds 1 and 2,
    model-major, so index 8 m + 2 l + (seed - 1)."""
    fam = build_family(4, k)
    pool = [
        perturb(fam.canonical_strategy, model, level, seed)
        for model in NOISE_MODELS
        for level in STACK_LEVELS
        for seed in (1, 2)
    ]
    return fam, pool


def assert_same(a, b):
    """Equal, field by field: == on every float and every array entry."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(x):
            assert_same(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert (x == y).all(), field.name
        else:
            assert type(x) is type(y) and x == y, field.name


@settings(max_examples=12)
@given(k=st.sampled_from([1, 5]), picks=st.lists(st.integers(0, 23), min_size=1, max_size=8))
# 22 is outcome noise at level 1, which fails to extract, between a complex
# povm-jitter member (12) and real level-0 and level-1e-4 outcome-noise ones
@example(k=1, picks=[12, 22, 16, 18, 4])
@example(k=5, picks=[12, 22, 16, 18, 4])
# every member fails, 22 and 23 to fit and 15 on alpha
@example(k=1, picks=[22, 15, 23])
# failures first, in the middle and last, around the good member 0
@example(k=5, picks=[14, 22, 0, 15])
def test_a_stack_equals_its_members_bit_for_bit(k, picks):
    fam, pool = sweep_pool(k)
    strategies = [pool[i] for i in picks]
    stack = stack_strategies(strategies)
    reports = approx_rep_residuals(stack, fam)
    results = extract_dilation(stack, fam)
    assert len(reports) == len(results) == len(strategies)
    for strategy, report, result in zip(strategies, reports, results):
        assert_same(report, approx_rep_residuals(strategy, fam))
        try:
            alone = extract_dilation(strategy, fam)
        except (FitDegenerateError, JunkExtractionError) as error:
            assert type(result) is type(error) and str(result) == str(error)
        else:
            assert_same(result, alone)
    if 22 in picks:  # its form is degenerate
        assert isinstance(results[picks.index(22)], FitDegenerateError)


def test_a_stack_whose_stacked_solve_is_singular_equals_its_members(monkeypatch):
    # a singular stacked solve of the inverse iteration fails the stack
    # whole, and its members are certified again alone; the povm-jitter
    # members at every level, the last of which fails on alpha
    fam, pool = sweep_pool(1)
    strategies = pool[8:16]
    solve, refused = np.linalg.solve, []

    def singular_once(a, b):
        if a.ndim > 2 and len(a) > 1 and not refused:
            refused.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    results = extract_dilation(stack_strategies(strategies), fam)
    monkeypatch.undo()
    assert refused
    for strategy, result in zip(strategies, results):
        try:
            alone = extract_dilation(strategy, fam)
        except JunkExtractionError as error:
            assert type(result) is type(error) and str(result) == str(error)
        else:
            assert_same(result, alone)
    assert isinstance(results[-1], JunkExtractionError)


def test_a_failed_stack_is_certified_in_halves(monkeypatch):
    # a full k = 1 stack of povm-jitter members whose last member, outcome
    # noise at level 1, fails to fit: only the halves that hold it are fitted
    # again, 22 fits where certifying every member again alone took 226
    fam = build_family(4, 1)
    size = selftest.stack_size(fam.canonical_strategy, fam)
    canon = fam.canonical_strategy
    strategies = [perturb(canon, "povm-jitter", 1e-3, seed) for seed in range(size - 1)]
    strategies.append(perturb(canon, "outcome-noise", 1.0, 0))
    fit, fits = selftest._fit, []
    monkeypatch.setattr(selftest, "_fit", lambda *args: fits.append(len(args[0])) or fit(*args))
    results = extract_dilation(stack_strategies(strategies), fam)
    monkeypatch.undo()
    assert size == 113 and len(fits) <= 30
    for strategy, result in zip(strategies[:-1], results):
        assert_same(result, extract_dilation(strategy, fam))
    with pytest.raises(FitDegenerateError) as alone:
        extract_dilation(strategies[-1], fam)
    assert type(results[-1]) is FitDegenerateError and str(results[-1]) == str(alone.value)


@pytest.mark.parametrize("k, trials", [(1, 3), (5, 2)])
def test_stack_size_leaves_every_report_byte_unchanged(monkeypatch, tmp_path, k, trials):
    # one member per stack, the default stacks, and every distinct strategy
    # of a model in one stack; outcome noise at level 1 fails to extract
    seen = []
    for entries in (1, selftest.STACK_ENTRIES, 2**40):
        monkeypatch.setattr(selftest, "STACK_ENTRIES", entries)
        written = []
        for model in NOISE_MODELS:
            rows = run_sweep(
                small_config(k=k, noise_model=model, levels=STACK_LEVELS, trials_per_level=trials)
            )
            for fmt in ("csv", "json"):
                path = tmp_path / f"{entries}-{model}.{fmt}"
                emit_report(rows, fmt, path)
                written.append(path.read_bytes())
        seen.append(written)
    assert seen[0] == seen[1] == seen[2]


def solver_fingerprint(apply, dim, dtype):
    """The bytes of a fit operator's image of the all-ones row: which fit it is."""
    return apply(np.ones((1, dim), dtype=dtype)).tobytes()


def test_an_error_surfaces_from_the_first_trial_in_grid_order(monkeypatch):
    # every fit matrix-free, so its solver runs member by member.  Trial 3
    # fails in Alice's fit and trial 1 in Bob's: run alone, trial 1 would
    # raise first, so the stack must too, although it fits every Alice first
    monkeypatch.setattr(selftest, "KRYLOV_MIN_ROWS", 0)
    cfg = small_config(noise_model="povm-jitter", levels=(1e-3,), trials_per_level=4)
    fam = build_family(cfg.n, cfg.k)
    solve = selftest.krylov_eigh
    labels = {}

    def record(label):
        def solver(apply, dim, count, guard=0, dtype=np.complex128):
            labels[solver_fingerprint(apply, dim, dtype)] = label
            return solve(apply, dim, count, guard=guard, dtype=dtype)

        return solver

    for ti in range(cfg.trials_per_level):
        noisy = perturb(fam.canonical_strategy, cfg.noise_model, 1e-3, trial_seed(cfg.seed, 0, ti))
        rho_a, rho_b = noisy.reduced_densities
        for party, ops, family, rho in (
            ("alice", noisy.alice[:, 0], fam, rho_a),
            ("bob", noisy.bob[:, 0], fam.transposed, rho_b),
        ):
            monkeypatch.setattr(selftest, "krylov_eigh", record((ti, party)))
            selftest.fit_isometry(ops, family, rho)
    assert len(labels) == 8
    failing = {(3, "alice"), (1, "bob")}

    def failing_solver(apply, dim, count, guard=0, dtype=np.complex128):
        label = labels[solver_fingerprint(apply, dim, dtype)]
        if label in failing:
            raise EigensolverError(f"trial {label[0]}, {label[1]}")
        return solve(apply, dim, count, guard=guard, dtype=dtype)

    monkeypatch.setattr(selftest, "krylov_eigh", failing_solver)
    with pytest.raises(EigensolverError, match="^trial 1, bob$"):
        run_sweep(cfg)
    # an extraction error is a failed row, whichever trial meets it
    failing.clear()
    assert not any(r.extraction_failed for r in run_sweep(cfg))


# --- streaming: a sweep perturbs and validates its trials in chunks and
# certifies its distinct strategies a stack at a time


def stack_of(entries_per_member: int) -> int:
    """STACK_ENTRIES for stacks of that many members at n = 4, k = 1."""
    fam = build_family(4, 1)
    return entries_per_member * selftest._member_entries(fam.canonical_strategy, fam)


def test_a_sweep_holds_one_chunk_and_one_stack(monkeypatch):
    # before, every distinct perturbed strategy was held until the end: the
    # peak beyond the rows grew by about 5 kB a trial
    monkeypatch.setattr(selftest, "STACK_ENTRIES", stack_of(2))
    beyond = []
    for trials in (10, 100):
        cfg = small_config(noise_model="povm-jitter", levels=(1e-3,), trials_per_level=trials)
        run_sweep(cfg)  # the caches a first call fills
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows = run_sweep(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == trials and kept > start
        beyond.append(peak - kept)
    assert beyond[1] < 1.1 * beyond[0], beyond


@pytest.mark.parametrize("members", [2, None])
def test_a_sweep_derives_each_stacks_values_once(monkeypatch, members):
    # the audits and the extraction read one stack object: its correlation
    # and reduced densities are computed once.  Each chunk is validated once,
    # and no Strategy is built per trial
    if members:
        monkeypatch.setattr(selftest, "STACK_ENTRIES", stack_of(members))
    fam = build_family(4, 1)
    size = selftest.stack_size(fam.canonical_strategy, fam)
    calls, stacks = Counter(), []
    for owner, name in (
        (strategies, "induced_correlation"),
        (strategies, "_reduced_densities"),
        (Strategy, "validate"),
        (StrategyStack, "validate"),
    ):
        def counted(*args, _f=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def audit(stack, *args, **kwargs):
        stacks.append(len(stack))
        return approx_rep_residuals(stack, *args, **kwargs)

    monkeypatch.setattr(sweep, "approx_rep_residuals", audit)
    cfg = small_config(noise_model="povm-jitter", levels=(0.0, 1e-3, 1e-2), trials_per_level=4)
    run_sweep(cfg)
    # level 0 repeats one strategy: 9 distinct of 12 trials
    assert sum(stacks) == 9 and stacks == ([1, 2, 2, 2, 2] if members else [9])  # chunk 2 repeats
    assert calls == {
        "projsum.strategies.induced_correlation": len(stacks),
        "projsum.strategies._reduced_densities": len(stacks),
        "Strategy.validate": 1,  # the family's canonical strategy
        "StrategyStack.validate": -(-12 // size),
    }
