import json
from dataclasses import asdict

import numpy as np
import pytest

from projsum import sweep
from projsum.cli import main
from projsum.errors import (
    BudgetExceededError,
    FitDegenerateError,
    InvalidDimensionError,
    InvalidLevelError,
    JunkExtractionError,
    SerializationError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from projsum.selftest import approx_rep_residuals, extract_dilation
from projsum.strategies import NOISE_MODELS, perturb
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

from oracles import spearman


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
    """Count the audits and extractions run_sweep makes."""
    calls = {"audit": 0, "extract": 0}

    def audit(*args, **kwargs):
        calls["audit"] += 1
        return approx_rep_residuals(*args, **kwargs)

    def extract(*args, **kwargs):
        calls["extract"] += 1
        return extract_dilation(*args, **kwargs)

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
