import json

import numpy as np
import pytest

from projsum.cli import main
from projsum.errors import (
    BudgetExceededError,
    SerializationError,
    UnsupportedQuestionCountError,
    UnsupportedScalarError,
)
from projsum.sweep import (
    CSV_HEADER,
    SWEEP_MAX_ROWS,
    SweepConfig,
    SweepRow,
    build_family,
    emit_report,
    load_report,
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
    with pytest.raises(SerializationError):
        small_config(noise_model="gaussian")
    with pytest.raises(SerializationError):
        small_config(levels=(1e-2, 1e-3))
    with pytest.raises(SerializationError):
        small_config(levels=(0.5, 1.5))
    with pytest.raises(SerializationError):
        small_config(levels=())
    with pytest.raises(SerializationError):
        small_config(trials_per_level=0)
    with pytest.raises(SerializationError):
        small_config(seed=-1)
    with pytest.raises(UnsupportedQuestionCountError, match="^need n >= 3, got 2$"):
        small_config(n=2)


def test_config_rejects_monomial_degree_below_one():
    # degree 0 used to run, measuring degree-1 words against a zero budget
    with pytest.raises(SerializationError, match="monomial_degree must be at least 1"):
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


@pytest.mark.parametrize("args", [(-1, 0, 0), (5, -1, 0), (5, 0, -1)])
def test_trial_seed_rejects_negative_arguments(args):
    # numpy's SeedSequence would raise a bare ValueError
    with pytest.raises(SerializationError, match="nonnegative"):
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
    back = load_report(path)
    assert back == rows
    # file is plain JSON with one object per row
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == len(rows)
    assert set(data[0]) == set(SweepRow.__dataclass_fields__)


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(SerializationError):
        emit_report([], "yaml", tmp_path / "x.yaml")


def test_load_report_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SerializationError):
        load_report(path)
    path.write_text("{\"a\": 1}")
    with pytest.raises(SerializationError):
        load_report(path)
    for rows in ([1], [{"foo": 1}], [{}]):
        path.write_text(json.dumps(rows))
        with pytest.raises(SerializationError, match="report row 0"):
            load_report(path)
    row = {name: 0.0 for name in SweepRow.__dataclass_fields__}
    row.update(trial=0, seed=1, epsilon=None, extraction_failed=False)
    row.update(lemma35_pass=True, lemma63_pass=True, tracial_pass=True)
    path.write_text(json.dumps([row]))
    assert load_report(path)[0].seed == 1
    cases = (
        ("level", "x", "not a number: 'x'"),
        ("trial", 1.5, "not an integer: 1.5"),
        ("extraction_failed", "no", "not a boolean: 'no'"),
        ("delta", None, "not a number: None"),
    )
    for field, value, problem in cases:
        path.write_text(json.dumps([row, {**row, field: value}]))
        with pytest.raises(SerializationError, match=f"^report row 1 field '{field}': {problem}$"):
            load_report(path)
    path.write_bytes(bytes(range(128, 256)))
    with pytest.raises(SerializationError, match="not a text file"):
        load_report(path)
    with pytest.raises(OSError):
        load_report(tmp_path)


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


def test_failed_extractions_leave_their_certificate_cells_empty(tmp_path, capsys):
    # at level 1 outcome noise leaves no junk to extract in any trial
    config = dict(n=4, k=1, noise_model="outcome-noise", levels=[1.0], trials_per_level=3, seed=1)
    rows = run_sweep(SweepConfig(**config))
    assert [r.extraction_failed for r in rows] == [True] * 3
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
    assert load_report(out_json) == rows
