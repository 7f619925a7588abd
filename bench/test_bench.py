"""Tests of the benchmark itself: seeded inputs, checks, traced counters, output.

    python3 -m pytest bench/test_bench.py

In-process tests use shrunken copies of the workloads (fewer trials, fewer
rungs), which run the same code paths in a fraction of the time; the
end-to-end tests run ``bench/run.py`` as the benchmark command does.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Verdicts, run_pass  # noqa: E402

SMALL = {
    "sweep": replace(WORKLOADS["sweep-n4k1"], trials=1),
    "ladder": replace(WORKLOADS["ladder-certify"], ks=(1, 5)),
}


def inputs_and_pass(workload, seed, workdir):
    workdir.mkdir()
    inputs = workload.make_inputs(seed, workdir)
    return inputs, run_pass(workload, inputs, workdir).calls


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_same_seed_gives_identical_inputs_and_outputs(kind, tmp_path):
    workload = SMALL[kind]
    runs = [inputs_and_pass(workload, 7, tmp_path / name) for name in ("a", "b")]
    (in_a, out_a), (in_b, out_b) = runs
    assert [workload.input_bytes(i) for i in in_a] == [workload.input_bytes(i) for i in in_b]
    assert [workload.digest(c.output) for c in out_a] == [workload.digest(c.output) for c in out_b]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_different_seed_changes_inputs(kind, tmp_path):
    workload = SMALL[kind]
    for seed in (7, 8):
        (tmp_path / str(seed)).mkdir()
    a = workload.make_inputs(7, tmp_path / "7")
    b = workload.make_inputs(8, tmp_path / "8")
    assert all(workload.input_bytes(x) != workload.input_bytes(y) for x, y in zip(a, b))


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_clean_outputs_pass_every_check(kind, tmp_path):
    workload = SMALL[kind]
    inputs, calls = inputs_and_pass(workload, 7, tmp_path / "w")
    verdicts = Verdicts(workload, inputs)
    verdicts.record(calls)
    assert verdicts.failed == 0, verdicts.messages
    assert verdicts.attempted == sum(workload.items(i) for i in inputs)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_broken_output_is_counted_as_failed(kind, tmp_path):
    workload = SMALL[kind]
    inputs, calls = inputs_and_pass(workload, 7, tmp_path / "w")
    calls[0].output = workload.corrupt(calls[0].output)
    verdicts = Verdicts(workload, inputs)
    verdicts.record(calls)
    assert verdicts.failed == 1, verdicts.messages


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_two_traced_runs_report_identical_counters(kind, tmp_path):
    workload = SMALL[kind]
    seen = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = workload.make_inputs(7, workdir)
        tracer = Tracer()
        with tracer.installed():
            calls = run_pass(workload, inputs, workdir, tracer).calls
        assert all(c.error is None for c in calls)
        layer_calls = {n: v[0] for n, v in tracer.layer_times("0/").items()}
        seen.append((dict(tracer.counters), layer_calls))
    assert seen[0] == seen[1]
    counters, layer_calls = seen[0]
    assert counters["linalg.eigh_calls"] > 0 and counters["linalg.kron_calls"] > 0
    assert layer_calls["selftest.extract_dilation"] > 0


@pytest.mark.parametrize("beta, change, agrees", [(4.86e-7, 0.1, True), (0.06, 1e-8, False)])
def test_reference_check_compares_beta_through_eps(beta, change, agrees, tmp_path):
    # at zero noise beta is the square root of roundoff, and a 10% change is noise
    workload = SMALL["sweep"]
    inputs, calls = inputs_and_pass(workload, 7, tmp_path / "w")
    call = calls[0]
    rows, report = call.output
    reference = {call.label: workload.scalars(inputs[0], call.output)}
    reference[call.label][0]["beta"] = beta
    call.output = [replace(rows[0], beta=beta * (1 + change))] + rows[1:], report
    verdicts = Verdicts(workload, inputs[:1])
    verdicts.record(calls[:1], reference=reference)
    assert verdicts.failed == (0 if agrees else 1), verdicts.messages


def test_tracer_restores_the_program():
    import numpy as np
    from projsum import cli, selftest, strategies

    before = (selftest.fit_isometry, cli.extract_dilation, strategies.Strategy.validate, np.kron)
    with Tracer().installed():
        assert selftest.fit_isometry is not before[0]
        assert cli.extract_dilation is not before[1]
    assert (selftest.fit_isometry, cli.extract_dilation, strategies.Strategy.validate, np.kron) == before


def bench(*args, cwd=ROOT):
    command = [sys.executable, "bench/run.py", "--workload", "sweep-n4k1", "--seed", "3"]
    return subprocess.run(command + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    done = bench("--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
