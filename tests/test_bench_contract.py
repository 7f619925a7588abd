"""The benchmark's hold on the package: every name it traces or imports exists.

bench/ patches projsum's module attributes by name and imports the package's
public entry points.  These checks load its two modules read-only (no
bytecode is written next to them), so renaming or deleting a traced stage or
an imported helper, or breaking a decoder the benchmark checks its outputs
with, fails here, in the main suite.
"""
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from projsum.families import four_family
from projsum.selftest import extract_dilation
from projsum.serialize import certificate_to_dict, strategy_to_dict
from projsum.strategies import canonical_strategy, perturb

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_in_its_module_dict(monkeypatch):
    tracer = load_bench_module("tracer", monkeypatch)
    assert tracer.SPANS
    for module, path in tracer.SPANS:
        owner = importlib.import_module(f"projsum.{module}")
        for attr in path.split("."):
            assert attr in vars(owner), f"projsum.{module}.{path}"
            owner = vars(owner)[attr]
        assert callable(owner), f"projsum.{module}.{path}"


def test_workloads_import(monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    assert {"sweep-n4k1", "sweep-n4k5", "ladder-certify"} <= set(workloads.WORKLOADS)


def test_workload_decoders_read_what_the_writers_write(monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)

    def same_bytes(decoded, array):
        assert decoded.dtype == array.dtype and decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()

    fam = four_family(2)
    strategy = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=3)
    cert = extract_dilation(strategy, fam)
    doc = json.loads(json.dumps(certificate_to_dict(cert)))
    same_bytes(workloads.lists_to_matrix(doc["VA"], "VA"), cert.v_a)
    same_bytes(workloads.lists_to_matrix(doc["VB"], "VB"), cert.v_b)
    same_bytes(workloads.lists_to_vector(doc["junk"], "junk"), np.asarray(cert.junk))
    back = workloads.strategy_from_dict(json.loads(json.dumps(strategy_to_dict(strategy))))
    assert (back.dim_a, back.dim_b) == (strategy.dim_a, strategy.dim_b)
    for key in ("state", "alice", "bob"):
        same_bytes(getattr(back, key), getattr(strategy, key))


def test_reference_inputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    # the comparison bench/run.py makes on every run, so a change that the
    # benchmark would count as outputs_incorrect fails here first
    workloads = load_bench_module("workloads", monkeypatch)
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = workload.make_inputs(workloads.REFERENCE_SEED, workdir, reference=True)
        calls = workloads.run_pass(workload, inputs, workdir).calls
        verdicts = workloads.Verdicts(workload, inputs)
        verdicts.record(calls, reference=reference[name])
        assert verdicts.failed == 0, verdicts.messages


def test_traced_small_passes_count_the_kernels_the_benchmark_checks(tmp_path, monkeypatch):
    # the benchmark's own tests trace a one-trial sweep and a two-rung ladder
    # and expect both kernel counters to read above zero, twice alike
    tracer_module = load_bench_module("tracer", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    small = {
        "sweep": replace(workloads.WORKLOADS["sweep-n4k1"], trials=1),
        "ladder": replace(workloads.WORKLOADS["ladder-certify"], ks=(1, 5)),
    }
    for kind, workload in small.items():
        seen = []
        for run in ("a", "b"):
            workdir = tmp_path / kind / run
            workdir.mkdir(parents=True)
            inputs = workload.make_inputs(7, workdir)
            tracer = tracer_module.Tracer()
            with tracer.installed():
                calls = workloads.run_pass(workload, inputs, workdir, tracer).calls
            assert all(c.error is None for c in calls), kind
            seen.append(dict(tracer.counters))
        assert seen[0] == seen[1], kind
        assert seen[0].get("linalg.eigh_calls", 0) >= 1, kind
        assert seen[0].get("linalg.kron_calls", 0) >= 1, kind
