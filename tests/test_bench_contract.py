"""The benchmark's hold on the package: every name it traces or imports exists.

bench/ patches projsum's module attributes by name and imports the package's
public entry points.  These checks load its two modules read-only (no
bytecode is written next to them), so renaming or deleting a traced stage or
an imported helper fails here, in the main suite.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

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

