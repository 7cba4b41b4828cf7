"""The package's public surface and the names the benchmark reads from it."""

import importlib.util
import sys
from pathlib import Path

import lerw

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_public_names_resolve(monkeypatch):
    assert len(lerw.__all__) == len(set(lerw.__all__))
    missing = [name for name in lerw.__all__ if not hasattr(lerw, name)]
    assert missing == []
    # the benchmark's Lib looks up every name in its CALLS table, so a
    # deleted function it still reads fails here rather than in a bench run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("lerw_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    lib = tracer.Lib()
    for name, (module, _, _) in tracer.CALLS.items():
        assert getattr(lib, name) is getattr(module, name)
