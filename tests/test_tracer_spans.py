"""Every entry point the benchmark tracer wraps is defined in the library, so
deleting or renaming a traced name fails here and not only in a traced
benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, qualname) of each span in the tracer's table."""
    spec = importlib.util.spec_from_file_location("zkpoi_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, qualname) for _, module, qualname in tracer.SPANS]


def defined(module_name: str, qualname: str) -> bool:
    """Whether `qualname` is bound in its own namespace, where the tracer
    rebinds it: a module's globals, or a class's own dict."""
    owner = importlib.import_module(module_name)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner is not None and name in vars(owner)


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    assert [f"{m}:{q}" for m, q in names if not defined(m, q)] == []
