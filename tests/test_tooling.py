"""The benchmark's tracer wraps package functions by name: every name it
lists must resolve, or each traced benchmark run stops with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for mod_name, path in tracer.TRACED:
        owner = importlib.import_module("fdtc." + mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        # the tracer reads the attribute off its owner's own namespace
        assert attr in vars(owner), "%s.%s" % (mod_name, path)
