"""Every callable that perfbench's tracer wraps must exist.

The tracer wraps functions and methods of the package by name, and only
`perfbench/run.py --trace 1` runs it; a renamed or deleted target would
otherwise go unnoticed until a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        modname, qualname = target.split(":")
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), target
        else:
            assert callable(getattr(module, qualname, None)), target
