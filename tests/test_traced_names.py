"""Every function the benchmark's tracer wraps (``bench/bench_trace.py``,
``TARGETS``) must exist under that name, so a refactor that drops or renames
one fails here and not only under ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_trace", Path(__file__).resolve().parents[1] / "bench" / "bench_trace.py"
)
bench_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trace)


@pytest.mark.parametrize(
    "module,qualname", [(mod, qual) for mod, qual, _ in bench_trace.TARGETS]
)
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module("nelliptic." + module)
    if "%s.%s" % (module, qualname) == bench_trace.SPSOLVE:
        owner = owner.spla  # scipy's sparse LU, as the solver looks it up
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # the tracer patches the raw class attribute (staticmethods included)
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, qualname))
