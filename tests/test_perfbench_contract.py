"""The benchmark tracer rebinds the functions named in ``perfbench/spans.py``
by name and silently skips a name it cannot resolve, so a rename in
``synchro`` would drop a per-layer metric without an error.  This test fails
instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


def test_spans_lists_traced_functions():
    assert TRACED


@pytest.mark.parametrize("qual", TRACED)
def test_traced_name_resolves(qual):
    module_name, fn_name = qual.split(".")
    module = importlib.import_module(f"synchro.{module_name}")
    assert callable(getattr(module, fn_name, None)), f"synchro.{qual} is gone"
