"""Names that code outside the package looks up must keep existing.

The benchmark tracer (perfbench/spans.py) wraps ttrnn functions it finds
with getattr, so deleting or renaming one breaks traced benchmark runs
without any import error; the package's __all__ is its public promise.
"""

import importlib
import importlib.util
import os

import ttrnn

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_exported_names_resolve():
    traced = [
        (mod_name, fn_name)
        for mod_name, fn_name, _ in _load_spans()._WRAPPED
        if not callable(getattr(importlib.import_module(mod_name), fn_name, None))
    ]
    assert traced == []
    exported = [name for name in ttrnn.__all__ if not hasattr(ttrnn, name)]
    assert exported == []
