"""Names that code outside the package looks up must keep existing.

The benchmark tracer (perfbench/spans.py) wraps ttrnn functions it finds
with getattr, so deleting or renaming one breaks traced benchmark runs
without any import error; the benchmark workloads (perfbench/workloads.py
and the modules it imports) build training configs and call ttrnn names
that only fail once a benchmark runs; the package's __all__ is its public
promise.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import ttrnn
from ttrnn.training import build_cell_spec

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _lookup(module, name):
    """What `from module import name` binds, or None if it would fail."""
    try:
        return importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return getattr(importlib.import_module(module), name, None)


def test_traced_and_exported_names_resolve():
    traced = [
        (mod_name, fn_name)
        for mod_name, fn_name, _ in _load("spans")._WRAPPED
        if not callable(getattr(importlib.import_module(mod_name), fn_name, None))
    ]
    assert traced == []
    exported = [name for name in ttrnn.__all__ if not hasattr(ttrnn, name)]
    assert exported == []


def _ttrnn_references(source):
    """(module, name) for each ttrnn name a perfbench file imports or reads."""
    tree = ast.parse(source)
    refs, modules = [], {}  # modules: local name -> ttrnn module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ttrnn":
            for alias in node.names:
                refs.append((node.module, alias.name))
                value = _lookup(node.module, alias.name)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value.__name__
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            refs.append((modules[node.value.id], node.attr))
    return refs


def test_perfbench_ttrnn_references_resolve():
    refs = []
    for f in sorted(os.listdir(PERFBENCH)):
        if f.endswith(".py"):
            with open(os.path.join(PERFBENCH, f), encoding="utf-8") as fh:
                refs += _ttrnn_references(fh.read())
    assert ("ttrnn.cells", "classify") in refs  # the scan sees `from ttrnn import cells`
    missing = [r for r in refs if _lookup(*r) is None]
    assert missing == []


def test_perfbench_train_configs_build(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads.py imports its sibling corpus.py
    workloads = _load("workloads")
    for w in workloads.WORKLOADS.values():
        for kind in w.kinds:
            config = workloads.train_config(w, kind, 0)
            build_cell_spec(kind, 100, config, 6)
