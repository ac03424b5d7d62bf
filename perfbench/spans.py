"""Span tracing of ttrnn from outside the library.

The tracer replaces public functions of the ttrnn modules with timing
wrappers, both in the module that defines them and in every ttrnn module
that imported them by name (``ttrnn.training.run_sequence`` is the same
function object as ``ttrnn.cells.run_sequence``, so both names are
wrapped).  Each call becomes one span: name, start, end, parent span and
trace id.  A new trace id starts with every ``Tape``, so all spans of one
batch share an id; each child process (one request) gets one id.

Backward time is charged to the op that registered it: while an autodiff
op is running, the pull functions it hands to ``Tape.emit`` are wrapped
into spans named after that op with a ``:bwd`` suffix.  Affine maps are
named by the weight they multiply (``w*`` input map, ``u*`` recurrent,
``head_w`` head), learnt from the names given to ``CellWeights``.

Spans stay in memory in flat arrays and are written out when the run
ends.  A span's self time is its duration minus the time covered by its
direct children; calls nest because the library is single-threaded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

import numpy as np

# (module, function, span name).  Autodiff ops are named "autodiff.<layer>:<op>";
# affine gets its layer per call, from the weight it multiplies.
_WRAPPED = [
    ("ttrnn.ttcore", "tt_apply_batch", "ttcore.tt_apply_batch"),
    ("ttrnn.ttcore", "tt_apply_backward_batch", "ttcore.tt_apply_backward_batch"),
    ("ttrnn.autodiff", "backward", "autodiff.backward"),
    ("ttrnn.autodiff", "embed", "autodiff.embed:embed"),
    ("ttrnn.autodiff", "tt_linear", "autodiff.input_map:tt_linear"),
    ("ttrnn.autodiff", "softmax", "autodiff.head:softmax"),
    ("ttrnn.autodiff", "cross_entropy_mean", "autodiff.head:cross_entropy_mean"),
    *(
        ("ttrnn.autodiff", op, "autodiff.pointwise:" + op)
        for op in ("sigmoid", "tanh", "add", "hadamard", "one_minus", "blend")
    ),
    ("ttrnn.cells", "run_sequence", "cells.run_sequence"),
    ("ttrnn.cells", "step", "cells.step"),
    ("ttrnn.cells", "head_probs", "cells.head_probs"),
    ("ttrnn.training", "train", "training.train"),
    ("ttrnn.training", "prepare_dataset", "training.prepare_dataset"),
    ("ttrnn.training", "adam_step", "training.adam_step"),
    ("ttrnn.training", "evaluate_model", "training.evaluate_model"),
    ("ttrnn.training", "model_probabilities", "training.model_probabilities"),
    ("ttrnn.metrics", "evaluate", "metrics.evaluate"),
    ("ttrnn.modelio", "load_model", "modelio.load_model"),
    ("ttrnn.modelio", "save_model", "modelio.save_model"),
    ("ttrnn.textpipe", "clean_tweet", "textpipe.clean_tweet"),
    ("ttrnn.textpipe", "encode", "textpipe.encode"),
    ("ttrnn.textpipe", "load_clean_jsonl", "textpipe.load_clean_jsonl"),
    ("ttrnn.cli", "cmd_evaluate", "cli.cmd_evaluate"),
    ("ttrnn.cli", "cmd_predict", "cli.cmd_predict"),
]


class Tracer:
    """Collects spans and counters while `enabled` is true."""

    def __init__(self):
        self.active = False  # trace the current round
        self.enabled = False  # inside a traced operation right now
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("q")
        self._stack: list = []
        self.trace_id = 0
        self.counters: dict = {}
        self.weight_names: dict = {}  # id(Variable) -> weight name
        self._keep: list = []  # holds weight Variables so their ids stay unique
        self._restore: list = []
        self._macs_cache: dict = {}

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self):
        return self.names[self.name_of[self._stack[-1]]] if self._stack else None

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def timed(self, name, fn, observe=None, name_for=None):
        """fn wrapped so each call while enabled records one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(*args, **kwargs)
            idx = tracer.open(name_for(*args, **kwargs) if name_for else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "ttrnn" or mod_name.startswith("ttrnn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        import ttrnn.cli  # noqa: F401  (loads every module that gets wrapped)
        from ttrnn import autodiff, cells, ttcore

        observers = {
            "ttcore.tt_apply_batch": self._observe_tt_apply,
            "autodiff.backward": self._observe_backward,
            "autodiff.input_map:tt_linear": self._observe_tt_linear,
            "cells.run_sequence": self._observe_run_sequence,
            "training.adam_step": self._observe_adam,
        }
        for mod_name, fn_name, span in _WRAPPED:
            original = getattr(sys.modules[mod_name], fn_name)
            self._replace_everywhere(original, self.timed(span, original, observers.get(span)))
        self._replace_everywhere(
            autodiff.affine,
            self.timed("autodiff.affine", autodiff.affine, self._observe_affine, self._affine_name),
        )

        tracer = self
        tape_init, tape_emit = autodiff.Tape.__init__, autodiff.Tape.emit
        weights_init = cells.CellWeights.__init__

        def init(tape, *args, **kwargs):
            tracer.trace_id += 1
            tape_init(tape, *args, **kwargs)

        def emit(tape, value, pulls):
            op = tracer.current() if tracer.enabled else None
            if op is not None and op.startswith("autodiff.") and ":" in op:
                pulls = [(src, tracer.timed(op + ":bwd", pull)) for src, pull in pulls]
            return tape_emit(tape, value, pulls)

        def register(weights, spec, values):
            weights_init(weights, spec, values)
            for name, var in weights.values.items():
                tracer.weight_names[id(var)] = name
                tracer._keep.append(var)

        autodiff.Tape.__init__, autodiff.Tape.emit = init, emit
        cells.CellWeights.__init__ = register
        self._restore += [
            (autodiff.Tape, "__init__", tape_init),
            (autodiff.Tape, "emit", tape_emit),
            (cells.CellWeights, "__init__", weights_init),
        ]
        self._ttcore = ttcore

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- observers: counts measured where the work happens -------------------

    def _affine_name(self, tape, w, x, b=None):
        name = self.weight_names.get(id(w), "")
        if name.startswith("w"):
            return "autodiff.input_map:affine"
        if name.startswith("u"):
            return "autodiff.recurrent:affine"
        if name == "head_w":
            return "autodiff.head:affine"
        return "autodiff.other:affine"

    def _observe_affine(self, tape, w, x, b=None):
        if self.weight_names.get(id(w), "").startswith("w"):
            rows = x.value.array.shape[0] if x.value.array.ndim == 2 else 1
            self.count("input_map.rows", rows)
            self.count("input_map.macs", rows * w.value.array.size)

    def _tt_macs(self, cores, in_modes, ranks) -> int:
        key = (tuple(c.shape for c in cores), tuple(ranks))
        macs = self._macs_cache.get(key)
        if macs is None:
            facto = self._ttcore.ModeFactorization(tuple(c.shape[0] for c in cores), tuple(in_modes))
            macs = self._macs_cache[key] = self._ttcore.tt_matvec_macs(facto, ranks)
        return macs

    def _observe_tt_apply(self, cores, in_modes, ranks, x2d, trace=None):
        rows = x2d.shape[0]
        self.count("tt_apply.rows", rows)
        self.count("tt_apply.macs", rows * self._tt_macs(cores, in_modes, ranks))

    def _observe_tt_linear(self, tape, cores, facto, ranks, x):
        rows = x.value.array.shape[0] if x.value.array.ndim == 2 else 1
        self.count("input_map.rows", rows)
        self.count("input_map.macs", rows * self._ttcore.tt_matvec_macs(facto, ranks))

    def _observe_backward(self, tape, loss):
        self.count("tape.records", len(tape.records))
        self.count("tape.backward_calls")

    def _observe_run_sequence(self, tape, spec, weights, token_ids, mask=None):
        ids = np.asarray(token_ids)
        self.count("run_sequence.row_steps", ids.size)
        self.count("run_sequence.steps", ids.shape[-1])
        self.count("run_sequence.real_tokens", float(np.sum(mask)) if mask is not None else ids.size)

    def _observe_adam(self, variables, *args, **kwargs):
        self.count("adam.params", sum(v.value.array.size for v in variables if v.grad is not None))

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int64).copy(),
        }

    def dump(self, path: str) -> None:
        """Write spans, names and counters (the child-process hand-off format)."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 counters=np.array(json.dumps(self.counters)), **self.arrays())

    def merge(self, path: str) -> None:
        """Append spans dumped by a child process under one fresh trace id.

        A child process is one request, so all of its spans share an id.
        """
        with np.load(path) as data:
            names = json.loads(str(data["names"]))
            remap = np.array([self._name_id(n) for n in names], dtype=np.int32)
            base = len(self.start)
            self.trace_id += 1
            self.name_of.extend(remap[data["name"]].tolist() if len(names) else [])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            parent = data["parent"]
            self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
            self.trace.extend([self.trace_id] * len(parent))
            for key, value in json.loads(str(data["counters"])).items():
                self.count(key, value)


def span_table(tracer: Tracer) -> dict:
    """name -> {"calls", "s", "self_s"} over every recorded span."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    n = len(tracer.names)
    return {
        tracer.names[i]: {"calls": int(c), "s": float(s), "self_s": float(t)}
        for i, (c, s, t) in enumerate(
            zip(
                np.bincount(a["name"], minlength=n),
                np.bincount(a["name"], weights=dur, minlength=n),
                np.bincount(a["name"], weights=self_time, minlength=n),
            )
        )
        if c
    }


def child_main(argv) -> int:
    """Entry point of a traced child: time the import, run the CLI, dump spans."""
    out = os.environ["PERFBENCH_TRACE_OUT"]
    t0 = time.perf_counter()
    import ttrnn.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.count("cli.import_s", import_s)
    tracer.count("cli.children")
    tracer.enabled = True
    idx = tracer.open("cli.main")
    try:
        code = ttrnn.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.enabled = False
        tracer.dump(out)
    return code


def _sum(table: dict, prefix: str, suffix: str = "", key: str = "s", exclude_suffix: str = "") -> float:
    return sum(
        row[key]
        for name, row in table.items()
        if name.startswith(prefix) and name.endswith(suffix)
        and not (exclude_suffix and name.endswith(exclude_suffix))
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, properties: dict, interpreter_ms: float, overhead: dict) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}."""
    t = span_table(tracer)
    c = tracer.counters
    row = lambda name: t.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})  # noqa: E731
    fwd = lambda layer, key="s": _sum(t, "autodiff.%s:" % layer, key=key, exclude_suffix=":bwd")  # noqa: E731
    bwd = lambda layer, key="s": _sum(t, "autodiff.%s:" % layer, ":bwd", key=key)  # noqa: E731
    apply, apply_b = row("ttcore.tt_apply_batch"), row("ttcore.tt_apply_backward_batch")
    seq = row("cells.run_sequence")
    adam = row("training.adam_step")
    input_fwd = fwd("input_map")
    input_calls = _sum(t, "autodiff.input_map:", key="calls", exclude_suffix=":bwd")
    m = {
        "ttcore.tt_apply_batch.s": (apply["s"], "s"),
        "ttcore.tt_apply_batch.calls": (apply["calls"], "count"),
        "ttcore.tt_apply_batch.rows_per_call": (_ratio(c.get("tt_apply.rows", 0), apply["calls"]), "rows"),
        "ttcore.tt_apply_backward_batch.s": (apply_b["s"], "s"),
        "ttcore.tt_apply_backward_batch.calls": (apply_b["calls"], "count"),
        "ttcore.macs_per_row": (properties["tt_macs_per_row"], "MAC"),
        "ttcore.macs_share_of_dense": (
            properties["tt_macs_per_row"] / properties["dense_macs_per_row"], "share"),
        "ttcore.gmac_per_s": (_ratio(c.get("tt_apply.macs", 0), apply["s"]) / 1e9, "GMAC/s"),
        "autodiff.input_map.fwd_s": (input_fwd, "s"),
        "autodiff.input_map.fwd_self_s": (fwd("input_map", "self_s"), "s"),
        "autodiff.input_map.bwd_s": (bwd("input_map"), "s"),
        "autodiff.input_map.gmac_per_s": (_ratio(c.get("input_map.macs", 0), input_fwd) / 1e9, "GMAC/s"),
        "autodiff.input_map.rows_per_call": (_ratio(c.get("input_map.rows", 0), input_calls), "rows"),
        "autodiff.recurrent.fwd_s": (fwd("recurrent"), "s"),
        "autodiff.recurrent.bwd_s": (bwd("recurrent"), "s"),
        "autodiff.embed.fwd_s": (fwd("embed"), "s"),
        "autodiff.embed.bwd_s": (bwd("embed"), "s"),
        "autodiff.pointwise.fwd_s": (fwd("pointwise"), "s"),
        "autodiff.pointwise.bwd_s": (bwd("pointwise"), "s"),
        "autodiff.head.fwd_s": (fwd("head"), "s"),
        "autodiff.head.bwd_s": (bwd("head"), "s"),
        "autodiff.backward.self_s": (row("autodiff.backward")["self_s"], "s"),
        "autodiff.tape.records_per_batch": (
            _ratio(c.get("tape.records", 0), c.get("tape.backward_calls", 0)), "count"),
        "training.adam_step.s": (adam["s"], "s"),
        "training.adam_step.params_per_call": (_ratio(c.get("adam.params", 0), adam["calls"]), "count"),
        "training.train.s": (row("training.train")["s"], "s"),
        "training.train.self_s": (row("training.train")["self_s"], "s"),
        "training.evaluate_model.s": (row("training.evaluate_model")["s"], "s"),
        "training.model_probabilities.s": (row("training.model_probabilities")["s"], "s"),
        "metrics.evaluate.s": (row("metrics.evaluate")["s"], "s"),
        "cells.run_sequence.s": (seq["s"], "s"),
        "cells.run_sequence.self_s": (seq["self_s"], "s"),
        "cells.run_sequence.calls": (seq["calls"], "count"),
        "cells.step.self_s": (row("cells.step")["self_s"], "s"),
        "cells.steps_per_call": (_ratio(c.get("run_sequence.steps", 0), seq["calls"]), "count"),
        "cells.real_token_share": (
            _ratio(c.get("run_sequence.real_tokens", 0), c.get("run_sequence.row_steps", 0)), "share"),
        "cells.head_probs.calls_per_sequence": (_ratio(row("cells.head_probs")["calls"], seq["calls"]), "count"),
        "modelio.load_model.s": (row("modelio.load_model")["s"], "s"),
        "modelio.save_model.s": (row("modelio.save_model")["s"], "s"),
        "modelio.model_bytes": (
            sum(v for k, v in properties.items() if k.startswith("model_bytes.")), "B"),
        "modelio.model_bytes.tt": (properties.get("model_bytes.tt", 0), "B"),
        "textpipe.clean_tweet.s": (row("textpipe.clean_tweet")["s"], "s"),
        "textpipe.encode.s": (row("textpipe.encode")["s"], "s"),
        "textpipe.load_clean_jsonl.s": (row("textpipe.load_clean_jsonl")["s"], "s"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (1e3 * _ratio(c.get("cli.import_s", 0), c.get("cli.children", 0)), "ms"),
    }
    for name, share in overhead.items():
        m["trace.overhead." + name] = (share, "share")
    return m
