"""Recurrent cells for sequence classification, dense and tensor-train.

Seven cell kinds share one interface.  Dense kinds: elman (hidden-state
feedback), jordan (output feedback), lstm, gru.  Tensorized kinds t_rnn,
t_lstm, t_gru store every input-to-hidden matrix as tensor-train cores;
recurrent matrices, biases, the embedding and the softmax head stay
dense, so the compression targets exactly the weights that scale with
the input width.

A cell owns its whole parameter set: embedding table, per-gate input and
recurrent maps, biases, and the class head.  Steps run on a Tape and
accept single vectors or batches.  run_sequence puts a handful of records
on the tape per batch: one embedding lookup of the real tokens, for TT
kinds one `tt_weight` per gate that rebuilds the dense W from the cores,
one record for the whole recurrence (the fused forward and analytic BPTT
of the recurrence module) holding the one final state part it reads, h
(jordan: y), and the head once from h (jordan, which feeds its output
back, runs its head inside the recurrence).  An optional mask, 1 on a
prefix of each row and 0 after it, gives each row's length.  Only the
real tokens are embedded and run, packed time-major as the recurrence
module describes, so padding costs nothing.  On a Tape(need_grad=False),
as evaluation and classify use, nothing is recorded and the recurrence
keeps only its running state.  step is a one-step run of the same
recurrence with one record per state part, so chained steps stay
differentiable.

Gate naming: gru uses r (reset), z (update), d (candidate); lstm uses
k (input), f (forget), o (output), g (candidate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import recurrence, rng
from .autodiff import Tape, Variable
from .errors import EmptySequence, ShapeMismatch
from .tensor import _wrap
from .ttcore import ModeFactorization, check_ranks, core_shapes, random_tt

# kind -> (recurrence family, gates); a t_ kind is its dense twin fed by TT cores
_KINDS = {
    "elman": ("elman", ("",)),
    "jordan": ("jordan", ("",)),
    "lstm": ("lstm", ("k", "f", "o", "g")),
    "gru": ("gru", ("r", "z", "d")),
    "t_rnn": ("elman", ("",)),
    "t_lstm": ("lstm", ("k", "f", "o", "g")),
    "t_gru": ("gru", ("r", "z", "d")),
}
KINDS = tuple(_KINDS)
TENSORIZED = ("t_rnn", "t_lstm", "t_gru")


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to size a cell's weights."""

    kind: str
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    num_classes: int
    tt_out_modes: tuple | None = None
    tt_in_modes: tuple | None = None
    tt_ranks: tuple | None = None
    candidate_bias: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeMismatch("unknown cell kind %r" % (self.kind,))
        for label, n in (
            ("vocab_size", self.vocab_size),
            ("embed_dim", self.embed_dim),
            ("hidden_dim", self.hidden_dim),
            ("num_classes", self.num_classes),
        ):
            if int(n) < 1:
                raise ShapeMismatch("%s must be >= 1, got %r" % (label, n))
        if self.tensorized:
            if self.tt_out_modes is None or self.tt_in_modes is None or self.tt_ranks is None:
                raise ShapeMismatch(
                    "%s cells need tt_out_modes, tt_in_modes and tt_ranks" % self.kind
                )
            facto = ModeFactorization(self.tt_out_modes, self.tt_in_modes)
            object.__setattr__(self, "tt_out_modes", facto.out_modes)
            object.__setattr__(self, "tt_in_modes", facto.in_modes)
            object.__setattr__(
                self, "tt_ranks", check_ranks(self.tt_ranks, facto.order)
            )
            if facto.rows != self.hidden_dim or facto.cols != self.embed_dim:
                raise ShapeMismatch(
                    "tt modes give a %dx%d matrix but the input map is %dx%d"
                    % (facto.rows, facto.cols, self.hidden_dim, self.embed_dim)
                )
        elif self.tt_out_modes is not None or self.tt_in_modes is not None or self.tt_ranks is not None:
            raise ShapeMismatch("tt modes only apply to tensorized kinds")

    @property
    def tensorized(self) -> bool:
        return self.kind in TENSORIZED

    @property
    def family(self) -> str:
        return _KINDS[self.kind][0]

    @property
    def gates(self) -> tuple:
        return _KINDS[self.kind][1]

    @cached_property
    def facto(self) -> ModeFactorization | None:
        if not self.tensorized:
            return None
        return ModeFactorization(self.tt_out_modes, self.tt_in_modes)

    def has_bias(self, gate: str) -> bool:
        if gate == "d" and not self.candidate_bias:
            return False
        return True

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "num_classes": self.num_classes,
            "candidate_bias": self.candidate_bias,
        }
        if self.tensorized:
            out["tt_out_modes"] = list(self.tt_out_modes)
            out["tt_in_modes"] = list(self.tt_in_modes)
            out["tt_ranks"] = list(self.tt_ranks)
        return out

    @staticmethod
    def from_dict(d: dict) -> "CellSpec":
        return CellSpec(
            kind=d["kind"],
            vocab_size=int(d["vocab_size"]),
            embed_dim=int(d["embed_dim"]),
            hidden_dim=int(d["hidden_dim"]),
            num_classes=int(d["num_classes"]),
            tt_out_modes=tuple(d["tt_out_modes"]) if "tt_out_modes" in d else None,
            tt_in_modes=tuple(d["tt_in_modes"]) if "tt_in_modes" in d else None,
            tt_ranks=tuple(d["tt_ranks"]) if "tt_ranks" in d else None,
            candidate_bias=bool(d.get("candidate_bias", True)),
        )


def _gate_name(base: str, gate: str) -> str:
    return base if gate == "" else "%s_%s" % (base, gate)


def weight_templates(spec: CellSpec):
    """Ordered (name, shape) pairs covering every parameter of the cell."""
    e, h, c, v = spec.embed_dim, spec.hidden_dim, spec.num_classes, spec.vocab_size
    out = [("embedding", (v, e))]
    for gate in spec.gates:
        if spec.tensorized:
            shapes = core_shapes(spec.facto, spec.tt_ranks)
            out += [("%s.core%d" % (_gate_name("w", gate), k), s) for k, s in enumerate(shapes)]
        else:
            out.append((_gate_name("w", gate), (h, e)))
        feedback = c if spec.family == "jordan" else h
        out.append((_gate_name("u", gate), (h, feedback)))
        if spec.has_bias(gate):
            out.append((_gate_name("b", gate), (h,)))
    out.append(("head_w", (c, h)))
    out.append(("head_b", (c,)))
    return out


class CellWeights:
    """Named parameter Variables for one cell, in a fixed template order."""

    def __init__(self, spec: CellSpec, values: dict):
        self.spec = spec
        self.values = dict(values)
        for name, shape in weight_templates(spec):
            if name not in self.values:
                raise ShapeMismatch("missing weight %r" % name)
            got = self.values[name].value.shape
            if got != shape:
                raise ShapeMismatch(
                    "weight %r has shape %r, expected %r" % (name, got, shape)
                )

    def __getitem__(self, name: str) -> Variable:
        return self.values[name]

    def params(self):
        return [self.values[name] for name, _ in weight_templates(self.spec)]

    def tt_cores(self, gate: str):
        facto = self.spec.facto
        base = _gate_name("w", gate)
        return [self.values["%s.core%d" % (base, k)] for k in range(facto.order)]


def init_weights(spec: CellSpec, seed: int) -> CellWeights:
    """Deterministic initialization, one derived seed per weight name.

    Dense input and head matrices use stddev sqrt(2 / (fan_in + fan_out)),
    recurrent matrices sqrt(1 / fan_in), the embedding sqrt(1 / embed_dim).
    Tensor-train gates draw cores so the reconstructed matrix matches the
    dense input-map variance.  Biases start at zero.
    """
    values = {}
    e, h = spec.embed_dim, spec.hidden_dim
    facto = spec.facto
    tt_by_gate = {}
    if spec.tensorized:
        for gate in spec.gates:
            ttm = random_tt(facto, spec.tt_ranks, rng.split(seed, _gate_name("w", gate)))
            for k, core in enumerate(ttm.cores):
                tt_by_gate["%s.core%d" % (_gate_name("w", gate), k)] = core

    for name, shape in weight_templates(spec):
        if name in tt_by_gate:
            values[name] = Variable(tt_by_gate[name])
            continue
        wseed = rng.split(seed, name)
        if name == "embedding":
            std = (1.0 / e) ** 0.5
        elif name.startswith("w"):
            std = (2.0 / (e + h)) ** 0.5
        elif name.startswith("u"):
            std = (1.0 / shape[1]) ** 0.5
        elif name == "head_w":
            std = (2.0 / (shape[0] + shape[1])) ** 0.5
        else:  # biases
            values[name] = Variable(_wrap(np.zeros(shape)))
            continue
        n = int(np.prod(shape))
        values[name] = Variable(_wrap(rng.normal(wseed, n, stddev=std).reshape(shape)))
    return CellWeights(spec, values)


@dataclass
class CellState:
    h: Variable
    c: Variable | None = None  # lstm family
    y: Variable | None = None  # jordan output feedback


def _state_parts(spec: CellSpec):
    """(field, width) of each CellState part the family carries, in order."""
    extra = {"lstm": (("c", spec.hidden_dim),), "jordan": (("y", spec.num_classes),)}
    return (("h", spec.hidden_dim),) + extra.get(spec.family, ())


def init_state(spec: CellSpec, batch: int | None = None) -> CellState:
    def zeros(width):
        return Variable(_wrap(np.zeros((width,) if batch is None else (batch, width))))

    return CellState(**{name: zeros(width) for name, width in _state_parts(spec)})


def head_probs(tape: Tape, weights: CellWeights, h: Variable) -> Variable:
    logits = ad.affine(tape, weights["head_w"], h, weights["head_b"])
    return ad.softmax(tape, logits)


def _recurrence(tape, spec, weights, xs, lengths, batch, state=None):
    """Run the whole recurrence over xs once; part(name) emits one final state part.

    xs holds the real tokens packed time-major ((Σ lengths, E), or (E,)
    for one step of one row), lengths is each row's number of steps ((B,);
    (1,) when batch is None), state None means zeros.  TT kinds first
    rebuild each gate's dense W with `ad.tt_weight`.  Each part(name) call
    emits one record holding that part (h, c or y) uncopied; it reads every
    input in recurrence.run's adjoint order and pulls with None for the
    other parts' adjoints.  BPTT is linear in them, so the records of
    several parts add up to the joint gradient.
    """
    gates = spec.gates
    if spec.tensorized:
        ws = [ad.tt_weight(tape, weights.tt_cores(g), spec.facto) for g in gates]
    else:
        ws = [weights[_gate_name("w", g)] for g in gates]
    us = [weights[_gate_name("u", g)] for g in gates]
    bs = [weights[_gate_name("b", g)] if spec.has_bias(g) else None for g in gates]
    head = [weights["head_w"], weights["head_b"]] if spec.family == "jordan" else []
    names = [name for name, _ in _state_parts(spec)]
    rows = len(lengths)
    if state is None:
        given = []
        state0 = [np.zeros((rows, width)) for _, width in _state_parts(spec)]
    else:
        given = [getattr(state, name) for name in names]
        state0 = [v.value.array.reshape(rows, -1) for v in given]

    def arrays(variables):
        return [None if v is None else v.value.array for v in variables]

    x = xs.value.array.reshape(-1, spec.embed_dim)
    final, pull = recurrence.run(
        spec.family, x, lengths, arrays(ws), arrays(us), arrays(bs), state0, arrays(head), tape.need_grad
    )
    inputs = [xs, *ws, *us, *(b for b in bs if b is not None), *head, *given]

    def part(name):
        value = final[names.index(name)]
        solve = ad.shared_pull(lambda g: pull([g.reshape(rows, -1) if n == name else None for n in names]))
        return tape.emit(
            _wrap(value if batch is not None else value.reshape(-1)),
            [(v, lambda g, k=k, v=v: solve(g)[k].reshape(v.value.shape)) for k, v in enumerate(inputs)],
        )

    return part


def step(tape: Tape, spec: CellSpec, weights: CellWeights, x: Variable, state: CellState):
    """One recurrent update.  Returns (new_state, class probabilities).

    x is an embedded input, (E,) or (B, E), and each state part the family
    carries must be (width,) or (B, width) to match; anything else raises
    ShapeMismatch.  This is a one-step run of the same fused op
    run_sequence uses.
    """
    batch = x.value.shape[0] if x.value.array.ndim == 2 else None
    lead = () if batch is None else (batch,)
    parts = [("input", x, spec.embed_dim)] + [(n, getattr(state, n), w) for n, w in _state_parts(spec)]
    for name, v, width in parts:
        shape = None if v is None else v.value.shape
        if shape != lead + (width,):
            raise ShapeMismatch("step %s has shape %r, expected %r" % (name, shape, lead + (width,)))
    lengths = np.ones(1 if batch is None else batch, dtype=np.int64)
    part = _recurrence(tape, spec, weights, x, lengths, batch, state)
    state = CellState(**{name: part(name) for name, _ in _state_parts(spec)})
    return state, state.y if spec.family == "jordan" else head_probs(tape, weights, state.h)


def run_sequence(
    tape: Tape,
    spec: CellSpec,
    weights: CellWeights,
    token_ids,
    mask=None,
) -> Variable:
    """Run embedded tokens through the cell; return final class probabilities.

    token_ids is an int array, (T,) for one sequence or (B, T) for a
    batch.  mask, if given, has the same shape and must be 1 on a prefix
    of each row (its real tokens) and 0 after it (padding); anything else
    raises ShapeMismatch.  Only the real tokens are embedded and run,
    packed time-major, so the returned probabilities correspond to each
    sequence's last real token.  Raises EmptySequence when there is
    nothing to run.
    """
    ids = np.asarray(token_ids)
    if ids.dtype.kind not in "iu":
        raise ShapeMismatch("token ids must be integers")
    if ids.ndim not in (1, 2):
        raise ShapeMismatch("token ids must be (T,) or (B, T), got %r" % (ids.shape,))
    steps = ids.shape[-1]
    if steps == 0:
        raise EmptySequence("no tokens to run")
    rows = ids.reshape(-1, steps)
    lengths = np.full(len(rows), steps)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != ids.shape:
            raise ShapeMismatch(
                "mask shape %r does not match ids %r" % (mask.shape, ids.shape)
            )
        lengths = (mask == 1.0).sum(axis=-1).reshape(-1)
    running = np.arange(steps) < lengths[:, None]
    if mask is not None and not np.array_equal(mask.reshape(running.shape), running):
        raise ShapeMismatch("mask must be 1 on a prefix of each row and 0 after it")
    if lengths.min() == 0:
        raise EmptySequence("sequence with no unmasked tokens")

    xs = ad.embed(tape, weights["embedding"], rows.T[running.T])  # (Σ lengths, E), time-major
    batch = ids.shape[0] if ids.ndim == 2 else None
    part = _recurrence(tape, spec, weights, xs, lengths, batch)
    if spec.family == "jordan":  # its head ran inside the recurrence: y is the probabilities
        return part("y")
    return head_probs(tape, weights, part("h"))


def classify(spec: CellSpec, weights: CellWeights, token_ids, mask=None):
    """Predicted class index (or index array) for encoded tokens."""
    probs = run_sequence(Tape(need_grad=False), spec, weights, token_ids, mask=mask)
    return np.argmax(probs.value.array, axis=-1)
