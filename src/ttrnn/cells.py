"""Recurrent cells for sequence classification, dense and tensor-train.

Seven cell kinds share one interface.  Dense kinds: elman (hidden-state
feedback), jordan (output feedback), lstm, gru.  Tensorized kinds t_rnn,
t_lstm, t_gru replace every input-to-hidden matrix with a tensor-train
matrix applied core by core; recurrent matrices, biases, the embedding
and the softmax head stay dense, so the compression targets exactly the
weights that scale with the input width.

A cell owns its whole parameter set: embedding table, per-gate input and
recurrent maps, biases, and the class head.  Steps run on a Tape and
accept single vectors or batches.  run_sequence embeds all tokens in one
lookup, applies the head-less update `advance` per step, and computes the
head once from the final state (jordan, which feeds its output back, at
every step).  An optional 0/1 mask freezes state (value and gradient) on
padded positions, and the runner stops at the last real token.

Gate naming: gru uses r (reset), z (update), d (candidate); lstm uses
k (input), f (forget), o (output), g (candidate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import rng
from .autodiff import Tape, Variable
from .errors import EmptySequence, ShapeMismatch
from .tensor import _wrap
from .ttcore import ModeFactorization, check_ranks, random_tt

KINDS = ("elman", "jordan", "lstm", "gru", "t_rnn", "t_lstm", "t_gru")
TENSORIZED = ("t_rnn", "t_lstm", "t_gru")

_GATES = {
    "elman": ("",),
    "jordan": ("",),
    "t_rnn": ("",),
    "gru": ("r", "z", "d"),
    "t_gru": ("r", "z", "d"),
    "lstm": ("k", "f", "o", "g"),
    "t_lstm": ("k", "f", "o", "g"),
}


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
    def gates(self) -> tuple:
        return _GATES[self.kind]

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
    facto = spec.facto
    for gate in spec.gates:
        if spec.tensorized:
            for k in range(facto.order):
                shape = (
                    facto.out_modes[k],
                    facto.in_modes[k],
                    spec.tt_ranks[k],
                    spec.tt_ranks[k + 1],
                )
                out.append(("%s.core%d" % (_gate_name("w", gate), k), shape))
        else:
            out.append((_gate_name("w", gate), (h, e)))
        feedback = c if spec.kind == "jordan" else h
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


def init_state(spec: CellSpec, batch: int | None = None) -> CellState:
    def zeros(width):
        shape = (width,) if batch is None else (batch, width)
        return Variable(_wrap(np.zeros(shape)))

    state = CellState(h=zeros(spec.hidden_dim))
    if spec.kind in ("lstm", "t_lstm"):
        state.c = zeros(spec.hidden_dim)
    if spec.kind == "jordan":
        state.y = zeros(spec.num_classes)
    return state


def _input_map(tape: Tape, spec: CellSpec, weights: CellWeights, gate: str, x: Variable):
    if spec.tensorized:
        return ad.tt_linear(tape, weights.tt_cores(gate), spec.facto, spec.tt_ranks, x)
    return ad.affine(tape, weights[_gate_name("w", gate)], x)


def _gate_preact(tape, spec, weights, gate, x, recur_in):
    """W_gate x + U_gate recur_in + b_gate (bias omitted where absent)."""
    bias = weights[_gate_name("b", gate)] if spec.has_bias(gate) else None
    rec = ad.affine(tape, weights[_gate_name("u", gate)], recur_in, bias)
    return ad.add(tape, _input_map(tape, spec, weights, gate, x), rec)


def head_probs(tape: Tape, weights: CellWeights, h: Variable) -> Variable:
    logits = ad.affine(tape, weights["head_w"], h, weights["head_b"])
    return ad.softmax(tape, logits)


def advance(tape: Tape, spec: CellSpec, weights: CellWeights, x: Variable, state: CellState) -> CellState:
    """One recurrent update without the class head (jordan needs it as y)."""
    kind = spec.kind
    if kind in ("elman", "t_rnn"):
        return CellState(h=ad.tanh(tape, _gate_preact(tape, spec, weights, "", x, state.h)))
    if kind == "jordan":
        h = ad.tanh(tape, _gate_preact(tape, spec, weights, "", x, state.y))
        return CellState(h=h, y=head_probs(tape, weights, h))
    if kind in ("gru", "t_gru"):
        r = ad.sigmoid(tape, _gate_preact(tape, spec, weights, "r", x, state.h))
        z = ad.sigmoid(tape, _gate_preact(tape, spec, weights, "z", x, state.h))
        gated = ad.hadamard(tape, r, state.h)
        d = ad.tanh(tape, _gate_preact(tape, spec, weights, "d", x, gated))
        keep = ad.hadamard(tape, ad.one_minus(tape, z), state.h)
        return CellState(h=ad.add(tape, keep, ad.hadamard(tape, z, d)))
    # lstm family
    k = ad.sigmoid(tape, _gate_preact(tape, spec, weights, "k", x, state.h))
    f = ad.sigmoid(tape, _gate_preact(tape, spec, weights, "f", x, state.h))
    o = ad.sigmoid(tape, _gate_preact(tape, spec, weights, "o", x, state.h))
    g = ad.tanh(tape, _gate_preact(tape, spec, weights, "g", x, state.h))
    c = ad.add(tape, ad.hadamard(tape, f, state.c), ad.hadamard(tape, k, g))
    return CellState(h=ad.hadamard(tape, o, ad.tanh(tape, c)), c=c)


def step(tape: Tape, spec: CellSpec, weights: CellWeights, x: Variable, state: CellState):
    """One recurrent update.  Returns (new_state, class probabilities).

    x is an embedded input, (E,) or (B, E); the state must match.
    """
    state = advance(tape, spec, weights, x, state)
    return state, _probs(tape, spec, weights, state)


def _probs(tape, spec, weights, state: CellState) -> Variable:
    return state.y if spec.kind == "jordan" else head_probs(tape, weights, state.h)


def _blend_state(tape, m, new: CellState, old: CellState) -> CellState:
    out = CellState(h=ad.blend(tape, m, new.h, old.h))
    if new.c is not None:
        out.c = ad.blend(tape, m, new.c, old.c)
    if new.y is not None:
        out.y = ad.blend(tape, m, new.y, old.y)
    return out


def run_sequence(
    tape: Tape,
    spec: CellSpec,
    weights: CellWeights,
    token_ids,
    mask=None,
) -> Variable:
    """Run embedded tokens through the cell; return final class probabilities.

    token_ids is an int array, (T,) for one sequence or (B, T) for a
    batch.  mask, if given, has the same shape with 1 on real tokens and 0
    on padding; masked positions leave the state untouched so the returned
    probabilities correspond to each sequence's last real token.  Raises
    EmptySequence when there is nothing to run.
    """
    ids = np.asarray(token_ids)
    if ids.dtype.kind not in "iu":
        raise ShapeMismatch("token ids must be integers")
    if ids.ndim not in (1, 2):
        raise ShapeMismatch("token ids must be (T,) or (B, T), got %r" % (ids.shape,))
    batched = ids.ndim == 2
    steps = ids.shape[-1]
    if steps == 0:
        raise EmptySequence("no tokens to run")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != ids.shape:
            raise ShapeMismatch(
                "mask shape %r does not match ids %r" % (mask.shape, ids.shape)
            )
        totals = mask.sum(axis=-1)
        if np.any(totals == 0):
            raise EmptySequence("sequence with no unmasked tokens")
        # masked steps are the identity: stop after the last real column
        steps = int(np.flatnonzero(mask.reshape(-1, steps).any(axis=0))[-1]) + 1

    xs = ad.embed(tape, weights["embedding"], ids[..., :steps].T)  # (T, [B,] E)
    state = init_state(spec, batch=ids.shape[0] if batched else None)
    for t in range(steps):
        new_state = advance(tape, spec, weights, ad.take(tape, xs, t), state)
        if mask is None:
            state = new_state
        else:
            m = mask[..., t : t + 1] if batched else mask[t]
            state = _blend_state(tape, m, new_state, state)
    return _probs(tape, spec, weights, state)


def classify(spec: CellSpec, weights: CellWeights, token_ids, mask=None):
    """Predicted class index (or index array) for encoded tokens."""
    probs = run_sequence(Tape(), spec, weights, token_ids, mask=mask)
    return np.argmax(probs.value.array, axis=-1)
