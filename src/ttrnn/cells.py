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
on the tape per batch: one embedding lookup of all tokens, for TT kinds
one `tt_weight` per gate that rebuilds the dense W from the cores, one
record for the whole recurrence (the fused forward and analytic BPTT of
the recurrence module), and the head once from the final state (jordan,
which feeds its output back, runs its head inside the recurrence).  An
optional 0/1 mask freezes state (value and gradient) on padded
positions, and the runner stops at the last real token.  step is a
one-step run of the same record, so chained steps stay differentiable.

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


def _state_parts(spec: CellSpec):
    """(field, width) of each CellState part the family carries, in order."""
    h = ("h", spec.hidden_dim)
    if spec.kind in ("lstm", "t_lstm"):
        return (h, ("c", spec.hidden_dim))
    if spec.kind == "jordan":
        return (h, ("y", spec.num_classes))
    return (h,)


def init_state(spec: CellSpec, batch: int | None = None) -> CellState:
    def zeros(width):
        return Variable(_wrap(np.zeros((width,) if batch is None else (batch, width))))

    return CellState(**{name: zeros(width) for name, width in _state_parts(spec)})


def head_probs(tape: Tape, weights: CellWeights, h: Variable) -> Variable:
    logits = ad.affine(tape, weights["head_w"], h, weights["head_b"])
    return ad.softmax(tape, logits)


def _recurrence(tape, spec, weights, xs, batch, state=None, mask=None, keep=None) -> dict:
    """The whole recurrence over xs as one tape record; returns the final state.

    xs holds T steps of `batch` rows ((T, B, E); (T, E) or (E,) when batch
    is None), state None means zeros, mask is (T, B, 1) or None.  Returns
    {field: Variable} for the CellState fields in `keep` (default all);
    the op emits them packed in one Variable, split by `ad.columns` when
    there are several.  TT kinds first rebuild each gate's dense W with
    `ad.tt_weight`.
    """
    gates, n = spec.gates, spec.hidden_dim
    if spec.tensorized:
        ws = [ad.tt_weight(tape, weights.tt_cores(g), spec.facto) for g in gates]
    else:
        ws = [weights[_gate_name("w", g)] for g in gates]
    us = [weights[_gate_name("u", g)] for g in gates]
    bs = [weights[_gate_name("b", g)] if spec.has_bias(g) else None for g in gates]
    head = [weights["head_w"], weights["head_b"]] if spec.kind == "jordan" else []
    parts = _state_parts(spec)
    keep = [name for name, _ in parts] if keep is None else list(keep)
    rows = 1 if batch is None else batch
    if state is None:
        given = []
        state0 = tuple(np.zeros((rows, width)) for _, width in parts)
    else:
        given = [getattr(state, name) for name, _ in parts]
        state0 = tuple(v.value.array.reshape(rows, -1) for v in given)

    final, pull = recurrence.run(
        recurrence.FAMILY[spec.kind],
        xs.value.array.reshape(-1, rows, spec.embed_dim),
        np.concatenate([v.value.array for v in ws]),
        np.concatenate([v.value.array for v in us]),
        np.concatenate([np.zeros(n) if v is None else v.value.array for v in bs]),
        state0,
        mask,
        tuple(v.value.array for v in head),
    )
    kept = [(i, name, width) for i, (name, width) in enumerate(parts) if name in keep]
    packed = np.concatenate([final[i] for i, _, _ in kept], axis=1)

    @ad.shared_pull
    def solve(g):
        d_final, g, start = [np.zeros_like(a) for a in final], g.reshape(rows, -1), 0
        for i, _, width in kept:
            d_final[i], start = g[:, start : start + width], start + width
        return pull(tuple(d_final))

    def rows_of(key, i):
        return lambda g: solve(g)[key][i * n : (i + 1) * n]

    pulls = [(xs, lambda g: solve(g)["x"].reshape(xs.value.shape))]
    for key, variables in (("w", ws), ("u", us), ("b", bs)):
        pulls += [(v, rows_of(key, i)) for i, v in enumerate(variables) if v is not None]
    pulls += [(v, lambda g, i=i: solve(g)["head"][i]) for i, v in enumerate(head)]
    pulls += [
        (v, lambda g, i=i, v=v: solve(g)["state"][i].reshape(v.value.shape))
        for i, v in enumerate(given)
    ]
    out = tape.emit(_wrap(packed if batch is not None else packed.reshape(-1)), pulls)
    if len(kept) == 1:
        return {kept[0][1]: out}
    result, start = {}, 0
    for _, name, width in kept:
        result[name], start = ad.columns(tape, out, start, start + width), start + width
    return result


def step(tape: Tape, spec: CellSpec, weights: CellWeights, x: Variable, state: CellState):
    """One recurrent update.  Returns (new_state, class probabilities).

    x is an embedded input, (E,) or (B, E); the state must match.  This is
    a one-step run of the same fused op run_sequence uses.
    """
    batch = x.value.shape[0] if x.value.array.ndim == 2 else None
    state = CellState(**_recurrence(tape, spec, weights, x, batch, state))
    return state, state.y if spec.kind == "jordan" else head_probs(tape, weights, state.h)


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
    if mask is not None:
        mask = mask[..., :steps].T.reshape(steps, -1, 1)
    batch = ids.shape[0] if batched else None
    if spec.kind == "jordan":  # its head ran inside the recurrence: y is the probabilities
        return _recurrence(tape, spec, weights, xs, batch, mask=mask, keep=("y",))["y"]
    h = _recurrence(tape, spec, weights, xs, batch, mask=mask, keep=("h",))["h"]
    return head_probs(tape, weights, h)


def classify(spec: CellSpec, weights: CellWeights, token_ids, mask=None):
    """Predicted class index (or index array) for encoded tokens."""
    probs = run_sequence(Tape(), spec, weights, token_ids, mask=mask)
    return np.argmax(probs.value.array, axis=-1)
