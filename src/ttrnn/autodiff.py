"""Define-by-run reverse-mode differentiation on DenseTensor values.

Ops execute eagerly and append a record to a Tape: the output Variable
plus, per input, a pull function mapping the output adjoint to that
input's adjoint contribution.  backward() walks the tape once in reverse
with a local adjoint table seeded at 1.0 for the loss, then adds the
results into the .grad of each leaf (a Variable no record on the tape
produced, such as a weight or an input), so repeated backward calls
accumulate (two identical calls leave exactly twice the gradient).
Variables the tape produced keep .grad None: their adjoints live only
in the table.  On a Tape(retain_graph=False), as training uses, backward
pops each record once its pulls have run, so a record's buffers are freed
before the earlier records' pulls allocate theirs.  A Tape(need_grad=False),
as evaluation and prediction use, records nothing.

Values may be single vectors or batches with a leading batch axis; every
op handles both so sequence models can run whole minibatches through one
tape.  The cell runner puts only a few records on a tape per batch: the
embedding lookup, `tt_weight` per tensor-train gate, one fused record
for the whole recurrence per state part read (cells and recurrence
modules), the head and the loss.  The per-step ops (sigmoid, tanh, add,
hadamard, one_minus, blend, tt_linear) remain as the reference the fused
recurrence is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import NotScalar, ShapeMismatch
from .tensor import DenseTensor, _wrap, sigmoid_array
from .ttcore import (
    _ApplyTrace,
    tt_apply_backward_batch,
    tt_apply_batch,
    tt_dense,
    tt_dense_backward,
)


class Variable:
    """A tensor tracked for differentiation.

    .grad is None until a backward pass deposits something, then a float64
    array of the value's shape that only ever grows by addition.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: DenseTensor):
        if not isinstance(value, DenseTensor):
            value = DenseTensor(value)
        self.value = value
        self.grad = None

    def add_grad(self, g: np.ndarray, copy: bool = True):
        """Add g to .grad.  A first g is copied unless copy=False says
        that nothing else holds it, in which case .grad becomes g itself."""
        if g.shape != self.value.shape:
            raise ShapeMismatch(
                "gradient shape %r does not match value shape %r"
                % (g.shape, self.value.shape)
            )
        if self.grad is not None:
            self.grad = self.grad + g
        else:
            self.grad = g + 0.0 if copy else g

    def zero_grad(self):
        self.grad = None


class Tape:
    """The records of the ops run on it, for backward.

    A Tape(need_grad=False) records nothing, like code under torch.no_grad:
    ops compute their values, but their pulls, and what the pulls would
    read, die with the op.  The fused recurrence then keeps no BPTT buffers.
    On a Tape(retain_graph=False), like torch's backward(retain_graph=False),
    backward pops each record as soon as its pulls have run and leaves the
    tape empty.
    """

    def __init__(self, need_grad: bool = True, retain_graph: bool = True):
        self.need_grad = need_grad
        self.retain_graph = retain_graph
        self.records = []  # (out Variable, [(in Variable, pull fn)])

    def emit(self, value: DenseTensor, pulls) -> Variable:
        out = Variable(value)
        if self.need_grad:
            self.records.append((out, list(pulls)))
        return out


def backward(tape: Tape, loss: Variable):
    """Accumulate d(loss)/d(leaf) into .grad for every leaf the loss reaches.

    A leaf is a Variable that no record on this tape produced.  Adjoints of
    produced Variables are consumed on the way and never stored.  If the
    tape was made with retain_graph=False, each record is popped off it as
    soon as its pulls have run, so the buffers it holds are freed during
    the pass and the tape is left empty.
    """
    if loss.value.shape != ():
        raise NotScalar("loss must be a scalar, got shape %r" % (loss.value.shape,))
    adjoint = {id(loss): np.array(1.0)}
    holders = {id(loss): loss}
    borrowed = set()  # keys whose adjoint is an array a pull was handed
    records = tape.records
    for out, pulls in reversed(records) if tape.retain_graph else (records.pop() for _ in range(len(records))):
        g = adjoint.pop(id(out), None)
        if g is None:
            continue
        holders.pop(id(out), None)
        for src, pull in pulls:
            contribution = pull(g)
            key = id(src)
            held = adjoint.get(key)
            if held is None:
                adjoint[key] = contribution
                holders[key] = src
                if contribution is g:
                    borrowed.add(key)
            else:
                adjoint[key] = held + contribution
                borrowed.discard(key)
    for key, g in adjoint.items():
        # a fresh array that owns its data and no pull was handed is kept uncopied
        owned = key not in borrowed and g.base is None and g.flags.writeable
        holders[key].add_grad(g, copy=not owned)


def zero_grads(variables):
    for v in variables:
        v.zero_grad()


def shared_pull(solve):
    """solve(g), computed once per adjoint g and shared by all of a record's pulls."""
    memo = {"for": None, "result": None}

    def cached(g):
        if memo["for"] is not g:
            memo["result"] = solve(g)
            memo["for"] = g
        return memo["result"]

    return cached


# ---------------------------------------------------------------------------
# ops


def _same_shape(a: Variable, b: Variable):
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(
            "operand shapes differ: %r vs %r" % (a.value.shape, b.value.shape)
        )


def add(tape: Tape, a: Variable, b: Variable) -> Variable:
    _same_shape(a, b)
    out = _wrap(a.value.array + b.value.array)
    return tape.emit(out, [(a, lambda g: g), (b, lambda g: g)])


def hadamard(tape: Tape, a: Variable, b: Variable) -> Variable:
    _same_shape(a, b)
    av, bv = a.value.array, b.value.array
    out = _wrap(av * bv)
    return tape.emit(out, [(a, lambda g: g * bv), (b, lambda g: g * av)])


def one_minus(tape: Tape, a: Variable) -> Variable:
    out = _wrap(1.0 - a.value.array)
    return tape.emit(out, [(a, lambda g: -g)])


def sigmoid(tape: Tape, a: Variable) -> Variable:
    y = sigmoid_array(a.value.array)
    return tape.emit(_wrap(y), [(a, lambda g: g * y * (1.0 - y))])


def tanh(tape: Tape, a: Variable) -> Variable:
    y = np.tanh(a.value.array)
    return tape.emit(_wrap(y), [(a, lambda g: g * (1.0 - y * y))])


def affine(tape: Tape, w: Variable, x: Variable, b: Variable | None = None) -> Variable:
    """w @ x (+ b).  x may be a vector (E,) or a batch (B, E); w is (H, E)."""
    wa = w.value.array
    xa = x.value.array
    if wa.ndim != 2:
        raise ShapeMismatch("weight must be rank 2, got %r" % (w.value.shape,))
    if xa.ndim not in (1, 2) or xa.shape[-1] != wa.shape[1]:
        raise ShapeMismatch(
            "input shape %r does not match weight %r" % (x.value.shape, w.value.shape)
        )
    batched = xa.ndim == 2
    y = xa @ wa.T if batched else wa @ xa
    if b is not None:
        ba = b.value.array
        if ba.shape != (wa.shape[0],):
            raise ShapeMismatch(
                "bias shape %r does not match weight rows %d" % (b.value.shape, wa.shape[0])
            )
        y = y + ba
    if batched:
        pulls = [(w, lambda g: g.T @ xa), (x, lambda g: g @ wa)]
        if b is not None:
            pulls.append((b, lambda g: g.sum(axis=0)))
    else:
        pulls = [(w, lambda g: np.outer(g, xa)), (x, lambda g: wa.T @ g)]
        if b is not None:
            pulls.append((b, lambda g: g))
    return tape.emit(_wrap(y), pulls)


def tt_linear(tape: Tape, cores, facto, ranks, x: Variable) -> Variable:
    """Apply a tensor-train matrix held as per-core Variables.

    cores is a sequence of Variables shaped like TTMatrix cores.  x may be
    (N,) or (B, N); the result is (M,) or (B, M).  All core gradients and
    the input gradient come from one shared reverse contraction.
    """
    xa = x.value.array
    if xa.ndim not in (1, 2) or xa.shape[-1] != facto.cols:
        raise ShapeMismatch(
            "input shape %r does not match tt matrix cols %d" % (x.value.shape, facto.cols)
        )
    batched = xa.ndim == 2
    x2d = xa if batched else xa.reshape(1, -1)
    arrays = [c.value.array for c in cores]
    trace = _ApplyTrace()
    y2d = tt_apply_batch(arrays, facto.in_modes, ranks, x2d, trace)
    out = _wrap(y2d if batched else y2d.reshape(-1))

    @shared_pull
    def solve(g):
        g2d = g if batched else g.reshape(1, -1)
        return tt_apply_backward_batch(arrays, facto.in_modes, ranks, trace, g2d)

    pulls = [(c, lambda g, k=k: solve(g)[0][k]) for k, c in enumerate(cores)]
    if batched:
        pulls.append((x, lambda g: solve(g)[1]))
    else:
        pulls.append((x, lambda g: solve(g)[1].reshape(-1)))
    return tape.emit(out, pulls)


def tt_weight(tape: Tape, cores, facto) -> Variable:
    """The dense (M, N) matrix of a tensor-train map held as per-core Variables.

    Built once per call from the cores; the pull projects the matrix
    adjoint onto every core through left and right partial products of
    the chain (ttcore.tt_dense_backward).
    """
    arrays = [c.value.array for c in cores]
    solve = shared_pull(lambda g: tt_dense_backward(arrays, facto, g))
    pulls = [(c, lambda g, k=k: solve(g)[k]) for k, c in enumerate(cores)]
    return tape.emit(_wrap(tt_dense(arrays, facto)), pulls)


def embed(tape: Tape, table: Variable, token_ids) -> Variable:
    """Row lookup into an embedding table (V, E).

    token_ids may be a python int (giving (E,)) or an integer array
    (giving ids.shape + (E,)).  The pull scatter-adds, so repeated ids
    accumulate correctly.
    """
    ta = table.value.array
    shape = ta.shape  # the pull needs no more: an optimizer may replace ta while the tape lives
    if ta.ndim != 2:
        raise ShapeMismatch("embedding table must be rank 2, got %r" % (table.value.shape,))
    ids = np.asarray(token_ids)
    if ids.dtype.kind not in "iu":
        raise ShapeMismatch("token ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= ta.shape[0]):
        raise ShapeMismatch(
            "token id out of range for table with %d rows" % ta.shape[0]
        )
    out = _wrap(np.ascontiguousarray(ta[ids]))

    def pull(g):
        dt = np.zeros(shape)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, shape[1]))
        return dt

    return tape.emit(out, [(table, pull)])


def blend(tape: Tape, mask, a: Variable, b: Variable) -> Variable:
    """mask * a + (1 - mask) * b with a constant, broadcastable 0/1 mask.

    Used to freeze finished sequences in a padded batch: where the mask is
    0 the old state flows through untouched, value and gradient both.
    """
    _same_shape(a, b)
    m = np.asarray(mask, dtype=np.float64)
    out = _wrap(m * a.value.array + (1.0 - m) * b.value.array)
    return tape.emit(
        out,
        [(a, lambda g: g * m), (b, lambda g: g * (1.0 - m))],
    )


def softmax(tape: Tape, a: Variable) -> Variable:
    za = a.value.array
    shifted = za - za.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def pull(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot)

    return tape.emit(_wrap(y), [(a, pull)])


def sum_all(tape: Tape, a: Variable) -> Variable:
    out = _wrap(np.array(a.value.array.sum()))
    return tape.emit(out, [(a, lambda g: np.full(a.value.shape, float(g)))])


def cross_entropy_mean(tape: Tape, probs: Variable, labels) -> Variable:
    """Mean negative log likelihood over a batch: probs (B, C), labels (B,)."""
    pa = probs.value.array
    labels = np.asarray(labels, dtype=np.int64)
    if pa.ndim != 2 or labels.shape != (pa.shape[0],):
        raise ShapeMismatch(
            "need probs (B, C) and labels (B,), got %r and %r"
            % (probs.value.shape, labels.shape)
        )
    if labels.size and (labels.min() < 0 or labels.max() >= pa.shape[1]):
        raise ShapeMismatch("label out of range for %d classes" % pa.shape[1])
    rows = np.arange(pa.shape[0])
    picked = pa[rows, labels] + 1e-12
    out = _wrap(np.array(-np.log(picked).mean()))

    def pull(g):
        d = np.zeros(pa.shape)
        d[rows, labels] = -float(g) / (pa.shape[0] * picked)
        return d

    return tape.emit(out, [(probs, pull)])
