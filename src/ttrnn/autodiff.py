"""Define-by-run reverse-mode differentiation on DenseTensor values.

Ops execute eagerly and append a record to a Tape: the output Variable
plus, per input, a pull function mapping the output adjoint to that
input's adjoint contribution.  backward() consumes the tape, popping the
records in reverse so each one's buffers are freed before earlier pulls
allocate theirs, and adds each leaf's adjoint (a leaf is a Variable no
record on the tape produced, such as a weight or an input) into its
.grad.  Backward on fresh tapes accumulates (two identical runs leave
exactly twice the gradient); a second backward on one tape, or one on a
Tape(need_grad=False), which records nothing and serves evaluation and
prediction, raises NotRecorded.  Variables the tape produced keep .grad
None: their adjoints live only in backward's table.

Values may be single vectors or batches with a leading batch axis, so
sequence models can run whole minibatches through one tape; affine and
tt_linear run a vector as a one-row batch.  sigmoid and softmax run the
tensor module's kernels, as the fused recurrence does.  The cell runner
puts only a few records on a tape per batch: the embedding lookup,
`tt_weight` per tensor-train gate, one fused record for the whole
recurrence per state part read (cells and recurrence modules), the head
and the loss.  The per-step ops (sigmoid, tanh, add, hadamard, one_minus,
blend, tt_linear) remain as the reference the fused recurrence is tested
against, and because the benchmark tracer (perfbench/spans.py) wraps
them by name.
"""

from __future__ import annotations

import numpy as np

from .errors import NotRecorded, NotScalar, ShapeMismatch
from .tensor import DenseTensor, _wrap, logistic, softmax_adjoint, softmax_rows
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
    """The records of the ops run on it, for one backward.

    A Tape(need_grad=False) records nothing, like code under torch.no_grad:
    ops compute their values, but their pulls, and what the pulls would
    read, die with the op.  The fused recurrence then keeps no BPTT buffers.
    """

    def __init__(self, need_grad: bool = True):
        self.need_grad = need_grad
        self.records = []  # (out Variable, [(in Variable, pull fn)])

    def emit(self, value: DenseTensor, pulls) -> Variable:
        out = Variable(value)
        if self.need_grad:
            self.records.append((out, list(pulls)))
        return out


def backward(tape: Tape, loss: Variable):
    """Accumulate d(loss)/d(leaf) into .grad for every leaf the loss reaches.

    A leaf is a Variable that no record on this tape produced.  Each record
    is popped as soon as its pulls have run, so its buffers are freed during
    the pass and the tape is left empty.  Raises NotRecorded, changing no
    .grad, unless a record on the tape produced the loss.
    """
    if loss.value.shape != ():
        raise NotScalar("loss must be a scalar, got shape %r" % (loss.value.shape,))
    if not any(out is loss for out, _ in tape.records):
        raise NotRecorded("no record on this tape produced the loss; a tape serves one backward")
    # id -> (Variable, adjoint, whether the adjoint is the array a pull was handed)
    table = {id(loss): (loss, np.array(1.0), False)}
    while tape.records:
        out, pulls = tape.records.pop()
        if id(out) in table:
            g = table.pop(id(out))[1]
            for src, pull in pulls:
                c = pull(g)
                held = table.get(id(src))
                table[id(src)] = (src, c, c is g) if held is None else (src, held[1] + c, False)
    for src, g, borrowed in table.values():
        # a fresh array that owns its data and no pull was handed is kept uncopied
        src.add_grad(g, copy=borrowed or g.base is not None or not g.flags.writeable)


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
    y = logistic(a.value.array.copy())
    return tape.emit(_wrap(y), [(a, lambda g: g * y * (1.0 - y))])


def tanh(tape: Tape, a: Variable) -> Variable:
    y = np.tanh(a.value.array)
    return tape.emit(_wrap(y), [(a, lambda g: g * (1.0 - y * y))])


def affine(tape: Tape, w: Variable, x: Variable, b: Variable | None = None) -> Variable:
    """w @ x (+ b).  x is a batch (B, E) or a vector (E,), run as one row; w is (H, E)."""
    wa = w.value.array
    xa = x.value.array
    if wa.ndim != 2:
        raise ShapeMismatch("weight must be rank 2, got %r" % (w.value.shape,))
    if xa.ndim not in (1, 2) or xa.shape[-1] != wa.shape[1]:
        raise ShapeMismatch(
            "input shape %r does not match weight %r" % (x.value.shape, w.value.shape)
        )
    h, e = wa.shape
    x2 = xa.reshape(-1, e)
    y = x2 @ wa.T
    pulls = [
        (w, lambda g: g.reshape(-1, h).T @ x2),
        (x, lambda g: (g.reshape(-1, h) @ wa).reshape(xa.shape)),
    ]
    if b is not None:
        ba = b.value.array
        if ba.shape != (h,):
            raise ShapeMismatch("bias shape %r does not match weight rows %d" % (b.value.shape, h))
        y += ba
        pulls.append((b, lambda g: g.reshape(-1, h).sum(axis=0)))
    return tape.emit(_wrap(y.reshape(xa.shape[:-1] + (h,))), pulls)


def tt_linear(tape: Tape, cores, facto, ranks, x: Variable) -> Variable:
    """Apply a tensor-train matrix held as per-core Variables.

    cores is a sequence of Variables shaped like TTMatrix cores.  x may be
    (B, N), giving (B, M), or (N,), run as one row, giving (M,).  All core
    gradients and the input gradient come from one reverse contraction.
    """
    xa = x.value.array
    if xa.ndim not in (1, 2) or xa.shape[-1] != facto.cols:
        raise ShapeMismatch(
            "input shape %r does not match tt matrix cols %d" % (x.value.shape, facto.cols)
        )
    arrays = [c.value.array for c in cores]
    trace = _ApplyTrace()
    y = tt_apply_batch(arrays, facto.in_modes, ranks, xa.reshape(-1, facto.cols), trace)

    @shared_pull
    def solve(g):
        g2 = g.reshape(-1, facto.rows)
        return tt_apply_backward_batch(arrays, facto.in_modes, ranks, trace, g2)

    pulls = [(c, lambda g, k=k: solve(g)[0][k]) for k, c in enumerate(cores)]
    pulls.append((x, lambda g: solve(g)[1].reshape(xa.shape)))
    return tape.emit(_wrap(y.reshape(xa.shape[:-1] + (facto.rows,))), pulls)


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
    y = softmax_rows(a.value.array.copy())
    return tape.emit(_wrap(y), [(a, lambda g: softmax_adjoint(y, g))])


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
