"""Fused recurrences: one forward and one analytic BPTT backward per cell family.

`run` takes a ragged batch packed time-major, as cuDNN and PyTorch pack
variable-length sequences: the rows run longest first, x holds only the
real tokens, (Σ lengths, E), and step t runs the first batch_sizes[t]
rows, a prefix, so each step reads and writes views of its rows.  It runs
one family's recurrence over x without a tape:

- one hoisted (Σ lengths, E) @ (E, G*H) GEMM gives every step's input
  pre-activations for all G gates, with the biases folded in;
- each step then does one stacked recurrent GEMM for the gates that share
  their recurrent input (all four lstm gates; gru's r and z, while its
  candidate reads r * h through its own GEMM) over its block's rows.  The
  rows that have stopped are not touched, so they keep their state in the
  forward pass and their adjoint in the backward pass.

Every per-step buffer is packed the same way, one row per real token.
The backward walks the steps in reverse, writes every step's pre-activation
adjoints over the packed (Σ lengths, G*H) input pre-activations, which the
forward no longer needs, and forms the W, U and b gradients as one GEMM
(or sum) each over them, plus one packed input adjoint.

Without need_grad, as evaluation runs it, nothing is kept for a backward:
every step writes the first rows of one (B, width) store instead of its
packed rows, the same loop with the same arithmetic, so the probabilities
are bitwise those of a training run.

Families and their state: elman (h), jordan (h, y; the class head runs
inside the recurrence and y feeds back), gru (h), lstm (h, c).  Gates come
in CellSpec order (gru r, z, d; lstm k, f, o, g); only this module stacks
them.  The logistic and jordan's softmax are the tensor module's kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .tensor import logistic, softmax_adjoint, softmax_rows


def _steps(batch_sizes, rows, need_grad):
    """Each step's (p, q, r) as basic slices, as run describes them."""
    sizes = [int(n) for n in batch_sizes]
    if sorted(sizes, reverse=True) != sizes or sum(sizes) != rows:
        raise ShapeMismatch("batch_sizes %r increase or do not sum to x's %d rows" % (sizes, rows))
    ends = np.cumsum(sizes).tolist()
    stores = ends if need_grad else sizes  # packed like x, or a prefix of one (B, width) store
    return [(slice(e - n, e), slice(s - n, s), slice(0, n)) for e, s, n in zip(ends, stores, sizes)]


def _elman(xg, u, state, steps, rows):
    h = state[0].copy()
    prev = np.empty((rows, h.shape[1]))
    hs = np.empty_like(prev)
    for p, q, r in steps:
        prev[q] = h[r]
        hs[q] = h[r] = np.tanh(xg[p] + prev[q] @ u.T)

    def grads(d_final):
        (dh,) = d_final
        da = xg
        for p, q, r in reversed(steps):
            da[p] = a = dh[r] * (1.0 - hs[q] * hs[q])
            dh[r] = a @ u
        return da, da.T @ prev, (dh,), ()

    return (h,), grads


def _jordan(xg, u, state, steps, rows, head_w, head_b):
    h, y = (s.copy() for s in state)
    prev_y = np.empty((rows, y.shape[1]))
    hs = np.empty((rows, h.shape[1]))
    ys = np.empty_like(prev_y)
    for p, q, r in steps:
        prev_y[q] = y[r]
        hs[q] = h[r] = np.tanh(xg[p] + prev_y[q] @ u.T)
        ys[q] = y[r] = softmax_rows(hs[q] @ head_w.T + head_b)

    def grads(d_final):
        dh, dy = d_final
        da = xg
        dlogits = np.empty_like(ys)
        for p, q, r in reversed(steps):
            dlogits[q] = dl = softmax_adjoint(ys[q], dy[r])
            da[p] = a = (dh[r] + dl @ head_w) * (1.0 - hs[q] * hs[q])
            dy[r] = a @ u
            dh[r] = 0.0  # h does not feed back, so it reaches no earlier step
        head = (dlogits.T @ hs, dlogits.sum(axis=0))
        return da, da.T @ prev_y, (dh, dy), head

    return (h, y), grads


def _gru(xg, u, state, steps, rows):
    h = state[0].copy()
    n = h.shape[-1]
    u_rz, u_d = u[: 2 * n], u[2 * n :]
    prev = np.empty((rows, n))
    rz = np.empty((rows, 2 * n))
    ds = np.empty_like(prev)
    for p, q, r in steps:
        prev[q] = hp = h[r]
        s = logistic(np.add(xg[p, : 2 * n], hp @ u_rz.T, out=rz[q]))
        z = s[:, n:]
        d = np.tanh(np.add(xg[p, 2 * n :], (s[:, :n] * hp) @ u_d.T, out=ds[q]), out=ds[q])
        h[r] = (1.0 - z) * hp + z * d

    def grads(d_final):
        (dh,) = d_final
        da = xg
        for p, q, r in reversed(steps):
            dn, s, d, hp, a = dh[r], rz[q], ds[q], prev[q], da[p]
            z = s[:, n:]
            a[:, 2 * n :] = dn * z * (1.0 - d * d)
            drh = a[:, 2 * n :] @ u_d
            a[:, :n] = drh * hp
            a[:, n : 2 * n] = dn * (d - hp)
            a[:, : 2 * n] *= s * (1.0 - s)
            dh[r] = dn * (1.0 - z) + drh * s[:, :n] + a[:, : 2 * n] @ u_rz
        du = np.concatenate((da[:, : 2 * n].T @ prev, da[:, 2 * n :].T @ (rz[:, :n] * prev)))
        return da, du, (dh,), ()

    return (h,), grads


def _lstm(xg, u, state, steps, rows):
    h, c = (s.copy() for s in state)
    n = h.shape[-1]
    prev_h = np.empty((rows, n))
    prev_c = np.empty_like(prev_h)
    kfo = np.empty((rows, 3 * n))
    gs = np.empty_like(prev_h)
    tcs = np.empty_like(prev_h)
    for p, q, r in steps:
        prev_h[q], prev_c[q] = h[r], c[r]
        pre = np.add(xg[p], prev_h[q] @ u.T, out=xg[p])
        kfo[q] = s = logistic(pre[:, : 3 * n])
        g = np.tanh(pre[:, 3 * n :], out=gs[q])
        c[r] = cn = s[:, n : 2 * n] * prev_c[q] + s[:, :n] * g
        np.multiply(s[:, 2 * n :], np.tanh(cn, out=tcs[q]), out=h[r])

    def grads(d_final):
        dh, dc = d_final
        da = xg
        for p, q, r in reversed(steps):
            dhn, s, g, tc, a = dh[r], kfo[q], gs[q], tcs[q], da[p]
            k, f, o = s[:, :n], s[:, n : 2 * n], s[:, 2 * n :]
            dcn = dc[r] + dhn * o * (1.0 - tc * tc)
            a[:, :n] = dcn * g
            a[:, n : 2 * n] = dcn * prev_c[q]
            a[:, 2 * n : 3 * n] = dhn * tc
            a[:, : 3 * n] *= s * (1.0 - s)
            a[:, 3 * n :] = dcn * k * (1.0 - g * g)
            dh[r] = a @ u
            dc[r] = dcn * f
        return da, da.T @ prev_h, (dh, dc), ()

    return (h, c), grads


_RUN = {"elman": _elman, "jordan": _jordan, "gru": _gru, "lstm": _lstm}


def run(family: str, x, batch_sizes, ws, us, bs, state, head=(), need_grad=True):
    """Run one family's recurrence over packed x; return (final state, pull).

    The rows run longest first: batch_sizes lists each step's number of
    running rows and must never increase, and x is (sum(batch_sizes), E),
    the real tokens packed time-major, else ShapeMismatch.  ws, us and bs
    list each gate's W (H, E), U (H, K) and bias (H,) or None; state is
    the family's list of (B, width) arrays, rows longest first; head is
    (head_w, head_b) for jordan, else empty.  pull maps the final state's
    adjoints (a list like state, None standing for zeros) to the adjoints
    of x (packed like x), each W, each U, each bias that is not None, head
    and state, as one list in that order.

    Each step is (p, q, r), basic slices: its packed rows p of x and xg,
    the rows q of the per-step store it writes and its batch rows r, the
    prefix [:batch_sizes[t]].  With need_grad the store is packed like x,
    q == p, and the backward reads it.  Without, pull is None and q == r
    over one (B, width) store, so nothing per token is kept beyond x and xg.
    """
    steps = _steps(batch_sizes, len(x), need_grad)
    w, u = np.concatenate(ws), np.concatenate(us)
    xg = x @ w.T
    xg += np.concatenate([np.zeros(len(v)) if b is None else b for v, b in zip(ws, bs)])
    final, grads = _RUN[family](xg, u, state, steps, len(x) if need_grad else len(state[0]), *head)
    if not need_grad:
        return final, None

    def pull(d_final):
        da, du, d_state, d_head = grads(
            [np.zeros_like(s) if d is None else np.array(d) for d, s in zip(d_final, final)]
        )
        per_gate = (len(ws), len(ws[0]))  # unstacks the gates' rows as views
        db = da.sum(axis=0).reshape(per_gate)
        return [
            da @ w,
            *(da.T @ x).reshape(per_gate + (-1,)),
            *du.reshape(per_gate + (-1,)),
            *(d for d, b in zip(db, bs) if b is not None),
            *d_head,
            *d_state,
        ]

    return final, pull
