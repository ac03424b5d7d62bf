"""Fused recurrences: one forward and one analytic BPTT backward per cell family.

`run` takes a whole time-major input sequence (T, B, E) and runs one
family's recurrence over it without a tape:

- one hoisted (T*B, E) @ (E, G*H) GEMM gives every step's input
  pre-activations for all G gates, with the biases folded in;
- each step then does one stacked recurrent GEMM for the gates that share
  their recurrent input (all four lstm gates; gru's r and z, while its
  candidate reads r * h through its own GEMM);
- step t updates only the rows still running, those whose length is
  greater than t.  The other rows are not touched, so they keep their
  state in the forward pass and their adjoint in the backward pass.

The backward walks the steps in reverse, collects every step's
pre-activation adjoints into one (T, B, G*H) array, zero on rows that had
stopped, and forms the W, U and b gradients as one GEMM (or sum) each
over all T*B rows, plus one (T, B, E) input adjoint.

Families and their state: elman (h), jordan (h, y; the class head runs
inside the recurrence and y feeds back), gru (h), lstm (h, c).  Gates are
stacked in CellSpec order: gru r, z, d; lstm k, f, o, g.
"""

from __future__ import annotations

import numpy as np

from .tensor import sigmoid_array


def _rows(a):
    return a.reshape(-1, a.shape[-1])


def _elman(xg, u, state, live):
    h = state[0].copy()
    prev = np.empty((len(xg),) + h.shape)
    hs = np.zeros_like(prev)
    for t, r in enumerate(live):
        prev[t] = h
        hs[t, r] = h[r] = np.tanh(xg[t, r] + h[r] @ u.T)

    def grads(d_final):
        (dh,) = d_final
        da = np.zeros_like(hs)
        for t in reversed(range(len(live))):
            r = live[t]
            da[t, r] = a = dh[r] * (1.0 - hs[t, r] * hs[t, r])
            dh[r] = a @ u
        return da, _rows(da).T @ _rows(prev), (dh,), ()

    return (h,), grads


def _jordan(xg, u, state, live, head_w, head_b):
    h, y = (s.copy() for s in state)
    prev_y = np.empty((len(xg),) + y.shape)
    hs = np.zeros((len(xg),) + h.shape)
    ys = np.zeros_like(prev_y)
    for t, r in enumerate(live):
        prev_y[t] = y
        hs[t, r] = h[r] = np.tanh(xg[t, r] + y[r] @ u.T)
        logits = h[r] @ head_w.T + head_b
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        ys[t, r] = y[r] = e / e.sum(axis=-1, keepdims=True)

    def grads(d_final):
        dh, dy = d_final
        da = np.zeros_like(hs)
        dlogits = np.zeros_like(ys)
        for t in reversed(range(len(live))):
            r = live[t]
            p, dyn = ys[t, r], dy[r]
            dlogits[t, r] = dl = p * (dyn - (dyn * p).sum(axis=-1, keepdims=True))
            da[t, r] = a = (dh[r] + dl @ head_w) * (1.0 - hs[t, r] * hs[t, r])
            dy[r] = a @ u
            dh[r] = 0.0  # h does not feed back, so it reaches no earlier step
        dl = _rows(dlogits)
        head = (dl.T @ _rows(hs), dl.sum(axis=0))
        return da, _rows(da).T @ _rows(prev_y), (dh, dy), head

    return (h, y), grads


def _gru(xg, u, state, live):
    h = state[0].copy()
    n = h.shape[-1]
    u_rz, u_d = u[: 2 * n], u[2 * n :]
    prev = np.empty((len(xg),) + h.shape)
    rz = np.zeros((len(xg), h.shape[0], 2 * n))
    rh = np.zeros_like(prev)
    ds = np.zeros_like(prev)
    for t, r in enumerate(live):
        prev[t] = h
        hp = h[r]
        rz[t, r] = s = sigmoid_array(xg[t, r, : 2 * n] + hp @ u_rz.T)
        z = s[:, n:]
        rh[t, r] = q = s[:, :n] * hp
        ds[t, r] = d = np.tanh(xg[t, r, 2 * n :] + q @ u_d.T)
        h[r] = (1.0 - z) * hp + z * d

    def grads(d_final):
        (dh,) = d_final
        da = np.zeros(xg.shape)
        for t in reversed(range(len(live))):
            r = live[t]
            dn, s, d, hp = dh[r], rz[t, r], ds[t, r], prev[t, r]
            z = s[:, n:]
            a = np.empty((len(dn), 3 * n))
            a[:, 2 * n :] = dn * z * (1.0 - d * d)
            drh = a[:, 2 * n :] @ u_d
            a[:, :n] = drh * hp
            a[:, n : 2 * n] = dn * (d - hp)
            a[:, : 2 * n] *= s * (1.0 - s)
            da[t, r] = a
            dh[r] = dn * (1.0 - z) + drh * s[:, :n] + a[:, : 2 * n] @ u_rz
        du = np.concatenate(
            (_rows(da[:, :, : 2 * n]).T @ _rows(prev), _rows(da[:, :, 2 * n :]).T @ _rows(rh))
        )
        return da, du, (dh,), ()

    return (h,), grads


def _lstm(xg, u, state, live):
    h, c = (s.copy() for s in state)
    n = h.shape[-1]
    prev_h = np.empty((len(xg),) + h.shape)
    prev_c = np.empty_like(prev_h)
    kfo = np.zeros((len(xg), h.shape[0], 3 * n))
    gs = np.zeros_like(prev_h)
    tcs = np.zeros_like(prev_h)
    for t, r in enumerate(live):
        prev_h[t], prev_c[t] = h, c
        pre = xg[t, r] + h[r] @ u.T
        kfo[t, r] = s = sigmoid_array(pre[:, : 3 * n])
        gs[t, r] = g = np.tanh(pre[:, 3 * n :])
        c[r] = cn = s[:, n : 2 * n] * c[r] + s[:, :n] * g
        tcs[t, r] = tc = np.tanh(cn)
        h[r] = s[:, 2 * n :] * tc

    def grads(d_final):
        dh, dc = d_final
        da = np.zeros(xg.shape)
        for t in reversed(range(len(live))):
            r = live[t]
            dhn, s, g, tc = dh[r], kfo[t, r], gs[t, r], tcs[t, r]
            k, f, o = s[:, :n], s[:, n : 2 * n], s[:, 2 * n :]
            dcn = dc[r] + dhn * o * (1.0 - tc * tc)
            a = np.empty((len(dhn), 4 * n))
            a[:, :n] = dcn * g
            a[:, n : 2 * n] = dcn * prev_c[t, r]
            a[:, 2 * n : 3 * n] = dhn * tc
            a[:, : 3 * n] *= s * (1.0 - s)
            a[:, 3 * n :] = dcn * k * (1.0 - g * g)
            da[t, r] = a
            dh[r] = a @ u
            dc[r] = dcn * f
        return da, _rows(da).T @ _rows(prev_h), (dh, dc), ()

    return (h, c), grads


_RUN = {"elman": _elman, "jordan": _jordan, "gru": _gru, "lstm": _lstm}


def run(family: str, xs, w, u, b, state, lengths=None, head=()):
    """Run one family's recurrence over xs; return (final state, pull).

    xs is (T, B, E); w (G*H, E), u (G*H, K) and b (G*H,) stack the gates;
    state is the family's tuple of (B, width) arrays; lengths is (B,),
    each row's number of steps, or None when every row runs all T; head
    is (head_w, head_b) for jordan, else empty.  pull maps the final
    state's adjoints (a tuple like state) to a dict of adjoints keyed "x",
    "w", "u", "b", "state" and "head".
    """
    steps, rows, width = xs.shape
    x2 = xs.reshape(-1, width)
    xg = (x2 @ w.T + b).reshape(steps, rows, -1)
    live = [
        slice(None) if lengths is None or lengths.min() > t else np.flatnonzero(lengths > t)
        for t in range(steps)
    ]
    final, grads = _RUN[family](xg, u, state, live, *head)

    def pull(d_final):
        da, du, d_state, d_head = grads(tuple(np.array(d) for d in d_final))
        da2 = _rows(da)
        return {
            "x": (da2 @ w).reshape(xs.shape),
            "w": da2.T @ x2,
            "u": du,
            "b": da2.sum(axis=0),
            "state": d_state,
            "head": d_head,
        }

    return final, pull
