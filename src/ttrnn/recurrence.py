"""Fused recurrences: one forward and one analytic BPTT backward per cell family.

`run` takes a whole time-major input sequence (T, B, E) and runs one
family's recurrence over it without a tape:

- one hoisted (T*B, E) @ (E, G*H) GEMM gives every step's input
  pre-activations for all G gates, with the biases folded in;
- each step then does one stacked recurrent GEMM for the gates that share
  their recurrent input (all four lstm gates; gru's r and z, while its
  candidate reads r * h through its own GEMM);
- a 0/1 mask per (step, row) freezes the state on padded positions as
  m * new + (1 - m) * old, in both passes, so a masked step leaves the
  state and its adjoint untouched.

The backward walks the steps in reverse, collects every step's
pre-activation adjoints into one (T, B, G*H) array, and forms the W, U
and b gradients as one GEMM (or sum) each over all T*B rows, plus one
(T, B, E) input adjoint.

Families and their state: elman (h), jordan (h, y; the class head runs
inside the recurrence and y feeds back), gru (h), lstm (h, c).  Gates are
stacked in CellSpec order: gru r, z, d; lstm k, f, o, g.
"""

from __future__ import annotations

import numpy as np

from .tensor import sigmoid_array

FAMILY = {
    "elman": "elman",
    "t_rnn": "elman",
    "jordan": "jordan",
    "gru": "gru",
    "t_gru": "gru",
    "lstm": "lstm",
    "t_lstm": "lstm",
}


def _blend(m, new, old):
    return new if m is None else m * new + (1.0 - m) * old


def _unblend(m, d):
    # adjoints of _blend for (new, old); old gets nothing from an unmasked step
    return (d, None) if m is None else (m * d, (1.0 - m) * d)


def _plus(a, b):
    return a if b is None else a + b


def _rows(a):
    return a.reshape(-1, a.shape[-1])


def _elman(xg, u, state, ms):
    (h,) = state
    prev = np.empty((len(xg),) + h.shape)
    hs = np.empty_like(prev)
    for t in range(len(xg)):
        prev[t] = h
        hs[t] = np.tanh(xg[t] + h @ u.T)
        h = _blend(ms[t], hs[t], h)

    def grads(d_final):
        (dh,) = d_final
        da = np.empty_like(hs)
        for t in reversed(range(len(xg))):
            dn, carry = _unblend(ms[t], dh)
            da[t] = dn * (1.0 - hs[t] * hs[t])
            dh = _plus(da[t] @ u, carry)
        return da, _rows(da).T @ _rows(prev), (dh,), ()

    return (h,), grads


def _jordan(xg, u, state, ms, head_w, head_b):
    h, y = state
    steps = len(xg)
    prev_y = np.empty((steps,) + y.shape)
    hs = np.empty((steps,) + h.shape)
    ys = np.empty_like(prev_y)
    for t in range(steps):
        prev_y[t] = y
        hs[t] = np.tanh(xg[t] + y @ u.T)
        logits = hs[t] @ head_w.T + head_b
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        ys[t] = e / e.sum(axis=-1, keepdims=True)
        h = _blend(ms[t], hs[t], h)
        y = _blend(ms[t], ys[t], y)

    def grads(d_final):
        dh, dy = d_final
        da = np.empty_like(hs)
        dlogits = np.empty_like(ys)
        for t in reversed(range(steps)):
            dhn, dh = _unblend(ms[t], dh)
            dyn, carry = _unblend(ms[t], dy)
            dlogits[t] = ys[t] * (dyn - (dyn * ys[t]).sum(axis=-1, keepdims=True))
            dhn = dhn + dlogits[t] @ head_w
            da[t] = dhn * (1.0 - hs[t] * hs[t])
            dy = _plus(da[t] @ u, carry)
            if dh is None:
                dh = np.zeros_like(h)
        dl = _rows(dlogits)
        head = (dl.T @ _rows(hs), dl.sum(axis=0))
        return da, _rows(da).T @ _rows(prev_y), (dh, dy), head

    return (h, y), grads


def _gru(xg, u, state, ms):
    (h,) = state
    n = h.shape[-1]
    u_rz, u_d = u[: 2 * n], u[2 * n :]
    steps = len(xg)
    prev = np.empty((steps,) + h.shape)
    rz = np.empty((steps, h.shape[0], 2 * n))
    rh = np.empty_like(prev)
    ds = np.empty_like(prev)
    for t in range(steps):
        prev[t] = h
        rz[t] = sigmoid_array(xg[t, :, : 2 * n] + h @ u_rz.T)
        r, z = rz[t, :, :n], rz[t, :, n:]
        rh[t] = r * h
        ds[t] = np.tanh(xg[t, :, 2 * n :] + rh[t] @ u_d.T)
        h = _blend(ms[t], (1.0 - z) * h + z * ds[t], h)

    def grads(d_final):
        (dh,) = d_final
        da = np.empty(xg.shape)
        for t in reversed(range(steps)):
            dn, carry = _unblend(ms[t], dh)
            r, z, d, hp = rz[t, :, :n], rz[t, :, n:], ds[t], prev[t]
            da[t, :, 2 * n :] = dn * z * (1.0 - d * d)
            drh = da[t, :, 2 * n :] @ u_d
            da[t, :, :n] = drh * hp
            da[t, :, n : 2 * n] = dn * (d - hp)
            da[t, :, : 2 * n] *= rz[t] * (1.0 - rz[t])
            dh = _plus(dn * (1.0 - z) + drh * r + da[t, :, : 2 * n] @ u_rz, carry)
        du = np.concatenate(
            (_rows(da[:, :, : 2 * n]).T @ _rows(prev), _rows(da[:, :, 2 * n :]).T @ _rows(rh))
        )
        return da, du, (dh,), ()

    return (h,), grads


def _lstm(xg, u, state, ms):
    h, c = state
    n = h.shape[-1]
    steps = len(xg)
    prev_h = np.empty((steps,) + h.shape)
    prev_c = np.empty_like(prev_h)
    kfo = np.empty((steps, h.shape[0], 3 * n))
    gs = np.empty_like(prev_h)
    tcs = np.empty_like(prev_h)
    for t in range(steps):
        prev_h[t], prev_c[t] = h, c
        pre = xg[t] + h @ u.T
        kfo[t] = sigmoid_array(pre[:, : 3 * n])
        gs[t] = np.tanh(pre[:, 3 * n :])
        k, f, o = kfo[t, :, :n], kfo[t, :, n : 2 * n], kfo[t, :, 2 * n :]
        cn = f * c + k * gs[t]
        tcs[t] = np.tanh(cn)
        h = _blend(ms[t], o * tcs[t], h)
        c = _blend(ms[t], cn, c)

    def grads(d_final):
        dh, dc = d_final
        da = np.empty(xg.shape)
        for t in reversed(range(steps)):
            dhn, carry_h = _unblend(ms[t], dh)
            dcn, carry_c = _unblend(ms[t], dc)
            k, f, o = kfo[t, :, :n], kfo[t, :, n : 2 * n], kfo[t, :, 2 * n :]
            g, tc = gs[t], tcs[t]
            dcn = dcn + dhn * o * (1.0 - tc * tc)
            da[t, :, :n] = dcn * g
            da[t, :, n : 2 * n] = dcn * prev_c[t]
            da[t, :, 2 * n : 3 * n] = dhn * tc
            da[t, :, : 3 * n] *= kfo[t] * (1.0 - kfo[t])
            da[t, :, 3 * n :] = dcn * k * (1.0 - g * g)
            dh = _plus(da[t] @ u, carry_h)
            dc = _plus(dcn * f, carry_c)
        return da, _rows(da).T @ _rows(prev_h), (dh, dc), ()

    return (h, c), grads


_RUN = {"elman": _elman, "jordan": _jordan, "gru": _gru, "lstm": _lstm}


def run(family: str, xs, w, u, b, state, mask=None, head=()):
    """Run one family's recurrence over xs; return (final state, pull).

    xs is (T, B, E); w (G*H, E), u (G*H, K) and b (G*H,) stack the gates;
    state is the family's tuple of (B, width) arrays; mask is (T, B, 1)
    or None; head is (head_w, head_b) for jordan, else empty.  pull maps
    the final state's adjoints (a tuple like state) to a dict of adjoints
    keyed "x", "w", "u", "b", "state" and "head".
    """
    steps, rows, width = xs.shape
    x2 = xs.reshape(-1, width)
    xg = (x2 @ w.T + b).reshape(steps, rows, -1)
    ms = [None if mask is None or np.all(mask[t] == 1.0) else mask[t] for t in range(steps)]
    final, grads = _RUN[family](xg, u, state, ms, *head)

    def pull(d_final):
        da, du, d_state, d_head = grads(d_final)
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
