"""Tensor-train matrix format and its linear-layer machinery.

A TTMatrix stores an M x N matrix as a chain of 4-mode cores, core k
shaped [m_k, n_k, r_{k-1}, r_k] with boundary ranks 1, where
M = prod(m_k) and N = prod(n_k).  The matrix entry at row index
(i_1..i_d) and column index (j_1..j_d), both linearized row-major, is the
1x1 chain product  core_1[i_1,j_1] . core_2[i_2,j_2] ... core_d[i_d,j_d].
Equivalently, merging each index pair as l_k = i_k * n_k + j_k (0-based)
turns the matrix into a d-mode tensor with mode sizes m_k * n_k, and the
cores form its tensor-train decomposition.

The module provides decomposition (TT-SVD: sequential truncated SVDs,
through numpy's LAPACK), dense reconstruction (tt_dense) with the exact
core gradients of it (tt_dense_backward), batched application by
core-chain contraction without forming the dense matrix (tt_apply_batch,
used by tt_matvec, and its reverse-mode gradients), and parameter and
multiply-accumulate accounting.  Training and inference rebuild each
gate's dense matrix once per batch and apply it as one GEMM: at the sizes
this package runs, that is faster than contracting the cores row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InvalidRank, ShapeMismatch
from .tensor import DenseTensor, _wrap


@dataclass(frozen=True)
class ModeFactorization:
    """Mode sizes writing rows = prod(out_modes), cols = prod(in_modes)."""

    out_modes: tuple
    in_modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "out_modes", tuple(int(m) for m in self.out_modes))
        object.__setattr__(self, "in_modes", tuple(int(n) for n in self.in_modes))
        if len(self.out_modes) != len(self.in_modes) or not self.out_modes:
            raise ShapeMismatch(
                "mode lists must be nonempty and equal length, got %r / %r (products %d / %d)"
                % (self.out_modes, self.in_modes, self.rows, self.cols)
            )
        if any(m < 1 for m in self.out_modes + self.in_modes):
            raise ShapeMismatch("all modes must be >= 1")

    @property
    def order(self) -> int:
        return len(self.out_modes)

    @property
    def rows(self) -> int:
        return int(np.prod(self.out_modes, dtype=np.int64))

    @property
    def cols(self) -> int:
        return int(np.prod(self.in_modes, dtype=np.int64))


def check_ranks(ranks, order: int) -> tuple:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != order + 1:
        raise InvalidRank(
            "rank vector needs %d entries for order %d, got %d"
            % (order + 1, order, len(ranks))
        )
    if ranks[0] != 1 or ranks[-1] != 1:
        raise InvalidRank("boundary ranks must be 1, got %r" % (ranks,))
    if any(r < 1 for r in ranks):
        raise InvalidRank("ranks must be positive, got %r" % (ranks,))
    return ranks


def core_shapes(facto: ModeFactorization, ranks) -> list:
    """Shape (m_k, n_k, r_k, r_{k+1}) of each core k of a TT matrix."""
    modes = zip(facto.out_modes, facto.in_modes)
    return [(m, n, ranks[k], ranks[k + 1]) for k, (m, n) in enumerate(modes)]


@dataclass(frozen=True)
class TTMatrix:
    facto: ModeFactorization
    ranks: tuple
    cores: tuple  # DenseTensor per mode, core k shaped [m_k, n_k, r_k, r_{k+1}]

    def __post_init__(self):
        object.__setattr__(self, "ranks", check_ranks(self.ranks, self.facto.order))
        object.__setattr__(self, "cores", tuple(self.cores))
        if len(self.cores) != self.facto.order:
            raise ShapeMismatch(
                "expected %d cores, got %d" % (self.facto.order, len(self.cores))
            )
        for k, (core, want) in enumerate(zip(self.cores, core_shapes(self.facto, self.ranks))):
            if core.shape != want:
                raise ShapeMismatch(
                    "core %d has shape %r, expected %r" % (k, core.shape, want)
                )

    @property
    def rows(self) -> int:
        return self.facto.rows

    @property
    def cols(self) -> int:
        return self.facto.cols

    def core_arrays(self):
        return [c.array for c in self.cores]


def param_count(tt: TTMatrix) -> int:
    return sum(c.size for c in tt.cores)


def compression_ratio(tt: TTMatrix) -> float:
    return tt.rows * tt.cols / param_count(tt)


# ---------------------------------------------------------------------------
# mode factorization search


def _factorizations(n: int, parts: int, cap: int):
    # non-increasing tuples of `parts` factors >= 1 with product n
    if parts == 1:
        if n <= cap:
            yield (n,)
        return
    f = min(n, cap)
    while f >= 1:
        if n % f == 0:
            for rest in _factorizations(n // f, parts - 1, f):
                yield (f,) + rest
        f -= 1


def _most_balanced(n: int, parts: int) -> tuple:
    best = None
    best_key = None
    for cand in _factorizations(n, parts, n):
        spread = cand[0] / cand[-1]  # non-increasing, so max/min
        key = (spread, cand[0], cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def choose_factorization(rows: int, cols: int, order: int) -> ModeFactorization:
    """Most balanced mode factorization of a rows x cols matrix.

    Factors are returned largest-first.  Balance means the smallest
    max/min factor ratio; ties prefer the smaller largest factor, then the
    lexicographically smallest tuple.  Padding with 1s makes every order
    feasible, but modes of size 1 carry no structure, so they are noted as
    a warning on the "ttrnn" logger.
    """
    if rows < 1 or cols < 1 or order < 1:
        raise ShapeMismatch("rows, cols and order must be >= 1")
    out_modes = _most_balanced(rows, order)
    in_modes = _most_balanced(cols, order)
    facto = ModeFactorization(out_modes, in_modes)
    if order > 1 and (1 in out_modes or 1 in in_modes):
        import logging  # loaded only for the notice: the library imports it nowhere else

        logging.getLogger("ttrnn").warning(
            "factorization of (%d, %d) into %d modes has degenerate size-1 modes: m=%r n=%r",
            rows, cols, order, out_modes, in_modes,
        )
    return facto


def tt_options(
    rows, cols, out_modes=None, in_modes=None, ranks=None, names=("output modes", "input modes")
):
    """(factorization, ranks) of a rows x cols TT matrix from optional settings.

    Give both mode lists or neither; neither means
    choose_factorization(rows, cols, 3), and the error for one of them
    calls the two lists by `names`.  One interior rank, an int or a
    1-tuple, becomes (1, rank, ..., rank, 1); a full rank vector or None
    is returned as given.
    """
    if out_modes is None and in_modes is None:
        facto = choose_factorization(rows, cols, 3)
    elif out_modes is None or in_modes is None:
        raise ShapeMismatch("give both %s and %s, or neither" % names)
    else:
        facto = ModeFactorization(out_modes, in_modes)
    if isinstance(ranks, int):
        ranks = (ranks,)
    if ranks is not None and len(ranks) == 1:
        ranks = (1,) + tuple(ranks) * (facto.order - 1) + (1,)
    return facto, ranks


# ---------------------------------------------------------------------------
# decomposition and reconstruction


def _interleave(w: np.ndarray, facto: ModeFactorization) -> np.ndarray:
    # (M, N) -> d-mode tensor with merged indices l_k = i_k * n_k + j_k
    d = facto.order
    t = w.reshape(facto.out_modes + facto.in_modes)
    perm = [axis for k in range(d) for axis in (k, d + k)]
    merged = [m * n for m, n in zip(facto.out_modes, facto.in_modes)]
    return t.transpose(perm).reshape(merged)


def _deinterleave(t: np.ndarray, facto: ModeFactorization) -> np.ndarray:
    d = facto.order
    pairs = [axis for mn in zip(facto.out_modes, facto.in_modes) for axis in mn]
    full = t.reshape(pairs)
    perm = [2 * k for k in range(d)] + [2 * k + 1 for k in range(d)]
    return full.transpose(perm).reshape(facto.rows, facto.cols)


def tt_svd(
    w: DenseTensor,
    facto: ModeFactorization,
    max_ranks=None,
    eps: float | None = None,
) -> TTMatrix:
    """Decompose a dense matrix into TT form by sequential thin SVDs.

    Without constraints the realized ranks keep every singular value above
    a relative floor of 1e-14, so reconstruction is exact to rounding.
    With `eps`, each sweep truncates so the total relative error stays
    below eps.  `max_ranks` caps the realized ranks entrywise.
    """
    if w.array.ndim != 2 or w.shape != (facto.rows, facto.cols):
        raise ShapeMismatch(
            "matrix shape %r does not match factorization (%d, %d)"
            % (w.shape, facto.rows, facto.cols)
        )
    if eps is not None and not (math.isfinite(eps) and eps >= 0):
        raise ShapeMismatch("eps must be finite and >= 0, got %r" % eps)
    d = facto.order
    if max_ranks is not None:
        max_ranks = check_ranks(max_ranks, d)
    sweep_budget = None
    if eps is not None and d > 1:
        sweep_budget = eps * float(np.linalg.norm(w.array)) / math.sqrt(d - 1)

    merged = [m * n for m, n in zip(facto.out_modes, facto.in_modes)]
    c = _interleave(w.array, facto)
    c = c.reshape(merged[0], -1)
    ranks = [1]
    raw_cores = []
    for k in range(d - 1):
        u, s, vt = np.linalg.svd(c, full_matrices=False)
        keep = 1
        if s[0] > 0:
            keep = int(np.sum(s > s[0] * 1e-14))
        if sweep_budget is not None:
            tails = np.sqrt(np.cumsum((s * s)[::-1]))[::-1]  # tails[i] = ||s[i:]||
            ok = np.nonzero(tails <= sweep_budget)[0]
            if ok.size:
                keep = min(keep, max(int(ok[0]), 1))
        if max_ranks is not None:
            keep = min(keep, max_ranks[k + 1])
        keep = max(keep, 1)
        raw_cores.append(u[:, :keep].reshape(ranks[-1], merged[k], keep))
        c = (s[:keep, None] * vt[:keep]).reshape(keep * merged[k + 1], -1)
        ranks.append(keep)
    raw_cores.append(c.reshape(ranks[-1], merged[d - 1], 1))
    ranks.append(1)

    cores = [
        DenseTensor(raw.reshape(a, m, n, b).transpose(1, 2, 0, 3))
        for raw, (m, n, a, b) in zip(raw_cores, core_shapes(facto, ranks))
    ]
    return TTMatrix(facto, tuple(ranks), tuple(cores))


def _left_partials(cores):
    # products of cores 0..k-1 as (prod of their merged modes, r_k), k = 0..d
    out = [np.ones((1, 1))]
    for core in cores:
        m, n, a, b = core.shape
        out.append((out[-1] @ core.transpose(2, 0, 1, 3).reshape(a, m * n * b)).reshape(-1, b))
    return out


def tt_dense(cores, facto: ModeFactorization) -> np.ndarray:
    """The dense (M, N) matrix of a chain of core arrays."""
    merged = [m * n for m, n in zip(facto.out_modes, facto.in_modes)]
    return _deinterleave(_left_partials(cores)[-1].reshape(merged), facto)


def tt_dense_backward(cores, facto: ModeFactorization, dw: np.ndarray):
    """Core gradients of tt_dense for the adjoint dw of its (M, N) matrix.

    With L the product of the cores left of k and R the product of those
    right of it, core k's slice at merged index l gets L^T dT[:, l, :] R^T,
    where dT is dw as the merged-mode tensor (Novikov et al. 2015).
    """
    lefts = _left_partials(cores)
    dt = _interleave(dw, facto).reshape(-1)
    grads = [None] * len(cores)
    right = np.ones((1, 1))  # cores right of k as (r_{k+1}, prod of their merged modes)
    for k in range(len(cores) - 1, -1, -1):
        m, n, a, b = cores[k].shape
        left = lefts[k]
        g = (left.T @ dt.reshape(left.shape[0], -1)).reshape(a * m * n, -1) @ right.T
        grads[k] = np.ascontiguousarray(g.reshape(a, m, n, b).transpose(1, 2, 0, 3))
        unfolded = cores[k].transpose(2, 0, 1, 3).reshape(a * m * n, b)
        right = (unfolded @ right).reshape(a, -1)
    return grads


def reconstruct(tt: TTMatrix) -> DenseTensor:
    """Materialize the dense matrix a TTMatrix represents."""
    return _wrap(tt_dense(tt.core_arrays(), tt.facto))


# ---------------------------------------------------------------------------
# matrix-vector application by core contraction


@dataclass
class _ApplyTrace:
    inputs: list = field(default_factory=list)  # per-step operand, (rest, n_k*r_k+1)
    out_shapes: list = field(default_factory=list)  # per-step (m_k, rest, r_k)


def _core_matrix(core: np.ndarray) -> np.ndarray:
    # [m, n, a, b] -> [(m a), (n b)] so one GEMM does the whole contraction
    m, n, a, b = core.shape
    return np.ascontiguousarray(core.transpose(0, 2, 1, 3)).reshape(m * a, n * b)


def tt_apply_batch(cores, in_modes, ranks, x2d: np.ndarray, trace: _ApplyTrace | None = None):
    """Apply the TT chain to rows of x2d (batch, N), giving (batch, M).

    Cores are consumed last-to-first: the input is reshaped to its mode
    grid and one mode is contracted per step, so the dense matrix never
    exists.  Each step computes, over the flattened remainder axis r,
        out[m, r, a] = sum_{j, b} core[m, j, a, b] * S[r, j, b]
    as a single matrix product against the [(m a), (j b)] core unfolding.
    """
    d = len(cores)
    batch = x2d.shape[0]
    data = x2d.reshape(-1, in_modes[-1])  # (rest, n_d * r_d) with r_d = 1
    for step, k in enumerate(range(d - 1, -1, -1)):
        m, n, a, b = cores[k].shape
        if trace is not None:
            trace.inputs.append(data)
        out = data @ _core_matrix(cores[k]).T  # (rest, m*a)
        if trace is not None:
            trace.out_shapes.append((m, out.shape[0], a))
        # reorder (rest, m, a) -> (m, rest, a) so the next mode groups right
        out = np.ascontiguousarray(out.reshape(-1, m, a).transpose(1, 0, 2))
        if k > 0:
            data = out.reshape(-1, in_modes[k - 1] * a)
        else:
            data = out
    rows = data.size // batch
    return np.ascontiguousarray(data.reshape(rows, batch).T)


def tt_apply_backward_batch(cores, in_modes, ranks, trace: _ApplyTrace, dy2d: np.ndarray):
    """Adjoint of tt_apply_batch: gradients for every core and for x."""
    d = len(cores)
    batch = dy2d.shape[0]
    g = np.ascontiguousarray(dy2d.T).reshape(trace.out_shapes[-1])
    core_grads = [None] * d
    dx2d = None
    for step in range(d - 1, -1, -1):
        k = d - 1 - step
        m, n, a, b = cores[k].shape
        s2 = trace.inputs[step]  # (rest, n*b)
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(-1, m * a)
        dcore = (g2.T @ s2).reshape(m, a, n, b)
        core_grads[k] = np.ascontiguousarray(dcore.transpose(0, 2, 1, 3))
        ds = g2 @ _core_matrix(cores[k])  # (rest, n*b)
        if step > 0:
            g = ds.reshape(trace.out_shapes[step - 1])
        else:
            dx2d = ds.reshape(batch, -1)
    return core_grads, dx2d


def tt_matvec(tt: TTMatrix, x: DenseTensor) -> DenseTensor:
    """y = (dense matrix of tt) @ x, computed without materializing it."""
    if x.array.ndim != 1 or x.size != tt.cols:
        raise ShapeMismatch(
            "vector length %r does not match matrix cols %d" % (x.shape, tt.cols)
        )
    y = tt_apply_batch(
        tt.core_arrays(), tt.facto.in_modes, tt.ranks, x.array.reshape(1, -1)
    )
    return _wrap(y.reshape(-1))


def tt_matvec_macs(facto: ModeFactorization, ranks) -> int:
    """Multiply-accumulate count of one tt_matvec, per its contraction order."""
    ranks = check_ranks(ranks, facto.order)
    m = facto.out_modes
    n = facto.in_modes
    total = 0
    for k in range(facto.order):
        rest = int(np.prod(n[:k], dtype=np.int64)) * int(
            np.prod(m[k + 1 :], dtype=np.int64)
        )
        total += m[k] * n[k] * ranks[k] * ranks[k + 1] * rest
    return total


# ---------------------------------------------------------------------------
# initialization for training


def random_tt(facto: ModeFactorization, ranks, seed: int) -> TTMatrix:
    """Random TT matrix whose reconstructed entries have variance 2/(M+N).

    Each reconstructed entry is a sum over prod(interior ranks) products of
    d independent core entries, so per-core variance
        sigma^2 = (2 / ((M+N) * prod(interior ranks))) ** (1/d)
    makes the entry variance rank-independent.
    """
    ranks = check_ranks(ranks, facto.order)
    d = facto.order
    paths = 1
    for r in ranks[1:-1]:
        paths *= r
    entry_var = 2.0 / (facto.rows + facto.cols)
    stddev = (entry_var / paths) ** (1.0 / (2.0 * d))
    cores = []
    for k, shape in enumerate(core_shapes(facto, ranks)):
        n = int(np.prod(shape, dtype=np.int64))
        vals = rng.normal(rng.split(seed, "tt-core", k), n, stddev=stddev)
        cores.append(DenseTensor(vals.reshape(shape)))
    return TTMatrix(facto, ranks, tuple(cores))
