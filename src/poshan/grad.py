"""Dense-tensor computation graph with reverse-mode gradients.

All trainable machinery in this package is assembled from the ops here.
Tensors wrap float64 numpy arrays of any rank and record a define-by-run
graph as ops are applied; :func:`backward` walks that graph in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.  Graphs are rebuilt per forward pass, so parameter
tensors can be shared across many graphs and their gradients accumulate
until explicitly cleared.

Besides small elementwise and linear primitives, the module holds fused
layer ops with hand-written backward passes: :func:`gather` for embedding
rows; :func:`recurrent`, which runs every direction of an LSTM or GRU
encoder over a padded block of sequences in one time loop, forward and
backward, with one stacked product and one elementwise op per update at
each step; :func:`additive_scores` over a whole state matrix; and the
masked softmax, mean fusion and weighted sum that complete an attention
layer.  A model forward is then a few dozen nodes, not one per scalar.
Inside :func:`no_grad` ops compute values only and record no graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform; the message names both shapes."""


class EmptyAttentionError(ValueError):
    """Masked softmax received a mask with no unmasked position."""


class NonFiniteError(FloatingPointError):
    """A tensor that must be finite contains NaN or Inf."""


class DeterminismError(RuntimeError):
    """A forward closure produced different values on repeated evaluation."""


class Tensor:
    """A node in the computation graph.

    ``data`` is always a float64 array; rank 0 is the scalar case used for
    scores and losses.  ``grad`` stays ``None`` until a backward pass
    deposits a gradient of the same shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def constant(data) -> Tensor:
    """A leaf tensor that never receives gradients."""
    return Tensor(data, requires_grad=False, op="const")


_grad_enabled = True


@contextmanager
def no_grad():
    """Compute values only: ops inside record no parents and build no
    backward closures, so nothing is kept for a backward pass."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, allocating the buffer on first use."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _tracked(parents: tuple) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(data, parents: tuple, op: str) -> Tensor:
    if _tracked(parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents)
    return Tensor(data, op=op)


def _require_rank(t: Tensor, rank: int, op: str, role: str) -> None:
    if t.data.ndim != rank:
        raise ShapeError(f"{op}: {role} must have rank {rank}, got shape {t.shape}")


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to an operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _split_rows(a: np.ndarray, parts: int) -> list:
    """``a`` cut into ``parts`` equal blocks along its first axis."""
    size = a.shape[0] // parts
    return [a[k * size:(k + 1) * size] for k in range(parts)]


# ---------------------------------------------------------------------------
# Primitive ops


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """w @ x + b for a rank-1 input; for a rank-2 input (L, in), the same
    map applied to every row."""
    _require_rank(w, 2, "affine", "weight")
    _require_rank(b, 1, "affine", "bias")
    if x.data.ndim not in (1, 2) or w.shape[1] != x.shape[-1] or w.shape[0] != b.shape[0]:
        raise ShapeError(
            f"affine: weight {w.shape} does not conform to input {x.shape} and bias {b.shape}")
    out = _result(x.data @ w.data.T + b.data, (x, w, b), "affine")
    if out.requires_grad:
        def back():
            g = out.grad
            accumulate_grad(x, g @ w.data)
            accumulate_grad(w, np.outer(g, x.data) if g.ndim == 1 else g.T @ x.data)
            accumulate_grad(b, g if g.ndim == 1 else g.sum(axis=0))

        out._backward = back
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    out = _result(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def back():
            accumulate_grad(a, out.grad)
            accumulate_grad(b, out.grad)

        out._backward = back
    return out


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may broadcast against ``a``, e.g. a
    (L, D) block scaled by a (L, 1) column."""
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        shape = None
    if shape != a.shape:
        raise ShapeError(f"hadamard: shape {b.shape} does not broadcast to {a.shape}")
    out = _result(a.data * b.data, (a, b), "hadamard")
    if out.requires_grad:
        def back():
            accumulate_grad(a, out.grad * b.data)
            accumulate_grad(b, _sum_to_shape(out.grad * a.data, b.shape))

        out._backward = back
    return out


def relu_elem(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0), (x,), "relu")
    if out.requires_grad:
        def back():
            accumulate_grad(x, out.grad * (x.data > 0.0))

        out._backward = back
    return out


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading shapes must agree."""
    if a.data.ndim == 0 or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat: shapes {a.shape} and {b.shape} do not conform")
    out = _result(np.concatenate([a.data, b.data], axis=-1), (a, b), "concat")
    if out.requires_grad:
        split = a.shape[-1]

        def back():
            g = out.grad
            accumulate_grad(a, g[..., :split])
            accumulate_grad(b, g[..., split:])

        out._backward = back
    return out


# ---------------------------------------------------------------------------
# Reductions: sums and means as left folds


def _fold(parts, divisor=None) -> np.ndarray:
    total = parts[0].copy()
    for p in parts[1:]:
        total += p
    return total if divisor is None else total / divisor


def _fold_axis(x: Tensor, axis: int, mean: bool, op: str) -> Tensor:
    if x.data.ndim == 0 or x.shape[axis] == 0:
        raise ShapeError(f"{op}: nothing to reduce along axis {axis} of shape {x.shape}")
    n = x.shape[axis]
    out = _result(_fold(np.moveaxis(x.data, axis, 0), n if mean else None), (x,), op)
    if out.requires_grad:
        def back():
            g = out.grad / n if mean else out.grad
            accumulate_grad(x, np.expand_dims(g, axis))

        out._backward = back
    return out


def sum_axis(x: Tensor, axis: int = 0) -> Tensor:
    """Sum along ``axis``, added slice by slice in index order."""
    return _fold_axis(x, axis, False, "sum_axis")


def mean_axis(x: Tensor, axis: int = 0) -> Tensor:
    """Mean along ``axis``: the left-fold sum divided by the count."""
    return _fold_axis(x, axis, True, "mean_axis")


def mean_fold(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of same-shape tensors of any rank, summed as a
    left fold, ``((a + b) + c) / 3``; used to fuse attention weights."""
    if not tensors:
        raise ShapeError("mean_fold: need at least one tensor")
    for t in tensors[1:]:
        _require_same_shape(tensors[0], t, "mean_fold")
    n = len(tensors)
    out = _result(_fold([t.data for t in tensors], n), tuple(tensors), "mean_fold")
    if out.requires_grad:
        def back():
            g = out.grad / n
            for t in tensors:
                accumulate_grad(t, g)

        out._backward = back
    return out


# ---------------------------------------------------------------------------
# Embedding rows


def gather(matrix: Tensor, idx, pad: int | None = None) -> Tensor:
    """Rows of ``matrix`` at an integer index array of any shape; the result
    has shape ``idx.shape + matrix.shape[1:]``.

    Rows at index ``pad`` read as zeros and receive no gradient, whatever
    the matrix holds there.  The backward pass scatters with ``np.add.at``
    straight into the matrix's gradient buffer, so repeated indices
    accumulate and no dense temporary of the matrix's size is built, and
    sets those rows' ``active`` flags when the matrix is a table.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if matrix.data.ndim == 0:
        raise ShapeError("gather: cannot index a scalar")
    if idx.size and (idx.min() < 0 or idx.max() >= matrix.shape[0]):
        raise IndexError(f"gather: index out of range for shape {matrix.shape}")
    rows = np.take(matrix.data, idx, axis=0)
    live = None
    if pad is not None:
        live = idx != pad
        rows[~live] = 0.0
    parents = (matrix,) if live is None or live.any() else ()
    out = _result(rows, parents, "gather")
    if out.requires_grad:
        def back():
            if matrix.grad is None:
                matrix.grad = np.zeros(matrix.data.shape)
            hit, g = (idx, out.grad) if live is None else (idx[live], out.grad[live])
            np.add.at(matrix.grad, hit, g)
            active = getattr(matrix, "active", None)
            if active is not None:
                active[hit] = True

        out._backward = back
    return out


# ---------------------------------------------------------------------------
# Recurrent layers: every direction of an encoder in one time loop

# the gates of each recurrence, in the order their weights are stacked;
# every gate but the last is a sigmoid
GATES = {"lstm": "ifog", "gru": "zrn"}


def _lstm_steps(a: np.ndarray, rec: np.ndarray, half: np.ndarray, keep: bool):
    """LSTM recurrence of K directions at once.

    ``a`` (K, T, N, 4H) holds the gate pre-activations, input projection
    and bias added, gates in i, f, o, g order, with the sigmoid gates'
    columns halved; the loop overwrites it with the gate activations.
    ``rec`` (K, 4H, H) holds each direction's stacked recurrent weights
    and ``half`` the same with the sigmoid rows halved.  Returns the
    hidden states (T, K, N, H) and, with ``keep``, a function from their
    gradient, which it overwrites, to each direction's pre-activation
    gradient (T * N, 4H) and recurrent weight gradients.
    """
    k, steps, n, width = a.shape
    hid = width // 4
    acts = a.swapaxes(0, 1)
    cells = np.empty((steps, k, n, hid))
    tcs = np.empty_like(cells)
    hs = np.empty_like(cells)
    carried = np.empty((k, n, width))
    ig = np.empty((k, n, hid))
    h = c = np.zeros((k, n, hid))
    half_t = half.transpose(0, 2, 1)
    i, f, o, g = (acts[..., q * hid:(q + 1) * hid] for q in range(4))
    for z, z_sig, i_t, f_t, o_t, g_t, c_t, tc, h_t in zip(
            acts, acts[..., :3 * hid], i, f, o, g, cells, tcs, hs):
        z += np.matmul(h, half_t, out=carried)
        # sigmoid(x) = (1 + tanh(x / 2)) / 2, the halving already done
        np.tanh(z, out=z)
        z_sig *= 0.5
        z_sig += 0.5
        c = np.multiply(f_t, c, out=c_t)
        c += np.multiply(i_t, g_t, out=ig)
        h = np.multiply(o_t, np.tanh(c, out=tc), out=h_t)
    if not keep:
        return hs, None

    def back(dhs: np.ndarray):
        # d(pre-activation) = (dc, dc, dh, dc) * coef, gate by gate, where
        # coef is (g, c_prev, tanh(c), i) times each activation's slope
        coef = np.concatenate((g, np.concatenate((np.zeros((1, k, n, hid)), cells[:-1])),
                               tcs, i), axis=-1)
        slope = np.subtract(1.0, acts)
        slope *= acts
        slope[..., 3 * hid:] = 1.0 - g * g
        coef *= slope
        del slope
        o_dtc = o * (1.0 - tcs * tcs)
        da = np.empty((k, steps, n, 4, hid))
        da_steps = da.swapaxes(0, 1)
        dh_next = np.zeros((k, n, hid))
        dc_next = np.zeros((k, n, hid))
        dc = np.empty((k, n, hid))
        dc_gates = dc[..., None, :]
        for dh, o_dtc_t, f_t, coef_t, coef_o, da_gates, da_o, da_t in zip(
                dhs[::-1], o_dtc[::-1], f[::-1],
                coef.reshape(steps, k, n, 4, hid)[::-1], coef[..., 2 * hid:3 * hid][::-1],
                da_steps[::-1], da_steps[::-1, ..., 2, :],
                da.reshape(k, steps, n, width).swapaxes(0, 1)[::-1]):
            dh += dh_next
            np.multiply(dh, o_dtc_t, out=dc)
            dc += dc_next
            np.multiply(dc_gates, coef_t, out=da_gates)
            np.multiply(dh, coef_o, out=da_o)
            np.multiply(dc, f_t, out=dc_next)
            np.matmul(da_t, rec, out=dh_next)
        flats = list(da.reshape(k, -1, width))
        du = [_split_rows(flat.T @ np.concatenate((np.zeros((1, n, hid)), hs[:-1, d]))
                          .reshape(-1, hid), 4)
              for d, flat in enumerate(flats)]
        return flats, du

    return hs, back


def _gru_steps(a: np.ndarray, rec: np.ndarray, half: np.ndarray, keep: bool):
    """GRU recurrence of K directions at once over pre-activations ``a``
    (K, T, N, 3H) in z, r, n order: h = (1 - z) * n + z * h_prev with
    n = tanh(x_n + U_n (r * h_prev)).  The z and r gates are halved as the
    LSTM's sigmoid gates are; same contract as :func:`_lstm_steps`.
    """
    k, steps, n, width = a.shape
    hid = width // 3
    acts = a.swapaxes(0, 1)
    rhs = np.empty((steps, k, n, hid))
    hs = np.empty_like(rhs)
    carried_zr = np.empty((k, n, 2 * hid))
    carried_n = np.empty((k, n, hid))
    zn = np.empty((k, n, hid))
    h = np.zeros((k, n, hid))
    u_zr_t = half[:, :2 * hid].transpose(0, 2, 1)
    u_n_t = half[:, 2 * hid:].transpose(0, 2, 1)
    for gates, z, r, nt, rh, h_t in zip(
            acts[..., :2 * hid], acts[..., :hid], acts[..., hid:2 * hid],
            acts[..., 2 * hid:], rhs, hs):
        gates += np.matmul(h, u_zr_t, out=carried_zr)
        np.tanh(gates, out=gates)
        gates *= 0.5
        gates += 0.5
        nt += np.matmul(np.multiply(r, h, out=rh), u_n_t, out=carried_n)
        np.tanh(nt, out=nt)
        np.subtract(1.0, z, out=zn)
        zn *= nt
        h = np.multiply(z, h, out=h_t)
        h += zn
    if not keep:
        return hs, None

    def back(dhs: np.ndarray):
        z, r, cand = acts[..., :hid], acts[..., hid:2 * hid], acts[..., 2 * hid:]
        h_prev = np.concatenate((np.zeros((1, k, n, hid)), hs[:-1]))
        dn_coef = (1.0 - z) * (1.0 - cand * cand)
        dz_coef = (h_prev - cand) * z * (1.0 - z)
        dr_coef = h_prev * r * (1.0 - r)
        da = np.empty((k, steps, n, width))
        da_steps = da.swapaxes(0, 1)
        dh_next = np.zeros((k, n, hid))
        dan = np.empty((k, n, hid))
        drh = np.empty((k, n, hid))
        term = np.empty((k, n, hid))
        u_zr, u_n = rec[:, :2 * hid], rec[:, 2 * hid:]
        for dh, z_t, r_t, dn_t, dz_t, dr_t, da_z, da_r, da_n, da_zr in zip(
                dhs[::-1], z[::-1], r[::-1], dn_coef[::-1], dz_coef[::-1], dr_coef[::-1],
                da_steps[::-1, ..., :hid], da_steps[::-1, ..., hid:2 * hid],
                da_steps[::-1, ..., 2 * hid:], da_steps[::-1, ..., :2 * hid]):
            dh += dh_next
            np.multiply(dh, dn_t, out=dan)
            np.matmul(dan, u_n, out=drh)
            np.multiply(dh, dz_t, out=da_z)
            np.multiply(drh, dr_t, out=da_r)
            da_n[...] = dan
            np.multiply(dh, z_t, out=dh_next)
            dh_next += np.multiply(drh, r_t, out=term)
            dh_next += np.matmul(da_zr, u_zr, out=term)
        flats = list(da.reshape(k, -1, width))
        du = [[*_split_rows(flat[:, :2 * hid].T @ h_prev[:, d].reshape(-1, hid), 2),
               flat[:, 2 * hid:].T @ rhs[:, d].reshape(-1, hid)]
              for d, flat in enumerate(flats)]
        return flats, du

    return hs, back


def recurrent(cell: str, x: Tensor, lengths, directions: Sequence[tuple],
              final: bool = False) -> Tensor:
    """Every direction of a recurrent encoder over a padded block, run in
    one time loop.

    ``cell`` is ``"lstm"`` or ``"gru"``.  ``x`` is (N, T, D), N sequences
    padded to T steps, or one sequence (T, D); ``lengths`` holds each
    sequence's real length.  Each of the K ``directions`` is
    ``(w, u, b, reverse)``: the input weights (H, D), recurrent weights
    (H, H) and biases (H,) of its gates, in ``GATES[cell]`` order, and
    whether it reads each sequence's real prefix last to first, so that
    its state at position t is the one that has consumed t..length-1.

    The states have x's leading shape and K * H columns, direction by
    direction; positions past a sequence's length are zero.  With
    ``final`` the result is instead each direction's state after its last
    step, (N, K * H) or (K * H,): for a reversed direction that is its
    state at position 0.

    Each direction's input projection of all steps is one matrix product,
    with its gates stacked; each step is then one stacked product for all
    directions and one elementwise op per update on the (K, N, ...) block.
    The sigmoid gates' rows of ``w``, ``b`` and ``u`` are halved once per
    call, so one ``tanh`` evaluates every gate; halving is exact, so the
    result equals ``(1 + tanh(x / 2)) / 2`` of the unhalved sum.
    """
    op = f"recurrent[{cell}]"
    gates = len(GATES[cell])
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"{op}: input must be (N, T, D) or (T, D), got shape {x.shape}")
    xs = x.data if x.data.ndim == 3 else x.data[None]
    n, steps, dim = xs.shape
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > steps):
        raise ShapeError(f"{op}: lengths {lengths.tolist()} do not fit input shape {x.shape}")
    hid = directions[0][1][0].shape[0]
    k = len(directions)
    halves = np.repeat([0.5] * (gates - 1) + [1.0], hid)

    times = np.arange(steps)
    real = times < lengths[:, None]                       # (N, T)
    rows = np.arange(n)
    # order[n, s] is the position a direction reads at step s; reversed,
    # an involution per row
    ahead = np.broadcast_to(times, (n, steps))
    behind = np.where(real, lengths[:, None] - 1 - times, times)
    a = np.empty((k, steps, n, gates * hid))
    rec = np.empty((k, gates * hid, hid))
    pos, w_all = [], []
    for d, (w, u, b, reverse) in enumerate(directions):
        wd = np.concatenate([p.data for p in w])
        if wd.shape[1] != dim:
            raise ShapeError(
                f"{op}: input weight {w[0].shape} does not conform to input {x.shape}")
        order = behind if reverse else ahead
        proj = a[d].reshape(-1, gates * hid)
        np.matmul(xs[rows, order.T].reshape(-1, dim), (wd * halves[:, None]).T, out=proj)
        proj += np.concatenate([p.data for p in b]) * halves
        np.concatenate([p.data for p in u], out=rec[d])
        pos.append(order)
        w_all.append(wd)
    parents = (x, *(p for w, u, b, _ in directions for p in (*w, *u, *b)))
    steps_fn = _lstm_steps if cell == "lstm" else _gru_steps
    hs, steps_back = steps_fn(a, rec, rec * halves[:, None], _tracked(parents))
    last = lengths - 1                                    # every direction's last step
    if final:
        data = hs[last, :, rows].reshape(n, k * hid)
    else:
        data = np.empty((n, steps, k * hid))
        for d, p in enumerate(pos):
            np.multiply(hs[:, d][p, rows[:, None]], real[..., None],
                        out=data[..., d * hid:(d + 1) * hid])
    out = _result(data if x.data.ndim == 3 else data[0], parents, op)
    if out.requires_grad:
        def back():
            g = out.grad if x.data.ndim == 3 else out.grad[None]
            if final:
                dhs = np.zeros((steps, k, n, hid))
                dhs[last, :, rows] = g.reshape(n, k, hid)
            else:
                dhs = np.empty((steps, k, n, hid))
                for d, p in enumerate(pos):
                    np.multiply(g[..., d * hid:(d + 1) * hid][rows, p.T], real.T[..., None],
                                out=dhs[:, d])
            flats, du = steps_back(dhs)
            # last direction first: x's gradient adds up in the order that
            # one graph node per direction would give it
            for d in reversed(range(k)):
                w, u, b, _ = directions[d]
                flat = flats[d]
                x_steps = xs[rows, pos[d].T].reshape(-1, dim)
                for p, gp in zip(w, _split_rows(flat.T @ x_steps, len(w))):
                    accumulate_grad(p, gp)
                for p, gp in zip(b, _split_rows(flat.sum(axis=0), len(b))):
                    accumulate_grad(p, gp)
                for p, gp in zip(u, du[d]):
                    accumulate_grad(p, gp)
                if x.requires_grad:
                    dx = (flat @ w_all[d]).reshape(steps, n, dim)[pos[d], rows[:, None]]
                    accumulate_grad(x, dx.reshape(x.shape))

        out._backward = back
    return out


# ---------------------------------------------------------------------------
# Attention


def additive_scores(states: Tensor, query: Tensor, v: Tensor, w_h: Tensor,
                    w_q: Tensor, b: Tensor) -> Tensor:
    """Additive attention scores ``v . tanh(W_h s + W_q q + b)`` for every
    state row ``s``: states (..., T, S) give scores (..., T)."""
    if (states.data.ndim < 2 or w_h.data.ndim != 2 or w_q.data.ndim != 2
            or states.shape[-1] != w_h.shape[1] or query.shape != (w_q.shape[1],)
            or not w_h.shape[0] == w_q.shape[0] == b.shape[0] == v.shape[0]):
        raise ShapeError(
            f"additive_scores: states {states.shape} and query {query.shape} do not "
            f"conform to W_h {w_h.shape}, W_q {w_q.shape}, b {b.shape}, v {v.shape}")
    inner = np.tanh(states.data @ w_h.data.T + w_q.data @ query.data + b.data)
    out = _result(inner @ v.data, (states, query, v, w_h, w_q, b), "additive_scores")
    if out.requires_grad:
        def back():
            g = out.grad
            att = inner.shape[-1]
            flat_inner = inner.reshape(-1, att)
            accumulate_grad(v, g.reshape(-1) @ flat_inner)
            d_inner = g[..., None] * v.data * (1.0 - inner * inner)
            flat = d_inner.reshape(-1, att)
            accumulate_grad(w_h, flat.T @ states.data.reshape(-1, states.shape[-1]))
            accumulate_grad(states, d_inner @ w_h.data)
            d_query_proj = flat.sum(axis=0)
            accumulate_grad(w_q, np.outer(d_query_proj, query.data))
            accumulate_grad(query, w_q.data.T @ d_query_proj)
            accumulate_grad(b, d_query_proj)

        out._backward = back
    return out


def masked_softmax(scores: Tensor, mask) -> Tensor:
    """Softmax along the last axis over the unmasked positions; masked
    positions are exactly 0.

    Stabilized by subtracting each row's max over unmasked entries before
    exponentiation, so large scores do not overflow.  Every row needs an
    unmasked position.
    """
    m = np.asarray(mask, dtype=bool)
    if scores.data.ndim == 0 or m.shape != scores.shape:
        raise ShapeError(f"masked_softmax: scores {scores.shape} vs mask {m.shape}")
    if not m.any(axis=-1).all():
        raise EmptyAttentionError("masked_softmax: mask has no unmasked position")
    top = np.max(np.where(m, scores.data, -np.inf), axis=-1, keepdims=True)
    e = np.where(m, np.exp(np.where(m, scores.data - top, 0.0)), 0.0)
    out = _result(e / e.sum(axis=-1, keepdims=True), (scores,), "masked_softmax")
    if out.requires_grad:
        def back():
            g = out.grad
            s = np.sum(g * out.data, axis=-1, keepdims=True)
            accumulate_grad(scores, out.data * (g - s))

        out._backward = back
    return out


def weighted_sum(weights: Tensor, states: Tensor) -> Tensor:
    """``weights @ states`` for each leading index: weights (..., T) and
    states (..., T, S) give (..., S)."""
    if states.data.ndim < 2 or weights.shape != states.shape[:-1]:
        raise ShapeError(f"weighted_sum: weights {weights.shape} vs states {states.shape}")
    out = _result(np.matmul(weights.data[..., None, :], states.data)[..., 0, :],
                  (weights, states), "weighted_sum")
    if out.requires_grad:
        def back():
            g = out.grad
            accumulate_grad(weights, np.matmul(states.data, g[..., :, None])[..., 0])
            accumulate_grad(states, weights.data[..., :, None] * g[..., None, :])

        out._backward = back
    return out


def softmax_cross_entropy_with_logits(logits: Tensor, label: int) -> Tensor:
    """Negative log softmax probability of ``label``; scalar output.

    The gradient with respect to the logits is softmax(logits) minus the
    one-hot label vector.
    """
    _require_rank(logits, 1, "softmax_cross_entropy", "logits")
    n = logits.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} logits")
    shifted = logits.data - np.max(logits.data)
    e = np.exp(shifted)
    p = e / e.sum()
    loss = np.log(e.sum()) - shifted[label]
    out = _result(np.asarray(loss), (logits,), "softmax_xent")
    if out.requires_grad:
        def back():
            g = float(out.grad)
            delta = p.copy()
            delta[label] -= 1.0
            accumulate_grad(logits, g * delta)

        out._backward = back
    return out


def softmax_probs(logits: Tensor) -> np.ndarray:
    """Plain softmax of a rank-1 tensor's values (no graph node)."""
    shifted = logits.data - np.max(logits.data)
    e = np.exp(shifted)
    return e / e.sum()


# ---------------------------------------------------------------------------
# Parameters and the backward pass


class Parameter(Tensor):
    """A named leaf tensor that is trained: its ``requires_grad`` is True.

    Names must be unique within a model; checkpoints address parameters
    by these names.

    An embedding table's matrix also has ``active``, one flag per row that
    :func:`gather`'s backward sets for every row it scatters into; a table
    gradient is written only there, so a row whose flag is false has never
    had a gradient.  ``active`` is None on every other parameter.
    """

    __slots__ = ("name", "active")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.active: np.ndarray | None = None

    def rows(self):
        """Index of the rows whose gradient can be nonzero: ``...`` (all of
        them) unless this is a table with rows that never had a gradient,
        then the active rows' indices."""
        if self.active is None or self.active.all():
            return ...
        return np.flatnonzero(self.active)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def placeholder(shape) -> np.ndarray:
    """A read-only float64 array of ``shape`` that owns no memory: every
    entry views one NaN.  It stands for parameter values not set yet, so a
    read before they are set gives NaN and a write raises."""
    return np.broadcast_to(np.float64(np.nan), shape)


class ParameterList(list):
    """A model's parameters in the order they are added, with ``rng``, the
    generator that draws their initial values.

    The order is the model's parameter order: the gradient clip sums in
    it and the gradient check reports in it, so a model that adds its
    parameters as it creates them lists them once, in creation order.

    With seed None nothing is drawn or allocated: ``rng`` is None and each
    parameter holds a ``placeholder`` of its shape until its data is set,
    as for a model whose values come from a checkpoint.
    """

    def __init__(self, seed: int | None):
        super().__init__()
        self.rng = None if seed is None else np.random.default_rng(seed)

    def _add(self, name: str, shape, values: Callable[[], np.ndarray]) -> Parameter:
        """A new trainable parameter of ``shape`` holding ``values()``, or a
        placeholder if this list draws nothing, appended."""
        p = Parameter(name, placeholder(shape) if self.rng is None else values())
        self.append(p)
        return p

    def uniform(self, name: str, shape, low: float, high: float,
                shift: float = 0.0) -> Parameter:
        """A new parameter drawn uniformly from [low, high), plus ``shift``."""
        return self._add(name, shape, lambda: self.rng.uniform(low, high, shape) + shift)

    def zeros(self, name: str, shape) -> Parameter:
        """A new parameter holding zeros."""
        return self._add(name, shape, lambda: np.zeros(shape))


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative postorder over the requires-grad op nodes under ``root``;
    leaves (parameters) have nothing to propagate and are left out."""
    order: list[Tensor] = []
    seen: set[int] = {id(root)}
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, child = stack[-1]
        parents = node._parents
        while child < len(parents) and (
                not parents[child].requires_grad or not parents[child]._parents
                or id(parents[child]) in seen):
            child += 1
        if child < len(parents):
            seen.add(id(parents[child]))
            stack[-1] = (node, child + 1)
            stack.append((parents[child], 0))
        else:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor) -> None:
    """Run reverse accumulation from a scalar loss.

    Gradients are added into every reachable ``requires_grad`` tensor, so
    the backward passes of several losses accumulate (used for batching).
    A graph is backwarded once: each node drops its backward closure, which
    refers to the node, after running it, so reference counting frees the
    graph without the cycle collector.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if loss.requires_grad:
        accumulate_grad(loss, np.ones((), dtype=np.float64))
        for node in reversed(_topo_order(loss)):
            if node._backward is not None and node.grad is not None:
                node._backward()
            node._backward = None


def zero_gradients(params: Iterable[Parameter]) -> None:
    """Zero each parameter's gradient buffer in place, allocating it on
    first use, so a parameter off the path to the loss still has a
    gradient.  A table zeroes only its active rows: the others are zero."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros(p.data.shape)
        else:
            p.grad[p.rows()] = 0.0


# ---------------------------------------------------------------------------
# Finite-difference verification


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_tsv(self) -> str:
        lines = ["parameter\tmax_rel_error\tstatus"]
        for e in self.entries:
            lines.append(f"{e.name}\t{e.max_rel_error:.3e}\t{'pass' if e.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# relative-error floor: below this magnitude the comparison is effectively
# absolute, which keeps central-difference roundoff from flagging healthy
# near-zero gradients
_REL_FLOOR = 1e-5

# the central difference's step, and the largest relative error that passes
FD_STEP = 1e-5
FD_TOLERANCE = 1e-4


def finite_difference_check(forward: Callable[[], Tensor],
                            params: Sequence[Parameter]) -> GradCheckReport:
    """Compare analytic gradients against central finite differences,
    every entry of every parameter, in parameter order.

    ``forward`` must rebuild the graph and return the scalar loss tensor on
    every call, and must be deterministic; the check evaluates it twice up
    front and raises :class:`DeterminismError` if the values differ.
    """
    first = forward().item()
    second = forward().item()
    if first != second:
        raise DeterminismError(
            f"forward is not deterministic: {first!r} != {second!r}")

    zero_gradients(params)
    backward(forward())

    report = GradCheckReport()
    for p in params:
        flat = p.data.reshape(-1)
        a_flat = p.grad.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = forward().item()
            flat[i] = orig - FD_STEP
            f_minus = forward().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            a = a_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), _REL_FLOOR)
            if rel > worst:
                worst = rel
        report.entries.append(GradCheckEntry(
            name=p.name, max_rel_error=worst, passed=worst <= FD_TOLERANCE))
    return report
