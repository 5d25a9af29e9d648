"""Recurrent sequence encoders: single-step LSTM and GRU cells plus a
masked bidirectional wrapper.

One encoder instance is used at the word level (shared across sentences)
and another at the sentence level.  Masks must be contiguous prefixes;
the backward direction runs over the reversed unmasked prefix only, so
padding can never leak into real positions.
"""

from __future__ import annotations

import math

import numpy as np

from .grad import (
    Parameter,
    ShapeError,
    Tensor,
    add,
    affine,
    concat,
    constant,
    hadamard,
    matvec,
    scale,
    sigmoid_elem,
    tanh_elem,
)

CELL_LSTM_BI = "lstm-bi"
CELL_GRU_BI = "gru-bi"
CELL_LSTM_UNI = "lstm-uni"
CELLS = (CELL_LSTM_BI, CELL_GRU_BI, CELL_LSTM_UNI)

FORGET_BIAS = 1.0


def _gate(x: Tensor, h_prev: Tensor, w: Parameter, u: Parameter,
          b: Parameter) -> Tensor:
    return add(affine(x, w.value, b.value), matvec(u.value, h_prev))


def _one_minus(x: Tensor) -> Tensor:
    return add(constant(np.ones(x.shape[0])), scale(x, -1.0))


class LstmCell:
    """One direction of an LSTM; state is (h, c)."""

    def __init__(self, prefix: str, in_dim: int, hidden: int,
                 rng: np.random.Generator):
        self.hidden = hidden
        bound = 1.0 / math.sqrt(hidden)

        def mk(name, shape, offset=0.0):
            return Parameter(f"{prefix}.{name}",
                             rng.uniform(-bound, bound, shape) + offset)

        self.params = []
        for gate in ("i", "f", "o", "g"):
            w = mk(f"w_{gate}", (hidden, in_dim))
            u = mk(f"u_{gate}", (hidden, hidden))
            b = mk(f"b_{gate}", hidden,
                   offset=FORGET_BIAS if gate == "f" else 0.0)
            setattr(self, f"w_{gate}", w)
            setattr(self, f"u_{gate}", u)
            setattr(self, f"b_{gate}", b)
            self.params.extend((w, u, b))

    def initial_state(self):
        zeros = np.zeros(self.hidden)
        return constant(zeros), constant(zeros)

    def step(self, x: Tensor, state):
        h_prev, c_prev = state
        i = sigmoid_elem(_gate(x, h_prev, self.w_i, self.u_i, self.b_i))
        f = sigmoid_elem(_gate(x, h_prev, self.w_f, self.u_f, self.b_f))
        o = sigmoid_elem(_gate(x, h_prev, self.w_o, self.u_o, self.b_o))
        g = tanh_elem(_gate(x, h_prev, self.w_g, self.u_g, self.b_g))
        c = add(hadamard(f, c_prev), hadamard(i, g))
        h = hadamard(o, tanh_elem(c))
        return h, c

    def output(self, state) -> Tensor:
        return state[0]

    def parameters(self) -> list:
        return list(self.params)


class GruCell:
    """One direction of a GRU; state is (h,).

    Update convention: h = (1 - z) * n + z * h_prev.
    """

    def __init__(self, prefix: str, in_dim: int, hidden: int,
                 rng: np.random.Generator):
        self.hidden = hidden
        bound = 1.0 / math.sqrt(hidden)

        def mk(name, shape):
            return Parameter(f"{prefix}.{name}",
                             rng.uniform(-bound, bound, shape))

        self.params = []
        for gate in ("z", "r", "n"):
            w = mk(f"w_{gate}", (hidden, in_dim))
            u = mk(f"u_{gate}", (hidden, hidden))
            b = mk(f"b_{gate}", hidden)
            setattr(self, f"w_{gate}", w)
            setattr(self, f"u_{gate}", u)
            setattr(self, f"b_{gate}", b)
            self.params.extend((w, u, b))

    def initial_state(self):
        return (constant(np.zeros(self.hidden)),)

    def step(self, x: Tensor, state):
        (h_prev,) = state
        z = sigmoid_elem(_gate(x, h_prev, self.w_z, self.u_z, self.b_z))
        r = sigmoid_elem(_gate(x, h_prev, self.w_r, self.u_r, self.b_r))
        n = tanh_elem(add(affine(x, self.w_n.value, self.b_n.value),
                          matvec(self.u_n.value, hadamard(r, h_prev))))
        h = add(hadamard(_one_minus(z), n), hadamard(z, h_prev))
        return (h,)

    def output(self, state) -> Tensor:
        return state[0]

    def parameters(self) -> list:
        return list(self.params)


def _make_cell(kind: str, prefix: str, in_dim: int, hidden: int,
               rng: np.random.Generator):
    if kind in (CELL_LSTM_BI, CELL_LSTM_UNI):
        return LstmCell(prefix, in_dim, hidden, rng)
    if kind == CELL_GRU_BI:
        return GruCell(prefix, in_dim, hidden, rng)
    raise ValueError(f"unknown cell kind {kind!r}, expected one of {CELLS}")


class SequenceEncoder:
    """Masked sequence encoder; bidirectional outputs concatenate the
    forward and backward states position by position."""

    def __init__(self, name: str, in_dim: int, hidden: int,
                 cell: str = CELL_LSTM_BI, rng: np.random.Generator = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.name = name
        self.hidden = hidden
        self.cell_kind = cell
        self.bidirectional = cell != CELL_LSTM_UNI
        self.fwd = _make_cell(cell, f"{name}.fwd", in_dim, hidden, rng)
        self.bwd = (_make_cell(cell, f"{name}.bwd", in_dim, hidden, rng)
                    if self.bidirectional else None)

    @property
    def out_dim(self) -> int:
        return self.hidden * (2 if self.bidirectional else 1)

    def parameters(self) -> list:
        params = self.fwd.parameters()
        if self.bwd is not None:
            params += self.bwd.parameters()
        return params

    def _real_length(self, inputs: list, mask: list) -> int:
        if len(inputs) != len(mask):
            raise ShapeError(
                f"{self.name}: {len(inputs)} inputs vs {len(mask)} mask entries")
        real = sum(1 for m in mask if m)
        if real == 0:
            raise ShapeError(f"{self.name}: cannot encode an empty sequence")
        if any(mask[real:]) or not all(mask[:real]):
            raise ShapeError(f"{self.name}: mask must be a contiguous prefix")
        return real

    def _run_directions(self, inputs: list, real: int) -> tuple:
        fwd_states = []
        state = self.fwd.initial_state()
        for t in range(real):
            state = self.fwd.step(inputs[t], state)
            fwd_states.append(self.fwd.output(state))

        if self.bwd is None:
            return fwd_states, None
        bwd_states = [None] * real
        state = self.bwd.initial_state()
        for t in reversed(range(real)):
            state = self.bwd.step(inputs[t], state)
            bwd_states[t] = self.bwd.output(state)
        return fwd_states, bwd_states

    def encode(self, inputs: list, mask: list) -> list:
        """Hidden states per position; masked positions are zero vectors."""
        real = self._real_length(inputs, mask)
        fwd_states, bwd_states = self._run_directions(inputs, real)
        if bwd_states is None:
            per_pos = fwd_states
        else:
            per_pos = [concat(f, b) for f, b in zip(fwd_states, bwd_states)]
        pad = np.zeros(self.out_dim)
        return per_pos + [constant(pad) for _ in range(len(inputs) - real)]

    def final_state(self, inputs: list, mask: list) -> Tensor:
        """Summary state: last forward state, concatenated with the
        backward state that has consumed the whole sequence."""
        real = self._real_length(inputs, mask)
        fwd_states, bwd_states = self._run_directions(inputs, real)
        if bwd_states is None:
            return fwd_states[-1]
        return concat(fwd_states[-1], bwd_states[0])
