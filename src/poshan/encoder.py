"""Recurrent sequence encoders: the parameters of LSTM and GRU directions,
and a masked encoder that runs all of its directions over a padded block
of sequences in one :func:`poshan.grad.recurrent` op.

One encoder instance is used at the word level, where it runs every
sentence of a record as one (N, T, D) block, and another at the sentence
level.  Masks must be contiguous prefixes; the backward direction runs
over each sequence's reversed real prefix only, so padding can never leak
into real positions.
"""

from __future__ import annotations

import math

import numpy as np

from .grad import ParameterList, ShapeError, Tensor, recurrent

CELL_LSTM_BI = "lstm-bi"
CELL_GRU_BI = "gru-bi"
CELL_LSTM_UNI = "lstm-uni"
CELLS = (CELL_LSTM_BI, CELL_GRU_BI, CELL_LSTM_UNI)

FORGET_BIAS = 1.0


class _Cell:
    """Parameters of one recurrent direction: an input weight ``w_<gate>``
    (H, D), a recurrent weight ``u_<gate>`` (H, H) and a bias ``b_<gate>``
    (H,) per gate, drawn uniformly from +-1/sqrt(H) and added to ``params``."""

    gates: tuple = ()
    bias_offsets: dict = {}
    cell: str = ""  # the recurrence, as poshan.grad.recurrent names it

    def __init__(self, prefix: str, in_dim: int, hidden: int,
                 params: ParameterList):
        self.hidden = hidden
        bound = 1.0 / math.sqrt(hidden)
        for gate in self.gates:
            for kind, shape in (("w", (hidden, in_dim)), ("u", (hidden, hidden)),
                                ("b", hidden)):
                offset = self.bias_offsets.get(gate, 0.0) if kind == "b" else 0.0
                setattr(self, f"{kind}_{gate}", params.add(
                    f"{prefix}.{kind}_{gate}",
                    params.rng.uniform(-bound, bound, shape) + offset))

    def direction(self, reverse: bool = False) -> tuple:
        """This direction as :func:`poshan.grad.recurrent` takes it."""
        return tuple([getattr(self, f"{kind}_{gate}") for gate in self.gates]
                     for kind in "wub") + (reverse,)


class LstmCell(_Cell):
    """One direction of an LSTM; the forget-gate bias starts near 1."""

    gates = ("i", "f", "o", "g")
    bias_offsets = {"f": FORGET_BIAS}
    cell = "lstm"


class GruCell(_Cell):
    """One direction of a GRU.

    Update convention: h = (1 - z) * n + z * h_prev.
    """

    gates = ("z", "r", "n")
    cell = "gru"


def _make_cell(kind: str, prefix: str, in_dim: int, hidden: int,
               params: ParameterList):
    if kind in (CELL_LSTM_BI, CELL_LSTM_UNI):
        return LstmCell(prefix, in_dim, hidden, params)
    if kind == CELL_GRU_BI:
        return GruCell(prefix, in_dim, hidden, params)
    raise ValueError(f"unknown cell kind {kind!r}, expected one of {CELLS}")


class SequenceEncoder:
    """Masked sequence encoder; bidirectional outputs concatenate the
    forward and backward states position by position."""

    def __init__(self, name: str, in_dim: int, hidden: int, cell: str,
                 params: ParameterList):
        self.name = name
        self.hidden = hidden
        self.cell_kind = cell
        self.bidirectional = cell != CELL_LSTM_UNI
        self.fwd = _make_cell(cell, f"{name}.fwd", in_dim, hidden, params)
        self.bwd = (_make_cell(cell, f"{name}.bwd", in_dim, hidden, params)
                    if self.bidirectional else None)

    @property
    def out_dim(self) -> int:
        return self.hidden * (2 if self.bidirectional else 1)

    def _directions(self) -> list:
        if self.bwd is None:
            return [self.fwd.direction()]
        return [self.fwd.direction(), self.bwd.direction(reverse=True)]

    def _lengths(self, inputs: Tensor, mask) -> np.ndarray:
        """Real length of each sequence, from a flat row-major mask."""
        if inputs.data.ndim not in (2, 3):
            raise ShapeError(
                f"{self.name}: inputs must be (N, T, D) or (T, D), got {inputs.shape}")
        m = np.asarray(mask, dtype=bool)
        positions = inputs.shape[:-1]
        if m.ndim != 1 or m.size != math.prod(positions):
            raise ShapeError(
                f"{self.name}: inputs {inputs.shape} vs {m.size} mask entries")
        m = m.reshape(positions if len(positions) == 2 else (1, -1))
        lengths = m.sum(axis=1)
        if not lengths.all():
            raise ShapeError(f"{self.name}: cannot encode an empty sequence")
        if not np.array_equal(m, np.arange(m.shape[1]) < lengths[:, None]):
            raise ShapeError(f"{self.name}: mask must be a contiguous prefix")
        return lengths

    def encode(self, inputs: Tensor, mask) -> Tensor:
        """Hidden states per position; masked positions are zero.

        ``inputs`` is a block of N sequences padded to T steps (N, T, D),
        or one sequence (T, D); ``mask`` lists its N * T positions in
        row-major order, one truthy entry per real position.  The result
        has the inputs' leading shape and ``out_dim`` columns.
        """
        return recurrent(self.fwd.cell, inputs, self._lengths(inputs, mask),
                         self._directions())

    def final_state(self, inputs: Tensor) -> Tensor:
        """Summary state of one sequence (T, D) whose T positions are all
        real: the last forward state, concatenated with the backward state
        that has consumed the whole sequence."""
        if inputs.data.ndim != 2:
            raise ShapeError(f"{self.name}: final_state takes one sequence, got {inputs.shape}")
        return recurrent(self.fwd.cell, inputs, [len(inputs.data)], self._directions(),
                         final=True)
