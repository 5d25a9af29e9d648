"""Masked recurrent sequence encoders that run all of their LSTM or GRU
directions over a padded block of sequences in one
:func:`poshan.grad.recurrent` op.

One encoder instance is used at the word level, where it runs every
sentence of a record as one (N, T, D) block, and another at the sentence
level.  Masks must be contiguous prefixes; the backward direction runs
over each sequence's reversed real prefix only, so padding can never leak
into real positions.
"""

from __future__ import annotations

import math

import numpy as np

from .grad import GATES, ParameterList, ShapeError, Tensor, recurrent

CELL_LSTM_BI = "lstm-bi"
CELL_GRU_BI = "gru-bi"
CELL_LSTM_UNI = "lstm-uni"
CELLS = (CELL_LSTM_BI, CELL_GRU_BI, CELL_LSTM_UNI)

FORGET_BIAS = 1.0


class SequenceEncoder:
    """Masked sequence encoder; bidirectional outputs concatenate the
    forward and backward states position by position.

    ``directions`` holds the forward direction, then for a bidirectional
    cell the backward one, each as the ``(w, u, b, reverse)`` tuple that
    :func:`poshan.grad.recurrent` takes.  Per gate of ``GATES[cell]`` a
    direction has an input weight ``{name}.{fwd|bwd}.w_<gate>`` (H, D), a
    recurrent weight ``u_<gate>`` (H, H) and a bias ``b_<gate>`` (H,),
    drawn uniformly from +-1/sqrt(H); the LSTM forget-gate bias starts
    near 1.  The GRU's update is h = (1 - z) * n + z * h_prev.
    """

    def __init__(self, name: str, in_dim: int, hidden: int, cell: str,
                 params: ParameterList):
        self.name = name
        self.hidden = hidden
        self.cell = "gru" if cell == CELL_GRU_BI else "lstm"
        bound = 1.0 / math.sqrt(hidden)
        shapes = {"w": (hidden, in_dim), "u": (hidden, hidden), "b": hidden}
        self.directions = []
        for side in ("fwd",) if cell == CELL_LSTM_UNI else ("fwd", "bwd"):
            weights = {kind: [] for kind in shapes}
            for gate in GATES[self.cell]:
                for kind, shape in shapes.items():
                    offset = FORGET_BIAS if (kind, gate) == ("b", "f") else 0.0
                    weights[kind].append(params.uniform(
                        f"{name}.{side}.{kind}_{gate}", shape, -bound, bound, offset))
            self.directions.append((*weights.values(), side == "bwd"))

    @property
    def out_dim(self) -> int:
        return self.hidden * len(self.directions)

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
        return recurrent(self.cell, inputs, self._lengths(inputs, mask), self.directions)

    def final_state(self, inputs: Tensor) -> Tensor:
        """Summary state of one sequence (T, D) whose T positions are all
        real: the last forward state, concatenated with the backward state
        that has consumed the whole sequence."""
        if inputs.data.ndim != 2:
            raise ShapeError(f"{self.name}: final_state takes one sequence, got {inputs.shape}")
        return recurrent(self.cell, inputs, [len(inputs.data)], self.directions, final=True)
