"""Recurrent encoder tests: cell semantics, masked bidirectional
encoding of single sequences and padded blocks, padding isolation and
finite-difference gradient checks."""

import math

import numpy as np
import pytest

from poshan.encoder import (
    CELL_GRU_BI,
    CELL_LSTM_BI,
    CELL_LSTM_UNI,
    CELLS,
    SequenceEncoder,
)
from poshan.grad import (
    Parameter,
    ParameterList,
    ShapeError,
    backward,
    constant,
    finite_difference_check,
    gather,
    hadamard,
    recurrent,
    sum_axis,
)
from toy_ops import dot


def zero_params(params) -> None:
    for p in params:
        p.data[...] = 0.0


def ones_const(n):
    return constant(np.ones(n))


def make_cell(cell, in_dim, hidden, params):
    """An encoder whose forward direction, the first parameters in
    ``params``, :func:`run_cell` runs alone."""
    return SequenceEncoder("c", in_dim=in_dim, hidden=hidden, cell=cell, params=params)


def run_cell(enc, xs):
    """States (T, H) of the forward direction over one full-length sequence."""
    x = constant(np.asarray(xs, dtype=np.float64))
    return recurrent(enc.cell, x, [x.shape[0]], enc.directions[:1])


def forward_params(enc, params):
    return params[:len(params) // len(enc.directions)]


def named(params, name):
    return next(p for p in params if p.name == name)


def readout(t, seed=0):
    """A scalar that weighs every entry of ``t`` differently."""
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, t.shape)
    out = hadamard(t, constant(weights))
    while out.data.ndim > 1:
        out = sum_axis(out)
    return dot(out, ones_const(out.shape[0]))


# ---------------------------------------------------------------------------
# LSTM cell


class TestLstmStep:
    def test_zero_params_give_zero_state(self):
        params = ParameterList(0)
        cell = make_cell(CELL_LSTM_UNI, in_dim=3, hidden=2, params=params)
        zero_params(params)
        h = run_cell(cell, [[1.0, -2.0, 3.0], [0.5, 0.5, 0.5]])
        # i = f = o = sigmoid(0) = 0.5 and g = tanh(0) = 0, so c = h = 0 at
        # every step
        assert np.array_equal(h.data, np.zeros((2, 2)))

    def test_forget_bias_alone_keeps_zero_state(self):
        params = ParameterList(0)
        cell = make_cell(CELL_LSTM_UNI, in_dim=2, hidden=2, params=params)
        zero_params(params)
        named(params, "c.fwd.b_f").data[...] = 10.0
        h = run_cell(cell, np.zeros((2, 2)))
        assert np.array_equal(h.data, np.zeros((2, 2)))

    def test_forget_gate_carries_cell_state(self):
        params = ParameterList(0)
        cell = make_cell(CELL_LSTM_UNI, in_dim=1, hidden=1, params=params)
        zero_params(params)
        named(params, "c.fwd.b_i").data[...] = 30.0  # i saturates to 1
        named(params, "c.fwd.b_f").data[...] = 30.0  # f saturates to 1
        named(params, "c.fwd.w_g").data[...] = math.atanh(0.8)
        # step 0 writes c = tanh(atanh(0.8)) = 0.8; step 1 adds g = tanh(0)
        # and keeps c, so h = sigmoid(0) * tanh(c) at both steps
        h = run_cell(cell, [[1.0], [0.0]])
        assert h.data[0, 0] == pytest.approx(0.5 * math.tanh(0.8), abs=1e-12)
        assert h.data[1, 0] == pytest.approx(0.5 * math.tanh(0.8), abs=1e-12)

    def test_default_init_has_forget_bias_offset(self):
        params = ParameterList(0)
        make_cell(CELL_LSTM_UNI, in_dim=2, hidden=8, params=params)
        b_f, b_i = named(params, "c.fwd.b_f"), named(params, "c.fwd.b_i")
        bound = 1.0 / math.sqrt(8)
        assert np.all(b_f.data >= 1.0 - bound)
        assert np.all(b_f.data <= 1.0 + bound)
        assert np.all(np.abs(b_i.data) <= bound)

    def test_two_step_scalar_gradients(self):
        params = ParameterList(7)
        cell = make_cell(CELL_LSTM_UNI, in_dim=1, hidden=1, params=params)

        def forward():
            h = run_cell(cell, [[0.7], [-0.3]])
            return dot(gather(h, 1), ones_const(1))

        report = finite_difference_check(forward, forward_params(cell, params))
        assert report.passed, report.to_tsv()


class TestGruCell:
    def test_zero_params_give_zero_state(self):
        params = ParameterList(0)
        cell = make_cell(CELL_GRU_BI, in_dim=2, hidden=3, params=params)
        zero_params(params)
        h = run_cell(cell, [np.ones(2)])
        assert np.array_equal(h.data, np.zeros((1, 3)))

    def test_scalar_hand_value(self):
        params = ParameterList(0)
        cell = make_cell(CELL_GRU_BI, in_dim=1, hidden=1, params=params)
        zero_params(params)
        named(params, "c.fwd.w_n").data[...] = 1.0
        h = run_cell(cell, [[1.0]])
        # z = 0.5, h_prev = 0, n = tanh(1): h = (1 - z) * n
        assert h.data[0, 0] == pytest.approx(0.5 * math.tanh(1.0), abs=1e-12)

    def test_two_step_scalar_gradients(self):
        params = ParameterList(3)
        cell = make_cell(CELL_GRU_BI, in_dim=1, hidden=1, params=params)

        def forward():
            h = run_cell(cell, [[0.4], [0.9]])
            return dot(gather(h, 1), ones_const(1))

        report = finite_difference_check(forward, forward_params(cell, params))
        assert report.passed, report.to_tsv()


# ---------------------------------------------------------------------------
# Sequence encoder


def make_inputs(rng, n, dim):
    return constant(rng.normal(size=(n, dim)))


class TestSequenceEncoder:
    def test_output_shape_and_length(self):
        enc = SequenceEncoder("e", in_dim=3, hidden=4, cell=CELL_LSTM_BI,
                              params=ParameterList(0))
        xs = make_inputs(np.random.default_rng(1), 5, 3)
        out = enc.encode(xs, [True] * 5)
        assert out.shape == (5, 8)
        assert enc.out_dim == 8

    def test_single_position_is_concat_of_single_steps(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=CELL_LSTM_BI,
                              params=ParameterList(2))
        x = constant(np.array([[0.3, -0.6]]))
        out = enc.encode(x, [True])
        fwd = recurrent(enc.cell, x, [1], enc.directions[:1])
        bwd = recurrent(enc.cell, x, [1], enc.directions[1:])
        assert np.array_equal(out.data, np.concatenate([fwd.data, bwd.data], axis=1))

    def test_zero_params_give_zero_states(self):
        params = ParameterList(0)
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=params)
        zero_params(params)
        out = enc.encode(make_inputs(np.random.default_rng(3), 4, 2),
                         [True] * 4)
        assert np.array_equal(out.data, np.zeros((4, 4)))

    def test_palindrome_with_tied_directions(self):
        params = ParameterList(4)
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=CELL_LSTM_BI,
                              params=params)
        half = len(params) // 2  # the forward cell's, then the backward cell's
        for pf, pb in zip(params[:half], params[half:]):
            pb.data[...] = pf.data
        v0 = np.array([0.5, -0.2])
        v1 = np.array([-0.8, 0.1])
        out = enc.encode(constant(np.stack([v0, v1, v0.copy()])), [True] * 3)
        h = enc.hidden
        # tied params + palindromic input: bwd at mirror equals fwd at t
        for t in range(3):
            fwd_t = out.data[t, :h]
            bwd_mirror = out.data[2 - t, h:]
            assert np.array_equal(fwd_t, bwd_mirror)

    def test_masked_positions_are_zero_and_constant(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(5))
        xs = Parameter("x", np.random.default_rng(6).normal(size=(4, 2)))
        out = enc.encode(xs, [True, True, False, False])
        assert np.array_equal(out.data[2:], np.zeros((2, 4)))
        # nothing flows back into the padded positions
        backward(readout(out))
        assert np.array_equal(xs.grad[2:], np.zeros((2, 2)))
        assert np.all(xs.grad[:2] != 0.0)

    def test_padding_isolation(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(7))
        rng = np.random.default_rng(8)
        real = rng.normal(size=(2, 2))
        pad_a = rng.normal(size=(1, 2))
        pad_b = rng.normal(size=(1, 2)) * 100.0
        mask = [True, True, False]
        out_a = enc.encode(constant(np.concatenate([real, pad_a])), mask)
        out_b = enc.encode(constant(np.concatenate([real, pad_b])), mask)
        assert np.array_equal(out_a.data[:2], out_b.data[:2])

    def test_unidirectional_output_dim(self):
        enc = SequenceEncoder("e", in_dim=3, hidden=4, cell=CELL_LSTM_UNI,
                              params=ParameterList(0))
        assert enc.out_dim == 4
        assert len(enc.directions) == 1
        out = enc.encode(make_inputs(np.random.default_rng(1), 2, 3),
                         [True] * 2)
        assert out.shape == (2, 4)

    def test_gru_cell_selection(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=CELL_GRU_BI,
                              params=ParameterList(0))
        assert enc.cell == "gru"
        assert enc.out_dim == 6

    @pytest.mark.parametrize("cell,gates,sides", [
        (CELL_LSTM_BI, "ifog", ("fwd", "bwd")),
        (CELL_GRU_BI, "zrn", ("fwd", "bwd")),
        (CELL_LSTM_UNI, "ifog", ("fwd",)),
    ], ids=CELLS)
    def test_directions_are_built_once_in_gate_order(self, cell, gates, sides):
        params = ParameterList(0)
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=cell, params=params)
        assert [[[p.name for p in group] for group in d[:3]] + [d[3]]
                for d in enc.directions] == [
            [[f"e.{side}.{kind}_{gate}" for gate in gates] for kind in "wub"] + [side == "bwd"]
            for side in sides]
        # created gate by gate, w, u and b each, forward first
        assert [p.name for p in params] == [f"e.{side}.{kind}_{gate}" for side in sides
                                            for gate in gates for kind in "wub"]

    def test_parameter_names_unique(self):
        params = ParameterList(0)
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=params)
        names = [p.name for p in params]
        assert len(names) == len(set(names)) == 24

    def test_empty_sequence_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(0))
        with pytest.raises(ShapeError):
            enc.encode(constant(np.zeros((0, 2))), [])

    def test_all_masked_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(0))
        with pytest.raises(ShapeError):
            enc.encode(make_inputs(np.random.default_rng(0), 2, 2),
                       [False, False])

    def test_length_mismatch_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(0))
        with pytest.raises(ShapeError):
            enc.encode(make_inputs(np.random.default_rng(0), 2, 2), [True])

    def test_non_prefix_mask_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(0))
        with pytest.raises(ShapeError, match="prefix"):
            enc.encode(make_inputs(np.random.default_rng(0), 3, 2),
                       [True, False, True])


# ---------------------------------------------------------------------------
# Padded blocks of sequences

# three sequences padded to 4 steps; lengths include 1 and the full width
BLOCK_MASK = [[True] * 4, [True, False, False, False], [True, True, True, False]]


def flat(mask):
    return [m for row in mask for m in row]


class TestBlockEncoding:
    @pytest.mark.parametrize("cell", CELLS)
    def test_block_matches_sequences_encoded_alone(self, cell):
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=cell,
                              params=ParameterList(20))
        xs = np.random.default_rng(21).normal(size=(3, 4, 2))
        block = enc.encode(constant(xs), flat(BLOCK_MASK))
        assert block.shape == (3, 4, enc.out_dim)
        for n, row in enumerate(BLOCK_MASK):
            length = sum(row)
            alone = enc.encode(constant(xs[n, :length]), [True] * length)
            np.testing.assert_allclose(block.data[n, :length], alone.data,
                                       rtol=0, atol=1e-14)
            assert np.array_equal(block.data[n, length:],
                                  np.zeros((4 - length, enc.out_dim)))

    @pytest.mark.parametrize("cell", CELLS)
    def test_ragged_block_gradients(self, cell):
        params = ParameterList(22)
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=cell,
                              params=params)
        xs = Parameter("x", np.random.default_rng(23).normal(size=(3, 4, 2)))

        report = finite_difference_check(
            lambda: readout(enc.encode(xs, flat(BLOCK_MASK))),
            [xs, *params])
        assert report.passed, report.to_tsv()

    def test_mask_rows_must_be_prefixes(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=ParameterList(0))
        xs = constant(np.zeros((2, 3, 2)))
        with pytest.raises(ShapeError, match="prefix"):
            enc.encode(xs, [True, True, True, False, True, False])
        with pytest.raises(ShapeError, match="empty"):
            enc.encode(xs, [True, True, True, False, False, False])

    def test_final_state_joins_both_ends(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=CELL_LSTM_BI,
                              params=ParameterList(24))
        xs = make_inputs(np.random.default_rng(25), 4, 2)
        states = enc.encode(xs, [True] * 4).data
        final = enc.final_state(xs).data
        assert np.array_equal(final, np.concatenate([states[3, :3], states[0, 3:]]))


# ---------------------------------------------------------------------------
# Gradient checks through full encodings


class TestEncoderGradients:
    def encode_loss(self, enc, xs, mask):
        out = enc.encode(xs, mask)
        return dot(sum_axis(out), ones_const(enc.out_dim))

    def test_three_token_bilstm_all_params(self):
        params = ParameterList(11)
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=CELL_LSTM_BI,
                              params=params)
        xs = make_inputs(np.random.default_rng(12), 3, 2)

        report = finite_difference_check(
            lambda: self.encode_loss(enc, xs, [True] * 3), params)
        assert report.passed, report.to_tsv()
        assert len(report.entries) == 24

    def test_three_token_bigru_all_params(self):
        params = ParameterList(13)
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_GRU_BI,
                              params=params)
        xs = make_inputs(np.random.default_rng(14), 3, 2)

        report = finite_difference_check(
            lambda: self.encode_loss(enc, xs, [True] * 3), params)
        assert report.passed, report.to_tsv()

    def test_masked_encoding_gradients(self):
        params = ParameterList(15)
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_LSTM_BI,
                              params=params)
        xs = make_inputs(np.random.default_rng(16), 4, 2)

        report = finite_difference_check(
            lambda: self.encode_loss(enc, xs, [True, True, False, False]),
            params)
        assert report.passed, report.to_tsv()
