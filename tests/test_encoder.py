"""Recurrent encoder tests: cell step semantics, masked bidirectional
encoding, padding isolation and finite-difference gradient checks."""

import math

import numpy as np
import pytest

from poshan.encoder import (
    CELL_GRU_BI,
    CELL_LSTM_BI,
    CELL_LSTM_UNI,
    GruCell,
    LstmCell,
    SequenceEncoder,
)
from poshan.grad import (
    ShapeError,
    constant,
    dot,
    finite_difference_check,
    sum_vectors,
)


def zero_params(cell) -> None:
    for p in cell.parameters():
        p.value.data[...] = 0.0


def ones_const(n):
    return constant(np.ones(n))


# ---------------------------------------------------------------------------
# LSTM cell


class TestLstmStep:
    def test_zero_params_give_zero_state(self):
        cell = LstmCell("c", in_dim=3, hidden=2, rng=np.random.default_rng(0))
        zero_params(cell)
        h0, c0 = cell.initial_state()
        h, c = cell.step(constant(np.array([1.0, -2.0, 3.0])), (h0, c0))
        # i = f = o = sigmoid(0) = 0.5 and g = tanh(0) = 0, so c = h = 0
        assert np.array_equal(h.data, [0.0, 0.0])
        assert np.array_equal(c.data, [0.0, 0.0])

    def test_forget_bias_alone_keeps_zero_state(self):
        cell = LstmCell("c", in_dim=2, hidden=2, rng=np.random.default_rng(0))
        zero_params(cell)
        cell.b_f.value.data[...] = 10.0
        h0, c0 = cell.initial_state()
        h, c = cell.step(constant(np.zeros(2)), (h0, c0))
        assert np.array_equal(c.data, [0.0, 0.0])
        assert np.array_equal(h.data, [0.0, 0.0])

    def test_forget_gate_carries_cell_state(self):
        cell = LstmCell("c", in_dim=1, hidden=1, rng=np.random.default_rng(0))
        zero_params(cell)
        cell.b_f.value.data[...] = 30.0  # f saturates to 1
        c_prev = constant(np.array([0.8]))
        h, c = cell.step(constant(np.zeros(1)), (constant(np.zeros(1)), c_prev))
        assert c.data[0] == pytest.approx(0.8, abs=1e-12)
        # h = sigmoid(0) * tanh(c)
        assert h.data[0] == pytest.approx(0.5 * math.tanh(0.8), abs=1e-12)

    def test_default_init_has_forget_bias_offset(self):
        rng = np.random.default_rng(0)
        cell = LstmCell("c", in_dim=2, hidden=8, rng=rng)
        bound = 1.0 / math.sqrt(8)
        assert np.all(cell.b_f.data >= 1.0 - bound)
        assert np.all(cell.b_f.data <= 1.0 + bound)
        assert np.all(np.abs(cell.b_i.data) <= bound)

    def test_two_step_scalar_gradients(self):
        cell = LstmCell("c", in_dim=1, hidden=1, rng=np.random.default_rng(7))

        def forward():
            state = cell.initial_state()
            state = cell.step(constant(np.array([0.7])), state)
            state = cell.step(constant(np.array([-0.3])), state)
            return dot(cell.output(state), ones_const(1))

        report = finite_difference_check(forward, cell.parameters())
        assert report.passed, report.to_tsv()


class TestGruCell:
    def test_zero_params_give_zero_state(self):
        cell = GruCell("g", in_dim=2, hidden=3, rng=np.random.default_rng(0))
        zero_params(cell)
        (h,) = cell.step(constant(np.ones(2)), cell.initial_state())
        assert np.array_equal(h.data, np.zeros(3))

    def test_scalar_hand_value(self):
        cell = GruCell("g", in_dim=1, hidden=1, rng=np.random.default_rng(0))
        zero_params(cell)
        cell.w_n.value.data[...] = 1.0
        (h,) = cell.step(constant(np.array([1.0])), cell.initial_state())
        # z = 0.5, h_prev = 0, n = tanh(1): h = (1 - z) * n
        assert h.data[0] == pytest.approx(0.5 * math.tanh(1.0), abs=1e-12)

    def test_two_step_scalar_gradients(self):
        cell = GruCell("g", in_dim=1, hidden=1, rng=np.random.default_rng(3))

        def forward():
            state = cell.initial_state()
            state = cell.step(constant(np.array([0.4])), state)
            state = cell.step(constant(np.array([0.9])), state)
            return dot(cell.output(state), ones_const(1))

        report = finite_difference_check(forward, cell.parameters())
        assert report.passed, report.to_tsv()


# ---------------------------------------------------------------------------
# Sequence encoder


def make_inputs(rng, n, dim):
    return [constant(rng.normal(size=dim)) for _ in range(n)]


class TestSequenceEncoder:
    def test_output_shape_and_length(self):
        enc = SequenceEncoder("e", in_dim=3, hidden=4,
                              rng=np.random.default_rng(0))
        xs = make_inputs(np.random.default_rng(1), 5, 3)
        out = enc.encode(xs, [True] * 5)
        assert len(out) == 5
        assert all(o.shape == (8,) for o in out)
        assert enc.out_dim == 8

    def test_single_position_is_concat_of_single_steps(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3,
                              rng=np.random.default_rng(2))
        x = constant(np.array([0.3, -0.6]))
        out = enc.encode([x], [True])[0]
        fwd = enc.fwd.output(enc.fwd.step(x, enc.fwd.initial_state()))
        bwd = enc.bwd.output(enc.bwd.step(x, enc.bwd.initial_state()))
        assert np.array_equal(out.data, np.concatenate([fwd.data, bwd.data]))

    def test_zero_params_give_zero_states(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(0))
        zero_params(enc.fwd)
        zero_params(enc.bwd)
        out = enc.encode(make_inputs(np.random.default_rng(3), 4, 2),
                         [True] * 4)
        for o in out:
            assert np.array_equal(o.data, np.zeros(4))

    def test_palindrome_with_tied_directions(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3,
                              rng=np.random.default_rng(4))
        for pf, pb in zip(enc.fwd.parameters(), enc.bwd.parameters()):
            pb.value.data[...] = pf.value.data
        v0 = constant(np.array([0.5, -0.2]))
        v1 = constant(np.array([-0.8, 0.1]))
        out = enc.encode([v0, v1, constant(v0.data.copy())], [True] * 3)
        h = enc.hidden
        # tied params + palindromic input: bwd at mirror equals fwd at t
        for t in range(3):
            fwd_t = out[t].data[:h]
            bwd_mirror = out[2 - t].data[h:]
            assert np.array_equal(fwd_t, bwd_mirror)

    def test_masked_positions_are_zero_and_constant(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(5))
        xs = make_inputs(np.random.default_rng(6), 4, 2)
        out = enc.encode(xs, [True, True, False, False])
        assert np.array_equal(out[2].data, np.zeros(4))
        assert np.array_equal(out[3].data, np.zeros(4))
        assert not out[2].requires_grad

    def test_padding_isolation(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        real = [constant(rng.normal(size=2)) for _ in range(2)]
        pad_a = constant(rng.normal(size=2))
        pad_b = constant(rng.normal(size=2) * 100.0)
        mask = [True, True, False]
        out_a = enc.encode(real + [pad_a], mask)
        out_b = enc.encode(real + [pad_b], mask)
        for t in range(2):
            assert np.array_equal(out_a[t].data, out_b[t].data)

    def test_unidirectional_output_dim(self):
        enc = SequenceEncoder("e", in_dim=3, hidden=4, cell=CELL_LSTM_UNI,
                              rng=np.random.default_rng(0))
        assert enc.out_dim == 4
        assert enc.bwd is None
        out = enc.encode(make_inputs(np.random.default_rng(1), 2, 3),
                         [True] * 2)
        assert all(o.shape == (4,) for o in out)

    def test_gru_cell_selection(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3, cell=CELL_GRU_BI,
                              rng=np.random.default_rng(0))
        assert isinstance(enc.fwd, GruCell)
        assert enc.out_dim == 6

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            SequenceEncoder("e", in_dim=2, hidden=2, cell="transformer")

    def test_parameter_names_unique(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(0))
        names = [p.name for p in enc.parameters()]
        assert len(names) == len(set(names)) == 24

    def test_empty_sequence_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc.encode([], [])

    def test_all_masked_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc.encode(make_inputs(np.random.default_rng(0), 2, 2),
                       [False, False])

    def test_length_mismatch_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc.encode(make_inputs(np.random.default_rng(0), 2, 2), [True])

    def test_non_prefix_mask_rejected(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match="prefix"):
            enc.encode(make_inputs(np.random.default_rng(0), 3, 2),
                       [True, False, True])


# ---------------------------------------------------------------------------
# Gradient checks through full encodings


class TestEncoderGradients:
    def encode_loss(self, enc, xs, mask):
        out = enc.encode(xs, mask)
        return dot(sum_vectors(out), ones_const(enc.out_dim))

    def test_three_token_bilstm_all_params(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=3,
                              rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        xs = [constant(rng.normal(size=2)) for _ in range(3)]

        report = finite_difference_check(
            lambda: self.encode_loss(enc, xs, [True] * 3), enc.parameters())
        assert report.passed, report.to_tsv()
        assert len(report.entries) == 24

    def test_three_token_bigru_all_params(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2, cell=CELL_GRU_BI,
                              rng=np.random.default_rng(13))
        rng = np.random.default_rng(14)
        xs = [constant(rng.normal(size=2)) for _ in range(3)]

        report = finite_difference_check(
            lambda: self.encode_loss(enc, xs, [True] * 3), enc.parameters())
        assert report.passed, report.to_tsv()

    def test_masked_encoding_gradients(self):
        enc = SequenceEncoder("e", in_dim=2, hidden=2,
                              rng=np.random.default_rng(15))
        rng = np.random.default_rng(16)
        xs = [constant(rng.normal(size=2)) for _ in range(4)]

        report = finite_difference_check(
            lambda: self.encode_loss(enc, xs, [True, True, False, False]),
            enc.parameters())
        assert report.passed, report.to_tsv()
