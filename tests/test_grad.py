import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poshan import grad
from poshan.grad import (
    DeterminismError,
    EmptyAttentionError,
    Parameter,
    ShapeError,
    Tensor,
    add,
    additive_scores,
    affine,
    backward,
    concat,
    constant,
    finite_difference_check,
    gather,
    hadamard,
    masked_softmax,
    mean_axis,
    mean_fold,
    no_grad,
    recurrent,
    relu_elem,
    softmax_cross_entropy_with_logits,
    sum_axis,
    weighted_sum,
    zero_gradients,
)
import oracles
from toy_ops import dot


def readout(t, seed=0):
    """A scalar that weighs every entry of ``t`` differently."""
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, t.shape)
    out = hadamard(t, constant(weights))
    while out.data.ndim > 1:
        out = sum_axis(out)
    return dot(out, constant(np.ones(out.shape[0])))


def test_affine_identity():
    x = constant([3.0, -1.0])
    w = constant(np.eye(2))
    b = constant([0.0, 0.0])
    out = affine(x, w, b)
    assert np.array_equal(out.data, [3.0, -1.0])


def test_affine_zero_weights():
    x = constant([7.0, 1.0, -2.0])
    w = constant(np.zeros((2, 3)))
    b = constant([5.0, 5.0])
    assert np.array_equal(affine(x, w, b).data, [5.0, 5.0])


def test_affine_hand_computed():
    x = constant([1.0, 1.0])
    w = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([1.0, 1.0])
    assert np.array_equal(affine(x, w, b).data, [4.0, 8.0])


def test_affine_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as exc:
        affine(constant([1.0, 2.0, 3.0]), constant(np.zeros((2, 2))), constant([0.0, 0.0]))
    assert "(2, 2)" in str(exc.value) and "(3,)" in str(exc.value)


def test_weighted_sum_symmetry():
    w = constant([0.5, 0.5])
    states = constant([[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(weighted_sum(w, states).data, [1.0, 1.0])


def test_weighted_sum_one_hot_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k, d = rng.integers(1, 6), rng.integers(1, 5)
        states = constant(rng.standard_normal((k, d)))
        hot = int(rng.integers(k))
        w = np.zeros(k)
        w[hot] = 1.0
        out = weighted_sum(constant(w), states)
        assert np.array_equal(out.data, states.data[hot])


def test_weighted_sum_block_is_per_row_product():
    rng = np.random.default_rng(4)
    w = rng.uniform(size=(3, 5))
    states = rng.standard_normal((3, 5, 2))
    out = weighted_sum(constant(w), constant(states))
    assert out.shape == (3, 2)
    for n in range(3):
        np.testing.assert_allclose(out.data[n], w[n] @ states[n], rtol=0, atol=1e-14)
    with pytest.raises(ShapeError):
        weighted_sum(constant(w[:, :4]), constant(states))


def test_concat():
    assert np.array_equal(concat(constant([1.0, 2.0]), constant([3.0])).data, [1.0, 2.0, 3.0])


def test_masked_softmax_symmetry():
    out = masked_softmax(constant([0.0, 0.0]), [True, True])
    assert np.array_equal(out.data, [0.5, 0.5])


def test_masked_softmax_masked_entry():
    out = masked_softmax(constant([1.0, 2.0, 3.0]), [True, True, False])
    # direct scalar oracle: exp(1)/(exp(1)+exp(2)), exp(2)/(exp(1)+exp(2))
    z = math.exp(1.0) + math.exp(2.0)
    assert out.data[2] == 0.0
    np.testing.assert_allclose(out.data[:2], [math.exp(1.0) / z, math.exp(2.0) / z],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data[:2], [0.26894, 0.73106], atol=5e-6)


def test_masked_softmax_large_scores_no_overflow():
    out = masked_softmax(constant([1000.0, 999.0]), [True, True])
    z = 1.0 + math.exp(-1.0)
    np.testing.assert_allclose(out.data, [1.0 / z, math.exp(-1.0) / z], atol=1e-12)
    assert np.all(np.isfinite(out.data))


def test_masked_softmax_all_masked_raises():
    with pytest.raises(EmptyAttentionError):
        masked_softmax(constant([1.0, 2.0]), [False, False])


@st.composite
def _scores_and_mask(draw):
    # score spread bounded so exp stays above float64 underflow; beyond a
    # spread of ~700 no softmax implementation can keep entries positive
    k = draw(st.integers(1, 64))
    scores = draw(st.lists(st.floats(-300.0, 300.0, allow_nan=False, allow_infinity=False),
                           min_size=k, max_size=k))
    mask = draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any))
    return scores, mask


@settings(max_examples=200, deadline=None)
@given(_scores_and_mask())
def test_masked_softmax_simplex_property(case):
    scores, mask = case
    out = masked_softmax(constant(scores), mask).data
    assert np.all(out >= 0.0)
    for i, keep in enumerate(mask):
        if not keep:
            assert out[i] == 0.0
        else:
            assert out[i] > 0.0
    assert abs(out.sum() - 1.0) <= 1e-9


def test_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy_with_logits(constant([0.0, 0.0]), 0)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)


def test_cross_entropy_confident_logits():
    # scalar oracle: log(1 + exp(-20))
    loss = softmax_cross_entropy_with_logits(constant([10.0, -10.0]), 0)
    assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
    assert loss.item() == pytest.approx(2.0611536e-9, rel=1e-6)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor([0.0, 0.0], requires_grad=True)
    loss = softmax_cross_entropy_with_logits(logits, 1)
    backward(loss)
    assert np.array_equal(logits.grad, [0.5, -0.5])


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy_with_logits(constant([0.0, 0.0]), 2)


def test_backward_matvec_grad_is_outer_product():
    # loss = sum(W @ x) with x fixed, W @ x an affine map with zero bias;
    # d loss / dW = ones outer x
    w = Parameter("w", np.arange(6.0).reshape(2, 3))
    x = constant([1.0, 2.0, 3.0])
    loss = dot(affine(x, w, constant([0.0, 0.0])), constant([1.0, 1.0]))
    backward(loss)
    assert np.array_equal(w.grad, np.outer([1.0, 1.0], [1.0, 2.0, 3.0]))


def test_backward_constant_loss_gives_zeros():
    p = Parameter("p", [1.0, 2.0])
    zero_gradients([p])
    backward(constant(0.5))
    assert np.array_equal(p.grad, np.zeros(2))


def test_backward_requires_scalar_loss():
    p = Parameter("p", [1.0, 2.0])
    with pytest.raises(ShapeError):
        backward(p)


def test_backward_reused_node_accumulates():
    # y = p * p; loss = dot(y, y) = sum(p^4): gradient must count p and y twice
    p = Parameter("p", [0.3, -0.7])
    y = hadamard(p, p)
    loss = dot(y, y)
    backward(loss)
    np.testing.assert_allclose(p.grad, 4.0 * p.data ** 3, atol=1e-14)
    zero_gradients([p])

    def forward():
        yy = hadamard(p, p)
        return dot(yy, yy)

    report = finite_difference_check(forward, [p])
    assert report.passed


def test_backward_two_consumers_equals_sum_of_single_paths():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(3)
    a = constant(rng.standard_normal(3))
    b = constant(rng.standard_normal(3))

    p = Parameter("p", v)
    shared = hadamard(p, p)
    loss = add(dot(shared, a), dot(shared, b))
    backward(loss)
    both = p.grad.copy()

    q = Parameter("q", v)
    backward(dot(hadamard(q, q), a))
    ga = q.grad.copy()
    zero_gradients([q])
    backward(dot(hadamard(q, q), b))
    gb = q.grad.copy()
    np.testing.assert_allclose(both, ga + gb, atol=1e-14)


def test_gradient_accumulates_across_graphs_until_cleared():
    p = Parameter("p", [1.0, 1.0])
    for _ in range(3):
        backward(dot(p, constant([1.0, 2.0])))
    assert np.array_equal(p.grad, [3.0, 6.0])
    zero_gradients([p])
    assert np.array_equal(p.grad, [0.0, 0.0])


def test_misc_op_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    w = Parameter("w", rng.standard_normal((3, 4)) * 0.5)
    b = Parameter("b", rng.standard_normal(3) * 0.5)
    u = Parameter("u", rng.standard_normal(4) * 0.5)
    s = Parameter("s", np.array(0.7))
    table = Parameter("table", rng.standard_normal((5, 4)) * 0.5)
    head = Parameter("head", rng.standard_normal((2, 8)) * 0.5)
    params = [w, b, u, s, table, head]
    x = constant(rng.standard_normal(4))
    xs = constant(rng.standard_normal((2, 4)))

    def forward():
        pre = affine(x, w, b)
        h = hadamard(pre, pre)
        g = masked_softmax(affine(u, w, constant(np.zeros(3))), [True] * 3)
        mixed = hadamard(h, g)
        pooled = mean_fold([mixed, g, h])
        scaled = hadamard(add(pooled, mixed), s)
        att = masked_softmax(scaled, [True, True, False])
        rows = gather(table, [[1, 2], [0, 4], [1, 1]])
        ctx = weighted_sum(att, sum_axis(rows, 1))
        batch = relu_elem(affine(xs, w, b))
        feats = concat(ctx, mean_axis(gather(table, [0, 3])))
        logits = affine(feats, head, constant(np.zeros(2)))
        return add(softmax_cross_entropy_with_logits(logits, 0), readout(batch))

    report = finite_difference_check(forward, params)
    assert report.passed, report.to_tsv()


def test_finite_difference_toy_net():
    rng = np.random.default_rng(0)
    w = Parameter("w", rng.standard_normal((2, 3)) * 0.3)
    b = Parameter("b", rng.standard_normal(2) * 0.3)
    x = constant([0.2, -0.4, 0.9])

    def forward():
        pre = affine(x, w, b)
        return softmax_cross_entropy_with_logits(hadamard(pre, pre), 1)

    report = finite_difference_check(forward, [w, b])
    assert report.passed
    assert all(e.max_rel_error < 1e-4 for e in report.entries)


def test_finite_difference_zero_parameter_model():
    report = finite_difference_check(lambda: constant(1.5), [])
    assert report.passed
    assert report.entries == []


def test_finite_difference_detects_corrupted_gradient():
    p = Parameter("bad_w", [0.5, -0.5])

    def wrong_double(x):
        out = Tensor(x.data * 2.0, requires_grad=True, op="wrong_double", parents=(x,))

        def back():
            grad.accumulate_grad(x, out.grad * 2.0 + 0.1)

        out._backward = back
        return out

    report = finite_difference_check(
        lambda: dot(wrong_double(p), constant([1.0, 1.0])), [p])
    assert not report.passed
    failed = [e.name for e in report.entries if not e.passed]
    assert failed == ["bad_w"]


def test_finite_difference_detects_nondeterminism():
    p = Parameter("p", [1.0])
    state = {"n": 0}

    def forward():
        state["n"] += 1
        return dot(p, constant([float(state["n"])]))

    with pytest.raises(DeterminismError):
        finite_difference_check(forward, [p])


def test_gradcheck_report_tsv_format():
    p = Parameter("w", [0.1, 0.2])
    report = finite_difference_check(lambda: dot(p, p), [p])
    lines = report.to_tsv().strip().split("\n")
    assert lines[0] == "parameter\tmax_rel_error\tstatus"
    assert lines[1].startswith("w\t") and lines[1].endswith("pass")


# ---------------------------------------------------------------------------
# Fused layer ops


def test_tensor_accepts_any_rank():
    t = Tensor(np.zeros((2, 3, 4)))
    assert t.shape == (2, 3, 4)


def test_gather_rows_pad_and_scatter():
    table = Parameter("t", np.arange(12.0).reshape(4, 3))
    rows = gather(table, [[2, 0], [2, 3]], pad=0)
    assert rows.shape == (2, 2, 3)
    assert np.array_equal(rows.data[0, 0], [6.0, 7.0, 8.0])
    # the pad row reads zeros whatever the table holds there
    assert np.array_equal(rows.data[0, 1], [0.0, 0.0, 0.0])
    backward(readout(rows))
    grad = table.grad
    assert np.array_equal(grad[0], np.zeros(3))
    assert np.array_equal(grad[1], np.zeros(3))
    weights = np.random.default_rng(0).uniform(0.5, 1.5, (2, 2, 3))
    np.testing.assert_allclose(grad[2], weights[0, 0] + weights[1, 0], rtol=0, atol=1e-15)
    assert np.array_equal(grad[3], weights[1, 1])


def test_gather_scatters_into_the_existing_buffer():
    table = Parameter("t", np.ones((1000, 4)))
    backward(dot(gather(table, 5), constant(np.ones(4))))
    buffer = table.grad
    backward(dot(gather(table, 5), constant(np.ones(4))))
    assert table.grad is buffer
    assert np.array_equal(buffer[5], [2.0] * 4)


def test_gather_of_only_pad_rows_is_constant():
    table = Parameter("t", np.ones((3, 2)))
    out = gather(table, [0, 0], pad=0)
    assert not out.requires_grad
    assert np.array_equal(out.data, np.zeros((2, 2)))
    with pytest.raises(IndexError):
        gather(table, [3])


def _layer_params(gates, in_dim, hidden, seed):
    rng = np.random.default_rng(seed)
    return ([Parameter(f"w{k}", rng.uniform(-0.7, 0.7, (hidden, in_dim))) for k in range(gates)],
            [Parameter(f"u{k}", rng.uniform(-0.7, 0.7, (hidden, hidden))) for k in range(gates)],
            [Parameter(f"b{k}", rng.uniform(-0.7, 0.7, hidden)) for k in range(gates)])


def lstm_layer(x, lengths, w, u, b, reverse=False):
    """One LSTM direction through the joint recurrent op."""
    return recurrent("lstm", x, lengths, [(w, u, b, reverse)])


def gru_layer(x, lengths, w, u, b, reverse=False):
    """One GRU direction through the joint recurrent op."""
    return recurrent("gru", x, lengths, [(w, u, b, reverse)])


LAYERS = [(lstm_layer, 4), (gru_layer, 3)]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("layer,gates", LAYERS)
def test_recurrent_layer_gradients_on_ragged_block(layer, gates, reverse):
    rng = np.random.default_rng(5)
    x = Parameter("x", rng.standard_normal((3, 4, 2)))
    params = _layer_params(gates, in_dim=2, hidden=3, seed=6)
    lengths = [4, 1, 3]

    def forward():
        return readout(layer(x, lengths, *params, reverse=reverse))

    report = finite_difference_check(forward, [x, *params[0], *params[1], *params[2]])
    assert report.passed, report.to_tsv()
    # padded input positions get no gradient
    zero_gradients([x])
    backward(forward())
    assert np.all(x.grad[1, 1:] == 0.0) and np.all(x.grad[2, 3:] == 0.0)


@pytest.mark.parametrize("layer,gates", LAYERS)
def test_recurrent_layer_block_matches_single_sequences(layer, gates):
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((3, 5, 2))
    lengths = [5, 1, 3]
    params = _layer_params(gates, in_dim=2, hidden=3, seed=8)
    for reverse in (False, True):
        block = layer(constant(xs), lengths, *params, reverse=reverse).data
        for n, length in enumerate(lengths):
            alone = layer(constant(xs[n, :length]), [length], *params, reverse=reverse).data
            np.testing.assert_allclose(block[n, :length], alone, rtol=0, atol=1e-14)
            assert np.array_equal(block[n, length:], np.zeros((5 - length, 3)))


@pytest.mark.parametrize("layer,gates", LAYERS)
def test_reverse_layer_reads_each_real_prefix_backwards(layer, gates):
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((2, 4, 2))
    xs[1, 2:] = 1e6  # padding must not leak into real positions
    params = _layer_params(gates, in_dim=2, hidden=2, seed=10)
    back = layer(constant(xs), [4, 2], *params, reverse=True).data
    for n, length in enumerate([4, 2]):
        flipped = layer(constant(xs[n, :length][::-1].copy()), [length], *params).data
        np.testing.assert_allclose(back[n, :length], flipped[::-1], rtol=0, atol=1e-14)


def test_recurrent_layer_rejects_bad_lengths():
    params = _layer_params(4, in_dim=2, hidden=2, seed=0)
    with pytest.raises(ShapeError):
        lstm_layer(constant(np.zeros((2, 3, 2))), [3, 0], *params)
    with pytest.raises(ShapeError):
        lstm_layer(constant(np.zeros((2, 3, 2))), [3], *params)
    with pytest.raises(ShapeError):
        lstm_layer(constant(np.zeros((3, 5))), [3], *params)


# cell kind -> (recurrent cell, gates, directions)
ENCODER_CELLS = {"lstm-bi": ("lstm", 4, 2), "gru-bi": ("gru", 3, 2), "lstm-uni": ("lstm", 4, 1)}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _assert_joint_op_matches_oracle(kind, xs, lengths, hidden, final, seed):
    """States and every gradient of the joint op, byte for byte against
    one oracle node per direction: their states joined as the joint op
    joins them, their backward passes run last direction first, the order
    a graph of one node per direction runs them in."""
    cell, gates, k = ENCODER_CELLS[kind]
    steps_fn = oracles._lstm_steps if cell == "lstm" else oracles._gru_steps
    directions = [(*_layer_params(gates, xs.shape[-1], hidden, seed + d), d == 1)
                  for d in range(k)]
    params = [p for w, u, b, _ in directions for p in (*w, *u, *b)]
    x = Parameter("x", xs)
    rows = np.arange(len(lengths))
    lengths = np.asarray(lengths)
    # x already holds a gradient, so the order of its two terms shows
    earlier = np.random.default_rng(seed + 7).standard_normal(xs.shape)

    zero_gradients(params)
    x.grad = earlier.copy()
    out = recurrent(cell, x, lengths, directions, final=final)
    upstream = np.random.default_rng(seed).standard_normal(out.shape)
    out.grad = upstream
    out._backward()
    joint = [out.data, x.grad, *(p.grad.copy() for p in params)]

    zero_gradients(params)
    x.grad = earlier.copy()
    nodes = [oracles._recurrent_layer("oracle", steps_fn, x, lengths, w, u, b, reverse)
             for w, u, b, reverse in directions]
    up = upstream.reshape(len(lengths), *upstream.shape[xs.ndim - 2:])
    pieces = []
    for d, (node, (*_, reverse)) in enumerate(zip(nodes, directions)):
        states = node.data.reshape(len(lengths), *node.shape[xs.ndim - 2:])
        g = up[..., d * hidden:(d + 1) * hidden]
        if final:
            at = 0 if reverse else lengths - 1
            pieces.append(states[rows, at])
            grad = np.zeros(states.shape)
            grad[rows, at] = g
            g = grad
        else:
            pieces.append(states)
        node.grad = g.reshape(node.shape)
    for node in reversed(nodes):
        node._backward()
    expected = np.concatenate(pieces, axis=-1).reshape(out.shape)
    oracle = [expected, x.grad, *(p.grad for p in params)]
    assert [_bits(a) for a in joint] == [_bits(a) for a in oracle]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(ENCODER_CELLS)), data=st.data(), final=st.booleans(),
       seed=st.integers(0, 2**16))
def test_joint_recurrent_op_is_bit_equal_to_per_direction_oracle(kind, data, final, seed):
    n = data.draw(st.integers(1, 4))
    steps = data.draw(st.integers(1, 6))
    lengths = data.draw(st.lists(st.integers(1, steps), min_size=n, max_size=n))
    dim = data.draw(st.integers(1, 5))
    hidden = data.draw(st.sampled_from([1, 2, 3, 16]))
    one = n == 1 and data.draw(st.booleans())
    xs = np.random.default_rng(seed).standard_normal((steps, dim) if one else (n, steps, dim))
    _assert_joint_op_matches_oracle(kind, xs, lengths, hidden, final, seed)


@pytest.mark.parametrize("final", [False, True])
@pytest.mark.parametrize("kind", sorted(ENCODER_CELLS))
def test_joint_recurrent_op_matches_oracle_on_a_long_single_sequence(kind, final):
    # N=1 takes BLAS's matrix-vector path at every step
    xs = np.random.default_rng(31).standard_normal((300, 64))
    _assert_joint_op_matches_oracle(kind, xs, [300], 16, final, seed=32)


def test_additive_scores_block_matches_rows_and_gradients():
    rng = np.random.default_rng(12)
    states = Parameter("s", rng.standard_normal((2, 3, 4)))
    query = Parameter("q", rng.standard_normal(5))
    v = Parameter("v", rng.standard_normal(3))
    w_h = Parameter("w_h", rng.standard_normal((3, 4)))
    w_q = Parameter("w_q", rng.standard_normal((3, 5)))
    b = Parameter("b", rng.standard_normal(3))
    params = [states, query, v, w_h, w_q, b]

    def scores(s):
        return additive_scores(s, query, v, w_h, w_q, b)

    block = scores(states).data
    assert block.shape == (2, 3)
    for n in range(2):
        for t in range(3):
            inner = np.tanh(w_h.data @ states.data[n, t] + w_q.data @ query.data + b.data)
            assert abs(block[n, t] - v.data @ inner) <= 1e-12
    report = finite_difference_check(lambda: readout(scores(states)), params)
    assert report.passed, report.to_tsv()
    with pytest.raises(ShapeError):
        scores(constant(np.zeros((3, 5))))


def test_masked_softmax_rows_of_a_block():
    rng = np.random.default_rng(13)
    scores = Parameter("s", rng.standard_normal((3, 4)))
    mask = np.array([[True] * 4, [True, False, False, False], [True, True, True, False]])
    out = masked_softmax(scores, mask).data
    for n in range(3):
        expected = masked_softmax(constant(scores.data[n]), mask[n]).data
        np.testing.assert_allclose(out[n], expected, rtol=0, atol=1e-15)
    assert out[1, 0] == 1.0
    report = finite_difference_check(
        lambda: readout(masked_softmax(scores, mask)), [scores])
    assert report.passed, report.to_tsv()
    mask[2] = False
    with pytest.raises(EmptyAttentionError):
        masked_softmax(scores, mask)


def test_mean_fold_is_a_left_fold():
    rng = np.random.default_rng(14)
    arrays = [rng.uniform(size=(2, 3)) for _ in range(3)]
    fused = mean_fold([constant(a) for a in arrays])
    assert np.array_equal(fused.data, ((arrays[0] + arrays[1]) + arrays[2]) / 3.0)
    with pytest.raises(ShapeError):
        mean_fold([constant(arrays[0]), constant(np.zeros(3))])
    params = [Parameter(f"p{i}", a) for i, a in enumerate(arrays)]
    report = finite_difference_check(
        lambda: readout(mean_fold(params)), params)
    assert report.passed, report.to_tsv()


def test_axis_folds_add_in_index_order():
    rng = np.random.default_rng(15)
    x = Parameter("x", rng.uniform(size=(3, 4, 2)))
    d = x.data
    assert np.array_equal(sum_axis(x, 1).data, ((d[:, 0] + d[:, 1]) + d[:, 2]) + d[:, 3])
    assert np.array_equal(mean_axis(x).data, ((d[0] + d[1]) + d[2]) / 3)
    report = finite_difference_check(
        lambda: add(readout(sum_axis(x, 1)), readout(mean_axis(x), seed=1)), [x])
    assert report.passed, report.to_tsv()


def test_no_grad_builds_no_graph():
    p = Parameter("p", np.ones((2, 3)))
    with no_grad():
        out = relu_elem(gather(p, [1, 0]))
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()
    assert relu_elem(p).requires_grad


def test_hadamard_rejects_non_broadcasting_shapes():
    with pytest.raises(ShapeError):
        hadamard(constant(np.zeros(2)), constant(np.zeros(3)))
    with pytest.raises(ShapeError):
        hadamard(constant(np.zeros((2, 1))), constant(np.zeros((2, 3))))
