"""Network engine checks: hand-computed forwards, finite-difference
gradient oracles, and the update/train conventions everything else
builds on."""

import inspect
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gradamp import nn
from gradamp.amplify import select_top
from gradamp.data import Dataset
from gradamp.errors import ConfigError
from gradamp.seeding import rng_stream

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_loss(model, features, labels):
    trace = nn.forward(model, features)
    return nn._loss_value(trace, labels)


def perturbed(model, index, delta):
    """Model with parameter ``index`` (vector order) shifted by delta."""
    vec = np.zeros(model.theta.size)
    vec[index] = delta
    # apply_update computes W - U, so the negated bump adds it.
    return nn.apply_update(model, -vec)


def fd_gradient(model, features, labels):
    out = np.zeros(model.theta.size)
    for j in range(out.size):
        hi = fd_loss(perturbed(model, j, FD_STEP), features, labels)
        lo = fd_loss(perturbed(model, j, -FD_STEP), features, labels)
        out[j] = (hi - lo) / (2.0 * FD_STEP)
    return out


def rel_err(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return np.max(np.abs(analytic - numeric) / scale)


def test_forward_matches_hand_computed_dense():
    # 2 inputs -> 2 logits, one sample, arithmetic done longhand.
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])
    model = nn.ModelParams([nn.Layer("dense", w, b), nn.Layer("softmax")])
    x = np.array([[1.0, -1.0]])
    trace = nn.forward(model, x)
    # logits: [1*1 + 2*(-1) + 0.5, 3*1 + 4*(-1) - 0.5] = [-0.5, -1.5]
    assert np.allclose(trace.logits, [[-0.5, -1.5]], atol=1e-12)
    e0, e1 = np.exp(-0.5), np.exp(-1.5)
    assert np.allclose(trace.probs, [[e0 / (e0 + e1), e1 / (e0 + e1)]], atol=1e-12)


def test_softmax_rows_normalised():
    model = nn.mlp_model(6, 5, 4, seed=0)
    x = rng_stream(1).normal(size=(9, 6))
    probs = nn.forward(model, x).probs
    assert probs.shape == (9, 4)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_stable_under_large_logits():
    w = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(2)), nn.Layer("softmax")])
    probs = nn.forward(model, np.array([[1.0, 0.0]])).probs
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("hidden", [0, 7])
def test_gradients_match_finite_differences_mlp(hidden):
    model = nn.mlp_model(5, hidden, 3, seed=3)
    rng = rng_stream(4, hidden)
    x = rng.normal(size=(8, 5))
    y = rng.integers(0, 3, size=8)
    trace = nn.forward(model, x)
    analytic = nn.backward(model, trace, y).to_vector()
    numeric = fd_gradient(model, x, y)
    assert rel_err(analytic, numeric) <= FD_TOL


def test_gradients_match_finite_differences_conv():
    # The 7x8 and 8x7 inputs give 5x6 and 6x5 conv outputs, so the maxpool
    # crops trailing cells and its backward scatters the routed gradient
    # back into the full map.
    for shape, pool, seed in (((1, 6, 6), 2, ()), ((1, 7, 8), 2, (1,)), ((2, 8, 7), 3, (2,))):
        model = nn.conv_model(shape, 3, seed=5, filters=2, kernel=3, pool=pool)
        rng = rng_stream(6, *seed)
        x = rng.normal(size=(4, *shape))
        y = rng.integers(0, 3, size=4)
        trace = nn.forward(model, x)
        analytic = nn.backward(model, trace, y).to_vector()
        numeric = fd_gradient(model, x, y)
        assert rel_err(analytic, numeric) <= FD_TOL, (shape, pool)


def test_conv_backward_routes_pooled_ties_to_the_first_max():
    # Each filter reads only its window's centre, drawn from {0.5, 1}, so
    # most pool blocks hold a positive tie between positions whose 3x3
    # windows differ elsewhere: finite differences cannot see which tied
    # entry takes the pooled gradient, but the weight gradient can.
    k = 2
    model = nn.conv_model((1, 9, 8), 3, seed=7, filters=2, kernel=3, pool=k)
    conv = model.layers[0]
    conv.weight[...] = 0.0
    conv.weight[:, 0, 1, 1] = (1.0, 0.5)
    conv.bias[...] = 0.25
    rng = rng_stream(8)
    x = rng.normal(size=(3, 1, 9, 8))
    x[:, :, 1:-1, 1:-1] = rng.choice((0.5, 1.0), size=(3, 1, 7, 6))
    y = rng.integers(0, 3, size=3)
    trace = nn.forward(model, x)
    got = nn.backward(model, trace, y).layers[0][0]

    relu_out, pooled = trace.inputs[2], trace.inputs[3]
    dlogits = (trace.probs - np.eye(3)[y]) / len(y)
    dpooled = (dlogits @ model.layers[3].weight).reshape(pooled.shape)
    _, first = naive_pool(relu_out, k)

    def routed(position):
        """The conv weight gradient with each pooled gradient sent to
        ``position(s, f, i, j)`` of its block (relu'd outputs are positive)."""
        gw = np.zeros(conv.weight.shape)
        for s, f, i, j in np.ndindex(*pooled.shape):
            r, c = position(s, f, i, j)
            gw[f] += dpooled[s, f, i, j] * x[s, :, r : r + 3, c : c + 3]
        return gw

    def last(s, f, i, j):
        block = relu_out[s, f, i * k : (i + 1) * k, j * k : (j + 1) * k]
        at = np.flatnonzero(block == pooled[s, f, i, j])[-1]
        return i * k + at // k, j * k + at % k

    want = routed(lambda *cell: first[cell])
    assert (relu_out > 0.0).all()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # The ties decide the gradient: routing to the last tie moves it.
    assert np.abs(routed(last) - want).max() > 1e-3


def test_capture_without_conv_layer_raises():
    model = nn.mlp_model(4, 3, 2, seed=0)
    x = rng_stream(11).normal(size=(2, 4))
    trace = nn.forward(model, x)
    with pytest.raises(ConfigError):
        nn.activation_weights(model, trace, np.array([0, 1]))


def test_perfect_predictions_give_zero_gradient():
    # Saturated logits: probs hit the one-hot targets exactly in float64.
    w = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(2)), nn.Layer("softmax")])
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([0, 1])
    trace = nn.forward(model, x)
    grads = nn.backward(model, trace, y)
    assert np.array_equal(grads.to_vector(), np.zeros(model.theta.size))


def test_maxpool_drops_trailing_cells():
    # 5x5 input, pool 2: output is 2x2 and row/col 4 never contribute.
    model = nn.ModelParams(
        [
            nn.Layer("maxpool", pool=2),
            nn.Layer("dense", np.eye(4), np.zeros(4)),
            nn.Layer("softmax"),
        ]
    )
    x = np.zeros((1, 1, 5, 5))
    x[0, 0] = np.arange(25).reshape(5, 5)
    trace = nn.forward(model, x)
    pooled = trace.inputs[1]
    assert pooled.shape == (1, 1, 2, 2)
    assert np.array_equal(pooled[0, 0], [[6.0, 8.0], [16.0, 18.0]])


def naive_conv(x, w, b):
    n, _, h, width = x.shape
    f, _, kh, kw = w.shape
    out = np.zeros((n, f, h - kh + 1, width - kw + 1))
    for s in range(n):
        for k in range(f):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    out[s, k, i, j] = np.sum(x[s, :, i : i + kh, j : j + kw] * w[k]) + b[k]
    return out


def naive_conv_dw(x, d, kh, kw):
    n, c = x.shape[:2]
    f, ho, wo = d.shape[1:]
    dw = np.zeros((f, c, kh, kw))
    for k in range(f):
        for ch in range(c):
            for a in range(kh):
                for bcol in range(kw):
                    dw[k, ch, a, bcol] = np.sum(d[:, k] * x[:, ch, a : a + ho, bcol : bcol + wo])
    return dw


def conv_head(w, b, rng, flat):
    return [
        nn.Layer("conv", w, b),
        nn.Layer("dense", rng.normal(size=(2, flat)), np.zeros(2)),
        nn.Layer("softmax"),
    ]


def conv_output_grad(model, trace, dlogits):
    """The gradient at a ``conv_head``'s conv output: dlogits times the
    dense weight, reshaped to the output's maps."""
    return (dlogits @ model.layers[1].weight).reshape(trace.inputs[1].shape)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", [(2, 2), (3, 3), (2, 3)])
def test_conv_kernels_match_naive_loops(kernel):
    # Three channels and odd sizes: shapes that conv_model never makes.
    # First one model, then a stack of three trained as one the way
    # local_train does, where each model's forward and gradients are the
    # bits of its one-model call.
    kh, kw = kernel
    rng = rng_stream(30, kh, kw)
    x = rng.normal(size=(3, 3, 7, 9))
    w = rng.normal(size=(4, 3, kh, kw))
    b = rng.normal(size=4)
    out = nn._conv_forward(x, w, b, nn.lower(x, w))
    np.testing.assert_allclose(out, naive_conv(x, w, b), rtol=0.0, atol=1e-12)

    flat = out[0].size
    model = nn.ModelParams(conv_head(w, b, rng, flat))
    trace = nn.forward(model, x)
    dlogits = rng.normal(size=(3, 2))
    grads = nn._backprop(model, trace, dlogits)
    d = conv_output_grad(model, trace, dlogits)
    np.testing.assert_allclose(grads[0][0], naive_conv_dw(x, d, kh, kw), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(grads[0][1], d.sum(axis=(0, 2, 3)), rtol=0.0, atol=1e-12)

    m = 3
    xs = rng.normal(size=(m, *x.shape))
    models = [
        nn.ModelParams(conv_head(rng.normal(size=w.shape), rng.normal(size=4), rng, flat))
        for _ in range(m)
    ]
    theta = np.stack([one.theta for one in models])
    stack = nn.ModelParams(model.layers, theta)
    dlogits = rng.normal(size=(m, 3, 2))
    trace = nn.forward(stack, xs)
    grads = nn._backprop(stack, trace, dlogits)
    for c, one in enumerate(models):
        layer = one.layers[0]
        one_trace = nn.forward(one, xs[c])
        conv_out = one_trace.inputs[1]
        np.testing.assert_allclose(
            conv_out, naive_conv(xs[c], layer.weight, layer.bias), rtol=0.0, atol=1e-12
        )
        d = conv_output_grad(one, one_trace, dlogits[c])
        one_grads = nn._backprop(one, one_trace, dlogits[c])
        np.testing.assert_allclose(
            one_grads[0][0], naive_conv_dw(xs[c], d, kh, kw), rtol=0.0, atol=1e-12
        )
        for got, want in zip(trace.inputs[1:], one_trace.inputs[1:]):
            assert_same_bits(got[c], want)
        assert_same_bits(trace.probs[c], one_trace.probs)
        for got, want in zip(grads, one_grads):
            for g, o in zip(got, want):
                if o is not None:
                    assert_same_bits(g[c], o)


def tensordot_conv(x, w, b=None):
    """The im2col forward as one ``np.tensordot``: the reference formula."""
    kh, kw = w.shape[2:]
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.tensordot(w, win, axes=((1, 2, 3), (1, 4, 5)))
    if b is not None:
        out += b[:, None, None, None]
    return out.transpose(1, 0, 2, 3)


@pytest.mark.parametrize(
    "n, c, f, kernel, size",
    [
        (3, 3, 4, (2, 3), (7, 9)),
        (2, 1, 1, (3, 3), (6, 6)),
        # A 1x1 kernel on a batch of one: the weight gradient's columns are
        # an F-ordered view, which BLAS takes transposed.
        (1, 3, 2, (1, 1), (5, 6)),
        (1, 1, 1, (1, 1), (4, 4)),
    ],
    ids=["general", "one-channel-one-filter", "1x1-batch-1", "1x1-one-of-each"],
)
def test_conv_products_keep_the_bits_of_the_tensordot_formulas(n, c, f, kernel, size):
    kh, kw = kernel
    rng = rng_stream(35, n, c, f, kh)
    x = rng.normal(size=(n, c, *size))
    w = rng.normal(size=(f, c, kh, kw))
    b = rng.normal(size=f)
    out = tensordot_conv(x, w, b)
    model = nn.ModelParams(conv_head(w, b, rng, out[0].size))
    trace = nn.forward(model, x)
    assert_same_bits(trace.inputs[1], out)

    dlogits = rng.normal(size=(n, 2))
    grads = nn._backprop(model, trace, dlogits)
    d = conv_output_grad(model, trace, dlogits)
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    assert_same_bits(grads[0][0], np.tensordot(d, win, axes=((0, 2, 3), (0, 2, 3))))
    assert_same_bits(grads[0][1], d.sum(axis=(0, 2, 3)))


def test_a_pre_lowered_batch_keeps_the_bits_of_forward_and_backward():
    # One model on a shared batch, as the validation probes run it, and a
    # client stack on its own batches, as local_train runs it.
    rng = rng_stream(36)
    model = nn.conv_model((2, 7, 6), 3, seed=rng, filters=3, kernel=3, pool=2)
    m = 3
    theta = model.theta + 0.1 * rng.normal(size=(m, model.theta.size))
    stack = nn.ModelParams(model.layers, theta)
    for net, x in ((model, rng.normal(size=(5, 2, 7, 6))), (stack, rng.normal(size=(m, 5, 2, 7, 6)))):
        cols = nn.lower(x, net.layers[0].weight)
        want = nn.forward(net, x)
        got = nn.forward(net, x, cols)
        assert got.cols is cols
        assert_same_bits(want.cols, cols)
        for a, b in zip(got.inputs + [got.logits, got.probs], want.inputs + [want.logits, want.probs]):
            assert_same_bits(a, b)
        dlogits = rng.normal(size=want.probs.shape)
        for a, b in zip(nn._backprop(net, got, dlogits), nn._backprop(net, want, dlogits)):
            for ga, gb in zip(a, b):
                if gb is not None:
                    assert_same_bits(ga, gb)
    with pytest.raises(ConfigError, match="lowered batch"):
        nn.forward(model, x[0, :4], cols)
    mlp = nn.mlp_model(4, 3, 2, seed=0)
    assert nn.forward(mlp, rng.normal(size=(2, 4))).cols is None


def naive_pool(x, k, ceil=False):
    """Block max over the last two axes and the position each block routes
    its gradient to, one block at a time: its first maximum, or for a NaN
    block (which pools to NaN) its first NaN, like argmax.  Trailing cells
    are dropped, as maxpool crops them, or with ``ceil`` reduced as ragged
    edge blocks, as the patch max grids them."""
    *lead, h, w = x.shape
    ho, wo = (-(-h // k), -(-w // k)) if ceil else (h // k, w // k)
    pooled = np.zeros((*lead, ho, wo))
    first = np.zeros((*lead, ho, wo, 2), dtype=int)
    for *at_lead, i, j in np.ndindex(*lead, ho, wo):
        block = x[(*at_lead, slice(i * k, (i + 1) * k), slice(j * k, (j + 1) * k))]
        at = int(np.argmax(block))
        pooled[(*at_lead, i, j)] = block.flat[at]
        first[(*at_lead, i, j)] = (i * k + at // block.shape[1], j * k + at % block.shape[1])
    return pooled, first


def test_maxpool_matches_naive_loops_on_ties_and_nan():
    # Pool 3 on 11x10 drops a trailing row and column.  Post-ReLU values
    # rounded to one decimal give zero blocks and tied maxima.
    k = 3
    rng = rng_stream(31)
    x = np.round(np.maximum(rng.normal(size=(2, 3, 11, 10)), 0.0), 1)
    x[0, 1, 3:6, 0:3] = 0.0
    x[1, 2, 0:3, 3:6] = 0.7
    x[1, 0, 7, 5] = np.nan
    x[1, 0, 8, 4] = np.nan
    pooled_ref, _ = naive_pool(x, k)
    assert np.sum(pooled_ref == 0.0) >= 1 and np.sum(np.isnan(pooled_ref)) == 1

    model = nn.ModelParams([nn.Layer("maxpool", pool=k), nn.Layer("softmax")])
    trace = nn.forward(model, x)
    np.testing.assert_array_equal(trace.inputs[1], pooled_ref)


def naive_grad_cam(model, trace, y):
    """Grad-CAM weights one pooled cell at a time: the cell's gradient
    (one-hot labels times the dense weight) goes to the conv position its
    block routes to, through the relu mask there; the maps are summed over
    the batch and averaged over the conv output."""
    conv_out = trace.inputs[1]
    pooled, first = naive_pool(trace.inputs[2], model.layers[2].pool)
    g = (np.eye(trace.probs.shape[-1])[y] @ model.layers[3].weight).reshape(pooled.shape)
    maps = np.zeros(conv_out.shape[1:])
    for s, k, i, j in np.ndindex(*pooled.shape):
        r, c = first[s, k, i, j]
        maps[k, r, c] += g[s, k, i, j] * (conv_out[s, k, r, c] > 0.0)
    return maps.mean(axis=(1, 2))


@pytest.mark.parametrize("pool", [1, 2, 3])
def test_activation_weights_match_the_walk(pool):
    # Odd conv outputs (7x7 and 7x10) so pools 2 and 3 crop trailing cells.
    # Filters 0 and 2 are relu-dead (exact ties at 0); sample 0 is all
    # zeros, so every block of it ties at relu(bias); sample 1 has a NaN
    # pixel that only conv position (0, 0) sees, one NaN block per filter.
    for seed in range(6):
        c, h, w, kernel = [(1, 9, 9, 3), (2, 8, 11, 2)][seed % 2]
        rng = rng_stream(36, pool, seed)
        model = nn.conv_model((c, h, w), 3, seed=rng, filters=6, kernel=kernel, pool=pool)
        conv = model.layers[0]
        conv.bias[:] = rng.normal(size=6)
        conv.bias[[0, 2]] = -1e3
        x = rng.normal(size=(8, c, h, w))
        x[0] = 0.0
        x[1, 0, 0, 0] = np.nan
        y = rng.integers(0, 3, size=8)
        trace = nn.forward(model, x)
        pooled = trace.inputs[3]
        assert np.isnan(pooled[1, :, 0, 0]).all() and np.isnan(pooled).sum() == 6

        alpha = nn.activation_weights(model, trace, y)
        walk = naive_grad_cam(model, trace, y)
        assert alpha[0] == 0.0 and alpha[2] == 0.0 and np.isfinite(alpha).all()
        np.testing.assert_allclose(alpha, walk, rtol=1e-12, atol=0.0)
        for top_p in (0.2, 0.5, 1.0):
            assert np.array_equal(select_top(alpha, top_p), select_top(walk, top_p))

        # A NaN dense weight gives a NaN gradient at one pooled cell of
        # every sample; both forms carry it into that filter's weight.
        model.layers[3].weight[0, 0] = np.nan
        nan_alpha = nn.activation_weights(model, trace, y)
        nan_walk = naive_grad_cam(model, trace, y)
        assert np.isnan(nan_alpha).tolist() == [True] + [False] * 5
        np.testing.assert_allclose(nan_alpha, nan_walk, rtol=1e-12, atol=0.0)


def test_activation_weights_need_relu_then_maxpool_after_the_conv():
    rng = rng_stream(38)
    x = rng.normal(size=(2, 1, 5, 5))
    model = nn.ModelParams(conv_head(rng.normal(size=(2, 1, 3, 3)), np.zeros(2), rng, 18))
    trace = nn.forward(model, x)
    with pytest.raises(ConfigError, match="relu -> maxpool"):
        nn.activation_weights(model, trace, np.array([0, 1]))


def test_model_validation():
    with pytest.raises(ConfigError):
        nn.ModelParams([nn.Layer("dense", np.eye(2), np.zeros(2))])  # no softmax
    with pytest.raises(ConfigError, match="conv layer must be the first layer, got one at layer 1"):
        nn.ModelParams(
            [
                nn.Layer("conv", np.zeros((1, 1, 2, 2)), np.zeros(1)),
                nn.Layer("conv", np.zeros((1, 1, 2, 2)), np.zeros(1)),
                nn.Layer("softmax"),
            ]
        )
    # The backward forms no input gradient for a conv, so one may come only first.
    with pytest.raises(ConfigError, match="got one at layer 2"):
        nn.ModelParams(
            [
                nn.Layer("maxpool", pool=1),
                nn.Layer("relu"),
                nn.Layer("conv", np.zeros((1, 1, 2, 2)), np.zeros(1)),
                nn.Layer("softmax"),
            ]
        )
    with pytest.raises(ConfigError):
        nn.ModelParams([nn.Layer("blur"), nn.Layer("softmax")])


def test_vector_round_trip():
    model = nn.conv_model((1, 5, 5), 3, seed=12, filters=2, kernel=2, pool=2)
    rng = rng_stream(13)
    vec = rng.normal(size=model.theta.size)
    view = nn.ModelParams(model.layers, vec)
    assert view.theta is vec
    moved = nn.apply_update(model, 0.5 * vec)
    for m in (model, view, moved):
        arrays = [a for lay in m.layers for a in (lay.weight, lay.bias) if a is not None]
        assert len(arrays) == 4
        assert all(np.shares_memory(a, m.theta) for a in arrays)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), m.theta)
    # apply_update builds a new theta and leaves its input's alone.
    before = model.theta.copy()
    assert not np.shares_memory(moved.theta, model.theta)
    assert np.array_equal(model.theta, before)
    assert np.array_equal(moved.theta, before - 0.5 * vec)
    # ModelParams(layers) copies: writing a source array leaves theta alone.
    w, b = np.ones((2, 3)), np.zeros(2)
    built = nn.ModelParams([nn.Layer("dense", w, b), nn.Layer("softmax")])
    w[0, 0] = 7.0
    assert not np.shares_memory(built.theta, w)
    assert np.array_equal(built.theta, np.r_[np.ones(6), np.zeros(2)])
    # ModelParams(layers, vec) views vec: a write shows in the layers.
    vec[0] = 99.0
    assert view.layers[0].weight.flat[0] == 99.0
    # ModelParams(layers, stack) views an (m, P) stack: each layer gains
    # the leading m, and row c's views are those of ModelParams(layers, row).
    stack = np.stack([vec, 2.0 * vec, -vec])
    stacked = nn.ModelParams(model.layers, stack)
    assert stacked.theta is stack
    for c in range(3):
        row = nn.ModelParams(model.layers, stack[c])
        for lay, one in zip(stacked.layers, row.layers):
            for a, b in ((lay.weight, one.weight), (lay.bias, one.bias)):
                if b is not None:
                    assert a.shape == (3, *b.shape) and np.shares_memory(a, stack)
                    assert np.array_equal(a[c], b)
    for bad in (vec[:-1], stack[:, :-1], vec.reshape(1, 1, -1), np.float64(1.0)):
        with pytest.raises(ConfigError, match="theta has shape"):
            nn.ModelParams(model.layers, bad)


def test_gradient_arithmetic():
    model = nn.mlp_model(3, 0, 2, seed=14)
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, -0.5])
    b = 2.0 * a
    ga, gb = (
        nn.GradientSet([(lay.weight, lay.bias) for lay in nn.ModelParams(model.layers, v).layers])
        for v in (a, b)
    )
    c = ga.plus(gb)
    assert np.array_equal(c.to_vector(), 3.0 * a)
    m = nn.mean_grads([a, b])
    assert np.array_equal(m, 1.5 * a)


def test_apply_update_scale_one_lands_on_trained_weights():
    # Dyadic values keep W - (W - W') exact in float64.
    w = np.array([[0.5, -0.25], [1.0, 2.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.array([0.125, -2.0])), nn.Layer("softmax")])
    target = nn.ModelParams(
        [nn.Layer("dense", w * 0.5, np.array([0.25, 1.0])), nn.Layer("softmax")]
    )
    update = model.theta - target.theta
    moved = nn.apply_update(model, update)
    assert np.array_equal(moved.layers[0].weight, target.layers[0].weight)
    assert np.array_equal(moved.layers[0].bias, target.layers[0].bias)


def test_apply_update_shape_mismatch_raises():
    model = nn.mlp_model(3, 0, 2, seed=15)
    bad = np.zeros(2 * 4 + 2)
    with pytest.raises(ConfigError):
        nn.apply_update(model, bad)


def test_local_train_is_deterministic_and_seed_sensitive():
    model = nn.mlp_model(4, 5, 3, seed=16)
    rng = rng_stream(17)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 3, size=20)
    before = model.theta.copy()
    u1 = nn.local_train(model, x, y, epochs=2, batch_size=8, lr=0.1, seed=rng_stream(20, 0))
    u2 = nn.local_train(model, x, y, epochs=2, batch_size=8, lr=0.1, seed=rng_stream(20, 0))
    u3 = nn.local_train(model, x, y, epochs=2, batch_size=8, lr=0.1, seed=rng_stream(20, 1))
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)
    # The caller's model is untouched.
    fresh = nn.mlp_model(4, 5, 3, seed=16)
    assert np.array_equal(model.theta, before)
    for a, b in zip(model.layers, fresh.layers):
        if a.weight is not None:
            assert np.array_equal(a.weight, b.weight)


def _shards(rng, feature_shape, lengths, classes=3):
    return [
        Dataset(rng.normal(size=(n, *feature_shape)), rng.integers(0, classes, size=n), classes)
        for n in lengths
    ]


def _one_client(model, shard, seed, round_idx, client, epochs=2, batch=8):
    """The update of one client from a one-client ``nn.local_train`` call."""
    stream = rng_stream(seed, round_idx, client)
    return nn.local_train(model, shard.features, shard.labels, epochs, batch, 0.1, stream)


def test_local_training_is_local_train_on_the_client_stream(monkeypatch):
    model = nn.mlp_model(4, 5, 3, seed=16)
    rng = rng_stream(17)
    data = Dataset(rng.normal(size=(20, 4)), rng.integers(0, 3, size=20), 3)
    train = nn.LocalTraining(epochs=2, batch_size=8, lr=0.1, seed=20)
    expect = _one_client(model, data, 20, 3, 1)
    out = np.empty((1, model.theta.size))
    train.train_all(model, [data], 3, out, [1])
    assert np.array_equal(out[0], expect)
    train.train_all(model, [data], 3, out, [2])
    assert not np.array_equal(out[0], expect)
    # nn.local_train is looked up per call, so a rebound one sees every update
    seen = []
    monkeypatch.setattr(nn, "local_train", lambda *args, **kwargs: seen.append(args) or expect)
    train.train_all(model, [data], 3, out, [1])
    assert len(seen) == 1


def test_train_all_writes_shard_j_into_row_j():
    model = nn.mlp_model(5, 6, 3, seed=46)
    # clients name the streams only, in any order: shards 0 and 2 stack (length
    # 7, not consecutive rows), shard 1 trains alone
    shards = _shards(rng_stream(47), (5,), (7, 9, 7), 3)
    clients = [5, 0, 2]
    train = nn.LocalTraining(epochs=2, batch_size=3, lr=0.1, seed=48)
    out = np.full((5, model.theta.size), np.nan)
    train.train_all(model, shards, 4, out, clients)
    for j, (shard, c) in enumerate(zip(shards, clients)):
        assert np.array_equal(out[j], _one_client(model, shard, 48, 4, c, batch=3)), j
    assert np.isnan(out[3:]).all()


@pytest.mark.parametrize(
    "model, feature_shape, lengths, stacks",
    [
        # two groups, interleaved: length 7 is clients 0, 2, 3, length 9 is 1, 4
        (nn.mlp_model(5, 6, 3, seed=40), (5,), (7, 9, 7, 7, 9), [3, 2]),
        (nn.conv_model((1, 6, 6), 3, seed=41, filters=2), (1, 6, 6), (5, 8, 8, 5), [2, 2]),
        # P = 18,092 plus a trace of 3 x 664 floats: three clients fill the cap
        (nn.mlp_model(600, 30, 2, seed=42), (600,), (4, 4, 4, 4, 4, 3), [3, 2, 1]),
        # the conv trace, not its 38 parameters, fills the cap: 2,524 floats
        # per sample (2 x 22 x 22 twice), 9 samples a batch, two clients a stack
        (
            nn.conv_model((1, 24, 24), 2, seed=45, filters=2, pool=11),
            (1, 24, 24),
            (9,) * 5,
            [2, 2, 1],
        ),
    ],
    ids=["mlp", "conv", "mlp-cap-splits", "conv-cap-splits"],
)
def test_stacked_training_equals_one_client_calls(
    monkeypatch, model, feature_shape, lengths, stacks
):
    # two epochs with a batch of 3 (9 on the last case): several steps and,
    # on shards of 4, 5, 7 and 8, a ragged last batch
    classes = model.layers[-2].bias.size
    shards = _shards(rng_stream(43), feature_shape, lengths, classes)
    batch = 9 if lengths[0] == 9 else 3
    train = nn.LocalTraining(epochs=2, batch_size=batch, lr=0.1, seed=44)
    expect = np.stack([_one_client(model, s, 44, 5, i, batch=batch) for i, s in enumerate(shards)])

    seen = []
    local_train = nn.local_train

    def recorded(*args, **kwargs):
        seen.append(len(args[6]))
        return local_train(*args, **kwargs)

    monkeypatch.setattr(nn, "local_train", recorded)
    out = np.full(expect.shape, np.nan)
    assert train.train_all(model, shards, 5, out) is None
    assert np.array_equal(out, expect)
    assert seen == stacks

    # the stacked call itself: one (m, P) result, or rows written into out
    same = [i for i, n in enumerate(lengths) if n == lengths[0]]
    features = np.stack([shards[i].features for i in same])
    labels = np.stack([shards[i].labels for i in same])
    seeds = [rng_stream(44, 5, i) for i in same]
    assert np.array_equal(local_train(model, features, labels, 2, batch, 0.1, seeds), expect[same])
    rows = np.empty((len(same), model.theta.size))
    seeds = [rng_stream(44, 5, i) for i in same]
    local_train(model, features, labels, 2, batch, 0.1, seeds, out=rows)
    assert np.array_equal(rows, expect[same])


def test_a_conv_model_past_the_row_gate_trains_half_its_stacks_on_the_worker(
    monkeypatch, fold_worker
):
    # 1x64x64 input, 8 filters, 10 classes: 80 conv and 76,890 dense
    # parameters reach STACK_FLOATS, so each client is a stack of its own,
    # and SPLIT_FLOATS, so the second trains on the worker, through the
    # private kernels alone (the maxpool backward's block_keep included).
    model = nn.conv_model((1, 64, 64), 10, seed=49)
    assert model.theta.size >= max(nn.STACK_FLOATS, nn.runtime.SPLIT_FLOATS)
    shards = _shards(rng_stream(50), (1, 64, 64), (5, 5), 10)
    train = nn.LocalTraining(epochs=2, batch_size=3, lr=0.1, seed=51)
    serial = np.full((2, model.theta.size), np.nan)
    with monkeypatch.context() as m:
        m.setattr(nn.runtime, "worker", lambda: None)
        train.train_all(model, shards, 6, serial)
    assert fold_worker == []

    strays = []
    for name, fn in list(vars(nn).items()):
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == nn.__name__:

            def checked(*args, _fn=fn, _name=name, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    strays.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(nn, name, checked)
    split = np.full_like(serial, np.nan)
    train.train_all(model, shards, 6, split)
    assert len(fold_worker) == 1 and threading.main_thread() not in fold_worker
    assert strays == []
    assert split.tobytes() == serial.tobytes()
    assert serial[0].tobytes() == _one_client(model, shards[0], 51, 6, 0, batch=3).tobytes()


def test_stacked_local_train_checks_its_shapes():
    model = nn.mlp_model(2, 0, 2, seed=0)
    x, y = np.zeros((2, 4, 2)), np.zeros((2, 4), dtype=int)
    with pytest.raises(ConfigError):
        nn.local_train(model, x, y, 1, 4, 0.1, seed=[0])
    with pytest.raises(ConfigError):
        nn.local_train(model, x, y[0], 1, 4, 0.1, seed=[0, 1])
    with pytest.raises(ConfigError):
        nn.local_train(model, x, y, 1, 4, 0.1, seed=[0, 1], out=np.empty((3, 6)))


def test_local_train_update_is_before_minus_after():
    model = nn.mlp_model(4, 0, 2, seed=18)
    rng = rng_stream(19)
    x = rng.normal(size=(10, 4))
    y = rng.integers(0, 2, size=10)
    update = nn.local_train(model, x, y, epochs=1, batch_size=10, lr=0.5, seed=1)
    # One epoch, one full batch: W' = W - lr * grad(W), so the update is
    # exactly lr * grad evaluated at the starting point.
    trace = nn.forward(model, x)
    grads = nn.backward(model, trace, y)
    assert np.allclose(update, 0.5 * grads.to_vector(), atol=1e-15)
    landed = nn.apply_update(model, update)
    expect = nn.apply_update(model, 0.5 * grads.to_vector())
    for a, b in zip(landed.layers, expect.layers):
        if a.weight is not None:
            assert np.allclose(a.weight, b.weight, atol=1e-15)


def test_local_train_rejects_empty_shard():
    model = nn.mlp_model(2, 0, 2, seed=0)
    with pytest.raises(ConfigError):
        nn.local_train(model, np.zeros((0, 2)), np.zeros(0, dtype=int), 1, 4, 0.1, seed=0)


def test_one_round_of_training_reduces_loss():
    model = nn.mlp_model(2, 8, 2, seed=21)
    rng = rng_stream(22)
    x = np.concatenate([rng.normal(size=(30, 2)) + 3.0, rng.normal(size=(30, 2)) - 3.0])
    y = np.concatenate([np.zeros(30, dtype=int), np.ones(30, dtype=int)])
    before = fd_loss(model, x, y)
    update = nn.local_train(model, x, y, epochs=3, batch_size=16, lr=0.2, seed=23)
    after = fd_loss(nn.apply_update(model, update), x, y)
    assert after < before


def test_predict_returns_argmax_class():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(3)), nn.Layer("softmax")])
    x = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, -2.0]])
    assert np.array_equal(nn.predict(model, x), [0, 1, 2])
