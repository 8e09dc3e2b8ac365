"""Network engine checks: hand-computed forwards, finite-difference
gradient oracles, and the update/train conventions everything else
builds on."""

import dataclasses
import inspect
import threading
import tracemalloc

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
    return nn._loss_value(trace.probs, labels)


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


def pooled_region(cell_major, k):
    """A cell-major conv output (..., f, k*k, n, hp, wp) as the maps
    (..., n, f, hp*k, wp*k) the pool reads, one position at a time:
    position (i*k + a, j*k + b) is cell (a, b) of block (i, j)."""
    *lead, f, _, n, hp, wp = cell_major.shape
    maps = np.full((*lead, n, f, hp * k, wp * k), np.nan)
    for *at, filt, cell, s, i, j in np.ndindex(*cell_major.shape):
        a, b = divmod(cell, k)
        maps[(*at, s, filt, i * k + a, j * k + b)] = cell_major[(*at, filt, cell, s, i, j)]
    return maps


def conv_maps(model, trace, i):
    """``trace.inputs[i]``, the cell-major output of the conv (i = 1) or of
    a relu before its pool, as the (n, f, ho', wo') maps the pool reads:
    the whole output with pool 1."""
    k = next(layer.pool for layer in model.layers if layer.kind == "maxpool")
    return pooled_region(trace.inputs[i], k)


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

    relu_out, pooled = conv_maps(model, trace, 2), trace.inputs[3]
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
    with pytest.raises(ConfigError):
        nn.activation_weights(model, x, np.array([0, 1]))


def test_perfect_predictions_give_zero_gradient():
    # Saturated logits: probs hit the one-hot targets exactly in float64.
    w = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    model = nn.ModelParams([nn.Layer("dense", w, np.zeros(2)), nn.Layer("softmax")])
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([0, 1])
    trace = nn.forward(model, x)
    grads = nn.backward(model, trace, y)
    assert np.array_equal(grads.to_vector(), np.zeros(model.theta.size))


def identity_conv():
    """A 1x1 conv with weight 1 and bias 0: its output is its one-channel
    input, so the pool behind it reads the input itself."""
    return nn.Layer("conv", np.ones((1, 1, 1, 1)), np.zeros(1))


def test_maxpool_drops_trailing_cells():
    # 5x5 input, pool 2: output is 2x2 and row/col 4 never contribute.
    model = nn.ModelParams(
        [
            identity_conv(),
            nn.Layer("maxpool", pool=2),
            nn.Layer("dense", np.eye(4), np.zeros(4)),
            nn.Layer("softmax"),
        ]
    )
    x = np.zeros((1, 1, 5, 5))
    x[0, 0] = np.arange(25).reshape(5, 5)
    trace = nn.forward(model, x)
    pooled = trace.inputs[2]
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
    """A conv whose pool of 1 hands its whole output, as maps, to a dense
    layer."""
    return [
        nn.Layer("conv", w, b),
        nn.Layer("maxpool", pool=1),
        nn.Layer("dense", rng.normal(size=(2, flat)), np.zeros(2)),
        nn.Layer("softmax"),
    ]


def conv_output_grad(model, trace, dlogits):
    """The gradient at a ``conv_head``'s conv output: dlogits times the
    dense weight, reshaped to the output's maps (the pool of 1's output)."""
    return (dlogits @ model.layers[2].weight).reshape(trace.inputs[2].shape)


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
    out = pooled_region(nn._conv_forward(x, w, b, nn._lower(x, w), 1), 1)
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
        conv_out = conv_maps(one, one_trace, 1)
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
    assert_same_bits(conv_maps(model, trace, 1), out)

    dlogits = rng.normal(size=(n, 2))
    grads = nn._backprop(model, trace, dlogits)
    d = conv_output_grad(model, trace, dlogits)
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    assert_same_bits(grads[0][0], np.tensordot(d, win, axes=((0, 2, 3), (0, 2, 3))))
    # the bias sums each filter's (n, ho, wo) gradient, f-major as the
    # conv backward scatters the pool's slabs
    assert_same_bits(grads[0][1], np.ascontiguousarray(d.swapaxes(0, 1)).sum(axis=(1, 2, 3)))


def test_a_pre_lowered_batch_keeps_the_bits_of_forward_and_backward():
    # One model on a shared batch, as the validation probes run it, and a
    # client stack on its own batches, as local_train runs it.  The 5x4
    # conv maps feed a pool of 2, which crops row 4: the columns run over
    # (cell, sample, pooled row, pooled column) and leave that row out.
    rng = rng_stream(36)
    model = nn.conv_model((2, 7, 6), 3, seed=rng, filters=3, kernel=3, pool=2)
    m = 3
    theta = model.theta + 0.1 * rng.normal(size=(m, model.theta.size))
    stack = nn.ModelParams(model.layers, theta)
    for net, x in ((model, rng.normal(size=(5, 2, 7, 6))), (stack, rng.normal(size=(m, 5, 2, 7, 6)))):
        cols = nn.lower(net, x)
        assert cols.shape == x.shape[:-4] + (18, 4 * 5 * 2 * 2)
        for *at, a, b, s, i, j in np.ndindex(*x.shape[:-4], 2, 2, 5, 2, 2):
            col = np.ravel_multi_index((a, b, s, i, j), (2, 2, 5, 2, 2))
            r, c = 2 * i + a, 2 * j + b
            window = x[(*at, s, slice(None), slice(r, r + 3), slice(c, c + 3))]
            assert_same_bits(cols[(*at, slice(None), col)], window.ravel())
        want = nn.forward(net, x)
        got = nn.forward(net, x, cols)
        for a, b in zip(got.inputs + [got.logits, got.probs], want.inputs + [want.logits, want.probs]):
            assert_same_bits(a, b)
        dlogits = rng.normal(size=want.probs.shape)
        for a, b in zip(nn._backprop(net, got, dlogits), nn._backprop(net, want, dlogits)):
            for ga, gb in zip(a, b):
                if gb is not None:
                    assert_same_bits(ga, gb)
    with pytest.raises(ConfigError, match="lowered batch"):
        nn.forward(model, x[0, :4], cols)
    # the trace keeps no columns: the backward lowers its input again
    assert [f.name for f in dataclasses.fields(nn.ForwardTrace)] == ["inputs", "logits", "probs"]


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

    # each of the 2 x 3 maps a one-channel sample of the identity conv
    model = nn.ModelParams([identity_conv(), nn.Layer("maxpool", pool=k), nn.Layer("softmax")])
    trace = nn.forward(model, x.reshape(6, 1, 11, 10))
    np.testing.assert_array_equal(trace.inputs[2].reshape(pooled_ref.shape), pooled_ref)


# -0.0, quiet and signalling NaNs with payloads, infinities, subnormals
SPECIAL_BITS = np.array(
    [
        0,
        1 << 63,  # -0.0
        0x7FF8_0000_0000_0000,  # quiet NaN
        0xFFF8_0000_0000_0001,  # negative quiet NaN with a payload
        0x7FF8_DEAD_0000_BEEF,
        0x7FF0_0000_0000_0001,  # signalling NaN
        0x7FF4_0000_0000_0ABC,
        0xFFF0_0000_0000_0123,
        0x7FF0_0000_0000_0000,  # +inf
        0xFFF0_0000_0000_0000,  # -inf
        1,  # the smallest subnormal
        0x800F_FFFF_FFFF_FFFF,  # the largest negative subnormal
        0x000F_FFFF_FFFF_FFFF,
        0x8000_0000_0000_0001,
    ],
    dtype=np.uint64,
).view(np.float64)


@pytest.mark.parametrize("stack", [(), (3,)], ids=["one", "stack"])
@pytest.mark.parametrize("slab", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (3, 2, 2), (2, 5, 5)])
def test_the_pool_reduction_keeps_the_bits_of_the_slab_fold(stack, slab):
    # The maxpool reduces the conv output's cell axis in one call, which
    # must keep the bits of the running fold over the slabs on ties of
    # +-0.0, NaN payloads and infinities.  A one-entry slab (1, 1, 1)
    # leaves the cell axis innermost, where numpy reduces in another
    # order, so the pool folds it.  First the kernel on raw cell-major
    # data, then a forward: an identity conv keeps the quiet NaNs'
    # payloads (it quiets the signalling ones and turns -0.0 into +0.0).
    rng = rng_stream(39, len(stack), *slab)
    n, hp, wp = slab
    for f in (1, 8):
        for k in (1, 2, 3):
            x = rng.choice(SPECIAL_BITS, size=(*stack, f, k * k, *slab))
            want = nn._fold_max(nn._slabs(x))
            assert_same_bits(nn._pool(x).view(np.int64), want.view(np.int64))

            conv = nn.Layer("conv", np.ones((f, 1, 1, 1)), np.zeros(f))
            layers = nn.ModelParams([conv, nn.Layer("maxpool", pool=k), nn.Layer("softmax")]).layers
            model = nn.ModelParams(layers, np.ones((*stack, 2 * f)))
            model.theta[..., f:] = 0.0
            # k - 1 cropped rows and columns
            batch = rng.choice(SPECIAL_BITS, size=(*stack, n, 1, hp * k + k - 1, wp * k + k - 1))
            with np.errstate(invalid="ignore"):
                trace = nn.forward(model, batch)
            conv_out = trace.inputs[1]
            assert conv_out.shape == (*stack, f, k * k, *slab)
            want = np.ascontiguousarray(nn._fold_max(nn._slabs(conv_out)).swapaxes(-4, -3))
            assert_same_bits(trace.inputs[2].view(np.int64), want.view(np.int64))


def test_the_relu_zero_operand_keeps_the_bits_of_the_scalar():
    # The relu maxes against an array of +0.0, not the scalar 0.0, because
    # numpy takes its contiguous loop then.  The two forms must agree on
    # every bit, -0.0, quiet and signalling NaNs with payloads, infinities
    # and subnormals included, at every length up to a few SIMD widths, so
    # a numpy that changes either path fails here.
    x = np.concatenate([SPECIAL_BITS, rng_stream(37).normal(size=1000), SPECIAL_BITS[::-1]])
    relu = nn.ModelParams([nn.Layer("relu"), nn.Layer("softmax")])
    with np.errstate(invalid="ignore", over="ignore"):
        for n in [*range(1, 41), x.size]:
            part = x[:n]
            zero = np.zeros(n)
            assert_same_bits(np.maximum(part, zero, out=zero), np.maximum(part, 0.0))
        assert_same_bits(nn.forward(relu, x[None]).inputs[1][0], np.maximum(x, 0.0))


# Conv chains for the bit tests of the trace-free forward and the conv
# backward: (input, samples, filters, kernel, pool, relus before the
# pool, stack).  A 1x1 kernel is an identity conv.
CHAIN_CASES = {
    "pool1": ((2, 6, 7), 5, 3, 2, 1, 1, ()),
    "pool2": ((1, 9, 9), 4, 4, 2, 2, 1, ()),
    "pool3": ((1, 11, 8), 3, 2, 3, 3, 1, ()),
    "pool3-cropped": ((2, 8, 11), 3, 3, 2, 3, 1, ()),
    "identity-cropped": ((1, 7, 9), 4, 2, 1, 2, 1, ()),
    "one-entry-slab": ((1, 4, 4), 1, 3, 3, 2, 1, ()),
    "no-relu": ((1, 7, 9), 4, 2, 1, 2, 0, ()),
    "two-relus": ((1, 9, 9), 4, 4, 2, 2, 2, ()),
    "stack": ((2, 8, 11), 3, 3, 2, 3, 1, (3,)),
    "stack-identity-two-relus": ((1, 7, 9), 2, 2, 1, 2, 2, (2,)),
    "stack-one-entry-slab": ((1, 4, 4), 1, 3, 3, 2, 1, (2,)),
}


def with_specials(rng, shape, share):
    """Normal draws rounded to one decimal (ties, zeros of both signs),
    about ``share`` of them replaced by SPECIAL_BITS."""
    x = np.round(rng.normal(size=shape), 1)
    hit = rng.random(shape) < share
    x[hit] = rng.choice(SPECIAL_BITS, size=int(hit.sum()))
    return x


def case_model(case, share):
    """The model of a CHAIN_CASES row, or a 6 -> 5 -> 3 MLP for "mlp", and
    a batch for it with ``share`` special entries, and the case's rng.  The
    conv's bias is -0.0, which keeps its -0.0 outputs, and with more than
    one sample the first is zeros of both signs: blocks tied at +-0.0."""
    rng = rng_stream(64, [*CHAIN_CASES, "mlp"].index(case))
    if case == "mlp":
        return nn.mlp_model(6, 5, 3, seed=rng), with_specials(rng, (7, 6), share), rng
    in_shape, n, f, kernel, pool, relus, stack = CHAIN_CASES[case]
    hp, wp = nn.pooled_shape(in_shape, kernel, pool)
    layers = [
        nn.Layer("conv", np.zeros((f, in_shape[0], kernel, kernel)), np.zeros(f)),
        *[nn.Layer("relu") for _ in range(relus)],
        nn.Layer("maxpool", pool=pool),
        nn.Layer("dense", np.zeros((3, f * hp * wp)), np.zeros(3)),
        nn.Layer("softmax"),
    ]
    model = nn.ModelParams(layers, rng.normal(size=(*stack, nn.ModelParams(layers).theta.size)))
    conv = model.layers[0]
    if kernel == 1:
        conv.weight[...] = 1.0
    conv.bias[...] = -0.0
    x = with_specials(rng, (*stack, n, *in_shape), share)
    if n > 1:
        x[..., 0, :, :, :] = rng.choice([0.0, -0.0], size=(*stack, *in_shape))
    return model, x, rng


@pytest.mark.parametrize("share", [0.0, 0.05], ids=["finite", "special"])
@pytest.mark.parametrize("case", [*CHAIN_CASES, "mlp"])
def test_the_trace_free_forward_keeps_the_bits_of_the_traced_one(case, share):
    # _infer pools the conv's maps before its chain's relus: relu and max
    # commute bit for bit (np.maximum returns its second operand, +0.0, on
    # ties of +-0.0, and a NaN block keeps its first NaN in fold order).
    model, x, _ = case_model(case, share)
    with np.errstate(invalid="ignore", over="ignore"):
        trace = nn.forward(model, x)
        for cols in (None, nn.lower(model, x)) if case != "mlp" else (None,):
            logits, probs = nn._infer(model, x, cols)
            assert_same_bits(logits, trace.logits)
            assert_same_bits(probs, trace.probs)


@pytest.mark.parametrize("share", [0.0, 0.05], ids=["finite", "special"])
@pytest.mark.parametrize("case", [c for c, row in CHAIN_CASES.items() if row[5] == 1 and not row[6]])
def test_the_activation_weights_keep_the_bits_of_the_traced_pooled_maps(case, share):
    # The weights stop at the conv's pooled maps before the relu, whose
    # mask pooled > 0 is the relu'd maps' mask.  A NaN and an infinite
    # dense weight put NaN and inf into the gradient at the pooled maps,
    # where a mask of 0 gives NaN, as the relu backward's product does.
    model, x, rng = case_model(case, share)
    dense = model.layers[3].weight
    dense[0, 0], dense[1, -1] = np.nan, np.inf
    y = np.arange(len(x)) % 3
    with np.errstate(invalid="ignore", over="ignore"):
        pooled = nn.forward(model, x).inputs[3]
        g = (np.eye(3)[y] @ dense).reshape(pooled.shape)
        kernel = model.layers[0].weight.shape[-1]
        maps = (x.shape[-2] - kernel + 1) * (x.shape[-1] - kernel + 1)
        want = (g * (pooled > 0.0)).sum(axis=(0, 2, 3)) / maps
        assert np.isnan(want).any()
        for cols in (None, nn.lower(model, x)):
            assert_same_bits(nn.activation_weights(model, x, y, cols), want)


def unslabbed_backprop(model, trace, dlogits):
    """The gradients by the conv chain's earlier backward: each block's
    gradient routed into a cell-major dx, the full-size relu backward
    d * (x > 0) over it, and the slabs scattered to the sample-order
    maps, +0.0 where the pool crops."""
    out = np.empty_like(model.theta)
    grads = [(v.weight, v.bias) for v in nn._views(model.layers, out, model.theta.ndim - 1)]
    d = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        layer, x, (gw, gb) = model.layers[i], trace.inputs[i], grads[i]
        if layer.kind == "dense":
            np.matmul(d.swapaxes(-1, -2), x.reshape(x.shape[: layer.weight.ndim - 1] + (-1,)), out=gw)
            d.sum(axis=-2, out=gb)
            d = (d @ layer.weight).reshape(x.shape)
        elif layer.kind == "relu":
            d = d * (x > 0.0)
        elif layer.kind == "maxpool":
            dx = np.empty(x.shape)
            best = np.ascontiguousarray(trace.inputs[i + 1].swapaxes(-4, -3))
            nn._route(np.ascontiguousarray(d.swapaxes(-4, -3)), nn._slabs(x), nn._slabs(dx), best)
            d, k = dx, layer.pool
        elif layer.kind == "conv":
            *stack, f, _, n, hp, wp = d.shape
            kh, kw = gw.shape[-2:]
            maps = np.zeros((*stack, f, n, x.shape[-2] - kh + 1, x.shape[-1] - kw + 1))
            for c, slab in enumerate(nn._slabs(d)):
                a, b = divmod(c, k)
                maps[..., a : hp * k : k, b : wp * k : k] = slab
            d = maps.swapaxes(-4, -3)
            cols = nn._lower(x, layer.weight)
            cols_t = cols.swapaxes(-1, -2)
            if not np.may_share_memory(cols, x):
                cols_t = np.ascontiguousarray(cols_t)
            dm = maps.reshape(*stack, f, -1)
            gw[...] = np.matmul(nn._blas_ready(dm), nn._blas_ready(cols_t)).reshape(gw.shape)
            d.sum(axis=(-4, -2, -1), out=gb)
    return grads


@pytest.mark.parametrize("share", [0.0, 0.05], ids=["finite", "special"])
@pytest.mark.parametrize("case", [*CHAIN_CASES, "mlp"])
def test_the_conv_backward_keeps_the_bits_of_the_unslabbed_chain(case, share):
    # The backward masks the pooled gradient by pooled > 0 and routes it
    # straight into the sample-order maps: at each block's kept cell every
    # relu's mask x > 0 equals pooled > 0, and the other cells take +0.0,
    # which the masks leave +0.0.  Finite data keeps the gradients finite,
    # so a misrouted or unmasked entry shows; special data checks the
    # NaN payloads and infinities.
    model, x, rng = case_model(case, share)
    with np.errstate(invalid="ignore", over="ignore"):
        trace = nn.forward(model, x)
        dlogits = with_specials(rng, trace.probs.shape, share)
        got = nn._backprop(model, trace, dlogits)
        want = unslabbed_backprop(model, trace, dlogits)
    if share == 0.0:
        assert np.isfinite(model.theta).all() and np.isfinite(want[0][0]).all()
    for pair, want_pair in zip(got, want):
        for g, w in zip(pair, want_pair):
            if w is not None:
                assert_same_bits(g, w)


def routed_maps(conv_out, first, g):
    """The gradient at the conv output when each pooled cell's gradient g
    goes to the position ``first`` routes it to, through the relu mask."""
    routed = np.zeros(conv_out.shape)
    for s, f, i, j in np.ndindex(*g.shape):
        r, c = first[s, f, i, j]
        routed[s, f, r, c] = g[s, f, i, j] * (conv_out[s, f, r, c] > 0.0)
    return routed


@pytest.mark.parametrize("pool", [2, 3])
@pytest.mark.parametrize("size", [(9, 9), (9, 12)], ids=["7x7", "7x10"])
def test_the_cell_major_pool_matches_naive_loops_on_cropped_maps(pool, size):
    # A 3x3 kernel gives 7x7 or 7x10 maps, which pools 2 and 3 crop.
    # Filter 0 reads only channel 0's window centre, drawn from {0.5, 1}:
    # tied positive blocks.  Filter 1 is relu-dead: blocks tied at 0.
    # Sample 1 has a NaN pixel that only conv position (0, 0) sees: a NaN
    # block in every filter.  With 16 channels each filter has 144 weights,
    # at least the 140 positions of a batch, so its weight gradient pins
    # the routed gradient at the conv output.  One model, then a stack of
    # three, each client with the bits of its one-model run.
    n, c, f, classes = 2, 16, 4, 3
    rng = rng_stream(38, pool, *size)
    base = nn.conv_model((c, *size), classes, seed=rng, filters=f, kernel=3, pool=pool)

    def client(rng):
        theta = base.theta + 0.1 * rng.normal(size=base.theta.size)
        model = nn.ModelParams(base.layers, theta)
        conv = model.layers[0]
        conv.weight[0] = 0.0
        conv.weight[0, 0, 1, 1] = 1.0
        conv.bias[0] = 0.25
        conv.bias[1] = -1e3
        x = rng.normal(size=(n, c, *size))
        x[:, 0, 1:-1, 1:-1] = rng.choice((0.5, 1.0), size=(n, size[0] - 2, size[1] - 2))
        x[1, 0, 0, 0] = np.nan
        return model, x

    def expect(model, x, dlogits, y):
        conv, dense = model.layers[0], model.layers[3]
        conv_out = naive_conv(x, conv.weight, conv.bias)
        with np.errstate(invalid="ignore"):
            relu = np.maximum(conv_out, 0.0)
            pooled, first = naive_pool(relu, pool)
            routed = routed_maps(conv_out, first, (dlogits @ dense.weight).reshape(pooled.shape))
            cam = routed_maps(conv_out, first, (np.eye(classes)[y] @ dense.weight).reshape(pooled.shape))
            # blocks of filter 0 whose maximum sits at more than one position
            hp, wp = pooled.shape[-2:]
            blocks = relu[:, 0, : hp * pool, : wp * pool].reshape(n, hp, pool, wp, pool)
            tied = (blocks == pooled[:, 0, :, None, :, None]).sum(axis=(2, 4)) > 1
        gw = naive_conv_dw(x, routed, 3, 3)
        return pooled, gw, routed.sum(axis=(0, 2, 3)), cam.sum(axis=0).mean(axis=(1, 2)), tied.sum()

    model, x = client(rng)
    y = rng.integers(0, classes, size=n)
    dlogits = rng.normal(size=(n, classes))
    trace = nn.forward(model, x)
    pooled, gw, gb, cam, tied = expect(model, x, dlogits, y)
    assert np.isnan(pooled[1, :, 0, 0]).all() and tied >= 2
    assert (pooled[:, 1] == 0.0).sum() == pooled[:, 1].size - 1  # one NaN block
    assert np.isnan(gw).sum() == f and np.isnan(gw[:, 0, 0, 0]).all()
    grads = nn._backprop(model, trace, dlogits)
    np.testing.assert_allclose(trace.inputs[3], pooled, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(grads[0][0], gw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[0][1], gb, rtol=1e-12, atol=1e-12)
    # Grad-CAM reads the same routing; a NaN block passes nothing
    np.testing.assert_allclose(nn.activation_weights(model, x, y), cam, rtol=1e-12, atol=0.0)

    m = 3
    clients = [client(rng) for _ in range(m)]
    stack = nn.ModelParams(base.layers, np.stack([one.theta for one, _ in clients]))
    xs = np.stack([x for _, x in clients])
    dlogits = rng.normal(size=(m, n, classes))
    trace = nn.forward(stack, xs)
    grads = nn._backprop(stack, trace, dlogits)
    for k, (one, x) in enumerate(clients):
        pooled, gw, gb, _, _ = expect(one, x, dlogits[k], y)
        np.testing.assert_allclose(trace.inputs[3][k], pooled, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(grads[0][0][k], gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[0][1][k], gb, rtol=1e-12, atol=1e-12)
        one_trace = nn.forward(one, x)
        for got, want in zip(trace.inputs[1:] + [trace.probs], one_trace.inputs[1:] + [one_trace.probs]):
            assert_same_bits(got[k], want)
        for got, want in zip(grads, nn._backprop(one, one_trace, dlogits[k])):
            for g, o in zip(got, want):
                if o is not None:
                    assert_same_bits(g[k], o)


def naive_grad_cam(model, trace, y):
    """Grad-CAM weights one pooled cell at a time: the cell's gradient
    (one-hot labels times the dense weight) goes to the conv position its
    block routes to, through the relu mask there; the maps are summed over
    the batch and averaged over the conv output."""
    conv_out = conv_maps(model, trace, 1)
    pooled, first = naive_pool(conv_maps(model, trace, 2), model.layers[2].pool)
    g = (np.eye(trace.probs.shape[-1])[y] @ model.layers[3].weight).reshape(pooled.shape)
    f, _, kh, kw = model.layers[0].weight.shape
    h, w = trace.inputs[0].shape[-2:]
    maps = np.zeros((f, h - kh + 1, w - kw + 1))
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

        alpha = nn.activation_weights(model, x, y)
        walk = naive_grad_cam(model, trace, y)
        assert alpha[0] == 0.0 and alpha[2] == 0.0 and np.isfinite(alpha).all()
        np.testing.assert_allclose(alpha, walk, rtol=1e-12, atol=0.0)
        for top_p in (0.2, 0.5, 1.0):
            assert np.array_equal(select_top(alpha, top_p), select_top(walk, top_p))

        # A NaN dense weight gives a NaN gradient at one pooled cell of
        # every sample; both forms carry it into that filter's weight.
        model.layers[3].weight[0, 0] = np.nan
        nan_alpha = nn.activation_weights(model, x, y)
        nan_walk = naive_grad_cam(model, trace, y)
        assert np.isnan(nan_alpha).tolist() == [True] + [False] * 5
        np.testing.assert_allclose(nan_alpha, nan_walk, rtol=1e-12, atol=0.0)


def test_activation_weights_need_relu_then_maxpool_after_the_conv():
    rng = rng_stream(38)
    x = rng.normal(size=(2, 1, 5, 5))
    model = nn.ModelParams(conv_head(rng.normal(size=(2, 1, 3, 3)), np.zeros(2), rng, 18))
    with pytest.raises(ConfigError, match="relu -> maxpool"):
        nn.activation_weights(model, x, np.array([0, 1]))


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
                nn.Layer("relu"),
                nn.Layer("relu"),
                nn.Layer("conv", np.zeros((1, 1, 2, 2)), np.zeros(1)),
                nn.Layer("softmax"),
            ]
        )
    with pytest.raises(ConfigError):
        nn.ModelParams([nn.Layer("blur"), nn.Layer("softmax")])
    # A maxpool exists only as the pool the conv reaches through relus
    # alone: the forward folds the conv's cell-major slabs and nothing else.
    conv = nn.Layer("conv", np.zeros((1, 1, 2, 2)), np.zeros(1))
    dense = nn.Layer("dense", np.eye(2), np.zeros(2))
    for layers, message in (
        ([nn.Layer("relu"), nn.Layer("maxpool"), nn.Layer("softmax")], "maxpool must follow the conv"),
        ([conv, nn.Layer("relu"), dense, nn.Layer("softmax")], "reach a maxpool .* got dense at layer 2"),
        ([conv, dense, nn.Layer("maxpool"), nn.Layer("softmax")], "reach a maxpool .* got dense at layer 1"),
        (
            [conv, nn.Layer("relu"), nn.Layer("maxpool"), nn.Layer("maxpool"), nn.Layer("softmax")],
            "maxpool must follow the conv through relus alone, got one at layer 3",
        ),
    ):
        with pytest.raises(ConfigError, match=message):
            nn.ModelParams(layers)
    with pytest.raises(ConfigError, match="only a conv model lowers its batch, got a dense first layer"):
        nn.lower(nn.mlp_model(4, 3, 2, seed=0), np.zeros((2, 4)))


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
        # P = 36,092 plus a trace of 3 x 1,264 floats: three clients fill the cap
        (nn.mlp_model(1200, 30, 2, seed=42), (1200,), (4, 4, 4, 4, 4, 3), [3, 2, 1]),
        # the conv trace, not its 38 parameters, fills the cap: 5,264 floats
        # per sample (2 x 32 x 32 twice), 9 samples a batch, two clients a stack
        (
            nn.conv_model((1, 34, 34), 2, seed=45, filters=2, pool=11),
            (1, 34, 34),
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
    # 1x84x84 input, 8 filters, 10 classes: 80 conv and 134,490 dense
    # parameters reach SPLIT_FLOATS, so the two clients make an even count
    # of stacks, one each, and the second trains on the worker, through the
    # private kernels alone (the maxpool's slab fold and routing included).
    model = nn.conv_model((1, 84, 84), 10, seed=49)
    assert model.theta.size >= max(nn.STACK_FLOATS, nn.runtime.SPLIT_FLOATS)
    shards = _shards(rng_stream(50), (1, 84, 84), (5, 5), 10)
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


def sgd_reference(model, features, labels, epochs, batch, lr, seeds):
    """Plain SGD on a stack of clients, written out step by step: theta
    copied into the rows, ``nn.forward``, ``nn.backward`` into a fresh
    buffer, ``*= lr`` and ``-=``, then the update theta - w."""
    m, n = labels.shape
    w = np.empty((m, model.theta.size))
    w[...] = model.theta
    stack = nn.ModelParams(model.layers, w)
    rngs = [rng_stream(*s) for s in seeds]
    rows = np.arange(m)[:, None]
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch):
            b = order[:, start : start + batch]
            grad = np.empty_like(w)
            nn.backward(stack, nn.forward(stack, features[rows, b]), labels[rows, b], out=grad)
            grad *= lr
            w -= grad
    return model.theta - w


def assert_trains_like_the_reference(model, features, labels, epochs, batch, seeds, stacked=True):
    want = sgd_reference(model, features, labels, epochs, batch, 0.1, seeds)
    if stacked:
        got = nn.local_train(model, features, labels, epochs, batch, 0.1, [rng_stream(*s) for s in seeds])
    else:
        got = nn.local_train(model, features[0], labels[0], epochs, batch, 0.1, rng_stream(*seeds[0]))[None]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("clients", [1, 3], ids=["one-client", "stack"])
@pytest.mark.parametrize("epochs, batch", [(1, 64), (2, 3)], ids=["one-step", "ragged-steps"])
@pytest.mark.parametrize(
    "model, feature_shape",
    [
        (nn.mlp_model(5, 6, 3, seed=52), (5,)),
        (nn.conv_model((1, 6, 6), 3, seed=53, filters=2), (1, 6, 6)),
    ],
    ids=["mlp", "conv"],
)
def test_local_train_keeps_the_bits_of_plain_sgd(model, feature_shape, epochs, batch, clients):
    # 7 samples: one step at batch 64, and at batch 3 two epochs of three
    # steps each, the last of one sample
    rng = rng_stream(54)
    features = rng.normal(size=(clients, 7, *feature_shape))
    labels = rng.integers(0, 3, size=(clients, 7))
    seeds = [(55, 0, c) for c in range(clients)]
    assert_trains_like_the_reference(model, features, labels, epochs, batch, seeds, stacked=clients > 1)
    if clients == 1:
        assert_trains_like_the_reference(model, features, labels, epochs, batch, seeds)


def test_a_one_step_stack_peaks_below_one_gradient_buffer():
    # The benchmark's 784 -> 128 -> 3 MLP (P = 100,867), five clients of 30
    # samples, batch 64: one step, whose forward and backward read one theta
    # for the stack and whose gradient goes into the rows being trained.
    model = nn.mlp_model(784, 128, 3, seed=56)
    rng = rng_stream(57)
    features = rng.normal(size=(5, 30, 784))
    labels = rng.integers(0, 3, size=(5, 30))
    out = np.empty((5, model.theta.size))
    seeds = [rng_stream(58, 0, c) for c in range(5)]
    tracemalloc.start()
    try:
        nn.local_train(model, features, labels, 1, 64, 0.1, seeds, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = out.nbytes  # one (m, P) float64 buffer
    assert peak < limit, (peak, limit)
    # several steps allocate the gradient buffer and keep the reference's bits
    seeds = [(58, 1, c) for c in range(5)]
    assert_trains_like_the_reference(model, features, labels, 2, 16, seeds)


def test_local_train_refuses_an_out_that_overlaps_theta():
    model = nn.mlp_model(4, 5, 3, seed=59)
    rng = rng_stream(60)
    features = rng.normal(size=(2, 6, 4))
    labels = rng.integers(0, 3, size=(2, 6))
    seeds = [rng_stream(61, 0, c) for c in range(2)]
    with pytest.raises(ConfigError, match="shares memory"):
        nn.local_train(model, features[0], labels[0], 1, 4, 0.1, seeds[0], out=model.theta[None])
    # theta as one row of the stack it would train into
    rows = np.zeros((2, model.theta.size))
    held = nn.ModelParams(model.layers, rows[1])
    with pytest.raises(ConfigError, match="shares memory"):
        nn.local_train(held, features, labels, 1, 4, 0.1, seeds, out=rows)
    # a stacked call leaves theta's bytes as they were
    before = model.theta.tobytes()
    nn.local_train(model, features, labels, 2, 4, 0.1, seeds)
    assert model.theta.tobytes() == before


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
