"""Amplifier checks: frozen max-filter fixtures, a brute-force per-patch
oracle, restoration placement, and the activation-guided filter route."""

import math
import sys
import time

import numpy as np
import pytest

from gradamp import nn
from gradamp.amplify import (
    AmplifierConfig,
    amplify,
    amplify_mp,
    amplify_xai,
    select_top,
    xai_selection,
)
from gradamp.data import Dataset
from gradamp.errors import ConfigError
from gradamp.seeding import rng_stream
from test_nn import naive_pool


def brute_force_max(mat, kernel):
    """Independent per-patch maximum: explicit loops, no padding tricks."""
    h, w = mat.shape
    ho, wo = math.ceil(h / kernel), math.ceil(w / kernel)
    out = np.zeros((ho, wo))
    for i in range(ho):
        for j in range(wo):
            patch = mat[i * kernel : (i + 1) * kernel, j * kernel : (j + 1) * kernel]
            out[i, j] = patch.max()
    return out


def test_max_filter_frozen_fixtures():
    assert np.array_equal(nn.block_max(np.array([[1.0, 2.0], [3.0, 4.0]]), 2), [[4.0]])
    mat = np.arange(1.0, 17.0).reshape(4, 4)
    assert np.array_equal(nn.block_max(mat, 2), [[6.0, 8.0], [14.0, 16.0]])
    # Signed: all-negative patches keep their (negative) maximum.
    assert np.array_equal(nn.block_max(np.array([[-5.0, -1.0], [-3.0, -2.0]]), 2), [[-1.0]])


def test_max_filter_kernel_one_is_identity():
    mat = rng_stream(30).normal(size=(5, 7))
    assert np.array_equal(nn.block_max(mat, 1), mat)


def test_max_filter_ragged_edges():
    # 3x5 with kernel 2: output 2x3, edge patches reduced as-is.
    mat = np.arange(15.0).reshape(3, 5)
    got = nn.block_max(mat, 2)
    assert got.shape == (2, 3)
    assert np.array_equal(got, brute_force_max(mat, 2))
    # Bottom-right corner patch is the lone cell 14.
    assert got[1, 2] == 14.0


def test_max_filter_matches_brute_force():
    rng = rng_stream(31)
    for _ in range(60):
        h = int(rng.integers(1, 13))
        w = int(rng.integers(1, 13))
        k = int(rng.integers(1, 6))
        mat = rng.normal(size=(h, w))
        assert np.array_equal(nn.block_max(mat, k), brute_force_max(mat, k))


def test_max_filter_positive_scale_equivariance():
    rng = rng_stream(32)
    mat = rng.normal(size=(6, 9))
    assert np.array_equal(nn.block_max(3.0 * mat, 2), 3.0 * nn.block_max(mat, 2))


def grads_of(matrix, bias=None):
    """A one-dense-layer model holding ``matrix`` (and ``bias``) as its
    panel layout, and one client's (1, P) update matrix of those values."""
    matrix = np.asarray(matrix, dtype=float)
    b = None if bias is None else np.asarray(bias, dtype=float)
    layer = nn.Layer("dense", np.zeros(matrix.shape), None if b is None else np.zeros(b.size))
    model = nn.ModelParams([layer, nn.Layer("softmax")])
    row = matrix.ravel() if b is None else np.concatenate([matrix.ravel(), b])
    return model, row[None]


def test_restore_keeps_max_at_original_position():
    model, g = grads_of(
        [[1.0, 2.0, 0, 0], [3.0, 4.0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], np.zeros(4)
    )
    cfg = AmplifierConfig(kind="mp", kernel=2, restore_size=True)
    out = amplify_mp(g, model, cfg)[0]
    panel = out[:16].reshape(4, 4)
    expect = np.zeros((4, 4))
    expect[1, 1] = 4.0  # the 2x2 corner [[1,2],[3,4]] restores to [[0,0],[0,4]]
    assert np.array_equal(panel, expect)
    assert out.size == 20  # full parameter count of the 4x4+4 model


def test_restore_all_equal_patch_takes_first_row_major():
    model, g = grads_of(np.full((2, 2), 5.0))
    cfg = AmplifierConfig(kind="mp", kernel=2, restore_size=True)
    out = amplify_mp(g, model, cfg)[0]
    assert np.array_equal(out.reshape(2, 2), [[5.0, 0.0], [0.0, 0.0]])


def test_restore_matches_filter_values():
    # Restored nonzeros are exactly the filtered maxima, one per patch.
    rng = rng_stream(33)
    mat = rng.normal(size=(7, 5))
    model, g = grads_of(mat)
    plain = amplify_mp(g, model, AmplifierConfig(kind="mp", kernel=3))[0]
    restored = amplify_mp(g, model, AmplifierConfig(kind="mp", kernel=3, restore_size=True))[0]
    assert restored.size == mat.size
    nonzero = restored[restored != 0.0]
    assert np.array_equal(np.sort(nonzero), np.sort(plain))
    assert plain.size == math.ceil(7 / 3) * math.ceil(5 / 3)


def test_amplified_length_sums_panel_grids():
    model = nn.conv_model((1, 6, 6), 3, seed=34, filters=4, kernel=3, pool=2)
    vec = rng_stream(35).normal(size=model.theta.size)
    cfg = AmplifierConfig(kind="mp", kernel=3)
    out = amplify_mp(vec[None], model, cfg)[0]
    grids = []  # patch grid per 2-D panel, in vector order
    for dw, db in ((layer.weight, layer.bias) for layer in model.layers):
        if dw is not None:
            panel = dw.reshape(dw.shape[0], -1)
            grids.append((math.ceil(panel.shape[0] / 3), math.ceil(panel.shape[1] / 3)))
        if db is not None:
            grids.append((1, math.ceil(db.size / 3)))
    assert out.size == sum(h * w for h, w in grids)
    assert amplify(vec[None], cfg, model)[0].original_size == model.theta.size


def test_exclude_bias_drops_bias_panels():
    model, g = grads_of(np.ones((4, 4)), np.ones(4))
    with_bias = amplify_mp(g, model, AmplifierConfig(kind="mp", kernel=2))[0]
    without = amplify_mp(g, model, AmplifierConfig(kind="mp", kernel=2, include_bias=False))[0]
    assert with_bias.size == 4 + 2  # 2x2 weight grid + ceil(4/2) bias cells
    assert without.size == 4
    # Restored output keeps full length either way; excluded biases are zero.
    restored = amplify_mp(
        g, model, AmplifierConfig(kind="mp", kernel=2, restore_size=True, include_bias=False)
    )[0]
    assert restored.size == 20
    assert np.array_equal(restored[16:], np.zeros(4))


def test_amplify_mp_deterministic():
    rng = rng_stream(36)
    model, g = grads_of(rng.normal(size=(5, 5)), rng.normal(size=5))
    cfg = AmplifierConfig(kind="mp", kernel=2)
    a = amplify_mp(g, model, cfg)[0]
    b = amplify_mp(g.copy(), model, cfg)[0]
    assert np.array_equal(a, b)


def naive_patch_max(mat, k, restore):
    """Per-block loops: the block maximum (NaN if the block holds one), and
    for ``restore`` a zero panel holding, per block, the first cell in
    row-major order that is NaN or else equals the maximum."""
    h, w = mat.shape
    compact = np.zeros((math.ceil(h / k), math.ceil(w / k)))
    restored = np.zeros((h, w))
    for bi in range(compact.shape[0]):
        for bj in range(compact.shape[1]):
            cells = [
                (r, c)
                for r in range(bi * k, min((bi + 1) * k, h))
                for c in range(bj * k, min((bj + 1) * k, w))
            ]
            vals = [float(mat[r, c]) for r, c in cells]
            nans = [rc for rc, v in zip(cells, vals) if math.isnan(v)]
            top = math.nan if nans else max(vals)
            compact[bi, bj] = top
            r, c = nans[0] if nans else cells[vals.index(top)]
            restored[r, c] = mat[r, c]
    return restored if restore else compact


def edge_case_stack(rng, n, h, w, k):
    """(n, h, w) normals with tied, all-zero (mixed-sign), -inf and NaN
    blocks planted at different block positions per client."""
    x = rng.normal(size=(n, h, w))
    blocks = [(bi, bj) for bi in range(math.ceil(h / k)) for bj in range(math.ceil(w / k))]
    for c in range(n):
        picks = rng.permutation(len(blocks))
        for kind, pick in zip(("tie", "zero", "ninf", "nan"), picks):
            bi, bj = blocks[pick]
            block = x[c, bi * k : (bi + 1) * k, bj * k : (bj + 1) * k]
            if kind == "tie":
                block[...] = 0.5
                block.flat[-1] = -1.0
            elif kind == "zero":
                block[...] = 0.0
                block.flat[::2] = -0.0
            elif kind == "ninf":
                block[...] = -np.inf
            elif c == n - 1:
                block.flat[block.size // 2] = np.nan  # one NaN block in the stack
    return x


def test_patch_max_kernel_matches_naive_loops():
    # Stacks of one and three clients, kernels 1-4, ragged and exact edges.
    rng = rng_stream(37)
    for n in (1, 3):
        for k in (1, 2, 3, 4):
            for h, w in ((7, 9), (8, 8), (5, 3), (1, 10)):
                x = edge_case_stack(rng, n, h, w, k)
                model, _ = grads_of(x[0])
                grads = x.reshape(n, -1)
                compact = amplify_mp(grads, model, AmplifierConfig(kind="mp", kernel=k))
                restored = amplify_mp(
                    grads, model, AmplifierConfig(kind="mp", kernel=k, restore_size=True)
                )
                for c in range(n):
                    expect = naive_patch_max(x[c], k, restore=False)
                    got = compact[c].reshape(expect.shape)
                    # np.maximum may pick either sign of a tied zero.
                    assert np.array_equal(got, expect, equal_nan=True), (n, k, h, w, c)
                    expect = naive_patch_max(x[c], k, restore=True)
                    assert restored[c].tobytes() == expect.tobytes(), (n, k, h, w, c)
                    single = nn.block_max(x[c], k).ravel()
                    assert np.array_equal(single, compact[c], equal_nan=True)
    # The same kernel on a ragged (B, C, h, w) stack, the maxpool layout:
    # ties, an all-zero block and one NaN block (in the last map).
    x = edge_case_stack(rng, 6, 7, 5, 3).reshape(2, 3, 7, 5)
    best = nn.block_max(x, 3)
    kept = np.empty_like(x)
    np.multiply(x.view(np.int64), nn.block_keep(x, best, 3), out=kept.view(np.int64))
    assert np.isnan(best).sum() == 1
    for b, c in np.ndindex(2, 3):
        expect = naive_patch_max(x[b, c], 3, restore=False)
        assert np.array_equal(best[b, c], expect, equal_nan=True), (b, c)
        expect = naive_patch_max(x[b, c], 3, restore=True)
        assert kept[b, c].tobytes() == expect.tobytes(), (b, c)


def first_max_mask(x, k, ceil=True):
    """True at ``naive_pool``'s position of each block, False elsewhere."""
    _, first = naive_pool(x, k, ceil)
    mask = np.zeros(x.shape, dtype=bool)
    for idx in np.ndindex(first.shape[:-1]):
        mask[(*idx[:-2], *first[idx])] = True
    return mask, first[..., 0].size


def test_block_keep_marks_the_first_max_or_nan_of_each_block():
    # Stacks of one and three clients, kernels 1-4, ragged and exact edges;
    # the planted blocks (ties, all-zero of both signs, -inf, NaN) plus a
    # +inf tie and a lone +inf in every stack.
    rng = rng_stream(48)
    for n in (1, 3):
        for k in (1, 2, 3, 4):
            for h, w in ((7, 9), (8, 8), (5, 3), (1, 10)):
                x = edge_case_stack(rng, n, h, w, k)
                x[0, -1, :2] = np.inf
                x[-1, 0, -1] = np.inf
                keep = nn.block_keep(x, nn.block_max(x, k), k)
                expect, blocks = first_max_mask(x, k)
                assert keep.dtype == bool and keep.shape == x.shape
                assert keep.sum() == blocks, (n, k, h, w)
                assert np.array_equal(keep, expect), (n, k, h, w)
    # The maxpool layout: a ragged (B, C, h, w) stack on the ceil grid, and
    # cropped to whole blocks as the maxpool backward routes it.
    x = edge_case_stack(rng, 6, 7, 5, 3).reshape(2, 3, 7, 5)
    assert np.isnan(x).sum() == 1
    keep = nn.block_keep(x, nn.block_max(x, 3), 3)
    assert np.array_equal(keep, first_max_mask(x, 3)[0])
    crop = x[..., :6, :3]
    keep = nn.block_keep(crop, nn.block_max(crop, 3), 3)
    expect, blocks = first_max_mask(x, 3, ceil=False)
    assert keep.sum() == blocks and np.array_equal(keep, expect[..., :6, :3])


def test_both_mask_selects_keep_the_kept_bits_and_write_positive_zero():
    # One 2x2 block per bit pattern, its kept cell planted at a different
    # position: a signalling and a quiet NaN with payloads, -0.0 over
    # negatives, +inf, and an all -inf block, whose first cell is kept.
    # The restored patch max selects the values themselves; the maxpool
    # backward selects each block's pooled gradient by the input's mask.
    patterns = np.array(
        [0x7FF0_0000_0000_0001, 0x7FF8_0000_0000_0ABC, -(1 << 63), 0x7FF0 << 48, -(0x10 << 48)]
    ).view(np.float64)
    assert np.isnan(patterns[:2]).all() and list(patterns[2:]) == [0.0, np.inf, -np.inf]
    cells = [3, 1, 2, 1, 0]  # the kept cell of each block, row-major
    x = np.full((2, 2 * len(patterns)), -1.0)
    kept = np.zeros(x.shape, dtype=bool)
    for b, (value, cell) in enumerate(zip(patterns, cells)):
        block = x[:, 2 * b : 2 * b + 2]
        block[...] = -np.inf if cell == 0 else [[-1.0, -2.0], [-3.0, -4.0]]
        block.flat[cell] = value
        kept[:, 2 * b : 2 * b + 2].flat[cell] = True
    expect = np.where(kept, x, 0.0)
    assert np.signbit(expect).sum() == 2  # -0.0 and -inf, not a zeroed cell

    model, g = grads_of(x)
    restored = amplify_mp(g, model, AmplifierConfig(kind="mp", kernel=2, restore_size=True))
    assert restored.view(np.int64).tolist() == expect.reshape(1, -1).view(np.int64).tolist()

    # Maxpool: a finite conv output with the same kept cells, as the conv
    # writes it, one (f, n, hp, wp) slab per cell of the 2x2 blocks, and
    # the patterns as the pooled gradient.  The maxpool backward routes
    # each cell's blocks straight into its strided slice of the zeroed
    # maps, which keep a trailing row and column the pool cropped.
    signs = np.where(kept, 1.0, -1.0)
    x_pool = np.stack([signs[a::2, b::2] for a in range(2) for b in range(2)]).reshape(1, 4, 1, 1, -1)
    maps = np.zeros((1, 1, 3, 2 * len(patterns) + 1))
    hp, wp = x_pool.shape[-2:]
    dests = [maps[..., a : hp * 2 : 2, b : wp * 2 : 2] for a in range(2) for b in range(2)]
    best = nn._fold_max(nn._slabs(x_pool))
    nn._route(patterns.reshape(1, 1, 1, -1), nn._slabs(x_pool), dests, best)
    expect_pool = np.zeros((1, 1, 3, 2 * len(patterns) + 1))
    expect_pool[0, 0, :2, :-1] = expect
    assert maps.view(np.int64).tolist() == expect_pool.view(np.int64).tolist()


def test_stacked_amplify_mp_equals_per_client():
    # The 120x150 dense panel (18,000 floats) is stacked three clients at a
    # time, so four clients also cover a ragged last stack.
    for model in (
        nn.conv_model((2, 7, 7), 3, seed=38, filters=5, kernel=3, pool=2),
        nn.mlp_model(150, 120, 3, seed=38),
    ):
        rng = rng_stream(39)
        size = model.theta.size
        grads = np.stack([rng.normal(size=size) for _ in range(4)])
        for restore in (False, True):
            for bias in (True, False):
                for k in (2, 3):
                    cfg = AmplifierConfig(
                        kind="mp", kernel=k, restore_size=restore, include_bias=bias
                    )
                    stacked = amplify_mp(grads, model, cfg)
                    assert stacked.shape[0] == len(grads)
                    for g, row in zip(grads, stacked):
                        alone = amplify_mp(g[None], model, cfg)[0]
                        assert row.tobytes() == alone.tobytes()
                    wrapped = amplify(grads, cfg, model)
                    assert [a.original_size for a in wrapped] == [size] * len(grads)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_a_split_restore_writes_the_bits_of_a_serial_one(monkeypatch, fold_worker, n, k):
    # A 509 -> 130 -> 3 MLP: 66,693-float rows reach SPLIT_FLOATS, so two
    # or more clients split their stacks across the worker, which runs
    # nn's private kernels.  Both weight panels have ragged edges, the
    # kernel is taller than the one-row bias panels (k = 4 also wider than
    # the 3-float one), and each client's first panel holds planted ties,
    # +-0 blocks, an all -inf block and a block whose first NaN is
    # signalling, before a quiet one.
    model = nn.mlp_model(509, 130, 3, seed=54)
    assert model.theta.size >= nn.runtime.SPLIT_FLOATS
    rng = rng_stream(55)
    rows = rng.normal(size=(n, model.theta.size))
    first = nn.ModelParams(model.layers, rows).layers[0].weight  # (n, 130, 509) views
    first[...] = edge_case_stack(rng, n, 130, 509, k)
    signalling, quiet = 0x7FF0_0000_0000_0001, 0x7FF8_0000_0000_0ABC
    for c in range(n):
        block = first[c, k : 2 * k, k * (c + 3) : k * (c + 4)].view(np.uint64)
        block.flat[1], block.flat[-1] = signalling, quiet
        # the last bias panel, one block: +0.0 and -0.0 tie, in either order
        rows[c, -3:] = [-1.0, 0.0, 0.0]
        rows[c, -3:].view(np.uint64)[1 + c % 2] = 1 << 63
    rows[-1, -3:].view(np.uint64)[0] = 0xFFF8_0000_0000_0001  # a negative quiet NaN leads
    cfg = AmplifierConfig(kind="mp", kernel=k, restore_size=True)
    with monkeypatch.context() as m:
        m.setattr(nn.runtime, "worker", lambda: None)
        serial = amplify_mp(rows, model, cfg)
    assert fold_worker == []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        split = amplify_mp(rows, model, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(fold_worker) == (n >= 2)
    assert split.tobytes() == serial.tobytes()
    kept = nn.ModelParams(model.layers, split).layers[0].weight
    for c in range(n):
        assert kept[c, k : 2 * k, k * (c + 3) : k * (c + 4)].view(np.uint64).flat[1] == signalling
        assert split[c].tobytes() == amplify_mp(rows[c : c + 1], model, cfg)[0].tobytes()
    # the bias block keeps its first maximum, the first zero of either sign,
    # or its NaN
    for c in range(n - 1):
        assert list(split[c, -3:].view(np.uint64)) == [0, (1 << 63) * (c % 2 == 0), 0]
    assert list(split[-1, -3:].view(np.uint64)) == [0xFFF8_0000_0000_0001, 0, 0]


def test_a_kernel_past_every_panel_keeps_the_bits_of_the_widest_panel():
    # Past a panel's height and width every cell view is empty, so the
    # block kernels visit only the cells inside the panel: a kernel of
    # 10**6 gives the bits of one as wide as the widest panel, at once.
    for model in (
        nn.conv_model((2, 7, 7), 3, seed=40, filters=5, kernel=3, pool=2),
        nn.mlp_model(7, 5, 3, seed=40),
    ):
        widest = max(
            max(a.shape[0], a.size // a.shape[0])
            for layer in model.layers
            for a in (layer.weight, layer.bias)
            if a is not None
        )
        rng = rng_stream(41)
        grads = rng.normal(size=(3, model.theta.size))
        grads[1, 4] = np.nan
        grads[2] = 0.0  # every block a tie
        for restore in (False, True):
            cfg = AmplifierConfig(kind="mp", kernel=widest, restore_size=restore)
            want = amplify_mp(grads, model, cfg)
            start = time.perf_counter()
            got = amplify_mp(grads, model, AmplifierConfig("mp", 10**6, restore_size=restore))
            assert time.perf_counter() - start < 0.5
            assert got.tobytes() == want.tobytes()


def test_select_top_frozen_fixture():
    # 4 filters weighted [0.1, 0.9, 0.5, 0.3], top half: filters 1 then 2.
    sel = select_top(np.array([0.1, 0.9, 0.5, 0.3]), 0.5)
    assert np.array_equal(sel, [1, 2])


def test_select_top_counts_and_ties():
    assert select_top(np.array([1.0, 2.0, 3.0]), 1.0).size == 3
    assert np.array_equal(select_top(np.array([1.0, 2.0, 3.0]), 0.34), [2, 1])  # ceil
    # Equal weights: stable sort keeps lower filter indices first.
    assert np.array_equal(select_top(np.array([7.0, 7.0, 7.0, 7.0]), 0.5), [0, 1])
    with pytest.raises(ConfigError):
        select_top(np.array([1.0]), 0.0)


def xai_setup(seed, filters=4):
    model = nn.conv_model((1, 6, 6), 3, seed=seed, filters=filters, kernel=3, pool=2)
    rng = rng_stream(seed, 1)
    val = Dataset(rng.normal(size=(12, 1, 6, 6)), rng.integers(0, 3, size=12), 3)
    updates = np.stack([0.01 * rng.normal(size=model.theta.size) for _ in range(3)])
    return model, val, updates


def conv_weight(model, row):
    """The conv weight gradient of a flat update row, as a view."""
    return nn.ModelParams(model.layers, row).layers[model.conv_index()].weight


def test_xai_selection_size_and_range():
    model, val, updates = xai_setup(40)
    sel = xai_selection(model, updates[0], val, 0.5)
    assert sel.size == 2
    assert set(sel.tolist()) <= {0, 1, 2, 3}
    assert sel.size == len(set(sel.tolist()))


def test_xai_selection_matches_weight_ranking():
    # The selection must pick the top activation weights of the updated
    # model's feature-map gradients on the validation batch.
    for seed in (41, 44, 45, 46):
        model, val, updates = xai_setup(seed, filters=6)
        for update in updates:
            updated = nn.apply_update(model, update)
            alpha = nn.activation_weights(updated, val.features, val.labels)
            for top_p in (0.2, 0.5, 0.75, 1.0):
                assert np.array_equal(
                    xai_selection(model, update, val, top_p), select_top(alpha, top_p)
                )


def test_xai_selection_routes_no_maxpool_backward(monkeypatch):
    # The weights are read off the pooled-output gradient; a walk down to
    # the conv output would route every pooled cell through block_keep.
    def refuse(*args, **kwargs):
        raise AssertionError("xai selection walked the maxpool backward")

    monkeypatch.setattr(nn, "block_keep", refuse)
    model, val, updates = xai_setup(47, filters=6)
    assert xai_selection(model, updates[0], val, 0.5).size == 3
    out = amplify_xai(updates, model, val, AmplifierConfig(kind="xai", top_p=0.5))
    assert len(out) == len(updates)


def test_amplify_xai_emits_original_conv_gradients():
    model, val, updates = xai_setup(42)
    cfg = AmplifierConfig(kind="xai", top_p=0.5)
    out = amplify_xai(updates, model, val, cfg)
    ci = model.conv_index()
    per_filter = model.layers[ci].weight[0].size
    for g, values in zip(updates, out):
        assert values.size == 2 * per_filter
        for rank, f in enumerate(xai_selection(model, g, val, cfg.top_p)):
            chunk = values[rank * per_filter : (rank + 1) * per_filter]
            assert np.array_equal(chunk, conv_weight(model, g)[f].ravel())


def test_amplify_xai_top_p_one_keeps_every_filter():
    model, val, updates = xai_setup(43)
    cfg = AmplifierConfig(kind="xai", top_p=1.0)
    values = amplify_xai(updates[:1], model, val, cfg)[0]
    gw = conv_weight(model, updates[0])
    assert sorted(xai_selection(model, updates[0], val, cfg.top_p).tolist()) == [0, 1, 2, 3]
    assert np.array_equal(np.sort(values), np.sort(gw.ravel()))


def test_amplify_xai_restored_layout():
    model, val, updates = xai_setup(44)
    cfg = AmplifierConfig(kind="xai", top_p=0.5, restore_size=True)
    values = amplify_xai(updates[:1], model, val, cfg)[0]
    assert values.size == model.theta.size
    gw = conv_weight(model, updates[0])
    per_filter = gw[0].size
    expect = np.zeros(model.theta.size)
    for f in xai_selection(model, updates[0], val, cfg.top_p):
        expect[f * per_filter : (f + 1) * per_filter] = gw[f].ravel()
    assert np.array_equal(values, expect)


def test_amplify_xai_fixed_selection_reused():
    model, val, updates = xai_setup(45)
    cfg = AmplifierConfig(kind="xai", top_p=0.5)
    fixed = np.array([3, 0])
    out = amplify_xai(updates, model, val, cfg, fixed_selection=fixed)
    ci = model.conv_index()
    per_filter = model.layers[ci].weight[0].size
    for g, values in zip(updates, out):
        chunks = values.reshape(len(fixed), per_filter)
        assert np.array_equal(chunks, conv_weight(model, g)[fixed].reshape(len(fixed), -1))
        assert np.array_equal(values[:per_filter], conv_weight(model, g)[3].ravel())


def test_amplify_xai_without_conv_raises():
    model = nn.mlp_model(6, 4, 3, seed=46)
    vec = rng_stream(47).normal(size=model.theta.size)
    val = Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 3)
    with pytest.raises(ConfigError):
        amplify_xai(vec[None], model, val, AmplifierConfig(kind="xai"))
    with pytest.raises(ConfigError):
        xai_selection(model, vec, val, 0.5)


def test_amplify_dispatcher_none_returns_full_vector():
    model = nn.mlp_model(4, 3, 2, seed=48)
    vec = rng_stream(49).normal(size=model.theta.size)
    out = amplify(vec[None], AmplifierConfig(kind="none"), model=None, validation=None)
    assert np.array_equal(out[0].values, vec)
    assert out[0].original_size == vec.size


def test_amplifier_config_validation():
    with pytest.raises(ConfigError):
        AmplifierConfig(kind="blur").validate()
    with pytest.raises(ConfigError):
        AmplifierConfig(kind="mp", kernel=0).validate()
    with pytest.raises(ConfigError):
        AmplifierConfig(kind="xai", top_p=1.5).validate()
