import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleloc.featpyr import (
    _CHUNK_BYTES,
    ROI_SIZE,
    FeaturePyramid,
    FeatureShapeError,
    LayerSpec,
    PyramidConfig,
    build_pyramid,
    roi_pool,
    roi_pool_many,
    roi_pool_project,
)
from scaleloc.geometry import BBox, boxes_to_array


CFG = PyramidConfig()


def brute_force_block_mean(img, stride):
    """Independent block-mean oracle with clamped (edge-replicated) windows."""
    rows, cols = img.shape
    out_r = -(-rows // stride)
    out_c = -(-cols // stride)
    out = np.zeros((out_r, out_c))
    for i in range(out_r):
        for j in range(out_c):
            acc = 0.0
            for di in range(stride):
                for dj in range(stride):
                    r = min(i * stride + di, rows - 1)
                    c = min(j * stride + dj, cols - 1)
                    acc += img[r, c]
            out[i, j] = acc / (stride * stride)
    return out


def _oracle_block_reduce(img, stride, reducer):
    rows, cols = img.shape
    out_r = -(-rows // stride)
    out_c = -(-cols // stride)
    pad_r = out_r * stride - rows
    pad_c = out_c * stride - cols
    padded = np.pad(img, ((0, pad_r), (0, pad_c)), mode="edge")
    blocks = padded.reshape(out_r, stride, out_c, stride)
    return reducer(blocks, axis=(1, 3))


def oracle_build_pyramid(image, cfg):
    """The per-layer pyramid: all eight statistics, gradient included,
    recomputed for every layer. The one-pass build must equal it bit for bit."""
    image = np.asarray(image, dtype=np.float64)
    grids = {}
    for spec in cfg.layers:
        gy, gx = np.gradient(image)
        g45 = (gx + gy) / np.sqrt(2.0)
        g135 = (gx - gy) / np.sqrt(2.0)
        s = spec.stride
        base = [
            _oracle_block_reduce(image, s, np.mean),
            _oracle_block_reduce(np.abs(gx), s, np.mean),
            _oracle_block_reduce(np.abs(gy), s, np.mean),
            _oracle_block_reduce(np.abs(g45), s, np.mean),
            _oracle_block_reduce(np.abs(g135), s, np.mean),
            _oracle_block_reduce(image, s, np.std),
            _oracle_block_reduce(image, s, np.max) - _oracle_block_reduce(image, s, np.min),
            _oracle_block_reduce(np.hypot(gx, gy), s, np.mean),
        ]
        grids[spec.layer_id] = np.stack([base[c % 8] for c in range(spec.channels)], axis=0)
    return grids


def oracle_roi_pool_many(pyramid, layer_id, boxes):
    """Out-of-place bilinear pooling; the in-place blend must equal it bit for bit."""
    grid = pyramid.grids[layer_id]
    stride = pyramid.strides[layer_id]
    roi = ROI_SIZE
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)

    def sample_axis(lo, hi):
        narrow = hi - lo < roi
        center = (lo + hi) / 2.0
        lo = np.where(narrow, center - roi / 2.0, lo)
        hi = np.where(narrow, center + roi / 2.0, hi)
        offsets = (np.arange(roi) + 0.5) / roi
        return lo[:, None] + offsets[None, :] * (hi - lo)[:, None]

    def bilinear_axis(coords, size):
        u = np.clip(coords - 0.5, 0.0, size - 1.0)
        i0 = np.minimum(np.floor(u).astype(np.int64), size - 1)
        return i0, np.minimum(i0 + 1, size - 1), u - i0

    xs = sample_axis(boxes[:, 0] / stride, (boxes[:, 0] + boxes[:, 2]) / stride)
    ys = sample_axis(boxes[:, 1] / stride, (boxes[:, 1] + boxes[:, 3]) / stride)
    _, grid_h, grid_w = grid.shape
    x0, x1, fx = bilinear_axis(xs, grid_w)
    y0, y1, fy = bilinear_axis(ys, grid_h)
    y0b, y1b = y0[:, :, None], y1[:, :, None]
    x0b, x1b = x0[:, None, :], x1[:, None, :]
    fyb = fy[:, :, None, None]
    fxb = fx[:, None, :, None]
    g = np.moveaxis(grid, 0, -1)
    top = g[y0b, x0b] * (1 - fxb) + g[y0b, x1b] * fxb
    bot = g[y1b, x0b] * (1 - fxb) + g[y1b, x1b] * fxb
    return top * (1 - fyb) + bot * fyb


def random_boxes(rng, n, extent):
    """Boxes over and around an extent, a third of them narrower than a
    few cells so that the window expansion is exercised."""
    width, height = extent
    w = np.where(np.arange(n) % 3 == 0, rng.uniform(0.5, 12, n), rng.uniform(2, width, n))
    h = np.where(np.arange(n) % 3 == 0, rng.uniform(0.5, 12, n), rng.uniform(2, height, n))
    return np.stack(
        [rng.uniform(-20, width, n), rng.uniform(-20, height, n), w, h], axis=1
    )


CYCLING = PyramidConfig(layers=(LayerSpec(3, 8, 11), LayerSpec(4, 16, 17), LayerSpec(5, 32, 3)))


def single_layer_pyramid(grid, stride=8, extent=None):
    c, h, w = grid.shape
    extent = extent or (w * stride, h * stride)
    return FeaturePyramid(extent=extent, strides={3: stride}, grids={3: grid})


class TestBuildPyramid:
    def test_grid_shapes_use_ceiling(self):
        img = np.zeros((480, 640))
        pyr = build_pyramid(img, CFG)
        assert pyr.grids[3].shape == (8, 60, 80)
        assert pyr.grids[4].shape == (16, 30, 40)
        assert pyr.grids[5].shape == (32, 15, 20)

    def test_ceiling_on_ragged_extent(self):
        img = np.zeros((50, 70))
        pyr = build_pyramid(img, CFG)
        assert pyr.grids[3].shape[1:] == (7, 9)
        assert pyr.grids[5].shape[1:] == (2, 3)

    def test_constant_image_has_zero_gradient_channels(self):
        img = np.full((64, 64), 0.7)
        pyr = build_pyramid(img, CFG)
        for layer_id in (3, 4, 5):
            grid = pyr.grids[layer_id]
            np.testing.assert_allclose(grid[0], 0.7, atol=1e-12)  # block mean
            np.testing.assert_allclose(grid[1:5], 0.0, atol=1e-12)  # gradients

    def test_block_mean_matches_brute_force(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(52, 44))  # not divisible by 8 or 16
        pyr = build_pyramid(img, CFG)
        for layer_id, stride in ((3, 8), (4, 16)):
            expect = brute_force_block_mean(img, stride)
            assert np.abs(pyr.grids[layer_id][0] - expect).max() < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, size=(48, 64))
        a = build_pyramid(img, CFG)
        b = build_pyramid(img, CFG)
        for layer_id in CFG.layer_ids():
            assert np.array_equal(a.grids[layer_id], b.grids[layer_id])

    def test_channel_cycling_beyond_base_stats(self):
        cfg = PyramidConfig(layers=(LayerSpec(3, 8, 11),))
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, size=(32, 32))
        pyr = build_pyramid(img, cfg)
        np.testing.assert_array_equal(pyr.grids[3][8], pyr.grids[3][0])
        np.testing.assert_array_equal(pyr.grids[3][9], pyr.grids[3][1])


class TestOneShotPyramidAndInPlacePooling:
    @pytest.mark.parametrize("shape", [(64, 96), (50, 70), (33, 17), (97, 131)])
    @pytest.mark.parametrize("cfg", [CFG, CYCLING], ids=["desk", "cycling"])
    def test_build_pyramid_equals_per_layer_oracle(self, shape, cfg):
        img = np.random.default_rng(sum(shape)).uniform(0, 1, size=shape)
        pyr = build_pyramid(img, cfg)
        want = oracle_build_pyramid(img, cfg)
        for layer_id in cfg.layer_ids():
            assert np.array_equal(pyr.grids[layer_id], want[layer_id])

    def test_build_pyramid_equals_oracle_on_rendered_scene(self):
        from scaleloc.scenegen import GenConfig, rasterize, sample_dataset

        (scene,) = sample_dataset(GenConfig(scenes=1, extent=(200, 150)), seed=5)
        img = rasterize(scene)
        pyr = build_pyramid(img, CYCLING)
        want = oracle_build_pyramid(img, CYCLING)
        for layer_id in CYCLING.layer_ids():
            assert np.array_equal(pyr.grids[layer_id], want[layer_id])

    @pytest.mark.parametrize("shape", [(64, 96), (50, 70), (33, 17)])
    def test_roi_pool_many_equals_out_of_place_oracle(self, shape):
        rng = np.random.default_rng(shape[0])
        pyr = build_pyramid(rng.uniform(0, 1, size=shape), CYCLING)
        boxes = random_boxes(rng, 60, pyr.extent)
        for layer_id in CYCLING.layer_ids():
            got = roi_pool_many(pyr, layer_id, boxes)
            assert np.array_equal(got, oracle_roi_pool_many(pyr, layer_id, boxes))


def chunk_boxes(channels):
    """Boxes per pooling chunk at ``channels`` float64 channels."""
    return max(1, _CHUNK_BYTES // (ROI_SIZE * ROI_SIZE * channels * 8))


class TestChannelLastChunkedPooling:
    """Grids live channel-last in memory and ``roi_pool_many`` pools in
    chunks of boxes; neither may change a value."""

    @pytest.mark.parametrize("channels", [1, 3, 11, 300])
    @pytest.mark.parametrize("count", ["zero", "one", "below", "chunk", "above", "several"])
    def test_equals_oracle_on_random_grids_at_chunk_edges(self, channels, count):
        chunk = chunk_boxes(channels)
        n = {
            "zero": 0, "one": 1, "below": chunk - 1, "chunk": chunk,
            "above": chunk + 1, "several": 3 * chunk + 2,
        }[count]
        rng = np.random.default_rng(channels * 7 + n)
        grid = rng.uniform(-1, 1, size=(channels, 7, 9))  # C-contiguous
        pyr = single_layer_pyramid(grid, 8, (70, 50))
        assert np.array_equal(pyr.grids[3], grid)
        boxes = random_boxes(rng, n, pyr.extent)
        got = roi_pool_many(pyr, 3, boxes)
        assert got.shape == (n, ROI_SIZE, ROI_SIZE, channels)
        assert np.array_equal(got, oracle_roi_pool_many(pyr, 3, boxes))

    def test_build_pyramid_grids_are_channel_last(self):
        pyr = build_pyramid(np.random.default_rng(30).uniform(0, 1, size=(50, 70)), CYCLING)
        for grid in pyr.grids.values():
            assert np.moveaxis(grid, 0, -1).flags.c_contiguous

    def test_given_grids_are_stored_channel_last_and_copied_only_if_needed(self):
        rng = np.random.default_rng(31)
        grid = rng.uniform(-1, 1, size=(5, 7, 9))
        stored = single_layer_pyramid(grid, 8, (70, 50)).grids[3]
        assert np.moveaxis(stored, 0, -1).flags.c_contiguous
        assert np.array_equal(stored, grid) and not np.shares_memory(stored, grid)
        again = single_layer_pyramid(stored, 8, (70, 50)).grids[3]
        assert np.shares_memory(again, stored)

    def test_projection_reads_the_grid_without_a_copy(self):
        pyr = build_pyramid(np.random.default_rng(32).uniform(0, 1, size=(50, 70)), CYCLING)
        for grid in pyr.grids.values():
            assert np.shares_memory(grid.reshape(grid.shape[0], -1), grid)

    def test_peak_memory_is_the_output_plus_a_few_chunks(self):
        """The whole-array blend held three output-sized buffers at once."""
        rng = np.random.default_rng(33)
        pyr = single_layer_pyramid(rng.uniform(-1, 1, size=(64, 30, 40)))
        boxes = random_boxes(rng, 4000, pyr.extent)
        tracemalloc.start()
        try:
            out = roi_pool_many(pyr, 3, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = out.nbytes + 8 * _CHUNK_BYTES
        assert bound < 1.5 * out.nbytes
        assert peak <= bound, (peak - out.nbytes) / _CHUNK_BYTES


class TestRoiPoolProject:
    @staticmethod
    def check(pyr, layer_id, boxes, k, rng):
        pooled = roi_pool_many(pyr, layer_id, boxes).reshape(len(boxes), -1)
        weights = rng.normal(size=(k, pooled.shape[1]))
        got = roi_pool_project(pyr, layer_id, boxes, weights)
        assert got.shape == (len(boxes), k)
        np.testing.assert_allclose(got, pooled @ weights.T, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_pooling_on_cycled_channels(self, k):
        rng = np.random.default_rng(20 + k)
        pyr = build_pyramid(rng.uniform(0, 1, size=(50, 70)), CYCLING)
        boxes = random_boxes(rng, 80, pyr.extent)
        for layer_id in CYCLING.layer_ids():
            self.check(pyr, layer_id, boxes, k, rng)

    @pytest.mark.parametrize("grid_shape,stride,extent", [
        ((5, 7, 9), 8, (70, 50)),  # ragged: 70 and 50 are not multiples of 8
        ((3, 1, 4), 16, (49, 3)),  # a one-row grid
        ((6, 12, 12), 8, (96, 96)),
    ])
    def test_matches_pooling_on_random_grids(self, grid_shape, stride, extent):
        rng = np.random.default_rng(grid_shape[0])
        grid = rng.uniform(-1, 1, size=grid_shape)
        pyr = single_layer_pyramid(grid, stride, extent)
        self.check(pyr, 3, random_boxes(rng, 50, extent), 3, rng)

    def test_boxes_narrower_than_the_window(self):
        rng = np.random.default_rng(23)
        pyr = single_layer_pyramid(rng.uniform(-1, 1, size=(4, 10, 10)))
        boxes = np.array([[8, 8, 16, 16], [0, 0, 2, 2], [78, 78, 1, 1], [30, 5, 0.5, 60]])
        self.check(pyr, 3, boxes, 2, rng)

    def test_rejects_misshapen_weights_and_unknown_layers(self):
        pyr = single_layer_pyramid(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match="weights"):
            roi_pool_project(pyr, 3, np.array([[0, 0, 8, 8]]), np.zeros((1, 31)))
        with pytest.raises(KeyError):
            roi_pool_project(pyr, 9, np.array([[0, 0, 8, 8]]), np.zeros((1, 32)))

    @pytest.mark.parametrize(
        "shape", [(0, 32), (32,), (1, 32, 1), ()], ids=["no-rows", "1d", "3d", "0d"]
    )
    def test_weights_must_be_a_matrix_with_rows(self, shape):
        # Zero rows used to reach a ZeroDivisionError in the chunk size.
        pyr = single_layer_pyramid(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match=r"expected \(K, 32\) weights with K >= 1"):
            roi_pool_project(pyr, 3, np.array([[0, 0, 8, 8]]), np.zeros(shape))


class TestRoiPoolManyProperties:
    """Bilinear pooling is linear in the grid, which score maps
    (``roi_pool_project``) rely on, and never leaves a channel's range."""

    @given(
        channels=st.integers(1, 4),
        rows=st.integers(1, 9),
        cols=st.integers(1, 9),
        stride=st.sampled_from([1, 3, 8]),
        ragged=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # A subnormal scalar: its products round in absolute steps.
    @example(
        channels=1, rows=1, cols=2, stride=3, ragged=(0, 0), a=0.0, b=2.2250738585e-313, seed=0
    )
    def test_linear_in_the_grid_and_within_channel_bounds(
        self, channels, rows, cols, stride, ragged, a, b, seed
    ):
        rng = np.random.default_rng(seed)
        # A ragged extent still needs rows x cols cells at this stride.
        extent = (
            (cols - 1) * stride + 1 + ragged[0] % stride,
            (rows - 1) * stride + 1 + ragged[1] % stride,
        )
        g1 = rng.uniform(-1, 1, size=(channels, rows, cols))
        g2 = rng.normal(0, 3, size=(channels, rows, cols))
        # Boxes over and around the image, a third narrower than the
        # window, and three wholly off it.
        width, height = extent
        narrow = np.arange(21) % 3 == 0
        boxes = np.stack(
            [
                rng.uniform(-20, width + 20, 21),
                rng.uniform(-20, height + 20, 21),
                np.where(narrow, rng.uniform(0.25, 3, 21), rng.uniform(1, 2 * width + 2, 21)),
                np.where(narrow, rng.uniform(0.25, 3, 21), rng.uniform(1, 2 * height + 2, 21)),
            ],
            axis=1,
        )
        off = [[-60, -60, 10, 10], [width + 5, 2, 4, 30], [3, height + 40, 0.25, 0.5]]
        boxes = np.concatenate([boxes, off])

        def pool(grid):
            return roi_pool_many(single_layer_pyramid(grid, stride, extent), 3, boxes)

        p1, p2 = pool(g1), pool(g2)
        scale = abs(a) * np.abs(g1).max() + abs(b) * np.abs(g2).max()
        # Below the normal range IEEE arithmetic rounds in absolute steps of
        # the smallest subnormal, which no relative tolerance covers; the
        # dozen roundings on the two sides stay within 8 such steps.
        underflow = 8 * np.finfo(np.float64).smallest_subnormal
        np.testing.assert_allclose(
            pool(a * g1 + b * g2), a * p1 + b * p2, rtol=1e-12, atol=1e-12 * scale + underflow
        )

        for grid, pooled in ((g1, p1), (g2, p2)):
            lo = grid.min(axis=(1, 2)) - 1e-12 * np.abs(grid).max()
            hi = grid.max(axis=(1, 2)) + 1e-12 * np.abs(grid).max()
            assert np.all((pooled >= lo) & (pooled <= hi))


class TestConfigValidation:
    def test_strides_must_increase(self):
        with pytest.raises(ValueError):
            PyramidConfig(layers=(LayerSpec(3, 16, 4), LayerSpec(4, 8, 4)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            PyramidConfig(layers=(LayerSpec(3, 8, 4), LayerSpec(3, 16, 4)))

    @pytest.mark.parametrize(
        "spec", [LayerSpec(3, 8.5, 2), LayerSpec(3, 8, 2.0), LayerSpec(3, 0, 2), LayerSpec(3, 8, 0)]
    )
    def test_stride_and_channels_must_be_positive_integers(self, spec):
        # A fractional stride used to pass here and fail in build_pyramid.
        with pytest.raises(ValueError, match="layer 3: stride and channel count must be positive"):
            PyramidConfig(layers=(spec, LayerSpec(4, 16, 4)))

    def test_flat_dims(self):
        paper = PyramidConfig(
            layers=(LayerSpec(3, 8, 256), LayerSpec(4, 16, 512), LayerSpec(5, 32, 1024))
        )
        assert paper.flat_dims() == {3: 4096, 4: 8192, 5: 16384}


class TestRoiPool:
    def test_flat_length_paper_channels(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(-1, 1, size=(256, 16, 16))
        pyr = single_layer_pyramid(grid)
        block = roi_pool(pyr, 3, BBox(10, 10, 60, 60))
        assert block.shape == (4, 4, 256)
        assert block.reshape(-1).shape == (4096,)

    def test_constant_grid_gives_constant_block(self):
        pyr = single_layer_pyramid(np.full((6, 12, 12), 2.5))
        for box in (BBox(1, 1, 5, 5), BBox(0, 0, 90, 90), BBox(40, 40, 3, 3)):
            block = roi_pool(pyr, 3, box)
            np.testing.assert_allclose(block, 2.5, atol=1e-12)

    def test_small_region_expansion_matches_gather_oracle(self):
        # Box maps to cells [1, 3) x [1, 3): expanded window is [0, 4) whose
        # sample points land exactly on the centers of cells 0..3.
        rng = np.random.default_rng(6)
        grid = rng.uniform(-1, 1, size=(5, 10, 10))
        pyr = single_layer_pyramid(grid)
        block = roi_pool(pyr, 3, BBox(8, 8, 16, 16))
        expect = np.moveaxis(grid[:, 0:4, 0:4], 0, -1)
        np.testing.assert_allclose(block, expect, atol=1e-12)

    def test_exact_roi_sized_region_is_direct_gather(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(-1, 1, size=(3, 8, 8))
        pyr = single_layer_pyramid(grid)
        block = roi_pool(pyr, 3, BBox(16, 8, 32, 32))  # cells [2,6) x [1,5)
        expect = np.moveaxis(grid[:, 1:5, 2:6], 0, -1)
        np.testing.assert_allclose(block, expect, atol=1e-12)

    def test_output_shape_independent_of_box_size(self):
        rng = np.random.default_rng(8)
        grid = rng.uniform(-1, 1, size=(4, 12, 12))
        pyr = single_layer_pyramid(grid)
        for box in (BBox(0, 0, 2, 2), BBox(5, 5, 40, 80), BBox(60, 60, 30, 30)):
            assert roi_pool(pyr, 3, box).shape == (4, 4, 4)

    def test_linearity_in_feature_values(self):
        rng = np.random.default_rng(9)
        grid = rng.uniform(-1, 1, size=(4, 12, 12))
        box = BBox(3, 7, 37, 53)
        a = roi_pool(single_layer_pyramid(grid), 3, box)
        b = roi_pool(single_layer_pyramid(3.5 * grid), 3, box)
        np.testing.assert_allclose(b, 3.5 * a, atol=1e-12)

    def test_edge_replication_near_border(self):
        rng = np.random.default_rng(10)
        grid = rng.uniform(-1, 1, size=(2, 6, 6))
        pyr = single_layer_pyramid(grid)
        # Tiny box at the very corner: expanded window pokes outside the
        # grid and must clamp to the corner cell rather than wrap or fail.
        block = roi_pool(pyr, 3, BBox(0, 0, 2, 2))
        np.testing.assert_allclose(block[0, 0], grid[:, 0, 0], atol=1e-12)

    def test_many_matches_single(self):
        rng = np.random.default_rng(11)
        grid = rng.uniform(-1, 1, size=(4, 10, 14))
        pyr = single_layer_pyramid(grid)
        boxes = []
        for _ in range(20):
            boxes.append(BBox(rng.uniform(0, 80), rng.uniform(0, 60), rng.uniform(2, 40), rng.uniform(2, 40)))
        batch = roi_pool_many(pyr, 3, boxes_to_array(boxes))
        for i, b in enumerate(boxes):
            np.testing.assert_allclose(batch[i], roi_pool(pyr, 3, b), atol=1e-12)

    def test_unknown_layer(self):
        pyr = single_layer_pyramid(np.zeros((1, 4, 4)))
        with pytest.raises(KeyError):
            roi_pool(pyr, 9, BBox(0, 0, 4, 4))



class TestFeaturePyramidChecks:
    """A pyramid whose grids do not fit its extent and strides, or hold
    non-finite values, fails with ``FeatureShapeError``."""

    def test_accepts_the_grids_build_pyramid_makes(self):
        pyr = build_pyramid(np.zeros((50, 70)), CFG)
        again = FeaturePyramid(extent=pyr.extent, strides=pyr.strides, grids=pyr.grids)
        assert again.extent == (70, 50)
        assert issubclass(FeatureShapeError, ValueError)

    @pytest.mark.parametrize("shape", [(2, 7, 8), (2, 6, 9), (2, 8, 9), (2, 0, 9)])
    def test_wrong_spatial_shape_rejected(self, shape):
        # A 70x50 extent at stride 8 needs ceil(50/8) x ceil(70/8) = 7 x 9 cells.
        with pytest.raises(FeatureShapeError, match=r"expected spatial shape \(7, 9\)"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: np.zeros(shape)})

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(FeatureShapeError, match="layer 3"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: np.zeros((7, 9))})

    def test_grid_without_channels_rejected(self):
        # roi_pool_many on it used to fail with a ZeroDivisionError.
        with pytest.raises(FeatureShapeError, match="layer 3: grid has no channels"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: np.zeros((0, 7, 9))})

    def test_second_layer_checked_too(self):
        grids = {3: np.zeros((2, 7, 9)), 4: np.zeros((2, 4, 4))}
        with pytest.raises(FeatureShapeError, match="layer 4"):
            FeaturePyramid(extent=(70, 50), strides={3: 8, 4: 16}, grids=grids)

    @pytest.mark.parametrize(
        "strides, grid_shape",
        [({}, (2, 7, 9)), ({3: 0}, (2, 7, 9)), ({3: -8}, (2, 7, 9)), ({3: 8.5}, (2, 6, 9))],
        ids=["missing", "zero", "negative", "fractional"],
    )
    def test_stride_must_be_a_positive_integer(self, strides, grid_shape):
        # Stride 8.5 would otherwise pass: ceil(50/8.5) x ceil(70/8.5) = 6 x 9.
        with pytest.raises(FeatureShapeError, match="layer 3: stride must be a positive integer"):
            FeaturePyramid(extent=(70, 50), strides=strides, grids={3: np.zeros(grid_shape)})

    @pytest.mark.parametrize(
        "extent, grid_shape",
        [
            ((0, 0), (2, 0, 0)),
            ((70, 0), (2, 0, 9)),
            ((-70, 50), (2, 7, 9)),
            ((10.5, 8), (2, 1, 2)),
            ((70.0, 50.0), (2, 7, 9)),
            ((70,), (2, 7, 9)),
            ((70, 50, 1), (2, 7, 9)),
            (70, (2, 7, 9)),
        ],
        ids=["zero", "zero-height", "negative", "fractional", "floats", "one", "three", "scalar"],
    )
    def test_extent_must_be_a_pair_of_positive_integers(self, extent, grid_shape):
        # Extent (0, 0) with an empty grid would otherwise pass, and pooling
        # on it fail with an IndexError.
        with pytest.raises(FeatureShapeError, match=r"extent must be a \(width, height\) pair"):
            FeaturePyramid(extent=extent, strides={3: 8}, grids={3: np.zeros(grid_shape)})

    def test_extent_of_numpy_integers_accepted(self):
        pyr = FeaturePyramid(
            extent=(np.int64(70), np.int64(50)), strides={3: 8}, grids={3: np.zeros((2, 7, 9))}
        )
        assert pyr.extent == (70, 50)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, bad):
        grid = np.zeros((2, 7, 9))
        grid[1, 6, 8] = bad
        with pytest.raises(FeatureShapeError, match="non-finite"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: grid})
