import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scaleloc import featpyr
from scaleloc.anchors import generate_anchors
from scaleloc.featpyr import (
    _CHUNK_BYTES,
    ROI_SIZE,
    FeaturePyramid,
    LayerSpec,
    PyramidConfig,
    build_pyramid,
    roi_pool,
    roi_pool_many,
    roi_pool_project,
    sample_plan,
)
from scaleloc.geometry import BBox, boxes_to_array
from scaleloc.proposal import LayerWeightConfig


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
        grids[spec.layer_id] = np.stack([base[c % 8] for c in range(spec.channels)], axis=-1)
    return grids


def oracle_gather_pool(pyramid, layer_id, boxes, values, window=()):
    """Out-of-place bilinear pooling of ``values``, an (..., H, W, D) array
    over the layer's cells, gathered with one index array per axis:
    ``values[(*window, rows, cols)]``. The in-place blend of flat gathers
    must equal it bit for bit."""
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
    grid_h, grid_w = values.shape[-3:-1]
    x0, x1, fx = bilinear_axis(xs, grid_w)
    y0, y1, fy = bilinear_axis(ys, grid_h)
    y0b, y1b = y0[:, :, None], y1[:, :, None]
    x0b, x1b = x0[:, None, :], x1[:, None, :]
    fyb = fy[:, :, None, None]
    fxb = fx[:, None, :, None]
    v, w = values, window
    top = v[(*w, y0b, x0b)] * (1 - fxb) + v[(*w, y0b, x1b)] * fxb
    bot = v[(*w, y1b, x0b)] * (1 - fxb) + v[(*w, y1b, x1b)] * fxb
    return top * (1 - fyb) + bot * fyb


def oracle_roi_pool_many(pyramid, layer_id, boxes):
    """Out-of-place pooling of the grid; the in-place blend must equal it bit for bit."""
    return oracle_gather_pool(pyramid, layer_id, boxes, pyramid.grids[layer_id])


def oracle_roi_pool_project(pyramid, layer_id, boxes, weights):
    """The projection with each window cell's map gathered by advanced
    indexing over (window row, window column, row, column)."""
    grid = pyramid.grids[layer_id]
    grid_h, grid_w, c = grid.shape
    roi = ROI_SIZE
    maps = weights.reshape(roi * roi, c) @ grid.reshape(-1, c).T
    maps = maps.reshape(roi, roi, grid_h, grid_w, 1)  # one value per cell
    window = (np.arange(roi)[:, None], np.arange(roi)[None, :])
    return oracle_gather_pool(pyramid, layer_id, boxes, maps, window).sum(axis=(1, 2))[:, 0]


def pyramid_config(pyr):
    """The config of a pyramid's layers, with their strides and channels."""
    layers = sorted((stride, layer_id) for layer_id, stride in pyr.strides.items())
    return PyramidConfig(
        layers=tuple(LayerSpec(l, stride, pyr.grids[l].shape[2]) for stride, l in layers)
    )


def project(pyr, layer_id, boxes, weights):
    """``roi_pool_project`` of boxes that all sample one layer, through
    their sample plan."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    plan = sample_plan(boxes, np.full(len(boxes), layer_id), pyramid_config(pyr), pyr.extent)
    return roi_pool_project(pyr, plan, np.arange(len(boxes)), {layer_id: weights})


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


def finite_coordinates():
    """Grid coordinates whose pairwise sums stay finite: 0, or a magnitude
    from 2**-1021 to half the largest float."""
    top = np.finfo(np.float64).max / 2
    magnitudes = st.one_of(st.just(0.0), st.floats(2.0**-1021, top))
    return st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


def sum_center_sample_axis(lo, hi):
    """``featpyr._sample_axis`` with the row center as ``(lo + hi) / 2``."""
    narrow = hi - lo < ROI_SIZE
    center = (lo + hi) / 2.0
    lo = np.where(narrow, center - ROI_SIZE / 2.0, lo)
    hi = np.where(narrow, center + ROI_SIZE / 2.0, hi)
    offsets = (np.arange(ROI_SIZE) + 0.5) / ROI_SIZE
    return lo[:, None] + offsets[None, :] * (hi - lo)[:, None]


def single_layer_pyramid(grid, stride=8, extent=None):
    h, w, c = grid.shape
    extent = extent or (w * stride, h * stride)
    return FeaturePyramid(extent=extent, strides={3: stride}, grids={3: grid})


class TestBuildPyramid:
    def test_grid_shapes_use_ceiling(self):
        img = np.zeros((480, 640))
        pyr = build_pyramid(img, CFG)
        assert pyr.grids[3].shape == (60, 80, 8)
        assert pyr.grids[4].shape == (30, 40, 16)
        assert pyr.grids[5].shape == (15, 20, 32)

    def test_ceiling_on_ragged_extent(self):
        img = np.zeros((50, 70))
        pyr = build_pyramid(img, CFG)
        assert pyr.grids[3].shape[:2] == (7, 9)
        assert pyr.grids[5].shape[:2] == (2, 3)

    def test_constant_image_has_zero_gradient_channels(self):
        img = np.full((64, 64), 0.7)
        pyr = build_pyramid(img, CFG)
        for layer_id in (3, 4, 5):
            grid = pyr.grids[layer_id]
            np.testing.assert_allclose(grid[..., 0], 0.7, atol=1e-12)  # block mean
            np.testing.assert_allclose(grid[..., 1:5], 0.0, atol=1e-12)  # gradients

    def test_block_mean_matches_brute_force(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(52, 44))  # not divisible by 8 or 16
        pyr = build_pyramid(img, CFG)
        for layer_id, stride in ((3, 8), (4, 16)):
            expect = brute_force_block_mean(img, stride)
            assert np.abs(pyr.grids[layer_id][..., 0] - expect).max() < 1e-6

    @pytest.mark.parametrize("pixel", [np.inf, np.nan, 1e300], ids=["inf", "nan", "1e300"])
    def test_non_finite_statistics_raise_the_layer_error_not_a_warning(self, pixel):
        """An inf pixel made inf - inf, and a finite 1e300 overflowed in the
        std: under the suite's filterwarnings both were RuntimeWarnings."""
        img = np.zeros((64, 64))
        img[10, 10] = pixel
        with pytest.raises(ValueError, match="^layer 3: non-finite feature values"):
            build_pyramid(img, CFG)

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
        np.testing.assert_array_equal(pyr.grids[3][..., 8], pyr.grids[3][..., 0])
        np.testing.assert_array_equal(pyr.grids[3][..., 9], pyr.grids[3][..., 1])

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda a: np.repeat(a, 2, axis=1)[:, ::2]],
        ids=["fortran", "strided"],
    )
    def test_grids_do_not_depend_on_the_image_layout(self, layout):
        # A Fortran-ordered image used to sum each block in another order,
        # and so differ from its C-ordered copy in the last bits.
        img = np.random.default_rng(36).uniform(0, 1, size=(97, 131))
        other = layout(img)
        assert np.array_equal(other, img) and not other.flags.c_contiguous
        want = build_pyramid(img, CYCLING)
        got = build_pyramid(other, CYCLING)
        for layer_id in CYCLING.layer_ids():
            assert got.grids[layer_id].tobytes() == want.grids[layer_id].tobytes()


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

    @given(
        rows=st.integers(2, 70),
        cols=st.integers(2, 70),
        stride=st.integers(1, 96),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @example(rows=2, cols=2, stride=96, ties=False, seed=0)  # one block, mostly padding
    @example(rows=33, cols=7, stride=8, ties=True, seed=1)  # one block column
    def test_range_channel_equals_padded_block_max_minus_min(self, rows, cols, stride, ties, seed):
        """Channel 6 folds each block's rows, then its columns; it must
        equal np.max - np.min over the edge-padded blocks, strides larger
        than the extent included."""
        rng = np.random.default_rng(seed)
        # Half-integer values in [-1.5, 1.5] tie often within a block.
        img = rng.integers(-3, 4, size=(rows, cols)) * 0.5 if ties else rng.normal(size=(rows, cols))
        pyr = build_pyramid(img, PyramidConfig(layers=(LayerSpec(3, stride, 7),)))
        want = _oracle_block_reduce(img, stride, np.max) - _oracle_block_reduce(img, stride, np.min)
        assert pyr.grids[3][..., 6].tobytes() == np.ascontiguousarray(want).tobytes()

    @given(
        rows=st.integers(2, 70),
        cols=st.integers(2, 70),
        stride=st.integers(1, 96),
        values=st.sampled_from(["normal", "ties", "negative-zero", "magnitudes"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(rows=64, cols=64, stride=8, values="negative-zero", seed=0)
    @example(rows=33, cols=7, stride=8, values="ties", seed=1)  # one block column
    @example(rows=70, cols=69, stride=9, values="normal", seed=2)  # NumPy's own sum
    @example(rows=5, cols=70, stride=1, values="magnitudes", seed=3)
    @example(rows=17, cols=70, stride=7, values="negative-zero", seed=4)
    def test_block_sums_are_numpys_bits(self, rows, cols, stride, values, seed):
        """``_block_sums`` equals ``np.add.reduce`` over the block axes byte
        for byte, and the std taken with it equals ``np.std``, on both sides
        of the stride-8 selection, on edge padding and one block column,
        ties, blocks of -0.0 and magnitudes from 1e-200 to 1e200. Where
        the statistics are finite, the pyramid equals its oracle bit for bit."""
        rng = np.random.default_rng(seed)
        shape = (rows, cols)
        if values == "ties":
            img = rng.integers(-3, 4, size=shape) * 0.5
        elif values == "magnitudes":
            img = rng.normal(size=shape) * 10.0 ** rng.integers(-200, 201, size=shape)
        else:
            img = rng.normal(size=shape)
        if values == "negative-zero":
            # Whole blocks, their edge padding included, hold -0.0.
            zero = rng.random((-(-rows // stride), -(-cols // stride))) < 0.5
            img[np.kron(zero, np.ones((stride, stride), dtype=bool))[:rows, :cols]] = -0.0
        blocks = featpyr._blocks(img, stride)
        area = stride * stride
        with np.errstate(over="ignore"):
            sums = featpyr._block_sums(blocks)
            assert sums.tobytes() == np.add.reduce(blocks, axis=(1, 3)).tobytes()
            mean = (sums / area)[:, None, :, None]
            dev = blocks - mean
            dev *= dev
            std = np.sqrt(featpyr._block_sums(dev) / area)
            assert std.tobytes() == blocks.std(axis=(1, 3), mean=mean).tobytes()
            cfg = PyramidConfig(layers=(LayerSpec(3, stride, 8),))
            want = oracle_build_pyramid(img, cfg)[3]
        if np.all(np.isfinite(want)):
            assert build_pyramid(img, cfg).grids[3].tobytes() == want.tobytes()

    def test_peak_memory_is_a_few_images(self):
        """At 640x480 the desk build holds at most 3.5 images' worth of
        buffers at once: the gradient pair, one reused field and the
        std's deviations. Separate fields and sums held over five."""
        img = np.random.default_rng(34).uniform(0, 1, size=(480, 640))
        tracemalloc.start()
        try:
            build_pyramid(img, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * img.nbytes, peak / img.nbytes

    @pytest.mark.parametrize("shape", [(1, 40), (40, 1), (1, 1)])
    def test_image_needs_two_samples_per_axis(self, shape):
        # np.gradient used to fail with "Shape of array too small".
        message = rf"image of shape \({shape[0]}, {shape[1]}\) is too small: need at least 2 x 2"
        with pytest.raises(ValueError, match=message):
            build_pyramid(np.zeros(shape), CFG)
        assert build_pyramid(np.zeros((2, 2)), CFG).grids[3].shape == (1, 1, 8)

    @pytest.mark.parametrize(
        "image",
        [np.full((16, 16), 1 + 2j), np.ones((16, 16), dtype=bool), np.full((16, 16), "1")],
        ids=["complex", "bool", "string"],
    )
    def test_image_of_other_than_real_numbers_rejected(self, image):
        # A complex image used to lose its imaginary part with only a
        # ComplexWarning, and a bool or numeric-string one became floats.
        with pytest.raises(ValueError, match=f"^image holds {image.dtype}, not real numbers$"):
            build_pyramid(image, CFG)
        ints = build_pyramid(np.arange(256).reshape(16, 16), CFG)
        floats = build_pyramid(np.arange(256.0).reshape(16, 16), CFG)
        for layer_id in CFG.layer_ids():
            assert np.array_equal(ints.grids[layer_id], floats.grids[layer_id])

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
        grid = np.moveaxis(rng.uniform(-1, 1, size=(channels, 7, 9)), 0, -1)  # strided: stored as a copy
        pyr = single_layer_pyramid(grid, 8, (70, 50))
        assert np.array_equal(pyr.grids[3], grid)
        boxes = random_boxes(rng, n, pyr.extent)
        got = roi_pool_many(pyr, 3, boxes)
        assert got.shape == (n, ROI_SIZE, ROI_SIZE, channels)
        assert np.array_equal(got, oracle_roi_pool_many(pyr, 3, boxes))

    def test_build_pyramid_grids_are_channel_last(self, monkeypatch):
        """Each grid is the (H, W, C) buffer that build_pyramid filled, stored without a copy."""
        filled = {}

        def spy(**fields):
            filled.update(fields["grids"])
            return FeaturePyramid(**fields)

        monkeypatch.setattr(featpyr, "FeaturePyramid", spy)
        pyr = build_pyramid(np.random.default_rng(30).uniform(0, 1, size=(50, 70)), CYCLING)
        for spec in CYCLING.layers:
            grid = pyr.grids[spec.layer_id]
            assert grid.shape == (-(-50 // spec.stride), -(-70 // spec.stride), spec.channels)
            assert grid.dtype == np.float64 and grid.flags.c_contiguous
            assert np.shares_memory(grid, filled[spec.layer_id])

    def test_given_grids_are_stored_channel_last_and_copied_only_if_needed(self):
        rng = np.random.default_rng(31)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(5, 7, 9)), 0, -1)
        stored = single_layer_pyramid(grid, 8, (70, 50)).grids[3]
        assert stored.flags.c_contiguous
        assert np.array_equal(stored, grid) and not np.shares_memory(stored, grid)
        again = single_layer_pyramid(stored, 8, (70, 50)).grids[3]
        assert np.shares_memory(again, stored)

    def test_projection_reads_the_grid_without_a_copy(self):
        pyr = build_pyramid(np.random.default_rng(32).uniform(0, 1, size=(50, 70)), CYCLING)
        for grid in pyr.grids.values():
            assert np.shares_memory(grid.reshape(-1, grid.shape[2]).T, grid)

    def test_peak_memory_is_the_output_plus_a_few_chunks(self):
        """The whole-array blend held three output-sized buffers at once."""
        rng = np.random.default_rng(33)
        pyr = single_layer_pyramid(np.moveaxis(rng.uniform(-1, 1, size=(64, 30, 40)), 0, -1))
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


def lattice_anchors(extent, stride, height, clipped=True):
    """One anchor per cell of a layer at ``stride``, as scoring pools
    them: clipped to the image, or as generated, sticking out of it."""
    cfg = PyramidConfig(layers=(LayerSpec(3, stride, 1),))
    anchors = generate_anchors(cfg, extent, {3: height})
    return anchors.clipped if clipped else anchors.boxes


def random_grid_pyramid(rng, channels, stride, extent):
    width, height = extent
    grid = rng.uniform(-1, 1, size=(channels, -(-height // stride), -(-width // stride)))
    return single_layer_pyramid(np.moveaxis(grid, 0, -1), stride, extent)


def boxes_of_kind(kind, rng, extent, stride, height, limit):
    """At most ``limit`` boxes of one kind: a run of consecutive lattice
    anchors, clipped or not; random boxes, alone, each repeated up to
    four times, or mixed with anchors; or a column of boxes that share
    their x-samples and nothing else."""
    if kind in ("anchors", "unclipped", "mixed"):
        anchors = lattice_anchors(extent, stride, height, clipped=kind != "unclipped")
        start = int(rng.integers(0, max(1, len(anchors) - limit + 1)))
        boxes = anchors[start : start + limit]
        if kind == "mixed":
            extra = random_boxes(rng, len(boxes) // 3, extent)
            boxes = rng.permutation(np.concatenate([boxes, extra]))
        return boxes[:limit]
    if kind == "duplicates":
        boxes = random_boxes(rng, max(1, limit // 3), extent)
        return rng.permutation(np.repeat(boxes, rng.integers(1, 5, len(boxes)), axis=0))[:limit]
    if kind == "column":
        boxes = random_boxes(rng, limit, extent)
        boxes[:, [0, 2]] = boxes[:1, [0, 2]]
        return boxes
    return random_boxes(rng, limit, extent)


class TestLatticeRepeatedAndRandomBoxes:
    """Lattice anchors, repeated boxes and random boxes pool, and project,
    to the out-of-place oracles bit for bit."""

    @given(
        extent=st.tuples(st.integers(24, 320), st.integers(24, 240)),
        stride=st.sampled_from([4, 8, 16, 32]),
        cells_high=st.floats(0.5, 12),
        # Per box: 384 B, 5 KiB, 40 KiB and 125 KiB of output.
        channels=st.sampled_from([3, 40, 320, 1000]),
        kind=st.sampled_from(["anchors", "unclipped", "mixed", "duplicates", "column", "random"]),
        limit=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @example(
        extent=(64, 48), stride=8, cells_high=5.0, channels=320, kind="anchors", limit=0, seed=0
    )
    @example(
        extent=(64, 48), stride=8, cells_high=5.0, channels=320, kind="anchors", limit=1, seed=0
    )
    def test_pooling_and_projection_equal_the_oracles(
        self, extent, stride, cells_high, channels, kind, limit, seed
    ):
        rng = np.random.default_rng(seed)
        pyr = random_grid_pyramid(rng, channels, stride, extent)
        # At most 4 MiB of output: the oracle holds several copies.
        limit = min(limit, 4 * 2**20 // (ROI_SIZE * ROI_SIZE * channels * 8))
        boxes = boxes_of_kind(kind, rng, extent, stride, cells_high * stride, limit)
        got = roi_pool_many(pyr, 3, boxes)
        assert got.shape == (len(boxes), ROI_SIZE, ROI_SIZE, channels)
        assert np.array_equal(got, oracle_roi_pool_many(pyr, 3, boxes))
        weights = rng.normal(size=ROI_SIZE * ROI_SIZE * channels)
        got = project(pyr, 3, boxes, weights)
        assert got.tobytes() == oracle_roi_pool_project(pyr, 3, boxes, weights).tobytes()

    @pytest.mark.parametrize(
        "stride,channels,count", [(8, 256, 600), (16, 512, 300), (32, 1024, 150), (8, 8, 4800)]
    )
    def test_anchor_layers_equal_the_oracle(self, stride, channels, count):
        """Pooling the anchors of a 640 x 480 layer equals the oracle: about
        2.3 times 8 MiB of output at full-size channels, and all 4,800
        layer-3 anchors at 8."""
        rng = np.random.default_rng(stride)
        pyr = random_grid_pyramid(rng, channels, stride, (640, 480))
        boxes = lattice_anchors((640, 480), stride, stride * 5.0)[:count]
        got = roi_pool_many(pyr, 3, boxes)
        assert len(boxes) == count
        assert np.array_equal(got, oracle_roi_pool_many(pyr, 3, boxes))

    @pytest.mark.parametrize(
        "case", ["anchor-block", "desk-anchor-block", "random-boxes", "repeated-boxes"]
    )
    def test_peak_memory_is_the_output_plus_a_few_chunks(self, case):
        """8 MiB of layer-3 anchors at 256 channels, all 4,800 layer-3
        anchors at 8 channels, and 4,000 random boxes, alone or repeated,
        at 128 channels."""
        rng = np.random.default_rng(43)
        if case in ("anchor-block", "desk-anchor-block"):
            channels = 256 if case == "anchor-block" else 8
            pyr = random_grid_pyramid(rng, channels, 8, (640, 480))
            height = LayerWeightConfig().base_heights()[3]
            boxes = lattice_anchors((640, 480), 8, height)
            boxes = boxes[: 8 * 2**20 // (ROI_SIZE**2 * channels * 8)]
        else:
            pyr = random_grid_pyramid(rng, 128, 8, (640, 480))
            boxes = random_boxes(rng, 1000 if case == "repeated-boxes" else 4000, pyr.extent)
            if case == "repeated-boxes":
                boxes = np.repeat(boxes, 4, axis=0)
        tracemalloc.start()
        try:
            out = roi_pool_many(pyr, 3, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes >= (4 if case == "desk-anchor-block" else 8) * 2**20
        assert peak <= out.nbytes + 8 * _CHUNK_BYTES, (peak - out.nbytes) / _CHUNK_BYTES


class TestRoiPoolProject:
    @staticmethod
    def check(pyr, layer_id, boxes, rng):
        pooled = roi_pool_many(pyr, layer_id, boxes).reshape(len(boxes), -1)
        weights = rng.normal(size=pooled.shape[1])
        got = project(pyr, layer_id, boxes, weights)
        assert got.shape == (len(boxes),)
        np.testing.assert_allclose(got, pooled @ weights, rtol=1e-9, atol=1e-12)

    def test_matches_pooling_on_cycled_channels(self):
        rng = np.random.default_rng(21)
        pyr = build_pyramid(rng.uniform(0, 1, size=(50, 70)), CYCLING)
        boxes = random_boxes(rng, 80, pyr.extent)
        for layer_id in CYCLING.layer_ids():
            self.check(pyr, layer_id, boxes, rng)

    @pytest.mark.parametrize("grid_shape,stride,extent", [
        ((5, 7, 9), 8, (70, 50)),  # ragged: 70 and 50 are not multiples of 8
        ((3, 1, 4), 16, (49, 3)),  # a one-row grid
        ((6, 12, 12), 8, (96, 96)),
    ])
    def test_matches_pooling_on_random_grids(self, grid_shape, stride, extent):
        rng = np.random.default_rng(grid_shape[0])
        grid = np.moveaxis(rng.uniform(-1, 1, size=grid_shape), 0, -1)
        pyr = single_layer_pyramid(grid, stride, extent)
        self.check(pyr, 3, random_boxes(rng, 50, extent), rng)

    @pytest.mark.parametrize(
        "grid_shape,stride,extent",
        [((5, 7, 9), 8, (70, 50)), ((3, 1, 4), 16, (49, 3)), ((2, 5, 1), 4, (3, 20))],
        ids=["ragged", "one-row", "one-column"],
    )
    def test_windowed_gather_equals_advanced_indexing_oracle(self, grid_shape, stride, extent):
        """Gathering rows of the flat (window, cell) maps is the same
        gather as indexing the maps by window row, window column, row and
        column, bit for bit."""
        rng = np.random.default_rng(grid_shape[0] * 10 + 1)
        grid = np.moveaxis(rng.uniform(-1, 1, size=grid_shape), 0, -1)
        pyr = single_layer_pyramid(grid, stride, extent)
        boxes = random_boxes(rng, 70, extent)
        weights = rng.normal(size=ROI_SIZE * ROI_SIZE * grid_shape[0])
        got = project(pyr, 3, boxes, weights)
        assert got.tobytes() == oracle_roi_pool_project(pyr, 3, boxes, weights).tobytes()

    def test_boxes_narrower_than_the_window(self):
        rng = np.random.default_rng(23)
        pyr = single_layer_pyramid(np.moveaxis(rng.uniform(-1, 1, size=(4, 10, 10)), 0, -1))
        boxes = np.array([[8, 8, 16, 16], [0, 0, 2, 2], [78, 78, 1, 1], [30, 5, 0.5, 60]])
        self.check(pyr, 3, boxes, rng)

    def test_rejects_misshapen_weights_and_unknown_layers(self):
        pyr = single_layer_pyramid(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError, match="weights"):
            project(pyr, 3, np.array([[0, 0, 8, 8]]), np.zeros(31))
        with pytest.raises(ValueError, match=r"layer 9 is not one of \[3\]"):
            project(pyr, 9, np.array([[0, 0, 8, 8]]), np.zeros(32))

    @pytest.mark.parametrize(
        "shape", [(0,), (1, 32), (32, 1), ()], ids=["empty", "row", "column", "0d"]
    )
    def test_weights_must_be_one_vector_per_layer(self, shape):
        # A (1, 32) row was the one-K form; a vector is now the only one.
        pyr = single_layer_pyramid(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError, match=r"^layer 3: expected \(32,\) weights, got"):
            project(pyr, 3, np.array([[0, 0, 8, 8]]), np.zeros(shape))


def oracle_plan_projection(pyr, boxes, layer_ids, rows, weights):
    """The per-layer windowed projection (``oracle_roi_pool_project``)
    of each layer's rows, put back in row order."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty(len(rows))
    for layer_id in np.unique(layer_ids[rows]).tolist():
        sel = layer_ids[rows] == layer_id
        out[sel] = oracle_roi_pool_project(pyr, layer_id, boxes[rows[sel]], weights[layer_id])
    return out


def random_grids(rng, cfg, extent):
    """A pyramid of uniform random grids for ``cfg``'s layers over
    ``extent``: unlike ``build_pyramid``'s, no two channels are equal."""
    width, height = extent
    grids = {
        spec.layer_id: np.moveaxis(
            rng.uniform(
                -1, 1, size=(spec.channels, -(-height // spec.stride), -(-width // spec.stride))
            ),
            0,
            -1,
        )
        for spec in cfg.layers
    }
    return FeaturePyramid(extent=extent, strides={l.layer_id: l.stride for l in cfg.layers}, grids=grids)


class TestSamplePlan:
    """``roi_pool_project`` blends the rows of every layer in one gather
    through a plan computed once per box set; each row's values equal
    the per-layer windowed projection bit for bit."""

    @given(
        extent=st.sampled_from([(640, 480), (97, 61)]),
        grids=st.sampled_from(["built", "random"]),
        boxes=st.sampled_from(["anchors", "random", "each-layer"]),
        pool=st.sampled_from(["empty", "single", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_equals_per_layer_oracle(self, extent, grids, boxes, pool, seed):
        rng = np.random.default_rng(seed)
        width, height = extent
        if grids == "built":  # channel c repeats channel c % 8
            pyr = build_pyramid(rng.uniform(0, 1, size=(height, width)), CYCLING)
        else:
            pyr = random_grids(rng, CYCLING, extent)
        if boxes == "anchors":
            anchors = generate_anchors(CYCLING, extent, {3: 30.0, 4: 70.0, 5: 150.0})
            all_boxes, layer_ids, plan = anchors.clipped, anchors.layer_ids, anchors.plan
        elif boxes == "random":
            all_boxes = random_boxes(rng, 400, extent)
            layer_ids = rng.choice(CYCLING.layer_ids(), size=len(all_boxes))
            plan = sample_plan(all_boxes, layer_ids, CYCLING, extent)
        else:  # the same boxes on every layer, in shuffled order
            order = rng.permutation(3 * 130)
            all_boxes = np.repeat(random_boxes(rng, 130, extent), 3, axis=0)[order]
            layer_ids = np.tile(CYCLING.layer_ids(), 130)[order]
            plan = sample_plan(all_boxes, layer_ids, CYCLING, extent)
        if pool == "empty":
            rows = np.zeros(0, dtype=np.int64)
        elif pool == "single":
            rows = rng.permutation(np.flatnonzero(layer_ids == rng.choice(CYCLING.layer_ids())))
        else:
            per_layer = [rng.permutation(np.flatnonzero(layer_ids == l)) for l in CYCLING.layer_ids()]
            rows = rng.permutation(np.concatenate([sel[:100] for sel in per_layer]))
        rows = rows[:300]
        weights = {l: rng.normal(size=d) for l, d in CYCLING.flat_dims().items()}
        got = roi_pool_project(pyr, plan, rows, weights)
        assert got.shape == (len(rows),)
        want = oracle_plan_projection(pyr, all_boxes, layer_ids, rows, weights)
        assert got.tobytes() == want.tobytes()

    def test_anchor_plan_is_compact(self):
        """At 640 x 480 the 6,300 desk anchors' plan holds 1.2 MB: int64
        corner rows and float64 fractions, 192 B per anchor. The anchor
        set holds that plan's exact size plus its three anchor arrays and
        at most 4 KiB of Python objects, and peaks under 3 MiB."""
        cfg, heights = PyramidConfig(), LayerWeightConfig().base_heights()
        generate_anchors(cfg, (640, 480), heights)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            anchors = generate_anchors(cfg, (640, 480), heights)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extent, strides, layer_ids, cells, fracs = anchors.plan
        assert extent == (640, 480) and strides == {3: 8, 4: 16, 5: 32}
        assert layer_ids is anchors.layer_ids and cells.dtype == np.int64
        plan = cells.nbytes + fracs.nbytes
        assert plan == 192 * len(anchors)
        arrays = anchors.boxes.nbytes + anchors.clipped.nbytes + anchors.layer_ids.nbytes
        assert held - arrays - plan <= 4096, held - arrays - plan
        assert peak <= 3 * 2**20, peak

    def test_corner_rows_index_each_layers_window_maps(self):
        """Row part ``(i roi H + y) W`` and column part ``j H W + x``,
        also at 2**20 x 2**20 cells, where they pass 2**31."""
        cfg = PyramidConfig(layers=(LayerSpec(2, 1, 1), LayerSpec(3, 8, 1)))
        # On layer 3 the box spans cells [0.5, 2.5) x [4, 8), so the x
        # samples expand to 0..3 and the y samples are 4.5..7.5.
        box = [[4.0, 32.0, 16.0, 32.0]]
        _, _, _, cells, fracs = sample_plan(box, [3], cfg, (80, 64))
        h, w = 8, 10
        window = np.arange(ROI_SIZE) * h * w
        np.testing.assert_array_equal(cells[0, 0, :, 0], window * ROI_SIZE + np.arange(4, 8) * w)
        np.testing.assert_array_equal(cells[0, 1, :, 0], window * ROI_SIZE + np.array([5, 6, 7, 7]) * w)
        np.testing.assert_array_equal(cells[1, 0, :, 0], window + [0, 0, 1, 2])
        np.testing.assert_array_equal(cells[1, 1, :, 0], window + [1, 1, 2, 3])
        np.testing.assert_array_equal(fracs[:, :, 0], [[0.0] * 4, [0.0, 0.5, 0.5, 0.5]])
        _, _, layer_ids, cells, fracs = sample_plan(np.zeros((0, 4)), [], cfg, (80, 64))
        assert cells.shape == (2, 2, ROI_SIZE, 0) and fracs.shape == (2, ROI_SIZE, 0)
        side = 2**20  # y samples 36..60 on layer 2
        _, _, _, cells, _ = sample_plan(box, [2], cfg, (side, side))
        assert cells[0, 0, -1, 0] == 3 * ROI_SIZE * side * side + 59 * side
        assert cells[0, 1, -1, 0] == 3 * ROI_SIZE * side * side + 60 * side
        assert cells[1, 1, -1, 0] == 3 * side * side + 18  # x samples 6..18
        # 12 H W stays under 2**31 here, but a bottom row part of window row 3 does not.
        side = 12900
        _, _, _, cells, _ = sample_plan([[12890.0, 12890.0, 4.0, 4.0]], [2], cfg, (side, side))
        assert cells[0, 1, -1, 0] == (3 * ROI_SIZE * side + 12894) * side > 2**31 > 12 * side**2
        assert cells[1, 1, -1, 0] == 3 * side * side + 12894

    def test_rejects_a_pyramid_the_plan_was_not_made_for(self):
        rng = np.random.default_rng(50)
        pyr = random_grids(rng, CYCLING, (97, 61))
        boxes = random_boxes(rng, 12, (97, 61))
        weights = {l: np.zeros(d) for l, d in CYCLING.flat_dims().items()}
        rows = np.arange(12)
        plan = sample_plan(boxes, np.full(12, 4), CYCLING, (96, 61))
        with pytest.raises(ValueError, match=r"plan for \(96, 61\), .*; pyramid \(97, 61\)"):
            roi_pool_project(pyr, plan, rows, weights)
        other = PyramidConfig(layers=(LayerSpec(3, 8, 11), LayerSpec(4, 12, 17)))
        plan = sample_plan(boxes, np.full(12, 4), other, (97, 61))
        want = r"plan for \(97, 61\), \{3: 8, 4: 12\}; pyramid \(97, 61\), \{3: 8, 4: 16, 5: 32\}"
        with pytest.raises(ValueError, match=want):
            roi_pool_project(pyr, plan, rows, weights)
        # A stride the rows do not reach does not matter.
        plan = sample_plan(boxes, np.full(12, 3), other, (97, 61))
        assert roi_pool_project(pyr, plan, rows, weights).shape == (12,)

    def test_every_reached_layer_needs_weights(self):
        rng = np.random.default_rng(51)
        pyr = random_grids(rng, CYCLING, (97, 61))
        layer_ids = np.array([3, 4, 4, 5])
        plan = sample_plan(random_boxes(rng, 4, (97, 61)), layer_ids, CYCLING, (97, 61))
        dims = CYCLING.flat_dims()
        weights = {3: np.zeros(dims[3]), 4: np.zeros(dims[4])}
        assert roi_pool_project(pyr, plan, [0, 2, 1], weights).shape == (3,)
        with pytest.raises(ValueError, match=r"layer 5 is not one of \[3, 4\]"):
            roi_pool_project(pyr, plan, [0, 3], weights)
        with pytest.raises(ValueError, match=r"layer 3 is not one of \[\]"):
            roi_pool_project(pyr, plan, [0], {})
        # Every given layer's weights are checked, reached or not.
        weights[5] = np.zeros(dims[5] + 1)
        with pytest.raises(ValueError, match=r"^layer 5: expected \(48,\) weights, got \(49,\)"):
            roi_pool_project(pyr, plan, [0], weights)

    @pytest.mark.parametrize(
        "layer_ids, want",
        [
            ([3, 4], r"3 boxes need as many layer ids, got shape \(2,\)"),
            ([[3, 4, 5]], r"3 boxes need as many layer ids, got shape \(1, 3\)"),
            ([3.0, 4.0, 5.0], r"layer 3.0 is not one of \[3, 4, 5\]"),
            ([3, 6, 5], r"layer 6 is not one of \[3, 4, 5\]"),
        ],
        ids=["short", "2d", "float", "unknown"],
    )
    def test_one_known_layer_id_per_box(self, layer_ids, want):
        boxes = random_boxes(np.random.default_rng(52), 3, (97, 61))
        with pytest.raises(ValueError, match=want):
            sample_plan(boxes, np.array(layer_ids), CYCLING, (97, 61))


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
        g1 = np.moveaxis(rng.uniform(-1, 1, size=(channels, rows, cols)), 0, -1)
        g2 = np.moveaxis(rng.normal(0, 3, size=(channels, rows, cols)), 0, -1)
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
            lo = grid.min(axis=(0, 1)) - 1e-12 * np.abs(grid).max()
            hi = grid.max(axis=(0, 1)) + 1e-12 * np.abs(grid).max()
            assert np.all((pooled >= lo) & (pooled <= hi))


class TestConfigValidation:
    def test_strides_must_increase(self):
        with pytest.raises(ValueError):
            PyramidConfig(layers=(LayerSpec(3, 16, 4), LayerSpec(4, 8, 4)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            PyramidConfig(layers=(LayerSpec(3, 8, 4), LayerSpec(3, 16, 4)))

    def test_no_layers_rejected(self):
        # () used to build a pyramid of no grids, and generate_anchors then
        # failed inside NumPy with "need at least one array to concatenate".
        with pytest.raises(ValueError, match="^need at least one layer$"):
            PyramidConfig(layers=())

    @pytest.mark.parametrize(
        "spec, name",
        [
            (LayerSpec(3, 8.5, 2), "stride"),
            (LayerSpec(3, 8, 2.0), "channels"),
            (LayerSpec(3, 0, 2), "stride"),
            (LayerSpec(3, 8, 0), "channels"),
            (LayerSpec(3, True, 2), "stride"),
        ],
    )
    def test_stride_and_channels_must_be_positive_integers(self, spec, name):
        # A fractional stride used to pass here and fail in build_pyramid.
        want = f"^layer 3 {name} must be an integer of at least 1, got"
        with pytest.raises(ValueError, match=want):
            PyramidConfig(layers=(spec, LayerSpec(4, 16, 4)))

    @pytest.mark.parametrize("layer_id", [3.0, True, -1])
    def test_layer_id_must_be_a_non_negative_integer(self, layer_id):
        """A layer id of 3.0 used to construct, name its proposal head
        ``head3.0/w`` and make the model's own ``params`` fail to load."""
        want = f"^layer id must be an integer of at least 0, got {layer_id!r}"
        with pytest.raises(ValueError, match=want):
            PyramidConfig(layers=(LayerSpec(layer_id, 8, 2), LayerSpec(4, 16, 4)))
        assert PyramidConfig(layers=(LayerSpec(0, 8, 2), LayerSpec(np.int64(4), 16, 4)))

    def test_flat_dims(self):
        paper = PyramidConfig(
            layers=(LayerSpec(3, 8, 256), LayerSpec(4, 16, 512), LayerSpec(5, 32, 1024))
        )
        assert paper.flat_dims() == {3: 4096, 4: 8192, 5: 16384}


class TestRoiPool:
    def test_flat_length_paper_channels(self):
        rng = np.random.default_rng(5)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(256, 16, 16)), 0, -1)
        pyr = single_layer_pyramid(grid)
        block = roi_pool(pyr, 3, BBox(10, 10, 60, 60))
        assert block.shape == (4, 4, 256)
        assert block.reshape(-1).shape == (4096,)

    def test_constant_grid_gives_constant_block(self):
        pyr = single_layer_pyramid(np.full((12, 12, 6), 2.5))
        for box in (BBox(1, 1, 5, 5), BBox(0, 0, 90, 90), BBox(40, 40, 3, 3)):
            block = roi_pool(pyr, 3, box)
            np.testing.assert_allclose(block, 2.5, atol=1e-12)

    def test_small_region_expansion_matches_gather_oracle(self):
        # Box maps to cells [1, 3) x [1, 3): expanded window is [0, 4) whose
        # sample points land exactly on the centers of cells 0..3.
        rng = np.random.default_rng(6)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(5, 10, 10)), 0, -1)
        pyr = single_layer_pyramid(grid)
        block = roi_pool(pyr, 3, BBox(8, 8, 16, 16))
        expect = grid[0:4, 0:4]
        np.testing.assert_allclose(block, expect, atol=1e-12)

    def test_exact_roi_sized_region_is_direct_gather(self):
        rng = np.random.default_rng(7)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(3, 8, 8)), 0, -1)
        pyr = single_layer_pyramid(grid)
        block = roi_pool(pyr, 3, BBox(16, 8, 32, 32))  # cells [2,6) x [1,5)
        expect = grid[1:5, 2:6]
        np.testing.assert_allclose(block, expect, atol=1e-12)

    def test_output_shape_independent_of_box_size(self):
        rng = np.random.default_rng(8)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(4, 12, 12)), 0, -1)
        pyr = single_layer_pyramid(grid)
        for box in (BBox(0, 0, 2, 2), BBox(5, 5, 40, 80), BBox(60, 60, 30, 30)):
            assert roi_pool(pyr, 3, box).shape == (4, 4, 4)

    def test_linearity_in_feature_values(self):
        rng = np.random.default_rng(9)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(4, 12, 12)), 0, -1)
        box = BBox(3, 7, 37, 53)
        a = roi_pool(single_layer_pyramid(grid), 3, box)
        b = roi_pool(single_layer_pyramid(3.5 * grid), 3, box)
        np.testing.assert_allclose(b, 3.5 * a, atol=1e-12)

    def test_edge_replication_near_border(self):
        rng = np.random.default_rng(10)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(2, 6, 6)), 0, -1)
        pyr = single_layer_pyramid(grid)
        # Tiny box at the very corner: expanded window pokes outside the
        # grid and must clamp to the corner cell rather than wrap or fail.
        block = roi_pool(pyr, 3, BBox(0, 0, 2, 2))
        np.testing.assert_allclose(block[0, 0], grid[0, 0], atol=1e-12)

    def test_many_matches_single(self):
        rng = np.random.default_rng(11)
        grid = np.moveaxis(rng.uniform(-1, 1, size=(4, 10, 14)), 0, -1)
        pyr = single_layer_pyramid(grid)
        boxes = []
        for _ in range(20):
            boxes.append(BBox(rng.uniform(0, 80), rng.uniform(0, 60), rng.uniform(2, 40), rng.uniform(2, 40)))
        batch = roi_pool_many(pyr, 3, boxes_to_array(boxes))
        for i, b in enumerate(boxes):
            np.testing.assert_allclose(batch[i], roi_pool(pyr, 3, b), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 3])
    def test_non_finite_box_rejected(self, bad, column):
        # A NaN coordinate used to reach an IndexError from a cast index.
        pyr = single_layer_pyramid(np.zeros((4, 4, 2)))
        boxes = np.array([[0, 0, 8, 8], [4, 4, 8, 8], [1, 1, 2, 2]], dtype=np.float64)
        boxes[1, column] = bad
        with pytest.raises(ValueError, match="box 1 has a non-finite coordinate"):
            roi_pool_many(pyr, 3, boxes)
        with pytest.raises(ValueError, match="box 1 has a non-finite coordinate"):
            project(pyr, 3, boxes, np.zeros(32))

    @pytest.mark.parametrize(
        "box", [[1e308, 0, 1e308, 8], [0, 1e308, 8, 1e308], [-1e308, 0, -1e308, 8]],
        ids=["x", "y", "negative-x"],
    )
    def test_far_corner_overflow_rejected(self, box):
        # x + w overflowing to inf used to warn, then pool whichever cell
        # the clamped index landed on.
        pyr = single_layer_pyramid(np.zeros((4, 4, 2)))
        boxes = np.array([[0, 0, 8, 8], box], dtype=np.float64)
        want = "box 1 has a non-finite coordinate or corner"
        with pytest.raises(ValueError, match=want):
            roi_pool_many(pyr, 3, boxes)
        with pytest.raises(ValueError, match=want):
            project(pyr, 3, boxes, np.zeros(32))

    @pytest.mark.parametrize(
        "box", [[10, 10, 0, 5], [10, 10, 5, -1], [10, 10, -5, 5], [10, 10, 5, 0]],
        ids=["zero-width", "negative-height", "negative-width", "zero-height"],
    )
    def test_box_with_a_side_of_at_most_0_rejected(self, box):
        # [10, 10, -5, 5] used to pool as a window expanded about x = 7.5.
        pyr = single_layer_pyramid(np.zeros((4, 4, 2)))
        boxes = np.array([[0, 0, 8, 8], box], dtype=np.float64)
        want = f"^{re.escape(f'box 1 has a side of at most 0: {boxes[1].tolist()}')}$"
        with pytest.raises(ValueError, match=want):
            roi_pool_many(pyr, 3, boxes)
        with pytest.raises(ValueError, match=want):
            sample_plan(boxes, [3, 3], pyramid_config(pyr), pyr.extent)

    def test_huge_finite_box_pools_without_overflow(self):
        """On a stride-1 layer the box's corners, 1e308 and 1.5e308 cells,
        are finite, but their sum is not: the row center used to warn of
        an overflow in ``lo + hi``. Every x sample lies right of the grid,
        so the box pools as any box there does."""
        grid = np.moveaxis(np.random.default_rng(12).uniform(-1, 1, size=(2, 4, 4)), 0, -1)
        pyr = single_layer_pyramid(grid, stride=1)
        far = roi_pool_many(pyr, 3, np.array([[1e308, 0, 5e307, 8]]))
        near = roi_pool_many(pyr, 3, np.array([[10, 0, 10, 8]]))
        np.testing.assert_array_equal(far, near)

    @given(
        lo=finite_coordinates(),
        width=st.one_of(st.floats(0, 2 * ROI_SIZE), finite_coordinates().map(abs)),
    )
    @settings(max_examples=300, deadline=None)
    @example(lo=2.0**-1021, width=2.0**-1021)
    @example(lo=-8e307, width=8e307)
    def test_sample_centers_match_the_sum_formula(self, lo, width):
        """The row center ``lo / 2 + hi / 2`` equals the former ``(lo + hi)
        / 2`` bit for bit wherever the sum does not overflow and each
        coordinate is 0 or at least 2**-1021 in magnitude, so every pooled
        value is unchanged. (Below 2**-1021 halving an odd last bit
        rounds: 2**-1022 + 2**-1074 is such a coordinate.)"""
        hi = lo + width
        assume(abs(hi) <= np.finfo(np.float64).max / 2 and (hi == 0 or abs(hi) >= 2.0**-1021))
        lo_hi = np.array([lo]), np.array([hi])
        got = featpyr._sample_axis(*lo_hi)
        want = sum_center_sample_axis(*lo_hi)
        assert got.tobytes() == want.tobytes()

    def test_unknown_layer(self):
        pyr = single_layer_pyramid(np.zeros((4, 4, 1)))
        with pytest.raises(ValueError, match=r"layer 9 is not one of \[3\]"):
            roi_pool(pyr, 9, BBox(0, 0, 4, 4))
        with pytest.raises(ValueError, match=r"layer 9 is not one of \[3\]"):
            roi_pool_many(pyr, 9, np.array([[0, 0, 4, 4]]))



class TestFeaturePyramidChecks:
    """A pyramid whose grids do not fit its extent and strides, or hold
    non-finite values, fails with a ``ValueError`` that says what is wrong."""

    def test_accepts_the_grids_build_pyramid_makes(self):
        pyr = build_pyramid(np.zeros((50, 70)), CFG)
        again = FeaturePyramid(extent=pyr.extent, strides=pyr.strides, grids=pyr.grids)
        assert again.extent == (70, 50)

    @pytest.mark.parametrize("shape", [(7, 8, 2), (6, 9, 2), (8, 9, 2), (0, 9, 2)])
    def test_wrong_spatial_shape_rejected(self, shape):
        # A 70x50 extent at stride 8 needs ceil(50/8) x ceil(70/8) = 7 x 9 cells.
        with pytest.raises(ValueError, match=r"expected spatial shape \(7, 9\)"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: np.zeros(shape)})

    def test_channel_first_grid_rejected(self):
        # The former (C, H, W) layout: 8 channels of 7 x 9 cells read as 8 x 7 cells.
        grid = np.moveaxis(build_pyramid(np.zeros((50, 70)), CFG).grids[3], -1, 0)
        want = r"^layer 3: expected spatial shape \(7, 9\), got \(8, 7\)$"
        with pytest.raises(ValueError, match=want):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: grid})

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(ValueError, match="layer 3"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: np.zeros((7, 9))})

    def test_grid_without_channels_rejected(self):
        # roi_pool_many on it used to fail with a ZeroDivisionError.
        with pytest.raises(ValueError, match="layer 3: grid has no channels"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: np.zeros((7, 9, 0))})

    def test_second_layer_checked_too(self):
        grids = {3: np.zeros((7, 9, 2)), 4: np.zeros((4, 4, 2))}
        with pytest.raises(ValueError, match="layer 4"):
            FeaturePyramid(extent=(70, 50), strides={3: 8, 4: 16}, grids=grids)

    @pytest.mark.parametrize(
        "strides, grid_shape",
        [({}, (7, 9, 2)), ({3: 0}, (7, 9, 2)), ({3: -8}, (7, 9, 2)), ({3: 8.5}, (6, 9, 2))],
        ids=["missing", "zero", "negative", "fractional"],
    )
    def test_stride_must_be_a_positive_integer(self, strides, grid_shape):
        # Stride 8.5 would otherwise pass: ceil(50/8.5) x ceil(70/8.5) = 6 x 9.
        want = "^layer 3 stride must be an integer of at least 1, got"
        with pytest.raises(ValueError, match=want):
            FeaturePyramid(extent=(70, 50), strides=strides, grids={3: np.zeros(grid_shape)})

    @pytest.mark.parametrize(
        "extent, grid_shape, want",
        [
            ((0, 0), (0, 0, 2), "extent width must be an integer of at least 1, got 0$"),
            ((70, 0), (0, 9, 2), "extent height must be an integer of at least 1, got 0$"),
            ((-70, 50), (7, 9, 2), "extent width must be an integer of at least 1, got -70$"),
            ((10.5, 8), (1, 2, 2), r"extent width must be an integer of at least 1, got 10\.5$"),
            ((70.0, 50.0), (7, 9, 2), r"extent width must be an integer of at least 1, got 70\.0$"),
            ((70,), (7, 9, 2), r"extent must be a \(width, height\) pair, got \(70,\)$"),
            ((70, 50, 1), (7, 9, 2), r"extent must be a \(width, height\) pair, got \(70, 50, 1\)$"),
            (70, (7, 9, 2), r"extent must be a \(width, height\) pair, got 70$"),
        ],
        ids=["zero", "zero-height", "negative", "fractional", "floats", "one", "three", "scalar"],
    )
    def test_extent_must_be_a_pair_of_positive_integers(self, extent, grid_shape, want):
        # Extent (0, 0) with an empty grid would otherwise pass, and pooling
        # on it fail with an IndexError.
        with pytest.raises(ValueError, match=f"^{want}"):
            FeaturePyramid(extent=extent, strides={3: 8}, grids={3: np.zeros(grid_shape)})

    def test_extent_of_numpy_integers_accepted(self):
        pyr = FeaturePyramid(
            extent=(np.int64(70), np.int64(50)), strides={3: 8}, grids={3: np.zeros((7, 9, 2))}
        )
        assert pyr.extent == (70, 50)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
    def test_other_real_grids_are_stored_as_float64(self, dtype):
        # An int64 grid used to be kept, and pooling on it to fail with a
        # UFuncTypeError in the in-place blend.
        grid = np.arange(2 * 7 * 9).reshape(7, 9, 2).astype(dtype)
        pyr = FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: grid})
        assert pyr.grids[3].dtype == np.float64
        assert pyr.grids[3].flags.c_contiguous
        boxes = random_boxes(np.random.default_rng(35), 12, (70, 50))
        want = single_layer_pyramid(grid.astype(np.float64), 8, (70, 50))
        assert np.array_equal(roi_pool_many(pyr, 3, boxes), roi_pool_many(want, 3, boxes))

    @pytest.mark.parametrize("dtype", [bool, complex, object, "U1"])
    def test_non_real_grid_rejected(self, dtype):
        grid = np.zeros((7, 9, 2), dtype=dtype)
        with pytest.raises(ValueError, match=f"layer 3: grid holds {np.dtype(dtype)}, not real"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: grid})

    def test_nested_list_grid_is_converted_first(self):
        # A nested list used to fail with "AttributeError: 'list' object
        # has no attribute 'ndim'", one of strings too.
        grid = np.random.default_rng(37).uniform(-1, 1, size=(7, 9, 2))
        pyr = FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: grid.tolist()})
        assert pyr.grids[3].dtype == np.float64 and pyr.grids[3].flags.c_contiguous
        assert pyr.grids[3].tobytes() == grid.tobytes()
        strings = np.full((7, 9, 2), "1").tolist()
        with pytest.raises(ValueError, match="^layer 3: grid holds <U1, not real numbers$"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: strings})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, bad):
        grid = np.zeros((7, 9, 2))
        grid[6, 8, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FeaturePyramid(extent=(70, 50), strides={3: 8}, grids={3: grid})
