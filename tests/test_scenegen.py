import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from scaleloc import scenegen
from scaleloc.featpyr import PyramidConfig, build_pyramid
from scaleloc.scenegen import (
    ASPECT_BAND,
    BACKGROUND_LEVEL,
    CLUTTER_AMPLITUDE,
    CONTRAST,
    PIXEL_NOISE,
    GenConfig,
    rasterize,
    sample_dataset,
)
from scaleloc.scenegen import _background


SMALL = GenConfig(scenes=20, extent=(160, 120))


def oracle_background(rng, shape):
    """The out-of-place background: gather the four corners at full
    resolution, then weight and sum them. The in-place one must equal it
    bit for bit."""
    rows, cols = shape
    coarse_r = max(rows // 40, 2)
    coarse_c = max(cols // 40, 2)
    coarse = rng.uniform(-1.0, 1.0, size=(coarse_r, coarse_c))
    ri = np.linspace(0, coarse_r - 1, rows)
    ci = np.linspace(0, coarse_c - 1, cols)
    r0 = np.floor(ri).astype(int)
    c0 = np.floor(ci).astype(int)
    r1 = np.minimum(r0 + 1, coarse_r - 1)
    c1 = np.minimum(c0 + 1, coarse_c - 1)
    fr = (ri - r0)[:, None]
    fc = (ci - c0)[None, :]
    field = (
        coarse[np.ix_(r0, c0)] * (1 - fr) * (1 - fc)
        + coarse[np.ix_(r1, c0)] * fr * (1 - fc)
        + coarse[np.ix_(r0, c1)] * (1 - fr) * fc
        + coarse[np.ix_(r1, c1)] * fr * fc
    )
    noise = rng.normal(0.0, 1.0, size=shape)
    return BACKGROUND_LEVEL + CLUTTER_AMPLITUDE * field + PIXEL_NOISE * noise


class TestSampling:
    def test_same_seed_same_dataset(self):
        a = sample_dataset(SMALL, seed=9)
        b = sample_dataset(SMALL, seed=9)
        assert a == b

    def test_different_seed_differs(self):
        a = sample_dataset(SMALL, seed=9)
        b = sample_dataset(SMALL, seed=10)
        assert a != b

    def test_far_scale_fraction_under_defaults(self, monkeypatch):
        # Enough scenes for ~1000 objects under the default law.
        monkeypatch.setattr(scenegen, "OBJECTS", (3, 4))
        cfg = GenConfig(scenes=300)
        heights = [
            g.box.h for s in sample_dataset(cfg, seed=7) for g in s.objects
        ]
        assert len(heights) >= 1000
        far = np.mean([h < 80.0 for h in heights])
        assert 0.60 <= far <= 0.85

    def test_single_object_range(self, monkeypatch):
        monkeypatch.setattr(scenegen, "OBJECTS", (1, 1))
        for scene in sample_dataset(GenConfig(scenes=10), seed=3):
            assert len(scene.objects) == 1

    @pytest.mark.parametrize("objects", [None, (2, 2), (3, 5)], ids=["default", "2-2", "3-5"])
    def test_figure_counts_span_objects_inclusive(self, monkeypatch, objects):
        """Each scene holds from OBJECTS[0] to OBJECTS[1] figures, both
        ends included, and the sampler reads OBJECTS when it is called."""
        if objects is not None:
            monkeypatch.setattr(scenegen, "OBJECTS", objects)
        fewest, most = scenegen.OBJECTS
        counts = {len(s.objects) for s in sample_dataset(GenConfig(scenes=60, extent=(160, 120)), 5)}
        assert counts == set(range(fewest, most + 1))

    @pytest.mark.parametrize("field", ["objects_min", "objects_max"])
    def test_figure_counts_are_not_config_fields(self, field):
        """The counts are the constant OBJECTS: a call that still passes
        one fails at once instead of being ignored."""
        with pytest.raises(TypeError, match=field):
            GenConfig(**{field: 2})

    def test_boxes_inside_extent_and_aspect_band(self):
        for scene in sample_dataset(SMALL, seed=21):
            w, h = scene.extent
            for g in scene.objects:
                assert g.box.x >= 0 and g.box.y >= 0
                assert g.box.x2 <= w + 1e-9 and g.box.y2 <= h + 1e-9
                ratio = g.box.w / g.box.h
                assert ASPECT_BAND[0] - 1e-9 <= ratio <= ASPECT_BAND[1] + 1e-9

    def test_unique_ids(self):
        scenes = sample_dataset(SMALL, seed=4)
        assert len({s.id for s in scenes}) == len(scenes)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(scenes=0)
        with pytest.raises(ValueError):
            GenConfig(height_median=-5)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"scenes": 2.5}, "scenes"),
            ({"extent": (640.5, 480)}, "extent width"),
            ({"extent": (640, 480.0)}, "extent height"),
            ({"scenes": 0}, "scenes"),
            ({"extent": (640, 0)}, "extent height"),
            ({"scenes": True}, "scenes"),
            ({"extent": (True, 480)}, "extent width"),
        ],
    )
    def test_non_integer_count_or_size_rejected(self, kwargs, name):
        """Counts and sizes that would fail later inside sample_dataset or
        rasterize, or sample silently, are rejected at construction."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1, got"):
            GenConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, want",
        [
            ({"height_median": float("inf")}, "height_median must be a finite number above 0"),
            ({"height_median": float("nan")}, "height_median must be a finite number above 0"),
            ({"min_height": float("nan")}, "min_height must be a finite number above 0"),
        ],
    )
    def test_non_finite_size_or_inverted_counts_rejected(self, kwargs, want):
        """height_median inf used to construct, and nan to fail in
        sample_dataset after 1,000 rejected draws. The figure counts are
        the constant OBJECTS, no longer settable."""
        with pytest.raises(ValueError, match=f"^{want}, got"):
            GenConfig(**kwargs)

    @pytest.mark.parametrize("extent", [(64, 48, 3), (64,), 640])
    def test_extent_must_be_a_pair(self, extent):
        # (64, 48, 3) used to construct and fail later in sample_dataset.
        with pytest.raises(ValueError, match=r"^extent must be a \(width, height\) pair, got"):
            GenConfig(extent=extent)

    @pytest.mark.parametrize(
        "seed", [True, 2.5, np.float64(3), -1], ids=["bool", "fraction", "numpy-float", "negative"]
    )
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # True used to give seed 1's scenes, and 2.5 or np.float64(3) to
        # fail inside NumPy with a TypeError.
        with pytest.raises(ValueError, match=r"^seed must be an integer of at least 0, got"):
            sample_dataset(GenConfig(scenes=1, extent=(64, 48)), seed)
        cfg = GenConfig(scenes=2, extent=(64, 48))
        assert sample_dataset(cfg, np.int64(3)) == sample_dataset(cfg, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(extent=(1, 480)), dict(extent=(64, 1), min_height=0.5, height_median=0.9)],
        ids=["one-column", "one-row"],
    )
    def test_extent_below_2_by_2_rejected(self, kwargs):
        """(1, 480) used to fail in sample_dataset with "box sides must be
        positive", and (64, 1) in build_pyramid with "too small"."""
        want = rf"^extent {re.escape(repr(kwargs['extent']))} is too small: need at least 2 x 2$"
        with pytest.raises(ValueError, match=want):
            GenConfig(scenes=3, **kwargs)

    def test_smallest_extent_samples_and_renders(self):
        cfg = GenConfig(scenes=2, extent=(2, 2), min_height=0.5, height_median=1.0)
        for scene in sample_dataset(cfg, 0):
            assert build_pyramid(rasterize(scene), PyramidConfig()).extent == (2, 2)
            assert all(0 < b.w <= 1 and 0.5 <= b.h <= 1.9 for b in scene.gt_boxes)

    def test_min_height_must_fit_the_extent(self):
        """Heights are drawn from [min_height, 0.95 * extent height]; an
        empty range is rejected up front, not after 1,000 draws."""
        with pytest.raises(ValueError, match="0.95 \\* extent height"):
            GenConfig(extent=(96, 20))
        assert GenConfig(extent=(32, 32), min_height=8).min_height == 8
        assert GenConfig(extent=(96, 20), min_height=19).extent == (96, 20)

    @pytest.mark.parametrize(
        "kwargs, want",
        [
            (dict(height_median=1e6), "[min_height 24.0, 0.95 * extent height 456] "
             "in 1000 draws around height_median 1000000.0"),
            (dict(extent=(64, 48), min_height=45, height_median=1.0),
             "[min_height 45, 0.95 * extent height 45.6] in 1000 draws around height_median 1.0"),
        ],
        ids=["median-far-above", "median-far-below"],
    )
    def test_law_with_no_reachable_height_is_a_value_error(self, kwargs, want):
        """A law whose draws all miss [min_height, 0.95 * extent height]
        used to raise a bare RuntimeError after 1,000 draws."""
        with pytest.raises(ValueError) as err:
            sample_dataset(GenConfig(scenes=1, **kwargs), 0)
        assert str(err.value) == f"no height in {want}"


class TestRasterize:
    def test_empty_scene_is_pure_background(self):
        scene = sample_dataset(SMALL, seed=5)[0]
        empty = type(scene)(id=scene.id, extent=scene.extent, objects=(), seed=scene.seed)
        img = rasterize(empty)
        assert img.shape == (scene.extent[1], scene.extent[0])
        # No object patch: the grid stays near the background level.
        assert abs(img.mean() - BACKGROUND_LEVEL) < 0.05

    def test_images_match_recorded_digest(self, monkeypatch):
        """sha256 of three rendered scenes, recorded while the appearance
        constants were still fields of a render configuration."""
        monkeypatch.setattr(scenegen, "OBJECTS", (2, 6))
        cfg = GenConfig(scenes=3, extent=(160, 120))
        digest = hashlib.sha256()
        for scene in sample_dataset(cfg, seed=31):
            digest.update(rasterize(scene).tobytes())
        assert digest.hexdigest() == (
            "80d5f5f6c6085885d92188d90ebb2a60a238761477c4cde28f69bc4691d936f2"
        )

    def test_bit_identical_rerender(self):
        scene = sample_dataset(SMALL, seed=6)[3]
        a = rasterize(scene)
        b = rasterize(scene)
        assert np.array_equal(a, b)

    def test_object_contrast(self, monkeypatch):
        monkeypatch.setattr(scenegen, "OBJECTS", (2, 2))
        scene = sample_dataset(GenConfig(scenes=1, extent=(320, 240)), seed=8)[0]
        img = rasterize(scene)
        mask = np.zeros(img.shape, dtype=bool)
        for g in scene.objects:
            b = g.box
            mask[int(round(b.y)) : int(round(b.y2)), int(round(b.x)) : int(round(b.x2))] = True
        diff = img[mask].mean() - img[~mask].mean()
        assert diff == pytest.approx(CONTRAST, abs=0.05)

    @pytest.mark.parametrize(
        "shape", [(480, 640), (61, 97), (41, 39), (1, 1)], ids=["640x480", "97x61", "39x41", "1x1"]
    )
    @pytest.mark.parametrize("seed", [0, 17])
    def test_background_equals_out_of_place_oracle(self, shape, seed):
        # 39x41 has the smallest coarse grid, 2 x 2; 1x1 has one sample per axis.
        got = _background(np.random.default_rng(seed), shape)
        want = oracle_background(np.random.default_rng(seed), shape)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_a_few_images(self, monkeypatch):
        """At 640x480 rasterize holds at most 3.5 images' worth of
        full-resolution buffers at once; the out-of-place background and
        clip held over four."""
        monkeypatch.setattr(scenegen, "OBJECTS", (6, 6))
        scene = sample_dataset(GenConfig(scenes=1), seed=2)[0]
        image_bytes = 480 * 640 * 8
        tracemalloc.start()
        try:
            img = rasterize(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.nbytes == image_bytes
        assert peak <= 3.5 * image_bytes, peak / image_bytes

    def test_values_clipped_to_unit_interval(self):
        scene = sample_dataset(SMALL, seed=12)[0]
        img = rasterize(scene)
        assert img.min() >= 0.0 and img.max() <= 1.0

