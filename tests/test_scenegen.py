import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaleloc.geometry import BBox
from scaleloc.scenegen import (
    ASPECT_BAND,
    DatasetFormatError,
    GenConfig,
    GroundTruth,
    RenderConfig,
    Scene,
    read_dataset,
    rasterize,
    sample_dataset,
    write_dataset,
)


SMALL = GenConfig(scenes=20, extent=(160, 120), objects_min=1, objects_max=4)


class TestSampling:
    def test_same_seed_same_dataset(self):
        a = sample_dataset(SMALL, seed=9)
        b = sample_dataset(SMALL, seed=9)
        assert a == b

    def test_different_seed_differs(self):
        a = sample_dataset(SMALL, seed=9)
        b = sample_dataset(SMALL, seed=10)
        assert a != b

    def test_far_scale_fraction_under_defaults(self):
        # Enough scenes for ~1000 objects under the default law.
        cfg = GenConfig(scenes=300, objects_min=3, objects_max=4)
        heights = [
            g.box.h for s in sample_dataset(cfg, seed=7) for g in s.objects
        ]
        assert len(heights) >= 1000
        far = np.mean([h < 80.0 for h in heights])
        assert 0.60 <= far <= 0.85

    def test_single_object_range(self):
        cfg = GenConfig(scenes=10, objects_min=1, objects_max=1)
        for scene in sample_dataset(cfg, seed=3):
            assert len(scene.objects) == 1

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
            GenConfig(objects_min=3, objects_max=2)
        with pytest.raises(ValueError):
            GenConfig(height_median=-5)


class TestRasterize:
    def test_empty_scene_is_pure_background(self):
        scene = sample_dataset(SMALL, seed=5)[0]
        empty = type(scene)(id=scene.id, extent=scene.extent, objects=(), seed=scene.seed)
        img = rasterize(empty)
        assert img.shape == (scene.extent[1], scene.extent[0])
        # No object patch: the grid stays near the background level.
        assert abs(img.mean() - RenderConfig().background_level) < 0.05

    def test_bit_identical_rerender(self):
        scene = sample_dataset(SMALL, seed=6)[3]
        a = rasterize(scene)
        b = rasterize(scene)
        assert np.array_equal(a, b)

    def test_object_contrast(self):
        render = RenderConfig()
        scene = sample_dataset(GenConfig(scenes=1, extent=(320, 240), objects_min=2, objects_max=2), seed=8)[0]
        img = rasterize(scene, render)
        mask = np.zeros(img.shape, dtype=bool)
        for g in scene.objects:
            b = g.box
            mask[int(round(b.y)) : int(round(b.y2)), int(round(b.x)) : int(round(b.x2))] = True
        diff = img[mask].mean() - img[~mask].mean()
        assert diff == pytest.approx(render.contrast, abs=0.05)

    def test_values_clipped_to_unit_interval(self):
        scene = sample_dataset(SMALL, seed=12)[0]
        img = rasterize(scene)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = GenConfig(scenes=100, extent=(160, 120))
        scenes = sample_dataset(cfg, seed=13)
        path = tmp_path / "data.jsonl"
        write_dataset(path, scenes)
        assert read_dataset(path) == scenes

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_dataset(path) == []

    def test_truncated_record_names_line(self, tmp_path):
        scenes = sample_dataset(SMALL, seed=14)[:3]
        path = tmp_path / "trunc.jsonl"
        write_dataset(path, scenes)
        text = path.read_text().splitlines()
        text[2] = text[2][: len(text[2]) // 2]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        scenes = sample_dataset(SMALL, seed=15)[:1]
        path = tmp_path / "dup.jsonl"
        write_dataset(path, scenes + scenes)
        with pytest.raises(DatasetFormatError, match="duplicate"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("extent", [-5, 10], "extent width must be a whole number >= 1"),
            ("extent", [64, 0], "extent height must be a whole number >= 1"),
            ("extent", [64.7, 48], "extent width must be a whole number >= 1, got 64.7"),
            ("extent", [64, "48"], "extent height must be a whole number >= 1, got '48'"),
            ("extent", [64, 48, 1], "too many values"),
            ("seed", -1, "scene seed must be a whole number >= 0"),
            ("seed", 2.5, "scene seed must be a whole number >= 0, got 2.5"),
            ("seed", float("inf"), "line 1: cannot convert float infinity"),
            ("appearance_seed", True, "appearance seed must be a whole number"),
            ("appearance_seed", -3, "appearance seed must be a whole number >= 0"),
            ("box", [1.0, 2.0, float("inf"), 4.0], "box values must be finite"),
            ("box", [float("nan"), 2.0, 3.0, 4.0], "box values must be finite"),
            ("box", [1.0, 2.0, 10**400, 4.0], "line 1: int too large"),
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, field, value, message):
        """Bad extents, seeds and boxes fail on reading with the module's
        error, not later inside rasterize."""
        rec = {
            "id": "s",
            "extent": [64, 48],
            "seed": 5,
            "objects": [{"box": [1.0, 2.0, 3.0, 4.0], "appearance_seed": 7}],
        }
        if field in rec:
            rec[field] = value
        else:
            rec["objects"][0][field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path)

    @given(
        scenes=st.lists(
            st.builds(
                lambda extent, seed, boxes: (extent, seed, boxes),
                st.tuples(st.integers(1, 4096), st.integers(1, 4096)),
                st.integers(0, 2**64),
                st.lists(
                    st.tuples(
                        st.floats(-1e6, 1e6),
                        st.floats(-1e6, 1e6),
                        st.floats(1e-6, 1e6),
                        st.floats(1e-6, 1e6),
                        st.integers(0, 2**31 - 1),
                    ),
                    max_size=4,
                ),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_write_read_round_trip_property(self, tmp_path_factory, scenes):
        want = [
            Scene(
                id=f"scene-{i}",
                extent=extent,
                objects=tuple(GroundTruth(BBox(*box[:4]), box[4]) for box in boxes),
                seed=seed,
            )
            for i, (extent, seed, boxes) in enumerate(scenes)
        ]
        path = tmp_path_factory.mktemp("io") / "data.jsonl"
        write_dataset(path, want)
        assert read_dataset(path) == want
