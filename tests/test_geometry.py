import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import box_oracles as oracle
from scaleloc.anchors import generate_anchors, label_arrays
from scaleloc.featpyr import FeaturePyramid, LayerSpec, PyramidConfig, roi_pool_many, sample_plan
from scaleloc.geometry import (
    TRANSFORM_ACTIONS,
    BBox,
    StepConfig,
    TransformAction,
    apply_transform,
    apply_transforms,
    boxes_to_array,
    clip,
    clip_boxes,
    decode_regression,
    encode_regression,
    iou,
    iou_matrix,
)


def rasterized_iou(a: BBox, b: BBox, extent: int = 128) -> float:
    """Independent IoU oracle: count unit cells covered by each integer box."""
    grid_a = np.zeros((extent, extent), dtype=bool)
    grid_b = np.zeros((extent, extent), dtype=bool)
    grid_a[int(a.y) : int(a.y + a.h), int(a.x) : int(a.x + a.w)] = True
    grid_b[int(b.y) : int(b.y + b.h), int(b.x) : int(b.x + b.w)] = True
    inter = np.logical_and(grid_a, grid_b).sum()
    union = np.logical_or(grid_a, grid_b).sum()
    return float(inter) / float(union)


def random_int_box(rng, lo=0, hi=100, max_side=28) -> BBox:
    x = int(rng.integers(lo, hi - 1))
    y = int(rng.integers(lo, hi - 1))
    w = int(rng.integers(1, min(max_side, hi - x)))
    h = int(rng.integers(1, min(max_side, hi - y)))
    return BBox(float(x), float(y), float(w), float(h))


def random_float_boxes(rng, n, lo=-60.0, hi=160.0, max_side=80.0) -> list[BBox]:
    """Boxes anywhere in [lo, hi), many partly or wholly off a 100 px image."""
    corners = rng.uniform(lo, hi, size=(n, 2))
    sides = rng.uniform(0.25, max_side, size=(n, 2))
    return [BBox(*c, *s) for c, s in zip(corners.tolist(), sides.tolist())]


class TestBBox:
    def test_rejects_degenerate_sides(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    @pytest.mark.parametrize("field", range(4), ids=["x", "y", "w", "h"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_coordinate(self, field, bad):
        # BBox(nan, 0, 5, 5) used to construct, and clip kept its NaN.
        values = [0.0, 0.0, 5.0, 5.0]
        values[field] = bad
        with pytest.raises(ValueError, match=r"^box coordinates must be finite, got BBox\("):
            BBox(*values)

    def test_derived_coordinates(self):
        b = BBox(2, 3, 10, 20)
        assert (b.x2, b.y2) == (12, 23)
        assert b.as_tuple() == (2, 3, 10, 20)


class TestIoU:
    def test_identical_boxes(self):
        b = BBox(0, 0, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # 50 shared cells out of 150 in the union.
        got = iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_rasterization_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = random_int_box(rng)
            b = random_int_box(rng)
            assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-6)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_int_box(rng)
            b = random_int_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        boxes_a = [random_int_box(rng) for _ in range(17)]
        boxes_b = [random_int_box(rng) for _ in range(9)]
        mat = iou_matrix(boxes_to_array(boxes_a), boxes_to_array(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pytest.approx(oracle.iou(a, b), abs=1e-12)

    def test_one_box_call_equals_scalar_oracle_exactly(self):
        rng = np.random.default_rng(13)
        boxes = random_float_boxes(rng, 400)
        for a, b in zip(boxes[::2], boxes[1::2]):
            got = iou(a, b)
            assert type(got) is float
            assert got == oracle.iou(a, b)

    def test_matrix_empty_sides(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)


class TestApplyTransform:
    cfg = StepConfig()

    def test_move_right(self):
        got = apply_transform(BBox(10, 10, 20, 40), TransformAction.MOVE_RIGHT, self.cfg)
        assert got == BBox(12, 10, 20, 40)

    def test_move_up(self):
        got = apply_transform(BBox(10, 10, 20, 40), TransformAction.MOVE_UP, self.cfg)
        assert got == BBox(10, 6, 20, 40)

    def test_taller_is_center_fixed(self):
        got = apply_transform(BBox(0, 0, 10, 10), TransformAction.TALLER, self.cfg)
        assert got.x == pytest.approx(0)
        assert got.y == pytest.approx(-1)
        assert got.w == pytest.approx(10)
        assert got.h == pytest.approx(12)

    def test_shorter_then_taller_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = BBox(*rng.uniform(5, 50, size=2), *rng.uniform(10, 60, size=2))
            back = apply_transform(
                apply_transform(b, TransformAction.SHORTER, self.cfg),
                TransformAction.TALLER,
                self.cfg,
            )
            assert back.h == pytest.approx(b.h, rel=1e-12)
            assert back.y + back.h / 2.0 == pytest.approx(b.y + b.h / 2.0, rel=1e-12)

    def test_move_left_right_inverse(self):
        b = BBox(30, 40, 16, 24)
        there = apply_transform(b, TransformAction.MOVE_RIGHT, self.cfg)
        back = apply_transform(there, TransformAction.MOVE_LEFT, self.cfg)
        assert back.x == pytest.approx(b.x, abs=1e-12)
        assert back.as_tuple()[1:] == b.as_tuple()[1:]

    @given(
        x=st.floats(-50, 50),
        y=st.floats(-50, 50),
        w=st.floats(2.5, 200),
        h=st.floats(2.5, 200),
        action=st.sampled_from(TRANSFORM_ACTIONS),
    )
    @settings(max_examples=300, deadline=None)
    def test_min_side_always_respected(self, x, y, w, h, action):
        cfg = StepConfig(min_side=2.0)
        out = apply_transform(BBox(x, y, w, h), action, cfg)
        assert out.w >= cfg.min_side
        assert out.h >= cfg.min_side

    def test_determinism(self):
        b = BBox(5, 6, 7, 8)
        for action in TRANSFORM_ACTIONS:
            assert apply_transform(b, action, self.cfg) == apply_transform(b, action, self.cfg)

    def test_actions_are_their_own_indices(self):
        assert [int(a) for a in TRANSFORM_ACTIONS] == list(range(8))
        assert all(TRANSFORM_ACTIONS[a] is a for a in TransformAction)

    @pytest.mark.parametrize("action", TRANSFORM_ACTIONS, ids=lambda a: a.name)
    def test_one_box_call_equals_scalar_oracle_exactly(self, action):
        rng = np.random.default_rng(int(action))
        boxes = random_float_boxes(rng, 200, max_side=4.0) + random_float_boxes(rng, 200)
        for b in boxes:
            assert apply_transform(b, action, self.cfg) == oracle.transform(b, action, self.cfg)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-100, 100),
                st.floats(-100, 100),
                st.one_of(st.floats(0.25, 4.0), st.floats(0.25, 300)),
                st.one_of(st.floats(0.25, 4.0), st.floats(0.25, 300)),
                st.sampled_from(TRANSFORM_ACTIONS),
            ),
            max_size=24,
        ),
        cfg=st.sampled_from(
            [StepConfig(), StepConfig(move_ratio=0.3, scale_factor=1.7, min_side=0.5)]
        ),
    )
    @example(rows=[], cfg=StepConfig())
    @example(rows=[(1.0, 2.0, 1.9, 2.3, TransformAction.SHORTER)], cfg=StepConfig())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_scalar_oracle(self, rows, cfg):
        """Row by row, the array form gives the oracle's bits, with sides
        on both sides of the ``min_side`` floor, for K = 0 and K = 1 too."""
        boxes = np.array([r[:4] for r in rows], dtype=np.float64).reshape(-1, 4)
        actions = np.array([int(r[4]) for r in rows], dtype=np.int64)
        want = [oracle.transform(BBox(*r[:4]), r[4], cfg).as_tuple() for r in rows]
        got = apply_transforms(boxes, actions, cfg)
        assert got.shape == (len(rows), 4)
        assert np.array_equal(got, np.array(want).reshape(-1, 4))

    @pytest.mark.parametrize("bad", [8, -1])
    def test_action_index_out_of_range_rejected(self, bad):
        boxes = np.array([[0.0, 0.0, 4.0, 8.0], [1.0, 1.0, 4.0, 8.0]])
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            apply_transforms(boxes, [0, bad], self.cfg)

    def test_action_count_and_type_checked(self):
        boxes = np.array([[0.0, 0.0, 4.0, 8.0]])
        with pytest.raises(ValueError, match="integer actions"):
            apply_transforms(boxes, [1, 2], self.cfg)
        with pytest.raises(ValueError, match="integer actions"):
            apply_transforms(boxes, [2.5], self.cfg)


class TestClip:
    def test_left_truncation(self):
        assert clip(BBox(-5, 0, 10, 10), (100, 100)) == BBox(0, 0, 5, 10)

    def test_interior_box_unchanged(self):
        b = BBox(10, 20, 30, 40)
        assert clip(b, (100, 100)) == b

    def test_corner_truncation(self):
        assert clip(BBox(95, 95, 20, 20), (100, 100)) == BBox(95, 95, 5, 5)

    def test_fully_outside_returns_min_side_box(self):
        got = clip(BBox(-30, -30, 10, 10), (100, 100))
        assert (got.w, got.h) == (2.0, 2.0)
        assert (got.x, got.y) == (0.0, 0.0)

    def test_outside_one_axis(self):
        got = clip(BBox(105, 50, 10, 10), (100, 100))
        assert (got.w, got.h) == (2.0, 2.0)
        assert got.x == pytest.approx(98.0)
        assert got.y == pytest.approx(54.0)

    def test_array_clip_matches_scalar(self):
        # Boxes inside, straddling and wholly off the image, the last
        # taking the MIN_SIDE fallback (narrowed on a 1 px wide image).
        rng = np.random.default_rng(5)
        boxes = random_float_boxes(rng, 300)
        for extent in [(100, 100), (37, 120), (1, 3)]:
            arr = clip_boxes(boxes_to_array(boxes), extent)
            assert arr.shape == (300, 4)
            for row, b in zip(arr.tolist(), boxes):
                want = oracle.clip(b, extent)
                assert tuple(row) == want.as_tuple()
                assert clip(b, extent) == want

    def test_disjoint_rows_take_the_fallback(self):
        arr = clip_boxes([[-30, -30, 10, 10], [10, 20, 30, 40], [105, 50, 10, 10]], (100, 100))
        np.testing.assert_array_equal(
            arr, [[0, 0, 2, 2], [10, 20, 30, 40], [98, 54, 2, 2]]
        )

    def test_empty_and_bad_extent(self):
        assert clip_boxes(np.zeros((0, 4)), (10, 10)).shape == (0, 4)
        with pytest.raises(ValueError):
            clip_boxes(np.zeros((1, 4)), (0, 10))
        with pytest.raises(ValueError):
            clip(BBox(0, 0, 1, 1), (10, -1))
        with pytest.raises(ValueError, match=r"^extent must be a \(width, height\) pair, got"):
            clip_boxes(np.zeros((1, 4)), (10, 10, 10))

    @pytest.mark.parametrize("column", range(4), ids=["x", "y", "w", "h"])
    def test_row_with_a_nan_rejected(self, column):
        """clip_boxes([[nan, 0, 5, 5]], (64, 48)) used to return
        [[nan, 1.5, 2, 2]]: a NaN box passed as a clipped one."""
        boxes = np.array([[1.0, 2.0, 5.0, 5.0], [3.0, 4.0, 5.0, 5.0], [5.0, 6.0, 5.0, 5.0]])
        boxes[1, column] = math.nan
        want = re.escape(f"box 1 has a NaN coordinate: {boxes[1].tolist()}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            clip_boxes(boxes, (64, 48))

    @pytest.mark.parametrize(
        "box",
        [[-math.inf, 0, math.inf, 5], [0, math.inf, 5, -math.inf], [math.inf, 0, -math.inf, 5]],
        ids=["x", "y", "positive-corner"],
    )
    def test_row_with_a_nan_far_corner_rejected(self, box):
        """clip_boxes([[-inf, 0, inf, 5]], (64, 48)) used to warn of an
        invalid value and return [[nan, 1.5, 2, 2]]: x + w is NaN."""
        boxes = np.array([[1.0, 2.0, 5.0, 5.0], box])
        want = re.escape(f"box 1 has a NaN coordinate: {boxes[1].tolist()}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            clip_boxes(boxes, (64, 48))

    def test_infinite_corner_with_a_finite_side_goes_to_the_edge(self):
        got = clip_boxes([[-math.inf, 0, 5, 5], [math.inf, 0, 5, 5]], (64, 48))
        np.testing.assert_array_equal(got, [[0, 1.5, 2, 2], [62, 1.5, 2, 2]])

    @pytest.mark.parametrize("x", [1e308, 1.7e308], ids=["far-corner", "far-corner-and-center"])
    def test_overflowing_far_corner_goes_to_the_edge(self, x):
        """clip_boxes([[1e308, 0, 1e308, 5]], (64, 48)) used to warn of an
        overflow in x + w, and a row at 1.7e308 in x + w / 2 as well: a
        sum past the largest float is +inf, as a +inf corner is."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clip_boxes([[x, 0, x, 5]], (64, 48))
        np.testing.assert_array_equal(got, [[62, 1.5, 2, 2]])

    @pytest.mark.parametrize(
        "extent, name",
        [((math.nan, 10), "extent width"), ((10, math.inf), "extent height"),
         ((10.5, 10), "extent width"), ((True, 10), "extent width")],
    )
    def test_extent_must_be_a_pair_of_counts(self, extent, name):
        # A NaN extent used to return NaN boxes.
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1, got"):
            clip_boxes(np.zeros((1, 4)), extent)


class TestRegressionEncoding:
    def test_identity_target(self):
        a = [[3, 4, 10, 20]]
        np.testing.assert_allclose(encode_regression(a, a), np.zeros((1, 4)), atol=0)
        np.testing.assert_array_equal(decode_regression(a, np.zeros((1, 4))), a)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        a = np.concatenate([rng.uniform(0, 80, (100, 2)), rng.uniform(1, 50, (100, 2))], axis=1)
        t = np.concatenate([rng.uniform(0, 80, (100, 2)), rng.uniform(1, 50, (100, 2))], axis=1)
        back = decode_regression(a, encode_regression(a, t))
        assert back.shape == (100, 4)
        assert np.abs(back - t).max() < 1e-9

    def test_normalized_log_sizes(self):
        vec = encode_regression([[0, 0, 10, 20]], [[5, 10, 20, 10]])
        np.testing.assert_allclose(vec, [[0.5, 0.5, math.log(2.0), math.log(0.5)]], atol=1e-12)

    def test_rows_match_scalar_oracles(self):
        rng = np.random.default_rng(23)
        anchors = random_float_boxes(rng, 200, max_side=60.0)
        targets = random_float_boxes(rng, 200, max_side=60.0)
        vecs = encode_regression(boxes_to_array(anchors), boxes_to_array(targets))
        offsets = rng.uniform(-3, 3, size=(200, 4)) * [1, 1, 40, 40]
        decoded = decode_regression(boxes_to_array(anchors), offsets)
        for i, (a, t) in enumerate(zip(anchors, targets)):
            np.testing.assert_allclose(vecs[i], oracle.encode(a, t), rtol=1e-12, atol=0)
            want = oracle.decode(a, offsets[i]).as_tuple()
            np.testing.assert_allclose(decoded[i], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [0, 1, 7, 4800])
    def test_row_layout_equals_column_pairs(self, n):
        """The codec computes on (4, N) rows; the same arithmetic on (N, 2)
        column pairs of the (N, 4) arrays gives the same bits."""
        rng = np.random.default_rng(n)
        a = np.concatenate([rng.uniform(0, 600, (n, 2)), rng.uniform(1, 300, (n, 2))], axis=1)
        t = np.concatenate([rng.uniform(0, 600, (n, 2)), rng.uniform(1, 300, (n, 2))], axis=1)
        v = rng.normal(0.0, 3.0, (n, 4))
        pairs = np.concatenate([(t[:, :2] - a[:, :2]) / a[:, 2:], np.log(t[:, 2:] / a[:, 2:])], 1)
        sides = a[:, 2:] * np.exp(np.minimum(v[:, 2:], oracle.LOG_RATIO_MAX))
        decoded = np.concatenate([a[:, :2] + v[:, :2] * a[:, 2:], np.maximum(sides, 1.0)], 1)
        assert encode_regression(a, t).shape == decode_regression(a, v).shape == (n, 4)
        np.testing.assert_array_equal(encode_regression(a, t), pairs)
        np.testing.assert_array_equal(decode_regression(a, v), decoded)

    def test_sides_floored_at_one_pixel(self):
        a = [[10, 20, 5, 8], [10, 20, 5, 8]]
        norm = decode_regression(a, [[0, 0, -800, -3], [0, 0, 0, 0]])
        np.testing.assert_array_equal(norm[:, 2:], [[1, 1], [5, 8]])

    @given(
        offsets=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4),
        w=st.floats(0.5, 500),
        h=st.floats(0.5, 500),
    )
    @example(offsets=[0.0, 0.0, 800.0, 800.0], w=20.0, h=48.0)
    @example(offsets=[0.0, 0.0, -800.0, -800.0], w=20.0, h=48.0)
    @settings(max_examples=300, deadline=None)
    def test_decode_survives_extreme_offsets(self, offsets, w, h):
        anchor = [[10.0, 20.0, w, h]]
        out = decode_regression(anchor, [offsets])[0]
        assert np.all(np.isfinite(out))
        assert out[2] >= 1.0 and out[3] >= 1.0
        assert out[2] <= max(w * 62.5 * (1 + 1e-12), 1.0)
        assert out[3] <= max(h * 62.5 * (1 + 1e-12), 1.0)

    @pytest.mark.parametrize("shift", [1e307, -1e307, 1e308, -np.finfo(np.float64).max])
    def test_overflowing_corner_shift_warns_nothing(self, shift):
        """A corner shift past the float range gives a +-inf corner with no
        warning, under the suite's warnings-as-errors setting and under
        ``np.seterr(over="raise")``, and clipping puts the box at the
        image edge."""
        anchors = [[600.0, 400.0, 48.0, 96.0]] * 2
        offsets = [[shift, 0.0, 0.0, 0.0], [0.0, shift, 0.0, 0.0]]
        decoded = decode_regression(anchors, offsets)
        clipped = clip_boxes(decoded, (640, 480))
        with np.errstate(over="raise"):
            np.testing.assert_array_equal(decode_regression(anchors, offsets), decoded)
            np.testing.assert_array_equal(clip_boxes(decoded, (640, 480)), clipped)
        edge = np.inf if shift > 0 else -np.inf
        np.testing.assert_array_equal(decoded[:, :2], [[edge, 400.0], [600.0, edge]])
        # The other side stays at the box center, (624, 448), less 1 px.
        x, y = (638.0, 478.0) if shift > 0 else (0.0, 0.0)
        np.testing.assert_array_equal(clipped, [[x, 447.0, 2.0, 2.0], [623.0, y, 2.0, 2.0]])

    def test_corner_shift_within_range_unchanged(self):
        """Finite corners are the same bits as the plain arithmetic."""
        rng = np.random.default_rng(5)
        a = np.concatenate([rng.uniform(0, 600, (50, 2)), rng.uniform(1, 300, (50, 2))], axis=1)
        v = rng.normal(0.0, 1e300, (50, 4))
        v[:, 2:] = 0.0
        with np.errstate(over="ignore"):
            want = a[:, :2] + v[:, :2] * a[:, 2:]
        np.testing.assert_array_equal(decode_regression(a, v)[:, :2], want)


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(move_ratio=0)
        with pytest.raises(ValueError):
            StepConfig(scale_factor=1.0)
        with pytest.raises(ValueError):
            StepConfig(min_side=-1)

    @pytest.mark.parametrize(
        "field, value, bound",
        [
            ("move_ratio", math.nan, 0),
            ("move_ratio", True, 0),
            ("scale_factor", math.inf, 1),
            ("scale_factor", math.nan, 1),
            ("min_side", -math.inf, 0),
        ],
    )
    def test_non_finite_steps_rejected(self, field, value, bound):
        # move_ratio nan used to construct and make apply_transforms return a NaN box.
        want = f"^{field} must be a finite number above {bound}, got {value!r}"
        with pytest.raises(ValueError, match=want):
            StepConfig(**{field: value})


ONE_BOX = np.array([[1.0, 2.0, 8.0, 8.0]])
ONE_LAYER = PyramidConfig(layers=(LayerSpec(3, 8, 2),))
# Each public function that takes an array of boxes, with ``b`` in that
# place and well-formed arguments elsewhere.
BOX_ENTRY_POINTS = {
    "iou_matrix(a)": lambda b: iou_matrix(b, ONE_BOX),
    "iou_matrix(b)": lambda b: iou_matrix(ONE_BOX, b),
    "clip_boxes": lambda b: clip_boxes(b, (32, 24)),
    "apply_transforms": lambda b: apply_transforms(b, [0], StepConfig()),
    "encode_regression(anchors)": lambda b: encode_regression(b, ONE_BOX),
    "encode_regression(targets)": lambda b: encode_regression(ONE_BOX, b),
    "decode_regression(anchors)": lambda b: decode_regression(b, ONE_BOX),
    "decode_regression(offsets)": lambda b: decode_regression(ONE_BOX, b),
    "roi_pool_many": lambda b: roi_pool_many(
        FeaturePyramid(extent=(32, 24), strides={3: 8}, grids={3: np.ones((3, 4, 2))}), 3, b
    ),
    "sample_plan": lambda b: sample_plan(b, [3], ONE_LAYER, (32, 24)),
    "label_arrays": lambda b: label_arrays(generate_anchors(ONE_LAYER, (32, 24), {3: 16.0}), b),
}


class TestBoxArrayShape:
    @pytest.mark.parametrize(
        "shape", [(4, 5), (4, 3), (4,), (8,), (0,), (2, 2, 4)], ids=lambda s: "x".join(map(str, s))
    )
    @pytest.mark.parametrize("entry", sorted(BOX_ENTRY_POINTS))
    def test_rows_must_be_four_wide(self, entry, shape):
        # (4, 5) used to pool 5 boxes and (4, 3) to clip 3: values regrouped four by four.
        boxes = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
        want = re.escape(f"expected (N, 4) boxes, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            BOX_ENTRY_POINTS[entry](boxes)

    @pytest.mark.parametrize("entry", sorted(BOX_ENTRY_POINTS))
    def test_one_row_of_four_accepted(self, entry):
        assert len(BOX_ENTRY_POINTS[entry](ONE_BOX.tolist())) > 0
