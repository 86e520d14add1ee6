import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_oracles as oracle
from scaleloc import anchors as anchors_mod
from scaleloc.anchors import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    generate_anchors,
    label_arrays,
    sample_minibatch_indices,
)
from scaleloc.featpyr import PyramidConfig
from scaleloc.geometry import BBox, boxes_to_array, clip_boxes
from scaleloc.proposal import LayerWeightConfig
from scaleloc.scenegen import ASPECT_RATIO, GenConfig, sample_dataset


CFG = PyramidConfig()
HEIGHTS = LayerWeightConfig().base_heights()


def per_cell_anchors(cfg, extent, base_heights):
    """Independent generation oracle: one loop iteration per lattice cell."""
    width, height = extent
    boxes, layers, heights = [], [], []
    for spec in cfg.layers:
        h = float(base_heights[spec.layer_id])
        w = ASPECT_RATIO * h
        for i in range(-(-height // spec.stride)):
            cy = (i + 0.5) * spec.stride
            for j in range(-(-width // spec.stride)):
                cx = (j + 0.5) * spec.stride
                boxes.append((cx - w / 2.0, cy - h / 2.0, w, h))
                layers.append(spec.layer_id)
                heights.append(h)
    return np.array(boxes), np.array(layers), np.array(heights)


def anchor_bboxes(anchors):
    return [BBox(*row) for row in anchors.boxes.tolist()]


def brute_force_labels(anchors, gts, extent, iou_pos=0.5, iou_neg=0.3):
    """Independent O(A*G) labeling oracle, plain loops only.

    Returns per-anchor labels, matched ground-truth indices (-1 when
    unmatched) and target heights."""
    boxes = anchor_bboxes(anchors)
    n = len(boxes)
    ious = [[oracle.iou(oracle.clip(a, extent), g) for g in gts] for a in boxes]

    def best_gt(i):
        row = ious[i]
        j_best, v_best = 0, row[0]
        for j, v in enumerate(row):
            if v > v_best:
                j_best, v_best = j, v
        return j_best, v_best

    positive = [False] * n
    if gts:
        for i in range(n):
            if best_gt(i)[1] > iou_pos:
                positive[i] = True
        for j in range(len(gts)):
            i_best, v_best = 0, ious[0][j]
            for i in range(n):
                if ious[i][j] > v_best:
                    i_best, v_best = i, ious[i][j]
            if v_best > 0.0:
                positive[i_best] = True

    labels, matched, target_h = [], [], []
    for i in range(n):
        if positive[i]:
            j, _ = best_gt(i)
            labels.append(POSITIVE)
            matched.append(j)
            target_h.append(gts[j].h)
        elif not gts or best_gt(i)[1] < iou_neg:
            labels.append(NEGATIVE)
            matched.append(-1)
            target_h.append(anchors.boxes[i, 3])
        else:
            labels.append(IGNORE)
            matched.append(-1)
            target_h.append(anchors.boxes[i, 3])
    return labels, matched, target_h


def label(anchors, gts):
    """(labels, matched, target heights) of an anchor set against BBoxes."""
    return label_arrays(anchors, boxes_to_array(gts))


class TestGenerateAnchors:
    def test_layer3_count_for_vga(self):
        anchors = generate_anchors(CFG, (640, 480), HEIGHTS)
        assert int((anchors.layer_ids == 3).sum()) == 4800

    def test_total_count_matches_lattice_sum(self):
        extent = (300, 220)
        anchors = generate_anchors(CFG, extent, HEIGHTS)
        expect = 0
        for spec in CFG.layers:
            expect += (-(-extent[0] // spec.stride)) * (-(-extent[1] // spec.stride))
        assert len(anchors) == expect
        assert anchors.boxes.shape == (expect, 4)
        assert anchors.layer_ids.shape == (expect,)

    def test_aspect_ratio_exact(self):
        anchors = generate_anchors(CFG, (160, 120), HEIGHTS)
        assert np.all(anchors.boxes[:, 2] == ASPECT_RATIO * anchors.boxes[:, 3])
        base = np.array([HEIGHTS[i] for i in anchors.layer_ids.tolist()])
        assert np.all(anchors.boxes[:, 3] == base)

    def test_centers_on_stride_lattice(self):
        anchors = generate_anchors(CFG, (80, 80), HEIGHTS)
        strides = {spec.layer_id: spec.stride for spec in CFG.layers}
        for a, layer_id in zip(anchor_bboxes(anchors), anchors.layer_ids.tolist()):
            stride = strides[layer_id]
            assert ((a.x + a.w / 2.0) / stride) % 1.0 == pytest.approx(0.5)
            assert ((a.y + a.h / 2.0) / stride) % 1.0 == pytest.approx(0.5)

    @pytest.mark.parametrize("extent", [(640, 480), (300, 220), (97, 61), (1, 1)])
    def test_equals_per_cell_loop(self, extent):
        """The lattice equals the per-cell loop, and the stored clipped
        boxes equal clipping it."""
        anchors = generate_anchors(CFG, extent, HEIGHTS)
        boxes, layers, heights = per_cell_anchors(CFG, extent, HEIGHTS)
        assert np.array_equal(anchors.boxes, boxes)
        assert np.array_equal(anchors.layer_ids, layers)
        assert np.array_equal(anchors.boxes[:, 3], heights)
        assert anchors.extent == extent
        assert np.array_equal(anchors.clipped, clip_boxes(boxes, extent))

    @pytest.mark.parametrize(
        "extent, name",
        [((640.5, 480), "extent width"), ((640, 0), "extent height"), ((640, True), "extent height")],
    )
    def test_extent_must_be_a_pair_of_counts(self, extent, name):
        # (640.5, 480) used to build 6,405 anchors that match no pyramid.
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1, got"):
            generate_anchors(CFG, extent, HEIGHTS)

    def test_missing_base_height_names_the_layers(self):
        with pytest.raises(ValueError, match=r"pyramid layers \[5\] have no base height"):
            generate_anchors(CFG, (64, 48), {3: 48.0, 4: 96.0})
        with pytest.raises(ValueError, match=r"pyramid layers \[3, 5\] have no base height"):
            generate_anchors(CFG, (64, 48), {4: 96.0})

    @pytest.mark.parametrize("bad", [-48.0, 0, np.nan, np.inf, True])
    def test_base_height_must_be_positive(self, bad):
        # -48 used to give anchors of sides (-19.68, -48) that clip to 2 px
        # squares, and NaN to fail later in the sample plan without naming it.
        want = f"^layer 4 base height must be a finite number above 0, got {bad!r}$"
        with pytest.raises(ValueError, match=want):
            generate_anchors(CFG, (64, 48), {**HEIGHTS, 4: bad})

    def test_unused_base_height_is_not_checked(self):
        anchors = generate_anchors(CFG, (64, 48), {**HEIGHTS, 9: -1.0})
        assert np.array_equal(anchors.boxes, generate_anchors(CFG, (64, 48), HEIGHTS).boxes)


class TestLabeling:
    extent = (160, 120)

    def anchors(self):
        return generate_anchors(CFG, self.extent, HEIGHTS)

    def test_high_iou_is_positive(self):
        anchors = self.anchors()
        # Ground truth exactly on top of a layer-3 anchor.
        target = anchor_bboxes(anchors)[150]
        labels, matched, target_h = label(anchors, [target])
        assert labels[150] == POSITIVE
        assert matched[150] == 0
        assert target_h[150] == target.h

    def test_low_iou_is_negative_and_target_height_is_anchor_height(self):
        anchors = self.anchors()
        gt = BBox(1, 1, 4, 10)
        labels, matched, target_h = label(anchors, [gt])
        assert labels[-1] == NEGATIVE
        assert matched[-1] == -1
        assert target_h[-1] == anchors.boxes[-1, 3]

    def test_best_anchor_rescues_midband_iou(self):
        # A ground truth whose best anchor sits in the ignore band still
        # gets exactly that anchor as positive.
        anchors = self.anchors()
        boxes = anchor_bboxes(anchors)
        gt = BBox(40, 30, 30, 73)  # aspect 0.41-ish but offset from lattice
        labels, _, _ = label(anchors, [gt])
        best = max(
            range(len(boxes)),
            key=lambda i: oracle.iou(oracle.clip(boxes[i], self.extent), gt),
        )
        assert labels[best] == POSITIVE

    def test_empty_gt_list_all_negative(self):
        anchors = self.anchors()
        labels, matched, target_h = label_arrays(anchors, np.zeros((0, 4)))
        assert np.all(labels == NEGATIVE)
        assert np.all(matched == -1)
        assert np.array_equal(target_h, anchors.boxes[:, 3])

    @pytest.mark.parametrize(
        "bad, want",
        [
            ([10.0, 10.0, -5.0, 20.0], r"has a side of at most 0: \[10\.0, 10\.0, -5\.0, 20\.0\]$"),
            ([10.0, 10.0, 0.0, 0.0], "has a side of at most 0"),
            ([10.0, np.nan, 8.0, 20.0], "has a non-finite coordinate or corner"),
            ([1e308, 0.0, 1e308, 8.0], "has a non-finite coordinate or corner"),
        ],
        ids=["negative-width", "zero-by-zero", "nan-corner", "overflowing-corner"],
    )
    def test_malformed_gt_box_names_its_row(self, bad, want):
        # The first three used to give zero positives without an error, the
        # last an overflow warning.
        gt_boxes = np.array([[40.0, 30.0, 30.0, 73.0], bad])
        with pytest.raises(ValueError, match=f"^box 1 {want}"):
            label_arrays(self.anchors(), gt_boxes)

    def test_every_overlapped_gt_has_a_positive(self):
        cfg = GenConfig(scenes=10, extent=self.extent)
        anchors = self.anchors()
        boxes = anchor_bboxes(anchors)
        for scene in sample_dataset(cfg, seed=31):
            labels, matched, _ = label(anchors, scene.gt_boxes)
            for gt in scene.gt_boxes:
                overlapped = any(
                    oracle.iou(oracle.clip(a, self.extent), gt) > 0 for a in boxes
                )
                if overlapped:
                    assert np.any((labels == POSITIVE) & (matched >= 0))

    def test_matches_brute_force_oracle(self):
        cfg = GenConfig(scenes=12, extent=self.extent)
        anchors = self.anchors()
        for scene in sample_dataset(cfg, seed=77):
            got = label(anchors, scene.gt_boxes)
            labels, matched, target_h = brute_force_labels(
                anchors, scene.gt_boxes, self.extent
            )
            for i in range(len(anchors)):
                assert got[0][i] == labels[i], f"anchor {i} in {scene.id}"
                assert got[1][i] == matched[i]
                assert got[2][i] == pytest.approx(target_h[i])

    def test_label_partition_is_exhaustive_and_disjoint(self):
        anchors = self.anchors()
        gt = BBox(50, 40, 20, 48)
        labels, _, _ = label(anchors, [gt])
        assert set(labels.tolist()) <= {POSITIVE, NEGATIVE, IGNORE}

    def test_positive_has_a_matched_gt(self):
        anchors = self.anchors()
        gts = [BBox(50, 40, 20, 48), BBox(100, 20, 30, 70)]
        labels, matched, target_h = label(anchors, gts)
        pos = labels == POSITIVE
        assert pos.any()
        assert np.all(matched[pos] >= 0) and np.all(matched[~pos] == -1)
        np.testing.assert_array_equal(target_h[pos], boxes_to_array(gts)[matched[pos], 3])

    @given(
        extent=st.tuples(st.integers(1, 97), st.integers(1, 61)),
        gts=st.lists(
            st.tuples(
                st.floats(-40, 100), st.floats(-40, 70), st.floats(1, 60), st.floats(1, 120)
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_scenes_match_brute_force_oracle(self, extent, gts):
        """Random ground truths, some off the image, on ragged extents."""
        anchors = generate_anchors(CFG, extent, HEIGHTS)
        gts = [BBox(*g) for g in gts]
        labels, matched, target_h = label(anchors, gts)
        want = brute_force_labels(anchors, gts, extent)
        assert labels.tolist() == want[0]
        assert matched.tolist() == want[1]
        assert target_h.tolist() == want[2]

        # The three labels partition the anchors.
        counts = [int((labels == v).sum()) for v in (POSITIVE, NEGATIVE, IGNORE)]
        assert sum(counts) == len(anchors)
        # Every ground truth that overlaps some anchor claims a positive.
        clipped = [oracle.clip(a, extent) for a in anchor_bboxes(anchors)]
        for gt in gts:
            overlaps = [oracle.iou(a, gt) for a in clipped]
            if max(overlaps) > 0:
                assert labels[int(np.argmax(overlaps))] == POSITIVE


class TestMinibatch:
    def build(self, n_pos, n_neg, n_ign=5):
        return np.array([POSITIVE] * n_pos + [NEGATIVE] * n_neg + [IGNORE] * n_ign)

    def sample(self, labels, rng):
        pos_take, neg_take = sample_minibatch_indices(labels, None, rng)
        return np.concatenate([pos_take, neg_take])

    def test_batch_composition_32_96(self):
        labels = self.build(n_pos=50, n_neg=500)
        batch = labels[self.sample(labels, np.random.default_rng(1))]
        assert len(batch) == 128
        assert sum(batch == POSITIVE) == 32
        assert sum(batch == NEGATIVE) == 96

    def test_uniform_draw_reproducible(self):
        labels = self.build(n_pos=40, n_neg=400)
        a = self.sample(labels, np.random.default_rng(9))
        b = self.sample(labels, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_hard_negatives_are_top_scored(self):
        labels = self.build(n_pos=40, n_neg=400)
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, size=len(labels))
        _, neg_take = sample_minibatch_indices(labels, scores, rng)
        neg_idx = np.flatnonzero(labels == NEGATIVE)
        expect = neg_idx[np.argsort(-scores[neg_idx], kind="stable")][:96]
        assert sorted(neg_take.tolist()) == sorted(expect.tolist())

    def test_no_positives_gives_full_negative_batch(self):
        labels = self.build(n_pos=0, n_neg=500)
        batch = labels[self.sample(labels, np.random.default_rng(4))]
        assert len(batch) == 96
        assert all(batch == NEGATIVE)

    def test_few_positives_scale_negatives(self):
        labels = self.build(n_pos=5, n_neg=500)
        batch = labels[self.sample(labels, np.random.default_rng(5))]
        assert sum(batch == POSITIVE) == 5
        assert sum(batch == NEGATIVE) == 15

    @pytest.mark.parametrize("extra", [-1, 1, 4], ids=["short", "long", "longer"])
    def test_scores_must_match_the_labels(self, extra):
        # A short array used to raise IndexError; a long one was read at
        # misaligned indices.
        labels = self.build(n_pos=2, n_neg=10)
        scores = np.zeros(len(labels) + extra)
        with pytest.raises(ValueError, match=r"scores of shape \(\d+,\) do not match labels"):
            sample_minibatch_indices(labels, scores, np.random.default_rng(0))

    def test_numpy_integer_counts_and_matching_scores_accepted(self, monkeypatch):
        """The quotas are read at call time, so patching them reaches the sampler."""
        monkeypatch.setattr(anchors_mod, "POS_COUNT", np.int64(1))
        monkeypatch.setattr(anchors_mod, "BALANCE", np.int32(3))
        labels = self.build(n_pos=2, n_neg=10)
        scores = np.linspace(0, 1, len(labels))
        pos, neg = sample_minibatch_indices(labels, scores, np.random.default_rng(0))
        assert len(pos) == 1 and len(neg) == 3
