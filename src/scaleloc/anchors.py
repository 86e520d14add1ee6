"""Sliding-window anchors: generation, labeling, minibatch sampling.

One anchor per lattice cell per pyramid layer, with a single base height
per layer (the layer is the scale). The anchors of an image are one
:class:`AnchorSet` of aligned arrays; labels and matches are per-anchor
arrays aligned with it, and minibatches are index arrays into it.
Labeling follows the two positive rules (IoU above the high threshold;
per-ground-truth best match), negatives fall below the low threshold,
everything else is ignored. Minibatches keep Faster R-CNN's fixed quotas,
``POS_COUNT`` positives at most and ``BALANCE`` negatives per positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._model import _corners, _extent, _positive
from .featpyr import PyramidConfig, sample_plan
from .geometry import clip_boxes, iou_matrix
from .scenegen import ASPECT_RATIO

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "AnchorSet",
    "generate_anchors",
    "label_arrays",
    "sample_minibatch_indices",
]

POSITIVE = 1
NEGATIVE = 0
IGNORE = -1

IOU_POSITIVE = 0.5
IOU_NEGATIVE = 0.3
POS_COUNT = 32  # most positives in one minibatch
BALANCE = 3  # negatives kept per positive


@dataclass(frozen=True)
class AnchorSet:
    """Anchors of one image ``extent`` as aligned arrays: (x, y, w, h)
    ``boxes`` (N, 4), whose heights are the layers' base heights, the same
    boxes ``clipped`` to the image (N, 4), the pyramid ``layer_ids`` (N,)
    and the clipped boxes' :func:`~scaleloc.featpyr.sample_plan`."""

    boxes: np.ndarray
    clipped: np.ndarray
    layer_ids: np.ndarray
    extent: tuple[int, int]
    plan: tuple

    def __len__(self) -> int:
        return len(self.layer_ids)


def generate_anchors(
    cfg: PyramidConfig,
    extent: tuple[int, int],
    base_heights: dict[int, float],
) -> AnchorSet:
    """One anchor per lattice cell per layer, centered on the cell.

    Anchors come layer by layer in config order, each layer's cells in
    row-major order. Anchors sticking out of the image are kept, and
    their clipped boxes, on which labeling and pooling work, are stored
    alongside, as is the clipped boxes' sample plan on ``cfg``'s layers.
    Each layer's base height must be a finite number above 0.
    """
    missing = [spec.layer_id for spec in cfg.layers if spec.layer_id not in base_heights]
    if missing:
        raise ValueError(f"pyramid layers {missing} have no base height")
    width, height = _extent(extent)
    boxes, layer_ids = [], []
    for spec in cfg.layers:
        _positive(f"layer {spec.layer_id} base height", base_heights[spec.layer_id])
        h = float(base_heights[spec.layer_id])
        w = ASPECT_RATIO * h
        cy = (np.arange(-(-height // spec.stride)) + 0.5) * spec.stride
        cx = (np.arange(-(-width // spec.stride)) + 0.5) * spec.stride
        cy, cx = np.meshgrid(cy, cx, indexing="ij")
        n = cx.size
        boxes.append(
            np.stack(
                [cx.ravel() - w / 2.0, cy.ravel() - h / 2.0, np.full(n, w), np.full(n, h)],
                axis=1,
            )
        )
        layer_ids.append(np.full(n, spec.layer_id, dtype=np.int64))
    boxes, layer_ids = np.concatenate(boxes), np.concatenate(layer_ids)
    clipped = clip_boxes(boxes, extent)
    plan = sample_plan(clipped, layer_ids, cfg, extent)
    return AnchorSet(boxes, clipped, layer_ids, tuple(extent), plan)


def label_arrays(anchors: AnchorSet, gt_boxes: np.ndarray):
    """Label anchors against (G, 4) ground-truth boxes.

    Returns per-anchor (labels, matched_gt_index, target_height). IoU is
    computed on the anchors' clipped boxes. An anchor is positive when
    its best IoU exceeds ``IOU_POSITIVE`` or when it is some ground
    truth's best anchor (ties to the lowest anchor index; zero-overlap
    ground truths claim nobody). Positives match their own best ground
    truth (ties to the lowest index); every other anchor has match -1
    and keeps its base height as target height. Remaining anchors with
    best IoU strictly below ``IOU_NEGATIVE`` are negative, the rest
    ignored. A malformed ground-truth row is a ``ValueError`` that names it.
    """
    gt_boxes, _ = _corners(gt_boxes)
    n = len(anchors)

    labels = np.full(n, NEGATIVE, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    target_h = anchors.boxes[:, 3].copy()
    if len(gt_boxes) == 0:
        return labels, matched, target_h

    ious = iou_matrix(anchors.clipped, gt_boxes)
    best_gt = np.argmax(ious, axis=1)
    best_iou = ious[np.arange(n), best_gt]

    positive = best_iou > IOU_POSITIVE
    positive[ious.argmax(axis=0)[ious.max(axis=0) > 0]] = True

    labels[:] = IGNORE
    labels[positive] = POSITIVE
    labels[~positive & (best_iou < IOU_NEGATIVE)] = NEGATIVE

    matched[positive] = best_gt[positive]
    target_h[positive] = gt_boxes[best_gt[positive], 3]
    return labels, matched, target_h


def sample_minibatch_indices(labels: np.ndarray, scores: np.ndarray | None, rng):
    """Pick minibatch indices: uniform positives plus bootstrapped negatives.

    Returns (positive indices, negative indices): at most ``POS_COUNT``
    positives, drawn uniformly, and ``BALANCE`` negatives per positive
    taken, or per ``POS_COUNT`` when the image has no positives at all.
    Negatives are drawn uniformly when ``scores`` is None (first pass)
    and as the highest-scoring (hardest) ones afterwards; ``scores`` has
    one entry per label.
    """
    labels = np.asarray(labels)
    if scores is not None and np.shape(scores) != labels.shape:
        raise ValueError(
            f"scores of shape {np.shape(scores)} do not match labels of shape {labels.shape}"
        )
    pos_idx = np.flatnonzero(labels == POSITIVE)
    neg_idx = np.flatnonzero(labels == NEGATIVE)

    if len(pos_idx) > POS_COUNT:
        pos_take = rng.choice(pos_idx, size=POS_COUNT, replace=False)
        pos_take.sort()
    else:
        pos_take = pos_idx

    neg_quota = BALANCE * (len(pos_take) if len(pos_take) > 0 else POS_COUNT)
    neg_quota = min(neg_quota, len(neg_idx))
    if scores is None:
        neg_take = rng.choice(neg_idx, size=neg_quota, replace=False)
        neg_take.sort()
    else:
        scores = np.asarray(scores, dtype=np.float64)
        # Stable hardest-first: sort by descending score, index breaks ties.
        order = np.lexsort((neg_idx, -scores[neg_idx]))
        neg_take = neg_idx[order[:neg_quota]]
    return pos_take, neg_take
