"""Axis-aligned bounding-box arithmetic.

Boxes are (x, y, w, h) with (x, y) the top-left corner, in image pixels.
Box arithmetic (clip, IoU, regression encode and decode, and the
transform actions of :func:`apply_transforms`) works on (N, 4) arrays
of such rows. Regression offsets are Faster R-CNN's: corner shifts in
anchor sides, and log size ratios. :class:`BBox` is the one-box record
that scenes and policy episodes carry; :func:`clip`, :func:`iou` and
:func:`apply_transform` are one-row calls of the array functions.
Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ._model import _boxes, _extent, _positive

__all__ = [
    "BBox",
    "TransformAction",
    "StepConfig",
    "TRANSFORM_ACTIONS",
    "iou",
    "iou_matrix",
    "apply_transform",
    "apply_transforms",
    "clip",
    "clip_boxes",
    "encode_regression",
    "decode_regression",
    "boxes_to_array",
]

# Decoded widths/heights are floored here, at one pixel, so a box never
# degenerates below what an image can show.
_DECODE_SIZE_FLOOR = 1.0
# Normalized log size ratios are clamped here before exp, as in Faster
# R-CNN, so a diverging head cannot overflow the decode.
_DECODE_LOG_RATIO_MAX = math.log(1000.0 / 16.0)
# Side, in pixels, of the square that clip_boxes makes of a box missing the
# image, and the default floor of StepConfig.min_side.
MIN_SIDE = 2.0


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: finite top-left corner (x, y), width w > 0, height h > 0."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError(f"box coordinates must be finite, got {self}")
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


class TransformAction(IntEnum):
    """The eight box-editing actions, each numbered by its place in ``TRANSFORM_ACTIONS``."""

    MOVE_LEFT = 0
    MOVE_RIGHT = 1
    MOVE_UP = 2
    MOVE_DOWN = 3
    TALLER = 4
    SHORTER = 5
    WIDER = 6
    NARROWER = 7


# Canonical ordering; apply_transforms and perfbench's episodes number actions by it.
TRANSFORM_ACTIONS: tuple[TransformAction, ...] = tuple(TransformAction)


@dataclass(frozen=True)
class StepConfig:
    """Step sizes for the transform actions.

    Steps are relative to the current box size, so behavior is
    scale-invariant across near and far instances. Both sides are then
    floored at ``min_side``, by default ``MIN_SIDE``.
    """

    move_ratio: float = 0.1
    scale_factor: float = 1.2
    min_side: float = MIN_SIDE

    def __post_init__(self):
        _positive("move_ratio", self.move_ratio)
        _positive("scale_factor", self.scale_factor, above=1.0)
        _positive("min_side", self.min_side)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    return float(iou_matrix([a.as_tuple()], [b.as_tuple()])[0, 0])


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU for (N, 4) and (G, 4) arrays of (x, y, w, h) boxes."""
    boxes_a, boxes_b = _boxes(boxes_a), _boxes(boxes_b)
    ax0, ay0 = boxes_a[:, 0:1], boxes_a[:, 1:2]
    ax1, ay1 = ax0 + boxes_a[:, 2:3], ay0 + boxes_a[:, 3:4]
    bx0, by0 = boxes_b[:, 0], boxes_b[:, 1]
    bx1, by1 = bx0 + boxes_b[:, 2], by0 + boxes_b[:, 3]

    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = boxes_a[:, 2:3] * boxes_a[:, 3:4]
    area_b = boxes_b[:, 2] * boxes_b[:, 3]
    union = area_a + area_b - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(union > 0, inter / union, 0.0)
    return out


def apply_transform(b: BBox, action: TransformAction, cfg: StepConfig) -> BBox:
    """One-box form of :func:`apply_transforms`."""
    return BBox(*apply_transforms([b.as_tuple()], [action], cfg)[0].tolist())


def apply_transforms(boxes, actions, cfg: StepConfig) -> np.ndarray:
    """Apply action ``actions[i]``, a :class:`TransformAction` index, to
    box ``boxes[i]`` of (K, 4): a move shifts the center by ``move_ratio``
    sides, a size change scales one side by ``scale_factor`` about the
    center, and both sides are then floored at ``min_side``."""
    x, y, w, h = _rows(boxes)
    a = np.asarray(actions).reshape(-1)
    if a.shape != x.shape or not (a.size == 0 or np.issubdtype(a.dtype, np.integer)):
        raise ValueError(f"need {x.size} integer actions, got {a.shape} {a.dtype}")
    if np.any((a < 0) | (a >= len(TRANSFORM_ACTIONS))):
        raise ValueError(f"action indices must lie in [0, {len(TRANSFORM_ACTIONS)})")
    left, right, up, down, taller, shorter, wider, narrower = a == np.arange(8)[:, None]
    cx, cy = x + w / 2.0, y + h / 2.0
    dx, dy, s = cfg.move_ratio * w, cfg.move_ratio * h, cfg.scale_factor
    cx = np.where(left, cx - dx, np.where(right, cx + dx, cx))
    cy = np.where(up, cy - dy, np.where(down, cy + dy, cy))
    h = np.maximum(np.where(taller, h * s, np.where(shorter, h / s, h)), cfg.min_side)
    w = np.maximum(np.where(wider, w * s, np.where(narrower, w / s, w)), cfg.min_side)
    return np.stack([cx - w / 2.0, cy - h / 2.0, w, h], axis=1)


def clip(b: BBox, extent: tuple[int, int]) -> BBox:
    """One-box form of :func:`clip_boxes`."""
    return BBox(*clip_boxes([b.as_tuple()], extent)[0].tolist())


def clip_boxes(boxes, extent: tuple[int, int]) -> np.ndarray:
    """Intersect (N, 4) boxes with the image rectangle [0, W] x [0, H].

    A box whose intersection is empty along either axis becomes a
    ``MIN_SIDE`` square (narrowed to the image if it is smaller) inside
    the image, as close as possible to the box center. A +-inf corner, from
    an overflowing decode or a sum past the largest float, puts it at that
    edge; a NaN coordinate or far corner, as -inf + inf, is a ``ValueError``.
    """
    width, height = _extent(extent)
    rows = _rows(boxes)
    corner, sides = rows[:2], rows[2:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf past 1.8e308; NaN from inf + -inf
        far = corner + sides
        mid = corner + sides / 2.0
    if np.isnan(far).any():
        row = int(np.argmax(np.isnan(far).any(axis=0)))
        raise ValueError(f"box {row} has a NaN coordinate: {rows[:, row].tolist()}")
    size = np.array([[width], [height]], dtype=np.float64)
    side = np.minimum(MIN_SIDE, size)
    lo = np.maximum(corner, 0.0)
    hi = np.minimum(far, size)
    center = np.minimum(np.maximum(mid, side / 2.0), size - side / 2.0)
    inside = (hi > lo).all(axis=0)
    fallback = center - side / 2.0
    return np.concatenate([np.where(inside, lo, fallback), np.where(inside, hi - lo, side)]).T


def encode_regression(anchors, targets) -> np.ndarray:
    """Encode (N, 4) target boxes relative to (N, 4) anchors, row by row.

    The corner offsets are divided by the anchor sides and the sizes
    become log ratios, which conditions the values for learning.
    """
    a, t = _rows(anchors), _rows(targets)
    return np.concatenate([(t[:2] - a[:2]) / a[2:], np.log(t[2:] / a[2:])]).T


def decode_regression(anchors, offsets) -> np.ndarray:
    """Invert :func:`encode_regression` row by row on (N, 4) arrays.

    The log size ratios are clamped at log(1000 / 16), so a side grows at
    most 62.5-fold, and decoded sides are floored at 1 px. The corner
    shift is not clamped: one that overflows gives a corner of +-inf,
    without a warning, which :func:`clip_boxes` turns into a box at the
    image edge. decode(a, encode(a, t)) == t for targets inside those
    limits.
    """
    a, v = _rows(anchors), _rows(offsets)
    with np.errstate(over="ignore"):
        corner = a[:2] + v[:2] * a[2:]
    sides = a[2:] * np.exp(np.minimum(v[2:], _DECODE_LOG_RATIO_MAX))
    return np.concatenate([corner, np.maximum(sides, _DECODE_SIZE_FLOOR)]).T


def _rows(boxes) -> np.ndarray:
    """Contiguous (4, N) rows x, y, w, h of (N, 4) boxes, so that every
    operation runs along N values rather than along pairs."""
    return _boxes(boxes).T.copy()


def boxes_to_array(boxes) -> np.ndarray:
    """Stack an iterable of BBox into an (N, 4) float array."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)
