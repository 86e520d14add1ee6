"""Axis-aligned bounding-box arithmetic.

Boxes are (x, y, w, h) with (x, y) the top-left corner, in image pixels.
Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BBox",
    "TransformAction",
    "StepConfig",
    "TRANSFORM_ACTIONS",
    "iou",
    "iou_matrix",
    "apply_transform",
    "clip",
    "clip_boxes_array",
    "encode_regression",
    "decode_regression",
    "boxes_to_array",
]

# Decoded widths/heights are floored here so a box never degenerates to
# zero area; anything a caller actually cares about sits far above it.
_DECODE_SIZE_FLOOR = 1e-6
# Normalized log size ratios are clamped here before exp, as in Faster
# R-CNN, so a diverging head cannot overflow the decode.
_DECODE_LOG_RATIO_MAX = math.log(1000.0 / 16.0)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y), width w > 0, height h > 0."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


class TransformAction(Enum):
    """The eight box-editing actions (the two trigger actions live in env)."""

    MOVE_LEFT = "move_left"
    MOVE_RIGHT = "move_right"
    MOVE_UP = "move_up"
    MOVE_DOWN = "move_down"
    TALLER = "taller"
    SHORTER = "shorter"
    WIDER = "wider"
    NARROWER = "narrower"


# Canonical ordering; env indexes its action space against this tuple.
TRANSFORM_ACTIONS: tuple[TransformAction, ...] = (
    TransformAction.MOVE_LEFT,
    TransformAction.MOVE_RIGHT,
    TransformAction.MOVE_UP,
    TransformAction.MOVE_DOWN,
    TransformAction.TALLER,
    TransformAction.SHORTER,
    TransformAction.WIDER,
    TransformAction.NARROWER,
)


@dataclass(frozen=True)
class StepConfig:
    """Step sizes for the transform actions.

    Steps are relative to the current box size, so behavior is
    scale-invariant across near and far instances.
    """

    move_ratio: float = 0.1
    scale_factor: float = 1.2
    aspect_ratio_step: float = 0.1
    min_side: float = 2.0

    def __post_init__(self):
        if self.move_ratio <= 0:
            raise ValueError("move_ratio must be positive")
        if self.scale_factor <= 1:
            raise ValueError("scale_factor must exceed 1")
        if self.aspect_ratio_step <= 0:
            raise ValueError("aspect_ratio_step must be positive")
        if self.min_side <= 0:
            raise ValueError("min_side must be positive")


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU for (N, 4) and (G, 4) arrays of (x, y, w, h) boxes."""
    boxes_a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
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
    """Apply one transform action to a box.

    Moves shift by ``move_ratio`` times the current side; size changes
    multiply one side by ``scale_factor`` (or its inverse) about the box
    center. Output sides never drop below ``min_side``.
    """
    x, y, w, h = b.x, b.y, b.w, b.h
    cx, cy = b.cx, b.cy

    if action is TransformAction.MOVE_LEFT:
        cx -= cfg.move_ratio * w
    elif action is TransformAction.MOVE_RIGHT:
        cx += cfg.move_ratio * w
    elif action is TransformAction.MOVE_UP:
        cy -= cfg.move_ratio * h
    elif action is TransformAction.MOVE_DOWN:
        cy += cfg.move_ratio * h
    elif action is TransformAction.TALLER:
        h = h * cfg.scale_factor
    elif action is TransformAction.SHORTER:
        h = h / cfg.scale_factor
    elif action is TransformAction.WIDER:
        w = w * cfg.scale_factor
    elif action is TransformAction.NARROWER:
        w = w / cfg.scale_factor
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown action {action!r}")

    w = max(w, cfg.min_side)
    h = max(h, cfg.min_side)
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)


def clip(b: BBox, extent: tuple[float, float], min_side: float = 2.0) -> BBox:
    """Intersect a box with the image rectangle [0, W] x [0, H].

    If the intersection is empty along either axis, the result is a
    ``min_side`` square inside the image as close as possible to the
    original box center.
    """
    width, height = extent
    if width <= 0 or height <= 0:
        raise ValueError("extent sides must be positive")
    x0 = max(b.x, 0.0)
    y0 = max(b.y, 0.0)
    x1 = min(b.x2, float(width))
    y1 = min(b.y2, float(height))
    if x1 > x0 and y1 > y0:
        return BBox(x0, y0, x1 - x0, y1 - y0)

    side_w = min(min_side, float(width))
    side_h = min(min_side, float(height))
    cx = min(max(b.cx, side_w / 2.0), width - side_w / 2.0)
    cy = min(max(b.cy, side_h / 2.0), height - side_h / 2.0)
    return BBox(cx - side_w / 2.0, cy - side_h / 2.0, side_w, side_h)


def clip_boxes_array(boxes: np.ndarray, extent: tuple[float, float]) -> np.ndarray:
    """Vectorized clip for (N, 4) boxes known to intersect the image.

    Callers with possibly-disjoint boxes should use :func:`clip`, which
    handles the empty-intersection fallback.
    """
    width, height = extent
    boxes = np.asarray(boxes, dtype=np.float64)
    x0 = np.clip(boxes[:, 0], 0.0, None)
    y0 = np.clip(boxes[:, 1], 0.0, None)
    x1 = np.minimum(boxes[:, 0] + boxes[:, 2], float(width))
    y1 = np.minimum(boxes[:, 1] + boxes[:, 3], float(height))
    return np.stack([x0, y0, x1 - x0, y1 - y0], axis=1)


def encode_regression(anchor: BBox, target: BBox, mode: str = "raw") -> np.ndarray:
    """Encode a target box relative to an anchor as a 4-vector.

    ``raw`` is the componentwise difference target - anchor. ``normalized``
    divides the corner offsets by the anchor sides and uses log size
    ratios, which conditions the values for learning.
    """
    if mode == "raw":
        return np.array(
            [
                target.x - anchor.x,
                target.y - anchor.y,
                target.w - anchor.w,
                target.h - anchor.h,
            ]
        )
    if mode == "normalized":
        return np.array(
            [
                (target.x - anchor.x) / anchor.w,
                (target.y - anchor.y) / anchor.h,
                math.log(target.w / anchor.w),
                math.log(target.h / anchor.h),
            ]
        )
    raise ValueError(f"unknown regression mode {mode!r}")


def decode_regression(anchor: BBox, vec: np.ndarray, mode: str = "raw") -> BBox:
    """Invert :func:`encode_regression`: decode(anchor, encode(anchor, t)) == t.

    Decoded sides are floored at ``_DECODE_SIZE_FLOOR``. In ``normalized``
    mode the log size ratios are first clamped at log(1000 / 16), so a
    side grows at most 62.5-fold; the round trip holds below that.
    """
    v0, v1, v2, v3 = (float(v) for v in vec)
    if mode == "raw":
        w = max(anchor.w + v2, _DECODE_SIZE_FLOOR)
        h = max(anchor.h + v3, _DECODE_SIZE_FLOOR)
        return BBox(anchor.x + v0, anchor.y + v1, w, h)
    if mode == "normalized":
        w = anchor.w * math.exp(min(v2, _DECODE_LOG_RATIO_MAX))
        h = anchor.h * math.exp(min(v3, _DECODE_LOG_RATIO_MAX))
        return BBox(
            anchor.x + v0 * anchor.w,
            anchor.y + v1 * anchor.h,
            max(w, _DECODE_SIZE_FLOOR),
            max(h, _DECODE_SIZE_FLOOR),
        )
    raise ValueError(f"unknown regression mode {mode!r}")


def boxes_to_array(boxes) -> np.ndarray:
    """Stack an iterable of BBox into an (N, 4) float array."""
    out = np.array([b.as_tuple() for b in boxes], dtype=np.float64)
    return out.reshape(-1, 4)
