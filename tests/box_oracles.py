"""Scalar reference forms of the box arithmetic in ``scaleloc.geometry``.

``geometry`` computes on (N, 4) arrays; these one-box loops are the
independent oracles the tests check it against, and
:func:`boxes_to_array` stacks their ``BBox`` results into such arrays.
"""

import math

import numpy as np

from scaleloc import geometry
from scaleloc.geometry import MIN_SIDE, BBox, TransformAction

SIZE_FLOOR = 1.0  # decoded sides never drop below one pixel
LOG_RATIO_MAX = math.log(1000.0 / 16.0)  # normalized size ratios clamp here


def boxes_to_array(boxes) -> np.ndarray:
    """Stack an iterable of BBox into an (N, 4) float array."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.w * a.h + b.w * b.h - inter)


def clip(b: BBox, extent) -> BBox:
    """Intersect a box with [0, W] x [0, H]; an empty intersection gives a
    ``MIN_SIDE`` square inside the image nearest the box center."""
    width, height = extent
    if width <= 0 or height <= 0:
        raise ValueError("extent sides must be positive")
    x0 = max(b.x, 0.0)
    y0 = max(b.y, 0.0)
    x1 = min(b.x + b.w, float(width))
    y1 = min(b.y + b.h, float(height))
    if x1 > x0 and y1 > y0:
        return BBox(x0, y0, x1 - x0, y1 - y0)

    side_w = min(MIN_SIDE, float(width))
    side_h = min(MIN_SIDE, float(height))
    cx = min(max(b.x + b.w / 2.0, side_w / 2.0), width - side_w / 2.0)
    cy = min(max(b.y + b.h / 2.0, side_h / 2.0), height - side_h / 2.0)
    return BBox(cx - side_w / 2.0, cy - side_h / 2.0, side_w, side_h)


def encode(anchor: BBox, target: BBox) -> np.ndarray:
    """Target relative to anchor: corner offsets in anchor sides, and log
    size ratios."""
    return np.array(
        [
            (target.x - anchor.x) / anchor.w,
            (target.y - anchor.y) / anchor.h,
            math.log(target.w / anchor.w),
            math.log(target.h / anchor.h),
        ]
    )


def decode(anchor: BBox, vec) -> BBox:
    """Invert :func:`encode`, clamping log size ratios at
    ``LOG_RATIO_MAX`` and flooring sides at ``SIZE_FLOOR``."""
    v0, v1, v2, v3 = (float(v) for v in vec)
    w = anchor.w * math.exp(min(v2, LOG_RATIO_MAX))
    h = anchor.h * math.exp(min(v3, LOG_RATIO_MAX))
    return BBox(
        anchor.x + v0 * anchor.w,
        anchor.y + v1 * anchor.h,
        max(w, SIZE_FLOOR),
        max(h, SIZE_FLOOR),
    )


def transform(b: BBox, action: TransformAction, cfg) -> BBox:
    """One transform action on one box: move the center by ``move_ratio``
    sides or scale one side by ``scale_factor``, then floor both sides
    at ``geometry.MIN_SIDE``, read at each call."""
    w, h = b.w, b.h
    cx, cy = b.x + b.w / 2.0, b.y + b.h / 2.0

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
    else:
        raise ValueError(f"unknown action {action!r}")

    w = max(w, geometry.MIN_SIDE)
    h = max(h, geometry.MIN_SIDE)
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)
