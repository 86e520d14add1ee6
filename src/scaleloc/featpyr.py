"""Multi-layer feature pyramid and RoI pooling.

A pyramid holds one feature grid per layer (ids 3..5 by convention) at
strictly increasing strides. :func:`build_pyramid` computes the grids
as block statistics of the grayscale image.

RoI pooling maps a pixel-space box onto a layer grid and resamples it to
a fixed ``ROI_SIZE`` x ``ROI_SIZE`` window. Regions smaller than the
window are symmetrically expanded first, pulling in surrounding context
instead of upsampling a couple of cells. When only a linear map of the
pooled block is wanted, ``roi_pool_project`` applies the map to the grid
first and samples the result, which never builds the pooled blocks.

Grids are (channels, H, W) arrays laid out channel-last in memory: each
is a transposed view of an (H, W, channels) buffer. A pooling sample
reads all C channels of one cell, so this layout makes that read one
contiguous run instead of C values H * W apart. ``roi_pool_many`` blends
its samples in chunks of boxes of about ``_CHUNK_BYTES`` each, so the
blend's temporaries stay in cache and its peak memory is the output plus
a few chunks, not several output-sized buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BBox, boxes_to_array

__all__ = [
    "ROI_SIZE",
    "LayerSpec",
    "PyramidConfig",
    "FeaturePyramid",
    "FeatureShapeError",
    "build_pyramid",
    "roi_pool",
    "roi_pool_many",
    "roi_pool_project",
]

ROI_SIZE = 4  # side of the pooled window, in samples


@dataclass(frozen=True)
class LayerSpec:
    layer_id: int
    stride: int
    channels: int


@dataclass(frozen=True)
class PyramidConfig:
    """Layer layout. Desk-scale channel counts by default; pass
    channels (256, 512, 1024) for the full-size setting."""

    layers: tuple[LayerSpec, ...] = (
        LayerSpec(3, 8, 8),
        LayerSpec(4, 16, 16),
        LayerSpec(5, 32, 32),
    )

    def __post_init__(self):
        ids = [l.layer_id for l in self.layers]
        if len(set(ids)) != len(ids):
            raise ValueError("layer ids must be unique")
        for l in self.layers:
            # build_pyramid sizes its grids and blocks with these.
            if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (l.stride, l.channels)):
                raise ValueError(
                    f"layer {l.layer_id}: stride and channel count must be positive "
                    f"integers, got {l.stride!r} and {l.channels!r}"
                )
        strides = [l.stride for l in self.layers]
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError("strides must be strictly increasing")

    def layer_ids(self) -> tuple[int, ...]:
        return tuple(l.layer_id for l in self.layers)

    def flat_dims(self) -> dict[int, int]:
        """Length of a flattened pooled block, per layer."""
        return {l.layer_id: ROI_SIZE * ROI_SIZE * l.channels for l in self.layers}


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-layer (channels, H, W) grids plus the source image extent.

    Each stored grid is channel-last in memory, ``np.moveaxis(hwc, -1, 0)``
    of an (H, W, channels) buffer, so that pooling reads a cell's channels
    contiguously. A grid given in another layout is copied into one.
    """

    extent: tuple[int, int]
    strides: dict[int, int]
    grids: dict[int, np.ndarray]

    def __post_init__(self):
        extent = self.extent
        if not (
            isinstance(extent, (tuple, list))
            and len(extent) == 2
            and all(isinstance(v, (int, np.integer)) and v >= 1 for v in extent)
        ):
            raise FeatureShapeError(
                f"extent must be a (width, height) pair of positive integers, got {extent!r}"
            )
        width, height = extent
        channel_last = {}
        for layer_id, grid in self.grids.items():
            stride = self.strides.get(layer_id)
            if not isinstance(stride, (int, np.integer)) or stride < 1:
                raise FeatureShapeError(
                    f"layer {layer_id}: stride must be a positive integer, got {stride!r}"
                )
            want = (-(-height // stride), -(-width // stride))
            if grid.ndim != 3 or grid.shape[1:] != want:
                raise FeatureShapeError(
                    f"layer {layer_id}: expected spatial shape {want}, got {grid.shape[1:]}"
                )
            if grid.shape[0] < 1:
                raise FeatureShapeError(f"layer {layer_id}: grid has no channels")
            if not np.all(np.isfinite(grid)):
                raise FeatureShapeError(f"layer {layer_id}: non-finite feature values")
            channel_last[layer_id] = np.moveaxis(
                np.ascontiguousarray(np.moveaxis(grid, 0, -1)), -1, 0
            )
        object.__setattr__(self, "grids", channel_last)


class FeatureShapeError(ValueError):
    """Feature tensor is malformed or does not match the expected pyramid
    geometry."""


def _block_reduce(img: np.ndarray, stride: int, reducer) -> np.ndarray:
    """Apply ``reducer`` over stride x stride blocks, padding edges by
    replication so partial blocks are still full windows."""
    rows, cols = img.shape
    out_r = -(-rows // stride)
    out_c = -(-cols // stride)
    pad_r = out_r * stride - rows
    pad_c = out_c * stride - cols
    if pad_r or pad_c:
        img = np.pad(img, ((0, pad_r), (0, pad_c)), mode="edge")
    blocks = img.reshape(out_r, stride, out_c, stride)
    return reducer(blocks, axis=(1, 3))


_N_BASE = 8  # block statistics the layers cycle through (see build_pyramid)


def _gradient_fields(img: np.ndarray):
    """Yield (channel, field) for the five gradient channels one field at
    a time, so that only one full-resolution field is alive at once."""
    gy, gx = np.gradient(img)
    yield 1, np.abs(gx)
    yield 2, np.abs(gy)
    yield 3, np.abs((gx + gy) / np.sqrt(2.0))
    yield 4, np.abs((gx - gy) / np.sqrt(2.0))
    yield 7, np.hypot(gx, gy)


def build_pyramid(image: np.ndarray, cfg: PyramidConfig) -> FeaturePyramid:
    """Compute the synthetic block-statistics pyramid for a grayscale image.

    Channel ``c`` of a layer is base statistic ``c % 8`` over the layer's
    stride x stride blocks: 0 block mean; 1-4 mean absolute gradient
    along x, y and the two diagonals; 5 block std; 6 block max - min;
    7 mean gradient magnitude. The image gradient is computed once per
    image, and each gradient field is reduced at every stride before the
    next one is made, so peak memory holds one full-resolution field.
    Statistics no layer uses are not reduced. Each layer's statistics go
    into a small (H, W, 8) array, which one broadcast copy then repeats
    across the channel-last grid.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("expected a 2-d grayscale image")
    height, width = image.shape
    bases = {
        spec.layer_id: np.empty(
            (-(-height // spec.stride), -(-width // spec.stride), _N_BASE)
        )
        for spec in cfg.layers
    }

    def fill(channel, stat):
        for spec in cfg.layers:
            if channel < spec.channels:
                bases[spec.layer_id][:, :, channel] = stat(spec.stride)

    fill(0, lambda s: _block_reduce(image, s, np.mean))
    fill(5, lambda s: _block_reduce(image, s, np.std))
    fill(6, lambda s: _block_reduce(image, s, np.max) - _block_reduce(image, s, np.min))
    for channel, field in _gradient_fields(image):
        fill(channel, lambda s: _block_reduce(field, s, np.mean))

    grids = {}
    for spec in cfg.layers:
        base = bases[spec.layer_id]
        rows, cols, _ = base.shape
        repeats, tail = divmod(spec.channels, _N_BASE)
        hwc = np.empty((rows, cols, spec.channels))
        # Channel c is statistic c % 8: whole cycles of eight, then the rest.
        cycles = hwc[:, :, : repeats * _N_BASE].reshape(rows, cols, repeats, _N_BASE)
        cycles[...] = base[:, :, None, :]
        hwc[:, :, repeats * _N_BASE :] = base[:, :, :tail]
        grids[spec.layer_id] = np.moveaxis(hwc, -1, 0)
    strides = {spec.layer_id: spec.stride for spec in cfg.layers}
    return FeaturePyramid(extent=(width, height), strides=strides, grids=grids)


def _sample_axis(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sample coordinates along one axis, expanding regions narrower than
    the window symmetrically about their center."""
    roi = ROI_SIZE
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    length = hi - lo
    narrow = length < roi
    center = (lo + hi) / 2.0
    lo = np.where(narrow, center - roi / 2.0, lo)
    hi = np.where(narrow, center + roi / 2.0, hi)
    offsets = (np.arange(roi) + 0.5) / roi
    return lo[:, None] + offsets[None, :] * (hi - lo)[:, None]


def _bilinear_axis(coords: np.ndarray, size: int):
    """Indices and fractions for bilinear sampling at cell centers, with
    edge replication outside the grid."""
    u = np.clip(coords - 0.5, 0.0, size - 1.0)
    i0 = np.floor(u).astype(np.int64)
    i0 = np.minimum(i0, size - 1)
    i1 = np.minimum(i0 + 1, size - 1)
    frac = u - i0
    return i0, i1, frac


def _grid(pyramid: FeaturePyramid, layer_id: int) -> np.ndarray:
    if layer_id not in pyramid.grids:
        raise KeyError(f"pyramid has no layer {layer_id}")
    return pyramid.grids[layer_id]


_CHUNK_BYTES = 512 * 1024  # gathered values per pooling chunk; sized to stay in L2


def _pool(
    pyramid: FeaturePyramid, layer_id: int, boxes, values: np.ndarray, window=()
) -> np.ndarray:
    """Bilinearly sample each box's roi x roi window from a layer's cells.

    ``values`` is an (..., H, W, D) array over the layer's grid cells, and
    ``values[(*window, rows, cols)]`` gathers the D values of the cells at
    integer rows (n, roi, 1) and columns (n, 1, roi) as a fresh
    (n, roi, roi, D) array. Returns (N, roi, roi, D). Boxes are blended in
    chunks of about ``_CHUNK_BYTES`` of gathered values, the four
    gathered buffers of a chunk in place, and each chunk's result is
    written straight into the output; every element sees the same
    operations whatever the chunking.
    """
    grid_h, grid_w, depth = values.shape[-3:]
    stride = pyramid.strides[layer_id]
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)

    xs = _sample_axis(boxes[:, 0] / stride, (boxes[:, 0] + boxes[:, 2]) / stride)
    ys = _sample_axis(boxes[:, 1] / stride, (boxes[:, 1] + boxes[:, 3]) / stride)
    x0, x1, fx = _bilinear_axis(xs, grid_w)
    y0, y1, fy = _bilinear_axis(ys, grid_h)
    y0, y1 = y0[:, :, None], y1[:, :, None]
    x0, x1 = x0[:, None, :], x1[:, None, :]
    fy = fy[:, :, None, None]
    fx = fx[:, None, :, None]

    roi = ROI_SIZE
    out = np.empty((len(boxes), roi, roi, depth), dtype=values.dtype)
    step = max(1, _CHUNK_BYTES // (roi * roi * depth * values.itemsize))
    for start in range(0, len(boxes), step):
        part = slice(start, start + step)
        top = values[(*window, y0[part], x0[part])]
        top *= 1 - fx[part]
        right = values[(*window, y0[part], x1[part])]
        right *= fx[part]
        top += right
        bot = values[(*window, y1[part], x0[part])]
        bot *= 1 - fx[part]
        right = values[(*window, y1[part], x1[part])]
        right *= fx[part]
        bot += right
        top *= 1 - fy[part]
        bot *= fy[part]
        np.add(top, bot, out=out[part])
    return out


def roi_pool_many(
    pyramid: FeaturePyramid, layer_id: int, boxes: np.ndarray
) -> np.ndarray:
    """Pool many (x, y, w, h) boxes at once; returns (N, roi, roi, C).

    The grid's channel-last memory makes each sample's C values one
    contiguous read. Boxes are pooled in chunks of about ``_CHUNK_BYTES``,
    so besides the output the call holds a few chunk-sized buffers, and
    its peak memory is the output's bytes plus a few chunks.
    """
    grid = np.moveaxis(_grid(pyramid, layer_id), 0, -1)  # (H, W, C), contiguous
    return _pool(pyramid, layer_id, boxes, grid)


def roi_pool_project(
    pyramid: FeaturePyramid, layer_id: int, boxes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Linear map of pooled boxes, without pooling them; returns (N, K).

    Equal, up to the order of floating-point sums, to
    ``roi_pool_many(pyramid, layer_id, boxes).reshape(N, -1) @ weights.T``
    for ``weights`` of shape (K, roi * roi * C). Bilinear sampling is
    linear in the grid, so the weights are first contracted with every
    grid cell, (K * roi^2, C) @ (C, H * W), and each box then samples
    those K * roi^2 maps at its own sample points and sums over the
    window. This touches K values per sample point instead of C, which
    pays off when many boxes share one grid and K is small.
    """
    grid = _grid(pyramid, layer_id)
    c, grid_h, grid_w = grid.shape
    roi = ROI_SIZE
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] < 1 or weights.shape[1] != roi * roi * c:
        raise ValueError(
            f"layer {layer_id}: expected (K, {roi * roi * c}) weights with K >= 1, "
            f"got {weights.shape}"
        )
    k = weights.shape[0]
    maps = weights.reshape(k * roi * roi, c) @ grid.reshape(c, -1)
    # (roi, roi, H, W, K): maps[i, j] applies the weights of window cell (i, j).
    maps = np.ascontiguousarray(np.moveaxis(maps.reshape(k, roi, roi, grid_h, grid_w), 0, -1))
    window = (np.arange(roi)[:, None], np.arange(roi)[None, :])
    return _pool(pyramid, layer_id, boxes, maps, window).sum(axis=(1, 2))


def roi_pool(pyramid: FeaturePyramid, layer_id: int, box: BBox) -> np.ndarray:
    """Pool one box to a (roi, roi, C) block; flatten for the policy nets."""
    return roi_pool_many(pyramid, layer_id, boxes_to_array([box]))[0]

