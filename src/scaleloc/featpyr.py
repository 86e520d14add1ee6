"""Multi-layer feature pyramid and RoI pooling.

A pyramid holds one feature grid per layer (ids 3..5 by convention) at
strictly increasing strides. :func:`build_pyramid` computes the grids
as block statistics of the grayscale image. It shares full-resolution
passes only where no value changes: a stride's block mean serves channel
0 and the std, the five gradient fields reuse one buffer, and the block
range folds rows before columns, exact as max and min are in any order.
At stride 8, ``_block_sums`` makes NumPy's own pairwise-sum additions
in its order, as three whole-array additions instead of one NumPy call
per block row, so the block sums keep NumPy's bits.

RoI pooling maps a pixel-space box onto a layer grid and resamples it to
a fixed ``ROI_SIZE`` x ``ROI_SIZE`` window. Regions smaller than the
window are symmetrically expanded first, pulling in surrounding context
instead of upsampling a couple of cells. For one weighted sum of the
pooled block, a score map's logit, ``roi_pool_project`` applies one
weight vector per layer to the grids and samples the result, never
building the pooled blocks; it blends boxes of all layers in one gather,
at the sample points of a :func:`sample_plan` that a box set computes once.

Grids are C-contiguous (H, W, channels) arrays. A pooling sample reads
all C channels of one cell, so this layout makes that read one
contiguous run instead of C values H * W apart, and one row of a flat
(cells, C) view, so each bilinear corner is one exact ``take`` of rows.
``roi_pool_many`` blends its samples in chunks of boxes of about
``_CHUNK_BYTES`` each, so the blend's temporaries stay in cache and its
peak memory is the output plus a few chunks, not several output-sized
buffers. Its callers pool a few boxes at a time: training minibatches,
the proposals that scoring keeps, and single policy boxes. Scoring
every anchor goes through ``roi_pool_project``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._model import _corners, _count, _extent, _of_layer, _real
from .geometry import BBox, boxes_to_array

__all__ = [
    "ROI_SIZE",
    "LayerSpec",
    "PyramidConfig",
    "FeaturePyramid",
    "build_pyramid",
    "roi_pool",
    "roi_pool_many",
    "roi_pool_project",
    "sample_plan",
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
        if not self.layers:
            raise ValueError("need at least one layer")
        for l in self.layers:
            _count("layer id", l.layer_id, least=0)  # parameter names hold it as digits
            # build_pyramid sizes its grids and blocks with these.
            _count(f"layer {l.layer_id} stride", l.stride)
            _count(f"layer {l.layer_id} channels", l.channels)
        ids = [l.layer_id for l in self.layers]
        if len(set(ids)) != len(ids):
            raise ValueError("layer ids must be unique")
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
    """Per-layer (H, W, channels) grids plus the source image extent.

    Each stored grid is a C-contiguous float64 array, so that pooling
    reads a cell's channels contiguously. A grid given in another memory
    order or another real dtype is copied into one. Any other dtype, and
    an extent, stride or grid shape that does not fit, is a ``ValueError``.
    """

    extent: tuple[int, int]
    strides: dict[int, int]
    grids: dict[int, np.ndarray]

    def __post_init__(self):
        width, height = _extent(self.extent)
        stored = {}
        for layer_id, grid in self.grids.items():
            stride = self.strides.get(layer_id)
            _count(f"layer {layer_id} stride", stride)
            want = (-(-height // stride), -(-width // stride))
            grid = _real(f"layer {layer_id}: grid", grid)
            if grid.ndim != 3 or grid.shape[:2] != want:
                raise ValueError(
                    f"layer {layer_id}: expected spatial shape {want}, got {grid.shape[:2]}"
                )
            if grid.shape[2] < 1:
                raise ValueError(f"layer {layer_id}: grid has no channels")
            if not np.all(np.isfinite(grid)):
                raise ValueError(f"layer {layer_id}: non-finite feature values")
            stored[layer_id] = np.ascontiguousarray(grid, dtype=np.float64)
        object.__setattr__(self, "grids", stored)


_CHUNK_BYTES = 512 * 1024  # values per pooling chunk or block band; sized to stay in L2


def _blocks(img: np.ndarray, stride: int) -> np.ndarray:
    """(out_r, stride, out_c, stride) view of stride x stride blocks,
    padding edges by replication so partial blocks are still full windows."""
    rows, cols = img.shape
    out_r = -(-rows // stride)
    out_c = -(-cols // stride)
    pad_r = out_r * stride - rows
    pad_c = out_c * stride - cols
    if pad_r or pad_c:
        img = np.pad(img, ((0, pad_r), (0, pad_c)), mode="edge")
    return img.reshape(out_r, stride, out_c, stride)


def _block_sums(blocks: np.ndarray) -> np.ndarray:
    """``np.add.reduce(blocks, axis=(1, 3))`` of a ``_blocks`` view, bit for bit.

    NumPy adds each block row's s values in one inner-loop call with its
    pairwise sum, then adds the rows in order. At s = 8 that sum is pairs,
    pairs of pairs, then halves; here each is one addition over a band of
    ``_CHUNK_BYTES`` of blocks. Other strides, and one block column (one
    run of s * s values to NumPy), go to NumPy itself.
    """
    rows, s, cols, _ = blocks.shape
    if s != 8 or cols == 1:
        return np.add.reduce(blocks, axis=(1, 3))
    sums = np.empty((rows, cols))
    band = max(1, _CHUNK_BYTES // blocks[0].nbytes)
    for start in range(0, rows, band):
        part = blocks[start : start + band]
        seg = part[..., 0::2] + part[..., 1::2]
        seg = seg[..., 0::2] + seg[..., 1::2]
        seg = seg[..., 0] + seg[..., 1]
        np.add.reduce(seg, axis=1, out=sums[start : start + band])
    return sums


def _block_range(blocks: np.ndarray) -> np.ndarray:
    """Max - min of each block of a ``_blocks`` view. Folding rows first,
    over runs as long as an image row, then columns is several times faster
    than reducing both axes at once, and exact: so are max and min."""
    return blocks.max(axis=1).max(axis=-1) - blocks.min(axis=1).min(axis=-1)


_N_BASE = 8  # block statistics the layers cycle through (see build_pyramid)


def _gradient_fields(img: np.ndarray):
    """Yield (channel, field) for the five gradient channels, each written
    into one reused full-resolution buffer with the operations, in order,
    of ``abs(gx)``, ``abs(gy)``, ``abs((gx + gy) / sqrt(2))``,
    ``abs((gx - gy) / sqrt(2))`` and ``hypot(gx, gy)``."""
    gy, gx = np.gradient(img)
    field = np.empty_like(img)
    yield 1, np.abs(gx, out=field)
    yield 2, np.abs(gy, out=field)
    for channel, combine in ((3, np.add), (4, np.subtract)):
        combine(gx, gy, out=field)
        field /= np.sqrt(2.0)
        yield channel, np.abs(field, out=field)
    yield 7, np.hypot(gx, gy, out=field)


def build_pyramid(image: np.ndarray, cfg: PyramidConfig) -> FeaturePyramid:
    """Compute the synthetic block-statistics pyramid for a grayscale image.

    Channel ``c`` of a layer is base statistic ``c % 8`` over the layer's
    stride x stride blocks: 0 block mean; 1-4 mean absolute gradient
    along x, y and the two diagonals; 5 block std; 6 block max - min;
    7 mean gradient magnitude. The image needs at least 2 x 2 pixels.

    No value differs from computing each statistic on its own with
    ``np.mean``, ``np.std`` and ``np.max - np.min`` over the edge-padded
    blocks of the C-ordered image; every block sum, the std's included,
    is :func:`_block_sums`'s exact one. Per stride, one block mean is
    channel 0 and the std's mean. The gradient is computed once, and its
    five fields are written in turn into one buffer, each reduced at every
    stride before the next, so peak memory is the gradient pair, one field
    and the std's deviations. One ``take`` repeats each layer's (H, W, 8)
    statistics across its (H, W, channels) grid.
    """
    # One memory order, so one summation order (see _block_sums).
    image = np.ascontiguousarray(_real("image", image), dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("expected a 2-d grayscale image")
    height, width = image.shape
    if height < 2 or width < 2:
        # np.gradient needs two samples along each axis.
        raise ValueError(f"image of shape {image.shape} is too small: need at least 2 x 2")
    bases = {}
    # An inf or huge pixel leaves a non-finite grid value, which FeaturePyramid rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in cfg.layers:
            blocks = _blocks(image, spec.stride)
            area = spec.stride * spec.stride
            base = bases[spec.layer_id] = np.empty((*blocks.shape[::2], _N_BASE))
            mean = base[:, :, 0] = _block_sums(blocks) / area
            dev = blocks - mean[:, None, :, None]
            dev *= dev
            base[:, :, 5] = np.sqrt(_block_sums(dev) / area)
            del dev  # an image-sized buffer, freed before the next one and the gradient pair
            base[:, :, 6] = _block_range(blocks)
        for channel, field in _gradient_fields(image):
            for spec in cfg.layers:
                sums = _block_sums(_blocks(field, spec.stride))
                bases[spec.layer_id][:, :, channel] = sums / (spec.stride * spec.stride)

    grids = {
        spec.layer_id: bases[spec.layer_id].take(np.arange(spec.channels) % _N_BASE, axis=2)
        for spec in cfg.layers
    }
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
    center = lo / 2.0 + hi / 2.0  # lo + hi would overflow past 1.8e308
    lo = np.where(narrow, center - roi / 2.0, lo)
    hi = np.where(narrow, center + roi / 2.0, hi)
    offsets = (np.arange(roi) + 0.5) / roi
    return lo[:, None] + offsets[None, :] * (hi - lo)[:, None]


def _axis_samples(lo, hi, stride, size):
    """Bilinear corner indices ``i0``, ``i1`` and fractions, (N, roi) each,
    of the :func:`_sample_axis` samples of pixel spans [lo, hi) (N,) along
    one axis of a grid of ``size`` cells, ``stride`` pixels each. Samples
    blend cell centers, with edge replication outside the grid.
    ``stride`` is a number or one per span, ``size`` a number or (N, 1)."""
    u = np.clip(_sample_axis(lo / stride, hi / stride) - 0.5, 0.0, size - 1.0)
    i0 = np.minimum(np.floor(u).astype(np.int64), size - 1)
    return i0, np.minimum(i0 + 1, size - 1), u - i0


def _lerp(table, lo, hi, frac, out, spare) -> None:
    """``out = table[lo] (1 - frac) + table[hi] frac``, gathered by rows,
    computed in ``out`` and ``spare`` with the operations in that order."""
    # mode="clip" lets take write into ``out`` unbuffered; every row is in range.
    table.take(lo, axis=0, out=out, mode="clip")
    out *= 1 - frac
    table.take(hi, axis=0, out=spare, mode="clip")
    spare *= frac
    out += spare


def _blend(cells, y0, y1, x0, x1, fy, fx, top, bot, spare) -> None:
    """``top = (v00 (1 - fx) + v01 fx) (1 - fy) + (v10 (1 - fx) + v11 fx) fy``
    in that order, in place in ``top``, ``bot`` and ``spare``, where
    ``v01`` is row ``y0 + x1`` of ``cells`` and so on (all broadcast)."""
    _lerp(cells, y0 + x0, y0 + x1, fx, top, spare)
    _lerp(cells, y1 + x0, y1 + x1, fx, bot, spare)
    top *= 1 - fy
    bot *= fy
    top += bot


def roi_pool_many(
    pyramid: FeaturePyramid, layer_id: int, boxes: np.ndarray
) -> np.ndarray:
    """Pool many (x, y, w, h) boxes at once; returns (N, roi, roi, C).

    Every sample is a bilinear blend computed with the operations of
    :func:`_blend`, in its order. The (H, W, C) grid makes a cell's C
    values one contiguous read, and each bilinear corner one ``take``
    from its flat (cells, C) view, at row ``y * W + x``; a
    gather only copies, so this equals indexing the grid with one index
    array per axis, at less cost. Boxes are blended in chunks of about
    ``_CHUNK_BYTES``, in place in the output and two spare buffers, so
    peak memory is the output plus a few chunks.
    """
    grid = _of_layer(pyramid.grids, layer_id)
    grid_h, grid_w, depth = grid.shape
    cells = grid.reshape(-1, depth)
    stride = pyramid.strides[layer_id]
    boxes, far = _corners(boxes)
    x0, x1, fx = _axis_samples(boxes[:, 0], far[:, 0], stride, grid_w)
    y0, y1, fy = _axis_samples(boxes[:, 1], far[:, 1], stride, grid_h)
    y0 = y0[:, :, None] * grid_w
    y1 = y1[:, :, None] * grid_w
    x0, x1 = x0[:, None, :], x1[:, None, :]
    fy = fy[:, :, None, None]
    fx = fx[:, None, :, None]
    roi = ROI_SIZE
    out = np.empty((len(boxes), roi, roi, depth))
    step = max(1, _CHUNK_BYTES // (roi * roi * depth * out.itemsize))
    spare = np.empty((2, min(step, len(out)), roi, roi, depth))
    for start in range(0, len(out), step):
        part = slice(start, start + step)
        top = out[part]
        right, bot = spare[:, : len(top)]
        _blend(cells, y0[part], y1[part], x0[part], x1[part], fy[part], fx[part], top, bot, right)
    return out


def sample_plan(boxes, layer_ids, cfg: PyramidConfig, extent) -> tuple:
    """``(extent, strides, layer_ids, cells, fracs)``: where each (x, y,
    w, h) box samples its own layer of a ``cfg`` pyramid over ``extent``.
    Sample (i, j) of box n blends rows ``cells[0, a, i, n] + cells[1, b,
    j, n]`` of its layer's (roi, roi, H, W) window maps by ``fracs[0, i,
    n]`` and ``fracs[1, j, n]``: ``(i roi H + y) W`` for its top (a = 0)
    or bottom corners, ``j H W + x`` for its left (b = 0) or right ones.
    The 6,300 desk anchors of a 640 x 480 image take 1.2 MB."""
    width, height = _extent(extent)
    strides = {spec.layer_id: spec.stride for spec in cfg.layers}
    boxes, far = _corners(boxes)
    layer_ids = np.asarray(layer_ids)
    if layer_ids.shape != (len(boxes),):
        raise ValueError(f"{len(boxes)} boxes need as many layer ids, got shape {layer_ids.shape}")
    for layer_id in np.unique(layer_ids).tolist():
        _of_layer(strides, layer_id)
    ids = sorted(strides)
    stride = np.array([strides[l] for l in ids], dtype=np.int64)[np.searchsorted(ids, layer_ids)]
    grid_h, grid_w = -(-height // stride), -(-width // stride)
    roi = ROI_SIZE
    cells = np.empty((2, 2, roi, len(boxes)), dtype=np.int64)
    fracs = np.empty((2, roi, len(boxes)))
    # Column parts j H W + x, then row parts i roi H W + y W, summed in place.
    for axis, size, scale, step in ((0, grid_w, 1, 1), (1, grid_h, grid_w, roi)):
        i0, i1, frac = _axis_samples(boxes[:, axis], far[:, axis], stride, size[:, None])
        cells[1 - axis] = np.arange(roi)[:, None] * step * (grid_h * grid_w)
        cells[1 - axis, 0] += i0.T * scale
        cells[1 - axis, 1] += i1.T * scale
        fracs[1 - axis] = frac.T
        del i0, i1, frac  # so two axes' samples are never held at once
    return (width, height), strides, layer_ids, cells, fracs


def roi_pool_project(pyramid: FeaturePyramid, plan: tuple, rows, weights: dict) -> np.ndarray:
    """A weighted sum of each pooled box ``rows`` of a :func:`sample_plan`,
    without pooling them; returns (len(rows),).

    Equal, up to the order of floating-point sums, to a row's flattened
    pooled block on its layer l dotted with ``weights[l]``, a (roi * roi
    * C,) vector. Sampling is linear in the grid, so each reached layer's
    weights are first applied to every cell, (roi^2, C) @ (C, H * W),
    and all rows then sample one table of those window maps in one
    gather, touching one value per sample point instead of C.
    """
    extent, strides, layer_ids, cells, fracs = plan
    roi = ROI_SIZE
    for layer_id, w in weights.items():
        want = (roi * roi * _of_layer(pyramid.grids, layer_id).shape[2],)
        if np.shape(w) != want:
            raise ValueError(f"layer {layer_id}: expected {want} weights, got {np.shape(w)}")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    reached, which = np.unique(layer_ids[rows], return_inverse=True)
    reached = reached.tolist()
    moved = [l for l in reached if pyramid.strides.get(l) != strides[l]]
    if tuple(pyramid.extent) != extent or moved:
        raise ValueError(
            f"plan for {extent}, {strides}; pyramid {pyramid.extent}, {pyramid.strides}"
        )
    maps = []
    for layer_id in reached:
        grid = pyramid.grids[layer_id]
        w = np.asarray(_of_layer(weights, layer_id), dtype=np.float64)
        # Row ((i roi + j) H + y) W + x applies window cell (i, j)'s weights to cell (y, x).
        maps.append((w.reshape(roi * roi, -1) @ grid.reshape(-1, grid.shape[2]).T).reshape(-1))
    table = np.concatenate([np.empty(0), *maps])
    starts = np.cumsum([0] + [len(m) for m in maps])[which]
    (y0, y1), (x0, x1) = cells.take(rows, axis=-1)  # contiguous, as indexing is not
    fy, fx = fracs.take(rows, axis=-1)
    y0, y1 = (y0 + starts)[:, None], (y1 + starts)[:, None]
    # Window-major, (roi, roi, rows): each elementwise step runs along the rows.
    out, bot, spare = np.empty((3, roi, roi, len(rows)))
    _blend(table, y0, y1, x0, x1, fy[:, None], fx, out, bot, spare)
    return np.ascontiguousarray(np.moveaxis(out, 2, 0)).sum(axis=(1, 2))


def roi_pool(pyramid: FeaturePyramid, layer_id: int, box: BBox) -> np.ndarray:
    """Pool one box to a (roi, roi, C) block; flatten for the policy nets."""
    return roi_pool_many(pyramid, layer_id, boxes_to_array([box]))[0]

