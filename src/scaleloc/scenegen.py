"""Deterministic synthetic street-scene generator.

Scenes carry pedestrian-shaped ground-truth boxes whose heights follow a
log-normal law dominated by far-scale (< 80 px) instances, and rasterize
to grayscale images with structured clutter. Everything is a pure
function of (config, seed), so a scene set is named by its ``GenConfig``
fields and a seed, and regenerates bit-identically; there is no dataset
file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._model import _count, _extent, _positive
from .geometry import BBox

__all__ = [
    "GenConfig",
    "GroundTruth",
    "Scene",
    "sample_dataset",
    "rasterize",
]

ASPECT_RATIO = 0.41
ASPECT_BAND = (0.31, 0.51)
RATIO_JITTER = 0.1  # figure width ratios are uniform in ASPECT_RATIO +- this
HEIGHT_SIGMA = 0.6  # log-sd of figure heights
HEIGHT_CAP = 0.95  # tallest figure, as a share of the extent height
OBJECTS = (1, 6)  # fewest and most figures per scene

# Appearance of a rendered scene, in gray levels of [0, 1].
BACKGROUND_LEVEL = 0.35
CLUTTER_AMPLITUDE = 0.06
CONTRAST = 0.35  # figure level above the background
TEXTURE_AMPLITUDE = 0.08
PIXEL_NOISE = 0.02


@dataclass(frozen=True)
class GenConfig:
    """Scene count, extent and figure-height law of a scene set.

    Heights are log-normal (median ``height_median``, log-sd
    ``HEIGHT_SIGMA``), truncated to [min_height, ``HEIGHT_CAP`` * extent height].
    """

    scenes: int = 100
    extent: tuple[int, int] = (640, 480)
    height_median: float = 48.0
    min_height: float = 24.0

    def __post_init__(self):
        width, height = _extent(self.extent)
        if width < 2 or height < 2:  # build_pyramid's least image
            raise ValueError(f"extent {self.extent!r} is too small: need at least 2 x 2")
        _count("scenes", self.scenes)
        _positive("height_median", self.height_median)
        _positive("min_height", self.min_height)
        if self.min_height > HEIGHT_CAP * height:
            raise ValueError(f"min_height {self.min_height!r} exceeds {HEIGHT_CAP} * extent height")


@dataclass(frozen=True)
class GroundTruth:
    box: BBox
    appearance_seed: int


@dataclass(frozen=True)
class Scene:
    id: str
    extent: tuple[int, int]
    objects: tuple[GroundTruth, ...]
    seed: int

    @property
    def gt_boxes(self) -> list[BBox]:
        return [g.box for g in self.objects]


def _sample_height(rng: np.random.Generator, cfg: GenConfig) -> float:
    """Draw one truncated log-normal height."""
    mu = np.log(cfg.height_median)
    hi = HEIGHT_CAP * cfg.extent[1]
    for _ in range(1000):
        h = float(np.exp(mu + HEIGHT_SIGMA * rng.standard_normal()))
        if cfg.min_height <= h <= hi:
            return h
    raise ValueError(
        f"no height in [min_height {cfg.min_height!r}, {HEIGHT_CAP} * extent height {hi:g}] "
        f"in 1000 draws around height_median {cfg.height_median!r}"
    )


def sample_dataset(cfg: GenConfig, seed: int, id_prefix: str = "scene") -> list[Scene]:
    """Generate a deterministic list of scenes for (cfg, seed)."""
    _count("seed", seed, least=0)
    master = np.random.default_rng(seed)
    width, height = cfg.extent
    scenes = []
    for index in range(cfg.scenes):
        scene_seed = int(master.integers(0, 2**63 - 1))
        rng = np.random.default_rng(scene_seed)
        count = int(rng.integers(OBJECTS[0], OBJECTS[1] + 1))
        objects = []
        for _ in range(count):
            h = _sample_height(rng, cfg)
            ratio = ASPECT_RATIO + rng.uniform(-RATIO_JITTER, RATIO_JITTER)
            ratio = min(max(ratio, ASPECT_BAND[0]), ASPECT_BAND[1])
            w = min(ratio * h, width - 1.0)
            x = rng.uniform(0.0, width - w)
            y = rng.uniform(0.0, height - h)
            objects.append(
                GroundTruth(
                    box=BBox(x, y, w, h),
                    appearance_seed=int(rng.integers(0, 2**31 - 1)),
                )
            )
        scenes.append(
            Scene(
                id=f"{id_prefix}-{index:05d}",
                extent=cfg.extent,
                objects=tuple(objects),
                seed=scene_seed,
            )
        )
    return scenes


def _background(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Smooth clutter field plus fine pixel noise.

    The field is a bilinear upsample of a coarse uniform grid, the sum of
    four corner terms ``coarse[r, c] * wr * wc``. Each term weights the
    small (rows, coarse columns) array before gathering columns, so
    ``take(coarse[r] * wr, c) * wc`` is the product of
    ``coarse[ix_(r, c)] * wr * wc``, in the same order, with one
    full-resolution multiply fewer. The terms, then level, clutter and
    noise, are summed in place in two full-resolution buffers in the
    order of ``LEVEL + AMPLITUDE * field + NOISE * noise``: the same image,
    bit for bit, with no third full-resolution array.
    """
    rows, cols = shape
    coarse_r = max(rows // 40, 2)
    coarse_c = max(cols // 40, 2)
    coarse = rng.uniform(-1.0, 1.0, size=(coarse_r, coarse_c))

    # Bilinear upsample of the coarse grid to full resolution.
    ri = np.linspace(0, coarse_r - 1, rows)
    ci = np.linspace(0, coarse_c - 1, cols)
    r0 = np.floor(ri).astype(int)
    c0 = np.floor(ci).astype(int)
    r1 = np.minimum(r0 + 1, coarse_r - 1)
    c1 = np.minimum(c0 + 1, coarse_c - 1)
    fr = (ri - r0)[:, None]
    fc = (ci - c0)[None, :]
    field = np.take(coarse[r0] * (1 - fr), c0, axis=1)
    field *= 1 - fc
    term = np.empty(shape)
    for r, c, wr, wc in ((r1, c0, fr, 1 - fc), (r0, c1, 1 - fr, fc), (r1, c1, fr, fc)):
        # mode="clip" lets take write into ``out`` unbuffered; c is in range.
        np.take(coarse[r] * wr, c, axis=1, out=term, mode="clip")
        term *= wc
        field += term
    field *= CLUTTER_AMPLITUDE
    field += BACKGROUND_LEVEL
    rng.standard_normal(out=term)  # the same draws as normal(0.0, 1.0, shape)
    term *= PIXEL_NOISE
    field += term
    return field


def _figure_texture(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Striped vertical-figure texture, zero-mean."""
    stripes = rng.uniform(-1.0, 1.0, size=cols)[None, :]
    bands = rng.uniform(-0.5, 0.5, size=rows)[:, None]
    tex = TEXTURE_AMPLITUDE * (stripes + bands)
    return tex - tex.mean()


def rasterize(scene: Scene) -> np.ndarray:
    """Render a scene to a (H, W) grayscale grid in [0, 1]."""
    width, height = scene.extent
    rng = np.random.default_rng(scene.seed)
    img = _background(rng, (height, width))

    for obj in scene.objects:
        b = obj.box
        x0 = max(int(round(b.x)), 0)
        y0 = max(int(round(b.y)), 0)
        x1 = min(int(round(b.x2)), width)
        y1 = min(int(round(b.y2)), height)
        if x1 <= x0 or y1 <= y0:
            continue
        obj_rng = np.random.default_rng(obj.appearance_seed)
        patch = BACKGROUND_LEVEL + CONTRAST + _figure_texture(obj_rng, y1 - y0, x1 - x0)
        img[y0:y1, x0:x1] = patch

    return np.clip(img, 0.0, 1.0, out=img)

