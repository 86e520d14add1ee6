"""Deterministic synthetic street-scene generator.

Scenes carry pedestrian-shaped ground-truth boxes whose heights follow a
log-normal law dominated by far-scale (< 80 px) instances, and rasterize
to grayscale images with structured clutter. Everything is a pure
function of (config, seed), so datasets regenerate bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._model import _count, _extent, _positive
from .geometry import BBox

__all__ = [
    "GenConfig",
    "GroundTruth",
    "Scene",
    "DatasetFormatError",
    "sample_dataset",
    "rasterize",
    "write_dataset",
    "read_dataset",
]

ASPECT_RATIO = 0.41
ASPECT_BAND = (0.31, 0.51)
RATIO_JITTER = 0.1  # figure width ratios are uniform in ASPECT_RATIO +- this
HEIGHT_SIGMA = 0.6  # log-sd of figure heights

# Appearance of a rendered scene, in gray levels of [0, 1].
BACKGROUND_LEVEL = 0.35
CLUTTER_AMPLITUDE = 0.06
CONTRAST = 0.35  # figure level above the background
TEXTURE_AMPLITUDE = 0.08
PIXEL_NOISE = 0.02


@dataclass(frozen=True)
class GenConfig:
    """Knobs for dataset sampling.

    Heights are log-normal (median ``height_median``, log-sd
    ``HEIGHT_SIGMA``), truncated to [min_height, 0.95 * extent height].
    """

    scenes: int = 100
    extent: tuple[int, int] = (640, 480)
    objects_min: int = 1
    objects_max: int = 6
    height_median: float = 48.0
    min_height: float = 24.0

    def __post_init__(self):
        height = _extent(self.extent)[1]
        _count("scenes", self.scenes)
        _count("objects_min", self.objects_min)
        _count("objects_max", self.objects_max, least=self.objects_min)
        _positive("height_median", self.height_median)
        _positive("min_height", self.min_height)
        if self.min_height > 0.95 * height:
            raise ValueError(f"min_height {self.min_height!r} exceeds 0.95 * extent height")


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


class DatasetFormatError(ValueError):
    """Raised when a dataset file does not parse or holds an impossible value."""


def _sample_height(rng: np.random.Generator, cfg: GenConfig) -> float:
    """Draw one truncated log-normal height."""
    mu = np.log(cfg.height_median)
    hi = 0.95 * cfg.extent[1]
    for _ in range(1000):
        h = float(np.exp(mu + HEIGHT_SIGMA * rng.standard_normal()))
        if cfg.min_height <= h <= hi:
            return h
    raise RuntimeError("height sampling failed; check the configured law")


def sample_dataset(cfg: GenConfig, seed: int, id_prefix: str = "scene") -> list[Scene]:
    """Generate a deterministic list of scenes for (cfg, seed)."""
    master = np.random.default_rng(seed)
    width, height = cfg.extent
    scenes = []
    for index in range(cfg.scenes):
        scene_seed = int(master.integers(0, 2**63 - 1))
        rng = np.random.default_rng(scene_seed)
        count = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
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


def _scene_to_record(scene: Scene) -> dict:
    return {
        "id": scene.id,
        "extent": list(scene.extent),
        "seed": scene.seed,
        "objects": [
            {"box": list(g.box.as_tuple()), "appearance_seed": g.appearance_seed}
            for g in scene.objects
        ],
    }


def _whole(value, what: str, least: int) -> int:
    """``value`` as an int, if it is a whole number >= ``least``."""
    if type(value) not in (int, float) or not (value == int(value) and value >= least):
        raise ValueError(f"{what} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _scene_from_record(rec: dict) -> Scene:
    objects = []
    for o in rec["objects"]:
        if not all(type(v) in (int, float) and math.isfinite(v) for v in o["box"]):
            raise ValueError(f"box values must be finite numbers, got {o['box']!r}")
        seed = _whole(o["appearance_seed"], "appearance seed", 0)
        objects.append(GroundTruth(box=BBox(*o["box"]), appearance_seed=seed))
    width, height = rec["extent"]
    return Scene(
        id=str(rec["id"]),
        extent=(_whole(width, "extent width", 1), _whole(height, "extent height", 1)),
        objects=tuple(objects),
        seed=_whole(rec["seed"], "scene seed", 0),
    )


def write_dataset(path, scenes) -> None:
    """Write scenes as line-delimited JSON, one scene per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(json.dumps(_scene_to_record(scene)) + "\n")


def read_dataset(path) -> list[Scene]:
    """Read a line-delimited dataset; errors name the offending line."""
    scenes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                scenes.append(_scene_from_record(rec))
            except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
    ids = [s.id for s in scenes]
    if len(set(ids)) != len(ids):
        raise DatasetFormatError("duplicate scene ids in dataset")
    return scenes
