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

from .geometry import BBox

__all__ = [
    "GenConfig",
    "RenderConfig",
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


@dataclass(frozen=True)
class GenConfig:
    """Knobs for dataset sampling.

    Heights are log-normal (median ``height_median``, log-sd
    ``height_sigma``), truncated to [min_height, 0.95 * extent height].
    """

    scenes: int = 100
    extent: tuple[int, int] = (640, 480)
    objects_min: int = 1
    objects_max: int = 6
    height_median: float = 48.0
    height_sigma: float = 0.6
    min_height: float = 24.0
    ratio_jitter: float = 0.1

    def __post_init__(self):
        if self.scenes <= 0:
            raise ValueError("scenes must be positive")
        if self.extent[0] <= 0 or self.extent[1] <= 0:
            raise ValueError("extent sides must be positive")
        if not (0 < self.objects_min <= self.objects_max):
            raise ValueError("need 0 < objects_min <= objects_max")
        if self.height_median <= 0 or self.height_sigma <= 0:
            raise ValueError("height law parameters must be positive")
        if self.min_height <= 0:
            raise ValueError("min_height must be positive")
        if not (0 < self.ratio_jitter <= 0.1):
            raise ValueError("ratio_jitter must lie in (0, 0.1]")


@dataclass(frozen=True)
class RenderConfig:
    """Rasterization appearance parameters."""

    background_level: float = 0.35
    clutter_amplitude: float = 0.06
    contrast: float = 0.35
    texture_amplitude: float = 0.08
    pixel_noise: float = 0.02


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
        h = float(np.exp(mu + cfg.height_sigma * rng.standard_normal()))
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
            ratio = ASPECT_RATIO + rng.uniform(-cfg.ratio_jitter, cfg.ratio_jitter)
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


def _background(rng: np.random.Generator, shape: tuple[int, int], cfg: RenderConfig) -> np.ndarray:
    """Smooth clutter field plus fine pixel noise."""
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
    field = (
        coarse[np.ix_(r0, c0)] * (1 - fr) * (1 - fc)
        + coarse[np.ix_(r1, c0)] * fr * (1 - fc)
        + coarse[np.ix_(r0, c1)] * (1 - fr) * fc
        + coarse[np.ix_(r1, c1)] * fr * fc
    )
    noise = rng.normal(0.0, 1.0, size=shape)
    return cfg.background_level + cfg.clutter_amplitude * field + cfg.pixel_noise * noise


def _figure_texture(
    rng: np.random.Generator, rows: int, cols: int, cfg: RenderConfig
) -> np.ndarray:
    """Striped vertical-figure texture, zero-mean."""
    stripes = rng.uniform(-1.0, 1.0, size=cols)[None, :]
    bands = rng.uniform(-0.5, 0.5, size=rows)[:, None]
    tex = cfg.texture_amplitude * (stripes + bands)
    return tex - tex.mean()


def rasterize(scene: Scene, render: RenderConfig | None = None) -> np.ndarray:
    """Render a scene to a (H, W) grayscale grid in [0, 1]."""
    render = render or RenderConfig()
    width, height = scene.extent
    rng = np.random.default_rng(scene.seed)
    img = _background(rng, (height, width), render)

    for obj in scene.objects:
        b = obj.box
        x0 = max(int(round(b.x)), 0)
        y0 = max(int(round(b.y)), 0)
        x1 = min(int(round(b.x2)), width)
        y1 = min(int(round(b.y2)), height)
        if x1 <= x0 or y1 <= y0:
            continue
        obj_rng = np.random.default_rng(obj.appearance_seed)
        patch = render.background_level + render.contrast + _figure_texture(
            obj_rng, y1 - y0, x1 - x0, render
        )
        img[y0:y1, x0:x1] = patch

    return np.clip(img, 0.0, 1.0)


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
        if not all(math.isfinite(v) for v in o["box"]):
            raise ValueError(f"box values must be finite, got {o['box']!r}")
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
