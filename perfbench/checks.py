"""Output checks: invariants on any seed, recorded values on the default one.

Reference values were recorded at the commit that introduced the
benchmark, for ``DEFAULT_SEED`` at the full size, and are data: no flag
of the benchmark rewrites them. Integers (actions, layer ids, counts)
must match exactly. Floats must match within ``RTOL``/``ATOL``: the
arithmetic at that commit reproduces them bit for bit, and the tolerance
only admits a reordering of floating-point sums. Whether every float,
and every array whose sha256 was recorded, matched exactly is reported
as ``bit_exact``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
RTOL = 1e-6
ATOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")
PARAM_HEAD = 4  # leading values kept per parameter array


@dataclass
class Comparison:
    """Mismatches found against the reference, and whether every float
    compared was bit-identical."""

    problems: list[str] = field(default_factory=list)
    bit_exact: bool = True
    compared: int = 0
    skipped: list[str] = field(default_factory=list)

    def fail(self, message: str):
        self.problems.append(message)

    def unit_output(self, run, index: int, what: str):
        """The output of unit ``index`` of a measured pass; a unit that
        raised is a mismatch, one the pass never reached is skipped."""
        if index in run.outputs:
            return run.outputs[index]
        if index < run.units:
            self.fail(f"{what}: failed")
        else:
            self.skipped.append(what)
        return None

    def ints(self, what, got, want):
        self.compared += 1
        if np.asarray(got).tolist() != list(want):
            self.fail(f"{what}: {np.asarray(got).tolist()} != recorded {list(want)}")

    def digest(self, got: str, want: str):
        """Hashes only tell exact from inexact; the tolerance is checked
        on values compared alongside."""
        self.compared += 1
        if got != want:
            self.bit_exact = False

    def floats(self, what, got, want):
        self.compared += 1
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape} != recorded {want.shape}")
            return
        if not np.array_equal(got, want):
            self.bit_exact = False
            if not np.allclose(got, want, rtol=RTOL, atol=ATOL):
                worst = float(np.max(np.abs(got - want)))
                self.fail(f"{what}: differs from the recorded values by up to {worst:.3g}")


def array_summary(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "sum": float(arr.sum()),
        "sumsq": float((arr * arr).sum()),
        "head": arr.reshape(-1)[:PARAM_HEAD].tolist(),
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }


def summary_values(summary: dict) -> list[float]:
    return [summary["sum"], summary["sumsq"], *summary["head"]]


def all_same(workload, outputs: dict) -> list[str]:
    """Units that must repeat the same computation: each must equal the first."""
    if not outputs:
        return []
    first = min(outputs)
    return [
        f"unit {i}: outputs differ from unit {first}"
        for i in sorted(outputs)
        if i != first and not workload.same(outputs[first], outputs[i])
    ]


def boxes_inside(where: str, boxes: np.ndarray, extent) -> list[str]:
    """Boxes (N, 4) must be finite, with positive sides, inside [0, W] x [0, H]."""
    width, height = extent
    eps = 1e-9 * max(width, height)
    x, y, w, h = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    if not np.all(np.isfinite(boxes)):
        return [f"{where}: non-finite box"]
    if np.any((w <= 0) | (h <= 0)):
        return [f"{where}: box with a non-positive side"]
    if np.any((x < -eps) | (y < -eps) | (x + w > width + eps) | (y + h > height + eps)):
        return [f"{where}: box outside the {width}x{height} extent"]
    return []


def load_reference(workload_name: str):
    if not REFERENCE_PATH.exists():
        return None
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data.get(workload_name)

