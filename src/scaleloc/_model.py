"""Helpers both model stages share: the checkpoint loader, the parameter
shape check, the layer lookup and the box checks (which RoI pooling,
labeling and box arithmetic use too), Glorot initialization and the
sigmoid and softmax. A checkpoint is a model's ``params``, as ``np.savez(path, **model.params)``
writes it. Every numeric setting is checked by ``_count`` (an integer of at least a bound),
``_positive`` (a finite real number above 0) or ``_extent`` (a (width, height) pair of
counts), and every numeric array by ``_real`` (integers or floats): one implementation per rule."""

from __future__ import annotations

import math
import re

import numpy as np


def _load_params(arrays: dict[str, np.ndarray], layer_matrix: str, layer_order: str = "K"):
    """Float64 copies of ``arrays``, and each layer's feature dim by id, in
    ascending order: the columns of ``layer_matrix.format(id)``, where an
    id has no sign or leading zeros. The layer matrices are copied in
    ``layer_order`` (numpy's memory order), the rest as they are laid out.
    Rejects values that are not finite real numbers, a layer matrix that
    is not 2-D with columns, and arrays without one."""
    params, dims = {}, {}
    for name, value in arrays.items():
        value = _real(f"parameter {name}", value)
        layer = re.fullmatch(layer_matrix.format("(0|[1-9][0-9]*)"), name)
        params[name] = value = value.astype(np.float64, order=layer_order if layer else "K")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name} has non-finite values")
        if layer:
            if value.ndim != 2 or value.shape[1] < 1:
                raise ValueError(f"{name}: expected a matrix with columns, got shape {value.shape}")
            dims[int(layer[1])] = value.shape[1]
    if not dims:
        raise ValueError(f"no {layer_matrix.format('<id>')} matrix among {sorted(params)}")
    return params, dict(sorted(dims.items()))


def _check_shapes(want: dict[str, tuple], params: dict[str, np.ndarray]) -> None:
    """Require exactly the parameter names of ``want``, with its shapes."""
    if set(want) != set(params):
        raise ValueError(f"parameter names mismatch: expected {sorted(want)}, got {sorted(params)}")
    for name, shape in want.items():
        if params[name].shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {params[name].shape}")


def _count(name: str, value, least: int = 1) -> None:
    """Require an ``int`` or NumPy integer, not a ``bool``, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _positive(name: str, value) -> None:
    """Require a real number, not a ``bool``, that is finite and above 0."""
    real = (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number above 0, got {value!r}")


def _real(name: str, values) -> np.ndarray:
    """``values`` as an array; a ``ValueError`` names any dtype but integer or float."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} holds {values.dtype}, not real numbers")
    return values


def _extent(extent) -> tuple[int, int]:
    """``extent`` unpacked as (width, height), each a count."""
    try:
        width, height = extent
    except (TypeError, ValueError):
        raise ValueError(f"extent must be a (width, height) pair, got {extent!r}") from None
    _count("extent width", width)
    _count("extent height", height)
    return width, height


def _of_layer(by_layer: dict, layer_id):
    """The entry of ``layer_id`` in a dict keyed by layer id; a
    ``ValueError`` naming the dict's layers if it has none."""
    if not isinstance(layer_id, (int, np.integer)) or layer_id not in by_layer:
        raise ValueError(f"layer {layer_id!r} is not one of {sorted(by_layer)}")
    return by_layer[layer_id]


def _boxes(boxes) -> np.ndarray:
    """``boxes`` as a float64 (N, 4) array; a ``ValueError`` names any
    other shape, rather than regrouping its values four by four."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"expected (N, 4) boxes, got shape {boxes.shape}")
    return boxes


def _corners(boxes):
    """Float64 (N, 4) boxes and their far corners (N, 2), x + w and y + h;
    a ``ValueError`` names a box with a non-finite coordinate or corner,
    or with a side of at most 0."""
    boxes = _boxes(boxes)
    with np.errstate(over="ignore"):
        far = boxes[:, :2] + boxes[:, 2:]  # x + w and y + h, inf where they overflow
    finite = np.isfinite(boxes).all(axis=1) & np.isfinite(far).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"box {row} has a non-finite coordinate or corner: {boxes[row].tolist()}")
    bad = np.flatnonzero((boxes[:, 2:] <= 0).any(axis=1))
    if len(bad):
        raise ValueError(f"box {bad[0]} has a side of at most 0: {boxes[bad[0]].tolist()}")
    return boxes, far


# Row block of a draw. In column-major storage each block writes a short
# run into every column, so larger blocks draw faster while a block stays
# in cache: at full size 2 MiB beat both 1 MiB and 16-64 MiB (see
# init_params in policy.py). In policy-full 2 MiB blocks kept the peak
# RSS, while 3 MiB blocks raised it by 3 MiB at seed 4, 4 MiB by 6 MiB
# and 8 MiB by 8 MiB.
_DRAW_BYTES = 2 << 20


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int, order: str = "C") -> np.ndarray:
    """A (fan_out, fan_in) uniform draw within the Glorot bound, stored in
    numpy's memory ``order`` ("C" or "F"). It is drawn in row blocks of
    about ``_DRAW_BYTES``, which consume ``rng``'s stream as one whole
    draw does, so the values do not depend on ``order`` and no second
    full-size copy is made."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty((fan_out, fan_in), order=order)
    rows = max(1, _DRAW_BYTES // (8 * fan_in))
    for start in range(0, fan_out, rows):
        block = out[start : start + rows]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf below x ~ -709, which gives the right 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction."""
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)
