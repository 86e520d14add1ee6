"""Helpers both model stages share: the checkpoint loader, the parameter
shape check, Glorot initialization and the sigmoid and softmax. A
checkpoint is a model's ``params``, as ``np.savez(path, **model.params)``
writes it."""

from __future__ import annotations

import math
import re

import numpy as np


def _load_params(arrays: dict[str, np.ndarray], layer_matrix: str):
    """Float64 copies of ``arrays``, and each layer's feature dim by id, in
    ascending order: the columns of ``layer_matrix.format(id)``, where an
    id has no sign or leading zeros. Rejects values that are not finite
    real numbers, a layer matrix that is not 2-D with columns, and arrays
    without one."""
    params, dims = {}, {}
    for name, value in arrays.items():
        value = np.asarray(value)
        if value.dtype.kind not in "iuf":
            raise ValueError(f"parameter {name} holds {value.dtype}, not real numbers")
        params[name] = value = value.astype(np.float64)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name} has non-finite values")
        layer = re.fullmatch(layer_matrix.format("(0|[1-9][0-9]*)"), name)
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


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf below x ~ -709, which gives the right 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction."""
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)
