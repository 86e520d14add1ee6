"""Helpers both model stages share: the checkpoint codec, the parameter
shape check, Glorot initialization and the sigmoid and softmax."""

from __future__ import annotations

import math

import numpy as np


def _checkpoint(
    params: dict[str, np.ndarray], feature_dims: dict[int, int], **scalars: int
) -> dict[str, np.ndarray]:
    """The parameters, then each ``meta/<scalar>`` as a one-entry array,
    then ``meta/layer_ids`` and ``meta/feature_dims`` in the order of
    ``feature_dims``, all float64."""
    meta = {name: [value] for name, value in scalars.items()}
    meta.update(layer_ids=list(feature_dims), feature_dims=list(feature_dims.values()))
    return {**params, **{f"meta/{k}": np.array(v, dtype=np.float64) for k, v in meta.items()}}


def _split_checkpoint(arrays: dict[str, np.ndarray], *scalar_names: str):
    """Split what :func:`_checkpoint` wrote into the feature dims by layer
    id, in stored order, the named scalars as ints, and the parameters.

    Rejects ``meta/`` names other than those written, ``meta/`` values
    that are not whole numbers, layer ids without exactly one feature
    dim each, scalars without exactly one value, and parameters holding
    NaN or infinite values.
    """
    meta_names = {"layer_ids", "feature_dims", *scalar_names}
    meta = {k.removeprefix("meta/"): v for k, v in arrays.items() if k.startswith("meta/")}
    if set(meta) != meta_names:
        raise ValueError(f"meta names mismatch: expected {sorted(meta_names)}, got {sorted(meta)}")
    for name, value in meta.items():
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value) & (value == np.trunc(value))):
            raise ValueError(f"meta/{name} must hold whole numbers, got {value.tolist()}")
        meta[name] = [int(v) for v in value]
    layer_ids, dims = meta["layer_ids"], meta["feature_dims"]
    if len(dims) != len(layer_ids) or len(set(layer_ids)) != len(layer_ids):
        raise ValueError(
            f"meta/feature_dims must hold one dim per distinct layer id, got {dims} "
            f"for layer ids {layer_ids}"
        )
    for name in scalar_names:
        if len(meta[name]) != 1:
            raise ValueError(f"meta/{name} must hold exactly one value, got {meta[name]}")
    params = {k: np.array(v) for k, v in arrays.items() if not k.startswith("meta/")}
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name} has non-finite values")
    scalars = {name: meta[name][0] for name in scalar_names}
    return dict(zip(layer_ids, dims)), scalars, params


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
