"""Recurrent localization policy: observation, state, action heads.

The observation layer projects flattened RoI features through a
per-layer matrix and a ReLU. The recurrent core comes in two modes: a
plain tanh recurrence, and the default gated (LSTM-style) recurrence
with the standard four gates. A 10-row action matrix over the state
yields the softmax action distribution.

Forward and backward passes are exact and written out by hand so the
gradient can be audited against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory import TrajStep

__all__ = [
    "N_ACTIONS",
    "PolicyConfig",
    "PolicyParams",
    "PolicyState",
    "init_params",
    "observe",
    "recur",
    "action_distribution",
    "sample_action",
    "log_prob",
    "episode_backward",
    "zero_grads",
]

N_ACTIONS = 10

_GATES = 4  # input, forget, cell, output


@dataclass(frozen=True)
class PolicyConfig:
    """Dimensions and recurrence mode.

    ``feature_dims`` maps layer id to the flattened pooled-feature
    length for that layer.
    """

    feature_dims: dict[int, int]
    obs_dim: int = 1024
    state_dim: int = 64
    mode: str = "gated"

    def __post_init__(self):
        if self.mode not in ("tanh", "gated"):
            raise ValueError("mode must be 'tanh' or 'gated'")
        if self.obs_dim < 1 or self.state_dim < 1:
            raise ValueError("dims must be positive")
        if not self.feature_dims:
            raise ValueError("need at least one layer")


@dataclass
class PolicyParams:
    cfg: PolicyConfig
    params: dict[str, np.ndarray]

    def theta_o(self, layer_id: int) -> np.ndarray:
        return self.params[f"theta_o/{layer_id}"]

    @property
    def theta_a(self) -> np.ndarray:
        return self.params["theta_a"]

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = dict(self.params)
        layer_ids = sorted(self.cfg.feature_dims)
        arrays["meta/mode"] = np.array([0.0 if self.cfg.mode == "tanh" else 1.0])
        arrays["meta/obs_dim"] = np.array([float(self.cfg.obs_dim)])
        arrays["meta/state_dim"] = np.array([float(self.cfg.state_dim)])
        arrays["meta/layer_ids"] = np.array([float(i) for i in layer_ids])
        arrays["meta/feature_dims"] = np.array(
            [float(self.cfg.feature_dims[i]) for i in layer_ids]
        )
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PolicyParams":
        layer_ids = [int(v) for v in arrays["meta/layer_ids"]]
        cfg = PolicyConfig(
            feature_dims={
                i: int(d) for i, d in zip(layer_ids, arrays["meta/feature_dims"])
            },
            obs_dim=int(arrays["meta/obs_dim"][0]),
            state_dim=int(arrays["meta/state_dim"][0]),
            mode="tanh" if arrays["meta/mode"][0] == 0.0 else "gated",
        )
        params = {k: np.array(v) for k, v in arrays.items() if not k.startswith("meta/")}
        _require_finite(params)
        out = cls(cfg=cfg, params=params)
        out.validate_shapes()
        return out

    def validate_shapes(self) -> None:
        cfg = self.cfg
        want = {f"theta_o/{i}": (cfg.obs_dim, d) for i, d in cfg.feature_dims.items()}
        if cfg.mode == "tanh":
            want["theta_s1"] = (cfg.state_dim, cfg.obs_dim)
            want["theta_s2"] = (cfg.state_dim, cfg.state_dim)
        else:
            want["wx"] = (_GATES * cfg.state_dim, cfg.obs_dim)
            want["wh"] = (_GATES * cfg.state_dim, cfg.state_dim)
        want["theta_a"] = (N_ACTIONS, cfg.state_dim)
        if set(want) != set(self.params):
            raise ValueError(
                f"parameter names mismatch: expected {sorted(want)}, got {sorted(self.params)}"
            )
        for name, shape in want.items():
            if self.params[name].shape != shape:
                raise ValueError(
                    f"{name}: expected shape {shape}, got {self.params[name].shape}"
                )


@dataclass(frozen=True)
class PolicyState:
    s: np.ndarray
    c: np.ndarray | None
    t: int

    @classmethod
    def initial(cls, cfg: PolicyConfig) -> "PolicyState":
        c = None if cfg.mode == "tanh" else np.zeros(cfg.state_dim)
        return cls(s=np.zeros(cfg.state_dim), c=c, t=0)


def _require_finite(params: dict[str, np.ndarray]) -> None:
    """Reject a loaded parameter set holding NaN or infinite values."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name} has non-finite values")


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_params(seed: int, cfg: PolicyConfig) -> PolicyParams:
    """Uniform initialization with the per-matrix Glorot bound."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for layer_id in sorted(cfg.feature_dims):
        params[f"theta_o/{layer_id}"] = _glorot(rng, cfg.obs_dim, cfg.feature_dims[layer_id])
    if cfg.mode == "tanh":
        params["theta_s1"] = _glorot(rng, cfg.state_dim, cfg.obs_dim)
        params["theta_s2"] = _glorot(rng, cfg.state_dim, cfg.state_dim)
    else:
        # Per-gate blocks share the single-gate fan so the bound matches
        # the tanh-mode matrices of the same shape.
        params["wx"] = np.concatenate(
            [_glorot(rng, cfg.state_dim, cfg.obs_dim) for _ in range(_GATES)], axis=0
        )
        params["wh"] = np.concatenate(
            [_glorot(rng, cfg.state_dim, cfg.state_dim) for _ in range(_GATES)], axis=0
        )
    params["theta_a"] = _glorot(rng, N_ACTIONS, cfg.state_dim)
    return PolicyParams(cfg=cfg, params=params)


def zero_grads(params: PolicyParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.params.items()}


def observe(params: PolicyParams, layer_id: int, flat_features: np.ndarray) -> np.ndarray:
    """ReLU projection of one layer's flattened RoI features."""
    flat_features = np.asarray(flat_features, dtype=np.float64)
    theta = params.theta_o(layer_id)
    if flat_features.shape != (theta.shape[1],):
        raise ValueError(
            f"layer {layer_id}: expected features of length {theta.shape[1]}, "
            f"got {flat_features.shape}"
        )
    return np.maximum(theta @ flat_features, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _tanh_step(params: PolicyParams, o: np.ndarray, state: PolicyState):
    s = np.tanh(params.params["theta_s1"] @ o + params.params["theta_s2"] @ state.s)
    return PolicyState(s=s, c=None, t=state.t + 1), (o, state.s)


def _gated_step(params: PolicyParams, o: np.ndarray, state: PolicyState):
    n = params.cfg.state_dim
    z = params.params["wx"] @ o + params.params["wh"] @ state.s
    i = _sigmoid(z[:n])
    f = _sigmoid(z[n : 2 * n])
    g = np.tanh(z[2 * n : 3 * n])
    og = _sigmoid(z[3 * n :])
    c = f * state.c + i * g
    s = og * np.tanh(c)
    cache = (o, state.s, state.c, i, f, g, og, c)
    return PolicyState(s=s, c=c, t=state.t + 1), cache


def recur(params: PolicyParams, o: np.ndarray, state: PolicyState) -> PolicyState:
    """Advance the recurrent state by one observation."""
    step = _tanh_step if params.cfg.mode == "tanh" else _gated_step
    return step(params, o, state)[0]


def action_distribution(params: PolicyParams, state: PolicyState) -> np.ndarray:
    """Softmax over the ten actions, computed with max subtraction."""
    logits = params.theta_a @ state.s
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from the action distribution."""
    u = rng.random()
    cum = np.cumsum(dist)
    return int(np.searchsorted(cum, u * cum[-1], side="right").clip(0, len(dist) - 1))


def log_prob(dist: np.ndarray, action: int) -> float:
    return float(np.log(max(dist[action], 1e-300)))


def episode_backward(
    params: PolicyParams, steps: list[TrajStep] | tuple[TrajStep, ...]
) -> dict[str, np.ndarray]:
    """Gradient of sum_t log pi(a_t | s_t) with respect to all parameters.

    Replays the recorded (layer, features, action) sequence forward with
    caching, then backpropagates through time. Layers never visited get
    zero gradient blocks.
    """
    grads = zero_grads(params)
    if not steps:
        return grads
    cfg = params.cfg
    mode = cfg.mode
    n = cfg.state_dim

    # Forward replay with caches.
    state = PolicyState.initial(cfg)
    step_fn = _tanh_step if mode == "tanh" else _gated_step
    forward: list[tuple] = []
    for step in steps:
        phi = np.asarray(step.features, dtype=np.float64)
        z_obs = params.theta_o(step.layer_id) @ phi
        o = np.maximum(z_obs, 0.0)
        state, cache = step_fn(params, o, state)
        dist = action_distribution(params, state)
        forward.append((step, phi, z_obs, o, cache, state, dist))

    ds = np.zeros(n)
    dc = np.zeros(n)
    for step, phi, z_obs, o, cache, state, dist in reversed(forward):
        dlogits = -dist.copy()
        dlogits[step.action] += 1.0
        grads["theta_a"] += np.outer(dlogits, state.s)
        ds = ds + params.theta_a.T @ dlogits

        if mode == "tanh":
            o_cached, s_prev = cache
            dpre = ds * (1.0 - state.s**2)
            grads["theta_s1"] += np.outer(dpre, o_cached)
            grads["theta_s2"] += np.outer(dpre, s_prev)
            do = params.params["theta_s1"].T @ dpre
            ds = params.params["theta_s2"].T @ dpre
        else:
            o_cached, s_prev, c_prev, i, f, g, og, c = cache
            tc = np.tanh(c)
            dog = ds * tc
            dc = dc + ds * og * (1.0 - tc**2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    dog * og * (1.0 - og),
                ]
            )
            grads["wx"] += np.outer(dz, o_cached)
            grads["wh"] += np.outer(dz, s_prev)
            do = params.params["wx"].T @ dz
            ds = params.params["wh"].T @ dz
            dc = dc * f

        dz_obs = do * (z_obs > 0)
        grads[f"theta_o/{step.layer_id}"] += np.outer(dz_obs, phi)
    return grads
