"""Recurrent localization policy: observation, state, action heads.

The observation layer projects flattened RoI features through a
per-layer matrix and a ReLU. The recurrent core is a gated (LSTM-style)
recurrence with the standard four gates. A 10-row action matrix over the
state yields the softmax action distribution.

Forward and backward passes are exact and written out by hand so the
gradient can be audited against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._model import _check_shapes, _count, _glorot, _load_params, _of_layer, _sigmoid, _softmax
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
    """Dimensions of the observation layer and the recurrent state.

    ``feature_dims`` maps layer id to the flattened pooled-feature
    length for that layer.
    """

    feature_dims: dict[int, int]
    obs_dim: int = 1024
    state_dim: int = 64

    def __post_init__(self):
        _count("obs_dim", self.obs_dim)
        _count("state_dim", self.state_dim)
        if not self.feature_dims:
            raise ValueError("need at least one layer")
        for layer_id, dim in self.feature_dims.items():
            _count("layer id", layer_id, least=0)  # checkpoint names hold it as digits
            _count(f"layer {layer_id} feature dim", dim)


@dataclass
class PolicyParams:
    """The policy's parameters by name. Every ``theta_o/<id>`` is stored
    column-major (Fortran order), as ``init_params`` draws it and
    ``from_arrays`` loads it; see ``observe`` for why."""

    cfg: PolicyConfig
    params: dict[str, np.ndarray]

    def theta_o(self, layer_id: int) -> np.ndarray:
        return self.params[f"theta_o/{layer_id}"]

    @property
    def theta_a(self) -> np.ndarray:
        return self.params["theta_a"]

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PolicyParams":
        """Load a ``params`` dict, taking the layers and feature dims from
        the ``theta_o/<id>`` matrices, ``obs_dim`` from their rows and
        ``state_dim`` from ``theta_a``'s columns; any other name set or
        shape is a ``ValueError``. Each ``theta_o/<id>`` is copied
        column-major, whatever its layout in ``arrays``."""
        params, dims = _load_params(arrays, "theta_o/{}", "F")
        if np.ndim(params.get("theta_a")) != 2:
            raise ValueError(f"need a ({N_ACTIONS}, state_dim) theta_a matrix")
        obs_dim = params[f"theta_o/{min(dims)}"].shape[0]
        cfg = PolicyConfig(dims, obs_dim, params["theta_a"].shape[1])
        want = {f"theta_o/{i}": (cfg.obs_dim, d) for i, d in cfg.feature_dims.items()}
        want["wx"] = (_GATES * cfg.state_dim, cfg.obs_dim)
        want["wh"] = (_GATES * cfg.state_dim, cfg.state_dim)
        want["theta_a"] = (N_ACTIONS, cfg.state_dim)
        _check_shapes(want, params)
        return cls(cfg, params)


@dataclass(frozen=True)
class PolicyState:
    """Hidden state ``s`` and cell state ``c`` of the recurrent core."""

    s: np.ndarray
    c: np.ndarray

    @classmethod
    def initial(cls, cfg: PolicyConfig) -> "PolicyState":
        return cls(s=np.zeros(cfg.state_dim), c=np.zeros(cfg.state_dim))


def init_params(seed: int, cfg: PolicyConfig) -> PolicyParams:
    """Uniform initialization with the per-matrix Glorot bound.

    Each ``theta_o/<id>`` holds the values of the row-major draw, stored
    column-major (see ``observe``): it is drawn in row blocks of about
    2 MiB straight into Fortran-ordered storage, so there is no second
    full copy. For the full-size matrices (224 MiB, 2-vCPU Xeon) that
    took 0.29 s against 0.21 s for the row-major draw, and 0.34 s with
    1 MiB blocks (medians of 30 alternated rounds); ``np.asfortranarray``
    after the row-major draw took 0.50 s against 0.15 s.
    """
    _count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for layer_id in sorted(cfg.feature_dims):
        params[f"theta_o/{layer_id}"] = _glorot(rng, cfg.obs_dim, cfg.feature_dims[layer_id], "F")
    # Each gate's block draws with its own single-gate fan.
    params["wx"] = np.concatenate(
        [_glorot(rng, cfg.state_dim, cfg.obs_dim) for _ in range(_GATES)], axis=0
    )
    params["wh"] = np.concatenate(
        [_glorot(rng, cfg.state_dim, cfg.state_dim) for _ in range(_GATES)], axis=0
    )
    params["theta_a"] = _glorot(rng, N_ACTIONS, cfg.state_dim)
    return PolicyParams(cfg=cfg, params=params)


def _zeros_as(arr: np.ndarray) -> np.ndarray:
    # Zeros in arr's memory order. np.zeros takes calloc's zero pages;
    # np.zeros_like writes every byte.
    return np.zeros(arr.shape, arr.dtype, order="F" if arr.flags.f_contiguous else "C")


def zero_grads(params: PolicyParams) -> dict[str, np.ndarray]:
    """A zero gradient per parameter, each laid out as its parameter."""
    return {name: _zeros_as(arr) for name, arr in params.params.items()}


def _check_action(action) -> None:
    # A negative index would wrap around to another action, and a bool
    # would index the distribution as a mask.
    whole = isinstance(action, (int, np.integer)) and not isinstance(action, bool)
    if not (whole and 0 <= action < N_ACTIONS):
        raise ValueError(f"action must be an integer in [0, {N_ACTIONS}), got {action!r}")


def _as_features(params: PolicyParams, layer_id: int, flat_features) -> np.ndarray:
    """``flat_features`` as a float64 vector of ``layer_id``'s length."""
    dim = _of_layer(params.cfg.feature_dims, layer_id)
    flat_features = np.asarray(flat_features, dtype=np.float64)
    if flat_features.shape != (dim,):
        raise ValueError(
            f"layer {layer_id}: expected features of length {dim}, "
            f"got {flat_features.shape}"
        )
    return flat_features


def observe(params: PolicyParams, layer_id: int, flat_features: np.ndarray) -> np.ndarray:
    """ReLU projection of one layer's flattened RoI features.

    ``theta_o`` is column-major, so this product runs OpenBLAS's direct
    GEMV, and ``episode_backward``'s replay ``phi @ theta_o.T`` reads an
    untransposed operand. Against the row-major layout of the same
    values, a full-size 10-step episode (1 BLAS thread, 2-vCPU Xeon)
    took 4% less time at layer 3, 9% less at layer 4 and 11% less at
    layer 5, and both products gained. Only the order of the sums
    differs.
    """
    flat_features = _as_features(params, layer_id, flat_features)
    return np.maximum(params.theta_o(layer_id) @ flat_features, 0.0)


def _gated_step(params: PolicyParams, xz: np.ndarray, state: PolicyState):
    """One step of the gated core from the input projection ``xz = wx @ o``.

    Returns the new state and the input, forget, cell and output gates.
    """
    n = params.cfg.state_dim
    z = xz + params.params["wh"] @ state.s
    i = _sigmoid(z[:n])
    f = _sigmoid(z[n : 2 * n])
    g = np.tanh(z[2 * n : 3 * n])
    og = _sigmoid(z[3 * n :])
    c = f * state.c + i * g
    s = og * np.tanh(c)
    return PolicyState(s=s, c=c), (i, f, g, og)


def recur(params: PolicyParams, o: np.ndarray, state: PolicyState) -> PolicyState:
    """Advance the recurrent state by one observation."""
    return _gated_step(params, params.params["wx"] @ o, state)[0]


def action_distribution(params: PolicyParams, state: PolicyState) -> np.ndarray:
    """Softmax over the ten actions, computed with max subtraction."""
    return _softmax(params.theta_a @ state.s)


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from the action distribution: a non-empty vector, finite, with no
    negative entry (its running sum must not fall) and a positive sum, unlike a diverged policy's."""
    if np.ndim(dist) != 1 or np.size(dist) == 0:
        shape = np.shape(dist)
        raise ValueError(f"action distribution must be a non-empty 1-D array, got shape {shape}")
    cum = np.cumsum(dist)
    if not (np.all(np.isfinite(dist)) and np.min(dist) >= 0 and cum[-1] > 0):
        rule = "action distribution must be finite with a positive sum and no negative entry"
        raise ValueError(f"{rule}, got {dist}")
    u = rng.random()
    return int(np.searchsorted(cum, u * cum[-1], side="right").clip(0, len(dist) - 1))


def log_prob(dist: np.ndarray, action: int) -> float:
    """Log of ``dist[action]``, floored at 1e-300. Only the shape and the chosen entry
    are checked: 0.4 us a call, where ``sample_action`` takes 17 us (2-vCPU Xeon)."""
    _check_action(action)
    if np.shape(dist) != (N_ACTIONS,):
        raise ValueError(f"action distribution must have shape ({N_ACTIONS},), got {np.shape(dist)}")
    if not 0.0 <= (p := dist[action]) <= 1.0:  # False for NaN too
        raise ValueError(f"action {action} has probability {p}, not one in [0, 1]")
    return float(np.log(max(p, 1e-300)))


def episode_backward(
    params: PolicyParams, steps: list[TrajStep] | tuple[TrajStep, ...]
) -> dict[str, np.ndarray]:
    """Gradient of sum_t log pi(a_t | s_t) with respect to all parameters.

    Replays the recorded (layer, features, action) sequence with one
    observation product per visited layer (its steps' features stacked
    row-wise), so the replay reads each ``theta_o`` once. The loops
    over steps run only the n-dimensional gated core, forward and then
    backpropagating through time; every gradient is then one matrix
    product over all steps. Layers never visited get zero gradient
    blocks laid out as their parameters, and a visited ``theta_o``'s
    gradient is column-major like its parameter, ``(phi.T @ dz).T``.
    The sums run in a different order from a
    step-by-step replay with one outer product per step, so the two
    agree within rounding (rtol 1e-9, atol 1e-12 of the largest entry),
    not bit for bit.

    Raises ``ValueError`` naming the step for an action outside
    ``[0, N_ACTIONS)``, a layer not in ``cfg.feature_dims`` or features
    that are not a vector of that layer's length.
    """
    features = []
    for t, step in enumerate(steps):
        try:
            _check_action(step.action)
            features.append(_as_features(params, step.layer_id, step.features))
        except ValueError as err:
            raise ValueError(f"step {t}: {err}") from None
    if not steps:
        return zero_grads(params)
    cfg = params.cfg
    n = cfg.state_dim
    n_steps = len(steps)
    wx, wh, theta_a = params.params["wx"], params.params["wh"], params.theta_a
    layer_ids = np.array([step.layer_id for step in steps])

    # Observations: one product per visited layer.
    z_obs = np.empty((n_steps, cfg.obs_dim))
    stacked = {}
    for layer_id in np.unique(layer_ids).tolist():
        rows = np.flatnonzero(layer_ids == layer_id)
        phi = np.stack([features[t] for t in rows])
        z_obs[rows] = phi @ params.theta_o(layer_id).T
        stacked[layer_id] = (rows, phi)
    obs = np.maximum(z_obs, 0.0)
    xz = obs @ wx.T

    # Gated core forward; S[t] and C[t] are the states before step t.
    states = [PolicyState.initial(cfg)]
    gates = []
    for x in xz:
        state, gate = _gated_step(params, x, states[-1])
        states.append(state)
        gates.append(gate)
    S = np.stack([state.s for state in states])
    C = np.stack([state.c for state in states])
    dlogits = -_softmax(S[1:] @ theta_a.T)
    dlogits[np.arange(n_steps), [step.action for step in steps]] += 1.0

    # Backpropagation through time, through the gated core only.
    ds_out = dlogits @ theta_a
    tc = np.tanh(C[1:])
    dz = np.empty((n_steps, _GATES * n))
    ds = np.zeros(n)
    dc = np.zeros(n)
    for t in reversed(range(n_steps)):
        i, f, g, og = gates[t]
        ds = ds + ds_out[t]
        dog = ds * tc[t]
        dc = dc + ds * og * (1.0 - tc[t] ** 2)
        dz[t, :n] = dc * g * i * (1.0 - i)
        dz[t, n : 2 * n] = dc * C[t] * f * (1.0 - f)
        dz[t, 2 * n : 3 * n] = dc * i * (1.0 - g**2)
        dz[t, 3 * n :] = dog * og * (1.0 - og)
        ds = wh.T @ dz[t]
        dc = dc * f

    grads = {"theta_a": dlogits.T @ S[1:], "wx": dz.T @ obs, "wh": dz.T @ S[:-1]}
    dz_obs = (dz @ wx) * (z_obs > 0)
    for layer_id, (rows, phi) in stacked.items():
        grads[f"theta_o/{layer_id}"] = (phi.T @ dz_obs[rows]).T
    return {
        name: grads[name] if name in grads else _zeros_as(arr)
        for name, arr in params.params.items()
    }
