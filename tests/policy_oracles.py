"""Per-step reference form of ``scaleloc.policy.episode_backward``.

``policy`` replays an episode with one matrix product per layer and
forms each gradient as one product; this loop replays one step at a
time and accumulates one outer product per step and parameter. It is
the independent oracle the tests check the batched form against.
"""

import numpy as np

from scaleloc.policy import PolicyState, action_distribution


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gated_step(params, o, state):
    n = params.cfg.state_dim
    z = params.params["wx"] @ o + params.params["wh"] @ state.s
    i = _sigmoid(z[:n])
    f = _sigmoid(z[n : 2 * n])
    g = np.tanh(z[2 * n : 3 * n])
    og = _sigmoid(z[3 * n :])
    c = f * state.c + i * g
    s = og * np.tanh(c)
    cache = (o, state.s, state.c, i, f, g, og, c)
    return PolicyState(s=s, c=c), cache


def episode_backward(params, steps):
    """Gradient of sum_t log pi(a_t | s_t) with respect to all parameters.

    Replays the recorded (layer, features, action) sequence forward with
    caching, then backpropagates through time. Layers never visited get
    zero gradient blocks.
    """
    grads = {name: np.zeros_like(arr) for name, arr in params.params.items()}
    if not steps:
        return grads
    n = params.cfg.state_dim

    # Forward replay with caches.
    state = PolicyState.initial(params.cfg)
    forward: list[tuple] = []
    for step in steps:
        phi = np.asarray(step.features, dtype=np.float64)
        z_obs = params.theta_o(step.layer_id) @ phi
        o = np.maximum(z_obs, 0.0)
        state, cache = _gated_step(params, o, state)
        dist = action_distribution(params, state)
        forward.append((step, phi, z_obs, cache, state, dist))

    ds = np.zeros(n)
    dc = np.zeros(n)
    for step, phi, z_obs, cache, state, dist in reversed(forward):
        dlogits = -dist.copy()
        dlogits[step.action] += 1.0
        grads["theta_a"] += np.outer(dlogits, state.s)
        ds = ds + params.theta_a.T @ dlogits

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
