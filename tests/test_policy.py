import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policy_oracles as oracle
from scaleloc import _model
from scaleloc._model import _glorot, _sigmoid
from scaleloc.geometry import BBox
from scaleloc.policy import (
    N_ACTIONS,
    PolicyConfig,
    PolicyParams,
    PolicyState,
    action_distribution,
    episode_backward,
    init_params,
    log_prob,
    observe,
    recur,
    sample_action,
)
from scaleloc.trajectory import Trajectory, TrajStep


SMALL = PolicyConfig(feature_dims={3: 8, 4: 6, 5: 10}, obs_dim=6, state_dim=4)


def episode_logprob_sum(params, steps):
    """Forward-only objective used by the finite-difference checks."""
    state = PolicyState.initial(params.cfg)
    total = 0.0
    for step in steps:
        o = observe(params, step.layer_id, step.features)
        state = recur(params, o, state)
        dist = action_distribution(params, state)
        total += log_prob(dist, step.action)
    return total


def make_steps(cfg, rng, n_steps, layers=None):
    steps = []
    for t in range(n_steps):
        layer = layers[t] if layers else int(rng.choice(sorted(cfg.feature_dims)))
        steps.append(
            TrajStep(
                layer_id=layer,
                box=BBox(0, 0, 10, 20),
                action=int(rng.integers(N_ACTIONS)),
                log_prob=-1.0,
                features=rng.uniform(-1, 1, size=cfg.feature_dims[layer]),
            )
        )
    return steps


def fd_check(params, steps, eps=1e-4):
    analytic = episode_backward(params, steps)
    worst = 0.0
    for name, arr in params.params.items():
        # Index in place: reshape(-1) of a column-major matrix is a copy.
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = episode_logprob_sum(params, steps)
            arr[idx] = orig - eps
            lo = episode_logprob_sum(params, steps)
            arr[idx] = orig
            fd = (hi - lo) / (2 * eps)
            a = analytic[name][idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    return worst


class TestInit:
    @pytest.mark.parametrize("seed", [True, 1.5, -1], ids=["bool", "fraction", "negative"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # True used to seed with 1, and 1.5 or -1 to fail inside NumPy.
        with pytest.raises(ValueError, match=r"^seed must be an integer of at least 0, got"):
            init_params(seed, SMALL)
        a, b = init_params(np.int64(3), SMALL), init_params(3, SMALL)
        assert all(np.array_equal(a.params[name], b.params[name]) for name in a.params)

    def test_same_seed_identical(self):
        a = init_params(3, SMALL)
        b = init_params(3, SMALL)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_entries_within_glorot_bound(self):
        params = init_params(4, SMALL)
        # Each gate's block of wx and wh draws with a single-gate fan.
        bounds = {
            "theta_o/3": math.sqrt(6 / (8 + 6)),
            "theta_o/4": math.sqrt(6 / (6 + 6)),
            "theta_o/5": math.sqrt(6 / (10 + 6)),
            "wx": math.sqrt(6 / (6 + 4)),
            "wh": math.sqrt(6 / (4 + 4)),
            "theta_a": math.sqrt(6 / (4 + N_ACTIONS)),
        }
        for name, bound in bounds.items():
            assert np.abs(params.params[name]).max() <= bound

    def test_mean_near_zero_over_seeds(self):
        values = []
        for seed in range(10):
            params = init_params(seed, SMALL)
            values.extend(arr.reshape(-1) for arr in params.params.values())
        flat = np.concatenate(values)
        bound = math.sqrt(6 / (4 + 4))  # widest matrix bound
        se = bound / math.sqrt(3 * len(flat))  # uniform sd <= bound/sqrt(3)
        assert abs(flat.mean()) < 3 * se * math.sqrt(3)

    @pytest.mark.parametrize("dim", [-5, 0, 4.5])
    def test_non_positive_feature_dim_rejected(self, dim):
        want = f"^layer 4 feature dim must be an integer of at least 1, got {dim}"
        with pytest.raises(ValueError, match=want):
            PolicyConfig(feature_dims={3: 8, 4: dim})

    @pytest.mark.parametrize(
        "kwargs, want",
        [
            ({"obs_dim": 2.5}, "obs_dim must be an integer of at least 1, got 2.5"),
            ({"state_dim": True}, "state_dim must be an integer of at least 1, got True"),
        ],
    )
    def test_non_integer_dims_rejected(self, kwargs, want):
        # obs_dim 2.5 used to construct and then fail in init_params with a TypeError.
        with pytest.raises(ValueError, match=f"^{want}"):
            PolicyConfig(feature_dims={3: 8}, **kwargs)

    @pytest.mark.parametrize("layer_id", [3.0, -1, True, "3"])
    def test_layer_id_must_be_a_non_negative_integer(self, layer_id):
        """A key of 3.0 used to name its matrix ``theta_o/3.0``, which
        ``observe(params, 3, ...)`` then failed to find."""
        with pytest.raises(ValueError, match="^layer id must be an integer of at least 0, got"):
            PolicyConfig(feature_dims={layer_id: 8})
        assert PolicyConfig(feature_dims={0: 8, np.int64(4): 8}).feature_dims[4] == 8

    def test_paper_faithful_shapes(self):
        cfg = PolicyConfig(
            feature_dims={3: 4096, 4: 8192, 5: 16384},
            obs_dim=1024,
            state_dim=64,
        )
        params = init_params(0, cfg)
        assert params.params["theta_o/3"].shape == (1024, 4096)
        assert params.params["theta_o/4"].shape == (1024, 8192)
        assert params.params["theta_o/5"].shape == (1024, 16384)
        assert params.params["wx"].shape == (4 * 64, 1024)
        assert params.params["wh"].shape == (4 * 64, 64)
        assert params.params["theta_a"].shape == (10, 64)


class TestObserve:
    def test_zero_features_give_zero(self):
        params = init_params(5, SMALL)
        np.testing.assert_array_equal(observe(params, 3, np.zeros(8)), np.zeros(6))

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        params = init_params(6, SMALL)
        for _ in range(50):
            o = observe(params, 4, rng.uniform(-2, 2, size=6))
            assert np.all(o >= 0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        params = init_params(7, SMALL)
        phi = rng.uniform(-1, 1, size=10)
        theta = params.params["theta_o/5"]
        naive = np.array(
            [max(sum(theta[r, c] * phi[c] for c in range(10)), 0.0) for r in range(6)]
        )
        np.testing.assert_allclose(observe(params, 5, phi), naive, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        params = init_params(8, SMALL)
        with pytest.raises(ValueError):
            observe(params, 3, np.zeros(9))


class TestRecur:
    def test_zero_params_give_zero_state(self):
        # Every gate sits at 1/2 and the candidate cell at tanh(0) = 0.
        params = init_params(9, SMALL)
        for name in ("wx", "wh"):
            params.params[name][:] = 0.0
        state = PolicyState.initial(SMALL)
        new = recur(params, np.ones(6), state)
        np.testing.assert_array_equal(new.s, np.zeros(4))
        np.testing.assert_array_equal(new.c, np.zeros(4))

    def test_state_inside_open_interval(self):
        rng = np.random.default_rng(10)
        params = init_params(10, SMALL)
        state = PolicyState.initial(SMALL)
        for _ in range(20):
            state = recur(params, rng.uniform(-3, 3, size=6), state)
            assert np.all(np.abs(state.s) < 1.0)

    def test_each_step_advances_the_state(self):
        params = init_params(11, SMALL)
        one = recur(params, np.ones(6), PolicyState.initial(SMALL))
        two = recur(params, np.ones(6), one)
        assert one.c.shape == (4,) and one.c.any()
        assert not np.array_equal(one.s, two.s)

    def test_step_matches_scalar_oracle(self):
        """One step of the four-gate recurrence written out per unit."""
        rng = np.random.default_rng(12)
        params = init_params(12, SMALL)
        s0, c0, o = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), rng.uniform(0, 2, 6)
        new = recur(params, o, PolicyState(s=s0, c=c0))
        wx, wh = params.params["wx"], params.params["wh"]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for k in range(4):
            z = [float(wx[g * 4 + k] @ o + wh[g * 4 + k] @ s0) for g in range(4)]
            c = sig(z[1]) * c0[k] + sig(z[0]) * math.tanh(z[2])
            assert new.c[k] == pytest.approx(c, abs=1e-12)
            assert new.s[k] == pytest.approx(sig(z[3]) * math.tanh(c), abs=1e-12)


class TestSaturation:
    """Pre-activations below about -709 overflow ``exp(-x)``; the sigmoid
    is then exactly 0, without a floating-point error."""

    def test_sigmoid_is_zero_far_below_and_one_far_above(self):
        with np.errstate(over="raise"):
            assert _sigmoid(-1000.0) == 0.0
            got = _sigmoid(np.array([-np.inf, -1e4, -745.2, 0.0, 1e4, np.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0])

    def test_sigmoid_equals_the_closed_form(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 10_001), [-745.2, -709.8, -0.0, 0.0]])
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_array_equal(_sigmoid(x), want)

    def test_recur_and_backward_run_on_saturating_features(self):
        params = init_params(28, SMALL)
        steps = [
            dataclasses.replace(step, features=step.features * 1e3)
            for step in make_steps(SMALL, np.random.default_rng(28), 6)
        ]
        state = PolicyState.initial(SMALL)
        with np.errstate(over="raise"):
            for step in steps:
                state = recur(params, observe(params, step.layer_id, step.features), state)
            grads = episode_backward(params, steps)
        assert np.all(np.abs(state.s) <= 1.0)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert grads["theta_a"].any()


class TestActionDistribution:
    def test_zero_matrix_gives_uniform(self):
        params = init_params(12, SMALL)
        params.params["theta_a"][:] = 0.0
        state = PolicyState(s=np.ones(4), c=np.zeros(4))
        np.testing.assert_allclose(action_distribution(params, state), 0.1, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        params = init_params(13, SMALL)
        for _ in range(100):
            state = PolicyState(s=rng.uniform(-5, 5, size=4), c=np.zeros(4))
            dist = action_distribution(params, state)
            assert abs(dist.sum() - 1.0) < 1e-12
            assert np.all(dist > 0)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(14)
        params = init_params(14, SMALL)
        state = PolicyState(s=rng.uniform(-1, 1, size=4), c=np.zeros(4))
        base = action_distribution(params, state)
        # Adding a constant row-wise to theta_a @ s shifts all logits
        # equally when s has unit projection; emulate via direct logits.
        logits = params.theta_a @ state.s
        shifted = np.exp((logits + 7.5) - (logits + 7.5).max())
        np.testing.assert_allclose(base, shifted / shifted.sum(), atol=1e-12)


class TestSampling:
    def test_point_mass(self):
        rng = np.random.default_rng(15)
        dist = np.zeros(N_ACTIONS)
        dist[7] = 1.0
        assert all(sample_action(dist, rng) == 7 for _ in range(100))

    def test_empirical_frequencies_within_3_sigma(self):
        rng = np.random.default_rng(16)
        dist = np.array([0.3, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05])
        n = 100_000
        counts = np.bincount(
            [sample_action(dist, rng) for _ in range(n)], minlength=N_ACTIONS
        )
        freqs = counts / n
        sigma = np.sqrt(dist * (1 - dist) / n)
        assert np.all(np.abs(freqs - dist) <= 3 * sigma)

    @pytest.mark.parametrize(
        "dist, want",
        [
            (np.full(N_ACTIONS, np.nan), "must be finite with a positive sum"),
            (np.r_[np.nan, np.full(N_ACTIONS - 1, 0.1)], "must be finite with a positive sum"),
            (np.zeros(N_ACTIONS), "must be finite with a positive sum"),
            (np.zeros(0), r"must be a non-empty 1-D array, got shape \(0,\)$"),
            (np.array([[0.5, 0.5]]), r"must be a non-empty 1-D array, got shape \(1, 2\)$"),
        ],
        ids=["all-nan", "one-nan", "all-zero", "empty", "two-d"],
    )
    def test_diverged_distribution_rejected(self, dist, want):
        # An all-NaN distribution used to return action 9 without an error,
        # an empty one to fail inside NumPy, and a (1, 2) one to draw an action.
        with pytest.raises(ValueError, match=f"^action distribution {want}"):
            sample_action(dist, np.random.default_rng(17))

    @pytest.mark.parametrize(
        "dist", [[0.5, -0.4, 0.9], [-1.0] * 9 + [20.0]], ids=["middle", "all-but-last"]
    )
    def test_negative_entry_rejected(self, dist):
        # [0.5, -0.4, 0.9] used to draw 0 or 2 but never 1, as its cumulative
        # sum falls, and [-1] * 9 + [20] always 9.
        want = "action distribution must be finite with a positive sum and no negative entry"
        with pytest.raises(ValueError, match=want):
            sample_action(dist, np.random.default_rng(17))

    def test_valid_distribution_draws_one_uniform(self):
        dist = np.full(N_ACTIONS, 0.1)
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        want = int(np.searchsorted(np.cumsum(dist), twin.random() * np.cumsum(dist)[-1], side="right"))
        assert sample_action(dist, rng) == want
        assert rng.random() == twin.random()

    def test_log_prob_uniform(self):
        dist = np.full(N_ACTIONS, 0.1)
        assert log_prob(dist, 3) == pytest.approx(-math.log(10.0), abs=1e-12)
        assert log_prob(dist, np.int64(3)) == log_prob(dist, 3)  # only bool is refused

    @pytest.mark.parametrize(
        "dist, want",
        [
            (np.ones(3) / 3, r"^action distribution must have shape \(10,\), got \(3,\)"),
            (np.full((2, N_ACTIONS), 0.1), r"^action distribution must have shape \(10,\), got \(2,"),
            (np.full(N_ACTIONS, np.nan), r"^action 5 has probability nan, not one in \[0, 1\]"),
            (np.full(N_ACTIONS, np.inf), r"^action 5 has probability inf, not one in \[0, 1\]"),
            (np.full(N_ACTIONS, -0.1), r"^action 5 has probability -0.1, not one in \[0, 1\]"),
            (np.full(N_ACTIONS, 2.0), r"^action 5 has probability 2.0, not one in \[0, 1\]"),
        ],
        ids=["short", "2-d", "nan", "inf", "negative", "above-1"],
    )
    def test_log_prob_rejects_a_malformed_distribution(self, dist, want):
        # The short one used to raise IndexError, NaN to return a NaN
        # log-probability that Trajectory's log_prob > 0 check let through,
        # and -0.1 the floor's log(1e-300).
        with pytest.raises(ValueError, match=want):
            log_prob(dist, 5)

    @pytest.mark.parametrize("action", [-1, N_ACTIONS, 2.5, True])
    def test_log_prob_rejects_action_outside_range(self, action):
        # -1 would otherwise index the last action, and True mask the
        # distribution.
        with pytest.raises(ValueError, match=r"action must be an integer in \[0, 10\)"):
            log_prob(np.full(N_ACTIONS, 0.1), action)


class TestEpisodeBackward:
    def test_empty_trajectory_zero_gradient(self):
        params = init_params(17, SMALL)
        grads = episode_backward(params, [])
        for arr in grads.values():
            assert not arr.any()

    def test_matches_finite_differences_3_steps(self):
        rng = np.random.default_rng(18)
        params = init_params(18, SMALL)
        steps = make_steps(SMALL, rng, 3)
        assert fd_check(params, steps) < 1e-4

    def test_matches_finite_differences_5_steps(self):
        rng = np.random.default_rng(19)
        params = init_params(19, SMALL)
        steps = make_steps(SMALL, rng, 5)
        assert fd_check(params, steps) < 1e-4

    def test_unvisited_layer_gets_zero_gradient(self):
        rng = np.random.default_rng(20)
        params = init_params(20, SMALL)
        steps = make_steps(SMALL, rng, 4, layers=[3, 3, 4, 3])
        grads = episode_backward(params, steps)
        assert not grads["theta_o/5"].any()
        assert grads["theta_o/5"].shape == params.params["theta_o/5"].shape
        assert grads["theta_o/3"].any()

    @pytest.mark.parametrize("layers", [[3, 3, 4, 3], [5], [4, 5, 3, 5, 4]])
    def test_every_gradient_has_its_parameters_memory_order(self, layers):
        """A visited ``theta_o`` gradient used to be row-major beside its
        column-major parameter, so an in-place step mixed layouts."""
        params = init_params(28, SMALL)
        steps = make_steps(SMALL, np.random.default_rng(28), len(layers), layers=layers)
        grads = episode_backward(params, steps)
        assert grads["theta_o/3"].flags.f_contiguous and not grads["theta_o/3"].flags.c_contiguous
        for name, arr in params.params.items():
            got = grads[name].flags
            assert (got.c_contiguous, got.f_contiguous) == (
                arr.flags.c_contiguous, arr.flags.f_contiguous
            ), name

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"action": -1}, r"step 1: action must be an integer in \[0, 10\), got -1"),
            ({"action": N_ACTIONS}, r"step 1: action must be .*, got 10"),
            ({"action": 2.5}, r"step 1: action must be .*, got 2.5"),
            ({"action": True}, r"step 1: action must be .*, got True"),
            ({"layer_id": 7}, r"step 1: layer 7 is not one of \[3, 4, 5\]"),
            ({"layer_id": 3.0}, r"step 1: layer 3.0 is not one of"),
            ({"features": np.zeros(9)}, r"step 1: layer 3: expected features of length 8"),
            ({"features": np.zeros((1, 8))}, r"step 1: layer 3: expected .*, got \(1, 8\)"),
        ],
        ids=["action-1", "action10", "action2.5", "actionTrue"]
        + ["layer7", "layer3.0", "length9", "matrix"],
    )
    def test_malformed_step_rejected(self, edit, message):
        steps = make_steps(SMALL, np.random.default_rng(26), 3, layers=[4, 3, 5])
        steps[1] = dataclasses.replace(steps[1], **edit)
        with pytest.raises(ValueError, match=message):
            episode_backward(init_params(26, SMALL), steps)

    @given(
        dims=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        obs_dim=st.integers(1, 9),
        state_dim=st.integers(1, 6),
        n_steps=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_step_oracle(self, dims, obs_dim, state_dim, n_steps, seed):
        """The batched replay agrees with one outer product per step to
        rounding, with layers mixed within the episode and features over
        six orders of magnitude."""
        rng = np.random.default_rng(seed)
        cfg = PolicyConfig(
            feature_dims={3 + k: d for k, d in enumerate(dims)},
            obs_dim=obs_dim,
            state_dim=state_dim,
        )
        params = init_params(seed, cfg)
        steps = [
            dataclasses.replace(step, features=step.features * 10.0 ** rng.uniform(-3, 3))
            for step in make_steps(cfg, rng, n_steps)
        ]
        # Large features saturate gates: exp(-z) overflows to inf there,
        # and the sigmoid is then exactly 0 on both sides.
        with np.errstate(over="ignore"):
            got = episode_backward(params, steps)
            want = oracle.episode_backward(params, steps)
        zeros = episode_backward(params, [])
        assert list(got) == list(zeros)
        for name, arr in got.items():
            assert arr.shape == zeros[name].shape and arr.dtype == zeros[name].dtype
            np.testing.assert_allclose(
                arr, want[name], rtol=1e-9, atol=1e-12 * np.abs(want[name]).max(), err_msg=name
            )
        visited = {step.layer_id for step in steps}
        for layer_id in set(cfg.feature_dims) - visited:
            assert not got[f"theta_o/{layer_id}"].any()

    def test_peak_allocation_near_gradient_size(self):
        """The gradients are written once, with no per-step outer-product
        temporary beside them, so the traced peak stays within 10% of
        the parameter bytes."""
        cfg = PolicyConfig(feature_dims={3: 1024, 4: 2048, 5: 4096}, obs_dim=256)
        params = init_params(27, cfg)
        steps = make_steps(cfg, np.random.default_rng(27), 10, layers=[5] * 10)
        param_bytes = sum(arr.nbytes for arr in params.params.values())
        tracemalloc.start()
        try:
            grads = episode_backward(params, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads["theta_o/5"].any()
        assert peak <= 1.1 * param_bytes, peak / param_bytes


def sampled_actions(params, features, seed):
    """The actions of a seeded episode over (layer id, features) steps."""
    rng = np.random.default_rng(seed)
    state, actions = PolicyState.initial(params.cfg), []
    for layer_id, phi in features:
        state = recur(params, observe(params, layer_id, phi), state)
        actions.append(sample_action(action_distribution(params, state), rng))
    return actions


def whole_draw(rng, fan_out: int, fan_in: int) -> np.ndarray:
    """The Glorot draw taken in one piece, row-major."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class TestColumnMajorObservation:
    """Every ``theta_o/<id>`` is stored column-major, whether drawn by
    ``init_params`` or loaded by ``from_arrays``, holding the values of
    the row-major Glorot draw; only the order of the products' sums
    depends on the layout."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "fan_out, fan_in, draw_bytes", [(6, 8, None), (37, 5, 8 * 5 * 4), (3, 7, 8)]
    )
    def test_glorot_order_leaves_the_values(
        self, monkeypatch, order, fan_out, fan_in, draw_bytes
    ):
        """Whatever the block size and memory order, the blocked draw holds
        the values of one whole draw and leaves the stream where it does."""
        if draw_bytes is not None:
            monkeypatch.setattr(_model, "_DRAW_BYTES", draw_bytes)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _glorot(got_rng, fan_out, fan_in, order)
        np.testing.assert_array_equal(got, whole_draw(want_rng, fan_out, fan_in))
        assert got.flags[f"{order}_CONTIGUOUS"]
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("order", ["K", "A", "x"])
    def test_glorot_rejects_other_orders(self, order):
        with pytest.raises(ValueError, match="order"):
            _glorot(np.random.default_rng(5), 3, 4, order)

    @pytest.mark.parametrize(
        "obs_dim, dim, draw_bytes",
        [(6, 8, None), (20, 16384, None), (37, 5, 8 * 5 * 4), (3, 7, 8)],
        ids=["one-block", "16-row-blocks", "4-row-blocks", "1-row-blocks"],
    )
    def test_init_stores_the_row_major_draw_column_major(
        self, monkeypatch, obs_dim, dim, draw_bytes
    ):
        """The 2 MiB block holds 16 rows of 16,384 features; blocks of 16
        rows over 20 and of 4 over 37 leave a short last block."""
        if draw_bytes is not None:
            monkeypatch.setattr(_model, "_DRAW_BYTES", draw_bytes)
        cfg = PolicyConfig({3: dim, 5: dim + 1}, obs_dim=obs_dim, state_dim=4)
        params = init_params(9, cfg)
        rng = np.random.default_rng(9)
        for layer_id, layer_dim in cfg.feature_dims.items():
            theta = params.theta_o(layer_id)
            assert theta.flags.f_contiguous and not theta.flags.c_contiguous
            np.testing.assert_array_equal(theta, whole_draw(rng, obs_dim, layer_dim))
        # The draws after the observation matrices take the same stream.
        np.testing.assert_array_equal(params.params["wx"][:4], whole_draw(rng, 4, obs_dim))

    def test_init_peak_holds_no_second_copy(self):
        """The draw goes block by block into its column-major storage, so
        the traced peak stays within two blocks of the parameters."""
        cfg = PolicyConfig({3: 8192, 4: 16384}, obs_dim=40, state_dim=8)
        tracemalloc.start()
        try:
            params = init_params(29, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(arr.nbytes for arr in params.params.values())
        assert params.theta_o(4).nbytes > 2 * _model._DRAW_BYTES
        assert peak <= param_bytes + 2 * _model._DRAW_BYTES, (peak - param_bytes) / 2**20

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_from_arrays_stores_row_major_checkpoints_column_major(self, dtype):
        params = init_params(21, SMALL)
        arrays = {k: np.ascontiguousarray(v * 100).astype(dtype) for k, v in params.params.items()}
        back = PolicyParams.from_arrays(arrays)
        for name, arr in back.params.items():
            assert arr.dtype == np.float64
            np.testing.assert_array_equal(arr, arrays[name])
            if name.startswith("theta_o/"):
                assert arr.flags.f_contiguous and not arr.flags.c_contiguous

    def test_row_major_copy_agrees_within_the_stated_tolerance(self):
        """``observe`` and ``episode_backward`` on a row-major copy agree
        with the column-major parameters within ``episode_backward``'s
        stated rounding (rtol 1e-9, atol 1e-12 of the largest entry), and a
        seeded episode takes the same actions."""
        cfg = PolicyConfig({3: 256, 4: 512, 5: 1024}, obs_dim=128, state_dim=16)
        params = init_params(28, cfg)
        rows = PolicyParams(cfg, {k: np.ascontiguousarray(v) for k, v in params.params.items()})
        assert not rows.theta_o(5).flags.f_contiguous
        rng = np.random.default_rng(28)
        steps = make_steps(cfg, rng, 12, layers=[3, 3, 5, 4, 3, 5, 5, 4, 3, 3, 4, 5])
        for step in steps:
            want = observe(rows, step.layer_id, step.features)
            got = observe(params, step.layer_id, step.features)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())
        want = episode_backward(rows, steps)
        for name, arr in episode_backward(params, steps).items():
            np.testing.assert_allclose(
                arr, want[name], rtol=1e-9, atol=1e-12 * np.abs(want[name]).max(), err_msg=name
            )
        features = [(step.layer_id, step.features) for step in steps]
        assert sampled_actions(params, features, 5) == sampled_actions(rows, features, 5)


def grown(value: np.ndarray, axis: int) -> np.ndarray:
    """``value`` with one more row (axis 0) or column (axis 1) of zeros."""
    return np.concatenate([value, np.zeros_like(value.take([0], axis=axis))], axis=axis)


class TestCheckpointAdapters:
    """A checkpoint is exactly ``params.params``: ``from_arrays`` takes the
    layers and feature dims from the ``theta_o/<id>`` matrices, ``obs_dim``
    from their rows and ``state_dim`` from ``theta_a``."""

    def test_round_trip(self, tmp_path):
        params = init_params(21, SMALL)
        np.savez(tmp_path / "policy.npz", **params.params)
        with np.load(tmp_path / "policy.npz") as stored:
            back = PolicyParams.from_arrays(stored)
        assert back.cfg == params.cfg
        assert list(back.cfg.feature_dims) == [3, 4, 5]
        for name in params.params:
            np.testing.assert_array_equal(back.params[name], params.params[name])

    def test_loaded_arrays_are_copies(self):
        params = init_params(21, SMALL)
        back = PolicyParams.from_arrays(params.params)
        back.params["wx"][0, 0] += 1.0
        assert back.params["wx"][0, 0] != params.params["wx"][0, 0]

    def test_tanh_core_checkpoint_rejected(self):
        """The former plain tanh core: theta_s1 and theta_s2 in place of
        wx and wh, and a meta/mode entry of 0."""
        arrays = init_params(22, SMALL).params
        del arrays["wx"], arrays["wh"]
        arrays["theta_s1"] = np.zeros((4, 6))
        arrays["theta_s2"] = np.zeros((4, 4))
        arrays["meta/mode"] = np.array([0.0])
        with pytest.raises(ValueError, match="parameter names"):
            PolicyParams.from_arrays(arrays)
        del arrays["meta/mode"]
        with pytest.raises(ValueError, match="parameter names"):
            PolicyParams.from_arrays(arrays)

    @pytest.mark.parametrize(
        "name",
        ["meta/mode", "meta/junk", "meta/layer_ids", "meta/feature_dims"]
        + ["meta/obs_dim", "meta/state_dim"],
    )
    def test_former_meta_entry_rejected(self, name):
        arrays = init_params(22, SMALL).params
        arrays[name] = np.array([1.0])
        with pytest.raises(ValueError, match="parameter names mismatch"):
            PolicyParams.from_arrays(arrays)

    def test_meta_format_checkpoint_rejected(self):
        """The former format: the parameters plus meta/ entries that held
        the layer ids, feature dims, obs_dim and state_dim a second time."""
        arrays = init_params(22, SMALL).params
        arrays["meta/obs_dim"], arrays["meta/state_dim"] = np.array([6.0]), np.array([4.0])
        arrays["meta/layer_ids"] = np.array([3.0, 4.0, 5.0])
        arrays["meta/feature_dims"] = np.array([8.0, 6.0, 10.0])
        with pytest.raises(ValueError, match="parameter names mismatch.*meta/obs_dim"):
            PolicyParams.from_arrays(arrays)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"no theta_o/<id> matrix among \[\]"):
            PolicyParams.from_arrays({})

    @pytest.mark.parametrize("name", ["wx", "wh", "theta_a"])
    def test_missing_parameter_rejected(self, name):
        arrays = init_params(22, SMALL).params
        del arrays[name]
        with pytest.raises(ValueError, match="parameter names mismatch|theta_a matrix"):
            PolicyParams.from_arrays(arrays)

    @pytest.mark.parametrize("shape", [(-1,), (2, -1, 1)], ids=["1d", "3d"])
    @pytest.mark.parametrize("name", ["theta_o/3", "theta_a"])
    def test_matrix_must_be_2d(self, name, shape):
        arrays = init_params(22, SMALL).params
        arrays[name] = arrays[name].reshape(shape)
        with pytest.raises(ValueError, match="expected a matrix with columns|theta_a matrix"):
            PolicyParams.from_arrays(arrays)

    @pytest.mark.parametrize(
        "bad", ["theta_ox/3", "theta_o/03", "theta_o/-3", "theta_o/x", "theta_o/3/"]
    )
    def test_malformed_layer_name_rejected(self, bad):
        arrays = init_params(22, SMALL).params
        arrays[bad] = arrays.pop("theta_o/3")
        with pytest.raises(ValueError, match="parameter names mismatch"):
            PolicyParams.from_arrays(arrays)

    @pytest.mark.parametrize(
        "name, axis",
        [("theta_o/4", 0), ("wx", 0), ("wx", 1), ("wh", 0), ("wh", 1)]
        + [("theta_a", 0), ("theta_a", 1)],
    )
    def test_added_row_or_column_rejected(self, name, axis):
        arrays = init_params(22, SMALL).params
        arrays[name] = grown(arrays[name], axis)
        with pytest.raises(ValueError):
            PolicyParams.from_arrays(arrays)

    def test_observation_matrices_define_the_layers(self):
        """The ``theta_o/<id>`` matrices are the only record of the layers
        and their feature dims: a column added to one loads as a layer one
        feature longer, and a deleted one as a policy without that layer."""
        arrays = init_params(22, SMALL).params
        arrays["theta_o/4"] = grown(arrays["theta_o/4"], 1)
        assert PolicyParams.from_arrays(arrays).cfg.feature_dims == {3: 8, 4: 7, 5: 10}
        del arrays["theta_o/4"]
        assert PolicyParams.from_arrays(arrays).cfg.feature_dims == {3: 8, 5: 10}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["theta_o/4", "wh", "theta_a"])
    def test_non_finite_parameter_rejected(self, name, bad):
        arrays = init_params(24, SMALL).params
        arrays[name].flat[3] = bad
        with pytest.raises(ValueError, match=f"parameter {name} has non-finite"):
            PolicyParams.from_arrays(arrays)

    @given(
        dims=st.dictionaries(st.integers(0, 12), st.integers(1, 9), min_size=1, max_size=3),
        obs_dim=st.integers(1, 6),
        state_dim=st.integers(1, 5),
        edit=st.sampled_from(["none", "delete", "unknown", "row", "column"]),
        pick=st.integers(0, 10**6),
        unknown=st.text(min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_edited_checkpoints_of_random_configs(
        self, dims, obs_dim, state_dim, edit, pick, unknown
    ):
        """Over random small configs, the params round-trip and every
        deleted name, unknown name, added row or added column is a
        ``ValueError``, except where a ``theta_o/<id>`` matrix gains a
        column or goes while other layers remain: that edits the layers."""
        params = init_params(pick % 7, PolicyConfig(dims, obs_dim, state_dim))
        arrays = dict(params.params)
        name = sorted(arrays)[pick % len(arrays)]
        if edit == "none":
            back = PolicyParams.from_arrays(arrays)
            assert back.cfg == params.cfg
            assert all(np.array_equal(back.params[k], v) for k, v in arrays.items())
            return
        if name.startswith("theta_o/") and (edit == "column" or edit == "delete" and len(dims) > 1):
            layer_id = int(name.removeprefix("theta_o/"))
            if edit == "column":
                arrays[name] = grown(arrays[name], 1)
                want = {**dims, layer_id: dims[layer_id] + 1}
            else:
                del arrays[name]
                want = {i: d for i, d in dims.items() if i != layer_id}
            assert PolicyParams.from_arrays(arrays).cfg.feature_dims == want
            return
        if edit == "delete":
            del arrays[name]
        elif edit == "unknown":
            arrays[unknown if unknown not in arrays else unknown + "/extra"] = np.zeros(3)
        else:
            arrays[name] = grown(arrays[name], 0 if edit == "row" else 1)
        with pytest.raises(ValueError):
            PolicyParams.from_arrays(arrays)

    def test_empty_episode_grads_mirror_params(self):
        """An empty episode takes the general path: each gradient is
        zeros of its parameter's shape, dtype and memory order, with no
        negative zero."""
        params = init_params(23, SMALL)
        grads = episode_backward(params, [])
        assert list(grads) == list(params.params)
        for name, arr in params.params.items():
            assert grads[name].shape == arr.shape
            assert grads[name].dtype == arr.dtype
            assert grads[name].flags.c_contiguous == arr.flags.c_contiguous
            assert grads[name].flags.f_contiguous == arr.flags.f_contiguous
            assert not grads[name].any() and not np.signbit(grads[name]).any()

    def test_zero_blocks_follow_each_parameter_layout(self):
        """The zero blocks of an empty episode, and of layers an episode
        never visits, are laid out as their parameters, column-major for
        ``theta_o`` and row-major for a row-major copy."""
        params = init_params(23, SMALL)
        rows = PolicyParams(SMALL, {k: np.ascontiguousarray(v) for k, v in params.params.items()})
        steps = make_steps(SMALL, np.random.default_rng(23), 3, layers=[3, 3, 3])
        for p, fortran in [(params, True), (rows, False)]:
            for grads in (episode_backward(p, []), episode_backward(p, steps)):
                for layer_id in (4, 5):
                    block = grads[f"theta_o/{layer_id}"]
                    assert not block.any()
                    assert block.flags.f_contiguous == fortran
                    assert block.flags.c_contiguous != fortran


class TestTrajectory:
    def test_positive_log_prob_rejected(self):
        steps = make_steps(SMALL, np.random.default_rng(25), 3)
        assert Trajectory(steps=tuple(steps), reward=0.5).final_box == steps[-1].box
        bad = TrajStep(3, BBox(0, 0, 10, 20), 0, 1e-12, np.zeros(8))
        with pytest.raises(ValueError, match="log-probabilities cannot be positive"):
            Trajectory(steps=(*steps, bad), reward=0.5)

    def test_zero_log_prob_and_empty_episode_accepted(self):
        certain = TrajStep(3, BBox(0, 0, 10, 20), 0, 0.0, np.zeros(8))
        assert Trajectory(steps=(certain,), reward=1.0).final_box == certain.box
        assert Trajectory(steps=(), reward=0.0).final_box is None
