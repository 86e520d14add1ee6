import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_oracles as oracle
from scaleloc.anchors import generate_anchors
from scaleloc.featpyr import LayerSpec, PyramidConfig, build_pyramid, roi_pool_many
from scaleloc.geometry import BBox, boxes_to_array, encode_regression
from scaleloc.proposal import (
    PROB_EPS,
    LayerBatch,
    LayerWeightConfig,
    ProposalModel,
    ProposalTrainConfig,
    layer_weights,
    proposal_loss_and_grad,
    score_proposals,
    smooth_l1,
    smooth_l1_grad,
    top_k,
    train_proposal_model,
)
from scaleloc.scenegen import GenConfig, sample_dataset


TINY_PYR = PyramidConfig(layers=(LayerSpec(3, 8, 2), LayerSpec(4, 16, 3), LayerSpec(5, 32, 2)))


# Scalar reference forms of the objective. Training minimises
# proposal_loss_and_grad; these are its oracles (see TestTrainedLossOracle).


def cls_loss(labels, p_hats, gamma: float = 3.0, eps: float = PROB_EPS) -> float:
    """Balance-weighted cross-entropy over a scored batch.

    The positive and negative populations each contribute their mean
    log-loss, mixed 1/(1+gamma) to gamma/(1+gamma). An empty population
    contributes zero.
    """
    labels = np.asarray(labels)
    p = np.clip(np.asarray(p_hats, dtype=np.float64), eps, 1.0 - eps)
    pos = labels == 1
    neg = labels == 0
    loss = 0.0
    if pos.any():
        loss += (1.0 / (1.0 + gamma)) * float(np.mean(-np.log(p[pos])))
    if neg.any():
        loss += (gamma / (1.0 + gamma)) * float(np.mean(-np.log(1.0 - p[neg])))
    return loss


def multitask_loss(p, anchor, gt, p_hat, pred_offsets, lam=10.0, mode="raw", eps=PROB_EPS):
    """Per-example loss: log-loss plus lam-weighted box regression.

    The regression term is active only for positives and measures the
    smooth-L1 of the residual between the encoded target and the
    predicted offsets, so it vanishes when the prediction is exact.
    """
    p_hat = min(max(p_hat, eps), 1.0 - eps)
    if p == 1:
        loss = -math.log(p_hat)
        residual = oracle.encode(anchor, gt, mode) - np.asarray(pred_offsets)
        loss += lam * smooth_l1(residual)
        return loss
    return -math.log(1.0 - p_hat)


def total_objective(batches, cfg=LayerWeightConfig(), mode="raw") -> float:
    """Double sum over layers and examples of alpha-weighted losses.

    ``batches`` maps layer id to tuples (p, anchor_box, gt_box,
    target_height, p_hat, pred_offsets). The weight alpha is taken from
    the example's own target height, so even a single populated layer
    sees alpha < 1.
    """
    total = 0.0
    for layer_id, examples in batches.items():
        m = cfg.layer_ids.index(layer_id)
        for p, anchor, gt, target_h, p_hat, offsets in examples:
            alpha = float(layer_weights(target_h, cfg)[m])
            total += alpha * multitask_loss(
                p, anchor, gt, p_hat, offsets, lam=cfg.tradeoff, mode=mode
            )
    return total


def scalar_alpha(h, cfg=LayerWeightConfig()):
    """Direct scalar evaluation of the stated closed form."""
    alpha_hat = [
        1.0 / (1.0 + math.exp(-(h - hb) / g))
        for hb, g in zip(cfg.mean_heights, cfg.scale_factors)
    ]
    exps = [math.exp(a) for a in alpha_hat]
    total = sum(exps)
    return alpha_hat, [e / total for e in exps]


class TestLayerWeights:
    def test_sum_to_one(self):
        for h in (1.0, 10.0, 48.0, 96.0, 156.0, 400.0):
            assert abs(layer_weights(h).sum() - 1.0) < 1e-12

    def test_frozen_values_at_96(self):
        # Confirmed by direct scalar evaluation of the closed form.
        got = layer_weights(96.0)
        np.testing.assert_allclose(
            got,
            [0.50622994190682391, 0.30706477562767182, 0.18670528246550441],
            atol=1e-12,
        )

    def test_matches_scalar_oracle_at_mean_heights(self):
        for h in (48.0, 96.0, 156.0):
            _, expect = scalar_alpha(h)
            np.testing.assert_allclose(layer_weights(h), expect, atol=1e-9)

    def test_sigmoid_is_half_at_own_mean_height(self):
        cfg = LayerWeightConfig()
        for m, h in enumerate(cfg.mean_heights):
            alpha_hat, _ = scalar_alpha(h, cfg)
            assert alpha_hat[m] == pytest.approx(0.5, abs=1e-15)

    def test_each_component_monotone_in_height(self):
        # Strict within the float64-resolvable band, non-strict beyond
        # (the sigmoids saturate to exactly 1.0 far above each mean).
        cfg = LayerWeightConfig()
        hbar = np.array(cfg.mean_heights)
        gam = np.array(cfg.scale_factors)

        hs = np.linspace(5, 400, 200)
        alpha_hat = 1.0 / (1.0 + np.exp(-(hs[:, None] - hbar) / gam))
        assert np.all(np.diff(alpha_hat, axis=0) >= 0)

        hs = np.linspace(5, 120, 100)
        alpha_hat = 1.0 / (1.0 + np.exp(-(hs[:, None] - hbar) / gam))
        assert np.all(np.diff(alpha_hat, axis=0) > 0)

    @given(h=st.floats(0.0, 2000.0))
    @settings(max_examples=200, deadline=None)
    def test_weights_are_capped_and_layer_3_leads_from_32px(self, h):
        """What the weights really do: a softmax of sigmoids can never
        give one layer more than e / (e + 2), and with the default
        constants layer 3 gets the most weight at every height from
        32 px up, so the weights do not track the matching scale."""
        w = layer_weights(h)
        assert w.max() <= math.e / (math.e + 2.0) + 1e-12
        assert w[2] <= max(w[0], w[1]) + 1e-12  # layer 5 never leads
        if h >= 32.0:
            assert w[0] == w.max()

    def test_vectorized_heights(self):
        hs = np.array([48.0, 96.0, 156.0])
        out = layer_weights(hs)
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LayerWeightConfig(mean_heights=(48.0, 96.0))
        with pytest.raises(ValueError):
            LayerWeightConfig(balance=0.5)
        with pytest.raises(ValueError, match="whole number"):
            LayerWeightConfig(balance=2.5)
        assert LayerWeightConfig(balance=4).balance == 4


class TestSmoothL1:
    def test_zero(self):
        assert smooth_l1(np.zeros(4)) == 0.0

    def test_knee_continuity(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        quadratic = 0.5 * np.linalg.norm(v) ** 2
        linear = np.linalg.norm(v) - 0.5
        assert quadratic == 0.5
        assert linear == 0.5
        assert smooth_l1(v) == 0.5

    def test_linear_branch(self):
        assert smooth_l1(np.array([2.0, 0, 0, 0])) == pytest.approx(1.5)

    def test_gradient_both_branches(self):
        rng = np.random.default_rng(0)
        for scale in (0.3, 5.0):
            v = scale * rng.uniform(-1, 1, size=4)
            v /= max(np.linalg.norm(v) / scale, 1e-9)
            g = smooth_l1_grad(v)
            fd = np.zeros(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1e-6
                fd[i] = (smooth_l1(v + e) - smooth_l1(v - e)) / 2e-6
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


class TestClsLoss:
    def test_perfect_classifier(self):
        labels = np.array([1, 1, 0, 0, 0])
        p = np.where(labels == 1, 1.0 - 1e-7, 1e-7)
        assert cls_loss(labels, p) <= 1e-6

    def test_single_positive_half_confidence(self):
        assert cls_loss([1], [0.5], gamma=3.0) == pytest.approx(0.25 * math.log(2.0), abs=1e-15)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            p = rng.uniform(0.01, 0.99, size=n)
            gamma = float(rng.uniform(1, 5))
            pos = [(-math.log(pi)) for li, pi in zip(labels, p) if li == 1]
            neg = [(-math.log(1 - pi)) for li, pi in zip(labels, p) if li == 0]
            expect = 0.0
            if pos:
                expect += (1 / (1 + gamma)) * sum(pos) / len(pos)
            if neg:
                expect += (gamma / (1 + gamma)) * sum(neg) / len(neg)
            assert cls_loss(labels, p, gamma) == pytest.approx(expect, abs=1e-9)

    def test_empty_populations(self):
        assert cls_loss([1, 1], [0.9, 0.8]) > 0
        assert cls_loss([0, 0], [0.1, 0.2]) > 0
        assert cls_loss([], []) == 0.0


class TestMultitaskLoss:
    anchor = BBox(10, 10, 10, 20)
    gt = BBox(12, 11, 11, 22)

    def test_negative_ignores_regression(self):
        a = multitask_loss(0, self.anchor, None, 0.3, np.zeros(4))
        b = multitask_loss(0, self.anchor, None, 0.3, np.array([100.0, -50.0, 3.0, 9.0]))
        assert a == b

    def test_exact_regression_prediction(self):
        vec = oracle.encode(self.anchor, self.gt, "raw")
        loss = multitask_loss(1, self.anchor, self.gt, 0.5, vec, mode="raw")
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("mode", ["raw", "normalized"])
    def test_offset_gradient_matches_finite_differences(self, mode):
        lam = 10.0
        pred = np.array([0.4, -0.2, 0.1, 0.3])
        target = oracle.encode(self.anchor, self.gt, mode)
        analytic = -lam * smooth_l1_grad(target - pred)
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-4
            hi = multitask_loss(1, self.anchor, self.gt, 0.5, pred + e, lam, mode)
            lo = multitask_loss(1, self.anchor, self.gt, 0.5, pred - e, lam, mode)
            fd[i] = (hi - lo) / 2e-4
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)


class TestTotalObjective:
    def test_empty_is_zero(self):
        assert total_objective({}) == 0.0

    def test_single_layer_uses_softmax_alpha(self):
        cfg = LayerWeightConfig()
        anchor = BBox(0, 0, 10, 20)
        examples = [(1, anchor, anchor, 20.0, 0.7, np.zeros(4))]
        got = total_objective({3: examples}, cfg)
        alpha = layer_weights(20.0, cfg)[0]
        assert alpha < 1.0
        expect = alpha * multitask_loss(1, anchor, anchor, 0.7, np.zeros(4), cfg.tradeoff)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_double_sum_over_layers(self):
        cfg = LayerWeightConfig()
        anchor = BBox(0, 0, 10, 20)
        batches = {
            3: [(0, anchor, None, 48.0, 0.2, np.zeros(4))],
            4: [(0, anchor, None, 96.0, 0.1, np.zeros(4))],
        }
        got = total_objective(batches, cfg)
        expect = layer_weights(48.0, cfg)[0] * multitask_loss(0, anchor, None, 0.2, np.zeros(4)) + (
            layer_weights(96.0, cfg)[1] * multitask_loss(0, anchor, None, 0.1, np.zeros(4))
        )
        assert got == pytest.approx(expect, abs=1e-12)


def make_batches(model, rng, n_per_layer=2):
    batches = []
    for layer_id in model.layer_ids:
        d = model.feature_dims[layer_id]
        feats = rng.uniform(-1, 1, size=(n_per_layer, d))
        labels = np.array([1, 0][:n_per_layer])
        _, offsets, _ = model.forward(layer_id, feats)
        # Targets chosen so residual norms stay away from the smooth-L1 knee.
        vecs = offsets + np.array([0.1, -0.1, 0.05, 0.08])
        vecs[labels == 0] = 0.0
        heights = rng.uniform(20, 150, size=n_per_layer)
        batches.append(
            LayerBatch(
                layer_id=layer_id,
                features=feats,
                labels=labels,
                target_vecs=vecs,
                target_heights=heights,
            )
        )
    return batches


class TestLossGradient:
    @pytest.mark.parametrize("hidden", [0, 6])
    def test_parameter_gradient_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(5)
        model = ProposalModel.init(TINY_PYR, hidden_dim=hidden, seed=5)
        cfg = LayerWeightConfig()
        batches = make_batches(model, rng)
        _, grads = proposal_loss_and_grad(model, batches, cfg)

        worst = 0.0
        step = 1e-4
        for name, param in model.params.items():
            flat = param.reshape(-1)
            picks = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + step
                hi, _ = proposal_loss_and_grad(model, batches, cfg)
                flat[idx] = orig - step
                lo, _ = proposal_loss_and_grad(model, batches, cfg)
                flat[idx] = orig
                fd = (hi - lo) / (2 * step)
                a = grads[name].reshape(-1)[idx]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-5


class TestTrainedLossOracle:
    """With one layer every alpha is exactly 1, and the trained loss is
    the balance-weighted cross-entropy plus the positives' mean box
    regression term of the per-example multitask loss."""

    cfg = LayerWeightConfig(layer_ids=(3,), mean_heights=(48.0,), scale_factors=(5.0,))
    pyr = PyramidConfig(layers=(LayerSpec(3, 8, 2),))

    @pytest.mark.parametrize("mode", ["raw", "normalized"])
    @pytest.mark.parametrize("n_pos, n_neg", [(3, 9), (5, 0), (0, 7)])
    def test_value_equals_scalar_oracles(self, mode, n_pos, n_neg):
        rng = np.random.default_rng(n_pos * 10 + n_neg)
        model = ProposalModel.init(self.pyr, regression_mode=mode, seed=4)
        n = n_pos + n_neg
        labels = np.array([1] * n_pos + [0] * n_neg)
        anchors = [BBox(*rng.uniform(0, 50, 2), *rng.uniform(5, 40, 2)) for _ in range(n)]
        gts = [
            BBox(a.x + rng.uniform(-3, 3), a.y, a.w * rng.uniform(0.7, 1.4), a.h) for a in anchors
        ]
        vecs = np.zeros((n, 4))
        vecs[:n_pos] = encode_regression(
            boxes_to_array(anchors[:n_pos]), boxes_to_array(gts[:n_pos]), mode
        )
        heights = rng.uniform(20, 200, size=n)
        feats = rng.uniform(-1, 1, size=(n, model.feature_dims[3]))
        batch = LayerBatch(3, feats, labels, vecs, heights)

        assert np.all(layer_weights(heights, self.cfg) == 1.0)
        loss, _ = proposal_loss_and_grad(model, [batch], self.cfg)

        logits, offsets, _ = model.forward(3, feats)
        p_hat = 1.0 / (1.0 + np.exp(-logits))
        expect = cls_loss(labels, p_hat, gamma=self.cfg.balance)
        reg = [
            multitask_loss(1, anchors[i], gts[i], p_hat[i], offsets[i], self.cfg.tradeoff, mode)
            + math.log(p_hat[i])
            for i in range(n_pos)
        ]
        if reg:
            expect += float(np.mean(reg))
        assert loss == pytest.approx(expect, rel=0, abs=1e-12)


class TestScoring:
    def setup_scene(self):
        cfg = GenConfig(scenes=1, extent=(160, 120), objects_min=2, objects_max=2)
        scene = sample_dataset(cfg, seed=2)[0]
        from scaleloc.scenegen import rasterize

        pyramid = build_pyramid(rasterize(scene), TINY_PYR)
        anchors = generate_anchors(TINY_PYR, scene.extent, LayerWeightConfig().base_heights())
        model = ProposalModel.init(TINY_PYR, seed=3)
        return model, pyramid, anchors

    def test_top_k_zero(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        assert top_k(scored, 0) == []

    def test_top_k_sorted_descending(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        picked = top_k(scored, 50)
        scores = [s.score for s in picked]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_matches_full_sort_oracle(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        picked = top_k(scored, 300)
        oracle = sorted(scored, key=lambda s: -s.score)[:300]
        assert [s.score for s in picked] == [s.score for s in oracle]

    def test_top_k_beyond_available_returns_all(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        assert len(top_k(scored, 10**6)) == len(scored)

    @pytest.mark.parametrize("mode", ["raw", "normalized"])
    @pytest.mark.parametrize("gain", [1.0, 300.0])
    def test_boxes_match_scalar_oracles(self, mode, gain):
        """Every decoded, clipped box equals the one-box oracles. A large
        gain on the regression rows pushes offsets into the 1 px floor,
        the size-ratio clamp and the disjoint-box fallback."""
        _, pyramid, anchors = self.setup_scene()
        model = ProposalModel.init(TINY_PYR, regression_mode=mode, seed=3)
        for layer_id in model.layer_ids:
            model.params[f"head{layer_id}/w"][1:] *= gain
        scored = score_proposals(model, pyramid, anchors)
        assert len(scored) == len(anchors)
        extent = pyramid.extent
        fallbacks = 0
        for layer_id in model.layer_ids:
            sel = np.flatnonzero(anchors.layer_ids == layer_id)
            cells = [BBox(*row) for row in anchors.boxes[sel].tolist()]
            pooled = boxes_to_array(oracle.clip(a, extent) for a in cells)
            feats = roi_pool_many(pyramid, layer_id, pooled)
            logits, offsets, _ = model.forward(layer_id, feats.reshape(len(sel), -1))
            probs = 1.0 / (1.0 + np.exp(-logits))
            for i, cell, vec, prob in zip(sel.tolist(), cells, offsets, probs.tolist()):
                decoded = oracle.decode(cell, vec, mode)
                want = oracle.clip(decoded, extent)
                fallbacks += want.as_tuple()[2:] == (2.0, 2.0)
                got = scored[i]
                np.testing.assert_allclose(got.box.as_tuple(), want.as_tuple(), rtol=1e-12)
                assert (got.score, got.layer_id) == (prob, layer_id)
                assert type(got.score) is float and type(got.layer_id) is int
        assert (fallbacks > 0) == (gain > 1.0)

    def test_boxes_clipped_and_layer_tagged(self):
        model, pyramid, anchors = self.setup_scene()
        for s in score_proposals(model, pyramid, anchors):
            assert s.layer_id in (3, 4, 5)
            assert s.box.x >= 0 and s.box.y >= 0
            assert s.box.x2 <= 160 and s.box.y2 <= 120
            assert 0.0 <= s.score <= 1.0


class TestTraining:
    def small_dataset(self, n=6):
        cfg = GenConfig(scenes=n, extent=(160, 120), objects_min=1, objects_max=3)
        return sample_dataset(cfg, seed=11)

    def train_cfg(self, **kw):
        defaults = dict(pyramid=TINY_PYR, steps=25, seed=7, neg_pool=128, pos_count=8)
        defaults.update(kw)
        return ProposalTrainConfig(**defaults)

    def test_fixed_seed_reproducible(self):
        data = self.small_dataset()
        a = train_proposal_model(data, self.train_cfg())
        b = train_proposal_model(data, self.train_cfg())
        assert set(a.params) == set(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_objective_decreases_over_training(self):
        data = self.small_dataset(10)
        log = []
        train_proposal_model(data, self.train_cfg(steps=200), log=log)
        losses = np.array([l for _, l in log])
        first = losses[: len(losses) // 4].mean()
        last = losses[-len(losses) // 4 :].mean()
        assert last < first

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_proposal_model([], self.train_cfg())

    def test_each_scene_rendered_once_per_call(self):
        data = self.small_dataset()
        provided = []

        def counting_provider(image):
            provided.append(hashlib.sha256(image.tobytes()).hexdigest())
            return build_pyramid(image, TINY_PYR)

        log = []
        train_proposal_model(data, self.train_cfg(steps=40), counting_provider, log)
        assert len(log) == 40
        assert len(provided) == len(set(provided)) <= len(data)

    # sha256 of the trained parameters (name, then bytes, in name order),
    # recorded before scenes were cached, the pyramid was built in one
    # pass and bootstrap negatives were scored from head maps.
    PARAM_DIGESTS = {
        "linear": (
            dict(pyramid=TINY_PYR),
            "c834c5748d33deea62ae3669729f4837705ba7ec330913c0f9382b713bd560df",
        ),
        "hidden": (
            dict(pyramid=TINY_PYR, hidden_dim=6),
            "6495a2f663876293084f7dccc7aa7469ac698446a6393713507404457dd8b640",
        ),
        "desk-raw": (
            dict(pyramid=PyramidConfig(), regression_mode="raw"),
            "69cdeb9f5289576b628240346e14c35fb3258c9f73419a0c8425787517979b7c",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PARAM_DIGESTS))
    def test_params_match_recorded_digest(self, case):
        overrides, want = self.PARAM_DIGESTS[case]
        model = train_proposal_model(self.small_dataset(), self.train_cfg(**overrides))
        digest = hashlib.sha256()
        for name in sorted(model.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(model.params[name]).tobytes())
        assert digest.hexdigest() == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "hidden, name", [(0, "head3/w"), (0, "head5/b"), (6, "head4/w1"), (6, "head3/b2")]
    )
    def test_checkpoint_with_non_finite_parameter_rejected(self, hidden, name, bad):
        arrays = ProposalModel.init(TINY_PYR, hidden_dim=hidden, seed=1).to_arrays()
        arrays[name].flat[2] = bad
        with pytest.raises(ValueError, match=f"parameter {name} has non-finite"):
            ProposalModel.from_arrays(arrays)

    def test_checkpoint_arrays_round_trip(self):
        data = self.small_dataset()
        model = train_proposal_model(data, self.train_cfg())
        back = ProposalModel.from_arrays(model.to_arrays())
        assert back.layer_ids == model.layer_ids
        assert back.hidden_dim == model.hidden_dim
        assert back.regression_mode == model.regression_mode
        for name in model.params:
            np.testing.assert_array_equal(back.params[name], model.params[name])
