import dataclasses
import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_oracles as oracle
from scaleloc import anchors as anchors_mod
from scaleloc import featpyr, proposal, scenegen
from scaleloc.anchors import generate_anchors
from scaleloc.featpyr import LayerSpec, PyramidConfig, build_pyramid, roi_pool_many
from scaleloc._model import _sigmoid
from scaleloc.geometry import (
    BBox,
    boxes_to_array,
    clip_boxes,
    decode_regression,
    encode_regression,
)
from scaleloc.proposal import (
    PROB_EPS,
    TRADEOFF,
    LayerWeightConfig,
    ProposalModel,
    ProposalTrainConfig,
    ScoredBox,
    TrainingDivergedError,
    layer_weights,
    proposal_loss_and_grad,
    score_proposals,
    smooth_l1,
    top_k,
    train_proposal_model,
)
from scaleloc.scenegen import GenConfig, rasterize, sample_dataset


TINY_PYR = PyramidConfig(layers=(LayerSpec(3, 8, 2), LayerSpec(4, 16, 3), LayerSpec(5, 32, 2)))


# Scalar reference forms of the objective. Training minimises
# proposal_loss_and_grad; these are its oracles (see TestTrainedLossOracle
# and TestSmoothL1).


def scalar_smooth_l1(v) -> float:
    """Smooth-L1 of the Euclidean norm: 0.5*n^2 below 1, n - 0.5 above."""
    n = float(np.linalg.norm(np.asarray(v, dtype=np.float64)))
    if n < 1.0:
        return 0.5 * n * n
    return n - 0.5


def scalar_smooth_l1_grad(v) -> np.ndarray:
    """Gradient of :func:`scalar_smooth_l1` with respect to ``v``."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n < 1.0:
        return v.copy()
    return v / n


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


def multitask_loss(p, anchor, gt, p_hat, pred_offsets, lam=10.0, eps=PROB_EPS):
    """Per-example loss: log-loss plus lam-weighted box regression.

    The regression term is active only for positives and measures the
    smooth-L1 of the residual between the encoded target and the
    predicted offsets, so it vanishes when the prediction is exact.
    """
    p_hat = min(max(p_hat, eps), 1.0 - eps)
    if p == 1:
        loss = -math.log(p_hat)
        residual = oracle.encode(anchor, gt) - np.asarray(pred_offsets)
        loss += lam * scalar_smooth_l1(residual)
        return loss
    return -math.log(1.0 - p_hat)


def total_objective(batches) -> float:
    """Double sum over layers and examples of alpha-weighted losses.

    ``batches`` maps layer id to tuples (p, anchor_box, gt_box,
    target_height, p_hat, pred_offsets). The weight alpha is taken from
    the example's own target height, so even a single populated layer
    sees alpha < 1.
    """
    total = 0.0
    for layer_id, examples in batches.items():
        m = LayerWeightConfig.layer_ids.index(layer_id)
        for p, anchor, gt, target_h, p_hat, offsets in examples:
            alpha = float(layer_weights(target_h)[m])
            total += alpha * multitask_loss(p, anchor, gt, p_hat, offsets, lam=TRADEOFF)
    return total


def scalar_alpha(h):
    """Direct scalar evaluation of the stated closed form."""
    alpha_hat = [
        1.0 / (1.0 + math.exp(-(h - hb) / g))
        for hb, g in zip(LayerWeightConfig.mean_heights, LayerWeightConfig.scale_factors)
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
        for m, h in enumerate(LayerWeightConfig.mean_heights):
            alpha_hat, _ = scalar_alpha(h)
            assert alpha_hat[m] == pytest.approx(0.5, abs=1e-15)

    def test_each_component_monotone_in_height(self):
        # Strict within the float64-resolvable band, non-strict beyond
        # (the sigmoids saturate to exactly 1.0 far above each mean).
        hbar = np.array(LayerWeightConfig.mean_heights)
        gam = np.array(LayerWeightConfig.scale_factors)

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
        give one layer more than e / (e + 2), and with these
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


def test_constants_keep_the_rules_of_their_former_checks():
    """The training and scene constants keep what their config checks
    enforced: a NaN mean height made every layer weight NaN, and duplicate
    layer ids gave base_heights() a layer's second height while the loss
    weighted it by its first."""
    ids, heights, scales = (
        LayerWeightConfig.layer_ids, LayerWeightConfig.mean_heights, LayerWeightConfig.scale_factors
    )
    assert len(ids) == len(heights) == len(scales)
    assert len(set(ids)) == len(ids)
    assert LayerWeightConfig().base_heights() == dict(zip(ids, heights))
    for value in heights + scales + (proposal.LR,):
        assert type(value) is float and 0 < value < math.inf
    for value in (anchors_mod.POS_COUNT, anchors_mod.BALANCE, proposal.NEG_POOL):
        assert type(value) is int and value >= 1
    # The sampler's quotas have one copy each, which the loss reads too.
    assert not hasattr(proposal, "POS_COUNT") and not hasattr(LayerWeightConfig, "balance")
    assert len(scenegen.OBJECTS) == 2
    fewest, most = scenegen.OBJECTS
    assert type(fewest) is type(most) is int and 1 <= fewest <= most


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (ProposalTrainConfig, "lr", 0.01),
        (ProposalTrainConfig, "pos_count", 8),
        (ProposalTrainConfig, "neg_pool", 128),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_constants_are_not_config_keywords(cls, field, value):
    """A call that still passes a former field fails at once, instead of
    training with the constant it meant to replace."""
    with pytest.raises(TypeError):
        cls(pyramid=TINY_PYR, **{field: value})


def test_layer_weight_constants_take_no_arguments():
    """``LayerWeightConfig`` holds constants only: it is no dataclass, and
    its constructor has no parameter that a former field could fill."""
    assert not dataclasses.is_dataclass(LayerWeightConfig)
    assert not inspect.signature(LayerWeightConfig).parameters


# Rows with norm exactly 0 and exactly 1, and rows on either side of the knee.
KNEE_ROWS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 0.0, -0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.5, -0.5, 0.5, -0.5],
        [0.6, 0.8, 0.0, 0.0],
        [np.nextafter(1.0, 0.0), 0.0, 0.0, 0.0],
        [np.nextafter(1.0, 2.0), 0.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 0.0],
        [5e-324, 0.0, 0.0, 0.0],
    ]
)


class TestSmoothL1:
    def test_zero(self):
        assert scalar_smooth_l1(np.zeros(4)) == 0.0
        values, grads = smooth_l1(np.zeros((3, 4)))
        assert values.tolist() == [0.0] * 3 and not grads.any()

    def test_knee_continuity(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        quadratic = 0.5 * np.linalg.norm(v) ** 2
        linear = np.linalg.norm(v) - 0.5
        assert quadratic == 0.5
        assert linear == 0.5
        assert scalar_smooth_l1(v) == 0.5
        values, grads = smooth_l1(KNEE_ROWS[2:5])
        assert values.tolist() == [0.5] * 3
        assert np.array_equal(grads, KNEE_ROWS[2:5])

    def test_linear_branch(self):
        assert scalar_smooth_l1(np.array([2.0, 0, 0, 0])) == pytest.approx(1.5)
        values, grads = smooth_l1(np.array([[0.0, -3.0, 0.0, 4.0]]))
        assert values.tolist() == [4.5]
        assert grads.tolist() == [[0.0, -0.6, 0.0, 0.8]]

    def test_empty(self):
        values, grads = smooth_l1(np.zeros((0, 4)))
        assert values.shape == (0,) and grads.shape == (0, 4)

    def test_gradient_both_branches(self):
        rng = np.random.default_rng(0)
        for scale in (0.3, 5.0):
            v = scale * rng.uniform(-1, 1, size=4)
            v /= max(np.linalg.norm(v) / scale, 1e-9)
            (g,) = smooth_l1(v[None, :])[1]
            np.testing.assert_array_equal(g, scalar_smooth_l1_grad(v))
            fd = np.zeros(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1e-6
                fd[i] = (scalar_smooth_l1(v + e) - scalar_smooth_l1(v - e)) / 2e-6
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                st.sampled_from([0.0, 1e-300, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e150]),
            ),
            max_size=30,
        ),
        knee_at=st.integers(0, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_scalar_oracle_bit_for_bit(self, rows, knee_at):
        """Random rows at scales from zero to near overflow, with the
        rows of norm 0 and 1 inserted among them."""
        r = np.array([[x * scale for x in row] for row, scale in rows]).reshape(-1, 4)
        r = np.insert(r, min(knee_at, len(r)), KNEE_ROWS, axis=0)
        values, grads = smooth_l1(r)
        assert values.shape == (len(r),) and grads.shape == r.shape
        assert np.array_equal(values, [scalar_smooth_l1(v) for v in r])
        assert np.array_equal(grads, np.stack([scalar_smooth_l1_grad(v) for v in r]))


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
        vec = oracle.encode(self.anchor, self.gt)
        loss = multitask_loss(1, self.anchor, self.gt, 0.5, vec)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_offset_gradient_matches_finite_differences(self):
        lam = 10.0
        pred = np.array([0.4, -0.2, 0.1, 0.3])
        target = oracle.encode(self.anchor, self.gt)
        analytic = -lam * scalar_smooth_l1_grad(target - pred)
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-4
            hi = multitask_loss(1, self.anchor, self.gt, 0.5, pred + e, lam)
            lo = multitask_loss(1, self.anchor, self.gt, 0.5, pred - e, lam)
            fd[i] = (hi - lo) / 2e-4
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)


class TestTotalObjective:
    def test_empty_is_zero(self):
        assert total_objective({}) == 0.0

    def test_single_layer_uses_softmax_alpha(self):
        anchor = BBox(0, 0, 10, 20)
        examples = [(1, anchor, anchor, 20.0, 0.7, np.zeros(4))]
        got = total_objective({3: examples})
        alpha = layer_weights(20.0)[0]
        assert alpha < 1.0
        expect = alpha * multitask_loss(1, anchor, anchor, 0.7, np.zeros(4), TRADEOFF)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_double_sum_over_layers(self):
        anchor = BBox(0, 0, 10, 20)
        batches = {
            3: [(0, anchor, None, 48.0, 0.2, np.zeros(4))],
            4: [(0, anchor, None, 96.0, 0.1, np.zeros(4))],
        }
        got = total_objective(batches)
        expect = layer_weights(48.0)[0] * multitask_loss(0, anchor, None, 0.2, np.zeros(4)) + (
            layer_weights(96.0)[1] * multitask_loss(0, anchor, None, 0.1, np.zeros(4))
        )
        assert got == pytest.approx(expect, abs=1e-12)


def make_batches(model, rng, n_per_layer=2):
    batches = []
    for layer_id in model.feature_dims:
        d = model.feature_dims[layer_id]
        feats = rng.uniform(-1, 1, size=(n_per_layer, d))
        labels = np.array([1, 0][:n_per_layer])
        _, offsets = model.forward(layer_id, feats)
        # Targets chosen so residual norms stay away from the smooth-L1 knee.
        vecs = offsets + np.array([0.1, -0.1, 0.05, 0.08])
        vecs[labels == 0] = 0.0
        heights = rng.uniform(20, 150, size=n_per_layer)
        batches.append((layer_id, feats, labels, vecs, heights))
    return batches


class TestLossGradient:
    def test_parameter_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = ProposalModel.init(TINY_PYR, seed=5)
        batches = make_batches(model, rng)
        _, grads = proposal_loss_and_grad(model, batches)

        worst = 0.0
        step = 1e-4
        for name, param in model.params.items():
            flat = param.reshape(-1)
            picks = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + step
                hi, _ = proposal_loss_and_grad(model, batches)
                flat[idx] = orig - step
                lo, _ = proposal_loss_and_grad(model, batches)
                flat[idx] = orig
                fd = (hi - lo) / (2 * step)
                a = grads[name].reshape(-1)[idx]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-5

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_layer_batches_add_up(self, seed):
        """Each layer batch is normalized on its own, so the loss of
        several batches is the sum of their losses and the gradient the
        sum of their gradients."""
        rng = np.random.default_rng(seed)
        model = ProposalModel.init(TINY_PYR, seed=seed)
        batches = make_batches(model, rng)
        loss, grads = proposal_loss_and_grad(model, batches)
        alone = [proposal_loss_and_grad(model, [batch]) for batch in batches]
        assert loss == pytest.approx(sum(part for part, _ in alone), rel=1e-12)
        for name in grads:
            np.testing.assert_array_equal(grads[name], sum(g[name] for _, g in alone))
        pair, pair_grads = proposal_loss_and_grad(model, batches[:2])
        assert pair == pytest.approx(alone[0][0] + alone[1][0], rel=1e-12)
        for name in pair_grads:
            np.testing.assert_array_equal(pair_grads[name], alone[0][1][name] + alone[1][1][name])

    def test_batch_of_a_layer_without_loss_constants_names_it(self):
        # Layer 6 used to fail with "tuple.index(x): x not in tuple".
        pyramid = PyramidConfig(layers=(LayerSpec(3, 8, 2), LayerSpec(6, 16, 2)))
        model = ProposalModel.init(pyramid, seed=5)
        batches = make_batches(model, np.random.default_rng(5))
        assert [b[0] for b in batches] == [3, 6]
        assert proposal_loss_and_grad(model, batches[:1])[0] > 0
        with pytest.raises(ValueError, match=r"^layer 6 is not one of \[3, 4, 5\]$"):
            proposal_loss_and_grad(model, batches)


class TestTrainedLossOracle:
    """With one layer every alpha is exactly 1, and the trained loss is
    the balance-weighted cross-entropy plus the positives' mean box
    regression term of the per-example multitask loss."""

    pyr = PyramidConfig(layers=(LayerSpec(3, 8, 2),))

    @pytest.fixture(autouse=True)
    def one_layer(self, monkeypatch):
        for name, value in (("layer_ids", (3,)), ("mean_heights", (48.0,)), ("scale_factors", (5.0,))):
            monkeypatch.setattr(LayerWeightConfig, name, value)

    @pytest.mark.parametrize("n_pos, n_neg", [(3, 9), (5, 0), (0, 7)])
    def test_value_equals_scalar_oracles(self, n_pos, n_neg):
        rng = np.random.default_rng(n_pos * 10 + n_neg)
        model = ProposalModel.init(self.pyr, seed=4)
        n = n_pos + n_neg
        labels = np.array([1] * n_pos + [0] * n_neg)
        anchors = [BBox(*rng.uniform(0, 50, 2), *rng.uniform(5, 40, 2)) for _ in range(n)]
        gts = [
            BBox(a.x + rng.uniform(-3, 3), a.y, a.w * rng.uniform(0.7, 1.4), a.h) for a in anchors
        ]
        vecs = np.zeros((n, 4))
        vecs[:n_pos] = encode_regression(
            boxes_to_array(anchors[:n_pos]), boxes_to_array(gts[:n_pos])
        )
        heights = rng.uniform(20, 200, size=n)
        feats = rng.uniform(-1, 1, size=(n, model.feature_dims[3]))
        batch = (3, feats, labels, vecs, heights)

        assert np.all(layer_weights(heights) == 1.0)
        loss, _ = proposal_loss_and_grad(model, [batch])

        logits, offsets = model.forward(3, feats)
        p_hat = 1.0 / (1.0 + np.exp(-logits))
        expect = cls_loss(labels, p_hat, gamma=anchors_mod.BALANCE)
        reg = [
            multitask_loss(1, anchors[i], gts[i], p_hat[i], offsets[i], TRADEOFF)
            + math.log(p_hat[i])
            for i in range(n_pos)
        ]
        if reg:
            expect += float(np.mean(reg))
        assert loss == pytest.approx(expect, rel=0, abs=1e-12)


class TestForward:
    @pytest.mark.parametrize("layer_id", [7, 3.0, "3", None])
    def test_unknown_layer_names_the_models_layers(self, layer_id):
        # Layer 7 used to fail with a bare KeyError: 7.
        model = ProposalModel.init(TINY_PYR, seed=2)
        with pytest.raises(ValueError, match=rf"layer {layer_id!r} is not one of \[3, 4, 5\]"):
            model.forward(layer_id, np.zeros((2, model.feature_dims[3])))

    def test_loaded_model_knows_only_its_heads(self):
        params = ProposalModel.init(TINY_PYR, seed=2).params
        del params["head4/w"], params["head4/b"]
        model = ProposalModel.from_arrays(params)
        logits, offsets = model.forward(np.int64(5), np.zeros((2, 32)))
        assert logits.shape == (2,) and offsets.shape == (2, 4)
        with pytest.raises(ValueError, match=r"layer 4 is not one of \[3, 5\]"):
            model.forward(4, np.zeros((2, 48)))

    def test_feature_width_checked_per_layer(self):
        model = ProposalModel.init(TINY_PYR, seed=2)
        with pytest.raises(ValueError, match=r"layer 4: expected \(N, 48\) features, got \(2, 32\)"):
            model.forward(4, np.zeros((2, 32)))


def records(boxes, scores, layer_ids) -> list[ScoredBox]:
    """One record per row, the form top_k returns."""
    return [
        ScoredBox(box=BBox(*b), score=s, layer_id=l)
        for b, s, l in zip(boxes.tolist(), scores.tolist(), layer_ids.tolist())
    ]


def pooled_scoring(model, pyramid, anchors):
    """Decoded, clipped boxes (N, 4), objectness scores (N,) and layer ids
    (N,) of every anchor, from each layer's anchors pooled whole and run
    through its head: the route scoring took before score maps."""
    logits, offsets = np.empty(len(anchors)), np.empty((len(anchors), 4))
    for layer_id in np.unique(anchors.layer_ids).tolist():
        sel = np.flatnonzero(anchors.layer_ids == layer_id)
        feats = roi_pool_many(pyramid, layer_id, anchors.clipped[sel])
        logits[sel], offsets[sel] = model.forward(layer_id, feats.reshape(len(sel), -1))
    boxes = clip_boxes(decode_regression(anchors.boxes, offsets), pyramid.extent)
    return boxes, _sigmoid(logits), anchors.layer_ids


def ranked(scores) -> list[int]:
    """Row indices by descending score, ties in row order (a stable sort)."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])


def assert_matches_pooled(picked, oracle, rows):
    """The records are ``pooled_scoring``'s ``rows``, in order: the same
    layers, the scores within ``_objectness``' tolerance and the boxes
    within rtol 1e-12."""
    boxes, scores, layer_ids = oracle
    assert [s.layer_id for s in picked] == layer_ids[rows].tolist()
    np.testing.assert_allclose([s.score for s in picked], scores[rows], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(boxes_to_array(s.box for s in picked), boxes[rows], rtol=1e-12)


FULL_PYR = PyramidConfig(
    layers=(LayerSpec(3, 8, 256), LayerSpec(4, 16, 512), LayerSpec(5, 32, 1024))
)


def sample_scenes(cfg, seed, objects):
    """``sample_dataset(cfg, seed)`` with ``objects`` as scenegen's
    ``OBJECTS``: the scenes that the recorded digests were taken on."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenegen, "OBJECTS", objects)
        return sample_dataset(cfg, seed)


def random_grid_scene(extent):
    """A full-size model, a pyramid of random grids (not block statistics,
    whose channels repeat) over ``extent`` and its anchors."""
    rng = np.random.default_rng(5)
    width, height = extent
    # Drawn channel-first and moved to (H, W, C), so each cell holds the
    # values the recorded digests were computed from.
    grids = {
        l.layer_id: np.moveaxis(
            rng.uniform(-1, 1, size=(l.channels, -(-height // l.stride), -(-width // l.stride))),
            0,
            -1,
        )
        for l in FULL_PYR.layers
    }
    strides = {l.layer_id: l.stride for l in FULL_PYR.layers}
    pyramid = featpyr.FeaturePyramid(extent=extent, strides=strides, grids=grids)
    anchors = generate_anchors(FULL_PYR, extent, LayerWeightConfig().base_heights())
    return ProposalModel.init(FULL_PYR, seed=4), pyramid, anchors


class TestScoring:
    def setup_scene(self, pyramid_cfg=TINY_PYR):
        scene = sample_scenes(GenConfig(scenes=1, extent=(160, 120)), 2, objects=(2, 2))[0]
        pyramid = build_pyramid(rasterize(scene), pyramid_cfg)
        anchors = generate_anchors(pyramid_cfg, scene.extent, LayerWeightConfig().base_heights())
        model = ProposalModel.init(pyramid_cfg, seed=3)
        return model, pyramid, anchors

    # sha256 of the boxes (N, 4) and scores (N,) as float64 and the layer
    # ids (N,) as int64 of top_k(scored, N), recorded when scoring moved
    # to score maps.
    SCORE_DIGESTS = {
        "tiny": (TINY_PYR, "cf8867a3fc54c2417651efb481b3ad9bf611fb50b4dfbe57754697084e144865"),
        "desk": (
            PyramidConfig(),
            "fa2e1194a14ba961f282609ac7aee5b50da13371f112583a51cf8cd4d5872302",
        ),
    }

    @pytest.mark.parametrize("case", sorted(SCORE_DIGESTS))
    def test_scores_match_recorded_digest(self, case):
        pyramid_cfg, want = self.SCORE_DIGESTS[case]
        model, pyramid, anchors = self.setup_scene(pyramid_cfg)
        picked = top_k(score_proposals(model, pyramid, anchors), len(anchors))
        assert len(picked) == len(anchors)
        digest = hashlib.sha256()
        digest.update(boxes_to_array(s.box for s in picked).tobytes())
        digest.update(np.array([s.score for s in picked], dtype=np.float64).tobytes())
        digest.update(np.array([s.layer_id for s in picked], dtype=np.int64).tobytes())
        assert digest.hexdigest() == want

    @pytest.mark.parametrize("case", ["tiny", "desk", "full"])
    def test_matches_pooled_scoring_oracle(self, case):
        """Score maps rank the anchors as pooled scoring does, and the
        kept rows' boxes are the pooled route's."""
        if case == "full":
            model, pyramid, anchors = random_grid_scene((320, 240))
        else:
            model, pyramid, anchors = self.setup_scene(
                TINY_PYR if case == "tiny" else PyramidConfig()
            )
        scored = score_proposals(model, pyramid, anchors)
        assert scored[:3] == (model, pyramid, anchors)
        oracle = pooled_scoring(model, pyramid, anchors)
        np.testing.assert_allclose(scored[3], oracle[1], rtol=1e-9, atol=1e-12)
        rows = ranked(oracle[1])
        assert ranked(scored[3]) == rows
        for k in (100, len(anchors)):
            assert_matches_pooled(top_k(scored, k), oracle, rows[:k])

    @pytest.mark.parametrize("pyramid_cfg", [TINY_PYR, PyramidConfig()], ids=["tiny", "desk"])
    def test_objectness_scores_only_the_pool(self, pyramid_cfg):
        """Bootstrapping's scores: the pooled head's logits for the pool,
        up to the order of sums, and -inf for every other anchor."""
        model, pyramid, anchors = self.setup_scene(pyramid_cfg)
        rng = np.random.default_rng(4)
        pool = rng.choice(len(anchors), size=len(anchors) // 3, replace=False)
        scores = proposal._objectness(model, pyramid, anchors, pool)
        outside = np.setdiff1d(np.arange(len(anchors)), pool)
        assert scores.shape == (len(anchors),) and len(outside) > 0
        assert np.all(scores[outside] == -np.inf)
        want = np.empty(len(pool))
        for layer_id in np.unique(anchors.layer_ids[pool]).tolist():
            sel = anchors.layer_ids[pool] == layer_id
            feats = roi_pool_many(pyramid, layer_id, anchors.clipped[pool[sel]])
            want[sel] = model.forward(layer_id, feats.reshape(sel.sum(), -1))[0]
        np.testing.assert_allclose(scores[pool], want, rtol=1e-9, atol=1e-12)
        assert np.all(proposal._objectness(model, pyramid, anchors, pool[:0]) == -np.inf)

    def test_top_k_zero(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        assert top_k(scored, 0) == []

    @pytest.mark.parametrize("k", [True, -5, 2.5])
    def test_top_k_rejects_a_k_that_is_not_a_count(self, k):
        # Unchecked, True keeps one record, -5 all but five, and 2.5 fails in slicing.
        scored = score_proposals(*self.setup_scene())
        with pytest.raises(ValueError, match="^k must be an integer of at least 0, got"):
            top_k(scored, k)

    def test_top_k_sorted_descending(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        picked = top_k(scored, 50)
        scores = [s.score for s in picked]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_matches_full_sort_oracle(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        boxes, _, layer_ids = pooled_scoring(model, pyramid, anchors)
        oracle = sorted(records(boxes, scored[3], layer_ids), key=lambda s: -s.score)[:300]
        picked = top_k(scored, 300)
        assert [s.score for s in picked] == [s.score for s in oracle]
        assert [s.layer_id for s in picked] == [s.layer_id for s in oracle]
        np.testing.assert_allclose(
            boxes_to_array(s.box for s in picked), boxes_to_array(s.box for s in oracle), rtol=1e-12
        )

    def test_top_k_beyond_available_returns_all(self):
        model, pyramid, anchors = self.setup_scene()
        scored = score_proposals(model, pyramid, anchors)
        assert len(top_k(scored, 10**6)) == len(anchors)

    def test_records_built_only_for_the_kept_rows(self, monkeypatch):
        model, pyramid, anchors = self.setup_scene()
        built = []

        def counting(cls):
            def build(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)

            return build

        for name in ("BBox", "ScoredBox"):
            monkeypatch.setattr(proposal, name, counting(getattr(proposal, name)))
        scored = score_proposals(model, pyramid, anchors)
        assert built == []
        top_k(scored, 7)
        assert sorted(built) == ["BBox"] * 7 + ["ScoredBox"] * 7

    @given(
        levels=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_top_k_equals_stable_sort_oracle(self, levels, seed):
        """Scores drawn from a few levels, so mostly tied: top_k keeps the
        first k anchors of a stable sort by descending score, each with
        its pooled box, as Python floats and ints."""
        model, pyramid, anchors = self.setup_scene()
        scores = np.random.default_rng(seed).choice(levels, size=len(anchors))
        oracle = pooled_scoring(model, pyramid, anchors)
        rows = ranked(scores)
        for k in (0, 1, 37, len(anchors), len(anchors) + 5):
            picked = top_k((model, pyramid, anchors, scores), k)
            assert [s.score for s in picked] == scores[rows[:k]].tolist()
            assert [s.layer_id for s in picked] == oracle[2][rows[:k]].tolist()
            got = boxes_to_array(s.box for s in picked)
            np.testing.assert_allclose(got, oracle[0][rows[:k]], rtol=1e-12)
            assert top_k((model, pyramid, anchors, scores), np.int64(k)) == picked
            for s in picked:
                assert type(s.score) is float and type(s.layer_id) is int
                assert all(type(v) is float for v in s.box.as_tuple())

    @pytest.mark.parametrize("gain", [1.0, 300.0])
    def test_boxes_match_scalar_oracles(self, gain):
        """Every decoded, clipped box equals the one-box oracles. A large
        gain on the regression rows pushes offsets into the 1 px floor,
        the size-ratio clamp and the disjoint-box fallback."""
        _, pyramid, anchors = self.setup_scene()
        model = ProposalModel.init(TINY_PYR, seed=3)
        for layer_id in model.feature_dims:
            model.params[f"head{layer_id}/w"][1:] *= gain
        scored = score_proposals(model, pyramid, anchors)
        picked = top_k(scored, len(anchors))
        assert len(picked) == len(anchors)
        of_anchor = dict(zip(ranked(scored[3]), picked))
        extent = pyramid.extent
        fallbacks = 0
        for layer_id in model.feature_dims:
            sel = np.flatnonzero(anchors.layer_ids == layer_id)
            cells = [BBox(*row) for row in anchors.boxes[sel].tolist()]
            pooled = boxes_to_array(oracle.clip(a, extent) for a in cells)
            feats = roi_pool_many(pyramid, layer_id, pooled)
            logits, offsets = model.forward(layer_id, feats.reshape(len(sel), -1))
            probs = 1.0 / (1.0 + np.exp(-logits))
            for i, cell, vec, prob in zip(sel.tolist(), cells, offsets, probs.tolist()):
                decoded = oracle.decode(cell, vec)
                want = oracle.clip(decoded, extent)
                fallbacks += want.as_tuple()[2:] == (2.0, 2.0)
                got = of_anchor[i]
                np.testing.assert_allclose(got.box.as_tuple(), want.as_tuple(), rtol=1e-12)
                assert (got.score, got.layer_id) == (scored[3][i], layer_id)
                assert got.score == pytest.approx(prob, rel=1e-9, abs=1e-12)
        assert (fallbacks > 0) == (gain > 1.0)

    def test_anchors_of_another_extent_rejected(self):
        model, pyramid, _ = self.setup_scene()
        anchors = generate_anchors(TINY_PYR, (168, 120), LayerWeightConfig().base_heights())
        with pytest.raises(ValueError, match=r"^plan for \(168, 120\), .*; pyramid \(160, 120\), "):
            score_proposals(model, pyramid, anchors)

    def test_anchors_of_a_layer_without_a_head_rejected(self):
        # A layers-3/4 model on 3/4/5 anchors used to fail with a bare KeyError: 5.
        _, pyramid, anchors = self.setup_scene()
        model = ProposalModel.init(PyramidConfig(layers=TINY_PYR.layers[:2]), seed=3)
        with pytest.raises(ValueError, match=r"^layer 5 is not one of \[3, 4\]$"):
            score_proposals(model, pyramid, anchors)
        with pytest.raises(ValueError, match=r"^layer 5 is not one of \[3, 4\]$"):
            proposal._objectness(model, pyramid, anchors, np.arange(len(anchors)))

    def test_model_with_a_layer_the_pyramid_lacks_scores_it(self):
        """A layers-3/4/5 model scores a layers-3/4 pyramid and its
        anchors: only the heads of the layers the anchors reach apply."""
        _, pyramid, anchors = self.setup_scene(PyramidConfig(layers=TINY_PYR.layers[:2]))
        model = ProposalModel.init(TINY_PYR, seed=3)
        scored = score_proposals(model, pyramid, anchors)
        oracle = pooled_scoring(model, pyramid, anchors)
        np.testing.assert_allclose(scored[3], oracle[1], rtol=1e-9, atol=1e-12)
        assert_matches_pooled(top_k(scored, len(anchors)), oracle, ranked(oracle[1]))

    def test_boxes_clipped_and_layer_tagged(self):
        model, pyramid, anchors = self.setup_scene()
        picked = top_k(score_proposals(model, pyramid, anchors), len(anchors))
        boxes = boxes_to_array(s.box for s in picked)
        scores = np.array([s.score for s in picked])
        assert sorted(s.layer_id for s in picked) == sorted(anchors.layer_ids.tolist())
        assert np.all(boxes[:, :2] >= 0)
        assert np.all(boxes[:, 0] + boxes[:, 2] <= 160) and np.all(boxes[:, 1] + boxes[:, 3] <= 120)
        assert np.all((0.0 <= scores) & (scores <= 1.0))


class TestFullSizeScoring:
    """Full-size channels on random grids. A 320x240 scene has 1,200 /
    300 / 75 anchors on layers 3 / 4 / 5."""

    def test_equals_whole_layer_scoring(self):
        model, pyramid, anchors = random_grid_scene((320, 240))
        scored = score_proposals(model, pyramid, anchors)
        of_anchor = dict(zip(ranked(scored[3]), top_k(scored, len(anchors))))
        for layer_id in model.feature_dims:
            sel = np.flatnonzero(anchors.layer_ids == layer_id)
            feats = roi_pool_many(pyramid, layer_id, anchors.clipped[sel])
            logits, offsets = model.forward(layer_id, feats.reshape(len(sel), -1))
            boxes = clip_boxes(decode_regression(anchors.boxes[sel], offsets), pyramid.extent)
            got = [of_anchor[i] for i in sel.tolist()]
            np.testing.assert_allclose(boxes_to_array(s.box for s in got), boxes, rtol=1e-12)
            np.testing.assert_allclose(
                [s.score for s in got], _sigmoid(logits), rtol=1e-9, atol=1e-12
            )
            assert {s.layer_id for s in got} == {layer_id}

    def test_peak_memory_is_under_half_of_pooled_scorings(self):
        """At 640x480, score maps and the 100 kept rows' pooling peak at
        about 7 MiB, most of it the projection's (roi, roi, N) blend
        buffers. Pooled scoring held two 8 MiB blocks of features and
        peaked at 17.0 MiB on this scene."""
        model, pyramid, anchors = random_grid_scene((640, 480))
        tracemalloc.start()
        try:
            top_k(score_proposals(model, pyramid, anchors), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20, peak / 2**20


class TestTraining:
    @pytest.fixture(autouse=True)
    def small_minibatches(self, monkeypatch):
        """Minibatch sizes for tiny scenes, which the digests were recorded with."""
        monkeypatch.setattr(anchors_mod, "POS_COUNT", 8)
        monkeypatch.setattr(proposal, "NEG_POOL", 128)

    def small_dataset(self, n=6):
        return sample_scenes(GenConfig(scenes=n, extent=(160, 120)), 11, objects=(1, 3))

    def train_cfg(self, **kw):
        defaults = dict(pyramid=TINY_PYR, steps=25, seed=7)
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

    def test_pyramid_layer_without_loss_constants_rejected(self):
        pyramid = PyramidConfig(layers=(LayerSpec(3, 8, 2), LayerSpec(6, 16, 2)))
        with pytest.raises(ValueError, match=r"pyramid layers \[6\] have no loss constants"):
            self.train_cfg(pyramid=pyramid)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 2.5),
            ("steps", True),
            ("seed", -1),
            ("seed", 1.0),
        ],
    )
    def test_settings_that_cannot_train_rejected(self, field, value):
        """Steps 2.5 and seed -1 failed only once training started."""
        want = "an integer of at least 0" if field == "seed" else "an integer of at least 1"
        with pytest.raises(ValueError, match=rf"^{field} must be {want}, got"):
            self.train_cfg(**{field: value})

    def test_smallest_valid_settings_accepted(self):
        cfg = self.train_cfg(steps=np.int64(1), seed=0)
        assert (cfg.steps, cfg.seed) == (1, 0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_proposal_model([], self.train_cfg())

    def minibatch_sizes(self, monkeypatch, steps):
        """Train for ``steps`` on the small dataset and return each step's
        (positives, negatives) and each bootstrap pool's size."""
        sizes, pools = [], []
        loss_and_grad, objectness = proposal.proposal_loss_and_grad, proposal._objectness

        def counting_loss_and_grad(model, batches):
            pos = sum(int(labels.sum()) for _, _, labels, _, _ in batches)
            sizes.append((pos, sum(len(labels) for _, _, labels, _, _ in batches) - pos))
            return loss_and_grad(model, batches)

        def counting_objectness(model, pyramid, anchors, indices):
            pools.append(len(indices))
            return objectness(model, pyramid, anchors, indices)

        monkeypatch.setattr(proposal, "proposal_loss_and_grad", counting_loss_and_grad)
        monkeypatch.setattr(proposal, "_objectness", counting_objectness)
        train_proposal_model(self.small_dataset(), self.train_cfg(steps=steps))
        return sizes, pools

    @pytest.mark.parametrize("pos_count", [1, 2, 8])
    def test_positives_capped_at_pos_count(self, monkeypatch, pos_count):
        monkeypatch.setattr(anchors_mod, "POS_COUNT", pos_count)
        sizes, _ = self.minibatch_sizes(monkeypatch, steps=12)
        assert len(sizes) == 12
        assert max(pos for pos, _ in sizes) == pos_count

    @pytest.mark.parametrize("balance", [1, 3])
    def test_negatives_are_balance_per_positive(self, monkeypatch, balance):
        """Each minibatch keeps ``balance`` negatives per positive taken,
        or per POS_COUNT when the scene has none."""
        monkeypatch.setattr(anchors_mod, "BALANCE", balance)
        sizes, _ = self.minibatch_sizes(monkeypatch, steps=12)
        assert sizes
        for pos, neg in sizes:
            assert neg == balance * (pos or anchors_mod.POS_COUNT)

    @pytest.mark.parametrize("neg_pool", [1, 16, 128])
    def test_bootstrap_scores_neg_pool_draws(self, monkeypatch, neg_pool):
        """From step len(dataset) on, each step scores NEG_POOL negatives,
        and the minibatch's negatives come from that pool."""
        monkeypatch.setattr(proposal, "NEG_POOL", neg_pool)
        steps, scenes = 12, 6
        sizes, pools = self.minibatch_sizes(monkeypatch, steps)
        assert pools == [neg_pool] * (steps - scenes)
        assert all(neg <= neg_pool for _, neg in sizes[len(sizes) - len(pools):])

    def test_first_update_is_lr_times_the_gradient(self, monkeypatch):
        """With no velocity yet, one step moves each parameter by -LR times
        its gradient, so doubling LR doubles the move."""
        data = self.small_dataset()
        start = ProposalModel.init(TINY_PYR, seed=7).params
        moves = []
        for lr in (proposal.LR, 2 * proposal.LR):
            monkeypatch.setattr(proposal, "LR", lr)
            model = train_proposal_model(data, self.train_cfg(steps=1))
            moves.append({name: model.params[name] - start[name] for name in start})
        for name in start:
            assert np.any(moves[0][name] != 0), name
            np.testing.assert_allclose(moves[1][name], 2 * moves[0][name], rtol=1e-6, atol=1e-15)

    def test_divergence_raises_naming_the_step(self, monkeypatch):
        """The first update at LR 1e300 sends the heads to about 1e300,
        and the next step's box regression loss overflows."""
        monkeypatch.setattr(proposal, "LR", 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match=r"^non-finite loss inf at step 1$"):
                train_proposal_model(self.small_dataset(), self.train_cfg())

    def test_each_scene_rendered_once_per_call(self, monkeypatch):
        data = self.small_dataset()
        provided = []

        def counting_build_pyramid(image, cfg):
            provided.append(hashlib.sha256(image.tobytes()).hexdigest())
            return build_pyramid(image, cfg)

        monkeypatch.setattr(featpyr, "build_pyramid", counting_build_pyramid)
        log = []
        train_proposal_model(data, self.train_cfg(steps=40), log=log)
        assert len(log) == 40
        assert len(provided) == len(set(provided)) <= len(data)

    # sha256 of the trained parameters (name, then bytes, in name order).
    # "linear" was recorded before scenes were cached, the pyramid was
    # built in one pass and bootstrap negatives were scored from head
    # maps; "desk" before the hidden-layer heads, the raw box regression
    # and the column-pair box codec were removed.
    PARAM_DIGESTS = {
        "linear": (
            dict(pyramid=TINY_PYR),
            "c834c5748d33deea62ae3669729f4837705ba7ec330913c0f9382b713bd560df",
        ),
        "desk": (
            dict(pyramid=PyramidConfig()),
            "d785d9264cdface9370c511313cddad9c30a38bf1536779d1ce95e92233216bc",
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
    @pytest.mark.parametrize("name", ["head3/w", "head5/b", "head4/w", "head3/b"])
    def test_checkpoint_with_non_finite_parameter_rejected(self, name, bad):
        arrays = ProposalModel.init(TINY_PYR, seed=1).params
        arrays[name].flat[2] = bad
        with pytest.raises(ValueError, match=f"parameter {name} has non-finite"):
            ProposalModel.from_arrays(arrays)

    def test_checkpoint_arrays_round_trip(self, tmp_path):
        data = self.small_dataset()
        model = train_proposal_model(data, self.train_cfg())
        np.savez(tmp_path / "model.npz", **model.params)
        with np.load(tmp_path / "model.npz") as stored:
            back = ProposalModel.from_arrays(stored)
        assert back.feature_dims == model.feature_dims
        assert list(back.feature_dims) == [3, 4, 5]
        assert set(back.params) == set(model.params)
        for name in model.params:
            np.testing.assert_array_equal(back.params[name], model.params[name])

    def test_loaded_arrays_are_copies(self):
        model = ProposalModel.init(TINY_PYR, seed=1)
        back = ProposalModel.from_arrays(model.params)
        back.params["head3/w"][0, 0] += 1.0
        assert back.params["head3/w"][0, 0] != model.params["head3/w"][0, 0]


def grown(value: np.ndarray, axis: int) -> np.ndarray:
    """``value`` with one more row (axis 0) or column (axis 1) of zeros;
    a vector gains one entry whatever the axis."""
    axis = min(axis, value.ndim - 1)
    return np.concatenate([value, np.zeros_like(value.take([0], axis=axis))], axis=axis)


def rejects(load, arrays) -> str:
    """The ``ValueError`` message of ``load(arrays)``; any other outcome fails."""
    with pytest.raises(ValueError) as err:
        load(arrays)
    return str(err.value)


class TestCheckpointNames:
    """A checkpoint is exactly ``model.params``: ``from_arrays`` takes the
    layers and feature dims from the ``head<id>/w`` matrices and rejects
    every other name set or shape."""

    def arrays(self):
        return ProposalModel.init(TINY_PYR, seed=1).params

    def test_extra_parameter_rejected(self):
        arrays = self.arrays()
        arrays["head3/w1"] = np.zeros((6, arrays["head3/w"].shape[1]))
        with pytest.raises(ValueError, match="parameter names mismatch"):
            ProposalModel.from_arrays(arrays)

    def test_missing_parameter_rejected(self):
        arrays = self.arrays()
        del arrays["head4/b"]
        with pytest.raises(ValueError, match="parameter names mismatch"):
            ProposalModel.from_arrays(arrays)

    def test_missing_layer_head_rejected(self):
        arrays = self.arrays()
        del arrays["head4/w"]
        with pytest.raises(ValueError, match="parameter names mismatch"):
            ProposalModel.from_arrays(arrays)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"no head<id>/w matrix among \[\]"):
            ProposalModel.from_arrays({})

    @pytest.mark.parametrize(
        "value",
        [np.full(5, 1 + 1j), np.array(["x"] * 5), np.array([{}] * 5, dtype=object)],
        ids=["complex", "str", "object"],
    )
    def test_values_must_be_real_numbers(self, value):
        # A complex array used to load as complex parameters.
        arrays = self.arrays()
        arrays["head4/b"] = value
        with pytest.raises(ValueError, match="parameter head4/b holds .*, not real numbers"):
            ProposalModel.from_arrays(arrays)

    @pytest.mark.parametrize(
        "name",
        ["meta/layer_ids", "meta/feature_dims", "meta/junk"]
        + ["meta/hidden_dim", "meta/regression_mode"],
    )
    def test_former_meta_entry_rejected(self, name):
        arrays = self.arrays()
        arrays[name] = np.array([1.0])
        with pytest.raises(ValueError, match="parameter names mismatch"):
            ProposalModel.from_arrays(arrays)

    def test_meta_format_checkpoint_rejected(self):
        """The former format: the parameters plus meta/layer_ids and
        meta/feature_dims, which held the ids and dims a second time."""
        arrays = self.arrays()
        arrays["meta/layer_ids"] = np.array([3.0, 4.0, 5.0])
        arrays["meta/feature_dims"] = np.array([32.0, 48.0, 32.0])
        message = rejects(ProposalModel.from_arrays, arrays)
        assert message.startswith("parameter names mismatch")
        assert "meta/feature_dims" in message and "meta/layer_ids" in message

    @pytest.mark.parametrize("shape", [(-1,), (5, -1, 1), (1, 5, -1)], ids=["1d", "3d", "3d-lead"])
    @pytest.mark.parametrize("name", ["head3/w", "head5/w"])
    def test_head_matrix_must_be_2d(self, name, shape):
        arrays = self.arrays()
        arrays[name] = arrays[name].reshape(shape)
        with pytest.raises(ValueError, match=f"{name}: expected a matrix with columns"):
            ProposalModel.from_arrays(arrays)

    def test_head_matrix_without_columns_rejected(self):
        arrays = self.arrays()
        arrays["head4/w"] = np.zeros((5, 0))
        with pytest.raises(ValueError, match="head4/w: expected a matrix with columns"):
            ProposalModel.from_arrays(arrays)

    @pytest.mark.parametrize(
        "bad", ["headx/w", "head03/w", "head-3/w", "head+3/w", "head3/W", "head 3/w"]
    )
    def test_malformed_layer_name_rejected(self, bad):
        """Only ``head<id>/w`` with a plain decimal id names a layer, so a
        renamed head is an unknown name and layer 3 lacks its matrix."""
        arrays = self.arrays()
        arrays[bad] = arrays.pop("head3/w")
        message = rejects(ProposalModel.from_arrays, arrays)
        assert message.startswith("parameter names mismatch")
        assert bad in message

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("name", ["head3/w", "head3/b", "head4/w", "head5/b"])
    def test_added_row_or_column_rejected(self, name, axis):
        """A head matrix with an extra column would name a feature dim no
        pooled block has; every other addition breaks a shape."""
        arrays = self.arrays()
        arrays[name] = grown(arrays[name], axis)
        with pytest.raises(ValueError):
            ProposalModel.from_arrays(arrays)

    def test_feature_dims_are_pooled_block_lengths(self):
        arrays = self.arrays()
        arrays["head4/w"], arrays["head4/b"] = np.zeros((5, 20)), np.zeros(5)
        message = r"multiples of ROI_SIZE\*\*2, got \{3: 32, 4: 20, 5: 32\}"
        with pytest.raises(ValueError, match=message):
            ProposalModel.from_arrays(arrays)
        arrays["head4/w"] = np.zeros((5, 64))  # four channels
        assert ProposalModel.from_arrays(arrays).feature_dims == {3: 32, 4: 64, 5: 32}

    def test_hidden_head_checkpoint_rejected(self):
        """The former hidden-layer heads: w1, b1, w2, b2 per layer, with
        meta/hidden_dim and meta/regression_mode entries."""
        arrays = {}
        for layer_id, d in TINY_PYR.flat_dims().items():
            arrays[f"head{layer_id}/w1"] = np.zeros((6, d))
            arrays[f"head{layer_id}/b1"] = np.zeros(6)
            arrays[f"head{layer_id}/w2"] = np.zeros((5, 6))
            arrays[f"head{layer_id}/b2"] = np.zeros(5)
        with pytest.raises(ValueError, match="no head<id>/w matrix"):
            ProposalModel.from_arrays(arrays)
        arrays["meta/hidden_dim"] = np.array([6.0])
        arrays["meta/regression_mode"] = np.array([1.0])
        with pytest.raises(ValueError, match="no head<id>/w matrix"):
            ProposalModel.from_arrays(arrays)

    def test_raw_mode_checkpoint_rejected(self):
        """A linear head trained on raw box differences, as the former
        meta/regression_mode 0 entry marked it."""
        arrays = self.arrays()
        arrays["meta/hidden_dim"] = np.array([0.0])
        arrays["meta/regression_mode"] = np.array([0.0])
        with pytest.raises(ValueError, match="parameter names mismatch"):
            ProposalModel.from_arrays(arrays)

    @given(
        channels=st.dictionaries(st.integers(0, 12), st.integers(1, 3), min_size=1, max_size=3),
        edit=st.sampled_from(["none", "delete", "unknown", "row", "column"]),
        pick=st.integers(0, 10**6),
        unknown=st.text(min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_edited_checkpoints_of_random_configs(self, channels, edit, pick, unknown):
        """Over random small pyramids, the params round-trip and every
        deleted name, unknown name, added row or added column is a
        ``ValueError``."""
        ordered = enumerate(sorted(channels.items()))
        layers = tuple(LayerSpec(i, 8 * 2**k, c) for k, (i, c) in ordered)
        model = ProposalModel.init(PyramidConfig(layers=layers), seed=pick % 7)
        arrays = dict(model.params)
        name = sorted(arrays)[pick % len(arrays)]
        if edit == "none":
            back = ProposalModel.from_arrays(arrays)
            assert back.feature_dims == model.feature_dims
            assert all(np.array_equal(back.params[k], v) for k, v in arrays.items())
            return
        if edit == "delete":
            del arrays[name]
        elif edit == "unknown":
            name = unknown if unknown not in arrays else unknown + "/extra"
            arrays[name] = np.zeros(3)
        else:
            arrays[name] = grown(arrays[name], 0 if edit == "row" else 1)
        rejects(ProposalModel.from_arrays, arrays)
