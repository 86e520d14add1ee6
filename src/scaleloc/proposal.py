"""Initial-proposal scorer and its training objective.

Each pyramid layer gets its own linear head mapping flattened RoI
features to an objectness logit plus four box-regression offsets,
evaluated for the anchors of an :class:`~scaleloc.anchors.AnchorSet`.
The offsets are normalized corner shifts and log size ratios relative
to the anchor (:func:`~scaleloc.geometry.encode_regression`).
The head is linear, so :func:`score_proposals` gets every anchor's
objectness from one score map per layer, sampled at the anchor, as
R-FCN does; :func:`top_k` then pools and regresses only the anchors it
keeps. The trained objective is :func:`proposal_loss_and_grad`: it weights
every example by a height-dependent softmax over per-layer sigmoids.
Within each layer's batch it weighs positives against bootstrapped hard
negatives in the sampler's ratio, ``anchors.BALANCE``, and averages the
box regression over that layer's positives; then it sums the layers.

The softmax of values in [0, 1] caps any weight at e / (e + 2) ~ 0.58,
so no layer ever dominates. With these constants layer 4 leads
below 32 px, but by less than 0.01; layer 3 gets the largest weight at
every height from 32 px up (at most 0.546, at 67 px); layer 4 peaks at
0.387 near 140 px; layer 5 never leads; and above 200 px all three lie
within 0.003 of 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import anchors as anchors_mod
from . import featpyr
from ._model import _check_shapes, _count, _glorot, _load_params, _of_layer
from ._model import _sigmoid, _softmax
from .anchors import AnchorSet, sample_minibatch_indices
from .featpyr import FeaturePyramid, PyramidConfig, roi_pool_many, roi_pool_project
from .geometry import BBox, clip_boxes, decode_regression, encode_regression
from .scenegen import Scene, rasterize

__all__ = [
    "LayerWeightConfig",
    "ProposalModel",
    "ProposalTrainConfig",
    "ScoredBox",
    "TrainingDivergedError",
    "layer_weights",
    "smooth_l1",
    "score_proposals",
    "top_k",
    "train_proposal_model",
]

PROB_EPS = 1e-7
# Faster R-CNN's fixed training settings (Ren et al., NeurIPS 2015).
LR = 0.001
MOMENTUM = 0.9
WEIGHT_DECAY = 0.0005
TRADEOFF = 10.0  # weight of box regression against classification
NEG_POOL = 1024  # negatives pre-sampled for bootstrapping to rank


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss or parameter goes non-finite."""


class LayerWeightConfig:
    """Each layer's id, mean height and scale factor in the weighted loss."""

    layer_ids = (3, 4, 5)
    mean_heights = (48.0, 96.0, 156.0)
    scale_factors = (5.0, 20.0, 10.0)

    @classmethod
    def base_heights(cls) -> dict[int, float]:
        return dict(zip(cls.layer_ids, cls.mean_heights))


def layer_weights(h) -> np.ndarray:
    """Per-layer loss weights for an instance of height ``h``.

    Each layer gets a sigmoid response in how far h sits above that
    layer's mean height; the responses are softmax-normalized so the
    weights always sum to one. Accepts scalars or arrays of heights.
    """
    h = np.asarray(h, dtype=np.float64)
    hbar = np.array(LayerWeightConfig.mean_heights)
    gamma = np.array(LayerWeightConfig.scale_factors)
    return _softmax(_sigmoid((h[..., None] - hbar) / gamma))


def smooth_l1(residuals: np.ndarray):
    """Smooth-L1 of each row's Euclidean norm n, and its gradient.

    Returns the values (N,), 0.5*n^2 below 1 and n - 0.5 from 1 up, and
    their gradients (N, 4) with respect to the rows: the row itself
    below 1, the row divided by n from 1 up.
    """
    r = np.asarray(residuals, dtype=np.float64)
    norm = np.sqrt(np.vecdot(r, r))
    values = np.where(norm < 1.0, 0.5 * norm * norm, norm - 0.5)
    return values, r / np.maximum(norm, 1.0)[:, None]


# ---------------------------------------------------------------------------
# Model


@dataclass
class ProposalModel:
    """Per-layer linear heads over flattened RoI features."""

    feature_dims: dict[int, int]
    params: dict[str, np.ndarray]

    N_OUT = 5  # objectness logit + 4 regression outputs

    @classmethod
    def init(cls, pyramid_cfg: PyramidConfig, seed: int = 0) -> "ProposalModel":
        _count("seed", seed, least=0)
        rng = np.random.default_rng(seed)
        dims = pyramid_cfg.flat_dims()
        params: dict[str, np.ndarray] = {}
        for layer_id in pyramid_cfg.layer_ids():
            for name, shape in cls._head_shapes(layer_id, dims[layer_id]).items():
                # Weights draw in table order; biases start at zero.
                params[name] = _glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        return cls(feature_dims=dims, params=params)

    def forward(self, layer_id: int, features: np.ndarray):
        """Map (N, D) features to (logits (N,), offsets (N, 4))."""
        dim = _of_layer(self.feature_dims, layer_id)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != dim:
            raise ValueError(
                f"layer {layer_id}: expected (N, {dim}) features, "
                f"got {features.shape}"
            )
        out = features @ self.params[f"head{layer_id}/w"].T + self.params[f"head{layer_id}/b"]
        return out[:, 0], out[:, 1:]

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ProposalModel":
        """Load a ``params`` dict, taking the layers and feature dims from
        the ``head<id>/w`` matrices; a dim that no pooled block has, or any
        other name set or shape, is a ``ValueError``."""
        params, dims = _load_params(arrays, "head{}/w")
        if any(d % featpyr.ROI_SIZE**2 for d in dims.values()):
            raise ValueError(f"feature dims must be multiples of ROI_SIZE**2, got {dims}")
        want: dict[str, tuple] = {}
        for layer_id, d in dims.items():
            want.update(cls._head_shapes(layer_id, d))
        _check_shapes(want, params)
        return cls(feature_dims=dims, params=params)

    @classmethod
    def _head_shapes(cls, layer_id: int, d: int) -> dict[str, tuple]:
        """Names and shapes of one layer's head parameters."""
        return {f"head{layer_id}/w": (cls.N_OUT, d), f"head{layer_id}/b": (cls.N_OUT,)}


# ---------------------------------------------------------------------------
# Loss with gradients


def proposal_loss_and_grad(model: ProposalModel, batches: list[tuple]):
    """Training loss and its exact parameter gradient, summed over batches.

    Each batch is a tuple ``(layer_id, features, labels, target_vecs,
    target_heights)`` for one layer's head (in training, that layer's slice
    of the minibatch): features (N, D), labels (N,) of 1 for a positive and
    0 for a negative, targets (N, 4), zero for negatives, and heights (N,).
    Each is normalized on its own. Its classification term is the cross-entropy
    weighted by each example's layer weight alpha and by a balance weight:
    the positives' balance weights sum to 1 / (1 + b), the negatives' to
    b / (1 + b), with the sampler's b = ``BALANCE``. Its regression term is
    TRADEOFF times the alpha-weighted smooth-L1 averaged over its
    positives. The loss of several batches is the sum of their losses, so
    a lone positive in one layer's batch carries as much classification
    weight as all the positives of another, and TRADEOFF weighs
    regression against classification within a layer.
    """
    balance = anchors_mod.BALANCE
    column = {layer_id: m for m, layer_id in enumerate(LayerWeightConfig.layer_ids)}
    total_loss = 0.0
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    for layer_id, features, labels, target_vecs, target_heights in batches:
        n = labels.shape[0]
        if n == 0:
            continue
        m = _of_layer(column, layer_id)
        logits, offsets = model.forward(layer_id, features)
        p_hat = _sigmoid(logits)
        p_clamped = np.clip(p_hat, PROB_EPS, 1.0 - PROB_EPS)
        alpha = layer_weights(target_heights)[:, m]

        pos = labels == 1
        neg = ~pos
        n_pos = int(pos.sum())
        n_neg = int(neg.sum())
        w = np.zeros(n)
        if n_pos:
            w[pos] = 1.0 / ((1.0 + balance) * n_pos)
        if n_neg:
            w[neg] = balance / ((1.0 + balance) * n_neg)

        ce = np.where(pos, -np.log(p_clamped), -np.log(1.0 - p_clamped))
        total_loss += float(np.sum(alpha * w * ce))

        # d(-log p)/dlogit = p_hat - 1 for positives, p_hat for negatives,
        # zero wherever the probability clamp is active.
        live = (p_hat > PROB_EPS) & (p_hat < 1.0 - PROB_EPS)
        dce = np.where(pos, p_hat - 1.0, p_hat) * live
        dlogits = alpha * w * dce

        doffsets = np.zeros_like(offsets)
        if n_pos:
            reg, dreg = smooth_l1(target_vecs[pos] - offsets[pos])
            scale = alpha[pos] * TRADEOFF / n_pos
            total_loss += float(np.sum(scale * reg))
            doffsets[pos] = -scale[:, None] * dreg

        # Head gradients; += so that a layer with two batches sums them.
        dout = np.concatenate([dlogits[:, None], doffsets], axis=1)
        grads[f"head{layer_id}/w"] += dout.T @ features
        grads[f"head{layer_id}/b"] += dout.sum(axis=0)
    return total_loss, grads


# ---------------------------------------------------------------------------
# Scoring


@dataclass(frozen=True)
class ScoredBox:
    """A kept proposal: clipped ``box``, objectness ``score`` (a Python
    ``float``) and ``layer_id`` (an ``int``). Only :func:`top_k` builds
    these, for the rows it keeps, because its callers read them."""

    box: BBox
    score: float
    layer_id: int


def score_proposals(
    model: ProposalModel,
    pyramid: FeaturePyramid,
    anchors: AnchorSet,
) -> tuple:
    """``(model, pyramid, anchors, scores)``: the inputs, for :func:`top_k`,
    and every anchor's objectness ``scores`` (N,), in anchor order. The
    anchors must have been generated for the pyramid's extent and strides.

    The scores are sigmoids of :func:`_objectness`' logits: one score map
    per layer, sampled at the anchors' plan, so no anchor is pooled here.
    """
    logits = _objectness(model, pyramid, anchors, np.arange(len(anchors)))
    return model, pyramid, anchors, _sigmoid(logits)


def top_k(scored: tuple, k: int) -> list[ScoredBox]:
    """The best k anchors of :func:`score_proposals`' result by score,
    ties broken by anchor order, as :class:`ScoredBox` records.

    Only the kept anchors are pooled, layer by layer, and run through
    their head, whose offsets decode each anchor into its box, clipped to
    the image. Each record keeps its anchor's score, so the list is
    sorted by the scores it reports. With k = N every anchor is pooled,
    a whole layer at once: 150 MiB of features for layer 3 of a 640x480
    scene at the full-size channels.
    """
    model, pyramid, anchors, scores = scored
    _count("k", k, least=0)
    keep = np.argsort(-scores, kind="stable")[:k]  # stable keeps anchor order
    offsets = np.empty((len(anchors), 4))
    for layer_id, sel, clipped in _by_layer(anchors, keep):
        feats = roi_pool_many(pyramid, layer_id, clipped)
        offsets[sel] = model.forward(layer_id, feats.reshape(len(sel), -1))[1]
    boxes = clip_boxes(decode_regression(anchors.boxes[keep], offsets[keep]), pyramid.extent)
    rows = zip(boxes.tolist(), scores[keep].tolist(), anchors.layer_ids[keep].tolist())
    return [ScoredBox(box=BBox(*box), score=score, layer_id=layer) for box, score, layer in rows]


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class ProposalTrainConfig:
    """A run's pyramid, step count and seed; its other settings are constants."""

    # src/ reads LayerWeightConfig itself; the benchmark's infer-full adapter reads this.
    loss: ClassVar[LayerWeightConfig] = LayerWeightConfig()
    pyramid: PyramidConfig = PyramidConfig()
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        _count("steps", self.steps)
        _count("seed", self.seed, least=0)
        missing = [i for i in self.pyramid.layer_ids() if i not in LayerWeightConfig.layer_ids]
        if missing:
            raise ValueError(f"pyramid layers {missing} have no loss constants")


def _scene_tensors(scene: Scene, cfg: ProposalTrainConfig, anchor_cache):
    """Pyramid, anchors, and labels for one scene."""
    extent = scene.extent
    if extent not in anchor_cache:
        anchor_cache[extent] = anchors_mod.generate_anchors(
            cfg.pyramid, extent, LayerWeightConfig.base_heights()
        )
    anchors = anchor_cache[extent]

    # Looked up at call time, so a rebound featpyr.build_pyramid is used.
    pyramid = featpyr.build_pyramid(rasterize(scene), cfg.pyramid)
    gt_arr = np.array([g.box for g in scene.objects], dtype=np.float64).reshape(-1, 4)
    labels, matched, target_h = anchors_mod.label_arrays(anchors, gt_arr)
    return pyramid, anchors, labels, matched, target_h, gt_arr


def _by_layer(anchors: AnchorSet, indices: np.ndarray):
    """(layer id, anchor indices, clipped boxes) for each layer that the
    given anchor indices reach, in ascending layer id order."""
    layer_ids = anchors.layer_ids[indices]
    for layer_id in np.unique(layer_ids).tolist():
        sel = indices[layer_ids == layer_id]
        yield layer_id, sel, anchors.clipped[sel]


def _objectness(model: ProposalModel, pyramid: FeaturePyramid, anchors: AnchorSet, indices):
    """Objectness logits of the given anchors, -inf for all others.

    The head is applied to the layer grids before sampling at the anchors'
    plan (:func:`roi_pool_project`), so no pooled block is built; the logits
    equal the pooled forward pass up to the order of floating-point sums.
    Only the layers the anchors reach need a head in the model and a grid
    in the pyramid.
    """
    scores = np.full(len(anchors), -np.inf)
    reached, which = np.unique(anchors.layer_ids[indices], return_inverse=True)
    heads, bias = {}, []
    for layer_id in reached.tolist():
        _of_layer(model.feature_dims, layer_id)
        heads[layer_id] = model.params[f"head{layer_id}/w"][0]
        bias.append(model.params[f"head{layer_id}/b"][0])
    logits = roi_pool_project(pyramid, anchors.plan, indices, heads)
    scores[indices] = logits + np.array(bias)[which]
    return scores


def train_proposal_model(
    dataset: list[Scene],
    cfg: ProposalTrainConfig,
    log=None,
) -> ProposalModel:
    """SGD (rate ``LR``, ``MOMENTUM``, ``WEIGHT_DECAY``) over per-image
    minibatches of at most :data:`~scaleloc.anchors.POS_COUNT` positives.

    Negatives are sampled uniformly for the first ``len(dataset)`` steps
    and afterwards bootstrapped by objectness from ``NEG_POOL`` draws.
    Scenes are drawn with replacement, so those steps need not visit
    every scene. Deterministic given the seed.

    Each scene is rendered, turned into a pyramid and labelled once per
    call: the result is cached by dataset index for the life of the
    call. The cache holds every scene the call visits, about 0.5 MB per
    640x480 scene at the desk channels (8/16/32) and 17 MB at the
    full-size ones (256/512/1024). So are the anchors of each extent, with
    the sample plan that bootstrapping scores through (1.7 MB at 640x480).
    The caches draw no random numbers, so the trained parameters do not
    depend on them.
    """
    if not dataset:
        raise ValueError("dataset must not be empty")
    rng = np.random.default_rng(cfg.seed)
    model = ProposalModel.init(cfg.pyramid, seed=cfg.seed)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    anchor_cache: dict = {}
    scene_cache: dict[int, tuple] = {}

    for step in range(cfg.steps):
        index = int(rng.integers(len(dataset)))
        if index not in scene_cache:
            scene_cache[index] = _scene_tensors(dataset[index], cfg, anchor_cache)
        pyramid, anchors, labels, matched, target_h, gt_arr = scene_cache[index]

        scores = None
        if step >= len(dataset):
            # Bootstrapping: uniformly pre-sample a negative pool, score it,
            # and let the sampler keep only the hardest ones.
            neg_idx = np.flatnonzero(labels == anchors_mod.NEGATIVE)
            pool = rng.choice(
                neg_idx, size=min(NEG_POOL, len(neg_idx)), replace=False
            )
            scores = _objectness(model, pyramid, anchors, pool)
            # Anything outside the pool must not be picked.
            labels_for_sampling = labels.copy()
            labels_for_sampling[neg_idx] = anchors_mod.IGNORE
            labels_for_sampling[pool] = anchors_mod.NEGATIVE
        else:
            labels_for_sampling = labels

        pos_take, neg_take = sample_minibatch_indices(labels_for_sampling, scores, rng)
        chosen = np.concatenate([pos_take, neg_take]).astype(np.int64)
        if len(chosen) == 0:
            continue

        batches = []
        for layer_id, sel, clipped in _by_layer(anchors, chosen):
            feats = roi_pool_many(pyramid, layer_id, clipped).reshape(len(sel), -1)
            is_pos = labels[sel] == anchors_mod.POSITIVE
            pos = sel[is_pos]
            vecs = np.zeros((len(sel), 4))
            vecs[is_pos] = encode_regression(anchors.boxes[pos], gt_arr[matched[pos]])
            batches.append((layer_id, feats, is_pos.astype(np.int64), vecs, target_h[sel]))

        loss, grads = proposal_loss_and_grad(model, batches)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss {loss} at step {step}")
        for name in model.params:
            g = grads[name] + WEIGHT_DECAY * model.params[name]
            velocity[name] = MOMENTUM * velocity[name] - LR * g
            model.params[name] += velocity[name]
            if not np.all(np.isfinite(model.params[name])):
                raise TrainingDivergedError(
                    f"non-finite parameter {name} at step {step}"
                )
        if log is not None:
            log.append((step, loss))
    return model
