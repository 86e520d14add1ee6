"""Initial-proposal scorer and its training objective.

Each pyramid layer gets its own small head mapping flattened RoI
features to an objectness logit plus four box-regression outputs. The
training objective weights every example by a height-dependent softmax
over per-layer sigmoids, and balances positives against bootstrapped
hard negatives. The softmax of values in [0, 1] caps any weight at
e / (e + 2) ~ 0.58, so no layer ever dominates: with the default
constants layer 3 gets the largest weight at every height from 32 px up
(at most 0.545, near 64-72 px), layer 4 peaks at 0.386 near 140 px,
layer 5 never leads, and above about 200 px all three sit at 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import anchors as anchors_mod
from .anchors import Anchor, sample_minibatch_indices
from .featpyr import (
    FeaturePyramid,
    PyramidConfig,
    SyntheticProvider,
    roi_pool_many,
    roi_pool_project,
)
from .geometry import BBox, clip, clip_boxes_array, decode_regression, encode_regression
from .scenegen import Scene, rasterize

__all__ = [
    "LayerWeightConfig",
    "ProposalModel",
    "ProposalTrainConfig",
    "ScoredBox",
    "TrainingDivergedError",
    "layer_weights",
    "smooth_l1",
    "smooth_l1_grad",
    "cls_loss",
    "multitask_loss",
    "total_objective",
    "score_proposals",
    "top_k",
    "train_proposal_model",
]

PROB_EPS = 1e-7


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss or parameter goes non-finite."""


@dataclass(frozen=True)
class LayerWeightConfig:
    """Constants of the height-weighted multi-layer objective."""

    layer_ids: tuple[int, ...] = (3, 4, 5)
    mean_heights: tuple[float, ...] = (48.0, 96.0, 156.0)
    scale_factors: tuple[float, ...] = (5.0, 20.0, 10.0)
    tradeoff: float = 10.0
    balance: float = 3.0

    def __post_init__(self):
        if not (len(self.layer_ids) == len(self.mean_heights) == len(self.scale_factors)):
            raise ValueError("per-layer constants must align with layer_ids")
        if any(v <= 0 for v in self.mean_heights + self.scale_factors):
            raise ValueError("heights and scale factors must be positive")
        if self.tradeoff < 0 or self.balance < 1:
            raise ValueError("need tradeoff >= 0 and balance >= 1")
        if not float(self.balance).is_integer():
            # The sampler keeps balance negatives per positive, a count.
            raise ValueError(f"balance must be a whole number, got {self.balance}")

    def layer_index(self, layer_id: int) -> int:
        return self.layer_ids.index(layer_id)

    def base_heights(self) -> dict[int, float]:
        return dict(zip(self.layer_ids, self.mean_heights))


def layer_weights(h, cfg: LayerWeightConfig = LayerWeightConfig()) -> np.ndarray:
    """Per-layer loss weights for an instance of height ``h``.

    Each layer gets a sigmoid response in how far h sits above that
    layer's mean height; the responses are softmax-normalized so the
    weights always sum to one. Accepts scalars or arrays of heights.
    """
    h = np.asarray(h, dtype=np.float64)
    hbar = np.array(cfg.mean_heights)
    gamma = np.array(cfg.scale_factors)
    alpha_hat = 1.0 / (1.0 + np.exp(-(h[..., None] - hbar) / gamma))
    shifted = np.exp(alpha_hat - alpha_hat.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def smooth_l1(v: np.ndarray) -> float:
    """Smooth-L1 of the Euclidean norm: 0.5*n^2 below 1, n - 0.5 above."""
    n = float(np.linalg.norm(np.asarray(v, dtype=np.float64)))
    if n < 1.0:
        return 0.5 * n * n
    return n - 0.5


def smooth_l1_grad(v: np.ndarray) -> np.ndarray:
    """Gradient of :func:`smooth_l1` with respect to ``v``."""
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


def multitask_loss(
    p: int,
    anchor: BBox,
    gt: BBox | None,
    p_hat: float,
    pred_offsets: np.ndarray,
    lam: float = 10.0,
    mode: str = "raw",
    eps: float = PROB_EPS,
) -> float:
    """Per-example loss: log-loss plus lam-weighted box regression.

    The regression term is active only for positives and measures the
    smooth-L1 of the residual between the encoded target and the
    predicted offsets, so it vanishes when the prediction is exact.
    """
    p_hat = min(max(p_hat, eps), 1.0 - eps)
    if p == 1:
        loss = -math.log(p_hat)
        residual = encode_regression(anchor, gt, mode) - np.asarray(pred_offsets)
        loss += lam * smooth_l1(residual)
        return loss
    return -math.log(1.0 - p_hat)


def total_objective(
    batches: dict[int, list],
    cfg: LayerWeightConfig = LayerWeightConfig(),
    mode: str = "raw",
) -> float:
    """Double sum over layers and examples of alpha-weighted losses.

    ``batches`` maps layer id to tuples (p, anchor_box, gt_box,
    target_height, p_hat, pred_offsets). The weight alpha is taken from
    the example's own target height, so even a single populated layer
    sees alpha < 1.
    """
    total = 0.0
    for layer_id, examples in batches.items():
        m = cfg.layer_index(layer_id)
        for p, anchor, gt, target_h, p_hat, offsets in examples:
            alpha = float(layer_weights(target_h, cfg)[m])
            total += alpha * multitask_loss(
                p, anchor, gt, p_hat, offsets, lam=cfg.tradeoff, mode=mode
            )
    return total


# ---------------------------------------------------------------------------
# Model


@dataclass
class ProposalModel:
    """Per-layer heads over flattened RoI features.

    ``hidden_dim`` 0 means a plain linear head; otherwise one ReLU
    hidden layer of that width sits in front of the outputs.
    """

    layer_ids: tuple[int, ...]
    feature_dims: dict[int, int]
    hidden_dim: int
    regression_mode: str
    params: dict[str, np.ndarray]

    N_OUT = 5  # objectness logit + 4 regression outputs

    @classmethod
    def init(
        cls,
        pyramid_cfg: PyramidConfig,
        hidden_dim: int = 0,
        regression_mode: str = "normalized",
        seed: int = 0,
    ) -> "ProposalModel":
        rng = np.random.default_rng(seed)
        dims = pyramid_cfg.flat_dims()
        params: dict[str, np.ndarray] = {}
        for layer_id in pyramid_cfg.layer_ids():
            d = dims[layer_id]
            if hidden_dim > 0:
                params[f"head{layer_id}/w1"] = _glorot(rng, hidden_dim, d)
                params[f"head{layer_id}/b1"] = np.zeros(hidden_dim)
                params[f"head{layer_id}/w2"] = _glorot(rng, cls.N_OUT, hidden_dim)
                params[f"head{layer_id}/b2"] = np.zeros(cls.N_OUT)
            else:
                params[f"head{layer_id}/w"] = _glorot(rng, cls.N_OUT, d)
                params[f"head{layer_id}/b"] = np.zeros(cls.N_OUT)
        return cls(
            layer_ids=pyramid_cfg.layer_ids(),
            feature_dims=dims,
            hidden_dim=hidden_dim,
            regression_mode=regression_mode,
            params=params,
        )

    def forward(self, layer_id: int, features: np.ndarray):
        """Map (N, D) features to (logits (N,), offsets (N, 4), cache)."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_dims[layer_id]:
            raise ValueError(
                f"layer {layer_id}: expected (N, {self.feature_dims[layer_id]}) features, "
                f"got {features.shape}"
            )
        if self.hidden_dim > 0:
            z1 = features @ self.params[f"head{layer_id}/w1"].T + self.params[f"head{layer_id}/b1"]
            a1 = np.maximum(z1, 0.0)
            out = a1 @ self.params[f"head{layer_id}/w2"].T + self.params[f"head{layer_id}/b2"]
            cache = (features, z1, a1)
        else:
            out = features @ self.params[f"head{layer_id}/w"].T + self.params[f"head{layer_id}/b"]
            cache = (features,)
        return out[:, 0], out[:, 1:], cache

    def backward(self, layer_id: int, cache, dlogits: np.ndarray, doffsets: np.ndarray):
        """Gradients of the head parameters given output gradients."""
        dout = np.concatenate([dlogits[:, None], doffsets], axis=1)
        grads: dict[str, np.ndarray] = {}
        if self.hidden_dim > 0:
            features, z1, a1 = cache
            grads[f"head{layer_id}/w2"] = dout.T @ a1
            grads[f"head{layer_id}/b2"] = dout.sum(axis=0)
            da1 = dout @ self.params[f"head{layer_id}/w2"]
            dz1 = da1 * (z1 > 0)
            grads[f"head{layer_id}/w1"] = dz1.T @ features
            grads[f"head{layer_id}/b1"] = dz1.sum(axis=0)
        else:
            (features,) = cache
            grads[f"head{layer_id}/w"] = dout.T @ features
            grads[f"head{layer_id}/b"] = dout.sum(axis=0)
        return grads

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = dict(self.params)
        arrays["meta/layer_ids"] = np.array(self.layer_ids, dtype=np.float64)
        arrays["meta/feature_dims"] = np.array(
            [self.feature_dims[i] for i in self.layer_ids], dtype=np.float64
        )
        arrays["meta/hidden_dim"] = np.array([self.hidden_dim], dtype=np.float64)
        arrays["meta/regression_mode"] = np.array(
            [0.0 if self.regression_mode == "raw" else 1.0]
        )
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ProposalModel":
        layer_ids = tuple(int(v) for v in arrays["meta/layer_ids"])
        dims = {
            layer_id: int(d)
            for layer_id, d in zip(layer_ids, arrays["meta/feature_dims"])
        }
        hidden = int(arrays["meta/hidden_dim"][0])
        mode = "raw" if arrays["meta/regression_mode"][0] == 0.0 else "normalized"
        params = {k: np.array(v) for k, v in arrays.items() if not k.startswith("meta/")}
        model = cls(
            layer_ids=layer_ids,
            feature_dims=dims,
            hidden_dim=hidden,
            regression_mode=mode,
            params=params,
        )
        model.validate_shapes()
        return model

    def validate_shapes(self) -> None:
        for layer_id in self.layer_ids:
            d = self.feature_dims[layer_id]
            if self.hidden_dim > 0:
                want = {
                    f"head{layer_id}/w1": (self.hidden_dim, d),
                    f"head{layer_id}/b1": (self.hidden_dim,),
                    f"head{layer_id}/w2": (self.N_OUT, self.hidden_dim),
                    f"head{layer_id}/b2": (self.N_OUT,),
                }
            else:
                want = {
                    f"head{layer_id}/w": (self.N_OUT, d),
                    f"head{layer_id}/b": (self.N_OUT,),
                }
            for name, shape in want.items():
                if name not in self.params:
                    raise ValueError(f"missing parameter {name}")
                if self.params[name].shape != shape:
                    raise ValueError(
                        f"{name}: expected shape {shape}, got {self.params[name].shape}"
                    )


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


# ---------------------------------------------------------------------------
# Loss with gradients


@dataclass
class LayerBatch:
    """Arrays for one layer's slice of a minibatch."""

    layer_id: int
    features: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) in {1, 0}
    target_vecs: np.ndarray  # (N, 4), zeros for negatives
    target_heights: np.ndarray  # (N,)


def proposal_loss_and_grad(model: ProposalModel, batches: list[LayerBatch], cfg: LayerWeightConfig):
    """Normalized training loss and its exact parameter gradient.

    Classification follows the balance-weighted cross-entropy with the
    per-example alpha weights folded in; the regression term is averaged
    over positives so lam keeps a stable meaning across batch mixes.
    """
    total_loss = 0.0
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    for batch in batches:
        n = batch.labels.shape[0]
        if n == 0:
            continue
        m = cfg.layer_index(batch.layer_id)
        logits, offsets, cache = model.forward(batch.layer_id, batch.features)
        p_hat = 1.0 / (1.0 + np.exp(-logits))
        p_clamped = np.clip(p_hat, PROB_EPS, 1.0 - PROB_EPS)
        alpha = layer_weights(batch.target_heights, cfg)[:, m]

        pos = batch.labels == 1
        neg = ~pos
        n_pos = int(pos.sum())
        n_neg = int(neg.sum())
        w = np.zeros(n)
        if n_pos:
            w[pos] = 1.0 / ((1.0 + cfg.balance) * n_pos)
        if n_neg:
            w[neg] = cfg.balance / ((1.0 + cfg.balance) * n_neg)

        ce = np.where(pos, -np.log(p_clamped), -np.log(1.0 - p_clamped))
        total_loss += float(np.sum(alpha * w * ce))

        # d(-log p)/dlogit = p_hat - 1 for positives, p_hat for negatives,
        # zero wherever the probability clamp is active.
        live = (p_hat > PROB_EPS) & (p_hat < 1.0 - PROB_EPS)
        dce = np.where(pos, p_hat - 1.0, p_hat) * live
        dlogits = alpha * w * dce

        doffsets = np.zeros_like(offsets)
        if n_pos:
            residual = batch.target_vecs[pos] - offsets[pos]
            reg = np.array([smooth_l1(r) for r in residual])
            scale = alpha[pos] * cfg.tradeoff / n_pos
            total_loss += float(np.sum(scale * reg))
            gvec = np.stack([smooth_l1_grad(r) for r in residual])
            doffsets[pos] = -scale[:, None] * gvec

        for name, g in model.backward(batch.layer_id, cache, dlogits, doffsets).items():
            grads[name] += g
    return total_loss, grads


# ---------------------------------------------------------------------------
# Scoring


@dataclass(frozen=True)
class ScoredBox:
    box: BBox
    score: float
    layer_id: int


def score_proposals(
    model: ProposalModel,
    pyramid: FeaturePyramid,
    anchor_list: list[Anchor],
) -> list[ScoredBox]:
    """Objectness and decoded box for every anchor."""
    extent = pyramid.extent
    scored: list[ScoredBox | None] = [None] * len(anchor_list)
    by_layer: dict[int, list[int]] = {}
    for i, a in enumerate(anchor_list):
        by_layer.setdefault(a.layer_id, []).append(i)

    for layer_id, indices in by_layer.items():
        boxes = np.array([anchor_list[i].box.as_tuple() for i in indices])
        clipped = clip_boxes_array(boxes, extent)
        blocks = roi_pool_many(pyramid, layer_id, clipped)
        feats = blocks.reshape(len(indices), -1)
        logits, offsets, _ = model.forward(layer_id, feats)
        probs = 1.0 / (1.0 + np.exp(-logits))
        for row, i in enumerate(indices):
            decoded = decode_regression(
                anchor_list[i].box, offsets[row], model.regression_mode
            )
            if decoded.w < 1.0 or decoded.h < 1.0:
                decoded = BBox(decoded.x, decoded.y, max(decoded.w, 1.0), max(decoded.h, 1.0))
            scored[i] = ScoredBox(
                box=clip(decoded, extent),
                score=float(probs[row]),
                layer_id=layer_id,
            )
    return [s for s in scored if s is not None]


def top_k(scored: list[ScoredBox], k: int) -> list[ScoredBox]:
    """Best k proposals by objectness, ties broken by input order."""
    if k <= 0:
        return []
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].score, i))
    return [scored[i] for i in order[:k]]


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class ProposalTrainConfig:
    pyramid: PyramidConfig = PyramidConfig()
    loss: LayerWeightConfig = LayerWeightConfig()
    regression_mode: str = "normalized"
    hidden_dim: int = 0
    steps: int = 2000
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    pos_count: int = 32
    neg_pool: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.regression_mode not in ("raw", "normalized"):
            raise ValueError("regression_mode must be 'raw' or 'normalized'")


def _scene_tensors(scene: Scene, cfg: ProposalTrainConfig, provider, anchor_cache):
    """Pyramid, anchor arrays, and labels for one scene."""
    extent = scene.extent
    if extent not in anchor_cache:
        anchor_list = anchors_mod.generate_anchors(
            cfg.pyramid, extent, cfg.loss.base_heights()
        )
        boxes = np.array([a.box.as_tuple() for a in anchor_list])
        layers = np.array([a.layer_id for a in anchor_list])
        heights = np.array([a.base_height for a in anchor_list])
        anchor_cache[extent] = (anchor_list, boxes, layers, heights)
    anchor_list, boxes, layers, heights = anchor_cache[extent]

    pyramid = provider.provide(rasterize(scene))
    gt_arr = np.array([b.as_tuple() for b in scene.gt_boxes]).reshape(-1, 4)
    labels, matched, target_h, _ = anchors_mod.label_arrays(
        boxes, heights, gt_arr, extent
    )
    return pyramid, anchor_list, boxes, layers, labels, matched, target_h, gt_arr


def _by_layer(pyramid, boxes, layers, indices, pyramid_cfg):
    """(layer id, anchor indices, clipped boxes) for each layer that the
    given anchor indices reach, in layer order."""
    for layer_id in pyramid_cfg.layer_ids():
        sel = indices[layers[indices] == layer_id]
        if len(sel):
            yield layer_id, sel, clip_boxes_array(boxes[sel], pyramid.extent)


def _pool_features(pyramid, boxes, layers, indices, pyramid_cfg):
    """Flattened pooled features for a set of anchor indices, grouped by layer."""
    for layer_id, sel, clipped in _by_layer(pyramid, boxes, layers, indices, pyramid_cfg):
        yield layer_id, sel, roi_pool_many(pyramid, layer_id, clipped).reshape(len(sel), -1)


def _objectness(model, pyramid, boxes, layers, indices, pyramid_cfg):
    """Objectness logits of the given anchors, -inf for all others.

    A linear head is applied to the layer grids before sampling
    (:func:`roi_pool_project`), so no pooled block is built; the logits
    equal the pooled forward pass up to the order of floating-point sums.
    A hidden-layer head pools the boxes and runs its forward pass.
    """
    scores = np.full(len(layers), -np.inf)
    if model.hidden_dim > 0:
        for layer_id, sel, feats in _pool_features(pyramid, boxes, layers, indices, pyramid_cfg):
            scores[sel] = model.forward(layer_id, feats)[0]
        return scores
    for layer_id, sel, clipped in _by_layer(pyramid, boxes, layers, indices, pyramid_cfg):
        w = model.params[f"head{layer_id}/w"]
        b = model.params[f"head{layer_id}/b"]
        scores[sel] = roi_pool_project(pyramid, layer_id, clipped, w[:1])[:, 0] + b[0]
    return scores


def train_proposal_model(
    dataset: list[Scene],
    cfg: ProposalTrainConfig,
    provider=None,
    log=None,
) -> ProposalModel:
    """SGD with momentum and weight decay over per-image minibatches.

    Negatives are sampled uniformly during the first pass over the
    dataset and bootstrapped by objectness afterwards. Deterministic
    given the seed.

    Each scene is rendered, turned into a pyramid and labelled once per
    call: the result is cached by dataset index for the life of the
    call, so ``provider.provide`` must return the same pyramid for the
    same image. The cache holds every scene the call visits, about
    0.5 MB per 640x480 scene at the desk channels (8/16/32) and 17 MB at
    the full-size ones (256/512/1024). It draws no random numbers, so
    the trained parameters do not depend on it.
    """
    if not dataset:
        raise ValueError("dataset must not be empty")
    provider = provider or SyntheticProvider(cfg.pyramid)
    rng = np.random.default_rng(cfg.seed)
    model = ProposalModel.init(
        cfg.pyramid, cfg.hidden_dim, cfg.regression_mode, seed=cfg.seed
    )
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    anchor_cache: dict = {}
    scene_cache: dict[int, tuple] = {}

    for step in range(cfg.steps):
        index = int(rng.integers(len(dataset)))
        if index not in scene_cache:
            scene_cache[index] = _scene_tensors(dataset[index], cfg, provider, anchor_cache)
        pyramid, anchor_list, boxes, layers, labels, matched, target_h, gt_arr = (
            scene_cache[index]
        )

        scores = None
        if step >= len(dataset):
            # Bootstrapping: uniformly pre-sample a negative pool, score it,
            # and let the sampler keep only the hardest ones.
            neg_idx = np.flatnonzero(labels == anchors_mod.NEGATIVE)
            pool = rng.choice(
                neg_idx, size=min(cfg.neg_pool, len(neg_idx)), replace=False
            )
            scores = _objectness(model, pyramid, boxes, layers, pool, cfg.pyramid)
            # Anything outside the pool must not be picked.
            mask = np.ones(len(labels), dtype=bool)
            mask[pool] = False
            labels_for_sampling = labels.copy()
            labels_for_sampling[(labels == anchors_mod.NEGATIVE) & mask] = anchors_mod.IGNORE
        else:
            labels_for_sampling = labels

        pos_take, neg_take = sample_minibatch_indices(
            labels_for_sampling, scores, rng, cfg.pos_count, int(cfg.loss.balance)
        )
        chosen = np.concatenate([pos_take, neg_take]).astype(np.int64)
        if len(chosen) == 0:
            continue

        batches = []
        for layer_id, sel, feats in _pool_features(pyramid, boxes, layers, chosen, cfg.pyramid):
            sel_labels = (labels[sel] == anchors_mod.POSITIVE).astype(np.int64)
            vecs = np.zeros((len(sel), 4))
            for row, idx in enumerate(sel):
                if labels[idx] == anchors_mod.POSITIVE:
                    gt_box = BBox(*gt_arr[matched[idx]])
                    vecs[row] = encode_regression(
                        anchor_list[idx].box, gt_box, cfg.regression_mode
                    )
            batches.append(
                LayerBatch(
                    layer_id=layer_id,
                    features=feats,
                    labels=sel_labels,
                    target_vecs=vecs,
                    target_heights=target_h[sel],
                )
            )

        loss, grads = proposal_loss_and_grad(model, batches, cfg.loss)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss {loss} at step {step}")
        for name in model.params:
            g = grads[name] + cfg.weight_decay * model.params[name]
            velocity[name] = cfg.momentum * velocity[name] - cfg.lr * g
            model.params[name] += velocity[name]
            if not np.all(np.isfinite(model.params[name])):
                raise TrainingDivergedError(
                    f"non-finite parameter {name} at step {step}"
                )
        if log is not None:
            log.append((step, loss))
    return model
