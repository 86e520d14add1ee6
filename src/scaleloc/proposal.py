"""Initial-proposal scorer and its training objective.

Each pyramid layer gets its own small head mapping flattened RoI
features to an objectness logit plus four box-regression outputs,
evaluated for the anchors of an :class:`~scaleloc.anchors.AnchorSet`.
The trained objective is :func:`proposal_loss_and_grad`: it weights
every example by a height-dependent softmax over per-layer sigmoids,
balances positives against bootstrapped hard negatives, and averages
the box regression over the positives. Features come from a provider,
any ``image -> FeaturePyramid`` callable.

The softmax of values in [0, 1] caps any weight at e / (e + 2) ~ 0.58,
so no layer ever dominates: with the default constants layer 3 gets the
largest weight at every height from 32 px up (at most 0.545, near
64-72 px), layer 4 peaks at 0.386 near 140 px, layer 5 never leads, and
above about 200 px all three sit at 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import anchors as anchors_mod
from . import featpyr
from .anchors import AnchorSet, sample_minibatch_indices
from .featpyr import FeaturePyramid, PyramidConfig, roi_pool_many, roi_pool_project
from .geometry import BBox, boxes_to_array, clip_boxes, decode_regression, encode_regression
from .policy import _glorot, _require_finite, _sigmoid
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
    alpha_hat = _sigmoid((h[..., None] - hbar) / gamma)
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
            for name, shape in cls._head_shapes(layer_id, dims[layer_id], hidden_dim).items():
                # Weights draw in table order; biases start at zero.
                params[name] = _glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
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
        _require_finite(params)
        model = cls(
            layer_ids=layer_ids,
            feature_dims=dims,
            hidden_dim=hidden,
            regression_mode=mode,
            params=params,
        )
        model.validate_shapes()
        return model

    @classmethod
    def _head_shapes(cls, layer_id: int, d: int, hidden_dim: int) -> dict[str, tuple]:
        """Names and shapes of one layer's head parameters."""
        head = f"head{layer_id}/"
        if hidden_dim > 0:
            return {
                head + "w1": (hidden_dim, d),
                head + "b1": (hidden_dim,),
                head + "w2": (cls.N_OUT, hidden_dim),
                head + "b2": (cls.N_OUT,),
            }
        return {head + "w": (cls.N_OUT, d), head + "b": (cls.N_OUT,)}

    def validate_shapes(self) -> None:
        for layer_id in self.layer_ids:
            want = self._head_shapes(layer_id, self.feature_dims[layer_id], self.hidden_dim)
            for name, shape in want.items():
                if name not in self.params:
                    raise ValueError(f"missing parameter {name}")
                if self.params[name].shape != shape:
                    raise ValueError(
                        f"{name}: expected shape {shape}, got {self.params[name].shape}"
                    )


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
        m = cfg.layer_ids.index(batch.layer_id)
        logits, offsets, cache = model.forward(batch.layer_id, batch.features)
        p_hat = _sigmoid(logits)
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
    anchors: AnchorSet,
) -> list[ScoredBox]:
    """Objectness and decoded, clipped box for every anchor, in anchor order."""
    scored: list[ScoredBox] = [None] * len(anchors)
    for layer_id, sel, clipped in _by_layer(pyramid, anchors, np.arange(len(anchors))):
        feats = roi_pool_many(pyramid, layer_id, clipped)
        logits, offsets, _ = model.forward(layer_id, feats.reshape(len(sel), -1))
        decoded = decode_regression(anchors.boxes[sel], offsets, model.regression_mode)
        boxes = clip_boxes(decoded, pyramid.extent)
        for i, box, prob in zip(sel.tolist(), boxes.tolist(), _sigmoid(logits).tolist()):
            scored[i] = ScoredBox(box=BBox(*box), score=prob, layer_id=layer_id)
    return scored


def top_k(scored: list[ScoredBox], k: int) -> list[ScoredBox]:
    """Best k proposals by objectness, ties broken by input order."""
    if k <= 0:
        return []
    return sorted(scored, key=lambda s: -s.score)[:k]  # stable sort keeps input order


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
    """Pyramid, anchors, and labels for one scene."""
    extent = scene.extent
    if extent not in anchor_cache:
        anchor_cache[extent] = anchors_mod.generate_anchors(
            cfg.pyramid, extent, cfg.loss.base_heights()
        )
    anchors = anchor_cache[extent]

    pyramid = provider(rasterize(scene))
    gt_arr = boxes_to_array(scene.gt_boxes)
    labels, matched, target_h = anchors_mod.label_arrays(anchors, gt_arr, extent)
    return pyramid, anchors, labels, matched, target_h, gt_arr


def _by_layer(pyramid: FeaturePyramid, anchors: AnchorSet, indices: np.ndarray):
    """(layer id, anchor indices, clipped boxes) for each layer that the
    given anchor indices reach, in ascending layer id order."""
    layer_ids = anchors.layer_ids[indices]
    for layer_id in np.unique(layer_ids).tolist():
        sel = indices[layer_ids == layer_id]
        yield layer_id, sel, clip_boxes(anchors.boxes[sel], pyramid.extent)


def _pool_features(pyramid: FeaturePyramid, anchors: AnchorSet, indices: np.ndarray):
    """Flattened pooled features for a set of anchor indices, grouped by layer."""
    for layer_id, sel, clipped in _by_layer(pyramid, anchors, indices):
        yield layer_id, sel, roi_pool_many(pyramid, layer_id, clipped).reshape(len(sel), -1)


def _objectness(model: ProposalModel, pyramid: FeaturePyramid, anchors: AnchorSet, indices):
    """Objectness logits of the given anchors, -inf for all others.

    A linear head is applied to the layer grids before sampling
    (:func:`roi_pool_project`), so no pooled block is built; the logits
    equal the pooled forward pass up to the order of floating-point sums.
    A hidden-layer head pools the boxes and runs its forward pass.
    """
    scores = np.full(len(anchors), -np.inf)
    if model.hidden_dim > 0:
        for layer_id, sel, feats in _pool_features(pyramid, anchors, indices):
            scores[sel] = model.forward(layer_id, feats)[0]
        return scores
    for layer_id, sel, clipped in _by_layer(pyramid, anchors, indices):
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
    call, so ``provider``, an ``image -> FeaturePyramid`` callable that
    defaults to :func:`~scaleloc.featpyr.build_pyramid` with
    ``cfg.pyramid``, must return the same pyramid for the same image.
    The cache holds every scene the call visits, about 0.5 MB per
    640x480 scene at the desk channels (8/16/32) and 17 MB at the
    full-size ones (256/512/1024). It draws no random numbers, so the
    trained parameters do not depend on it.
    """
    if not dataset:
        raise ValueError("dataset must not be empty")
    # Looked up at call time, so a rebound featpyr.build_pyramid is used.
    provider = provider or (lambda image: featpyr.build_pyramid(image, cfg.pyramid))
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
        pyramid, anchors, labels, matched, target_h, gt_arr = scene_cache[index]

        scores = None
        if step >= len(dataset):
            # Bootstrapping: uniformly pre-sample a negative pool, score it,
            # and let the sampler keep only the hardest ones.
            neg_idx = np.flatnonzero(labels == anchors_mod.NEGATIVE)
            pool = rng.choice(
                neg_idx, size=min(cfg.neg_pool, len(neg_idx)), replace=False
            )
            scores = _objectness(model, pyramid, anchors, pool)
            # Anything outside the pool must not be picked.
            labels_for_sampling = labels.copy()
            labels_for_sampling[neg_idx] = anchors_mod.IGNORE
            labels_for_sampling[pool] = anchors_mod.NEGATIVE
        else:
            labels_for_sampling = labels

        pos_take, neg_take = sample_minibatch_indices(
            labels_for_sampling, scores, rng, cfg.pos_count, int(cfg.loss.balance)
        )
        chosen = np.concatenate([pos_take, neg_take]).astype(np.int64)
        if len(chosen) == 0:
            continue

        batches = []
        for layer_id, sel, feats in _pool_features(pyramid, anchors, chosen):
            is_pos = labels[sel] == anchors_mod.POSITIVE
            pos = sel[is_pos]
            vecs = np.zeros((len(sel), 4))
            vecs[is_pos] = encode_regression(
                anchors.boxes[pos], gt_arr[matched[pos]], cfg.regression_mode
            )
            batches.append(
                LayerBatch(
                    layer_id=layer_id,
                    features=feats,
                    labels=is_pos.astype(np.int64),
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
