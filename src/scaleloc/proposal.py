"""Initial-proposal scorer and its training objective.

Each pyramid layer gets its own linear head mapping flattened RoI
features to an objectness logit plus four box-regression offsets,
evaluated for the anchors of an :class:`~scaleloc.anchors.AnchorSet`.
The offsets are normalized corner shifts and log size ratios relative
to the anchor (:func:`~scaleloc.geometry.encode_regression`).
The trained objective is :func:`proposal_loss_and_grad`: it weights
every example by a height-dependent softmax over per-layer sigmoids.
Within each layer's batch it balances positives against bootstrapped
hard negatives and averages the box regression over that layer's
positives; it then sums over the layers.

The softmax of values in [0, 1] caps any weight at e / (e + 2) ~ 0.58,
so no layer ever dominates. With the default constants layer 4 leads
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
from ._model import _check_shapes, _glorot, _load_params, _sigmoid, _softmax
from .anchors import AnchorSet, sample_minibatch_indices
from .featpyr import FeaturePyramid, PyramidConfig, roi_pool_many, roi_pool_project
from .geometry import BBox, boxes_to_array, clip_boxes, decode_regression, encode_regression
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
MOMENTUM = 0.9
WEIGHT_DECAY = 0.0005
TRADEOFF = 10.0  # weight of box regression against classification


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss or parameter goes non-finite."""


@dataclass(frozen=True)
class LayerWeightConfig:
    """Constants of the height-weighted multi-layer objective."""

    layer_ids: tuple[int, ...] = (3, 4, 5)
    mean_heights: tuple[float, ...] = (48.0, 96.0, 156.0)
    scale_factors: tuple[float, ...] = (5.0, 20.0, 10.0)
    balance: float = 3.0

    def __post_init__(self):
        if not (len(self.layer_ids) == len(self.mean_heights) == len(self.scale_factors)):
            raise ValueError("per-layer constants must align with layer_ids")
        if any(v <= 0 for v in self.mean_heights + self.scale_factors):
            raise ValueError("heights and scale factors must be positive")
        if self.balance < 1:
            raise ValueError("need balance >= 1")
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
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_dims[layer_id]:
            raise ValueError(
                f"layer {layer_id}: expected (N, {self.feature_dims[layer_id]}) features, "
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


@dataclass
class LayerBatch:
    """Arrays for one layer's slice of a minibatch."""

    layer_id: int
    features: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) in {1, 0}
    target_vecs: np.ndarray  # (N, 4), zeros for negatives
    target_heights: np.ndarray  # (N,)


def proposal_loss_and_grad(model: ProposalModel, batches: list[LayerBatch], cfg: LayerWeightConfig):
    """Training loss and its exact parameter gradient, summed over batches.

    Each batch (in training, one layer's slice of the minibatch) is
    normalized on its own. Its classification term is the cross-entropy
    weighted by each example's layer weight alpha and by a balance weight:
    the positives' balance weights sum to 1 / (1 + balance), the
    negatives' to balance / (1 + balance). Its regression term is
    TRADEOFF times the alpha-weighted smooth-L1 averaged over its
    positives. The loss of several batches is the sum of their losses, so
    a lone positive in one layer's batch carries as much classification
    weight as all the positives of another, and TRADEOFF weighs
    regression against classification within a layer.
    """
    total_loss = 0.0
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    for batch in batches:
        n = batch.labels.shape[0]
        if n == 0:
            continue
        m = cfg.layer_ids.index(batch.layer_id)
        logits, offsets = model.forward(batch.layer_id, batch.features)
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
            reg, dreg = smooth_l1(batch.target_vecs[pos] - offsets[pos])
            scale = alpha[pos] * TRADEOFF / n_pos
            total_loss += float(np.sum(scale * reg))
            doffsets[pos] = -scale[:, None] * dreg

        # Head gradients; += so that a layer with two batches sums them.
        dout = np.concatenate([dlogits[:, None], doffsets], axis=1)
        grads[f"head{batch.layer_id}/w"] += dout.T @ batch.features
        grads[f"head{batch.layer_id}/b"] += dout.sum(axis=0)
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


_SCORE_BLOCK_BYTES = 8 * 1024 * 1024  # pooled features per scoring block


def _score_blocks(n: int, row_bytes: int) -> list[slice]:
    """Slices that cover ``range(n)`` in blocks of ``_SCORE_BLOCK_BYTES //
    row_bytes`` rows, the last block taking the remainder. Whenever there
    is more than one block, each holds over 4 MiB of features, far above
    the sizes at which BLAS switches to a small-matrix kernel, so every
    row of a block's product equals that row of the whole product."""
    rows = max(1, _SCORE_BLOCK_BYTES // row_bytes)
    starts = list(range(0, n, rows))[: max(1, n // rows)]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def score_proposals(
    model: ProposalModel,
    pyramid: FeaturePyramid,
    anchors: AnchorSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decoded, clipped ``boxes`` (N, 4), objectness ``scores`` (N,) and
    ``layer_ids`` (N,) of every anchor, in anchor order. The anchors must
    have been generated for the pyramid's extent.

    Each layer's anchors are pooled and run through the head in blocks
    of about ``_SCORE_BLOCK_BYTES`` of features, so the call never holds
    a whole layer's pooled features (150 MiB for layer 3 of a 640x480
    scene at the full-size channels). Block after block reuses the same
    heap memory, so peak memory does not depend on how much freed memory
    the allocator happens to keep. The results equal the whole-layer
    computation bit for bit."""
    if tuple(pyramid.extent) != anchors.extent:
        raise ValueError(f"anchors for extent {anchors.extent}, pyramid of {pyramid.extent}")
    heads = np.empty((len(anchors), ProposalModel.N_OUT))
    for layer_id, sel, clipped in _by_layer(anchors, np.arange(len(anchors))):
        for part in _score_blocks(len(sel), model.feature_dims[layer_id] * heads.itemsize):
            feats = roi_pool_many(pyramid, layer_id, clipped[part])
            rows = sel[part]
            heads[rows, 0], heads[rows, 1:] = model.forward(layer_id, feats.reshape(len(feats), -1))
            del feats  # freed before the next block is pooled
    boxes = clip_boxes(decode_regression(anchors.boxes, heads[:, 1:]), pyramid.extent)
    return boxes, _sigmoid(heads[:, 0]), anchors.layer_ids.copy()


def top_k(scored: tuple[np.ndarray, np.ndarray, np.ndarray], k: int) -> list[ScoredBox]:
    """Best k rows of :func:`score_proposals`' ``(boxes, scores, layer_ids)``
    by score, ties broken by input order, as :class:`ScoredBox` records."""
    boxes, scores, layer_ids = scored
    if k <= 0:
        return []
    keep = np.argsort(-scores, kind="stable")[:k]  # stable keeps input order
    rows = zip(boxes[keep].tolist(), scores[keep].tolist(), layer_ids[keep].tolist())
    return [ScoredBox(box=BBox(*box), score=score, layer_id=layer) for box, score, layer in rows]


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class ProposalTrainConfig:
    loss: ClassVar[LayerWeightConfig] = LayerWeightConfig()
    pyramid: PyramidConfig = PyramidConfig()
    steps: int = 2000
    lr: float = 0.001
    pos_count: int = 32
    neg_pool: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 < self.lr < math.inf:
            # lr 0 returns the initial model; lr < 0 climbs the loss.
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        for name in ("pos_count", "neg_pool"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        missing = [i for i in self.pyramid.layer_ids() if i not in self.loss.layer_ids]
        if missing:
            raise ValueError(f"pyramid layers {missing} have no loss constants")


def _scene_tensors(scene: Scene, cfg: ProposalTrainConfig, anchor_cache):
    """Pyramid, anchors, and labels for one scene."""
    extent = scene.extent
    if extent not in anchor_cache:
        anchor_cache[extent] = anchors_mod.generate_anchors(
            cfg.pyramid, extent, cfg.loss.base_heights()
        )
    anchors = anchor_cache[extent]

    # Looked up at call time, so a rebound featpyr.build_pyramid is used.
    pyramid = featpyr.build_pyramid(rasterize(scene), cfg.pyramid)
    gt_arr = boxes_to_array(scene.gt_boxes)
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

    The head is applied to the layer grids before sampling
    (:func:`roi_pool_project`), so no pooled block is built; the logits
    equal the pooled forward pass up to the order of floating-point sums.
    """
    scores = np.full(len(anchors), -np.inf)
    for layer_id, sel, clipped in _by_layer(anchors, indices):
        w = model.params[f"head{layer_id}/w"]
        b = model.params[f"head{layer_id}/b"]
        scores[sel] = roi_pool_project(pyramid, layer_id, clipped, w[:1])[:, 0] + b[0]
    return scores


def train_proposal_model(
    dataset: list[Scene],
    cfg: ProposalTrainConfig,
    log=None,
) -> ProposalModel:
    """SGD with momentum and weight decay over per-image minibatches.

    Negatives are sampled uniformly for the first ``len(dataset)`` steps
    and bootstrapped by objectness afterwards. Scenes are drawn with
    replacement, so those steps need not visit every scene.
    Deterministic given the seed.

    Each scene is rendered, turned into a pyramid and labelled once per
    call: the result is cached by dataset index for the life of the
    call. The cache holds every scene the call visits, about 0.5 MB per
    640x480 scene at the desk channels (8/16/32) and 17 MB at the
    full-size ones (256/512/1024). It draws no random numbers, so the
    trained parameters do not depend on it.
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
        for layer_id, sel, clipped in _by_layer(anchors, chosen):
            feats = roi_pool_many(pyramid, layer_id, clipped).reshape(len(sel), -1)
            is_pos = labels[sel] == anchors_mod.POSITIVE
            pos = sel[is_pos]
            vecs = np.zeros((len(sel), 4))
            vecs[is_pos] = encode_regression(anchors.boxes[pos], gt_arr[matched[pos]])
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
            g = grads[name] + WEIGHT_DECAY * model.params[name]
            velocity[name] = MOMENTUM * velocity[name] - cfg.lr * g
            model.params[name] += velocity[name]
            if not np.all(np.isfinite(model.params[name])):
                raise TrainingDivergedError(
                    f"non-finite parameter {name} at step {step}"
                )
        if log is not None:
            log.append((step, loss))
    return model
