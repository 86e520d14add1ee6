"""The benchmark's three workloads and the closed loop that measures them.

Each workload has a set-up, a unit of work and its output checks. A unit
is one training call (``train-desk``, one operation per training step),
one unseen scene (``infer-full``) or one policy episode
(``policy-full``). Units run back to back in one thread: the next starts
only after the previous one returned. All inputs derive from the
workload seed; the program only ever sees the generated inputs, through
the public functions of ``scaleloc``, looked up by module attribute at
call time so that the traced run's rebinding reaches them.
"""

from __future__ import annotations

import gc
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from scaleloc import anchors, featpyr, geometry, policy, proposal, scenegen, trajectory

import checks
from tracing import ROOT

# Workload seeds lie in [0, SEED_SPAN); derived input streams add
# multiples of it so that no two streams share a generator seed.
SEED_SPAN = 2**32
WARM_UP, INFER_TRAIN = 1, 2
INFER_TRAIN_SEED = INFER_TRAIN * SEED_SPAN + 1709
LAYER_STRIDES = ((3, 8), (4, 16), (5, 32))


@dataclass(frozen=True)
class Size:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` is for its tests."""

    name: str
    extent: tuple[int, int]
    setup_reps: int  # set-ups per run; setup_s reports their median
    desk_channels: tuple[int, int, int]
    full_channels: tuple[int, int, int]
    train_scenes: int  # train-desk scene set
    train_steps: int  # steps per training call, several per scene
    warmup_steps: int
    infer_train_scenes: int  # infer-full set-up training
    infer_train_steps: int
    stream_scenes: int  # unseen scenes available to one infer-full pass
    top_k: int
    policy_scenes: int
    episode_steps: int
    obs_dim: int
    state_dim: int


FULL = Size(
    name="full",
    extent=(640, 480),
    setup_reps=3,
    desk_channels=(8, 16, 32),
    full_channels=(256, 512, 1024),
    train_scenes=12,
    train_steps=96,
    warmup_steps=14,
    infer_train_scenes=8,
    infer_train_steps=64,
    stream_scenes=2048,
    top_k=100,
    policy_scenes=12,
    episode_steps=10,
    obs_dim=1024,
    state_dim=64,
)

TINY = Size(
    name="tiny",
    extent=(96, 64),
    setup_reps=2,
    desk_channels=(2, 3, 4),
    full_channels=(4, 6, 8),
    train_scenes=2,
    train_steps=5,
    warmup_steps=3,
    infer_train_scenes=2,
    infer_train_steps=4,
    stream_scenes=64,
    top_k=5,
    policy_scenes=2,
    episode_steps=3,
    obs_dim=8,
    state_dim=4,
)


def pyramid_config(channels) -> featpyr.PyramidConfig:
    return featpyr.PyramidConfig(
        layers=tuple(
            featpyr.LayerSpec(layer_id, stride, c)
            for (layer_id, stride), c in zip(LAYER_STRIDES, channels)
        )
    )


def gen_config(size: Size, scenes: int) -> scenegen.GenConfig:
    return scenegen.GenConfig(scenes=scenes, extent=size.extent)


def _box_array(boxes) -> np.ndarray:
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


# ---------------------------------------------------------------------------
# train-desk


class _StepLog:
    """The ``log=`` hook of ``train_proposal_model``: ends one operation per step."""

    def __init__(self, clock):
        self.clock = clock
        self.losses: list[float] = []

    def append(self, item):
        self.clock.tick()
        self.losses.append(float(item[1]))


class TrainDesk:
    """Proposal training at desk channels on a fixed seeded scene set.

    One unit is a whole training call of ``train_steps`` steps over
    ``train_scenes`` scenes, so most steps revisit a scene already
    rendered in the call and run hard-negative bootstrapping. Every
    call is identical, so every unit must give the same outputs.
    """

    name = "train-desk"
    op_name = "training step"
    throughput_unit = "steps/s"

    def setup(self, seed: int, size: Size):
        scenes = scenegen.sample_dataset(gen_config(size, size.train_scenes), seed)
        cfg = proposal.ProposalTrainConfig(
            pyramid=pyramid_config(size.desk_channels), steps=size.train_steps, seed=seed
        )
        proposal.train_proposal_model(scenes, replace(cfg, steps=size.warmup_steps))
        return {"scenes": scenes, "cfg": cfg, "units": None, "work_per_op": 1}

    def unit(self, state, index, clock):
        log = _StepLog(clock)
        model = proposal.train_proposal_model(state["scenes"], state["cfg"], log=log)
        return log.losses, model

    def summarize(self, state, index, raw):
        losses, model = raw
        return {
            "losses": np.array(losses),
            "params": {k: v.copy() for k, v in sorted(model.params.items())},
        }

    def same(self, a, b) -> bool:
        return np.array_equal(a["losses"], b["losses"]) and all(
            np.array_equal(a["params"][k], b["params"][k]) for k in a["params"]
        )

    def invariants(self, state, outputs) -> list[str]:
        problems = []
        steps = state["cfg"].steps
        for index, out in outputs.items():
            if len(out["losses"]) != steps:
                problems.append(f"unit {index}: {len(out['losses'])} losses for {steps} steps")
            if not np.all(np.isfinite(out["losses"])):
                problems.append(f"unit {index}: non-finite loss")
            if not all(np.all(np.isfinite(p)) for p in out["params"].values()):
                problems.append(f"unit {index}: non-finite parameter")
        # Every training call repeats the same arithmetic.
        problems += checks.all_same(self, outputs)
        return problems

    def quality(self, state, outputs) -> dict:
        return {}

    def compare(self, ref, run) -> checks.Comparison:
        cmp = checks.Comparison()
        out = cmp.unit_output(run, 0, "training call 0")
        if out is None:
            return cmp
        cmp.floats("losses", out["losses"], ref["losses"])
        if sorted(out["params"]) != sorted(ref["params"]):
            cmp.fail("parameter names differ")
            return cmp
        for name, want in ref["params"].items():
            got = checks.array_summary(out["params"][name])
            cmp.floats(f"params/{name}", checks.summary_values(got), checks.summary_values(want))
            cmp.digest(got["sha256"], want["sha256"])
        return cmp


# ---------------------------------------------------------------------------
# infer-full


class InferFull:
    """Proposal inference at full-size channels over unseen scenes.

    Each scene is seen once: rasterize, build the pyramid, score every
    anchor, keep the top k. The model is trained during set-up on a
    fixed scene set with a fixed seed, so only the scenes vary with the
    workload seed.
    """

    name = "infer-full"
    op_name = "scene"
    throughput_unit = "scenes/s"

    def setup(self, seed: int, size: Size):
        pyr_cfg = pyramid_config(size.full_channels)
        train_set = scenegen.sample_dataset(
            gen_config(size, size.infer_train_scenes), INFER_TRAIN_SEED, id_prefix="train"
        )
        cfg = proposal.ProposalTrainConfig(
            pyramid=pyr_cfg, steps=size.infer_train_steps, seed=0
        )
        model = proposal.train_proposal_model(train_set, cfg)
        anchor_list = anchors.generate_anchors(pyr_cfg, size.extent, cfg.loss.base_heights())
        stream = scenegen.sample_dataset(gen_config(size, size.stream_scenes), seed, id_prefix="eval")
        state = {
            "pyr_cfg": pyr_cfg,
            "model": model,
            "anchors": anchor_list,
            "stream": stream,
            "k": size.top_k,
            "extent": size.extent,
            "units": len(stream),
            "work_per_op": 1,
        }
        (warm,) = scenegen.sample_dataset(gen_config(size, 1), seed + WARM_UP * SEED_SPAN)
        self._infer(state, warm)
        return state

    @staticmethod
    def _infer(state, scene):
        image = scenegen.rasterize(scene)
        pyramid = featpyr.build_pyramid(image, state["pyr_cfg"])
        scored = proposal.score_proposals(state["model"], pyramid, state["anchors"])
        return proposal.top_k(scored, state["k"])

    def unit(self, state, index, clock):
        top = self._infer(state, state["stream"][index])
        clock.tick()
        return top

    def summarize(self, state, index, raw):
        boxes = _box_array(s.box for s in raw)
        gt = _box_array(state["stream"][index].gt_boxes)
        best = geometry.iou_matrix(gt, boxes).max(axis=1) if len(boxes) else np.zeros(len(gt))
        return {
            "boxes": boxes,
            "scores": np.array([s.score for s in raw]),
            "layers": np.array([s.layer_id for s in raw], dtype=np.int64),
            "covered": int((best >= 0.5).sum()),
            "gt": len(gt),
        }

    def same(self, a, b) -> bool:
        return all(np.array_equal(a[k], b[k]) for k in ("boxes", "scores", "layers"))

    def invariants(self, state, outputs) -> list[str]:
        problems = []
        extent = state["extent"]
        for index, out in outputs.items():
            where = f"scene {index}"
            want = min(state["k"], len(state["anchors"]))
            if len(out["scores"]) != want:
                problems.append(f"{where}: {len(out['scores'])} proposals, expected {want}")
            problems += checks.boxes_inside(where, out["boxes"], extent)
            scores = out["scores"]
            if not (np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))):
                problems.append(f"{where}: score outside [0, 1]")
            if np.any(np.diff(scores) > 0):
                problems.append(f"{where}: top-k not sorted by score")
        return problems

    def quality(self, state, outputs) -> dict:
        gt = sum(o["gt"] for o in outputs.values())
        covered = sum(o["covered"] for o in outputs.values())
        return {"recall_iou50": covered / gt if gt else 0.0, "recall_gt": gt}

    def compare(self, ref, run) -> checks.Comparison:
        cmp = checks.Comparison()
        for key, want in ref.items():
            got = cmp.unit_output(run, int(key), f"scene {key}")
            if got is None:
                continue
            cmp.ints(f"scene {key} layers", got["layers"], want["layers"])
            cmp.ints(f"scene {key} covered", [got["covered"]], [want["covered"]])
            cmp.floats(f"scene {key} boxes", got["boxes"], want["boxes"])
            cmp.floats(f"scene {key} scores", got["scores"], want["scores"])
        return cmp


# ---------------------------------------------------------------------------
# policy-full


class PolicyFull:
    """Fixed-length episodes of the gated policy at full-size feature
    dimensions.

    Set-up builds the pyramids, so scene generation, pyramid building
    and proposal scoring are bypassed. Each episode starts from a
    ground-truth box jittered by the seed, on the layer whose mean
    height is nearest the box height, and ends with ``episode_backward``.

    An episode's cost grows with its layer's channel count, so episodes
    draw their ground truth from the layers in the fixed proportions of
    ``LAYER_SCHEDULE`` rather than from the few scenes' own mix, which
    would make the cost of a run depend on its seed.
    """

    # Layers in 10:4:1, the share of scenegen's heights nearest each
    # layer's mean height (67% / 26% / 7%), interleaved so that the
    # first episodes already cover every layer.
    LAYER_SCHEDULE = (3, 3, 4, 3, 3, 5, 3, 4, 3, 3, 4, 3, 3, 4, 3)

    name = "policy-full"
    op_name = "episode"
    throughput_unit = "steps/s"

    def setup(self, seed: int, size: Size):
        pyr_cfg = pyramid_config(size.full_channels)
        scenes = scenegen.sample_dataset(gen_config(size, size.policy_scenes), seed)
        pyramids = [featpyr.build_pyramid(scenegen.rasterize(s), pyr_cfg) for s in scenes]
        cfg = policy.PolicyConfig(
            feature_dims=pyr_cfg.flat_dims(), obs_dim=size.obs_dim, state_dim=size.state_dim
        )
        layer_cfg = proposal.LayerWeightConfig()
        layer_ids = np.array(layer_cfg.layer_ids)
        log_heights = np.log(layer_cfg.mean_heights)

        def layer_of(box):
            return int(layer_ids[np.argmin(np.abs(np.log(box.h) - log_heights))])

        by_layer = {layer_id: [] for layer_id in layer_cfg.layer_ids}
        for which, scene in enumerate(scenes):
            for gt in scene.gt_boxes:
                by_layer[layer_of(gt)].append((which, gt))
        state = {
            "seed": seed,
            "pyramids": pyramids,
            "params": policy.init_params(seed, cfg),
            "layer_of": layer_of,
            "by_layer": by_layer,
            "steps": size.episode_steps,
            "extent": size.extent,
            "step_cfg": geometry.StepConfig(),
            "units": None,
            "work_per_op": size.episode_steps,
        }
        self.unit(state, -1, Clock())
        return state

    def unit(self, state, index, clock):
        rng = np.random.default_rng([state["seed"], index + 1])
        want = self.LAYER_SCHEDULE[index % len(self.LAYER_SCHEDULE)]
        # A layer no ground truth falls on borrows from the nearest one.
        nearest = sorted((l for l, c in state["by_layer"].items() if c), key=lambda l: abs(l - want))
        candidates = state["by_layer"][nearest[0]]
        which, gt = candidates[int(rng.integers(len(candidates)))]
        dx, dy, dw, dh = rng.normal(0.0, 0.1, size=4)
        box = geometry.clip(
            geometry.BBox(gt.x + dx * gt.w, gt.y + dy * gt.h, gt.w * math.exp(dw), gt.h * math.exp(dh)),
            state["extent"],
        )
        layer_id = state["layer_of"](box)
        params = state["params"]
        pyramid = state["pyramids"][which]
        s = policy.PolicyState.initial(params.cfg)
        steps = []
        for _ in range(state["steps"]):
            features = featpyr.roi_pool(pyramid, layer_id, box).reshape(-1)
            o = policy.observe(params, layer_id, features)
            s = policy.recur(params, o, s)
            dist = policy.action_distribution(params, s)
            action = policy.sample_action(dist, rng)
            if action < len(geometry.TRANSFORM_ACTIONS):
                box = geometry.apply_transform(
                    box, geometry.TRANSFORM_ACTIONS[action], state["step_cfg"]
                )
            box = geometry.clip(box, state["extent"])
            steps.append(trajectory.TrajStep(layer_id, box, action, policy.log_prob(dist, action), features))
        episode = trajectory.Trajectory(steps=tuple(steps), reward=geometry.iou(box, gt))
        grads = policy.episode_backward(params, episode.steps)
        clock.tick()
        return episode, grads

    def summarize(self, state, index, raw):
        episode, grads = raw
        return {
            "actions": np.array([s.action for s in episode.steps], dtype=np.int64),
            "final_box": np.array(episode.final_box.as_tuple()),
            "iou": episode.reward,
            "grad_sums": {k: float(g.sum()) for k, g in sorted(grads.items())},
        }

    def same(self, a, b) -> bool:
        return (
            np.array_equal(a["actions"], b["actions"])
            and np.array_equal(a["final_box"], b["final_box"])
            and a["iou"] == b["iou"]
            and a["grad_sums"] == b["grad_sums"]
        )

    def invariants(self, state, outputs) -> list[str]:
        problems = []
        for index, out in outputs.items():
            where = f"episode {index}"
            if np.any((out["actions"] < 0) | (out["actions"] >= policy.N_ACTIONS)):
                problems.append(f"{where}: action out of range")
            problems += checks.boxes_inside(where, out["final_box"][None, :], state["extent"])
            if not all(math.isfinite(v) for v in out["grad_sums"].values()):
                problems.append(f"{where}: non-finite gradient")
            if not 0.0 <= out["iou"] <= 1.0:
                problems.append(f"{where}: IoU {out['iou']} outside [0, 1]")
        return problems

    def quality(self, state, outputs) -> dict:
        return {}

    def compare(self, ref, run) -> checks.Comparison:
        cmp = checks.Comparison()
        for key, want in ref.items():
            got = cmp.unit_output(run, int(key), f"episode {key}")
            if got is None:
                continue
            cmp.ints(f"episode {key} actions", got["actions"], want["actions"])
            cmp.floats(f"episode {key} final box", got["final_box"], want["final_box"])
            cmp.floats(f"episode {key} iou", [got["iou"]], [want["iou"]])
            names = sorted(want["grad_sums"])
            if sorted(got["grad_sums"]) != names:
                cmp.fail(f"episode {key}: gradient names differ")
                continue
            cmp.floats(
                f"episode {key} grad sums",
                [got["grad_sums"][n] for n in names],
                [want["grad_sums"][n] for n in names],
            )
        return cmp


WORKLOADS = {w.name: w for w in (TrainDesk, InferFull, PolicyFull)}


# ---------------------------------------------------------------------------
# The closed loop


class Clock:
    """Operation timer: ``tick`` ends one operation, ``fail`` one failed one."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []
        self.failed = 0
        self.failed_s = 0.0
        self.last = perf_counter()

    def start(self):
        self.last = perf_counter()

    def _advance(self) -> float:
        now = perf_counter()
        elapsed, self.last = now - self.last, now
        if self.tracer is not None:
            self.tracer.op += 1
        return elapsed

    def tick(self):
        self.times.append(self._advance())

    def fail(self):
        self.failed += 1
        self.failed_s += self._advance()


@dataclass
class Pass:
    """One measured pass: operation times, failures and unit outputs."""

    times: list[float]
    failed: int
    failed_s: float
    outputs: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    units: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times) + self.failed

    def throughput(self, work_per_op) -> float:
        busy = sum(self.times) + self.failed_s
        return len(self.times) * work_per_op / busy if busy > 0 else 0.0


MAX_ERRORS_KEPT = 10


def measure(workload, state, seconds: float, tracer=None) -> Pass:
    """Run units back to back until ``seconds`` have passed (at least one
    unit). An exception inside a unit counts as one failed operation and
    the loop goes on."""
    clock = Clock(tracer)
    result = Pass(times=clock.times, failed=0, failed_s=0.0)
    limit = state["units"]
    start = perf_counter()
    index = 0
    while (index == 0 or perf_counter() - start < seconds) and (limit is None or index < limit):
        if tracer is not None:
            tracer.rendered.clear()
        with tracer.span(ROOT) if tracer is not None else nullcontext():
            clock.start()
            try:
                raw = workload.unit(state, index, clock)
            except Exception as exc:  # a failed operation must not end the run
                clock.fail()
                raw = None
                if len(result.errors) < MAX_ERRORS_KEPT:
                    result.errors.append(f"unit {index}: {type(exc).__name__}: {exc}")
        if raw is not None:
            result.outputs[index] = workload.summarize(state, index, raw)
            del raw
        index += 1
    result.failed, result.failed_s = clock.failed, clock.failed_s
    result.units = index
    return result


def timed_setups(workload, seed: int, size: Size):
    """Set up ``size.setup_reps`` times; returns the last state and the times."""
    times = []
    state = None
    for _ in range(size.setup_reps):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(seed, size)
        times.append(perf_counter() - t0)
    gc.collect()
    return state, times
