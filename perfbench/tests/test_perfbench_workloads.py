import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import runner
import tracing
import workloads
from workloads import TINY, WORKLOADS, measure, timed_setups

NAMES = sorted(WORKLOADS)

# Layers each workload must reach through the rebound names.
CALLED = {
    "train-desk": [
        "scenegen.rasterize", "featpyr.build_pyramid", "featpyr.roi_pool_many",
        "anchors.generate_anchors", "anchors.label_arrays", "anchors.sample_minibatch_indices",
        "proposal.proposal_loss_and_grad", "proposal.ProposalModel.forward",
    ],
    "infer-full": [
        "scenegen.rasterize", "featpyr.build_pyramid", "featpyr.roi_pool_many",
        "proposal.ProposalModel.forward",
    ],
    "policy-full": ["featpyr.roi_pool", "featpyr.roi_pool_many", "policy.observe", "policy.episode_backward"],
}


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, record = runner.run(name, seed=3, seconds=0.05, trace=False, size=TINY)
    assert result["correct"], record["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == runner.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["environment"]["seed"] == 3


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result, record = runner.run(name, seed=3, seconds=0.1, trace=True, size=TINY)
    assert result["correct"], record["checks"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == tracing.PER_LAYER_METRICS
    for layer in CALLED[name]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name):
    workload = WORKLOADS[name]()
    state, _ = timed_setups(workload, 4, TINY)
    plain = measure(workload, state, 0.05)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = measure(workload, state, 0.05, tracer)
    common = set(plain.outputs) & set(traced.outputs)
    assert common
    for i in common:
        assert workload.same(plain.outputs[i], traced.outputs[i])


def test_failed_operation_is_counted_and_the_run_goes_on(monkeypatch):
    from scaleloc import proposal

    real = proposal.score_proposals
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise OverflowError("math range error")
        return real(*args, **kwargs)

    monkeypatch.setattr(proposal, "score_proposals", flaky)
    workload = WORKLOADS["infer-full"]()
    state = workload.setup(5, TINY)
    calls.clear()
    result = measure(workload, state, 0.05)
    assert result.failed >= 1
    assert len(result.times) >= 1
    assert "OverflowError" in result.errors[0]
    assert set(result.outputs) == set(range(0, result.attempted, 2))


@pytest.mark.parametrize(
    "n, tail_ms, beyond",
    [
        (100, 90.0, 10),
        (21, 11.0, 10),
        # Ten samples beyond the tail would put it below the median: the maximum.
        (20, 20.0, 0),
        (11, 11.0, 0),
        (5, 5.0, 0),
        (1, 1.0, 0),
    ],
)
def test_latency_tail_has_ten_samples_beyond_it(n, tail_ms, beyond):
    lat = runner.latency([i / 1000 for i in range(n, 0, -1)])
    assert lat["tail_ms"] == pytest.approx(tail_ms)
    assert lat["samples_beyond_tail"] == beyond
    assert lat["tail_percentile"] == pytest.approx(100.0 * tail_ms / n)


def test_train_desk_reference_check_uses_the_param_hashes():
    import checks
    from workloads import Pass

    params = {"w": np.array([1.0, 2.0, 3.0])}
    run = Pass(times=[0.1], failed=0, failed_s=0.0, units=1,
               outputs={0: {"losses": np.array([0.5]), "params": params}})
    workload = WORKLOADS["train-desk"]()
    ref = {"losses": [0.5], "params": {"w": checks.array_summary(params["w"])}}
    exact = workload.compare(ref, run)
    assert exact.bit_exact and not exact.problems
    ref["params"]["w"]["sha256"] = "0" * 64  # same summary, other bits
    inexact = workload.compare(ref, run)
    assert not inexact.bit_exact and not inexact.problems
    ref["params"]["w"]["sum"] += 1.0
    assert workload.compare(ref, run).problems


def test_invariant_checks_catch_bad_outputs():
    workload = WORKLOADS["infer-full"]()
    state = {"extent": (100, 50), "k": 2, "anchors": [0, 1, 2]}
    good = {"boxes": [[0, 0, 10, 10], [90, 40, 10, 10]], "scores": [0.9, 0.1]}
    unsorted = {"boxes": [[0, 0, 10, 10], [1, 1, 5, 5]], "scores": [0.1, 0.9]}
    outside = {"boxes": [[95, 0, 10, 10], [1, 1, 5, 5]], "scores": [0.9, 0.1]}

    def problems(out):
        return workload.invariants(state, {0: {k: np.array(v, dtype=float) for k, v in out.items()}})

    assert problems(good) == []
    assert "not sorted" in problems(unsorted)[0]
    assert "outside" in problems(outside)[0]


def test_command_fails_without_the_source_tree(tmp_path):
    bench = Path(workloads.__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_bytes((bench / "run.py").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(workloads.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_METRICS
