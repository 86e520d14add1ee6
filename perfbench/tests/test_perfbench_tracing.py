import pytest

import tracing
from tracing import ROOT, Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_children():
    spans = [
        Span(0, ROOT, 0.0, 10.0, -1, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 2.0, 3.0, 1, 0),
        Span(3, "c", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        Span(0, "p", 0.0, 10.0, -1, 0),
        Span(1, "x", 2.0, 6.0, 0, 0),
        Span(2, "y", 4.0, 8.0, 0, 0),  # overlaps x on [4, 6]
        Span(3, "z", 9.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_per_operation():
    spans = [
        Span(0, ROOT, 0.0, 0.010, -1, 0),
        Span(1, "scenegen.rasterize", 0.001, 0.004, 0, 0),
        Span(2, ROOT, 0.010, 0.030, -1, 1),
        Span(3, "scenegen.rasterize", 0.011, 0.015, 2, 1),
        Span(4, "featpyr.build_pyramid", 0.015, 0.029, 2, 1),
    ]
    counts = {"scenegen.rasterize.repeats": 1, "featpyr.build_pyramid.out_bytes": 800}
    m = layer_metrics(spans, counts, n_ops=2)
    assert m["scenegen.rasterize.calls"] == 1.0
    assert m["scenegen.rasterize.self_ms"] == pytest.approx(3.5)
    assert m["scenegen.rasterize.repeat_frac"] == 0.5
    assert m["featpyr.build_pyramid.self_ms"] == pytest.approx(7.0)
    assert m["featpyr.build_pyramid.out_bytes"] == 400.0
    assert m["policy.recur.self_ms"] == 0.0
    # 30 ms of root time, of which 21 ms are covered by layer spans.
    assert m["bench.gap_ms"] == pytest.approx(4.5)
    assert m["bench.gap_frac"] == pytest.approx(9.0 / 30.0)


def test_traced_rebinds_and_restores_public_names():
    from scaleloc import featpyr, proposal, scenegen

    before = (scenegen.rasterize, proposal.rasterize, proposal.ProposalModel.forward)
    tracer = Tracer()
    with tracing.traced(tracer):
        assert scenegen.rasterize is proposal.rasterize
        assert scenegen.rasterize is not before[0]
        with tracer.span(ROOT):
            scenes = scenegen.sample_dataset(scenegen.GenConfig(scenes=1, extent=(32, 32), min_height=8, height_median=12), 0)
            scenegen.rasterize(scenes[0])
            scenegen.rasterize(scenes[0])
    assert (scenegen.rasterize, proposal.rasterize, proposal.ProposalModel.forward) == before
    names = [s.name for s in tracer.spans()]
    assert names == [ROOT, "scenegen.rasterize", "scenegen.rasterize"]
    assert [s.parent for s in tracer.spans()] == [-1, 0, 0]
    assert tracer.counts["scenegen.rasterize.repeats"] == 1
    assert featpyr.build_pyramid.__name__ == "build_pyramid"
