"""One benchmark run: set up, measure, check outputs, report metrics.

An untraced run (``trace=False``) measures the end-to-end metrics. A
traced run measures the same workload twice from the same inputs, first
untraced and then with every layer's public names rebound to span
recorders, each for half the time; it reports the per-layer metrics and
the tracing overhead, and checks that both halves gave identical
outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import FULL, WORKLOADS, measure, timed_setups

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# metric name -> unit; throughput counts training steps, scenes or policy steps
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MiB",
    "success_frac": "frac",
}


def latency(times: list[float]) -> dict:
    """Median and the highest percentile with ``TAIL_BEYOND`` samples
    beyond it. With too few samples that percentile would lie below the
    median, and the maximum is reported instead."""
    n = len(times)
    if n == 0:
        return {"samples": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": None}
    ordered = sorted(times)
    rank = n - TAIL_BEYOND - 1
    if 2 * rank < n - 1:
        rank = n - 1
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / n,
        "samples_beyond_tail": n - rank - 1,
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return f"{size // 1024}K"
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def _revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pinning": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_revision": _revision(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _check(workload, state, passes, seed, size) -> dict:
    problems = []
    for p in passes:
        problems += workload.invariants(state, p.outputs)
    if len(passes) == 2:
        base, traced = passes
        common = sorted(set(base.outputs) & set(traced.outputs))
        problems += [
            f"unit {i}: traced output differs from untraced"
            for i in common
            if not workload.same(base.outputs[i], traced.outputs[i])
        ]
    report = {"reference": "not applicable (only the default seed at full size)"}
    if seed == checks.DEFAULT_SEED and size == FULL:
        ref = checks.load_reference(workload.name)
        if ref is None:
            problems.append("no reference values recorded")
        else:
            cmp = workload.compare(ref["data"], passes[0])
            problems += cmp.problems
            report = {
                "reference": "mismatch" if cmp.problems else "match",
                "compared": cmp.compared,
                "bit_exact": cmp.bit_exact,
                "not_reached": cmp.skipped,
                "tolerance": {"rtol": checks.RTOL, "atol": checks.ATOL},
            }
    report["problems"] = problems
    return report


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size=FULL,
    import_s: float = 0.0,
    out_dir: Path | None = None,
):
    """Run one workload; returns (result, record). ``result`` is the
    benchmark's result object, ``record`` everything else worth keeping."""
    workload = WORKLOADS[name]()
    state, setup_times = timed_setups(workload, seed, size)
    tracer = None
    if trace:
        passes = [measure(workload, state, seconds / 2)]
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            passes.append(measure(workload, state, seconds / 2, tracer))
    else:
        passes = [measure(workload, state, seconds)]
    report = _check(workload, state, passes, seed, size)

    base = passes[0]
    work = state["work_per_op"]
    lat = latency(base.times)
    if trace:
        spans = tracer.spans()
        metrics = tracing.layer_metrics(spans, tracer.counts, passes[1].attempted)
        untraced_rate = base.throughput(work)
        metrics["bench.trace_overhead_frac"] = (
            1.0 - passes[1].throughput(work) / untraced_rate if untraced_rate else 0.0
        )
        units = tracing.PER_LAYER_METRICS
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput": base.throughput(work),
            "op_ms_p50": lat["p50_ms"],
            "op_ms_tail": lat["tail_ms"],
            "peak_rss_mb": peak_rss_mib(),
            "success_frac": len(base.times) / base.attempted,
        }
        units = END_TO_END
    result = {
        "correct": not report["problems"],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size.name,
        "environment": environment(seed),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "operation": workload.op_name,
        "throughput_unit": workload.throughput_unit,
        "latency": lat,
        "quality": workload.quality(state, base.outputs),
        "errors": [e for p in passes for e in p.errors],
        "checks": report,
        "result": result,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        if trace:
            tracing.write_spans(out_dir / f"{stem}-spans.jsonl", spans)
    return result, record
