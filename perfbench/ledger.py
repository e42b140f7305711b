"""Arithmetic of the benchmark: percentiles, the per-layer ledger, metadata.

Everything here is pure computation over numbers the workloads collect
(operation wall times, the :class:`~repro.core.engine.EngineMetrics` /
:class:`~repro.core.kernel.KernelTimings` the program returns, telemetry
counters and probe spans), so it is tested without running a workload.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: A metric name as the benchmark contract allows it.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: A unit as the benchmark contract allows it.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: End-to-end metrics of every untraced run: (name, unit).
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of every traced run: (name, unit).  Values are
#: means per timed operation of the traced phase; a layer that does not
#: run on a workload reports 0.
PER_LAYER = (
    ("ledger.op_s", "s/op"),
    ("lookup_space.builds", "count/op"),
    ("lookup_space.build_s", "s/op"),
    ("engine.setup_s", "s/op"),
    ("engine.job_s", "s/op"),
    ("engine.jobs_deduped", "count/op"),
    ("engine.retries", "count/op"),
    ("engine.unattributed_s", "s/op"),
    ("kernel.cells", "count/op"),
    ("kernel.decide_s", "s/op"),
    ("kernel.evaluate_s", "s/op"),
    ("kernel.reduce_s", "s/op"),
    ("kernel.fold_s", "s/op"),
    ("kernel.unique_decisions", "count/op"),
    ("kernel.decision_hit_rate", "ratio"),
    ("kernel.evaluate_bytes", "B/op"),
    ("shard.count", "count/op"),
    ("shard.prime_s", "s/op"),
    ("shard.run_s", "s/op"),
    ("shard.merge_s", "s/op"),
    ("shard.worker_busy_ratio", "ratio"),
    ("cache.hits", "count/op"),
    ("cache.misses", "count/op"),
    ("cache.served_ratio", "ratio"),
    ("cache.load_s", "s/op"),
    ("cache.store_s", "s/op"),
    ("cache.bytes_written", "B/op"),
    ("checkpoint.saves", "count/op"),
    ("checkpoint.open_s", "s/op"),
    ("checkpoint.save_s", "s/op"),
    ("checkpoint.bytes_written", "B/op"),
    ("obs.trace_overhead", "ratio"),
    ("obs.untraced_op_p50_ms", "ms"),
)

#: How ``engine.unattributed_s`` is formed on each workload.  Request
#: jobs run serially in-process, so the program's own split of the call
#: closes the ledger.  Sweep and fleet run layers concurrently on two
#: workers, so their residual is the part of the operation's wall time
#: that no probed span covers (the union of spans, parallel spans
#: counted once): dispatch, pickling, result return and idle waits.
RESIDUAL_FORMULA = {
    "request": "op_s - engine.setup_s - (kernel.decide_s + kernel.evaluate_s"
               " + kernel.reduce_s + kernel.fold_s)",
    "sweep": "op_s - |union(engine.simulate spans in workers,"
             " checkpoint.open/save spans)|",
    "fleet": "op_s - |union(shard.prime, shard.run, shard.merge,"
             " shard.merge_final spans)|",
}

#: Span names whose union forms the covered time of each pooled workload.
COVERING_SPANS = {
    "sweep": ("engine.simulate", "checkpoint.open", "checkpoint.save"),
    "fleet": ("shard.prime", "shard.run", "shard.merge",
              "shard.merge_final"),
}

#: Computed bytes per plane cell of the evaluate phase: one float64 read
#: of the utilisation plane and three float64 output planes (CPU
#: temperature, CPU power, TEG power).  From array sizes, not measured.
EVALUATE_BYTES_PER_CELL = 4 * 8

#: The phases of :class:`~repro.core.kernel.KernelTimings`.
KERNEL_PHASES = ("decide_s", "evaluate_s", "reduce_s", "fold_s")

#: The percentile ladder :func:`tail_percentile` climbs.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation, as NumPy's default)."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def samples_beyond(samples, q: float) -> int:
    """How many samples are strictly greater than the ``q``-th percentile."""
    cut = percentile(samples, q)
    return int(sum(1 for value in samples if value > cut))


def tail_percentile(samples) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for q in PERCENTILE_LADDER:
        if len(samples) and samples_beyond(samples, q) >= MIN_BEYOND:
            best = q
    return best


def median_rel_error(samples) -> float | None:
    """Standard error of the median as a share of it; ``None`` if < 4.

    Uses the large-sample rule ``1.253 sigma / sqrt(n)`` with sigma
    estimated robustly as IQR / 1.349.
    """
    if len(samples) < 4:
        return None
    q1, median, q3 = (percentile(samples, q) for q in (25.0, 50.0, 75.0))
    return 1.253 * (q3 - q1) / 1.349 / len(samples) ** 0.5 / median


def trace_overhead(untraced, traced) -> dict:
    """Traced over untraced median op time, minus 1, with its resolution.

    ``resolution`` is twice the combined relative standard error of the
    two medians; an overhead no larger than it is ``resolved: False`` —
    the phases cannot tell it from noise.
    """
    ratio = percentile(traced, 50.0) / percentile(untraced, 50.0) - 1.0
    errors = [median_rel_error(untraced), median_rel_error(traced)]
    resolution = (None if None in errors
                  else 2.0 * (errors[0] ** 2 + errors[1] ** 2) ** 0.5)
    return {"ratio": ratio, "resolution": resolution,
            "resolved": resolution is not None and abs(ratio) > resolution,
            "untraced_samples": len(untraced),
            "traced_samples": len(traced)}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(t0, t1)`` intervals within ``[lo, hi]``."""
    total = 0.0
    end = lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


@dataclass
class OpRecord:
    """One timed operation: its window and what the program returned."""

    t0: float
    t1: float
    cells: int
    #: Results this operation computed (cache hits and duplicates excluded).
    computed: list = field(default_factory=list)
    deduped: int = 0
    retries: int = 0
    #: Telemetry counter totals of the operation (traced operations only).
    counters: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    #: Whether probes and telemetry were on (``--trace 1`` only).
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def layer_metrics(workload: str, ops: list[OpRecord], spans: list[dict],
                  workers: int) -> dict[str, float]:
    """Per-layer metrics, as means per operation, of one traced phase."""
    n_ops = len(ops)
    spans = [span for span in spans
             if any(op.t0 <= span["t0"] and span["t1"] <= op.t1
                    for op in ops)]

    def span_s(name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)

    def span_n(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    computed = [result for op in ops for result in op.computed]
    kernels = [r.metrics.kernel for r in computed
               if r.metrics.kernel is not None]
    phase = {name: sum(getattr(k, name) for k in kernels)
             for name in KERNEL_PHASES}
    kernel_cells = sum(r.n_servers * len(r.records) for r in computed)
    hits = sum(r.metrics.cache_hits for r in computed)
    lookups = hits + sum(r.metrics.cache_misses for r in computed)
    loads = [s for s in spans if s["name"] == "cache.load"]
    cache_hits = sum(1 for s in loads if s["hit"])
    op_s = sum(op.wall_s for op in ops)
    raw = {
        "ledger.op_s": op_s,
        "lookup_space.builds": span_n("lookup_space.build"),
        "lookup_space.build_s": span_s("lookup_space.build"),
        "engine.setup_s": sum(r.metrics.setup_time_s for r in computed),
        "engine.job_s": sum(r.metrics.wall_time_s for r in computed),
        "engine.jobs_deduped": sum(op.deduped for op in ops),
        "engine.retries": sum(op.retries for op in ops),
        "kernel.cells": kernel_cells,
        **{f"kernel.{name}": value for name, value in phase.items()},
        "kernel.unique_decisions": sum(
            op.counters.get("engine.kernel.unique_decisions", 0.0)
            for op in ops),
        "kernel.evaluate_bytes": kernel_cells * EVALUATE_BYTES_PER_CELL,
        "shard.count": sum(r.metrics.n_shards for r in computed),
        "shard.prime_s": span_s("shard.prime"),
        "shard.run_s": span_s("shard.run"),
        "shard.merge_s": span_s("shard.merge") + span_s("shard.merge_final"),
        "cache.hits": cache_hits,
        "cache.misses": len(loads) - cache_hits,
        "cache.load_s": span_s("cache.load"),
        "cache.store_s": span_s("cache.store"),
        "cache.bytes_written": sum(s.get("bytes", 0) for s in spans
                                   if s["name"] == "cache.store"),
        "checkpoint.saves": span_n("checkpoint.save"),
        "checkpoint.open_s": span_s("checkpoint.open"),
        "checkpoint.save_s": span_s("checkpoint.save"),
        "checkpoint.bytes_written": sum(op.checkpoint_bytes for op in ops),
    }
    metrics = {name: value / n_ops for name, value in raw.items()}
    metrics["kernel.decision_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["cache.served_ratio"] = (cache_hits / len(loads)
                                     if loads else 0.0)
    metrics["shard.worker_busy_ratio"] = (
        (phase["decide_s"] + phase["evaluate_s"] + phase["reduce_s"])
        / (op_s * workers) if metrics["shard.count"] else 0.0)
    metrics["engine.unattributed_s"] = unattributed(workload, metrics, ops,
                                                    spans)
    return metrics


def unattributed(workload: str, metrics: dict, ops: list[OpRecord],
                 spans: list[dict]) -> float:
    """Mean residual per operation by :data:`RESIDUAL_FORMULA`."""
    if workload == "request":
        return (metrics["ledger.op_s"] - metrics["engine.setup_s"]
                - sum(metrics[f"kernel.{name}"] for name in KERNEL_PHASES))
    names = COVERING_SPANS[workload]
    intervals = [(s["t0"], s["t1"]) for s in spans if s["name"] in names]
    residual = sum(op.wall_s - covered(intervals, op.t0, op.t1)
                   for op in ops)
    return residual / len(ops)


def layer_shares(workload: str, metrics: dict,
                 workers: int) -> dict[str, float]:
    """Each layer's self time as a share of the mean operation wall time."""
    op_s = metrics["ledger.op_s"]
    if workload == "request":
        parts = {
            "lookup_space.build": metrics["lookup_space.build_s"],
            "engine.setup (excl. lookup_space)":
                metrics["engine.setup_s"] - metrics["lookup_space.build_s"],
            **{f"kernel.{name[:-2]}": metrics[f"kernel.{name}"]
               for name in KERNEL_PHASES},
        }
    elif workload == "sweep":
        # Worker-side layers run on all workers at once: their busy time
        # is divided by the worker count to place it on the op's clock.
        parts = {
            "engine.job (workers)": metrics["engine.job_s"] / workers,
            "cache.load (workers)": metrics["cache.load_s"] / workers,
            "cache.store (workers)": metrics["cache.store_s"] / workers,
            "checkpoint.open": metrics["checkpoint.open_s"],
            "checkpoint.save": metrics["checkpoint.save_s"],
        }
    else:
        parts = {
            "shard.prime": metrics["shard.prime_s"],
            "shard.run (workers)": metrics["shard.run_s"] / workers,
            "shard.merge": metrics["shard.merge_s"],
        }
    parts["unattributed"] = metrics["engine.unattributed_s"]
    return {name: value / op_s for name, value in parts.items()}


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, a fingerprint that needs no git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def fingerprint(root: Path, seed: int) -> dict:
    """Machine and build identity every report carries."""
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
