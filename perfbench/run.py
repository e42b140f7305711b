"""End-to-end benchmark of the H2P simulator: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload request --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced operations with traced ones — the
layer probes of ``probes.py`` recording and the program's telemetry on —
and reports the per-layer ledger of the traced operations plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full report (fingerprint, sample counts, ledger).  The
exit code is 0 only when every correctness check passed.  See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import ledger
from probes import SpanSink, install_probes

ROOT = Path(__file__).resolve().parent.parent
SHM_PATTERN = "/dev/shm/repro-shm-*"
#: Fresh interpreters timed per run; ``setup_s`` uses their median.
IMPORT_ROUNDS = 3
#: What a fresh interpreter imports before it can run any workload.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, scipy; "
                "import repro.core, repro.workloads.synthetic; "
                "print(time.perf_counter() - t)")


@dataclass
class Phase:
    """What one measured loop produced."""

    setup_rounds: list[float]
    ops: list = field(default_factory=list)
    #: Operations that raised (they leave no record).
    raised: int = 0
    #: Operations, warm-ups included, that raised or returned failed jobs.
    failed: int = 0

    @property
    def attempted(self) -> int:
        """Timed operations plus the warm-up of every set-up round."""
        return len(self.ops) + self.raised + len(self.setup_rounds)

    @property
    def walls(self) -> list[float]:
        return [op.wall_s for op in self.ops]


def run_phase(workload, seconds: float, setup_rounds: int,
              sink: SpanSink | None = None) -> Phase:
    """Set up ``setup_rounds`` times, then run the closed loop.

    Each set-up ends with a warm-up operation.  It is timed as set-up,
    not as an operation, but its results are checked and its failures
    counted like those of the timed operations.

    With a ``sink`` (probes installed on it) blocks of
    ``workload.trace_block`` operations alternate between untraced and
    traced: the sink records and the program's telemetry is on.  The
    blocks interleave, so both kinds see the same state of the host and
    the same inputs, and their ratio is the cost of tracing, not drift.
    """
    if sink is not None:
        sink.recording = False
    phase = Phase(setup_rounds=[])
    for index in range(setup_rounds):
        clock = time.perf_counter()
        _, keyed, failures = workload.start()
        phase.setup_rounds.append(time.perf_counter() - clock)
        workload.observe(keyed)
        phase.failed += bool(failures)
        if index < setup_rounds - 1:
            workload.stop()
    deadline = time.perf_counter() + seconds
    # A hard stop keeps a run inside its time limit even if the sample
    # rule cannot be met (every operation failing, say).
    hard_stop = deadline + 2 * seconds
    issued = 0
    try:
        while time.perf_counter() < hard_stop:
            # A traced run needs an operation of each kind.
            if (time.perf_counter() >= deadline
                    and not workload.need_more(phase.walls)
                    and (sink is None or issued > workload.trace_block)):
                break
            traced = (sink is not None
                      and issued // workload.trace_block % 2 == 1)
            issued += 1
            if sink is not None:
                workload.set_traced(traced)
                sink.recording = traced
            try:
                record, keyed, failures = workload.op()
            except Exception:  # the loop must outlive a failed operation
                traceback.print_exc(file=sys.stderr)
                phase.raised += 1
                phase.failed += 1
                continue
            record.traced = traced
            workload.observe(keyed)
            phase.failed += bool(failures)
            phase.ops.append(record)
    finally:
        if sink is not None:
            sink.recording = False
        workload.stop()
    return phase


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_seconds(rounds: int) -> list[float]:
    """Import time of the package in ``rounds`` fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(rounds):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The first shared-memory segment starts a tracker process that is
    made to outlive its parent; without this the benchmark would leave
    it running after it exits.  The tracker ends when every holder of
    its pipe has closed it, so call this only once the workers, which
    inherit the pipe, have been joined.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def end_to_end(phase: Phase) -> dict[str, float]:
    walls = phase.walls
    return {
        "cells_per_s": sum(op.cells for op in phase.ops) / sum(walls),
        "op_p50_ms": ledger.percentile(walls, 50.0) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("request", "sweep", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    # The program sees only the generated inputs: no REPRO_* knob from
    # the caller's environment may change what a run does.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    workdir = ROOT / f".perfbench-work-{os.getpid()}"
    shm_before = set(glob.glob(SHM_PATTERN))
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.FULL, workdir)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "workers": workload.workers}
    try:
        workload.prepare()
        if args.trace:
            sink = SpanSink(workdir / "spans")
            restore = install_probes(sink)
            try:
                phase = run_phase(workload, args.seconds, 1, sink)
            finally:
                restore()
            traced = [op for op in phase.ops if op.traced]
            base = [op.wall_s for op in phase.ops if not op.traced]
            metrics = ledger.layer_metrics(args.workload, traced,
                                           sink.read(), workload.workers)
            overhead = ledger.trace_overhead(
                base, [op.wall_s for op in traced])
            metrics["obs.untraced_op_p50_ms"] = (
                ledger.percentile(base, 50.0) * 1e3)
            metrics["obs.trace_overhead"] = overhead["ratio"]
            units = dict(ledger.PER_LAYER)
            report["ledger"] = {
                "trace_overhead": overhead,
                "residual_formula": ledger.RESIDUAL_FORMULA[args.workload],
                "shares": ledger.layer_shares(args.workload, metrics,
                                              workload.workers),
            }
        else:
            rounds = workloads.FULL.setup_rounds
            phase = run_phase(workload, args.seconds, rounds)
            metrics = end_to_end(phase)
            # Read before any other child runs: the import probes below
            # would otherwise count as the largest worker.
            metrics["peak_rss_mb"] = peak_rss_mb()
            imports = import_seconds(IMPORT_ROUNDS)
            metrics["setup_s"] = (statistics.median(imports)
                                  + statistics.median(phase.setup_rounds))
            units = dict(ledger.END_TO_END)
            report["import_s"] = imports
            report["setup_rounds_s"] = phase.setup_rounds
            report["op_p95_samples_beyond"] = ledger.samples_beyond(
                phase.walls, 95.0)
            report["op_tail_percentile"] = ledger.tail_percentile(
                phase.walls)
            # Reported, not gated, and only where the tail has enough
            # samples to be a percentile rather than the slowest few.
            if report["op_p95_samples_beyond"] >= ledger.MIN_BEYOND:
                report["op_p95_ms"] = ledger.percentile(phase.walls,
                                                        95.0) * 1e3
        mismatches = workload.mismatches + workload.verify()
    finally:
        workload.cleanup()
    leaks = sorted(set(glob.glob(SHM_PATTERN)) - shm_before)

    attempted = phase.attempted
    failed = min(attempted, phase.failed + mismatches + len(leaks))
    report.update({
        "fingerprint": ledger.fingerprint(ROOT, args.seed),
        "samples": len(phase.ops),
        "attempted": attempted,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "oracle_mismatches": mismatches,
        "leaked_shm_segments": leaks,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })
    lines = [(name, metrics[name], unit) for name, unit in units.items()]
    if "op_p95_ms" in report:
        lines.append(("op_p95_ms", report["op_p95_ms"], "ms"))
    lines.append(("failed_ratio", report["failed_ratio"], "ratio"))
    for name, value, unit in lines:
        print(f"{args.workload:8s} {name:28s} {value:16.6g} {unit}")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
