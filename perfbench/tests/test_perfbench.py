"""Tests of the benchmark's own code: arithmetic, contract, tiny workloads.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ledger
import probes
import run
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# -- percentile rule ---------------------------------------------------

def test_p95_needs_182_distinct_samples_for_ten_beyond():
    # Linear interpolation: the cut of n samples sits at index 0.95 (n - 1).
    assert ledger.samples_beyond(list(range(182)), 95.0) == 10
    assert ledger.samples_beyond(list(range(181)), 95.0) == 9
    assert ledger.samples_beyond([1.0] * 500, 95.0) == 0


def test_tail_percentile_is_highest_with_ten_beyond():
    assert ledger.tail_percentile(list(range(1000))) == 99.0
    assert ledger.tail_percentile(list(range(200))) == 95.0
    assert ledger.tail_percentile(list(range(50))) == 50.0
    assert ledger.tail_percentile(list(range(19))) is None
    assert ledger.tail_percentile([]) is None


def test_request_runs_until_p95_has_ten_beyond():
    workload = workloads.RequestWorkload(0, workloads.TINY, Path("unused"))
    assert workload.need_more([0.01] * 500)
    assert workload.need_more(list(range(181)))
    assert not workload.need_more(list(range(182)))


# -- tracing overhead --------------------------------------------------

def test_trace_overhead_is_unresolved_when_inside_the_noise():
    noisy = [1.0, 1.5, 0.8, 1.2, 0.9, 1.4]
    overhead = ledger.trace_overhead(noisy, [x * 1.05 for x in noisy])
    assert overhead["ratio"] == pytest.approx(0.05)
    assert overhead["resolution"] > 0.05 and not overhead["resolved"]
    assert (overhead["untraced_samples"], overhead["traced_samples"]) == \
        (6, 6)


def test_trace_overhead_is_resolved_when_beyond_the_noise():
    steady = [1.0 + 0.001 * k for k in range(50)]
    overhead = ledger.trace_overhead(steady, [x * 1.2 for x in steady])
    assert overhead["ratio"] == pytest.approx(0.2)
    assert overhead["resolution"] < 0.01 and overhead["resolved"]


def test_trace_overhead_needs_four_samples_a_side():
    overhead = ledger.trace_overhead([1.0, 1.0, 1.0], [2.0] * 10)
    assert overhead["resolution"] is None and not overhead["resolved"]


def test_span_sink_records_only_while_switched_on(tmp_path):
    sink = probes.SpanSink(tmp_path)
    wrapped = probes._timed(sink, "f", lambda x: x + 1, None)
    sink.recording = False
    assert wrapped(1) == 2 and sink.read() == []
    sink.recording = True
    assert wrapped(2) == 3 and [s["name"] for s in sink.read()] == ["f"]


# -- residual arithmetic -----------------------------------------------

def test_covered_counts_parallel_time_once_and_clips():
    assert ledger.covered([(0, 2), (1, 3)], 0, 10) == 3
    assert ledger.covered([(0, 2), (5, 6)], 1, 5.5) == 1.5
    assert ledger.covered([(1, 4), (2, 3)], 0, 10) == 3
    assert ledger.covered([], 0, 10) == 0


def _result(setup=0.0, wall=0.0, kernel=None, servers=10, steps=4,
            hits=0, misses=0, shards=0):
    metrics = SimpleNamespace(setup_time_s=setup, wall_time_s=wall,
                              kernel=kernel, cache_hits=hits,
                              cache_misses=misses, n_shards=shards)
    return SimpleNamespace(metrics=metrics, n_servers=servers,
                           records=[None] * steps)


def _kernel(decide, evaluate, reduce, fold):
    return SimpleNamespace(decide_s=decide, evaluate_s=evaluate,
                           reduce_s=reduce, fold_s=fold)


def test_request_residual_is_op_minus_setup_and_kernel_phases():
    ops = [ledger.OpRecord(t0=0.0, t1=1.0, cells=40, computed=[
        _result(setup=0.25, wall=0.9, kernel=_kernel(0.25, 0.125, 0.0625,
                                                     0.0625))])]
    metrics = ledger.layer_metrics("request", ops, [], 1)
    assert metrics["engine.unattributed_s"] == pytest.approx(0.25)
    assert metrics["kernel.cells"] == 40
    assert metrics["kernel.evaluate_bytes"] == 40 * 32


def test_pooled_residual_is_op_minus_union_of_spans():
    ops = [ledger.OpRecord(t0=0.0, t1=10.0, cells=1),
           ledger.OpRecord(t0=10.0, t1=20.0, cells=1)]
    spans = [
        {"name": "engine.simulate", "t0": 1.0, "t1": 5.0, "pid": 2},
        {"name": "engine.simulate", "t0": 2.0, "t1": 6.0, "pid": 3},
        {"name": "checkpoint.save", "t0": 7.0, "t1": 8.0, "pid": 1},
        {"name": "engine.simulate", "t0": 11.0, "t1": 19.0, "pid": 2},
        # Before any op (a warm-up): ignored.
        {"name": "engine.simulate", "t0": -5.0, "t1": -1.0, "pid": 2},
    ]
    metrics = ledger.layer_metrics("sweep", ops, spans, 2)
    # op 1: 10 - (5 covered + 1) = 4; op 2: 10 - 8 = 2; mean 3.
    assert metrics["engine.unattributed_s"] == pytest.approx(3.0)
    assert metrics["checkpoint.saves"] == 0.5


def test_fleet_busy_ratio_and_shard_spans():
    ops = [ledger.OpRecord(t0=0.0, t1=4.0, cells=1, computed=[
        _result(kernel=_kernel(1.0, 2.0, 1.0, 0.5), shards=4)])]
    spans = [
        {"name": "shard.prime", "t0": 0.0, "t1": 1.0, "pid": 1},
        {"name": "shard.run", "t0": 1.0, "t1": 3.0, "pid": 2},
        {"name": "shard.run", "t0": 1.0, "t1": 2.5, "pid": 3},
        {"name": "shard.merge_final", "t0": 3.0, "t1": 3.5, "pid": 1},
    ]
    metrics = ledger.layer_metrics("fleet", ops, spans, 2)
    assert metrics["shard.worker_busy_ratio"] == pytest.approx(4.0 / 8.0)
    assert metrics["shard.run_s"] == pytest.approx(3.5)
    assert metrics["shard.merge_s"] == pytest.approx(0.5)
    assert metrics["engine.unattributed_s"] == pytest.approx(0.5)


# -- metric names and the benchmark definition -------------------------

def _definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_definition_has_exactly_the_contract_keys():
    definition = _definition()
    assert set(definition) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    assert definition["paths"] == ["perfbench"]
    assert definition["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= definition["run_seconds"] <= 60
    assert [w["name"] for w in definition["workloads"]] == ["sweep", "fleet"]
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200


def test_metric_names_and_units_are_valid_and_match_the_code():
    definition = _definition()
    names = [m["name"] for m in definition["end_to_end"]
             + definition["per_layer"]]
    assert len(names) == len(set(names))
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert ledger.NAME_RE.match(metric["name"]), metric
        assert ledger.UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in definition["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in definition["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == \
        list(ledger.END_TO_END)
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == \
        list(ledger.PER_LAYER)
    setup = next(m for m in definition["end_to_end"]
                 if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"]
                                 for m in definition["end_to_end"])


# -- tiny smoke runs, correctness gate included ------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_gate(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, workloads.TINY, tmp_path / name)
    workload.prepare()
    phase = run.run_phase(workload, 0.3, workloads.TINY.setup_rounds)
    try:
        assert phase.ops and phase.failed == 0
        assert len(phase.setup_rounds) == workloads.TINY.setup_rounds
        assert workload.mismatches == 0
        assert workload.verify() == 0
    finally:
        workload.cleanup()
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_sees_its_layers(name, tmp_path):
    workload = workloads.WORKLOADS[name](4, workloads.TINY, tmp_path / name)
    workload.prepare()
    sink = probes.SpanSink(tmp_path / "spans")
    restore = probes.install_probes(sink)
    try:
        phase = run.run_phase(workload, 0.3, 1, sink)
    finally:
        restore()
        workload.cleanup()
    assert phase.failed == 0 and len(phase.ops) > workload.trace_block
    # Blocks alternate, untraced first; spans fall in traced operations.
    assert [op.traced for op in phase.ops] == [
        k // workload.trace_block % 2 == 1 for k in range(len(phase.ops))]
    traced = [op for op in phase.ops if op.traced]
    spans = sink.read()
    assert spans and all(
        any(op.t0 <= span["t0"] <= op.t1 for op in traced)
        for span in spans if span["t0"] >= phase.ops[0].t0)
    metrics = ledger.layer_metrics(name, traced, spans, workload.workers)
    assert set(metrics) | {"obs.trace_overhead",
                           "obs.untraced_op_p50_ms"} == {
        name for name, _ in ledger.PER_LAYER}
    assert metrics["kernel.cells"] > 0
    assert metrics["kernel.unique_decisions"] > 0
    if name == "request":
        assert metrics["lookup_space.builds"] > 0
        assert metrics["shard.count"] == 0 and metrics["cache.hits"] == 0
    if name == "sweep":
        assert metrics["cache.served_ratio"] == 0.5
        assert metrics["checkpoint.saves"] > 0
        assert metrics["checkpoint.bytes_written"] > 0
        assert metrics["engine.jobs_deduped"] == 2
    if name == "fleet":
        assert metrics["shard.count"] == 6
        assert metrics["shard.run_s"] > 0 and metrics["shard.prime_s"] > 0
        assert metrics["checkpoint.saves"] == 0


def _two_requests(seed, tmp_path):
    workload = workloads.RequestWorkload(seed, workloads.TINY, tmp_path)
    workload.prepare()
    workload.telemetry = False
    (key, first), = workload.op()[1].items()
    # The next request is the next scheme: a different result.
    (_, second), = workload.op()[1].items()
    return workload, key, first, second


class _FailingWarmup(workloads.Workload):
    """Warm-ups return one failed job; timed operations succeed."""

    def start(self):
        return None, {"job": "warm"}, 1

    def op(self):
        return ledger.OpRecord(t0=0.0, t1=1.0, cells=1), {}, 0


def test_warmup_results_are_observed_and_failures_counted(tmp_path):
    workload = _FailingWarmup(0, workloads.TINY, tmp_path)
    workload.observe = lambda keyed: seen.append(keyed)
    seen = []
    phase = run.run_phase(workload, 0.05, 2)
    assert seen[:2] == [{"job": "warm"}] * 2
    assert phase.failed == 2
    assert phase.attempted == len(phase.ops) + 2


def test_gate_counts_a_result_that_differs_from_its_reference(tmp_path):
    workload, key, first, second = _two_requests(5, tmp_path)
    workload.observe({key: first})
    workload.sampled = {key}
    assert workload.verify() == 0
    workload.reference = lambda _: second
    assert workload.verify() == 1


def test_gate_counts_a_result_that_changes_between_operations(tmp_path):
    workload, key, first, second = _two_requests(6, tmp_path)
    workload.observe({key: first})
    workload.observe({key: first})
    assert workload.mismatches == 0
    workload.observe({key: second})
    assert workload.mismatches == 1


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "request",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_stop_resource_tracker_ends_the_tracker_process():
    # In a fresh interpreter: the tracker belongs to the process that
    # first created shared memory, and this test's own must live on.
    script = (
        "import os\n"
        "from multiprocessing import resource_tracker, shared_memory\n"
        "import run\n"
        "block = shared_memory.SharedMemory(create=True, size=16)\n"
        "block.close(); block.unlink()\n"
        "pid = resource_tracker._resource_tracker._pid\n"
        "run.stop_resource_tracker()\n"
        "run.stop_resource_tracker()\n"
        "try:\n"
        "    os.kill(pid, 0)\n"
        "except ProcessLookupError:\n"
        "    print('stopped')\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=BENCH,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["stopped"]
