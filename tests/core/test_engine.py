"""Batch engine tests: bit-identity, goldens, determinism, fallbacks.

The engine's contract is that its vectorised, cached, parallel path
returns **bit-identical** records to the serial
:class:`~repro.core.simulator.DatacenterSimulator`.  These tests enforce
that contract against the serial path directly, against the committed
golden fixtures in ``tests/golden/``, and across worker counts and
executor fallbacks.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.control.cooling_policy import (
    AnalyticPolicy,
    LookupSpacePolicy,
    StaticPolicy,
)
from repro.core.config import (
    SimulationConfig,
    teg_loadbalance,
    teg_original,
)
from repro.core.engine import (
    BatchSimulationEngine,
    CoolingDecisionCache,
    SimulationJob,
    compare_batch,
    resolve_workers,
    run_batch,
    simulate,
)
from repro.core.simulator import DatacenterSimulator
from repro.errors import ConfigurationError
from repro.workloads.synthetic import common_trace
from repro.workloads.trace import WorkloadTrace

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

#: Must match tests/golden/regenerate_engine_goldens.py.
GOLDEN_TRACE_KWARGS = dict(n_servers=40, duration_s=4 * 3600.0,
                           interval_s=300.0, seed=12)

util_vectors = arrays(float, st.integers(min_value=2, max_value=16),
                      elements=st.floats(min_value=0.0, max_value=1.0))


def golden_trace():
    return common_trace(**GOLDEN_TRACE_KWARGS)


class Plain(WorkloadTrace):
    """No overrides; being a subclass routes it through the serial loop."""


def on_loop_path(trace: WorkloadTrace) -> Plain:
    return Plain(trace.utilisation, trace.interval_s, name=trace.name)


def load_golden(scheme: str) -> dict:
    path = GOLDEN_DIR / f"engine_{scheme}_common40.json"
    return json.loads(path.read_text())


class TestBitIdentity:
    """Engine output == serial output, exactly, for every policy kind."""

    @pytest.mark.parametrize("config", [
        teg_original(),
        teg_loadbalance(),
        SimulationConfig(name="analytic", policy="analytic"),
        SimulationConfig(name="static", policy="static"),
        SimulationConfig(name="threshold", scheduler="threshold",
                         threshold_cap=0.5),
    ], ids=lambda c: c.name)
    def test_engine_matches_serial_exactly(self, config):
        trace = golden_trace()
        serial = DatacenterSimulator(trace, config).run()
        fast = simulate(trace, config)
        assert fast.records == serial.records
        assert fast == serial  # metrics excluded from equality

    def test_unvectorised_path_also_matches(self):
        trace = golden_trace()
        serial = DatacenterSimulator(trace, teg_original()).run()
        fast = simulate(on_loop_path(trace), teg_original())
        assert fast.metrics.mode == "loop"
        assert fast.records == serial.records

    def test_metrics_attached(self):
        result = simulate(golden_trace(), teg_original())
        metrics = result.metrics
        assert metrics is not None
        assert metrics.n_steps == len(result.records)
        assert metrics.steps_per_s > 0
        assert metrics.wall_time_s >= metrics.step_time_s
        assert metrics.cache_hits + metrics.cache_misses > 0
        assert metrics.cache_hit_rate > 0  # repeated loads must hit

    def test_serial_result_has_no_metrics(self):
        result = DatacenterSimulator(golden_trace(), teg_original()).run()
        assert result.metrics is None


class TestGoldens:
    """Both paths must reproduce the committed per-step aggregates."""

    FIELDS = ("time_s", "generation_per_cpu_w", "cpu_power_per_cpu_w",
              "max_cpu_temp_c", "chiller_power_w", "tower_power_w",
              "pump_power_w")

    @pytest.mark.parametrize("scheme_factory",
                             [teg_original, teg_loadbalance],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("runner", ["serial", "kernel", "loop"])
    def test_matches_golden(self, scheme_factory, runner):
        config = scheme_factory()
        golden = load_golden(config.name)
        trace = golden_trace()
        if runner == "serial":
            result = DatacenterSimulator(trace, config).run()
        else:
            if runner == "loop":
                trace = on_loop_path(trace)
            result = simulate(trace, config)
            assert result.metrics.mode == runner
        assert len(result.records) == golden["n_steps"]
        for name in self.FIELDS:
            actual = np.array([getattr(record, name)
                               for record in result.records])
            expected = np.array(golden["records"][name])
            np.testing.assert_allclose(actual, expected, rtol=0,
                                       atol=1e-9, err_msg=name)

    def test_golden_fixtures_exist_for_both_schemes(self):
        for config in (teg_original(), teg_loadbalance()):
            golden = load_golden(config.name)
            assert golden["scheme"] == config.name
            assert golden["trace"] == dict(GOLDEN_TRACE_KWARGS,
                                           name="common")


class TestBatch:
    """The batch layer: ordering, lookup, aggregate metrics."""

    def jobs(self):
        trace = golden_trace()
        return [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]

    def test_results_in_submission_order(self):
        batch = run_batch(self.jobs(), n_workers=1)
        assert [r.scheme for r in batch.results] == \
            ["TEG_Original", "TEG_LoadBalance"]

    def test_get_by_key(self):
        batch = run_batch(self.jobs(), n_workers=1)
        result = batch.get("TEG_LoadBalance", "common")
        assert result.scheme == "TEG_LoadBalance"
        with pytest.raises(ConfigurationError):
            batch.get("TEG_LoadBalance", "no-such-trace")

    def test_aggregate_metrics(self):
        batch = run_batch(self.jobs(), n_workers=1)
        metrics = batch.metrics
        assert metrics.n_jobs == 2
        assert metrics.total_steps == 2 * 48
        assert metrics.steps_per_s > 0
        assert 0 < metrics.cache_hit_rate < 1
        summary = metrics.summary()
        assert summary["jobs"] == 2
        assert batch.summaries()[0]["engine"]["steps_per_s"] > 0

    def test_compare_batch_cross_product(self):
        trace = golden_trace()
        batch = compare_batch([trace], [teg_original(), teg_loadbalance()],
                              n_workers=1)
        assert batch.metrics.n_jobs == 2
        assert batch.get("TEG_Original", "common").records

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch([])

    def test_non_job_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(["not a job"])

    def test_bad_prefer_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchSimulationEngine(prefer="fibers")


class TestDeterminism:
    """Same inputs, any worker count or executor: same bits out."""

    def jobs(self):
        trace = golden_trace()
        return [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance(),
                               SimulationConfig(name="analytic",
                                                policy="analytic"),
                               SimulationConfig(name="static",
                                                policy="static"))]

    @pytest.mark.slow
    def test_process_pool_matches_serial_worker(self):
        jobs = self.jobs()
        one = run_batch(jobs, n_workers=1)
        four = run_batch(jobs, n_workers=4, prefer="process")
        for a, b in zip(one.results, four.results):
            assert a.records == b.records
        assert one.metrics.executor == "serial"

    def test_thread_pool_matches_serial_worker(self):
        jobs = self.jobs()[:2]
        one = run_batch(jobs, n_workers=1)
        two = run_batch(jobs, n_workers=2, prefer="thread")
        assert two.metrics.executor == "thread"
        for a, b in zip(one.results, two.results):
            assert a.records == b.records

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        jobs = self.jobs()[:2]
        reference = run_batch(jobs, n_workers=1)

        def broken_pool(self, kind, workers):
            raise OSError("no pools in this sandbox")

        monkeypatch.setattr(BatchSimulationEngine, "_ensure_executor",
                            broken_pool)
        batch = run_batch(jobs, n_workers=4, prefer="process")
        assert batch.metrics.executor == "serial"
        assert batch.metrics.n_workers == 1
        for a, b in zip(reference.results, batch.results):
            assert a.records == b.records


class TestWorkerResolution:
    """Explicit argument > REPRO_WORKERS > CPU-count default."""

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2, n_jobs=8) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None, n_jobs=8) == 3

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            resolve_workers(None, n_jobs=8)

    def test_default_capped_by_jobs_and_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        import os
        expected = min(3, os.cpu_count() or 1)
        assert resolve_workers(None, n_jobs=3) == expected

    def test_never_below_one_or_above_jobs(self):
        assert resolve_workers(0, n_jobs=5) == 1
        assert resolve_workers(-2, n_jobs=5) == 1
        assert resolve_workers(64, n_jobs=5) == 5


class TestCoolingDecisionCache:
    """The cache must be observationally invisible except for speed."""

    def test_bad_resolution_rejected(self):
        with pytest.raises(ConfigurationError):
            CoolingDecisionCache(resolution=0.0)

    def test_hit_and_miss_counters(self, lookup_space):
        policy = LookupSpacePolicy(space=lookup_space, aggregation="max")
        cache = CoolingDecisionCache()
        utils = np.array([0.2, 0.5])
        first = cache.decide(policy, utils)
        second = cache.decide(policy, utils)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_context_separates_simulations(self, lookup_space):
        hot = LookupSpacePolicy(space=lookup_space,
                                cold_source_temp_c=25.0)
        cold = LookupSpacePolicy(space=lookup_space,
                                 cold_source_temp_c=15.0)
        cache = CoolingDecisionCache()
        utils = np.array([0.4, 0.4])
        a = cache.decide(hot, utils, context=("hot",))
        b = cache.decide(cold, utils, context=("cold",))
        assert cache.stats.misses == 2
        assert a.predicted_generation_w != b.predicted_generation_w

    @given(util_vectors)
    @settings(max_examples=30, deadline=None)
    def test_lookup_hit_equals_uncached_decision(self, lookup_space,
                                                 utils):
        # A cache hit must return exactly what a fresh policy would:
        # prime with one vector, query with another that lands in the
        # same quantised-binding bucket, compare against an uncached
        # policy sharing the same space.
        cached_policy = LookupSpacePolicy(space=lookup_space)
        cache = CoolingDecisionCache()
        cache.decide(cached_policy, utils)
        hit = cache.decide(cached_policy, utils)
        fresh = LookupSpacePolicy(space=lookup_space)
        assert hit == fresh.decide(utils)

    @given(util_vectors)
    @settings(max_examples=30, deadline=None)
    def test_analytic_hit_equals_uncached_decision(self, utils):
        policy = AnalyticPolicy()
        cache = CoolingDecisionCache()
        cache.decide(policy, utils)
        assert cache.decide(policy, utils) == \
            AnalyticPolicy().decide(utils)

    @given(util_vectors)
    @settings(max_examples=30, deadline=None)
    def test_static_avg_hit_equals_uncached_decision(self, utils):
        policy = StaticPolicy(aggregation="avg")
        cache = CoolingDecisionCache()
        cache.decide(policy, utils)
        assert cache.decide(policy, utils) == \
            StaticPolicy(aggregation="avg").decide(utils)


class TestZeroCopyDispatch:
    """Process-pool jobs ship a trace *handle*, not the trace plane."""

    def test_payload_size_independent_of_trace_length(self):
        import pickle

        short = common_trace(n_servers=40, duration_s=2 * 3600.0,
                             interval_s=300.0, seed=12)
        long = common_trace(n_servers=40, duration_s=48 * 3600.0,
                            interval_s=300.0, seed=12)
        with BatchSimulationEngine() as engine:
            small = len(pickle.dumps(engine._payload(
                SimulationJob(trace=short, config=teg_original()))))
            large = len(pickle.dumps(engine._payload(
                SimulationJob(trace=long, config=teg_original()))))
            job_size = len(pickle.dumps(
                SimulationJob(trace=long, config=teg_original())))
        # The payload must not scale with the trace and must be far
        # smaller than pickling the job (which embeds the matrix).
        assert abs(large - small) < 128
        assert large * 10 < job_size

    def test_one_segment_per_distinct_trace(self):
        trace = golden_trace()
        jobs = [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]
        with BatchSimulationEngine() as engine:
            for job in jobs:
                engine._payload(job)
            assert len(engine._shared_traces) == 1
        assert len(engine._shared_traces) == 0  # close() unlinked it

    @pytest.mark.slow
    def test_executor_reused_across_runs(self):
        trace = golden_trace()
        jobs = [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]
        with BatchSimulationEngine(n_workers=2,
                                   prefer="process") as engine:
            first = engine.run(jobs)
            second = engine.run(jobs)
            assert engine.executor_launches == 1
        assert first.metrics.executor == "process"
        for a, b in zip(first.results, second.results):
            assert a.records == b.records

    def test_worker_side_trace_reconstruction_is_exact(self):
        from repro.core.engine import _execute_payload

        trace = golden_trace()
        serial = DatacenterSimulator(trace, teg_original()).run()
        with BatchSimulationEngine() as engine:
            payload = engine._payload(
                SimulationJob(trace=trace, config=teg_original()))
            # Execute the payload in-process: same code path the worker
            # runs, minus the fork.
            result = _execute_payload(payload)
            assert result.records == serial.records
