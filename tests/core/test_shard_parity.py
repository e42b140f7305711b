"""Sharded == unsharded, bit for bit (the tentpole guarantee).

Every test compares :func:`repro.core.shard.simulate_sharded` (and the
engine dispatch path where noted) against the unsharded kernel and the
committed golden fixtures: per-step records, violation logs, raised
errors.  Equality is exact — ``==`` on records, not approx — because
the merge is designed to replay the serial arithmetic, not to
approximate it.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.simulator as simulator_module
from repro.cooling.loop import WaterCirculation
from repro.core.config import (
    SimulationConfig,
    teg_loadbalance,
    teg_original,
)
from repro.core.engine import BatchSimulationEngine, SimulationJob, simulate
from repro.core.shard import simulate_sharded
from repro.core.simulator import DatacenterSimulator
from repro.errors import CoolingFailureError, PhysicalRangeError
from repro.faults import FaultSchedule, FaultSpec
from repro.thermal.cpu_model import CoolingSetting
from repro.workloads.synthetic import common_trace, drastic_trace
from repro.workloads.trace import WorkloadTrace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_TRACE_KWARGS = dict(n_servers=40, duration_s=4 * 3600.0,
                           interval_s=300.0, seed=12)

#: 47 servers at circulation 20: two full groups plus a ragged 7-server
#: trailer, so every shard grid below also exercises the ragged merge.
TRAILING_TRACE_KWARGS = dict(n_servers=47, duration_s=2 * 3600.0,
                             interval_s=300.0, seed=7)

ALL_CONFIGS = [
    teg_original(),
    teg_loadbalance(),
    SimulationConfig(name="analytic", policy="analytic"),
    SimulationConfig(name="static", policy="static"),
    SimulationConfig(name="threshold", scheduler="threshold",
                     threshold_cap=0.5),
]

#: (shard_servers, shard_steps) grids: width 1 (clamps to one
#: circulation), width above the cluster (clamps to one tile), ragged
#: time windows, single-cell tiles, and one-dimension-only splits.
SHARD_GRIDS = [(20, 8), (1, 1), (100, 1000), (21, 5), (47, 24),
               (None, 7), (13, None)]


def trailing_trace():
    return drastic_trace(**TRAILING_TRACE_KWARGS)


def assert_identical(sharded, unsharded):
    """Records, violations and headline aggregates must match exactly."""
    assert sharded.records == unsharded.records
    assert sharded.violations == unsharded.violations
    assert sharded.scheme == unsharded.scheme
    assert sharded.trace_name == unsharded.trace_name
    assert sharded.average_generation_w == unsharded.average_generation_w


class TestKernelParity:
    """Fault-free tiles across every policy kind and shard grid."""

    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("grid", SHARD_GRIDS,
                             ids=lambda g: f"s{g[0]}xt{g[1]}")
    def test_bit_identical(self, config, grid):
        trace = trailing_trace()
        unsharded = simulate(trace, config)
        sharded = simulate_sharded(trace, config, shard_servers=grid[0],
                                   shard_steps=grid[1])
        assert_identical(sharded, unsharded)
        assert sharded.metrics.n_shards >= 1

    def test_matches_serial_loop_too(self):
        trace = trailing_trace()
        serial = DatacenterSimulator(trace, teg_original()).run()
        sharded = simulate_sharded(trace, teg_original(),
                                   shard_servers=20, shard_steps=5)
        assert sharded.records == serial.records
        assert sharded.violations == serial.violations

    def test_per_server_circulations(self):
        # circulation_size=1: every server is its own circulation and a
        # width-1 shard is a single server column.
        config = replace(teg_original(), circulation_size=1)
        trace = drastic_trace(n_servers=9, duration_s=6 * 300.0,
                              interval_s=300.0, seed=3)
        unsharded = simulate(trace, config)
        sharded = simulate_sharded(trace, config, shard_servers=1,
                                   shard_steps=2)
        assert_identical(sharded, unsharded)
        assert sharded.metrics.n_shards == 9 * 3

    def test_violation_log_parity(self):
        # A deliberately hot static setting produces violations the
        # merge must stitch back in exactly the kernel's row-major
        # (step, server) order.
        trace = trailing_trace()
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        unsharded = simulate(trace, hot)
        assert unsharded.violations  # scenario must actually violate
        sharded = simulate_sharded(trace, hot, shard_servers=20,
                                   shard_steps=5)
        assert_identical(sharded, unsharded)


class TestDecisionBoundaries:
    """Time boundaries that straddle a cooling-decision change.

    The memoising lookup policy derives a bucket's decision from the
    exact binding that first primes it; these scenarios place a shard
    boundary exactly where the decision changes, so any priming-order
    divergence (the bug the pre-pass exists for) breaks them.
    """

    def two_phase_trace(self, flip_step=6, n_steps=12, n_servers=40):
        # Low load before the flip, high load after: the cooling
        # decision changes exactly at flip_step.
        rng = np.random.default_rng(5)
        low = 0.15 + 0.02 * rng.random((flip_step, n_servers))
        high = 0.75 + 0.02 * rng.random((n_steps - flip_step, n_servers))
        return WorkloadTrace(np.vstack([low, high]), 300.0,
                             name="two-phase")

    @pytest.mark.parametrize("config",
                             [teg_original(), teg_loadbalance()],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("shard_steps", [6, 5, 7, 1])
    def test_boundary_at_and_around_the_flip(self, config, shard_steps):
        trace = self.two_phase_trace()
        unsharded = simulate(trace, config)
        sharded = simulate_sharded(trace, config, shard_servers=20,
                                   shard_steps=shard_steps)
        assert_identical(sharded, unsharded)

    def test_decision_actually_changes_at_the_flip(self):
        # Guard the scenario itself: losing the flip would turn the
        # parametrised cases above into trivial passes.
        trace = self.two_phase_trace()
        result = simulate(trace, teg_original())
        inlets = np.array([r.mean_inlet_temp_c for r in result.records])
        assert inlets[5] != inlets[6]


class TestGoldenParity:
    """Sharded runs reproduce the committed golden fixtures."""

    FIELDS = ("time_s", "generation_per_cpu_w", "cpu_power_per_cpu_w",
              "max_cpu_temp_c", "chiller_power_w", "tower_power_w",
              "pump_power_w")

    @pytest.mark.parametrize("scheme_factory",
                             [teg_original, teg_loadbalance],
                             ids=lambda f: f.__name__)
    def test_matches_golden(self, scheme_factory):
        config = scheme_factory()
        golden = json.loads(
            (GOLDEN_DIR / f"engine_{config.name}_common40.json")
            .read_text())
        trace = common_trace(**GOLDEN_TRACE_KWARGS)
        result = simulate_sharded(trace, config, shard_servers=20,
                                  shard_steps=13)
        assert len(result.records) == golden["n_steps"]
        for name in self.FIELDS:
            actual = np.array([getattr(record, name)
                               for record in result.records])
            expected = np.array(golden["records"][name])
            np.testing.assert_allclose(actual, expected, rtol=0,
                                       atol=1e-9, err_msg=name)


class TestErrorParity:
    """The globally earliest error is raised with identical attributes."""

    def test_strict_safety_error(self):
        trace = trailing_trace()
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            strict_safety=True,
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        errors = {}
        for label, run in (
                ("kernel", lambda: simulate(trace, hot)),
                ("sharded", lambda: simulate_sharded(
                    trace, hot, shard_servers=20, shard_steps=5)),
                ("sharded-tiny", lambda: simulate_sharded(
                    trace, hot, shard_servers=1, shard_steps=1))):
            with pytest.raises(CoolingFailureError) as excinfo:
                run()
            exc = excinfo.value
            errors[label] = (str(exc), exc.server_id, exc.temperature_c,
                             exc.step_index)
        assert errors["sharded"] == errors["kernel"]
        assert errors["sharded-tiny"] == errors["kernel"]

    def test_capacity_error(self, monkeypatch):
        # Shrink every tower so the load trips the capacity check; the
        # patch applies to the shard simulators and the reference alike.
        def tiny_tower(**kwargs):
            circulation = WaterCirculation(**kwargs)
            circulation.tower = replace(circulation.tower,
                                        max_heat_kw=0.3)
            return circulation

        monkeypatch.setattr(simulator_module, "WaterCirculation",
                            tiny_tower)
        trace = trailing_trace()
        config = teg_original()
        errors = {}
        for label, run in (
                ("kernel", lambda: simulate(trace, config)),
                ("sharded", lambda: simulate_sharded(
                    trace, config, shard_servers=20, shard_steps=5))):
            with pytest.raises(PhysicalRangeError) as excinfo:
                run()
            errors[label] = str(excinfo.value)
        assert errors["sharded"] == errors["kernel"]


class TestPropertyParity:
    """Hypothesis: parity holds over drawn dimensions and shard grids."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_servers=st.integers(min_value=20, max_value=55),
        n_steps=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
        shard_servers=st.integers(min_value=1, max_value=60),
        shard_steps=st.integers(min_value=1, max_value=20),
        scheme=st.sampled_from(["original", "loadbalance"]),
    )
    def test_sharded_equals_unsharded(self, n_servers, n_steps, seed,
                                      shard_servers, shard_steps,
                                      scheme):
        factory = {"original": teg_original,
                   "loadbalance": teg_loadbalance}[scheme]
        config = factory()
        trace = drastic_trace(n_servers=n_servers,
                              duration_s=n_steps * 300.0,
                              interval_s=300.0, seed=seed)
        unsharded = simulate(trace, config)
        sharded = simulate_sharded(trace, config,
                                   shard_servers=shard_servers,
                                   shard_steps=shard_steps)
        assert sharded.records == unsharded.records
        assert sharded.violations == unsharded.violations


class Halved(WorkloadTrace):
    """A trace subclass whose overridden ``step()`` no plane view sees."""

    def step(self, index):
        return super().step(index) / 2.0


class TestTraceSubclass:
    def test_subclass_runs_whole_through_simulate(self):
        base = drastic_trace(n_servers=80, duration_s=24 * 300.0,
                             interval_s=300.0, seed=7)
        halved = Halved(base.utilisation, base.interval_s, name="halved")
        reference = simulate(halved, teg_original())
        assert reference.metrics.mode == "loop"
        sharded = simulate_sharded(halved, teg_original(),
                                   shard_servers=20, shard_steps=6)
        assert sharded.metrics.mode == "loop"
        assert_identical(sharded, reference)


class TestEngineParity:
    """``simulate_sharded`` and the batch engine share one shard loop."""

    SIZES = dict(shard_servers=20, shard_steps=5)

    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["plain", "faults"])
    def test_same_records_violations_and_shard_metrics(self, faulty):
        trace = trailing_trace()
        faults = (FaultSchedule(specs=(
            FaultSpec(kind="pump_derate", start_s=1800.0,
                      duration_s=3000.0, magnitude=0.3),))
            if faulty else None)
        direct = simulate_sharded(trace, teg_original(), faults=faults,
                                  **self.SIZES)
        with BatchSimulationEngine(prefer="serial", shard=True,
                                   **self.SIZES) as engine:
            batch = engine.run([SimulationJob(trace, teg_original(),
                                              faults=faults)])
        assert batch.ok
        via_engine = batch.results[0]
        assert via_engine.records == direct.records
        assert via_engine.violations == direct.violations
        for name in ("mode", "n_shards", "shards_resumed"):
            assert (getattr(via_engine.metrics, name)
                    == getattr(direct.metrics, name)), name
        assert direct.metrics.n_shards > 1
