"""Whole-trace kernel tests: parity, columnar store, mode resolution.

The kernel pipeline (``repro.core.kernel``) collapses the simulator's
time loop into NumPy planes.  Its contract is the same as the engine's:
**bit-identical** records, violations and errors versus the serial
:class:`~repro.core.simulator.DatacenterSimulator` — these tests enforce
it on awkward shapes (trailing underpopulated circulation), on every
policy kind, and on the error paths.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    SimulationConfig,
    teg_loadbalance,
    teg_original,
    teg_static,
)
from repro.core.engine import (
    CoolingDecisionCache,
    _CachedVectorisedSimulator,
    resolve_mode,
    simulate,
)
from repro.core.kernel import chunk_rows, run_kernel_columns
from repro.core.results import ColumnarSteps, StepRecord
from repro.core.shard import simulate_sharded
from repro.core.simulator import DatacenterSimulator, compare_schemes
from repro.cooling.cdu import CoolingSetting
from repro.cooling.loop import WaterCirculation
from repro.errors import (
    ConfigurationError,
    CoolingFailureError,
    PhysicalRangeError,
)
from repro.faults import FaultSchedule, FaultSpec
from repro.teg.device import TegDevice
from repro.teg.module import default_server_module
from repro.thermal.cpu_model import CpuThermalModel, OutletDeltaModel
from repro.workloads.synthetic import common_trace, drastic_trace
from repro.workloads.trace import WorkloadTrace

#: 47 servers with circulation_size=20 -> groups of 20, 20 and a
#: trailing, underpopulated group of 7.
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


def trailing_trace():
    return drastic_trace(**TRAILING_TRACE_KWARGS)


class Plain(WorkloadTrace):
    """No overrides; being a subclass routes it through the serial loop."""


def on_loop_path(trace: WorkloadTrace) -> Plain:
    return Plain(trace.utilisation, trace.interval_s, name=trace.name)


def active_schedule() -> FaultSchedule:
    return FaultSchedule(specs=(
        FaultSpec(kind="sensor_bias", start_s=600.0, duration_s=600.0,
                  magnitude=0.05),), seed=3)


class TestModeResolution:
    """The job's inputs, not a user setting, choose the run path."""

    def test_default_is_kernel(self):
        assert resolve_mode(trailing_trace()) == "kernel"

    def test_empty_fault_schedule_stays_on_kernel(self):
        empty = FaultSchedule(specs=(), seed=0)
        assert resolve_mode(trailing_trace(), empty) == "kernel"

    def test_active_fault_schedule_runs_the_loop(self):
        assert resolve_mode(trailing_trace(), active_schedule()) == "loop"

    def test_trace_subclass_runs_the_loop(self):
        assert resolve_mode(on_loop_path(trailing_trace())) == "loop"

    def test_simulate_reports_the_resolved_path(self):
        trace = trailing_trace()
        assert simulate(trace, teg_original()).metrics.mode == "kernel"
        assert simulate(trace, teg_original(),
                        faults=active_schedule()).metrics.mode == "loop"


class TestKernelParity:
    """Kernel records == serial records, bit for bit."""

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_trailing_group_parity_all_modes(self, config):
        trace = trailing_trace()
        serial = DatacenterSimulator(trace, config).run()
        for mode, path_trace in (("kernel", trace),
                                 ("loop", on_loop_path(trace))):
            fast = simulate(path_trace, config)
            assert fast.metrics.mode == mode
            assert fast.records == serial.records, mode
            assert fast.violations == serial.violations, mode

    def test_kernel_result_is_columnar(self):
        result = simulate(trailing_trace(), teg_original())
        assert isinstance(result.records, ColumnarSteps)
        assert result.metrics.mode == "kernel"
        timings = result.metrics.kernel
        assert timings is not None
        assert timings.total_s > 0
        assert set(timings.summary()) == {
            "decide_s", "evaluate_s", "reduce_s", "fold_s", "total_s"}

    def test_loop_mode_reports_no_kernel_timings(self):
        trace = on_loop_path(trailing_trace())
        assert simulate(trace, teg_original()).metrics.kernel is None

    def test_compare_schemes_parity_across_paths(self):
        trace = trailing_trace()
        reference = compare_schemes(trace, teg_original(),
                                    teg_loadbalance())
        for mode, path_trace in (("kernel", trace),
                                 ("loop", on_loop_path(trace))):
            baseline = simulate(path_trace, teg_original())
            optimised = simulate(path_trace, teg_loadbalance())
            assert baseline.metrics.mode == mode
            assert baseline.records == reference.baseline.records, mode
            assert optimised.records == reference.optimised.records, mode

    def test_violation_log_parity(self):
        # A deliberately hot static setting produces violations the
        # non-strict path must log identically (ids, times, temps).
        trace = trailing_trace()
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        serial = DatacenterSimulator(trace, hot).run()
        kernel = simulate(trace, hot)
        assert serial.violations  # scenario must actually violate
        assert kernel.violations == serial.violations
        assert kernel.records == serial.records

    def test_strict_safety_error_parity(self):
        trace = trailing_trace()
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            strict_safety=True,
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        errors = {}
        for label, run in (
                ("serial",
                 DatacenterSimulator(trace, hot).run),
                ("kernel",
                 lambda: simulate(trace, hot))):
            with pytest.raises(CoolingFailureError) as excinfo:
                run()
            exc = excinfo.value
            errors[label] = (str(exc), exc.server_id, exc.temperature_c,
                             exc.step_index)
        assert errors["serial"] == errors["kernel"]

    def test_tower_capacity_error_parity(self):
        trace = trailing_trace()
        config = teg_original()
        errors = {}
        for label, sim in (
                ("serial", DatacenterSimulator(trace, config)),
                ("kernel", _CachedVectorisedSimulator(
                    trace, config, cache=CoolingDecisionCache()))):
            for circulation in sim._circulations:
                circulation.tower = replace(circulation.tower,
                                            max_heat_kw=0.3)
            with pytest.raises(PhysicalRangeError) as excinfo:
                sim.run()
            errors[label] = str(excinfo.value)
        assert errors["serial"] == errors["kernel"]

    def test_trace_subclass_falls_back_to_loop_mode(self):
        # Subclasses may override step(); the kernel reads the plane
        # directly and would bypass them, so it must not engage.
        class Halved(WorkloadTrace):
            def step(self, index):
                return super().step(index) / 2.0

        base = trailing_trace()
        halved = Halved(base.utilisation, base.interval_s, name="halved")
        result = simulate(halved, teg_original())
        assert result.metrics.mode == "loop"
        serial = DatacenterSimulator(halved, teg_original()).run()
        assert result.records == serial.records


class TestFaultShadowSkip:
    """The healthy shadow evaluation only runs while a fault is active."""

    def schedule(self):
        # Active for exactly two control intervals: t in [600, 1200).
        return FaultSchedule(specs=(
            FaultSpec(kind="sensor_bias", start_s=600.0,
                      duration_s=600.0, magnitude=0.05),), seed=3)

    def test_shadow_skipped_on_inactive_steps(self, monkeypatch):
        trace = common_trace(n_servers=40, duration_s=6 * 300.0,
                             interval_s=300.0, seed=5)
        calls = []
        original = WaterCirculation.evaluate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WaterCirculation, "evaluate", counting)
        sim = DatacenterSimulator(trace, teg_original(),
                                  faults=self.schedule())
        sim.run()
        n_circs = sim.n_circulations
        active_steps = 2  # t = 600 and t = 900
        expected = (trace.n_steps + active_steps) * n_circs
        assert len(calls) == expected

    def test_inactive_schedule_matches_nominal_run(self):
        # A schedule that never activates must leave the records
        # bit-identical to the nominal simulator (the skip path *is*
        # the nominal arithmetic).
        trace = common_trace(n_servers=40, duration_s=4 * 300.0,
                             interval_s=300.0, seed=5)
        never = FaultSchedule(specs=(
            FaultSpec(kind="pump_stall", start_s=1e9,
                      duration_s=60.0),), seed=3)
        nominal = DatacenterSimulator(trace, teg_original()).run()
        faulted = DatacenterSimulator(trace, teg_original(),
                                      faults=never).run()
        assert faulted.records == nominal.records
        assert faulted.total_lost_harvest_kwh == 0.0


class TestColumnarSteps:
    """The struct-of-arrays record store behind kernel results."""

    def result(self):
        return simulate(trailing_trace(), teg_original())

    def test_lazy_records_match_serial_objects(self):
        columnar = self.result().records
        serial = DatacenterSimulator(trailing_trace(),
                                     teg_original()).run().records
        assert len(columnar) == len(serial)
        assert isinstance(columnar[0], StepRecord)
        assert columnar[0] == serial[0]
        assert columnar[-1] == serial[-1]
        assert columnar[2:5] == serial[2:5]
        assert list(columnar) == serial

    def test_equality_is_symmetric_with_lists(self):
        columnar = self.result().records
        as_list = list(columnar)
        assert columnar == as_list
        assert as_list == columnar  # list defers via NotImplemented
        assert columnar == self.result().records
        assert columnar != as_list[:-1]

    def test_append_rejected(self):
        result = self.result()
        with pytest.raises(ConfigurationError):
            result.append(result.records[0])

    def test_pickle_round_trip(self):
        records = self.result().records
        clone = pickle.loads(pickle.dumps(records))
        assert isinstance(clone, ColumnarSteps)
        assert clone == records

    def test_columns_are_read_only(self):
        records = self.result().records
        with pytest.raises(ValueError):
            records.column("chiller_power_w")[0] = 1.0

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigurationError):
            self.result().records.column("enthalpy")

    def test_aggregates_match_serial(self):
        kernel = self.result()
        serial = DatacenterSimulator(trailing_trace(),
                                     teg_original()).run()
        assert kernel.average_generation_w == serial.average_generation_w
        assert kernel.peak_generation_w == serial.peak_generation_w
        assert kernel.average_pre == serial.average_pre
        assert kernel.total_safety_violations == \
            serial.total_safety_violations


class TestKernelBatchEscapeHatch:
    """A policy without ``decide_batch`` takes the scalar decide loop."""

    def trace(self):
        return drastic_trace(n_servers=47, duration_s=24 * 300.0,
                             interval_s=300.0, seed=7)

    def test_scalar_path_is_bit_identical(self, monkeypatch):
        from repro.control.cooling_policy import LookupSpacePolicy

        trace = self.trace()
        batched = simulate(trace, teg_original())
        monkeypatch.setattr(LookupSpacePolicy, "decide_batch", None)
        scalar = simulate(trace, teg_original())
        assert scalar.records == batched.records
        assert scalar.violations == batched.violations

    def test_escape_hatch_really_avoids_the_batch_api(self, monkeypatch):
        from repro.control.cooling_policy import LookupSpacePolicy

        batch_calls, scalar_calls = [], []
        original_batch = LookupSpacePolicy.decide_batch
        original_decide = LookupSpacePolicy.decide

        def batch_spy(self, bindings):
            batch_calls.append(len(bindings))
            return original_batch(self, bindings)

        def decide_spy(self, utilisations):
            scalar_calls.append(len(utilisations))
            return original_decide(self, utilisations)

        monkeypatch.setattr(LookupSpacePolicy, "decide_batch", batch_spy)
        monkeypatch.setattr(LookupSpacePolicy, "decide", decide_spy)
        trace = self.trace()
        simulate(trace, teg_original())
        assert batch_calls  # default path goes through decide_batch
        assert scalar_calls == []
        monkeypatch.setattr(LookupSpacePolicy, "decide_batch", None)
        simulate(trace, teg_original())
        assert scalar_calls  # the scalar loop decides cell by cell


class TestNonDefaultModelParity:
    """Physical model modes and scaled models take the one kernel path."""

    MODELS = {
        "physical-outlet": dict(cpu_model=CpuThermalModel(
            outlet_model=OutletDeltaModel(mode="physical"))),
        "scaled-cpu": dict(cpu_model=CpuThermalModel(
            power_scale=1.3, extra_resistance_k_per_w=0.02)),
        "physical-teg": dict(teg_module=default_server_module(
            TegDevice(mode="physical"))),
    }

    @pytest.mark.parametrize("config",
                             [teg_original(), teg_loadbalance(),
                              teg_static()], ids=lambda c: c.name)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_simulate_matches_serial(self, config, name):
        models = self.MODELS[name]
        trace = trailing_trace()
        serial = DatacenterSimulator(trace, config, **models).run()
        fast = simulate(trace, config, **models)
        assert fast.metrics.mode == "kernel"
        assert fast.records == serial.records
        assert fast.violations == serial.violations


#: 1,007 servers in circulations of 20: 50 full ones and a ragged 7.
CHUNKED_SERVERS = 1007
#: Evaluate-chunk height at that width.
CHUNK = chunk_rows(CHUNKED_SERVERS)


def chunked_trace(n_chunks: float = 3.5) -> WorkloadTrace:
    """A drastic trace several evaluate chunks tall, ending mid-chunk."""
    return drastic_trace(n_servers=CHUNKED_SERVERS,
                         duration_s=int(CHUNK * n_chunks) * 300.0,
                         interval_s=300.0, seed=5)


def late_hot_trace(servers: slice) -> WorkloadTrace:
    """Idle-ish plane with one hot step in the third chunk."""
    utilisation = np.full((int(CHUNK * 3.5), CHUNKED_SERVERS), 0.1)
    utilisation[2 * CHUNK + 5, servers] = 1.0
    return WorkloadTrace(utilisation, 300.0, name="late-hot")


def error_signature(exc: Exception) -> tuple:
    return (type(exc), str(exc), getattr(exc, "step_index", None),
            getattr(exc, "server_id", None),
            getattr(exc, "temperature_c", None))


class TestChunkBoundaries:
    """The chunk pass against the serial oracle where chunks meet."""

    def test_trace_spans_several_chunks(self):
        assert 1 < CHUNK < chunked_trace().n_steps // 3
        assert chunked_trace().n_steps % CHUNK

    @pytest.mark.parametrize("config", [teg_original(), teg_loadbalance()],
                             ids=lambda c: c.name)
    def test_ragged_circulation_across_chunks(self, config):
        trace = chunked_trace()
        serial_sim = DatacenterSimulator(trace, config)
        assert serial_sim._groups[-1].size == CHUNKED_SERVERS % 20
        serial = serial_sim.run()
        fast = simulate(trace, config)
        assert fast.metrics.mode == "kernel"
        assert fast.records == serial.records
        assert fast.violations == serial.violations

    def test_circulations_past_the_pairwise_block(self):
        # NumPy's pairwise sum recurses above 128 elements: circulations
        # of 150 (and a ragged 107) reduce like the serial 1-D sums.
        config = replace(teg_original(), circulation_size=150)
        trace = chunked_trace()
        serial = DatacenterSimulator(trace, config).run()
        fast = simulate(trace, config)
        assert fast.records == serial.records
        assert fast.violations == serial.violations

    def test_setting_changes_straddle_chunk_edges(self):
        trace = chunked_trace()
        config = teg_original()
        columns = run_kernel_columns(_CachedVectorisedSimulator(
            trace, config, cache=CoolingDecisionCache()))
        settings = columns.inlet_cell * 1000.0 + columns.flow_cell
        edges = range(CHUNK, trace.n_steps, CHUNK)
        # The scenario must change settings across an edge and mix
        # several settings inside one chunk.
        assert any(np.any(settings[edge - 1] != settings[edge])
                   for edge in edges)
        assert len(np.unique(settings[:CHUNK])) > 1
        serial = DatacenterSimulator(trace, config).run()
        fast = simulate(trace, config)
        assert fast.records == serial.records
        assert fast.violations == serial.violations

    def test_late_strict_safety_violation(self):
        trace = late_hot_trace(slice(333, 334))
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        serial = DatacenterSimulator(trace, hot).run()
        fast = simulate(trace, hot)
        assert [v.step_index for v in serial.violations] == [2 * CHUNK + 5]
        assert fast.violations == serial.violations
        assert fast.records == serial.records

        strict = replace(hot, strict_safety=True)
        errors = []
        for run in (DatacenterSimulator(trace, strict).run,
                    lambda: simulate(trace, strict)):
            with pytest.raises(CoolingFailureError) as excinfo:
                run()
            errors.append(error_signature(excinfo.value))
        assert errors[0] == errors[1]
        assert errors[0][2:4] == (2 * CHUNK + 5, 333)

    @pytest.mark.parametrize("plant", ["chiller", "tower"])
    def test_late_capacity_breach(self, plant):
        trace = late_hot_trace(slice(40, 60))
        inlet_c = 20.0 if plant == "chiller" else 45.0
        config = SimulationConfig(
            name="static", scheduler="none", policy="static",
            static_setting=CoolingSetting(flow_l_per_h=50.0,
                                          inlet_temp_c=inlet_c))
        errors = []
        for sim in (DatacenterSimulator(trace, config),
                    _CachedVectorisedSimulator(
                        trace, config, cache=CoolingDecisionCache())):
            for circulation in sim._circulations:
                if plant == "chiller":
                    circulation.chiller = replace(circulation.chiller,
                                                  capacity_kw=0.1)
                else:
                    circulation.tower = replace(circulation.tower,
                                                max_heat_kw=1.0)
            with pytest.raises(PhysicalRangeError) as excinfo:
                sim.run()
            errors.append(error_signature(excinfo.value))
        assert errors[0] == errors[1]
        assert plant in errors[0][1]

    def test_sharded_tiles_end_mid_chunk(self):
        trace = chunked_trace()
        config = teg_original()
        # Tiles 1,000 and 7 servers wide (whole circulations), each
        # time window two chunks and a few rows of the wide tile tall.
        shard_steps = 2 * chunk_rows(1000) + 4
        serial = DatacenterSimulator(trace, config).run()
        sharded = simulate_sharded(trace, config,
                                   shard_servers=CHUNKED_SERVERS,
                                   shard_steps=shard_steps,
                                   result_cache=False)
        assert sharded.metrics.n_shards == 4
        assert sharded.records == serial.records
        assert sharded.violations == serial.violations
