"""Whole-trace simulation kernel: the time dimension as NumPy planes.

PR 1 vectorised *within* a control interval; this module removes the
per-step Python loop entirely.  For a fault-free run the simulation is
a pure function of the trace, so the kernel:

1. **decides** — builds the scheduled ``(steps x servers)`` utilisation
   plane, computes every ``(step, circulation)`` cell's binding
   utilisation, dedupes cells through the cooling-decision cache's own
   quantisation, and calls the policy once per unique key (primed in
   first-occurrence order, so a shared memoising policy sees exactly
   the serial call sequence);
2. **evaluates** — walks the scheduled plane in row chunks sized by
   :data:`CHUNK_BYTES` (one chunk's temporaries fit in L2).  Each chunk
   expands its ``setting_id`` rows to servers and runs the thermal/TEG
   model entry points once per cooling setting present in the chunk;
3. **reduces** — in the same chunk pass, per-circulation sums/maxima
   over contiguous column blocks fill the ``(steps x circs)`` columns
   while the chunk is still in cache.  Only the CPU-temperature plane
   is kept whole (the error replay and the violation records read it).
   After the pass, the facility split (chiller fraction, tower, pump)
   runs as per-cell array arithmetic with the serial expression order;
4. **folds** — accumulates circulation columns into per-step cluster
   totals in circulation order (sequential adds, like the serial
   ``_aggregate_step``) and emits a columnar result.

Phases 1–3 are exposed separately as :func:`run_kernel_columns` (their
output, a :class:`KernelColumns`, is per-``(step, circulation)``) and
phase 4 as :func:`fold_columns`, because the fleet-scale sharding layer
(:mod:`repro.core.shard`) runs 1–3 on rectangular trace tiles, stitches
the tiles' columns back into whole-cluster planes, and replays the fold
once over the full-length columns — the only order that keeps the merge
bit-identical (float addition is not associative, so summing per-shard
subtotals would not be).

Bit-identity
------------
Every array expression mirrors the serial arithmetic exactly:
elementwise model calls are independent of how cells are batched into
chunks and settings; a per-circulation sum/mean/max over a contiguous
block — ``axis=1`` of a ``(rows x size)`` block, or ``axis=2`` of a
``(rows x circs x size)`` view of equal-size circulations — is
bit-identical to the serial 1-D reductions (same pairwise blocking,
one block at a time); the cluster fold adds
circulation columns sequentially; and capacity / strict-safety errors
are replayed at the earliest offending cell in serial evaluation order.
``tests/core/test_kernel.py`` and the golden fixtures enforce this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..control.scheduling import IdealBalancer, NoScheduler
from ..errors import CoolingFailureError, PhysicalRangeError
from ..thermal.hydraulics import loop_pump_power_w
from .results import ColumnarSteps, SafetyViolation, SimulationResult

__all__ = [
    "KernelColumns",
    "KernelError",
    "KernelTimings",
    "fold_columns",
    "run_kernel_columns",
    "run_whole_trace",
]

#: Byte budget of one evaluate chunk's temporaries.  The chunk's rows
#: are read by the model calls and again by the circulation reductions;
#: sized so one chunk stays resident in a ~1 MB L2 cache between them.
CHUNK_BYTES = 1 << 20
#: Temporary bytes per chunk cell: the utilisation, CPU-temperature,
#: CPU-power and TEG-power rows, the setting index and its mask, and
#: the gathered utilisations and outlets of one setting.
CHUNK_CELL_BYTES = 57


@dataclass
class KernelTimings:
    """Wall time spent in each kernel phase (attached to EngineMetrics)."""

    decide_s: float = 0.0
    evaluate_s: float = 0.0
    reduce_s: float = 0.0
    fold_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total kernel time across all four phases."""
        return self.decide_s + self.evaluate_s + self.reduce_s + self.fold_s

    def summary(self) -> dict:
        """Phase timings as a plain dictionary (for tables/JSON)."""
        return {
            "decide_s": round(self.decide_s, 4),
            "evaluate_s": round(self.evaluate_s, 4),
            "reduce_s": round(self.reduce_s, 4),
            "fold_s": round(self.fold_s, 4),
            "total_s": round(self.total_s, 4),
        }


@dataclass(frozen=True)
class KernelError:
    """The earliest error of a kernel run, in serial evaluation order.

    ``step`` / ``circ`` are *local* indices into the kernel's own trace;
    the sharding merge translates them into the global frame to pick the
    globally-earliest error across shards.  ``phase`` encodes the serial
    intra-step ordering: every circulation's *evaluation* (capacity
    checks, phase 0) runs before the step's *aggregation* (strict-safety
    check, phase 1), so on equal steps the lower phase raised first.
    The carried ``exception`` already has its message and attributes in
    the simulator's global frame (via ``step_offset``/``server_offset``).
    """

    exception: Exception
    phase: int
    step: int
    circ: int


@dataclass
class KernelColumns:
    """Pre-fold kernel output: per-``(step, circulation)`` planes.

    Everything phase 4 needs to fold into per-step cluster aggregates —
    and everything the sharding merge needs to stitch tiles from
    different shards back into whole-cluster planes before that fold.
    All plane arrays have shape ``(n_steps, n_circs)``; ``sizes`` has
    one entry per circulation; ``violations`` carry cluster-global
    server/step identities.
    """

    generation_c: np.ndarray
    heat_c: np.ndarray
    chiller_power_c: np.ndarray
    tower_power_c: np.ndarray
    pump_power_c: np.ndarray
    max_temp_c: np.ndarray
    inlet_cell: np.ndarray
    flow_cell: np.ndarray
    sizes: np.ndarray
    violation_counts: np.ndarray
    violations: list = field(default_factory=list)
    error: KernelError | None = None


def chunk_rows(n_servers: int) -> int:
    """Steps per evaluate chunk: ``CHUNK_BYTES`` of temporaries, >= 1."""
    return max(1, CHUNK_BYTES // (CHUNK_CELL_BYTES * n_servers))


def _circulation_runs(sizes: np.ndarray) -> list[tuple[slice, slice, int]]:
    """Maximal runs of consecutive equal-size circulations.

    Each run is ``(circulation slice, server slice, size)``.  Viewing a
    run's server columns as ``(rows, circulations, size)`` makes one
    ``sum/max(axis=2)`` call reduce every circulation of the run; each
    circulation's block is still reduced on its own, contiguously, so
    the result equals the per-circulation ``sum/max(axis=1)`` bit for
    bit.  The standard partition has at most two runs: the full
    circulations and a ragged trailing one.
    """
    runs = []
    first = start = 0
    for index in range(1, len(sizes) + 1):
        if index < len(sizes) and sizes[index] == sizes[first]:
            continue
        size = int(sizes[first])
        stop = start + (index - first) * size
        runs.append((slice(first, index), slice(start, stop), size))
        first, start = index, stop
    return runs


def _scheduled_plane(sim, raw: np.ndarray) -> np.ndarray:
    """The whole-trace scheduled utilisation plane ``U[step, server]``.

    ``NoScheduler`` and ``IdealBalancer`` (the paper's two schemes) are
    computed as array expressions; any other scheduler falls back to a
    per-cell call so data-dependent balancers stay bit-faithful.
    """
    n_steps = raw.shape[0]
    plane = np.empty_like(raw)
    scheduler = sim._scheduler
    for group in sim._groups:
        start, stop = int(group[0]), int(group[0]) + group.size
        block = raw[:, start:stop]
        if type(scheduler) is NoScheduler:
            plane[:, start:stop] = block
        elif type(scheduler) is IdealBalancer:
            means = block.mean(axis=1)
            plane[:, start:stop] = np.repeat(means[:, None], group.size,
                                             axis=1)
        else:
            for step in range(n_steps):
                plane[step, start:stop] = scheduler.schedule(block[step])
    return plane


def _batched_decisions(sim, plane: np.ndarray, bindings: np.ndarray,
                       sizes: np.ndarray, first_cell: np.ndarray,
                       order: np.ndarray, n_circs: int) -> list | None:
    """All unique decisions through the vectorised batch path, or ``None``.

    Returns decisions in priming (first-occurrence) order, i.e. aligned
    with ``order``.  Falls back — returning ``None`` so the caller runs
    the scalar per-uid loop — when:

    * the simulator or its policy does not implement the batch protocol
      (third-party policies keep working through ``sim._decide``);
    * the plane contains values outside ``[0, 1]`` (or NaN) — the serial
      path raises on the first offending *vector*, inside the policy,
      so the scalar loop must run to reproduce that exact error.

    The representative binding for each unique cell is read back from
    the precomputed ``bindings`` plane: row reductions of a C-contiguous
    block are bit-equal to reducing the cell's 1-D vector, so the value
    handed to the cache equals what :meth:`CoolingDecisionCache.decide`
    would have computed from the full vector.
    """
    decide_batch = getattr(sim, "_decide_batch", None)
    policy = getattr(sim, "_policy", None)
    if decide_batch is None or policy is None:
        return None
    if not callable(getattr(policy, "decide_batch", None)):
        return None
    if plane.size == 0:
        return None
    lo, hi = plane.min(), plane.max()
    if not (lo >= 0.0 and hi <= 1.0):  # NaN compares false: falls back
        return None
    cell = first_cell[order]
    steps, circs = np.divmod(cell, n_circs)
    rep_bindings = bindings[steps, circs]
    rep_sizes = sizes[circs]
    with obs.span("kernel.decide_batch"):
        decisions = decide_batch(rep_bindings, rep_sizes)
    obs.add("engine.kernel.batched_decisions", len(decisions))
    return decisions


def _decide_cells(sim, plane: np.ndarray):
    """Cooling decisions for every ``(step, circulation)`` cell.

    Returns ``(setting_id, applied_settings)``: a ``(steps x circs)``
    array of indices into the deduplicated list of clamped settings.
    Unique ``(binding bucket, group size)`` keys are decided once, in
    first-occurrence order, through ``sim._decide`` — so the decision
    cache and any memoising policy are primed with exactly the vectors
    (and in exactly the order) the serial loop would have used, and
    duplicate cells are accounted as cache hits.
    """
    groups = sim._groups
    n_steps = plane.shape[0]
    n_circs = len(groups)
    cells = n_steps * n_circs
    policy = sim._policy
    aggregation = getattr(policy, "aggregation", "max")

    bindings = np.empty((n_steps, n_circs))
    for index, group in enumerate(groups):
        start, stop = int(group[0]), int(group[0]) + group.size
        block = plane[:, start:stop]
        bindings[:, index] = (block.mean(axis=1) if aggregation == "avg"
                              else block.max(axis=1))

    resolution = getattr(policy, "cache_resolution", None)
    if resolution:
        # Same bucketing as the policy memo and the decision cache:
        # np.rint and round() both round half to even.
        keys = np.rint(bindings / resolution)
    else:
        keys = bindings
    sizes = np.array([group.size for group in groups], dtype=float)
    first_cell = None
    if resolution and keys.size:
        # Quantised buckets are small integers: encode (bucket, size)
        # into one int64 and deduplicate in 1-D, which is an order of
        # magnitude faster than the row-wise unique below and — because
        # the encoding is monotone in (bucket, size) — yields the same
        # unique order, the same inverse and the same first cells.
        # NaN/inf/overflowing buckets compare false and fall through.
        if float(np.abs(keys).max()) < 2.0**31:
            usizes, size_code = np.unique(sizes.astype(np.int64),
                                          return_inverse=True)
            codes = (keys.astype(np.int64) * len(usizes)
                     + size_code.ravel()).ravel()
            # 1-D unique promises first-occurrence indices.
            _, first_cell, inverse = np.unique(
                codes, return_index=True, return_inverse=True)
            inverse = inverse.ravel()
            first_cell = first_cell.astype(np.int64)
            n_uniq = len(first_cell)
    if first_cell is None:
        pairs = np.column_stack((keys.ravel(),
                                 np.broadcast_to(sizes, (n_steps,
                                                         n_circs)).ravel()))
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        n_uniq = len(uniq)
        # First occurrence per unique key, guaranteed (np.unique's
        # return_index does not promise first occurrences for axis-based
        # calls); priming must follow the serial cell order.
        first_cell = np.full(n_uniq, cells, dtype=np.int64)
        np.minimum.at(first_cell, inverse, np.arange(cells))

    cdu = sim._circulations[0].cdu
    decisions = [None] * n_uniq
    order = np.argsort(first_cell, kind="stable")
    batched = _batched_decisions(sim, plane, bindings, sizes, first_cell,
                                 order, n_circs)
    if batched is not None:
        for uid, decision in zip(order, batched):
            decisions[int(uid)] = decision
    else:
        for uid in order:
            step, circ = divmod(int(first_cell[uid]), n_circs)
            group = groups[circ]
            vector = plane[step, int(group[0]):int(group[0]) + group.size]
            decisions[uid] = sim._decide(vector)
    cache = getattr(sim, "_cache", None)
    if cache is not None:
        # The serial loop would have looked every cell up; duplicates
        # were served by construction, so they count as hits.
        cache.stats.hits += cells - n_uniq
    obs.add("engine.kernel.decide_cells", cells)
    obs.add("engine.kernel.unique_decisions", n_uniq)

    setting_index: dict[tuple[float, float], int] = {}
    applied_settings = []
    uid_to_sid = np.empty(n_uniq, dtype=np.intp)
    for uid, decision in enumerate(decisions):
        applied = cdu.clamp(decision.setting)
        key = (applied.flow_l_per_h, applied.inlet_temp_c)
        sid = setting_index.get(key)
        if sid is None:
            sid = setting_index[key] = len(applied_settings)
            applied_settings.append(applied)
        uid_to_sid[uid] = sid
    setting_id = uid_to_sid[inverse].reshape(n_steps, n_circs)
    return setting_id, applied_settings


def _evaluate_chunks(sim, plane: np.ndarray, setting_id: np.ndarray,
                     applied_settings: list, sizes: np.ndarray,
                     timings: KernelTimings):
    """Phases 2–3 in one pass over row chunks of the scheduled plane.

    Each chunk of :func:`chunk_rows` steps expands its ``setting_id``
    rows to servers, runs the thermal/TEG model entry points once per
    setting present in the chunk (the model objects' own methods, so
    every model mode and subclass goes through here), and reduces the
    chunk's rows into the per-circulation ``generation_c``, ``heat_c``
    and ``max_temp_c`` columns while they are still in cache.  Only the
    CPU-temperature plane is kept whole: the error replay and the
    violation records read it.  Model time accumulates into
    ``timings.evaluate_s`` and reduction time into ``timings.reduce_s``.

    Returns ``(cpu_temp_plane, generation_c, heat_c, max_temp_c)``.
    """
    cpu_model = sim.cpu_model
    teg_module = sim.teg_module
    cold_source_c = sim.config.cold_source_temp_c
    n_steps, n_servers = plane.shape
    n_circs = len(sizes)
    runs = _circulation_runs(sizes)
    cpu_temp_plane = np.empty((n_steps, n_servers))
    generation_c = np.empty((n_steps, n_circs))
    heat_c = np.empty((n_steps, n_circs))
    max_temp_c = np.empty((n_steps, n_circs))
    rows = chunk_rows(n_servers)
    for top in range(0, n_steps, rows):
        clock = time.perf_counter()
        chunk = slice(top, top + rows)
        utils = plane[chunk]
        cpu_temp = cpu_temp_plane[chunk]
        teg_power = np.empty(utils.shape)
        cell_sid = np.repeat(setting_id[chunk], sizes, axis=1)
        for sid in np.unique(setting_id[chunk]):
            cells = cell_sid == sid
            applied = applied_settings[sid]
            batch = utils[cells]
            cpu_temp[cells] = cpu_model.cpu_temp_c(batch, applied)
            outlets = cpu_model.outlet_temp_c(batch, applied)
            teg_power[cells] = teg_module.generation_w(
                outlets, cold_source_c, applied.flow_l_per_h)
        cpu_power = cpu_model.cpu_power_w(utils)
        split = time.perf_counter()
        timings.evaluate_s += split - clock

        height = utils.shape[0]
        for circs, servers, size in runs:
            generation_c[chunk, circs] = teg_power[:, servers].reshape(
                height, -1, size).sum(axis=2)
            heat_c[chunk, circs] = cpu_power[:, servers].reshape(
                height, -1, size).sum(axis=2)
            max_temp_c[chunk, circs] = cpu_temp[:, servers].reshape(
                height, -1, size).max(axis=2)
        timings.reduce_s += time.perf_counter() - split
    return cpu_temp_plane, generation_c, heat_c, max_temp_c


def _earliest_error(sim, chiller_heat, tower_heat,
                    cpu_temp_plane, interval_s: float) -> KernelError | None:
    """The first error the serial loop would have raised, or ``None``.

    Serial ordering inside one step: every circulation's *evaluation*
    (chiller capacity check, then tower capacity check, per circulation
    in order) runs before the step's aggregation (strict-safety check,
    per circulation in order).  Across steps, the earliest step wins.
    The error is *captured*, not raised, so a shard can report it to
    the merge, which decides whether this shard's error is the globally
    earliest one.
    """
    groups = sim._groups
    n_circs = len(groups)
    circulations = sim._circulations

    chiller_cap = np.array([c.chiller.capacity_kw
                            for c in circulations]) * 1000.0
    tower_cap = np.array([c.tower.max_heat_kw
                          for c in circulations]) * 1000.0
    capacity_mask = ((chiller_heat > chiller_cap[None, :])
                     | (tower_heat > tower_cap[None, :]))
    capacity_cells = np.nonzero(capacity_mask.ravel())[0]
    capacity_step = (int(capacity_cells[0]) // n_circs
                     if capacity_cells.size else None)

    violating = np.empty(0, dtype=np.int64)
    violation_step = None
    if sim.config.strict_safety:
        limit = sim.cpu_model.max_operating_temp_c
        violating = np.nonzero((cpu_temp_plane > limit).ravel())[0]
        if violating.size:
            violation_step = int(violating[0]) // cpu_temp_plane.shape[1]

    if capacity_step is not None and (violation_step is None
                                      or capacity_step <= violation_step):
        step, circ = divmod(int(capacity_cells[0]), n_circs)
        circulation = circulations[circ]
        heat = float(chiller_heat[step, circ])
        try:
            if heat > circulation.chiller.capacity_kw * 1000.0:
                circulation.chiller.electricity_w_for_heat(heat)
            circulation.tower.electricity_w_for_heat(
                float(tower_heat[step, circ]))
        except PhysicalRangeError as exc:
            return KernelError(exception=exc, phase=0, step=step, circ=circ)
        raise AssertionError(
            "capacity cell did not raise")  # pragma: no cover
    if violation_step is not None:
        flat = int(violating[0])
        step, server = divmod(flat, cpu_temp_plane.shape[1])
        circ = next(index for index, group in enumerate(groups)
                    if group[0] <= server <= group[-1])
        group = groups[circ]
        time_s = (sim.step_offset + step) * interval_s
        exc = CoolingFailureError(
            f"CPU over temperature at t={time_s:.0f}s in "
            f"circulation starting at server "
            f"{int(group[0]) + sim.server_offset}",
            server_id=int(server) + sim.server_offset,
            temperature_c=float(cpu_temp_plane[step, server]),
            step_index=sim.step_offset + step,
        )
        return KernelError(exception=exc, phase=1, step=step, circ=circ)
    return None


def run_kernel_columns(sim) -> KernelColumns:
    """Phases 1–3 for ``sim``'s whole trace: per-circulation columns.

    ``sim`` is a (engine-cached) :class:`DatacenterSimulator`; its
    scheduler, policy, partitioning, circulations and decision hook are
    reused so the columns — including the captured exception of a
    chiller / tower capacity breach or a strict-safety violation — are
    bit-identical to what ``sim.run()``'s serial loop computes.  Phase
    timings are stored on a fresh ``sim.kernel_timings`` (the caller
    adds ``fold_s`` after :func:`fold_columns`).

    Violation records and error attributes are emitted in the
    simulator's global frame (``step_offset`` / ``server_offset``), so
    a shard's columns can be merged without rewriting them.
    """
    timings = KernelTimings()
    sim.kernel_timings = timings
    trace = sim.trace
    raw = trace.utilisation
    n_steps = raw.shape[0]
    groups = sim._groups
    circulations = sim._circulations
    interval_s = trace.interval_s

    # Phase 1 — schedule + decide (cache-deduplicated).
    clock = time.perf_counter()
    with obs.span("kernel.decide"):
        plane = _scheduled_plane(sim, raw)
        setting_id, applied_settings = _decide_cells(sim, plane)
    timings.decide_s = time.perf_counter() - clock

    # Phases 2–3 — the fused chunk pass: model calls, then circulation
    # reductions, one cache-sized block of rows at a time.
    sizes = np.array([group.size for group in groups])
    with obs.span("kernel.evaluate"):
        cpu_temp_plane, generation_c, heat_c, max_temp_c = _evaluate_chunks(
            sim, plane, setting_id, applied_settings, sizes, timings)

    # Phase 3, cell-wise — facility accounting, errors and violations.
    clock = time.perf_counter()
    with obs.span("kernel.reduce"):
        tower = circulations[0].tower
        wet_bulb_c = circulations[0].wet_bulb_c
        coldest_c = tower.coldest_supply_c(wet_bulb_c)
        fraction_by_sid = np.array([
            0.0 if applied.inlet_temp_c >= coldest_c
            else min(1.0, (coldest_c - applied.inlet_temp_c) / 10.0)
            for applied in applied_settings])
        inlet_by_sid = np.array([applied.inlet_temp_c
                                 for applied in applied_settings])
        flow_by_sid = np.array([applied.flow_l_per_h
                                for applied in applied_settings])
        pump_by_sid = np.array([
            loop_pump_power_w(circulations[0].pipe_segments,
                              applied.flow_l_per_h, applied.inlet_temp_c)
            for applied in applied_settings])

        chiller_heat = heat_c * fraction_by_sid[setting_id]
        tower_heat = heat_c - chiller_heat
        # Power splits are safe arithmetic even past a capacity breach,
        # so compute them unconditionally; the merge discards them when
        # an error wins.
        chiller_power_c = chiller_heat / circulations[0].chiller.cop
        tower_power_c = tower_heat / 1000.0 * tower.fan_power_w_per_kw
        pump_power_c = sizes[None, :] * pump_by_sid[setting_id]
        inlet_cell = inlet_by_sid[setting_id]
        flow_cell = flow_by_sid[setting_id]

        error = _earliest_error(sim, chiller_heat, tower_heat,
                                cpu_temp_plane, interval_s)
        violations: list[SafetyViolation] = []
        violation_counts = np.zeros(n_steps, dtype=np.int64)
        if error is None:
            limit = sim.cpu_model.max_operating_temp_c
            violation_plane = cpu_temp_plane > limit
            violation_counts = violation_plane.sum(axis=1)
            violation_steps, violation_servers = np.nonzero(violation_plane)
            violations = [
                SafetyViolation(
                    server_id=int(server) + sim.server_offset,
                    step_index=int(step) + sim.step_offset,
                    time_s=float((step + sim.step_offset) * interval_s),
                    temperature_c=float(cpu_temp_plane[step, server]),
                )
                for step, server in zip(violation_steps, violation_servers)]
    timings.reduce_s += time.perf_counter() - clock

    return KernelColumns(
        generation_c=generation_c,
        heat_c=heat_c,
        chiller_power_c=chiller_power_c,
        tower_power_c=tower_power_c,
        pump_power_c=pump_power_c,
        max_temp_c=max_temp_c,
        inlet_cell=inlet_cell,
        flow_cell=flow_cell,
        sizes=sizes,
        violation_counts=violation_counts,
        violations=violations,
        error=error,
    )


def fold_columns(columns: KernelColumns, n_servers: int) -> dict:
    """Phase 4: fold circulation columns into per-step cluster columns.

    Sequential adds in circulation order over *full-length* columns —
    exactly the serial ``_aggregate_step`` accumulation.  The sharding
    merge calls this once on stitched whole-cluster columns rather than
    summing per-shard subtotals, because float addition is not
    associative and only this order reproduces the unsharded fold bit
    for bit.
    """
    n_steps, n_circs = columns.heat_c.shape
    total_generation = np.zeros(n_steps)
    total_cpu_power = np.zeros(n_steps)
    total_chiller = np.zeros(n_steps)
    total_tower = np.zeros(n_steps)
    total_pump = np.zeros(n_steps)
    inlet_sum = np.zeros(n_steps)
    flow_sum = np.zeros(n_steps)
    max_cpu_temp = np.full(n_steps, -np.inf)
    for index in range(n_circs):
        size = int(columns.sizes[index])
        total_generation += columns.generation_c[:, index]
        total_cpu_power += columns.heat_c[:, index]
        total_chiller += columns.chiller_power_c[:, index]
        total_tower += columns.tower_power_c[:, index]
        total_pump += columns.pump_power_c[:, index]
        np.maximum(max_cpu_temp, columns.max_temp_c[:, index],
                   out=max_cpu_temp)
        inlet_sum += columns.inlet_cell[:, index] * size
        flow_sum += columns.flow_cell[:, index] * size
    return {
        "generation_per_cpu_w": total_generation / n_servers,
        "cpu_power_per_cpu_w": total_cpu_power / n_servers,
        "mean_inlet_temp_c": inlet_sum / n_servers,
        "mean_flow_l_per_h": flow_sum / n_servers,
        "max_cpu_temp_c": max_cpu_temp,
        "chiller_power_w": total_chiller,
        "tower_power_w": total_tower,
        "pump_power_w": total_pump,
    }


def run_whole_trace(sim) -> SimulationResult:
    """Replay the full trace of a fault-free simulator as NumPy kernels.

    ``sim`` is a (engine-cached) :class:`DatacenterSimulator`; its
    scheduler, policy, partitioning, circulations and decision hook are
    reused so the output — including the exception raised on a chiller /
    tower capacity breach or a strict-safety violation — is bit-identical
    to ``sim.run()``'s serial loop.  Phase timings are stored on
    ``sim.kernel_timings``.
    """
    columns = run_kernel_columns(sim)
    if columns.error is not None:
        raise columns.error.exception
    timings = sim.kernel_timings
    trace = sim.trace
    raw = trace.utilisation
    n_steps, n_servers = raw.shape
    interval_s = trace.interval_s

    # Phase 4 — fold circulations into per-step cluster aggregates, in
    # circulation order with sequential adds (the serial accumulation).
    clock = time.perf_counter()
    with obs.span("kernel.fold"):
        sim._violation_log = columns.violations
        records = ColumnarSteps({
            "time_s": (sim.step_offset + np.arange(n_steps)) * interval_s,
            "mean_utilisation": raw.mean(axis=1),
            "max_utilisation": raw.max(axis=1),
            **fold_columns(columns, n_servers),
            "safety_violations": columns.violation_counts,
            "degraded_circulations": np.zeros(n_steps, dtype=np.int64),
            "lost_harvest_w": np.zeros(n_steps),
            "active_faults": np.zeros(n_steps, dtype=np.int64),
        })
        result = SimulationResult(
            scheme=sim.config.name,
            trace_name=trace.name,
            n_servers=n_servers,
            interval_s=interval_s,
            records=records,
        )
        result.violations = sim._violation_log
    timings.fold_s = time.perf_counter() - clock
    return result
