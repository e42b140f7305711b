"""Batch execution engine for (scheme x trace) simulation sweeps.

Every headline result of the paper (Fig. 14/15, Table I, the ablations)
re-runs :class:`~repro.core.simulator.DatacenterSimulator` once per
scheme per trace.  This module turns that hot path into a batch API:

* :class:`SimulationJob` names one (trace, config) pair to evaluate;
* :class:`BatchSimulationEngine` runs a list of jobs — whole, or split
  into shard tiles — as units of one dispatch loop over a process pool
  (``concurrent.futures``), degrading gracefully to threads or an
  in-process executor when processes are unavailable, with a
  ``REPRO_WORKERS`` environment override;
* inside each job the whole-trace kernel (:mod:`repro.core.kernel`)
  replaces the per-step Python loop unless the job's inputs need the
  serial loop (see :func:`resolve_mode`), and cooling decisions are
  memoised by :class:`CoolingDecisionCache`;
* :class:`EngineMetrics` (wall time per phase, steps/sec, cache hit
  rate) is attached to every :class:`~repro.core.results.SimulationResult`
  so benchmarks can assert speedups.

Bit-identity
------------
Engine results are **bit-identical** to the serial
``DatacenterSimulator.run`` path:

* all per-server quantities (CPU temperature, outlet temperature, CPU
  power, TEG power) are elementwise NumPy computations, so evaluating a
  gathered multi-circulation batch yields exactly the per-circulation
  values;
* per-circulation sums and the cluster-level accumulation reuse the
  simulator's own :meth:`DatacenterSimulator._aggregate_step`, in the
  same circulation order;
* the decision cache only serves hits that provably reproduce what the
  policy itself would return (see :class:`CoolingDecisionCache`).

The golden and determinism tests in ``tests/core/test_engine.py``
enforce this equivalence.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import signal
import time
import uuid
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ThreadPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .. import obs
from ..errors import (ConfigurationError, JobExecutionError,
                      ShardExecutionError)
from ..faults import FaultSchedule
from ..teg.module import TegModule
from ..thermal.cpu_model import CpuThermalModel
from ..workloads.trace import WorkloadTrace
from .cache import ResultCache, resolve_result_cache, result_key, warm_keys
from .checkpoint import _pid_alive
from .config import SimulationConfig
from .kernel import KernelTimings, run_whole_trace
from .results import SimulationResult
from .simulator import DatacenterSimulator

#: Environment variable overriding the engine's worker count.
#: ``0`` or ``1`` force the serial in-process path.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable setting the per-job wall-clock budget (seconds).
#: Enforced on pooled executors; see ``docs/engine.md`` for the exact
#: guarantees per executor kind.
JOB_TIMEOUT_ENV_VAR = "REPRO_JOB_TIMEOUT"

#: Environment variable setting the shard straggler deadline (seconds):
#: a dispatched shard that has been *running* this long is speculatively
#: re-dispatched once; first completion wins, the loser is cancelled.
SHARD_STRAGGLER_ENV_VAR = "REPRO_SHARD_STRAGGLER"

#: How often the batch layer polls in-flight futures for completion,
#: timeouts and pool breakage.
_POLL_INTERVAL_S = 0.05

#: Default utilisation quantisation of the cooling-decision cache,
#: matching :class:`~repro.control.cooling_policy.LookupSpacePolicy`.
DEFAULT_CACHE_RESOLUTION = 0.005

def resolve_mode(trace: WorkloadTrace,
                 faults: FaultSchedule | None = None) -> str:
    """The execution path a job takes, worked out from its inputs.

    * ``"loop"`` — the serial cached loop, for a job with an active
      fault schedule (degraded fallback and shadow accounting live in
      the simulator's step) or a ``WorkloadTrace`` *subclass* (it may
      override ``step()``, which the whole-trace kernel would bypass);
    * ``"kernel"`` — the whole-trace NumPy pipeline, for every other job.

    Both are bit-identical to ``DatacenterSimulator.run``, the oracle.
    """
    if faults is not None and len(faults) > 0:
        return "loop"
    return "kernel" if type(trace) is WorkloadTrace else "loop"


# ----------------------------------------------------------------------
# Cooling-decision cache
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CoolingDecisionCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``decide`` calls answered."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class CoolingDecisionCache:
    """Memoised cooling-setting decisions across steps and circulations.

    The ``control.cooling_policy`` / ``control.lookup_space`` search is
    the dominant per-decision cost and highly repetitive across steps:
    the decision depends only on the *binding* utilisation (the max or
    mean of the circulation's utilisation vector), which revisits the
    same quantised values over and over.

    Keys are derived from the quantised utilisation vector together with
    the cold-source temperature and the policy identity (the ``context``
    tuple).  Hits are guaranteed bit-identical to calling the policy:

    * for :class:`~repro.control.cooling_policy.LookupSpacePolicy` (it
      exposes ``cache_resolution``) the key uses the same quantised
      binding bucket the policy's own memo uses, so any colliding vector
      would be answered with the identical cached decision by the policy
      itself;
    * for policies without an internal memo (analytic, static) the key
      carries the *exact* binding utilisation, and the decision is a
      pure function of it.
    """

    def __init__(self, resolution: float = DEFAULT_CACHE_RESOLUTION) -> None:
        if resolution <= 0:
            raise ConfigurationError(
                f"cache resolution must be > 0, got {resolution}")
        self.resolution = resolution
        self.stats = CacheStats()
        self._store: dict = {}

    def __len__(self) -> int:
        return len(self._store)

    def decide(self, policy, utilisations: np.ndarray, context: tuple = ()):
        """Return ``policy.decide(utilisations)``, memoised.

        Parameters
        ----------
        policy:
            Any cooling policy keyed on a binding utilisation through an
            ``aggregation`` attribute (``"max"`` or ``"avg"``).
        utilisations:
            The scheduled per-server utilisation vector.
        context:
            Hashable policy/environment identity (policy kind, cold
            source temperature, safe temperature, ...) so one cache can
            serve several simulations without cross-talk.
        """
        utils = np.asarray(utilisations, dtype=float)
        aggregation = getattr(policy, "aggregation", "max")
        if aggregation == "avg":
            binding = float(utils.mean())
        else:
            binding = float(utils.max())
        policy_resolution = getattr(policy, "cache_resolution", None)
        if policy_resolution:
            # Same bucketing (and same round()) as the policy's memo.
            binding_key = round(binding / policy_resolution)
        else:
            binding_key = binding
        key = (context, aggregation, utils.size, binding_key)
        cached = self._store.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        decision = policy.decide(utils)
        self._store[key] = decision
        self.stats.misses += 1
        return decision

    def decide_batch(self, policy, bindings: np.ndarray,
                     sizes: np.ndarray, context: tuple = ()) -> list:
        """Memoised decisions for pre-aggregated ``(binding, size)`` pairs.

        The batched counterpart of :meth:`decide` for callers (the
        columnar kernel) that have already reduced each utilisation
        vector to its binding value.  ``bindings[i]`` must be bit-equal
        to the aggregation :meth:`decide` would compute from the full
        vector, and ``sizes[i]`` is that vector's length; the cache key
        is then identical to the scalar path's.  Misses are answered by
        one ``policy.decide_batch`` call and inserted in input order, so
        the store's insertion order (which the warm-start exporter
        consumes) matches a scalar-loop replay exactly.

        Callers must ensure the pairs map to *distinct* cache keys (the
        kernel's unique-cell dedup guarantees this); duplicate keys
        within one batch would each be counted and computed as a miss.
        """
        aggregation = getattr(policy, "aggregation", "max")
        policy_resolution = getattr(policy, "cache_resolution", None)
        decisions: list = [None] * len(bindings)
        miss_at: list[int] = []
        miss_keys: list[tuple] = []
        miss_bindings: list[float] = []
        for i, raw in enumerate(bindings):
            binding = float(raw)
            if policy_resolution:
                binding_key = round(binding / policy_resolution)
            else:
                binding_key = binding
            key = (context, aggregation, int(sizes[i]), binding_key)
            cached = self._store.get(key)
            if cached is not None:
                self.stats.hits += 1
                decisions[i] = cached
            else:
                miss_at.append(i)
                miss_keys.append(key)
                miss_bindings.append(binding)
        if miss_at:
            computed = policy.decide_batch(miss_bindings)
            for i, key, decision in zip(miss_at, miss_keys, computed):
                decisions[i] = decision
                self._store[key] = decision
                self.stats.misses += 1
        return decisions


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

@dataclass
class EngineMetrics:
    """Observability attached to engine-produced results.

    Attributes
    ----------
    setup_time_s / step_time_s / wall_time_s:
        Wall time spent building the simulator (policy, lookup space,
        circulations), stepping the trace, and in total.
    n_steps / steps_per_s:
        Steps replayed and throughput of the stepping phase.
    cache_hits / cache_misses / cache_hit_rate:
        Cooling-decision cache counters for this run.
    mode:
        Execution path that ran (see :func:`resolve_mode`): ``"kernel"``
        or ``"loop"``.
    kernel:
        Per-phase wall times of the whole-trace kernel
        (decide/evaluate/reduce/fold); ``None`` outside kernel mode.
    executor / n_workers:
        How the batch layer ran this job (``"process"``, ``"thread"``
        or ``"serial"``); filled in by :class:`BatchSimulationEngine`.
    retries:
        How many failed attempts preceded the one that produced this
        result (0 on a first-try success); filled in by the batch layer.
    n_shards:
        How many shards this job was split into (0 when it ran whole;
        see :mod:`repro.core.shard`).
    shards_resumed:
        How many of those shards were loaded from a checkpoint
        directory instead of computed (see
        :mod:`repro.core.checkpoint`).
    """

    setup_time_s: float = 0.0
    step_time_s: float = 0.0
    wall_time_s: float = 0.0
    n_steps: int = 0
    steps_per_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    mode: str = "kernel"
    kernel: KernelTimings | None = None
    executor: str = "serial"
    n_workers: int = 1
    retries: int = 0
    n_shards: int = 0
    shards_resumed: int = 0
    #: Whether this result was served from the content-addressed result
    #: cache (:mod:`repro.core.cache`) instead of being computed.
    result_cache_hit: bool = False

    def summary(self) -> dict:
        """Headline metrics as a plain dictionary (for tables/JSON)."""
        summary = {
            "wall_time_s": round(self.wall_time_s, 4),
            "steps_per_s": round(self.steps_per_s, 1),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "mode": self.mode,
            "executor": self.executor,
            "n_workers": self.n_workers,
            "retries": self.retries,
        }
        if self.n_shards:
            summary["shards"] = self.n_shards
        if self.shards_resumed:
            summary["shards_resumed"] = self.shards_resumed
        if self.result_cache_hit:
            summary["result_cache_hit"] = True
        if self.kernel is not None:
            summary["kernel"] = self.kernel.summary()
        return summary


@dataclass(frozen=True)
class BatchMetrics:
    """Aggregate metrics of one :meth:`BatchSimulationEngine.run` call.

    ``retries`` counts failed attempts that were retried, ``timeouts``
    counts jobs killed by the wall-clock budget, and ``n_failed`` counts
    jobs that exhausted their attempts (each has a matching
    :class:`FailedJob` record on the :class:`BatchResult`).
    """

    wall_time_s: float
    n_jobs: int
    n_workers: int
    executor: str
    total_steps: int
    steps_per_s: float
    cache_hits: int
    cache_misses: int
    retries: int = 0
    timeouts: int = 0
    n_failed: int = 0
    #: Total shards dispatched across all sharded jobs (0 = none).
    shards: int = 0
    #: Shards loaded from a checkpoint directory instead of computed.
    shards_resumed: int = 0
    #: Whole (non-sharded) jobs answered from a checkpointed result.
    jobs_resumed: int = 0
    #: Jobs served from the content-addressed result cache.
    result_cache_hits: int = 0
    #: Jobs whose cache lookup missed (and were then computed).
    result_cache_misses: int = 0
    #: Duplicate jobs answered by fanning out another job's result.
    jobs_deduped: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate cooling-cache hit rate across all jobs."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    def summary(self) -> dict:
        """Headline metrics as a plain dictionary (for tables/JSON)."""
        summary = {
            "jobs": self.n_jobs,
            "executor": self.executor,
            "workers": self.n_workers,
            "wall_time_s": round(self.wall_time_s, 3),
            "steps_per_s": round(self.steps_per_s, 1),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failed": self.n_failed,
        }
        if self.shards:
            summary["shards"] = self.shards
        if self.shards_resumed:
            summary["shards_resumed"] = self.shards_resumed
        if self.jobs_resumed:
            summary["jobs_resumed"] = self.jobs_resumed
        if self.result_cache_hits or self.result_cache_misses:
            summary["result_cache_hits"] = self.result_cache_hits
            summary["result_cache_misses"] = self.result_cache_misses
        if self.jobs_deduped:
            summary["jobs_deduped"] = self.jobs_deduped
        return summary


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationJob:
    """One (scheme x trace) pair to evaluate.

    ``cpu_model`` / ``teg_module`` default to the simulator's
    paper-calibrated hardware when omitted; heterogeneous-fleet sweeps
    pass per-slice models.  ``faults`` attaches an optional
    :class:`~repro.faults.FaultSchedule`; jobs without one keep the
    bit-exact nominal path.
    """

    trace: WorkloadTrace
    config: SimulationConfig
    cpu_model: CpuThermalModel | None = None
    teg_module: TegModule | None = None
    faults: FaultSchedule | None = None

    @property
    def key(self) -> tuple[str, str]:
        """``(scheme, trace)`` label used to index batch results."""
        return (self.config.name, self.trace.name)


class _CachedVectorisedSimulator(DatacenterSimulator):
    """A :class:`DatacenterSimulator` with memoised decisions.

    The scheduler, policy, partitioning and aggregation all come from
    the parent class.  Cooling decisions always route through a
    :class:`CoolingDecisionCache`; in ``"kernel"`` mode (see
    :func:`resolve_mode`) the step loop is skipped entirely for the
    whole-trace pipeline of :mod:`repro.core.kernel`, otherwise the
    parent's serial loop runs.
    """

    def __init__(self, trace: WorkloadTrace, config: SimulationConfig,
                 cpu_model: CpuThermalModel | None = None,
                 teg_module: TegModule | None = None,
                 cache: CoolingDecisionCache | None = None,
                 faults: FaultSchedule | None = None,
                 step_offset: int = 0,
                 server_offset: int = 0) -> None:
        kwargs = {}
        if cpu_model is not None:
            kwargs["cpu_model"] = cpu_model
        if teg_module is not None:
            kwargs["teg_module"] = teg_module
        super().__init__(trace, config, faults=faults,
                         step_offset=step_offset,
                         server_offset=server_offset, **kwargs)
        # `is None` check: an empty cache is falsy (it has __len__).
        self._cache = cache if cache is not None else CoolingDecisionCache()
        self._mode = resolve_mode(trace, faults)
        self.kernel_timings: KernelTimings | None = None
        self._context = (config.name, config.policy, config.scheduler,
                         config.cold_source_temp_c, config.safe_temp_c)

    @property
    def cache(self) -> CoolingDecisionCache:
        """The cooling-decision cache backing this simulator."""
        return self._cache

    @property
    def mode(self) -> str:
        """Execution path in effect: ``"kernel"`` or ``"loop"``."""
        return self._mode

    def _decide(self, scheduled: np.ndarray):
        return self._cache.decide(self._policy, scheduled, self._context)

    def _decide_batch(self, bindings: np.ndarray, sizes: np.ndarray) -> list:
        """Batched :meth:`_decide` over pre-aggregated bindings.

        The columnar kernel calls this with one ``(binding, size)``
        pair per unique decision cell; see
        :meth:`CoolingDecisionCache.decide_batch` for the contract.
        """
        return self._cache.decide_batch(self._policy, bindings, sizes,
                                        self._context)

    def run(self) -> SimulationResult:
        if self._mode != "kernel":
            return super().run()
        self._check_trace_width()
        self._violation_log = []
        result = run_whole_trace(self)
        self._record_telemetry(result)
        return result


def simulate(trace: WorkloadTrace, config: SimulationConfig,
             cpu_model: CpuThermalModel | None = None,
             teg_module: TegModule | None = None, *,
             cache: CoolingDecisionCache | None = None,
             cache_resolution: float = DEFAULT_CACHE_RESOLUTION,
             faults: FaultSchedule | None = None,
             telemetry: bool | None = None,
             result_cache=None,
             ) -> SimulationResult:
    """Run one scheme over one trace through the engine's fast path.

    Returns a :class:`SimulationResult` that is bit-identical to
    ``DatacenterSimulator(trace, config, ...).run()`` but carries
    :class:`EngineMetrics` (phase wall times, steps/sec, cache stats,
    kernel-phase timings).  The inputs choose the execution path (see
    :func:`resolve_mode`): a ``faults`` schedule or a trace subclass
    steps through the simulator's serial loop (decisions stay cached),
    every other job runs the whole-trace kernel.

    ``telemetry`` (explicit, else ``REPRO_TELEMETRY``) records the run
    into a *private* :class:`repro.obs.Telemetry` session and attaches
    its frozen :class:`~repro.obs.TelemetrySnapshot` to
    ``result.telemetry`` — worker processes pickle that snapshot back to
    the batch layer.  Telemetry is purely observational: records are
    bit-identical with it on or off.

    ``result_cache`` (a :class:`~repro.core.cache.ResultCache`, a
    directory, ``True``/``False``, or ``None`` to consult
    ``REPRO_CACHE``) memoises the whole run on disk: a content-key hit
    returns the persisted result — bit-identical records — without
    simulating, a miss stores the computed result, and the run's
    cooling-decision state is saved as a warm-start snapshot for
    near-miss runs (see ``docs/cache.md``).
    """
    started = time.perf_counter()
    if cache is None:
        cache = CoolingDecisionCache(resolution=cache_resolution)
    store = resolve_result_cache(result_cache)
    key = None
    has_faults = faults is not None and len(faults) > 0
    if store is not None and type(trace) is WorkloadTrace:
        key = result_key(trace, config, cpu_model, teg_module,
                         faults=faults if has_faults else None,
                         cache_resolution=cache.resolution,
                         mode=resolve_mode(trace, faults))
        cached = store.load(key)
        if cached is not None:
            return cached
    local = obs.Telemetry() if obs.telemetry_enabled(telemetry) else None
    context = obs.session(local) if local is not None else nullcontext()
    hits_before, misses_before = cache.stats.hits, cache.stats.misses
    with context:
        with obs.span("engine.simulate"):
            with obs.span("engine.setup"):
                simulator = _CachedVectorisedSimulator(
                    trace, config, cpu_model, teg_module, cache=cache,
                    faults=faults)
                warmed = None
                if key is not None and not has_faults:
                    warmed = _warm_restore(store, simulator, trace,
                                           config, cpu_model, teg_module)
            setup_done = time.perf_counter()
            result = simulator.run()
            finished = time.perf_counter()
        if local is not None:
            # Deltas, not absolutes: the cache may be shared across
            # calls, and batch aggregation must sum per-job work only.
            labels = {"scheme": config.name, "trace": trace.name}
            obs.add("engine.cache.hits", cache.stats.hits - hits_before,
                    labels=labels)
            obs.add("engine.cache.misses",
                    cache.stats.misses - misses_before, labels=labels)
    step_time = finished - setup_done
    result.metrics = EngineMetrics(
        setup_time_s=setup_done - started,
        step_time_s=step_time,
        wall_time_s=finished - started,
        n_steps=trace.n_steps,
        steps_per_s=trace.n_steps / step_time if step_time > 0 else 0.0,
        cache_hits=cache.stats.hits,
        cache_misses=cache.stats.misses,
        cache_hit_rate=cache.stats.hit_rate,
        mode=simulator.mode,
        kernel=simulator.kernel_timings,
    )
    if local is not None:
        result.telemetry = local.snapshot()
    if key is not None:
        store.store(key, result)
        if not has_faults and warmed != "direct":
            _warm_save(store, simulator, trace, config, cpu_model,
                       teg_module)
    return result


def _warm_restore(store: ResultCache, simulator, trace, config,
                  cpu_model, teg_module, *,
                  trace_hash: str | None = None) -> str | None:
    """Prime a simulator's decision cache from a warm-start snapshot.

    Returns ``"direct"`` when the snapshot's decision key (W1) matched
    and the saved decisions were installed verbatim (re-tagged to this
    run's cache context), ``"replay"`` when only the binding key (W2)
    matched and each saved bucket's representative binding was replayed
    through the *current* policy, or ``None`` when nothing usable was
    found.  Either path installs exactly the decisions a cold run would
    compute, so warmed runs stay bit-identical (see ``docs/cache.md``).
    """
    policy = simulator._policy
    resolution = getattr(policy, "cache_resolution", None)
    if not resolution:
        return None
    aggregation = getattr(policy, "aggregation", "max")
    w1, w2 = warm_keys(trace, config, cpu_model, teg_module,
                       aggregation=aggregation,
                       policy_resolution=resolution,
                       trace_hash=trace_hash)
    payload = store.load_warm(w2)
    if payload is None:
        return None
    context = simulator._context
    cache_store = simulator._cache._store
    if payload.get("w1") == w1:
        for agg, size, binding_key, decision in payload["entries"]:
            cache_store.setdefault((context, agg, size, binding_key),
                                   decision)
        return "direct"
    for agg, size, binding_key, decision in payload["entries"]:
        cache_key = (context, agg, size, binding_key)
        if cache_key in cache_store:
            continue
        # Replay the bucket's representative binding through the
        # current policy.  A single-element vector aggregates (max or
        # mean) to exactly that binding, so this both primes the
        # policy's own memo and yields the decision a cold run would
        # compute for the bucket — the engine-cache key must carry the
        # *saved* vector size, hence the manual insert.
        replayed = policy.decide(
            np.asarray([decision.binding_utilisation]))
        cache_store[cache_key] = replayed
    return "replay"


def _warm_save(store: ResultCache, simulator, trace, config,
               cpu_model, teg_module, *,
               trace_hash: str | None = None) -> None:
    """Persist a completed run's decision-cache state as a warm snapshot.

    Entries are filtered to this run's cache context (one shared cache
    may serve several configs) and stored context-free in
    first-occurrence order, so a replay re-derives the policy memo in
    the same order a cold run would fill it.
    """
    policy = simulator._policy
    resolution = getattr(policy, "cache_resolution", None)
    if not resolution:
        return
    context = simulator._context
    entries = [(agg, size, binding_key, decision)
               for (ctx, agg, size, binding_key), decision
               in simulator._cache._store.items() if ctx == context]
    if not entries:
        return
    aggregation = getattr(policy, "aggregation", "max")
    w1, w2 = warm_keys(trace, config, cpu_model, teg_module,
                       aggregation=aggregation,
                       policy_resolution=resolution,
                       trace_hash=trace_hash)
    store.store_warm(w1, w2, entries)


# ----------------------------------------------------------------------
# Zero-copy trace dispatch (process pools)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SharedTraceRef:
    """Handle to a trace plane living in ``multiprocessing.shared_memory``.

    The handle is what a process-pool job pickles instead of the
    ``(steps x servers)`` array: segment name, shape/dtype to rebuild
    the NumPy view, and the trace metadata.  The segment is owned by the
    :class:`BatchSimulationEngine` that created it and stays alive until
    the engine is closed (see ``docs/engine.md`` for the contract).

    ``row_start:row_stop`` / ``col_start:col_stop`` select a rectangular
    window of the plane (``None`` stops mean "to the end"): a shard of a
    fleet-scale trace ships the *same* segment name with different
    window bounds, so worker payload size stays independent of both the
    trace length and the shard count, and the worker maps the segment
    exactly once however many windows of it it is asked to run.
    """

    shm_name: str
    shape: tuple[int, int]
    dtype: str
    interval_s: float
    name: str
    row_start: int = 0
    row_stop: int | None = None
    col_start: int = 0
    col_stop: int | None = None


#: Name prefix of every shared-memory segment this package creates.
#: The owning pid is embedded right after it
#: (``repro-shm-{pid}-{token}``) so the reaper can tell a crashed run's
#: orphan from a live run's segment without guessing.
SEGMENT_PREFIX = "repro-shm-"

#: Every live registry in this process; the janitor (atexit + SIGTERM)
#: closes whatever is still here when the coordinator dies, so segments
#: cannot outlive it on any exit path short of SIGKILL.
_LIVE_REGISTRIES: "weakref.WeakSet[_SharedTraceRegistry]" = weakref.WeakSet()

_JANITOR_INSTALLED = False


def _close_live_registries() -> None:
    """Unlink every segment still owned by this process (best effort).

    Forked workers inherit ``_LIVE_REGISTRIES`` (and the SIGTERM
    handler) from the coordinator; the owner-pid check keeps a dying
    worker from unlinking segments the coordinator is still serving.
    """
    for registry in list(_LIVE_REGISTRIES):
        if registry.owner_pid != os.getpid():
            continue
        try:
            registry.close()
        except Exception:  # pragma: no cover - dying anyway
            pass


def _install_segment_janitor() -> None:
    """One-time atexit + SIGTERM hook that unlinks owned segments.

    The SIGTERM handler chains to whatever handler was installed before
    it (or re-raises the default disposition), so embedding
    applications keep their own shutdown behaviour.  Installing from a
    non-main thread silently keeps the atexit half only — CPython
    forbids signal handlers elsewhere.
    """
    global _JANITOR_INSTALLED
    if _JANITOR_INSTALLED:
        return
    _JANITOR_INSTALLED = True
    atexit.register(_close_live_registries)
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum, frame):
            _close_live_registries()
            if callable(previous):
                previous(signum, frame)
            else:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def reap_orphaned_segments(directory: str | os.PathLike = "/dev/shm"
                           ) -> list[str]:
    """Unlink ``repro``-tagged segments whose owning process is dead.

    SIGKILL (OOM killer, ``kill -9``) gives the janitor no chance to
    run, so a crashed coordinator can leave its trace segments behind.
    Their names embed the owner pid; any segment whose pid no longer
    exists is an orphan and is removed.  Segments of live processes —
    including this one — are never touched.  Returns the names reaped.
    """
    root = Path(directory)
    if not root.is_dir():  # pragma: no cover - non-POSIX-shm platform
        return []
    reaped = []
    for path in root.glob(SEGMENT_PREFIX + "*"):
        tail = path.name[len(SEGMENT_PREFIX):]
        try:
            pid = int(tail.split("-", 1)[0])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent reaper
            continue
        reaped.append(path.name)
    return reaped


class _SharedTraceRegistry:
    """Owner-side registry of shared-memory trace segments.

    One engine owns one registry.  ``ref_for`` uploads a trace's plane
    into a fresh segment on first sight (keyed by object identity — the
    registry keeps a strong reference, so a key can never be recycled
    while its entry lives) and returns the same :class:`SharedTraceRef`
    for every job that reuses the trace.  ``close`` unmaps and unlinks
    every segment; workers that still hold a mapping keep it until they
    drop it (POSIX unlink semantics), so no copy is ever torn out from
    under a running job.

    Segments are named ``repro-shm-{pid}-{token}`` and every registry
    joins the module janitor (atexit + SIGTERM), so normal and
    signalled exits unlink them; only SIGKILL can orphan one, and
    :func:`reap_orphaned_segments` picks those up on the next run.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[WorkloadTrace,
                                       shared_memory.SharedMemory,
                                       SharedTraceRef]] = {}
        #: Scratch segments (shard column blocks) keyed by name; same
        #: pid-stamped naming and janitor coverage as trace segments,
        #: but released per job rather than living engine-long.
        self._scratch: dict[str, shared_memory.SharedMemory] = {}
        #: Only this pid may unlink the registry's segments — a forked
        #: worker inherits the object but never owns it.
        self.owner_pid = os.getpid()
        _LIVE_REGISTRIES.add(self)
        _install_segment_janitor()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _create_segment(size: int) -> shared_memory.SharedMemory:
        """A fresh segment with a ``repro``-tagged, pid-stamped name."""
        for _ in range(8):
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
            try:
                return shared_memory.SharedMemory(name=name, create=True,
                                                  size=size)
            except FileExistsError:  # pragma: no cover - token collision
                continue
        # Eight collisions means something is squatting on the
        # namespace; an anonymous name still works, it just cannot be
        # reaped after a SIGKILL.
        return shared_memory.SharedMemory(  # pragma: no cover
            create=True, size=size)

    def ref_for(self, trace: WorkloadTrace) -> SharedTraceRef:
        """The (possibly freshly uploaded) shared handle for ``trace``."""
        entry = self._entries.get(id(trace))
        if entry is not None:
            return entry[2]
        matrix = trace.utilisation
        block = self._create_segment(matrix.nbytes)
        try:
            np.ndarray(matrix.shape, dtype=matrix.dtype,
                       buffer=block.buf)[:] = matrix
            ref = SharedTraceRef(
                shm_name=block.name,
                shape=matrix.shape,
                dtype=str(matrix.dtype),
                interval_s=trace.interval_s,
                name=trace.name,
            )
            self._entries[id(trace)] = (trace, block, ref)
        except BaseException:
            # The upload died between create and registration: unlink
            # now or nobody ever will.
            self._release(block, unlink=True)
            raise
        return ref

    def scratch_block(self, nbytes: int) -> shared_memory.SharedMemory:
        """A janitor-covered scratch segment of ``nbytes``.

        Same pid-stamped naming (and therefore reaping and janitor
        coverage) as trace segments; the caller releases it with
        :meth:`release_scratch` when the job that filled it is merged,
        or :meth:`close` sweeps whatever is left.
        """
        block = self._create_segment(nbytes)
        self._scratch[block.name] = block
        return block

    def release_scratch(self, block: shared_memory.SharedMemory) -> None:
        """Unmap and unlink one scratch segment (idempotent).

        Workers still holding a mapping keep it until they drop it
        (POSIX unlink semantics), so a straggling speculative shard can
        finish writing harmlessly.  A still-exported coordinator-side
        view makes the unmap fail quietly; the unlink still runs, so
        the segment cannot outlive the process either way.
        """
        self._scratch.pop(block.name, None)
        self._release(block, unlink=os.getpid() == self.owner_pid)

    def close(self) -> None:
        """Unmap and unlink every owned segment (idempotent).

        A process that merely inherited the registry across ``fork``
        unmaps but never unlinks — the segments still belong to the
        coordinator.
        """
        unlink = os.getpid() == self.owner_pid
        while self._scratch:
            self._release(self._scratch.popitem()[1], unlink)
        while self._entries:
            self._release(self._entries.popitem()[1][1], unlink)

    @staticmethod
    def _release(block: shared_memory.SharedMemory, unlink: bool) -> None:
        """Unmap ``block`` and, when ``unlink``, remove it (best effort)."""
        try:
            block.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            pass
        if unlink:
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


#: Per-worker cache of attached shared-memory segments, keyed by segment
#: name: one ``(SharedMemory, full plane)`` pair per segment for the
#: worker process's lifetime, however many windows of it are dispatched.
_WORKER_BLOCKS: dict[str, tuple[shared_memory.SharedMemory,
                                np.ndarray]] = {}

#: Per-worker cache of wrapped trace (windows), keyed by the full ref —
#: window bounds included — so validating and wrapping happens once per
#: distinct window and every subsequent job ships only the ref.
_WORKER_TRACES: dict[SharedTraceRef, WorkloadTrace] = {}


def _trace_from_ref(ref: SharedTraceRef) -> WorkloadTrace:
    """Attach (or reuse) the shared trace window named by ``ref``."""
    trace = _WORKER_TRACES.get(ref)
    if trace is not None:
        return trace
    entry = _WORKER_BLOCKS.get(ref.shm_name)
    if entry is None:
        # Attaching re-registers the segment with the resource tracker
        # the worker shares with the engine's process; registration is
        # set-idempotent, and the engine's own unlink balances it, so no
        # unregister dance is needed here.
        block = shared_memory.SharedMemory(name=ref.shm_name)
        matrix = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                            buffer=block.buf)
        entry = _WORKER_BLOCKS[ref.shm_name] = (block, matrix)
    block, matrix = entry
    view = matrix[ref.row_start:ref.row_stop, ref.col_start:ref.col_stop]
    trace = WorkloadTrace.from_shared(view, ref.interval_s,
                                      name=ref.name, block=block)
    _WORKER_TRACES[ref] = trace
    return trace


@dataclass(frozen=True)
class _JobPayload:
    """What a whole job's unit hands its worker: config + trace (handle).

    Everything except the trace rides along as-is (configs and hardware
    models are tiny).  For a process worker the trace plane is
    referenced by a :class:`SharedTraceRef`, so payload size is
    independent of trace length — the property the zero-copy dispatch
    tests pin down.  In-process workers, and ``WorkloadTrace``
    *subclasses* (an overridden ``step``, say, which a rebuilt plain
    trace would lose), get the trace object itself via ``trace``.
    """

    trace_ref: SharedTraceRef | None
    config: SimulationConfig
    cpu_model: CpuThermalModel | None
    teg_module: TegModule | None
    faults: FaultSchedule | None
    cache_resolution: float
    trace: WorkloadTrace | None = None
    #: Resolved by the engine before dispatch so worker processes need
    #: no environment propagation to agree on whether to record.
    telemetry: bool = False
    #: Result cache resolved by the engine before dispatch (``None``
    #: keeps caching off in the worker whatever its env says): its
    #: directory for process workers, the engine's shared
    #: :class:`~repro.core.cache.ResultCache` for in-process ones, so
    #: all threads write through one store.
    cache: "ResultCache | str | None" = None


def _execute_payload(payload: _JobPayload) -> SimulationResult:
    """Worker entry point of a whole job (module-level: picklable)."""
    if payload.trace is not None:
        trace = payload.trace
    else:
        trace = _trace_from_ref(payload.trace_ref)
    return simulate(trace, payload.config, payload.cpu_model,
                    payload.teg_module,
                    cache_resolution=payload.cache_resolution,
                    faults=payload.faults,
                    telemetry=payload.telemetry,
                    result_cache=(payload.cache if payload.cache is not None
                                  else False))


# ----------------------------------------------------------------------
# Batch layer
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FailedJob:
    """Structured record of one job the batch could not complete.

    Attributes
    ----------
    scheme / trace_name:
        The job's ``(scheme, trace)`` label.
    error_type / message:
        Class name and text of the last failure (for a worker crash this
        is the pool's ``BrokenProcessPool``-style error; the batch keeps
        running either way).
    attempts:
        Execution attempts consumed, including the first one.
    elapsed_s:
        Wall-clock time spent on this job across all attempts.
    timed_out:
        Whether the final attempt was killed by the ``REPRO_JOB_TIMEOUT``
        wall-clock budget (timeouts are terminal; they are not retried).
    """

    scheme: str
    trace_name: str
    error_type: str
    message: str
    attempts: int = 1
    elapsed_s: float = 0.0
    timed_out: bool = False

    @property
    def key(self) -> tuple[str, str]:
        """``(scheme, trace)`` label matching :attr:`SimulationJob.key`."""
        return (self.scheme, self.trace_name)

    def to_error(self) -> JobExecutionError:
        """Re-package the record as a raisable :class:`JobExecutionError`."""
        return JobExecutionError(
            f"job ({self.scheme!r}, {self.trace_name!r}) failed after "
            f"{self.attempts} attempt(s): [{self.error_type}] {self.message}",
            scheme=self.scheme, trace_name=self.trace_name,
            attempts=self.attempts, elapsed_s=self.elapsed_s,
            timed_out=self.timed_out)


@dataclass
class BatchResult:
    """Results and aggregate metrics of one batch run.

    ``results`` holds every job that completed, in submission order;
    ``failures`` holds a :class:`FailedJob` record for every job that
    did not.  A crashed or timed-out job never aborts the batch — check
    :attr:`ok` (or ``metrics.n_failed``) before trusting completeness.
    """

    results: list[SimulationResult]
    metrics: BatchMetrics
    failures: list[FailedJob] = field(default_factory=list)
    #: The batch-level :class:`repro.obs.Telemetry` session (``None``
    #: when telemetry was off): every worker snapshot merged, plus the
    #: engine's own counters, spans and events.  The CLI renders run
    #: artefacts (manifest, events, Prometheus snapshot) from it.
    telemetry: "obs.Telemetry | None" = field(default=None, repr=False,
                                              compare=False)

    @property
    def ok(self) -> bool:
        """True when every submitted job produced a result."""
        return not self.failures

    def get(self, scheme: str, trace_name: str) -> SimulationResult:
        """Look one result up by its (scheme, trace) label.

        Raises
        ------
        JobExecutionError
            When the job ran but failed (the :class:`FailedJob` record
            is re-packaged with its attempt/timeout details).
        ConfigurationError
            When no job with that label was submitted at all.
        """
        for result in self.results:
            if (result.scheme, result.trace_name) == (scheme, trace_name):
                return result
        for failed in self.failures:
            if failed.key == (scheme, trace_name):
                raise failed.to_error()
        raise ConfigurationError(
            f"no result for scheme {scheme!r} on trace {trace_name!r}")

    def summaries(self) -> list[dict]:
        """Per-job headline summaries plus engine metrics."""
        out = []
        for result in self.results:
            summary = result.summary()
            if result.metrics is not None:
                summary["engine"] = result.metrics.summary()
            out.append(summary)
        return out


def resolve_workers(n_workers: int | None, n_jobs: int) -> int:
    """Worker count for a batch: explicit > ``REPRO_WORKERS`` > default.

    The default is one worker per job capped at the CPU count; the
    result is always at least 1 (``0`` forces the serial path).

    Raises
    ------
    ConfigurationError
        When ``REPRO_WORKERS`` is set to a non-integer or negative
        value.
    """
    if n_workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is not None:
            try:
                n_workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV_VAR} must be an integer, "
                    f"got {env!r}") from None
            if n_workers < 0:
                raise ConfigurationError(
                    f"{WORKERS_ENV_VAR} must be >= 0, got {n_workers}")
        else:
            n_workers = min(n_jobs, os.cpu_count() or 1)
    return max(1, min(n_workers, max(n_jobs, 1)))


def _resolve_seconds(value: float | None, env_var: str,
                     label: str) -> float | None:
    """A positive duration: explicit > ``env_var`` > ``None`` (unset)."""
    if value is None:
        env = os.environ.get(env_var)
        if env is None:
            return None
        try:
            value = float(env)
        except ValueError:
            raise ConfigurationError(
                f"{env_var} must be a number of seconds, "
                f"got {env!r}") from None
        if value <= 0:
            raise ConfigurationError(f"{env_var} must be > 0, got {env!r}")
        return value
    if value <= 0:
        raise ConfigurationError(
            f"{label} must be > 0 seconds, got {value}")
    return value


def resolve_job_timeout(timeout_s: float | None = None) -> float | None:
    """Per-job wall-clock budget: explicit > ``REPRO_JOB_TIMEOUT`` > none.

    Returns ``None`` when no timeout is configured.

    Raises
    ------
    ConfigurationError
        When ``REPRO_JOB_TIMEOUT`` is set to a non-numeric or
        non-positive value (an explicit non-positive argument raises
        too).
    """
    return _resolve_seconds(timeout_s, JOB_TIMEOUT_ENV_VAR, "job timeout")


def resolve_shard_straggler(deadline_s: float | None = None
                            ) -> float | None:
    """Straggler deadline: explicit > ``REPRO_SHARD_STRAGGLER`` > none.

    Returns ``None`` when speculative re-dispatch is off.

    Raises
    ------
    ConfigurationError
        When ``REPRO_SHARD_STRAGGLER`` (or an explicit argument) is
        non-numeric or non-positive.
    """
    return _resolve_seconds(deadline_s, SHARD_STRAGGLER_ENV_VAR,
                            "shard straggler deadline")


class _InlineExecutor(Executor):
    """Runs each unit in this thread the moment it is submitted.

    The serial executor of the dispatch loop: it cannot pre-empt a
    unit, so the wall-clock budget and straggler re-dispatch never
    fire on it.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _kill_executor(executor, kind: str) -> None:
    """Tear a pool down without waiting on hung workers.

    Process workers are terminated outright (a hung worker would
    otherwise block shutdown and interpreter exit).  Thread workers
    cannot be killed in CPython; the pool is abandoned and a truly hung
    thread may delay interpreter exit — documented in
    ``docs/engine.md``.
    """
    # Snapshot the worker processes *before* shutdown: the executor
    # clears its ``_processes`` map on shutdown even with ``wait=False``,
    # which would leave a hung worker unkillable.
    processes = []
    if kind == "process":
        processes = list((getattr(executor, "_processes", None)
                          or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()


@dataclass(eq=False)
class _JobState:
    """One job of a batch while the dispatch loop runs it.

    A whole job is one unit whose ``task`` runs :func:`simulate` in a
    worker.  A sharded job's ``driver`` (a
    :class:`~repro.core.shard.ShardDriver`) turns it into one unit per
    tile still to compute and folds each tile as it lands; the job
    finishes when the last one has.
    """

    index: int
    job: SimulationJob
    health: obs.RunHealth
    #: ``(function, *args)`` of a whole job's unit.
    task: tuple = ()
    #: Whole-job checkpoint store: the result is saved as it lands.
    store: object = None
    driver: object = None
    retries: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    pending: int = 0
    result: SimulationResult | None = None
    #: The terminal exception, kept for callers that re-raise it.
    error: BaseException | None = None
    failure: FailedJob | None = None

    @property
    def labels(self) -> dict:
        return {"scheme": self.job.config.name, "trace": self.job.trace.name}

    @property
    def finished(self) -> bool:
        return self.result is not None or self.failure is not None

    def units(self) -> list["_Unit"]:
        """The job's units; a sharded job resumes and primes here."""
        if self.driver is None:
            return [_Unit(self, None, self.task)]
        try:
            specs = self.driver.begin()
        except Exception as exc:
            self.fail(exc, attempts=1)
            return []
        self.pending = len(specs)
        if not specs:
            self._finish()
        return [_Unit(self, spec, self.driver.task(spec)) for spec in specs]

    def land(self, unit: "_Unit", value) -> None:
        """Fold one unit's value; a save error propagates."""
        if self.driver is None:
            if self.store is not None:
                self.store.save_result(value)
            self._succeed(value)
            return
        self.driver.land(value)
        self.pending -= 1
        if not self.pending:
            self._finish()

    def _finish(self) -> None:
        try:
            result = self.driver.finish()
        except Exception as exc:  # the run's own error, raised by the merge
            self.fail(exc, attempts=1)
        else:
            self._succeed(result)

    def _succeed(self, result: SimulationResult) -> None:
        if result.metrics is not None:
            result.metrics.retries = self.retries
        self.result = result
        self.health.job_done()

    def fail(self, exc: BaseException, attempts: int,
             timed_out: bool = False) -> None:
        """Fail the job with ``exc`` after ``attempts`` of its unit."""
        self.error = exc
        self.failure = FailedJob(
            scheme=self.job.config.name, trace_name=self.job.trace.name,
            error_type=type(exc).__name__, message=str(exc),
            attempts=attempts,
            elapsed_s=time.perf_counter() - self.started_at,
            timed_out=timed_out)
        self.health.job_done(failed=True)
        obs.emit("job.timeout" if timed_out else "job.failed",
                 **self.labels, attempt=attempts,
                 error_type=type(exc).__name__, error=str(exc))
        if self.driver is not None:
            self.driver.close()


@dataclass(eq=False)
class _Unit:
    """One thing the dispatch loop submits: a whole job or a kernel tile."""

    state: _JobState
    #: The tile's :class:`~repro.core.shard.ShardSpec`; ``None`` for a
    #: whole job.
    spec: object
    task: tuple
    attempts: int = 0
    speculated: bool = False


@dataclass
class _UnitLoop:
    """The one dispatch loop of whole jobs and shard tiles.

    Every unit follows the same rules:

    * **retry** — up to ``1 + max_retries`` attempts, sleeping
      ``backoff_s * 2**(attempt-1)`` in between (:meth:`retry`);
    * **timeout** — a pool unit running ``timeout_s`` is terminal and
      fails its job; the job's other tiles are cancelled;
    * **straggler** — a tile running ``straggler_s`` gets one
      speculative copy, first to land wins (tiles are deterministic; a
      whole job may be a trace subclass with side effects, so it gets
      none);
    * **isolation** — when the shared pool breaks or a timeout tears it
      down, every unfinished unit re-runs in its own single-worker
      pool, so a crash or hang lands on exactly the unit that caused
      it.

    ``kind`` is the executor kind: ``"process"``, ``"thread"`` or
    ``"serial"`` (an :class:`_InlineExecutor`, which runs one unit at a
    time, so results land — and are checkpointed — one by one).
    """

    kind: str
    max_retries: int = 0
    backoff_s: float = 0.0
    timeout_s: float | None = None
    straggler_s: float | None = None
    retries: int = 0
    timeouts: int = 0

    def run(self, states: Sequence[_JobState], executor,
            discard=None) -> None:
        """Run every state's units on ``executor`` until all finish.

        ``discard()`` drops the shared pool once it can no longer be
        trusted; the unfinished units then run in isolation.
        """
        units = itertools.chain.from_iterable(
            state.units() for state in states)
        leftovers = self._drain(units, executor, shared=True)
        if leftovers:
            discard()
        for unit in leftovers:
            self._drain(iter([unit]), self._fresh_pool(), shared=False)

    def _fresh_pool(self):
        if self.kind == "process":
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(max_workers=1)
        return ThreadPoolExecutor(max_workers=1)

    def retry(self, state: _JobState, attempt: int, exc: BaseException,
              spec=None) -> bool:
        """Record failed attempt ``attempt``; True when another follows.

        Emits ``job.retry`` or ``shard.retry`` (tiles and fault windows
        pass their ``spec``; an exhausted one also emits
        ``shard.failed``) and sleeps the backoff before a retry.
        """
        retrying = attempt <= self.max_retries
        data = {**state.labels, "attempt": attempt,
                "error_type": type(exc).__name__, "error": str(exc)}
        if spec is not None:
            if isinstance(exc, ShardExecutionError):
                exc.attempt = attempt
                data.update(exc.context())
            else:
                data.update(shard_index=spec.index,
                            step_start=spec.step_start,
                            step_stop=spec.step_stop,
                            server_start=spec.server_start,
                            server_stop=spec.server_stop, worker_pid=None)
        if not retrying:
            if spec is not None:
                obs.emit("shard.failed", **data)
            return False
        self.retries += 1
        state.retries += 1
        obs.emit("job.retry" if spec is None else "shard.retry", **data)
        if spec is not None:
            obs.add("engine.shards.retried", 1)
        if self.backoff_s > 0:
            time.sleep(self.backoff_s * 2 ** (attempt - 1))
        return True

    def _drain(self, units, executor, shared: bool) -> list[_Unit]:
        """Run ``units`` on ``executor`` until none is left in flight.

        On the shared pool a break or a timeout returns every
        unfinished unit for isolated re-runs, and the attempt a pool
        break interrupted is not charged.  On a private single-unit
        pool (``shared=False``) a break is the unit's own failure: the
        pool is replaced and the unit retried; the pool is killed on
        the way out.
        """
        futures: dict[Future, _Unit] = {}
        since: dict[Future, float] = {}
        again: list[_Unit] = []  # retries and speculative copies
        window = 1 if self.kind == "serial" else None
        poll = (_POLL_INTERVAL_S if self.timeout_s is not None
                or self.straggler_s is not None else None)

        def leftovers(*extra: _Unit) -> list[_Unit]:
            rest = dict.fromkeys([*extra, *futures.values(), *again, *units])
            return [unit for unit in rest if not unit.state.finished]

        def drop(match) -> None:
            for future, unit in list(futures.items()):
                if match(unit):
                    future.cancel()
                    del futures[future]

        try:
            while True:
                while window is None or len(futures) < window:
                    unit = again.pop(0) if again else next(units, None)
                    if unit is None:
                        break
                    if unit.state.finished:
                        continue
                    try:
                        futures[executor.submit(*unit.task)] = unit
                    except BrokenExecutor:
                        if shared:
                            return leftovers(unit)
                        raise
                if not futures:
                    return []
                completed, _ = wait(futures, timeout=poll,
                                    return_when=FIRST_COMPLETED)
                for future in completed:
                    unit = futures.pop(future, None)
                    if unit is None or future.cancelled():
                        continue  # a twin landed, or the job failed
                    unit.attempts += 1
                    try:
                        value = future.result()
                    except BrokenExecutor as exc:
                        if shared:
                            unit.attempts -= 1
                            return leftovers(unit)
                        _kill_executor(executor, self.kind)
                        executor = self._fresh_pool()
                        error = exc
                    except Exception as exc:
                        error = exc
                    else:
                        if unit.speculated:
                            drop(lambda other: other is unit)
                        unit.state.land(unit, value)
                        continue
                    if self.retry(unit.state, unit.attempts, error,
                                  unit.spec):
                        again.append(unit)
                    else:
                        unit.state.fail(error, unit.attempts)
                        drop(lambda other: other.state is unit.state)
                if poll is None:
                    continue
                now = time.perf_counter()
                for future, unit in list(futures.items()):
                    if future not in since:
                        if future.running():
                            since[future] = now
                        continue
                    running = now - since[future]
                    if (self.timeout_s is not None
                            and running >= self.timeout_s):
                        del futures[future]
                        unit.attempts += 1
                        self.timeouts += 1
                        what = ("job" if unit.spec is None
                                else f"shard {unit.spec.index}")
                        unit.state.fail(TimeoutError(
                            f"{what} exceeded the {self.timeout_s:g}s "
                            f"wall-clock budget ({JOB_TIMEOUT_ENV_VAR})"),
                            unit.attempts, timed_out=True)
                        drop(lambda other: other.state is unit.state)
                        return leftovers() if shared else []
                    if (shared and unit.spec is not None
                            and self.straggler_s is not None
                            and not unit.speculated
                            and running >= self.straggler_s):
                        # One copy per tile: a systematically slow tile
                        # must not flood the pool.
                        unit.speculated = True
                        labels = unit.state.labels
                        obs.add("engine.shards.speculated", 1,
                                labels=labels)
                        unit.state.health.straggler()
                        obs.emit("shard.straggler", **labels,
                                 shard=unit.spec.index,
                                 deadline_s=self.straggler_s,
                                 running_s=round(running, 3))
                        again.append(unit)
        finally:
            if not shared:
                _kill_executor(executor, self.kind)


def _fs_slug(name: str, limit: int = 48) -> str:
    """A filesystem-safe rendering of a scheme/trace label."""
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-"
                      for c in name).strip("-")
    return (cleaned or "run")[:limit]


class BatchSimulationEngine:
    """Run many (scheme x trace) simulations through one API.

    Parameters
    ----------
    n_workers:
        Parallel workers; ``None`` defers to ``REPRO_WORKERS`` or the
        CPU count.  ``1`` runs serially in-process.
    cache_resolution:
        Utilisation quantisation of each job's decision cache.
    prefer:
        ``"process"`` (default), ``"thread"`` or ``"serial"``.  Process
        pools that cannot start (sandboxes, exotic platforms) degrade
        automatically: process -> thread -> serial.
    max_retries:
        Extra attempts per unit — a whole job or one shard tile — after
        the first one fails (crashed worker or raised exception).
        Backoff between attempts doubles from ``retry_backoff_s``.
        Timeouts are terminal: a unit killed by the wall-clock budget
        fails its job and is never retried.
    retry_backoff_s:
        Base sleep before attempt ``k``'s retry:
        ``retry_backoff_s * 2**(k-1)`` seconds.
    job_timeout_s:
        Wall-clock budget in seconds of each pool unit (a whole job or
        one shard tile); ``None`` defers to ``REPRO_JOB_TIMEOUT`` (unset
        means no timeout).  Enforced on pooled executors only — the
        serial path cannot pre-empt a unit (see ``docs/engine.md``).
    telemetry:
        Record every run into :mod:`repro.obs`; ``None`` defers to
        ``REPRO_TELEMETRY`` (unset means off).  Each job records into a
        private session whose snapshot rides back on its result; the
        batch merges them all into ``BatchResult.telemetry`` alongside
        engine-level counters (``engine.jobs.*``), the ``engine.batch``
        span and batch/job lifecycle events.  See
        ``docs/observability.md``.
    shard:
        Fleet-scale sharding of individual jobs (see
        :mod:`repro.core.shard` and ``docs/engine.md``).  ``None``
        (default) auto-shards a kernel job once its trace plane reaches
        ``AUTO_SHARD_MIN_CELLS`` cells — or whenever a shard size is
        given explicitly or via the environment; ``True`` forces
        sharding; ``False`` disables it.
    shard_servers / shard_steps:
        Target shard tile size (servers wide, steps long); ``None``
        defers to ``REPRO_SHARD_SERVERS`` / ``REPRO_SHARD_STEPS``, else
        the defaults.  The engine validates these against each job's
        trace **before** dispatch: non-positive values or values
        exceeding the trace dimensions raise ``ConfigurationError`` on
        the coordinator, never a worker-side crash.
    shard_straggler_s:
        Deadline in seconds after which a *running* shard is
        speculatively re-dispatched (once); the first copy to finish
        wins and the loser is cancelled or its result discarded.
        ``None`` defers to ``REPRO_SHARD_STRAGGLER`` (unset means off).
        Results are unaffected — shards are deterministic — only tail
        latency is.
    checkpoint:
        Root directory for durable checkpoint state (see
        :mod:`repro.core.checkpoint` and ``docs/checkpoint.md``).  Each
        job gets a content-keyed subdirectory; sharded jobs persist
        every completed shard as it finishes, whole jobs persist their
        result.  ``None`` (default) disables checkpointing.
    resume:
        With ``checkpoint`` set: ``True`` (default) loads completed
        work from a matching checkpoint and raises
        :class:`~repro.errors.CheckpointError` when the directory
        belongs to a different run; ``False`` wipes per-job state and
        starts fresh.

    Lifetime
    --------
    An engine owns two long-lived resources: the shared executor pool
    (reused across :meth:`run` calls — repeated batches do not re-fork
    workers) and the shared-memory trace segments uploaded for process
    dispatch.  :meth:`close` releases both; the engine is also a context
    manager, and a garbage-collected engine cleans its segments up via a
    finalizer.  :func:`run_batch` closes its throwaway engine for you.
    """

    def __init__(self, n_workers: int | None = None, *,
                 cache_resolution: float = DEFAULT_CACHE_RESOLUTION,
                 prefer: str = "process",
                 max_retries: int = 0,
                 retry_backoff_s: float = 0.1,
                 job_timeout_s: float | None = None,
                 telemetry: bool | None = None,
                 shard: bool | None = None,
                 shard_servers: int | None = None,
                 shard_steps: int | None = None,
                 shard_straggler_s: float | None = None,
                 checkpoint: "str | os.PathLike | None" = None,
                 resume: bool = True,
                 cache=None,
                 metrics_port: int | None = None) -> None:
        if prefer not in ("process", "thread", "serial"):
            raise ConfigurationError(
                f"prefer must be 'process', 'thread' or 'serial', "
                f"got {prefer!r}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if job_timeout_s is not None:
            resolve_job_timeout(job_timeout_s)
        if shard_straggler_s is not None:
            resolve_shard_straggler(shard_straggler_s)
        for label, value in (("shard_servers", shard_servers),
                             ("shard_steps", shard_steps)):
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{label} must be > 0, got {value}")
        self.shard = shard
        self.shard_servers = shard_servers
        self.shard_steps = shard_steps
        self.shard_straggler_s = shard_straggler_s
        self.checkpoint = (None if checkpoint is None
                           else Path(os.fspath(checkpoint)))
        self.resume = resume
        #: Trace plane digests keyed by object identity (strong ref kept
        #: alongside, so an id can never be recycled while cached).
        self._trace_digests: dict[int, tuple[WorkloadTrace, str]] = {}
        self.n_workers = n_workers
        self.cache_resolution = cache_resolution
        self.prefer = prefer
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.job_timeout_s = job_timeout_s
        # Resolved once up front (explicit > REPRO_TELEMETRY > off) so a
        # malformed environment fails here, not inside a worker, and all
        # executors agree on whether jobs record.
        self.metrics_port = obs.resolve_metrics_port(metrics_port)
        if self.metrics_port is not None and telemetry is None:
            # A scrape endpoint without a session would serve nothing.
            telemetry = True
        self.telemetry = obs.telemetry_enabled(telemetry)
        #: Live scrape endpoint (``/metrics`` + ``/healthz``).  Bound
        #: eagerly so callers can report the resolved address before the
        #: first run; each ``run()`` re-binds it to that run's session.
        self._health = obs.RunHealth()
        self._live_server = (obs.LiveTelemetryServer(port=self.metrics_port)
                             if self.metrics_port is not None else None)
        if self._live_server is not None:
            self._live_server.bind(None, self._health)
        # Same treatment for the result cache (explicit > REPRO_CACHE):
        # workers receive the resolved directory, never the env.
        self.result_cache = resolve_result_cache(cache)
        self._cache_dir = (str(self.result_cache.directory)
                           if self.result_cache is not None else None)
        self._shared_traces = _SharedTraceRegistry()
        self._executor = None
        self._executor_kind: str | None = None
        self._executor_workers = 0
        #: How many shared pools this engine has created — stays at 1
        #: across repeated ``run`` calls of the same kind (the reuse the
        #: executor-persistence tests pin down).
        self.executor_launches = 0
        self._finalizer = weakref.finalize(self, self._shared_traces.close)

    # -- lifetime ------------------------------------------------------

    @property
    def metrics_address(self) -> str | None:
        """``http://host:port`` of the live scrape endpoint (or None)."""
        return (self._live_server.url
                if self._live_server is not None else None)

    def close(self) -> None:
        """Release the persistent executor and shared trace segments.

        Idempotent; the engine degrades to creating a fresh pool if it
        is (unusually) run again after closing.
        """
        if self._live_server is not None:
            self._live_server.close()
            self._live_server = None
        self._drop_executor(wait=True)
        self._shared_traces.close()
        self._finalizer.detach()

    def __enter__(self) -> "BatchSimulationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- executors -----------------------------------------------------

    def _ensure_executor(self, kind: str, workers: int):
        """The persistent shared pool, recreated only when unsuitable."""
        if (self._executor is not None and self._executor_kind == kind
                and self._executor_workers >= workers):
            return self._executor
        self._drop_executor(wait=True)
        if kind == "process":
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=workers)
        else:
            executor = ThreadPoolExecutor(max_workers=workers)
        self._executor = executor
        self._executor_kind = kind
        self._executor_workers = workers
        self.executor_launches += 1
        return executor

    def _drop_executor(self, wait: bool = False) -> None:
        """Discard the persistent pool (gracefully or by killing it)."""
        if self._executor is None:
            return
        executor, kind = self._executor, self._executor_kind
        self._executor = None
        self._executor_kind = None
        self._executor_workers = 0
        if wait:
            executor.shutdown(wait=True)
        else:
            _kill_executor(executor, kind)

    def _payload(self, job: SimulationJob,
                 process: bool = True) -> _JobPayload:
        """A whole job's payload; for a process worker, zero-copy.

        Trace subclasses are pickled whole — rebuilding them from a bare
        plane in the worker would strip their overridden behaviour.
        """
        shared = process and type(job.trace) is WorkloadTrace
        return _JobPayload(
            trace_ref=(self._shared_traces.ref_for(job.trace) if shared
                       else None),
            config=job.config,
            cpu_model=job.cpu_model,
            teg_module=job.teg_module,
            faults=job.faults,
            cache_resolution=self.cache_resolution,
            trace=None if shared else job.trace,
            telemetry=self.telemetry,
            cache=self._cache_dir if process else self.result_cache,
        )

    def _open_executor(self, workers: int, n_units: int,
                       jobs: Sequence[SimulationJob]):
        """``(kind, executor)`` a batch runs its units on.

        The kind degrades process -> thread -> serial only here, while
        the pool is opened and the whole ``jobs`` are pre-flight pickled
        for process workers — before any unit is submitted, so nothing
        runs twice and every later error propagates.
        """
        if workers <= 1 or self.prefer == "serial" or n_units <= 1:
            return "serial", _InlineExecutor()
        kinds = (("process", "thread") if self.prefer == "process"
                 else ("thread",))
        for kind in kinds:
            try:
                if kind == "process":
                    pickle.dumps([self._payload(job) for job in jobs])
                return kind, self._ensure_executor(kind, workers)
            except Exception:  # pool unavailable: degrade gracefully
                continue
        return "serial", _InlineExecutor()

    # -- sharded jobs --------------------------------------------------

    def _shard_plan(self, job: SimulationJob,
                    shard_servers: int | None,
                    shard_steps: int | None):
        """Shard specs for one job, or ``None`` to run it whole.

        Validation is coordinator-side by design (the satellite fix of
        the sharding PR): a knob that is non-positive or exceeds the
        job's trace dimensions raises :class:`ConfigurationError` here,
        before anything is dispatched to a worker.
        """
        from .shard import (
            AUTO_SHARD_MIN_CELLS,
            DEFAULT_SHARD_SERVERS,
            DEFAULT_SHARD_STEPS,
            SHARD_SERVERS_ENV_VAR,
            SHARD_STEPS_ENV_VAR,
            plan_shards,
        )

        if self.shard is False:
            return None
        trace = job.trace
        if type(trace) is not WorkloadTrace:
            # Subclasses can carry behaviour (an overridden step());
            # window views would strip it, exactly like the kernel and
            # the zero-copy dispatch, so such jobs run whole.
            return None
        if trace.n_servers < job.config.circulation_size:
            # The unsharded path raises the proper ConfigurationError.
            return None
        explicit = shard_servers is not None or shard_steps is not None
        cells = trace.n_steps * trace.n_servers
        if (not self.shard and not explicit
                and cells < AUTO_SHARD_MIN_CELLS):
            return None
        if shard_servers is not None and shard_servers > trace.n_servers:
            raise ConfigurationError(
                f"shard_servers / {SHARD_SERVERS_ENV_VAR} is "
                f"{shard_servers} but trace {trace.name!r} has only "
                f"{trace.n_servers} servers")
        if shard_steps is not None and shard_steps > trace.n_steps:
            raise ConfigurationError(
                f"shard_steps / {SHARD_STEPS_ENV_VAR} is {shard_steps} "
                f"but trace {trace.name!r} has only {trace.n_steps} "
                f"steps")
        servers = (shard_servers if shard_servers is not None
                   else min(DEFAULT_SHARD_SERVERS, trace.n_servers))
        steps = (shard_steps if shard_steps is not None
                 else min(DEFAULT_SHARD_STEPS, trace.n_steps))
        if job.faults is not None and len(job.faults) > 0:
            servers = None  # masks span the cluster: time-only shards
        specs = plan_shards(trace.n_steps, trace.n_servers,
                            job.config.circulation_size,
                            shard_servers=servers, shard_steps=steps)
        if len(specs) <= 1:
            return None
        return specs

    # -- checkpointing -------------------------------------------------

    def _trace_hash(self, trace: WorkloadTrace) -> str:
        """Content digest of ``trace``, hashed at most once per engine."""
        from .checkpoint import trace_digest

        entry = self._trace_digests.get(id(trace))
        if entry is None:
            entry = (trace, trace_digest(trace))
            self._trace_digests[id(trace)] = entry
        return entry[1]

    def _content_key(self, job: SimulationJob, specs):
        """The result-cache / dedup identity of one job.

        Matches the key a worker's :func:`simulate` derives for the
        same job (same :func:`resolve_mode`, same decision-cache
        resolution), so a result stored by a worker is found by the
        coordinator on the next run and vice versa.  Trace subclasses
        can carry behaviour the plane digest cannot see, so they key on
        object identity — good enough for within-batch dedup, never
        persisted.
        """
        has_faults = job.faults is not None and len(job.faults) > 0
        if type(job.trace) is WorkloadTrace:
            trace_hash = self._trace_hash(job.trace)
        else:
            trace_hash = f"id:{id(job.trace)}"
        return result_key(job.trace, job.config, job.cpu_model,
                          job.teg_module,
                          faults=job.faults if has_faults else None,
                          cache_resolution=self.cache_resolution,
                          mode=resolve_mode(job.trace, job.faults),
                          specs=specs,
                          trace_hash=trace_hash)

    def _job_store(self, job: SimulationJob, specs):
        """The per-job checkpoint store under the engine's root.

        Each job owns a subdirectory named after its scheme, trace and
        the 12-hex content key, so two different runs can never collide
        in one root — a key mismatch simply lands in a different
        directory.  ``specs`` is the job's shard plan (``None`` runs
        whole and checkpoints at job granularity).
        """
        from .checkpoint import CheckpointStore, run_key

        has_faults = job.faults is not None and len(job.faults) > 0
        key = run_key(
            job.trace, job.config, job.cpu_model, job.teg_module,
            faults=job.faults if has_faults else None,
            cache_resolution=self.cache_resolution,
            specs=specs,
            # Every unsharded run has carried this label since the key
            # was introduced; keeping it lets existing roots resume.
            extra=() if specs is not None else (("mode", "kernel"),),
            trace_hash=self._trace_hash(job.trace))
        name = "--".join((_fs_slug(job.config.name),
                          _fs_slug(job.trace.name), key.short))
        kind = ("fault" if has_faults
                else "kernel" if specs is not None else "whole")
        return CheckpointStore(
            self.checkpoint / name, key,
            n_shards=len(specs) if specs is not None else 0,
            kind=kind, resume=self.resume)

    def run(self, jobs: Iterable[SimulationJob]) -> BatchResult:
        """Execute every job; return partial results plus failures.

        Results come back in submission order.  A job that crashes its
        worker, raises, or exceeds the wall-clock budget becomes a
        :class:`FailedJob` record on the returned :class:`BatchResult`
        — it never aborts the batch or takes other jobs' results with
        it.

        With telemetry on, the whole batch runs under one
        :mod:`repro.obs` session: per-job worker snapshots are merged
        into it, engine-level counters and lifecycle events are added,
        and the live session is attached as ``BatchResult.telemetry``.
        """
        jobs = list(jobs)
        if not jobs:
            raise ConfigurationError("batch must contain at least one job")
        for job in jobs:
            if not isinstance(job, SimulationJob):
                raise ConfigurationError(
                    f"jobs must be SimulationJob instances, got "
                    f"{type(job).__name__}")
        batch_telemetry = obs.Telemetry() if self.telemetry else None
        if self._live_server is not None:
            # Point the scrape endpoint at this run's live session so a
            # mid-run GET /metrics sees counters as they accumulate.
            self._live_server.bind(batch_telemetry, self._health)
        context = (obs.session(batch_telemetry)
                   if batch_telemetry is not None else nullcontext())
        try:
            with context:
                with obs.span("engine.batch"):
                    batch = self._run_validated(jobs, batch_telemetry)
        except BaseException:
            self._health.finish("failed")
            raise
        self._health.finish()
        batch.telemetry = batch_telemetry
        return batch

    def _run_validated(self, jobs: list[SimulationJob],
                       batch_telemetry: "obs.Telemetry | None"
                       ) -> BatchResult:
        """Execute a validated job list (under the batch session).

        Checkpoint resume, result-cache pre-checks of sharded jobs and
        within-batch dedup answer what they can; every other job
        becomes units — one per whole job, one per missing tile of a
        sharded job (see :meth:`_shard_plan`) — which one
        :class:`_UnitLoop` runs on one executor, resolved against the
        total unit count.
        """
        from .shard import (
            SHARD_SERVERS_ENV_VAR,
            SHARD_STEPS_ENV_VAR,
            ShardDriver,
            resolve_shard_size,
        )

        reaped = reap_orphaned_segments()
        if reaped:
            obs.add("engine.shm.reaped", len(reaped))
            obs.emit("shm.reap", segments=len(reaped))

        shard_servers = resolve_shard_size(self.shard_servers,
                                           SHARD_SERVERS_ENV_VAR)
        shard_steps = resolve_shard_size(self.shard_steps,
                                         SHARD_STEPS_ENV_VAR)
        plans = {}
        for index, job in enumerate(jobs):
            specs = self._shard_plan(job, shard_servers, shard_steps)
            if specs is not None:
                plans[index] = specs

        # Checkpointing: one content-keyed store per job.  Whole jobs
        # with a saved result are answered from disk before any worker
        # is resolved; sharded jobs resume shard-by-shard inside the
        # shard driver.  Trace subclasses can carry behaviour the
        # plane digest cannot see, so — as with the result cache and
        # dedup — they are never checkpointed.
        stores: dict[int, object] = {}
        resumed_results: dict[int, SimulationResult] = {}
        if self.checkpoint is not None:
            for index, job in enumerate(jobs):
                if type(job.trace) is WorkloadTrace:
                    stores[index] = self._job_store(job, plans.get(index))
            for index, store in stores.items():
                if index in plans:
                    continue
                cached = store.load_result()
                if cached is not None:
                    resumed_results[index] = cached

        # Result cache: sharded jobs are pre-checked here, before any
        # shard plan is primed or dispatched (whole jobs check inside
        # simulate() in their worker, which also gives them warm
        # starts).  A hit drops the job's plan entirely.
        cache_keys: dict[int, object] = {}
        cache_results: dict[int, SimulationResult] = {}
        if self.result_cache is not None:
            for index, job in enumerate(jobs):
                if index in resumed_results or index not in plans:
                    continue
                if type(job.trace) is not WorkloadTrace:
                    continue
                key = self._content_key(job, plans[index])
                cache_keys[index] = key
                cached = self.result_cache.load(key)
                if cached is not None:
                    cache_results[index] = cached
                    plans.pop(index)

        # Within-batch dedup: identical (trace, config, models, faults,
        # mode/plan) jobs execute once; duplicates fan the
        # representative's result out at collection time.
        dup_of: dict[int, int] = {}
        seen_keys: dict = {}
        for index, job in enumerate(jobs):
            if index in resumed_results or index in cache_results:
                continue
            dedup_key = self._content_key(job, plans.get(index))
            rep = seen_keys.setdefault(dedup_key, index)
            if rep != index:
                dup_of[index] = rep
                plans.pop(index, None)
        if dup_of:
            obs.add("engine.jobs.deduped", len(dup_of))
        total_shards = sum(len(specs) for specs in plans.values())

        todo = [index for index in range(len(jobs))
                if index not in resumed_results
                and index not in cache_results and index not in dup_of]
        n_units = sum(len(plans[index]) if index in plans else 1
                      for index in todo)
        self._health.begin(jobs_total=len(jobs), shards_total=total_shards)
        for _ in resumed_results:
            self._health.job_done()
        for _ in cache_results:
            self._health.job_done()
        workers = resolve_workers(self.n_workers, n_units)
        obs.emit("batch.start", n_jobs=len(jobs),
                 workers=workers, prefer=self.prefer,
                 shards=total_shards, resumed=len(resumed_results),
                 deduped=len(dup_of), cache_hits=len(cache_results))
        started = time.perf_counter()
        executor, pool = self._open_executor(
            workers, n_units,
            [jobs[index] for index in todo if index not in plans])
        loop = _UnitLoop(
            executor, max_retries=self.max_retries,
            backoff_s=self.retry_backoff_s,
            timeout_s=resolve_job_timeout(self.job_timeout_s),
            straggler_s=resolve_shard_straggler(self.shard_straggler_s))
        # Whole jobs first: they keep the workers busy while the
        # coordinator primes the sharded jobs' decision caches.  With a
        # live endpoint, shard telemetry folds straight into the batch
        # session, so a mid-run GET /metrics sees repro_shard_* series
        # accumulate.
        states = []
        for index in sorted(todo, key=lambda index: index in plans):
            job = jobs[index]
            state = _JobState(index, job, self._health)
            if index in plans:
                state.driver = ShardDriver(
                    job, plans[index], cache_resolution=self.cache_resolution,
                    telemetry=self.telemetry, store=stores.get(index),
                    result_cache=self.result_cache,
                    trace_hash=(self._trace_hash(job.trace)
                                if self.result_cache is not None
                                else None),
                    retry=partial(loop.retry, state),
                    segments=(self._shared_traces if executor == "process"
                              else None),
                    executor=executor, health=self._health,
                    telemetry_sink=(obs.current()
                                    if self._live_server is not None
                                    else None))
            else:
                state.task = (_execute_payload,
                              self._payload(job, executor == "process"))
                state.store = stores.get(index)
            states.append(state)
        try:
            loop.run(states, pool, discard=self._drop_executor)
        except BaseException:
            # Units may still be running: the pool is not reused.
            self._drop_executor()
            raise
        finally:
            for state in states:
                if state.driver is not None:
                    state.driver.close()
        results_map = {state.index: state.result for state in states
                       if state.result is not None}
        failures_map = {state.index: state.failure for state in states
                        if state.failure is not None}
        results_map.update(resumed_results)
        for index, key in cache_keys.items():
            if index in results_map:
                self.result_cache.store(key, results_map[index])
        results_map.update(cache_results)
        for index, rep in dup_of.items():
            # Duplicates share the representative's result object (or
            # its failure record) — the content key proved them the
            # same run.
            if rep in results_map:
                results_map[index] = results_map[rep]
                self._health.job_done()
            elif rep in failures_map:
                failures_map[index] = failures_map[rep]
                self._health.job_done(failed=True)
        wall = time.perf_counter() - started
        if executor == "serial":
            workers = 1

        results = [results_map[i] for i in sorted(results_map)]
        failures = [failures_map[i] for i in sorted(failures_map)]
        total_steps = 0
        cache_hits = 0
        cache_misses = 0
        shards_resumed = 0
        result_cache_hits = 0
        for index in sorted(results_map):
            metrics = results_map[index].metrics
            if metrics is None:
                continue
            if index in resumed_results:
                # A result answered from the checkpoint keeps the
                # metrics of the run that computed it; nothing here
                # executed, so nothing is re-labelled or re-counted.
                continue
            if index in dup_of:
                # Shares its representative's result object — counted
                # once, under the representative's index.
                continue
            if metrics.result_cache_hit:
                # Same contract as checkpoint-resumed jobs: the metrics
                # describe the run that computed the entry.
                result_cache_hits += 1
                continue
            metrics.executor = executor
            metrics.n_workers = workers
            total_steps += metrics.n_steps
            cache_hits += metrics.cache_hits
            cache_misses += metrics.cache_misses
            shards_resumed += metrics.shards_resumed
        cache_eligible = 0
        if self.result_cache is not None:
            cache_eligible = sum(
                1 for index, job in enumerate(jobs)
                if index not in resumed_results and index not in dup_of
                and type(job.trace) is WorkloadTrace)
        batch = BatchResult(
            results=results,
            failures=failures,
            metrics=BatchMetrics(
                wall_time_s=wall,
                n_jobs=len(jobs),
                n_workers=workers,
                executor=executor,
                total_steps=total_steps,
                steps_per_s=total_steps / wall if wall > 0 else 0.0,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                retries=loop.retries,
                timeouts=loop.timeouts,
                n_failed=len(failures),
                shards=total_shards,
                shards_resumed=shards_resumed,
                jobs_resumed=len(resumed_results),
                result_cache_hits=result_cache_hits,
                result_cache_misses=max(
                    0, cache_eligible - result_cache_hits),
                jobs_deduped=len(dup_of),
            ),
        )
        if batch_telemetry is not None:
            for index in sorted(results_map):
                if index in resumed_results or index in dup_of:
                    # A checkpoint-answered job's snapshot records the
                    # run that computed it, not this one; a duplicate
                    # shares its representative's snapshot.
                    continue
                metrics = results_map[index].metrics
                if metrics is not None and metrics.result_cache_hit:
                    # A cache-served job's snapshot likewise records
                    # the original run.
                    continue
                if results_map[index].telemetry is not None:
                    batch_telemetry.merge_snapshot(
                        results_map[index].telemetry)
            registry = batch_telemetry.registry
            registry.counter("engine.jobs.submitted").inc(len(jobs))
            registry.counter("engine.jobs.completed").inc(len(results))
            registry.counter("engine.jobs.failed").inc(len(failures))
            registry.counter("engine.jobs.retries").inc(loop.retries)
            registry.counter("engine.jobs.timeouts").inc(loop.timeouts)
            if resumed_results:
                registry.counter("engine.jobs.resumed").inc(
                    len(resumed_results))
            if self.result_cache is not None:
                # Serial/thread workers and the coordinator's sharded
                # pre-checks already counted themselves through the
                # live session; process workers could not.  Top the
                # labelled counters up to the authoritative BatchMetrics
                # totals, per (scheme, trace) series, so the manifest
                # always agrees with them.
                per_key: dict[tuple[str, str], list[int]] = {}
                for index, job in enumerate(jobs):
                    if index in resumed_results or index in dup_of:
                        continue
                    if type(job.trace) is not WorkloadTrace:
                        continue
                    per_key.setdefault(
                        (job.config.name, job.trace.name),
                        []).append(index)
                for (scheme, trace_name), indices in per_key.items():
                    hits = sum(
                        1 for index in indices
                        if index in results_map
                        and results_map[index].metrics is not None
                        and results_map[index].metrics.result_cache_hit)
                    labels = {"scheme": scheme, "trace": trace_name}
                    for name, target in (
                            ("engine.cache.hit", hits),
                            ("engine.cache.miss", len(indices) - hits)):
                        counter = registry.counter(name, labels)
                        if target > counter.value:
                            counter.inc(target - counter.value)
            obs.emit("batch.end", **batch.metrics.summary())
        return batch


def run_batch(jobs: Iterable[SimulationJob],
              n_workers: int | None = None, *,
              prefer: str = "process",
              max_retries: int = 0,
              retry_backoff_s: float = 0.1,
              job_timeout_s: float | None = None,
              telemetry: bool | None = None,
              shard: bool | None = None,
              shard_servers: int | None = None,
              shard_steps: int | None = None,
              shard_straggler_s: float | None = None,
              checkpoint: "str | os.PathLike | None" = None,
              resume: bool = True,
              cache=None,
              metrics_port: int | None = None) -> BatchResult:
    """One-call convenience wrapper around :class:`BatchSimulationEngine`.

    The engine (and with it the persistent executor and any shared-memory
    trace segments) is torn down before returning; hold a
    :class:`BatchSimulationEngine` yourself to amortise pool start-up
    across several batches.  With ``telemetry`` on, the merged session
    survives on ``BatchResult.telemetry``.
    """
    engine = BatchSimulationEngine(n_workers, prefer=prefer,
                                   max_retries=max_retries,
                                   retry_backoff_s=retry_backoff_s,
                                   job_timeout_s=job_timeout_s,
                                   telemetry=telemetry,
                                   shard=shard,
                                   shard_servers=shard_servers,
                                   shard_steps=shard_steps,
                                   shard_straggler_s=shard_straggler_s,
                                   checkpoint=checkpoint,
                                   resume=resume,
                                   cache=cache,
                                   metrics_port=metrics_port)
    try:
        return engine.run(jobs)
    finally:
        engine.close()


def compare_batch(traces: Sequence[WorkloadTrace],
                  configs: Sequence[SimulationConfig],
                  n_workers: int | None = None, *,
                  cpu_model: CpuThermalModel | None = None,
                  teg_module: TegModule | None = None,
                  prefer: str = "process",
                  cache=None,
                  metrics_port: int | None = None) -> BatchResult:
    """Run the full cross product of ``traces`` x ``configs`` as one batch."""
    jobs = [SimulationJob(trace=trace, config=config, cpu_model=cpu_model,
                          teg_module=teg_module)
            for trace in traces for config in configs]
    return run_batch(jobs, n_workers, prefer=prefer, cache=cache, metrics_port=metrics_port)


__all__ = [
    "WORKERS_ENV_VAR",
    "JOB_TIMEOUT_ENV_VAR",
    "SHARD_STRAGGLER_ENV_VAR",
    "SEGMENT_PREFIX",
    "DEFAULT_CACHE_RESOLUTION",
    "CacheStats",
    "CoolingDecisionCache",
    "EngineMetrics",
    "KernelTimings",
    "BatchMetrics",
    "SimulationJob",
    "FailedJob",
    "BatchResult",
    "BatchSimulationEngine",
    "ResultCache",
    "SharedTraceRef",
    "simulate",
    "run_batch",
    "compare_batch",
    "resolve_mode",
    "resolve_workers",
    "resolve_job_timeout",
    "resolve_shard_straggler",
    "reap_orphaned_segments",
]
