"""The benchmark's three workloads, driven through the public API.

Each workload is one closed-loop client: it issues the next operation
only after the previous one returned.  Inputs come from the workload
seed alone; the program sees only the generated traces and jobs.

* ``request`` — serial :func:`repro.core.engine.simulate` calls on
  day-long 200-server traces, cycling the three trace classes through
  the three schemes, result cache off.  The request-sized job, where
  per-call fixed cost (simulator construction, lookup-space build)
  dominates.  Shard, pool and cache do no work.
* ``sweep`` — a persistent two-worker process-pool
  :class:`~repro.core.engine.BatchSimulationEngine` runs one batch of
  3 classes x 3 schemes x 2 seeds at 400 servers plus two duplicate
  jobs per operation.  Before each batch the result cache is reset to a
  state pre-seeded with half the unique jobs and the batch gets a fresh
  checkpoint directory, so half the jobs read the cache and half compute
  and then write a cache entry and a checkpoint file.  It exercises job
  dispatch, dedup and durable I/O in both directions.
* ``fleet`` — one irregular trace of 5,000 servers x 2,880 steps run as
  TEG_LoadBalance through ``BatchSimulationEngine(shard=True)`` on two
  process workers, cache and checkpoint off.  The per-cell kernel and
  the shard pipeline dominate.

Correctness: every operation's results are digested between operations
(outside the timed region) and must repeat exactly; after the timed
loop the first result of every job is compared field by field with the
reference — ``DatacenterSimulator(...).run()`` for ``request``, an
in-process ``simulate()`` of the same job for ``sweep`` and one
unsharded ``simulate()`` for ``fleet``.  References are computed after
the loop so their memory does not enter ``peak_rss_mb`` and their
warm-up does not enter ``setup_s``.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _now

import numpy as np

from repro.core import (BatchSimulationEngine, DatacenterSimulator,
                        ResultCache, SimulationJob, engine, teg_loadbalance,
                        teg_original, teg_static)
from repro.core.results import STEP_COLUMNS
from repro.workloads.synthetic import TRACE_GENERATORS, irregular_trace
from repro.workloads.trace import WorkloadTrace

from ledger import OpRecord, samples_beyond

#: Process workers of the pooled workloads.
WORKERS = 2
DAY_S = 24 * 3600.0
CLASSES = ("drastic", "irregular", "common")
SCHEMES = (teg_original, teg_loadbalance, teg_static)
#: Seeded traces per class in a ``sweep`` batch.
SWEEP_SEEDS = 2
#: Jobs repeated at the end of a ``sweep`` batch, for dedup to remove.
SWEEP_DUPLICATES = 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; :data:`FULL` is what the benchmark runs."""

    request_servers: int = 200
    request_steps: int = 288
    #: Traces per class: more draws per run smooth the op-time mixture.
    request_traces: int = 4
    sweep_servers: int = 400
    sweep_steps: int = 288
    fleet_servers: int = 5000
    fleet_steps: int = 2880
    #: Shard tile (servers, steps); ``None`` keeps the engine's default.
    fleet_tile: tuple[int, int] | None = None
    #: Set-ups per run; ``setup_s`` reports their median.
    setup_rounds: int = 3


FULL = Sizes()
#: Seconds-scale sizes for the benchmark's own tests.
TINY = Sizes(request_servers=20, request_steps=24, request_traces=2,
             sweep_servers=20,
             sweep_steps=24, fleet_servers=60, fleet_steps=96,
             fleet_tile=(20, 48), setup_rounds=2)


def result_digest(result) -> str:
    """Content digest of a result: labels, every step column, violations."""
    digest = hashlib.sha256(
        f"{result.scheme}|{result.trace_name}|{result.n_servers}".encode())
    for name in STEP_COLUMNS:
        digest.update(np.ascontiguousarray(
            result.records.column(name)).tobytes())
    digest.update(repr(result.violations).encode())
    return digest.hexdigest()


def same_result(result, reference) -> bool:
    """Field-by-field equality of a result with its reference."""
    return (result.scheme == reference.scheme
            and result.trace_name == reference.trace_name
            and result.n_servers == reference.n_servers
            and result.records == reference.records
            and result.violations == reference.violations)


def _counters(telemetry) -> dict:
    if telemetry is None:
        return {}
    snapshot = telemetry.snapshot() if hasattr(telemetry, "snapshot") \
        else telemetry
    counters = snapshot.metrics.counters
    return {"engine.kernel.unique_decisions":
            counters.get("engine.kernel.unique_decisions", 0.0)}


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


class Workload:
    """One closed-loop client; subclasses fill in the operation."""

    name = ""
    workers = 1
    #: Job keys compared with the reference; ``None`` compares every job.
    sampled = None
    #: The persistent engine of the pooled workloads, while started.
    engine = None
    #: Operations per traced or untraced block of a ``--trace 1`` run:
    #: one pass over the distinct operations, so both kinds of block
    #: run the same inputs.
    trace_block = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)
        #: Whether the program records telemetry (see :meth:`set_traced`).
        self.telemetry = False
        self._first: dict = {}
        self._digests: dict = {}
        #: Results that differed from an earlier result of the same job.
        self.mismatches = 0

    def prepare(self) -> None:
        """Generate the inputs (untimed, outside ``setup_s``)."""

    def start(self):
        """Construct engine/executor and run the warm-up operation.

        Returns the warm-up's ``(OpRecord, {job key: result}, failures)``
        so its results are checked like any other operation's.
        """
        return self.op()

    def set_traced(self, traced: bool) -> None:
        """Turn the program's telemetry on or off for the next operations.

        The engine reads the flag on every run and hands it to its
        workers with each job, so it may change between operations.
        """
        self.telemetry = traced
        if self.engine is not None:
            self.engine.telemetry = traced

    def op(self):
        """One timed operation: ``(OpRecord, {job key: result}, failures)``."""
        raise NotImplementedError

    def need_more(self, walls: list[float]) -> bool:
        """Whether the run must continue past its time budget."""
        return False

    def stop(self) -> None:
        """Release the engine (its pool and shared memory)."""

    def reference(self, key):
        """The independently computed result the job must equal."""
        raise NotImplementedError

    def observe(self, keyed: dict) -> None:
        """Digest results; a result that differs from its first run counts."""
        for key, result in keyed.items():
            digest = result_digest(result)
            if key not in self._digests:
                self._digests[key] = digest
                self._first[key] = result
            elif self._digests[key] != digest:
                self.mismatches += 1

    def verify(self) -> int:
        """Compare each job's first result with its reference; mismatches."""
        return sum(1 for key, result in self._first.items()
                   if (self.sampled is None or key in self.sampled)
                   and not same_result(result, self.reference(key)))

    def cleanup(self) -> None:
        """Remove every directory the workload wrote."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def _class_traces(self, per_class: int, n_servers: int,
                      n_steps: int) -> list:
        """``per_class`` seeded day-long traces per class, ``<class>-<k>``."""
        interval = DAY_S / n_steps
        traces = []
        for cls in CLASSES:
            for k in range(per_class):
                generated = TRACE_GENERATORS[cls](
                    n_servers=n_servers, duration_s=DAY_S,
                    interval_s=interval, seed=self._seed())
                traces.append(WorkloadTrace(generated.utilisation, interval,
                                            name=f"{cls}-{k}"))
        return traces


class RequestWorkload(Workload):
    name = "request"

    def prepare(self) -> None:
        sizes = self.sizes
        traces = self._class_traces(sizes.request_traces,
                                    sizes.request_servers,
                                    sizes.request_steps)
        self.traces = {trace.name: trace for trace in traces}
        self.configs = {config.name: config
                        for config in (scheme() for scheme in SCHEMES)}
        self.combos = [(trace, config) for trace in traces
                       for config in self.configs.values()]
        self.trace_block = len(self.combos)
        # The oracle is the slow serial loop: check one seeded sample
        # trace per (class, scheme); every other job is still checked
        # for repeating exactly.
        self.sampled = {
            (scheme, f"{cls}-{self.rng.integers(sizes.request_traces)}")
            for cls in CLASSES for scheme in self.configs}
        self.index = 0

    def op(self):
        trace, config = self.combos[self.index % len(self.combos)]
        self.index += 1
        t0 = _now()
        # Looked up on the module at call time, so a probe sees the call.
        result = engine.simulate(trace, config, result_cache=False,
                                 telemetry=self.telemetry)
        t1 = _now()
        record = OpRecord(t0=t0, t1=t1,
                          cells=trace.n_steps * trace.n_servers,
                          computed=[result],
                          counters=_counters(result.telemetry))
        return record, {(config.name, trace.name): result}, 0

    def need_more(self, walls: list[float]) -> bool:
        return samples_beyond(walls, 95.0) < 10

    def reference(self, key):
        scheme, trace_name = key
        return DatacenterSimulator(self.traces[trace_name],
                                   self.configs[scheme]).run()


class SweepWorkload(Workload):
    name = "sweep"
    workers = WORKERS

    def prepare(self) -> None:
        sizes = self.sizes
        traces = self._class_traces(SWEEP_SEEDS, sizes.sweep_servers,
                                    sizes.sweep_steps)
        unique = [SimulationJob(trace, scheme()) for trace in traces
                  for scheme in SCHEMES]
        self.unique = {job.key: job for job in unique}
        self.jobs = unique + unique[:SWEEP_DUPLICATES]
        self.seeded_dir = self.workdir / "cache-seed"
        self.cache_dir = self.workdir / "cache"
        seeded = ResultCache(self.seeded_dir)
        for job in unique[::2]:
            engine.simulate(job.trace, job.config, result_cache=seeded,
                            telemetry=False)
        self.batches = 0

    def start(self):
        self.engine = BatchSimulationEngine(
            WORKERS, prefer="process", telemetry=self.telemetry,
            cache=ResultCache(self.cache_dir))
        return super().start()

    def op(self):
        # Untimed: back to the half-seeded cache and a fresh checkpoint
        # directory (the engine reads its checkpoint root on every run).
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.copytree(self.seeded_dir, self.cache_dir)
        self.batches += 1
        checkpoint = self.workdir / f"checkpoint-{self.batches}"
        self.engine.checkpoint = checkpoint
        t0 = _now()
        batch = self.engine.run(self.jobs)
        t1 = _now()
        checkpoint_bytes = _dir_bytes(checkpoint)
        shutil.rmtree(checkpoint, ignore_errors=True)
        by_key = {(r.scheme, r.trace_name): r for r in batch.results}
        failed = {f.key for f in batch.failures}
        keyed = {key: by_key[key] for key in self.unique if key in by_key}
        failures = len(batch.failures) + sum(
            1 for key in self.unique if key not in by_key
            and key not in failed)
        computed = {id(r): r for r in keyed.values()
                    if r.metrics is not None
                    and not r.metrics.result_cache_hit}
        cells = sum(job.trace.n_steps * job.trace.n_servers
                    for job in self.jobs)
        record = OpRecord(t0=t0, t1=t1, cells=cells,
                          computed=list(computed.values()),
                          deduped=batch.metrics.jobs_deduped,
                          retries=batch.metrics.retries,
                          counters=_counters(batch.telemetry),
                          checkpoint_bytes=checkpoint_bytes)
        return record, keyed, failures

    def stop(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def reference(self, key):
        job = self.unique[key]
        return engine.simulate(job.trace, job.config, result_cache=False,
                               telemetry=False)


class FleetWorkload(Workload):
    name = "fleet"
    workers = WORKERS

    def prepare(self) -> None:
        sizes = self.sizes
        self.trace = irregular_trace(n_servers=sizes.fleet_servers,
                                     duration_s=DAY_S,
                                     interval_s=DAY_S / sizes.fleet_steps,
                                     seed=self._seed())
        self.job = SimulationJob(self.trace, teg_loadbalance())

    def start(self):
        tile = self.sizes.fleet_tile or (None, None)
        self.engine = BatchSimulationEngine(
            WORKERS, prefer="process", telemetry=self.telemetry, shard=True,
            shard_servers=tile[0], shard_steps=tile[1], cache=False)
        return super().start()

    def op(self):
        t0 = _now()
        batch = self.engine.run([self.job])
        t1 = _now()
        keyed = {self.job.key: r for r in batch.results}
        record = OpRecord(t0=t0, t1=t1,
                          cells=self.trace.n_steps * self.trace.n_servers,
                          computed=list(keyed.values()),
                          retries=batch.metrics.retries,
                          counters=_counters(batch.telemetry))
        return record, keyed, len(batch.failures)

    def stop(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def reference(self, key):
        return engine.simulate(self.trace, self.job.config,
                               result_cache=False, telemetry=False)


WORKLOADS = {cls.name: cls for cls in (RequestWorkload, SweepWorkload,
                                       FleetWorkload)}
