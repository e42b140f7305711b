"""The one dispatch loop: whole jobs and shard tiles under one rule set.

Whole jobs and the tiles of sharded jobs are units of one loop
(``repro.core.engine._UnitLoop``): the same retry, timeout and
isolation rules hold for both, the two kinds share one pool, and an
error the coordinator itself raises (a checkpoint write, say) ends the
batch instead of re-running it on another executor.

The crash helpers patch ``repro.core.shard.run_shard`` before the
engine forks its process workers, so the workers inherit the patch.
"""

import errno
import glob
import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.engine as engine_mod
import repro.core.shard as shard_mod
from repro.core.checkpoint import CheckpointStore
from repro.core.config import teg_loadbalance, teg_original
from repro.core.engine import SEGMENT_PREFIX, SimulationJob, run_batch
from repro.core.shard import run_shard
from repro.core.simulator import DatacenterSimulator
from repro.workloads.trace import WorkloadTrace

pytestmark = pytest.mark.faults

#: 48 x 40 planes split at 12 steps x 20 servers make 8 tiles; a
#: 12 x 20 plane is a single tile, so it runs as one whole job.
SHARD_KW = dict(shard_steps=12, shard_servers=20)

COORDINATOR_PID = os.getpid()


def make_trace(steps, servers, seed, name):
    rng = np.random.default_rng(seed)
    return WorkloadTrace(rng.random((steps, servers)), 300.0, name=name)


def mixed_jobs():
    """One whole job and one 8-tile sharded job."""
    return [SimulationJob(make_trace(12, 20, 1, "small"), teg_original()),
            SimulationJob(make_trace(48, 40, 2, "fleet"),
                          teg_loadbalance())]


def oracle(job):
    return DatacenterSimulator(job.trace, job.config).run()


def assert_oracle(result, job):
    reference = oracle(job)
    assert result.records == reference.records
    assert result.violations == reference.violations


def own_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}-*")


class TestCoordinatorErrors:
    def test_checkpoint_write_error_propagates_without_rerun(
            self, monkeypatch, tmp_path):
        calls = {}
        real_simulate = engine_mod.simulate

        def counting(trace, config, *args, **kwargs):
            key = (config.name, trace.name)
            calls[key] = calls.get(key, 0) + 1
            return real_simulate(trace, config, *args, **kwargs)

        def full_disk(self, result):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine_mod, "simulate", counting)
        monkeypatch.setattr(CheckpointStore, "save_result", full_disk)
        jobs = [SimulationJob(make_trace(12, 20, seed, f"t{seed}"),
                              teg_original()) for seed in range(4)]
        with pytest.raises(OSError) as excinfo:
            run_batch(jobs, n_workers=2, prefer="thread",
                      checkpoint=tmp_path)
        assert excinfo.value.errno == errno.ENOSPC
        assert calls
        assert max(calls.values()) == 1


class SlowTile:
    """Delegate to run_shard, stalling the first call on one tile."""

    def __init__(self, index, seconds):
        self.index = index
        self.seconds = seconds
        self.stalled = False

    def __call__(self, tile, spec, *args, **kwargs):
        if spec.index == self.index and not self.stalled:
            self.stalled = True
            time.sleep(self.seconds)
        return run_shard(tile, spec, *args, **kwargs)


class TestTileTimeout:
    def test_timed_out_tile_fails_only_its_job(self, monkeypatch):
        whole, sharded = mixed_jobs()
        monkeypatch.setattr(shard_mod, "run_shard", SlowTile(3, 4.0))
        batch = run_batch([sharded, whole], n_workers=2, prefer="thread",
                          job_timeout_s=1.0, retry_backoff_s=0.0,
                          **SHARD_KW)
        assert batch.metrics.executor == "thread"
        assert batch.metrics.timeouts == 1
        assert [f.trace_name for f in batch.failures] == ["fleet"]
        failed = batch.failures[0]
        assert failed.timed_out
        assert failed.error_type == "TimeoutError"
        assert [r.trace_name for r in batch.results] == ["small"]
        assert_oracle(batch.results[0], whole)


class CrashingTile:
    """Kill the process worker running tile ``index``, ``crashes`` times.

    Crashes are counted with marker files, which every forked worker
    sees; the coordinator itself never crashes.
    """

    def __init__(self, index, crashes, marker_dir):
        self.index = index
        self.crashes = crashes
        self.marker_dir = Path(marker_dir)

    def _claim(self):
        for n in range(self.crashes):
            try:
                os.close(os.open(self.marker_dir / f"crash-{n}",
                                 os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                continue
            return True
        return False

    def __call__(self, tile, spec, *args, **kwargs):
        if (spec.index == self.index and os.getpid() != COORDINATOR_PID
                and self._claim()):
            os._exit(17)
        return run_shard(tile, spec, *args, **kwargs)


@pytest.mark.slow
class TestTileWorkerCrash:
    def test_crashing_tile_fails_its_job_without_retries(
            self, monkeypatch, tmp_path):
        _, sharded = mixed_jobs()
        monkeypatch.setattr(shard_mod, "run_shard",
                            CrashingTile(1, 10 ** 6, tmp_path))
        batch = run_batch([sharded], n_workers=2, prefer="process",
                          max_retries=0, **SHARD_KW)
        assert batch.metrics.executor == "process"
        assert [f.trace_name for f in batch.failures] == ["fleet"]
        assert batch.failures[0].attempts == 1
        assert not batch.failures[0].timed_out
        assert batch.metrics.retries == 0
        assert not own_segments()

    def test_crashing_tile_recovers_with_a_retry(self, monkeypatch,
                                                 tmp_path):
        # Crash 1 breaks the shared pool (not charged to the tile);
        # crash 2 is the tile's own first isolated attempt.
        _, sharded = mixed_jobs()
        monkeypatch.setattr(shard_mod, "run_shard",
                            CrashingTile(1, 2, tmp_path))
        batch = run_batch([sharded], n_workers=2, prefer="process",
                          max_retries=1, retry_backoff_s=0.0, **SHARD_KW)
        assert batch.ok
        assert batch.metrics.retries == 1
        assert batch.results[0].metrics.n_shards == 8
        assert_oracle(batch.results[0], sharded)
        assert not own_segments()


@pytest.mark.slow
class TestMixedBatch:
    def test_whole_and_sharded_jobs_share_one_process_pool(self):
        whole, sharded = mixed_jobs()
        batch = run_batch([whole, sharded, whole, sharded], n_workers=2,
                          prefer="process", **SHARD_KW)
        assert batch.ok
        assert batch.metrics.executor == "process"
        assert batch.metrics.shards == 8
        assert batch.metrics.jobs_deduped == 2
        assert [r.trace_name for r in batch.results] == \
            ["small", "fleet", "small", "fleet"]
        for result, job in zip(batch.results,
                               [whole, sharded, whole, sharded]):
            assert_oracle(result, job)
        assert batch.results[0].metrics.n_shards == 0
        assert batch.results[1].metrics.n_shards == 8
        assert not own_segments()
