"""Kill-and-resume acceptance: checkpointed runs survive SIGKILL.

The tentpole guarantee under test: a run interrupted at *any* point —
including a hard SIGKILL that gives no cleanup opportunity — resumes
from its checkpoint directory and produces results bit-identical to an
uninterrupted run, for kernel shards and sequential fault windows
alike.  The SIGKILL test drives a real subprocess; the hypothesis
property randomises the interruption point by deleting arbitrary
subsets of completed-shard files.
"""

import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import teg_loadbalance, teg_original
from repro.core.engine import SimulationJob, run_batch, simulate
from repro.core.shard import simulate_sharded
from repro.faults import FaultSchedule, FaultSpec
from repro.workloads.trace import WorkloadTrace

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: 48 steps x 40 servers at (12, 20) tiles -> a 4x2 = 8-shard grid.
STEPS, SERVERS, SEED = 48, 40, 7
SHARD_KW = dict(shard_steps=12, shard_servers=20)
N_SHARDS = 8


def make_trace(steps=STEPS, servers=SERVERS, seed=SEED, name="fleet"):
    rng = np.random.default_rng(seed)
    return WorkloadTrace(rng.random((steps, servers)), 300.0, name=name)


def assert_identical(resumed, golden):
    """Records, violations and headline aggregates must match exactly."""
    assert resumed.records == golden.records
    assert resumed.violations == golden.violations
    assert resumed.scheme == golden.scheme
    assert resumed.trace_name == golden.trace_name
    assert resumed.average_generation_w == golden.average_generation_w


class TestSigkillResume:
    """A hard-killed run resumes bit-identically from its checkpoint."""

    #: Driver run in a real subprocess: same trace/config as the parent
    #: (content hashes must agree across interpreters), with run_shard
    #: slowed so the kill window between shard completions is wide.
    DRIVER = textwrap.dedent("""\
        import sys, time
        import numpy as np
        import repro.core.shard as shard_mod
        from repro.core.config import teg_original
        from repro.workloads.trace import WorkloadTrace

        real_run_shard = shard_mod.run_shard
        def slow_run_shard(*args, **kwargs):
            outcome = real_run_shard(*args, **kwargs)
            time.sleep(0.25)
            return outcome
        shard_mod.run_shard = slow_run_shard

        rng = np.random.default_rng({seed})
        trace = WorkloadTrace(rng.random(({steps}, {servers})), 300.0,
                              name="fleet")
        shard_mod.simulate_sharded(trace, teg_original(),
                                   shard_steps={shard_steps},
                                   shard_servers={shard_servers},
                                   checkpoint=sys.argv[1])
        print("FINISHED", flush=True)
    """)

    def test_sigkill_mid_run_then_resume_is_bit_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        driver = tmp_path / "driver.py"
        driver.write_text(self.DRIVER.format(
            seed=SEED, steps=STEPS, servers=SERVERS,
            shard_steps=SHARD_KW["shard_steps"],
            shard_servers=SHARD_KW["shard_servers"]))
        env = {"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"}
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            shards_dir = ckpt / "shards"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = (sorted(shards_dir.glob("shard-*.pkl"))
                        if shards_dir.is_dir() else [])
                if len(done) >= 2:
                    break
                if proc.poll() is not None:  # pragma: no cover
                    out, err = proc.communicate()
                    pytest.fail("driver exited before the kill window: "
                                f"{err.decode(errors='replace')}")
                time.sleep(0.005)
            else:  # pragma: no cover - machine-speed dependent
                pytest.fail("no shard completed within 60 s")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGKILL
        survivors = len(list((ckpt / "shards").glob("shard-*.pkl")))
        assert 2 <= survivors < N_SHARDS

        trace = make_trace()
        golden = simulate_sharded(trace, teg_original(), **SHARD_KW)
        resumed = simulate_sharded(trace, teg_original(), **SHARD_KW,
                                   checkpoint=ckpt)
        assert_identical(resumed, golden)
        # Every shard the killed run persisted was reused, not redone.
        assert resumed.metrics.shards_resumed == survivors


@pytest.fixture(scope="module")
def kernel_template(tmp_path_factory):
    """A fully populated checkpoint plus the golden result it encodes."""
    template = tmp_path_factory.mktemp("ckpt-template")
    trace = make_trace()
    golden = simulate_sharded(trace, teg_original(), **SHARD_KW,
                              checkpoint=template)
    assert len(list((template / "shards").glob("shard-*.pkl"))) == N_SHARDS
    return template, golden


class TestInterruptionPointProperty:
    @settings(max_examples=12, deadline=None)
    @given(dropped=st.sets(st.integers(min_value=0,
                                       max_value=N_SHARDS - 1)))
    def test_resume_from_any_surviving_subset(self, kernel_template,
                                              dropped):
        """Any subset of persisted shards resumes bit-identically.

        Deleting shard files simulates a crash at an arbitrary point
        (shards persist independently and atomically, so the on-disk
        state after any interruption is exactly "some subset made it").
        """
        template, golden = kernel_template
        workdir = tempfile.mkdtemp(prefix="resume-prop-")
        try:
            ckpt = Path(workdir) / "ckpt"
            shutil.copytree(template, ckpt)
            for index in dropped:
                (ckpt / "shards" / f"shard-{index:05d}.pkl").unlink()
            resumed = simulate_sharded(make_trace(), teg_original(),
                                       **SHARD_KW, checkpoint=ckpt)
            assert_identical(resumed, golden)
            assert (resumed.metrics.shards_resumed
                    == N_SHARDS - len(dropped))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class TestFaultWindowResume:
    """Sequential fault windows resume through cache/policy snapshots."""

    def run(self, trace, faults, **kwargs):
        return simulate_sharded(trace, teg_original(), faults=faults,
                                shard_steps=20, **kwargs)

    def test_missing_middle_window_recomputed_bit_identically(
            self, tmp_path):
        trace = make_trace(steps=60, name="faulty")
        faults = FaultSchedule(specs=(
            FaultSpec(kind="pump_derate", start_s=3000.0,
                      duration_s=6000.0, magnitude=0.3),))
        golden = self.run(trace, faults)
        ckpt = tmp_path / "ckpt"
        first = self.run(trace, faults, checkpoint=ckpt)
        assert_identical(first, golden)
        windows = sorted((ckpt / "shards").glob("shard-*.pkl"))
        assert len(windows) == 3

        # A hole in the middle: window 1 must be recomputed from the
        # cache snapshot and policy instance window 0 persisted, while
        # windows 0 and 2 load straight from disk.
        (ckpt / "shards" / "shard-00001.pkl").unlink()
        resumed = self.run(trace, faults, checkpoint=ckpt)
        assert_identical(resumed, golden)
        assert resumed.metrics.shards_resumed == 2

    def test_fully_complete_checkpoint_replays_all_windows(
            self, tmp_path):
        trace = make_trace(steps=60, name="faulty")
        faults = FaultSchedule(specs=(
            FaultSpec(kind="pump_derate", start_s=3000.0,
                      duration_s=6000.0, magnitude=0.3),))
        ckpt = tmp_path / "ckpt"
        golden = self.run(trace, faults, checkpoint=ckpt)
        resumed = self.run(trace, faults, checkpoint=ckpt)
        assert_identical(resumed, golden)
        assert resumed.metrics.shards_resumed == 3


class TestEngineBatchResume:
    """run_batch(checkpoint=...) resumes shards and whole jobs."""

    def jobs(self):
        trace = make_trace()
        return [SimulationJob(trace, teg_original()),
                SimulationJob(trace, teg_loadbalance())]

    def test_sharded_batch_resumes_every_shard(self, tmp_path):
        kwargs = dict(n_workers=2, prefer="thread", shard=True,
                      **SHARD_KW)
        golden = run_batch(self.jobs(), **kwargs)
        ckpt = tmp_path / "ckpt"
        first = run_batch(self.jobs(), **kwargs, checkpoint=ckpt)
        assert first.ok and first.metrics.shards_resumed == 0
        again = run_batch(self.jobs(), **kwargs, checkpoint=ckpt)
        assert again.ok
        assert again.metrics.shards_resumed == 2 * N_SHARDS
        for job in self.jobs():
            assert_identical(again.get(*job.key), golden.get(*job.key))

    def test_whole_job_results_resume(self, tmp_path):
        jobs = [SimulationJob(make_trace(), teg_original())]
        kwargs = dict(n_workers=1, shard=False)
        golden = run_batch(jobs, **kwargs)
        ckpt = tmp_path / "ckpt"
        run_batch(jobs, **kwargs, checkpoint=ckpt)
        again = run_batch(jobs, **kwargs, checkpoint=ckpt)
        assert again.ok
        assert again.metrics.jobs_resumed == 1
        assert_identical(again.results[0], golden.results[0])

    def test_trace_subclass_never_resumes_a_plain_checkpoint(
            self, tmp_path):
        """A subclass's behaviour is invisible to the plane digest."""
        class Halved(WorkloadTrace):
            def step(self, index):
                return super().step(index) / 2.0

        plain = make_trace()
        halved = Halved(plain.utilisation, plain.interval_s,
                        name=plain.name)
        kwargs = dict(n_workers=1, shard=False,
                      checkpoint=tmp_path / "ckpt")
        first = run_batch([SimulationJob(plain, teg_original())], **kwargs)
        again = run_batch([SimulationJob(halved, teg_original())],
                          **kwargs)
        assert again.ok
        assert again.metrics.jobs_resumed == 0
        own = simulate(halved, teg_original())
        assert own.records != first.results[0].records
        assert_identical(again.results[0], own)

    def test_distinct_jobs_get_distinct_stores(self, tmp_path):
        """Two schemes in one root never collide on a shard directory."""
        ckpt = tmp_path / "ckpt"
        run_batch(self.jobs(), n_workers=1, shard=True, **SHARD_KW,
                  checkpoint=ckpt)
        subdirs = [p for p in ckpt.iterdir() if p.is_dir()]
        assert len(subdirs) == 2
        names = {p.name for p in subdirs}
        assert any("teg-original" in n.lower().replace("_", "-")
                   or "TEG_Original" in n for n in names)
