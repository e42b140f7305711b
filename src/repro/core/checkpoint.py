"""Crash-safe checkpoint/resume for sharded and whole simulation runs.

A month-class fleet run (12,500 servers x 8,900 steps through
:mod:`repro.core.shard`) is hours of work that a coordinator crash, OOM
kill or CI timeout would otherwise throw away.  This module persists
per-shard :class:`~repro.core.shard.ShardOutcome` objects *as they
complete*, so an interrupted run restarted against the same checkpoint
directory skips every finished shard and still produces results
**bit-identical** to an uninterrupted run.

Durability contract
-------------------
* **Atomic write-then-rename.**  Every artefact (shard outcome, run
  manifest, whole-job result) is written to a temporary file in the
  same directory, flushed and fsync'd, then :func:`os.replace`-d into
  place, followed by a directory fsync.  A file either exists complete
  or not at all; a crash mid-write leaves at most a stale ``.tmp-*``
  file that the next open sweeps away.
* **Content-keyed manifests.**  A checkpoint directory is owned by one
  run identity: the :class:`RunKey` digests of the trace plane, the
  full configuration (config + hardware models + fault schedule +
  cache resolution) and the shard plan.  Opening a directory whose
  manifest carries a different key refuses to resume
  (:class:`~repro.errors.CheckpointError`) — stale state can never
  silently leak into a different run — unless ``resume=False``
  explicitly wipes it.
* **Versioned format.**  ``checkpoint.json`` records
  :data:`CHECKPOINT_SCHEMA` / :data:`CHECKPOINT_FORMAT_VERSION`; a
  reader confronted with a newer (or unknown) version refuses loudly
  instead of misreading it.
* **Corruption is not fatal.**  A shard file that fails to unpickle is
  discarded and its shard recomputed; only a manifest that
  *structurally* cannot be trusted raises.

Bit-identity across interruption
--------------------------------
Kernel shards are pure functions of (tile, primed decision cache), and
the pre-pass that primes the cache is deterministic, so loading a saved
outcome is indistinguishable from recomputing it.  Fault windows are
path-dependent — they share one decision cache and one policy instance
sequentially — so each saved window also carries a snapshot of the
shared cache store, and the saved outcome carries the policy instance;
resuming restores both before the first missing window runs.  The
per-outcome cache hit/miss deltas ride inside the saved outcomes, so
even the merged cache counters match the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import threading
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from .. import obs
from ..errors import CheckpointError
from ..workloads.trace import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .results import SimulationResult
    from .shard import ShardOutcome, ShardSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "RunKey",
    "fingerprint",
    "run_key",
    "trace_digest",
]

#: Identifies the on-disk layout; bump on incompatible changes.
CHECKPOINT_SCHEMA = "repro.core/checkpoint/v1"
CHECKPOINT_FORMAT_VERSION = 1

#: Manifest file name inside a checkpoint directory.
MANIFEST_NAME = "checkpoint.json"

#: Subdirectory holding one pickle per completed shard.
SHARDS_DIR = "shards"

#: Whole-job result file (non-sharded jobs checkpoint at job granularity).
RESULT_NAME = "result.pkl"


# ----------------------------------------------------------------------
# Content digests
# ----------------------------------------------------------------------

def _hasher() -> "hashlib._Hash":
    # blake2b is in hashlib everywhere we run and is the fastest
    # stdlib hash over the ~GB trace planes this keys.
    return hashlib.blake2b(digest_size=16)


def trace_digest(trace: WorkloadTrace) -> str:
    """Content hash of a trace: shape, dtype, interval and plane bytes.

    The trace *name* is deliberately excluded — it names the run in the
    manifest key separately; two identically-named traces with
    different planes must never collide.
    """
    matrix = trace.utilisation
    h = _hasher()
    h.update(repr((matrix.shape, str(matrix.dtype),
                   trace.interval_s)).encode())
    data = matrix if matrix.flags.c_contiguous else np.ascontiguousarray(
        matrix)
    h.update(data)
    return h.hexdigest()


def _canonical(value: Any) -> Any:
    """A JSON-stable view of configs, models and schedules for hashing.

    Dataclasses unfold field-by-field (with their type name, so two
    classes with equal fields do not collide), NumPy arrays hash to
    their bytes, floats keep full ``repr`` precision, containers
    recurse.  Anything else falls back to ``repr`` — stable for the
    value types configuration objects actually hold.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                **{f.name: _canonical(getattr(value, f.name))
                   for f in fields(value)}}
    if isinstance(value, np.ndarray):
        digest = _hasher()
        digest.update(np.ascontiguousarray(value))
        return {"__ndarray__": [list(value.shape), str(value.dtype),
                                digest.hexdigest()]}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=repr)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def fingerprint(*values: Any) -> str:
    """One hex digest over any mix of configs, models, plans, scalars."""
    h = _hasher()
    h.update(json.dumps([_canonical(v) for v in values],
                        sort_keys=True).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class RunKey:
    """The identity a checkpoint directory is keyed on.

    ``trace`` hashes the workload plane (shape, dtype, interval,
    bytes); ``run`` hashes everything else that shapes the numbers —
    config, hardware models, fault schedule, cache resolution and the
    shard plan.  Two runs share a checkpoint directory iff both digests
    (and the human-readable labels) match.
    """

    scheme: str
    trace_name: str
    trace: str
    run: str

    @property
    def short(self) -> str:
        """A filesystem-friendly 12-hex tag of the combined identity."""
        return fingerprint(self.trace, self.run)[:12]

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "trace_name": self.trace_name,
                "trace": self.trace, "run": self.run}

    @classmethod
    def from_dict(cls, data: dict) -> "RunKey":
        try:
            return cls(scheme=data["scheme"],
                       trace_name=data["trace_name"],
                       trace=data["trace"], run=data["run"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"checkpoint manifest key is malformed: {data!r}"
                ) from exc


def run_key(trace: WorkloadTrace, config, cpu_model=None,
            teg_module=None, *, faults=None,
            cache_resolution: float | None = None,
            specs: "Iterable[ShardSpec] | None" = None,
            extra: tuple = (),
            trace_hash: str | None = None) -> RunKey:
    """Build the :class:`RunKey` for one (trace, config, plan) run.

    ``specs`` is the shard plan (``None`` for whole-job runs); it is
    part of the identity because shard outcomes are only reusable under
    the exact tiling that produced them.  ``trace_hash`` lets a caller
    that hashed the (potentially GB-scale) plane already pass the
    digest in instead of re-hashing it per job.
    """
    plan = (None if specs is None else
            [(s.index, s.step_start, s.step_stop, s.server_start,
              s.server_stop, s.circ_start, s.circ_stop) for s in specs])
    return RunKey(
        scheme=config.name,
        trace_name=trace.name,
        trace=trace_digest(trace) if trace_hash is None else trace_hash,
        run=fingerprint(config, cpu_model, teg_module, faults,
                        cache_resolution, plan, list(extra)),
    )


# ----------------------------------------------------------------------
# Atomic file primitives
# ----------------------------------------------------------------------

def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_WRITE_COUNTER = itertools.count()


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` so ``path`` is either complete or absent.

    Temp file in the same directory (rename must not cross
    filesystems), fsync'd before the rename and the directory fsync'd
    after, so the entry survives a machine crash, not just a process
    one.  The temp name embeds the pid, the thread id and a
    process-wide counter: a result cache is shared between engine
    threads, and pid-only names would let their writes collide.
    """
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        f"-{next(_WRITE_COUNTER)}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` exists (signal-0 probe; EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - EPERM: another user's process
        return True
    return True


def _sweep_temp_files(directory: Path) -> None:
    """Remove ``.tmp-*`` leftovers of crashed writers (best effort)."""
    for leftover in directory.glob("*.tmp-*"):
        try:
            leftover.unlink()
        except OSError:  # pragma: no cover - concurrent cleanup
            pass


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class CheckpointStore:
    """One checkpoint directory: a manifest plus completed work units.

    Layout::

        DIR/checkpoint.json          # schema, version, RunKey, plan size
        DIR/shards/shard-00042.pkl   # one pickle per completed shard
        DIR/result.pkl               # whole-job runs (n_shards == 0)

    Opening semantics (``resume`` flag):

    * no manifest — the directory is (created and) claimed for this
      run: a fresh manifest is written either way;
    * manifest matches ``key`` — ``resume=True`` keeps completed
      shards, ``resume=False`` discards them and starts over;
    * manifest mismatches ``key`` — ``resume=True`` raises
      :class:`~repro.errors.CheckpointError` (never silently mix two
      runs' state), ``resume=False`` wipes the directory and claims it.

    Every save is atomic (see module docstring); every load tolerates a
    corrupt file by discarding it.
    """

    def __init__(self, directory: str | os.PathLike, key: RunKey, *,
                 n_shards: int, kind: str = "kernel",
                 resume: bool = True) -> None:
        self.directory = Path(directory)
        self.key = key
        self.n_shards = int(n_shards)
        self.kind = kind
        self.directory.mkdir(parents=True, exist_ok=True)
        self._shards_dir = self.directory / SHARDS_DIR
        manifest = self._read_manifest()
        if manifest is not None:
            stored = RunKey.from_dict(manifest.get("key", {}))
            if stored != key:
                if resume:
                    raise CheckpointError(
                        f"checkpoint directory {self.directory} belongs "
                        f"to a different run (stored "
                        f"{stored.scheme!r}/{stored.trace_name!r}, "
                        f"requested {key.scheme!r}/{key.trace_name!r} "
                        f"with different content digests); pass "
                        f"resume=False to overwrite it or use a fresh "
                        f"directory")
                self._wipe()
                manifest = None
            elif not resume:
                self._wipe()
                manifest = None
        if manifest is None:
            self._write_manifest()
        self._shards_dir.mkdir(exist_ok=True)
        _sweep_temp_files(self.directory)
        _sweep_temp_files(self._shards_dir)
        #: Shard indices loaded from disk by this process (telemetry
        #: and tests read it; the engine reports it as shards_resumed).
        self.loaded: set[int] = set()
        #: Shard indices saved by this process.
        self.saved: set[int] = set()

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _read_manifest(self) -> dict | None:
        try:
            raw = self.manifest_path.read_text()
        except FileNotFoundError:
            return None
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path} is not valid "
                f"JSON: {exc}") from exc
        schema = manifest.get("schema")
        version = manifest.get("version")
        if schema != CHECKPOINT_SCHEMA or not isinstance(version, int):
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path} has schema "
                f"{schema!r}; this build reads {CHECKPOINT_SCHEMA!r}")
        if version > CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} is newer than "
                f"this build's {CHECKPOINT_FORMAT_VERSION}; refusing "
                f"to guess at its layout")
        return manifest

    def _write_manifest(self) -> None:
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_FORMAT_VERSION,
            "key": self.key.to_dict(),
            "kind": self.kind,
            "n_shards": self.n_shards,
        }
        _atomic_write(self.manifest_path,
                      (json.dumps(manifest, indent=2, sort_keys=True)
                       + "\n").encode())

    def _wipe(self) -> None:
        """Discard every artefact; the manifest goes last."""
        if self._shards_dir.is_dir():
            for shard_file in self._shards_dir.glob("shard-*.pkl"):
                shard_file.unlink(missing_ok=True)
        (self.directory / RESULT_NAME).unlink(missing_ok=True)
        self.manifest_path.unlink(missing_ok=True)
        _fsync_directory(self.directory)

    # -- shard outcomes ------------------------------------------------

    def _shard_path(self, index: int) -> Path:
        return self._shards_dir / f"shard-{index:05d}.pkl"

    def completed(self) -> list[int]:
        """Sorted indices of shards with a (parseable-looking) file."""
        done = []
        for shard_file in self._shards_dir.glob("shard-*.pkl"):
            try:
                index = int(shard_file.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if 0 <= index < self.n_shards:
                done.append(index)
        return sorted(done)

    def save_shard(self, index: int, outcome: "ShardOutcome", *,
                   cache_store: dict | None = None) -> None:
        """Persist one completed shard (atomically).

        ``cache_store`` rides along for sequential fault windows: the
        shared decision-cache contents *after* this window, which a
        resume must restore before running the next window.
        """
        payload = {"outcome": outcome, "cache_store": cache_store}
        _atomic_write(self._shard_path(index),
                      pickle.dumps(payload,
                                   protocol=pickle.HIGHEST_PROTOCOL))
        self.saved.add(index)
        obs.add("engine.checkpoint.saved", 1)
        obs.emit("checkpoint.save", scheme=self.key.scheme,
                 trace=self.key.trace_name, shard=index)

    def load_shard(self, index: int) -> dict | None:
        """One saved shard payload, or ``None`` (missing or corrupt).

        A corrupt file is unlinked so the shard is recomputed — a
        half-written or stale pickle must never poison a resume.
        """
        path = self._shard_path(index)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            payload = pickle.loads(raw)
            if not isinstance(payload, dict) or "outcome" not in payload:
                raise pickle.UnpicklingError("not a shard payload")
        except Exception:
            path.unlink(missing_ok=True)
            obs.emit("checkpoint.corrupt", scheme=self.key.scheme,
                     trace=self.key.trace_name, shard=index)
            return None
        self.loaded.add(index)
        obs.add("engine.checkpoint.loaded", 1)
        return payload

    # -- whole-job results ---------------------------------------------

    def save_result(self, result: "SimulationResult") -> None:
        """Persist one whole (non-sharded) job's result atomically."""
        _atomic_write(self.directory / RESULT_NAME,
                      pickle.dumps(result,
                                   protocol=pickle.HIGHEST_PROTOCOL))
        obs.add("engine.checkpoint.saved", 1)
        obs.emit("checkpoint.save", scheme=self.key.scheme,
                 trace=self.key.trace_name, shard=-1)

    def load_result(self) -> "SimulationResult | None":
        """The saved whole-job result, or ``None`` (missing or corrupt)."""
        path = self.directory / RESULT_NAME
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            result = pickle.loads(raw)
        except Exception:
            path.unlink(missing_ok=True)
            obs.emit("checkpoint.corrupt", scheme=self.key.scheme,
                     trace=self.key.trace_name, shard=-1)
            return None
        obs.add("engine.checkpoint.loaded", 1)
        return result
