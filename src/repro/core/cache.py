"""Content-addressed result cache with cross-run warm starts.

The ROADMAP's ``h2p serve`` north-star needs "results keyed on (config
hash, trace hash, scheme) so identical requests are free".  This module
provides that memoisation layer on top of the :class:`~repro.core.
checkpoint.RunKey` content identity from the checkpoint subsystem: a
:class:`ResultCache` directory maps a run's exact identity — trace
plane, full configuration, hardware models, fault schedule, execution
mode and shard plan — to its persisted :class:`~repro.core.results.
SimulationResult`, so repeating a sweep, regenerating a figure or
re-running ``h2p batch`` serves finished jobs from disk instead of
recomputing them.

Durability contract (shared with :mod:`repro.core.checkpoint`)
--------------------------------------------------------------
* **Atomic write-then-rename.**  Every entry is written to a temp file
  in the same directory, fsync'd, then :func:`os.replace`-d into place
  followed by a directory fsync; a crash mid-write leaves at most a
  stale ``.tmp-*`` file that the next open sweeps away.
* **Versioned format.**  The directory manifest (``cache.json``) and
  every entry record :data:`CACHE_SCHEMA` / :data:`CACHE_FORMAT_VERSION`;
  a newer version than this build understands raises
  :class:`~repro.errors.CacheError` instead of being misread.
* **Corruption is not fatal.**  An entry that fails to parse, fails its
  schema check or was truncated is unlinked, counted
  (``engine.cache.corrupt``) and the result recomputed.
* **Size-capped LRU.**  When ``REPRO_CACHE_MAX_BYTES`` (or the
  ``max_bytes`` argument) is set, the oldest-used entries are evicted
  after each store until the directory fits; hits refresh an entry's
  timestamp.

Bit-identity contract
---------------------
A cache hit returns records **byte-equal** to recomputing the run.
Columnar results round-trip their NumPy columns losslessly through an
``.npz`` container (zero copies on either side beyond the file I/O);
list-backed records round-trip through float64/int64 columns, which is
exact for the Python floats/ints they hold.  Violations, engine
metrics and telemetry snapshots ride along.  The key is conservative:
anything that *could* shape the numbers (mode, shard plan, decision
cache resolution, fault schedule) is part of the identity, so a hit can
never alias two runs that would diverge.

Warm starts
-----------
Beyond exact hits, the memoised cooling-decision state is persisted
under its own two-level content key so *near-miss* jobs start hot:

* **W1 (decision key)** covers everything that shapes the decisions
  themselves — trace plane, config minus its display name, hardware
  models.  A W1 match restores the saved decisions directly (re-tagged
  to the loading run's cache context).
* **W2 (binding key)** covers only what shapes the *sequence of
  binding utilisations* — trace plane, scheduler, circulation size and
  the policy's memoisation bucketing.  A W2 match with a W1 mismatch
  (same trace and scheduling, different TEG module or temperatures)
  replays the saved binding per bucket through the *current* policy:
  each bucket's representative binding is fed through
  ``policy.decide([binding])``, which both primes the policy memo and
  yields the decision a cold run would have produced for that bucket —
  single-element aggregation (max or mean) is exact in floating point,
  so the replayed decisions are bit-identical to a cold run's.

The warm path is an accelerator, never an oracle: it only ever installs
decisions the current policy itself produced (or, under a full W1
match, decisions proven identical by the content key), so warmed runs
keep the hard bit-identity guarantee.
"""

from __future__ import annotations

import io
import json
import os
import pickle
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from .. import obs
from ..errors import CacheError, ConfigurationError
from ..workloads.trace import WorkloadTrace
from .checkpoint import (RunKey, _atomic_write, _pid_alive, fingerprint,
                         run_key, trace_digest)
from .results import (STEP_COLUMNS, STEP_FLOAT_COLUMNS, STEP_INT_COLUMNS,
                      ColumnarSteps, SafetyViolation, SimulationResult,
                      StepRecord)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shard import ShardSpec

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "CACHE_FORMAT_VERSION",
    "CACHE_MAX_BYTES_ENV_VAR",
    "CACHE_SCHEMA",
    "ResultCache",
    "ResultCacheStats",
    "cache_enabled",
    "default_cache_dir",
    "resolve_cache_dir",
    "resolve_cache_max_bytes",
    "resolve_result_cache",
    "result_key",
    "warm_keys",
]

#: Identifies the on-disk layout; bump on incompatible changes.
CACHE_SCHEMA = "repro.core/cache/v1"
CACHE_FORMAT_VERSION = 1

#: Environment variable enabling the result cache by default.
CACHE_ENV_VAR = "REPRO_CACHE"

#: Environment variable naming the default cache directory.  Setting it
#: relocates the cache but does *not* enable it.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Environment variable capping the cache size in bytes (LRU eviction).
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Manifest file name inside a cache directory.
MANIFEST_NAME = "cache.json"

#: Subdirectory holding one ``.npz`` per cached result.
RESULTS_DIR = "results"

#: Subdirectory holding warm-start decision snapshots.
WARM_DIR = "warm"

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------

def cache_enabled(explicit: bool | None = None) -> bool:
    """Whether the result cache is on: explicit > ``REPRO_CACHE`` > off.

    Raises
    ------
    ConfigurationError
        When ``REPRO_CACHE`` is set to something that is not a boolean
        word (``1/0``, ``true/false``, ``yes/no``, ``on/off``).
    """
    if explicit is not None:
        return bool(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env is None:
        return False
    word = env.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS or word == "":
        return False
    raise ConfigurationError(
        f"{CACHE_ENV_VAR} must be one of "
        f"{'/'.join(_TRUE_WORDS + _FALSE_WORDS)}, got {env!r}")


def default_cache_dir() -> Path:
    """The per-user cache location (``$XDG_CACHE_HOME`` aware)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base and base.strip() else Path.home() / ".cache"
    return root / "repro-h2p"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Cache directory: explicit > ``REPRO_CACHE_DIR`` > per-user default.

    Raises
    ------
    ConfigurationError
        When ``REPRO_CACHE_DIR`` is blank, or either source names an
        existing path that is not a directory.
    """
    if explicit is not None:
        path = Path(os.fspath(explicit))
    else:
        env = os.environ.get(CACHE_DIR_ENV_VAR)
        if env is None:
            return default_cache_dir()
        if not env.strip():
            raise ConfigurationError(
                f"{CACHE_DIR_ENV_VAR} must be a directory path, "
                f"got {env!r}")
        path = Path(env)
    if path.exists() and not path.is_dir():
        raise ConfigurationError(
            f"cache directory {str(path)!r} exists and is not a "
            f"directory ({CACHE_DIR_ENV_VAR})")
    return path


def resolve_cache_max_bytes(explicit: int | None = None) -> int | None:
    """Size cap: explicit > ``REPRO_CACHE_MAX_BYTES`` > unbounded."""
    if explicit is not None:
        if explicit <= 0:
            raise ConfigurationError(
                f"cache max_bytes must be positive, got {explicit}")
        return int(explicit)
    env = os.environ.get(CACHE_MAX_BYTES_ENV_VAR)
    if env is None or not env.strip():
        return None
    try:
        value = int(env)
    except ValueError:
        raise ConfigurationError(
            f"{CACHE_MAX_BYTES_ENV_VAR} must be an integer byte count, "
            f"got {env!r}") from None
    if value <= 0:
        raise ConfigurationError(
            f"{CACHE_MAX_BYTES_ENV_VAR} must be positive, got {env!r}")
    return value


def resolve_result_cache(cache=None, *,
                         max_bytes: int | None = None
                         ) -> "ResultCache | None":
    """Normalise the ``result_cache=`` argument every entry point takes.

    * :class:`ResultCache` — used as-is;
    * ``False`` — caching off, environment ignored;
    * ``None`` — on iff ``REPRO_CACHE`` enables it, at
      ``REPRO_CACHE_DIR`` (or the per-user default);
    * ``True`` — on, at ``REPRO_CACHE_DIR`` (or the default);
    * a path — on, at that directory.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is False:
        return None
    if cache is None or cache is True:
        if not cache_enabled(True if cache is True else None):
            return None
        directory = resolve_cache_dir()
    else:
        directory = resolve_cache_dir(cache)
    return ResultCache(directory,
                       max_bytes=resolve_cache_max_bytes(max_bytes))


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------

def result_key(trace: WorkloadTrace, config, cpu_model=None,
               teg_module=None, *, faults=None,
               cache_resolution: float | None = None,
               mode: str = "kernel",
               specs: "Iterable[ShardSpec] | None" = None,
               trace_hash: str | None = None) -> RunKey:
    """The cache identity of one run: :func:`~repro.core.checkpoint.
    run_key` extended with the execution mode (and shard plan via
    ``specs``) so a hit can never alias runs that could diverge."""
    return run_key(trace, config, cpu_model, teg_module, faults=faults,
                   cache_resolution=cache_resolution, specs=specs,
                   extra=(("mode", mode),), trace_hash=trace_hash)


def warm_keys(trace: WorkloadTrace, config, cpu_model=None,
              teg_module=None, *, aggregation: str = "max",
              policy_resolution: float | None = None,
              trace_hash: str | None = None) -> tuple[str, str]:
    """The two-level warm-start identity ``(w1, w2)`` of one run.

    ``w1`` pins everything that shapes the cooling *decisions* (config
    minus its display name, hardware models, trace plane): equal ``w1``
    means the saved decisions can be restored verbatim.  ``w2`` pins
    only what shapes the *binding-utilisation sequence* and its
    memoisation bucketing (trace plane, scheduler and its cap, control
    cadence, circulation size, policy kind, aggregation, bucket
    resolution): equal ``w2`` with different ``w1`` means the saved
    bindings can be replayed through the current policy.
    """
    digest = trace_hash if trace_hash is not None else trace_digest(trace)
    config_fields = {f.name: getattr(config, f.name)
                     for f in dataclass_fields(config)
                     if f.name != "name"}
    w1 = fingerprint("h2p-warm/decisions", digest, config_fields,
                     cpu_model, teg_module)
    w2 = fingerprint("h2p-warm/bindings", digest,
                     config_fields.get("scheduler"),
                     config_fields.get("threshold_cap"),
                     config_fields.get("control_interval_s"),
                     config_fields.get("circulation_size"),
                     config_fields.get("policy"),
                     aggregation, policy_resolution)
    return w1, w2


def _fs_slug(name: str, limit: int = 48) -> str:
    """A filesystem-safe rendering of a scheme/trace label."""
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-"
                      for c in name).strip("-")
    return (cleaned or "run")[:limit]


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------

class _EntryMismatch(Exception):
    """A structurally valid entry that belongs to a different key."""


def _sweep_stale_temp_files(directory: Path) -> None:
    """Remove ``.tmp-*`` leftovers of *crashed* writers (best effort).

    Unlike the checkpoint store — whose directory belongs to exactly
    one run — a cache directory is shared between live engines, worker
    processes and threads, any of which may be mid-write while a new
    one opens the store.  Temps are only swept when the pid embedded in
    their name is no longer alive (our own pid included: if the name
    says *us*, another of our threads owns it).
    """
    for leftover in directory.glob("*.tmp-*"):
        pid_word = leftover.name.rsplit(".tmp-", 1)[1].split("-", 1)[0]
        try:
            pid = int(pid_word)
        except ValueError:
            pid = None
        if pid is not None and (pid == os.getpid() or _pid_alive(pid)):
            continue
        try:
            leftover.unlink()
        except OSError:  # pragma: no cover - concurrent cleanup
            pass


def _encode_result(key: RunKey, result: SimulationResult) -> bytes:
    """Serialise one result to the versioned ``.npz`` payload."""
    records = result.records
    arrays: dict[str, np.ndarray] = {}
    if isinstance(records, ColumnarSteps):
        kind = "columnar"
        for name in STEP_COLUMNS:
            arrays[f"col_{name}"] = records.column(name)
    else:
        kind = "list"
        for name in STEP_FLOAT_COLUMNS:
            arrays[f"col_{name}"] = np.array(
                [getattr(r, name) for r in records], dtype=np.float64)
        for name in STEP_INT_COLUMNS:
            arrays[f"col_{name}"] = np.array(
                [getattr(r, name) for r in records], dtype=np.int64)
    violations = result.violations or ()
    arrays["viol_server_id"] = np.array(
        [v.server_id for v in violations], dtype=np.int64)
    arrays["viol_step_index"] = np.array(
        [v.step_index for v in violations], dtype=np.int64)
    arrays["viol_time_s"] = np.array(
        [v.time_s for v in violations], dtype=np.float64)
    arrays["viol_temperature_c"] = np.array(
        [v.temperature_c for v in violations], dtype=np.float64)
    if result.metrics is not None:
        arrays["pickle_metrics"] = np.frombuffer(
            pickle.dumps(result.metrics,
                         protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8)
    if result.telemetry is not None:
        arrays["pickle_telemetry"] = np.frombuffer(
            pickle.dumps(result.telemetry,
                         protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8)
    meta = {
        "schema": CACHE_SCHEMA,
        "version": CACHE_FORMAT_VERSION,
        "key": key.to_dict(),
        "scheme": result.scheme,
        "trace_name": result.trace_name,
        "n_servers": int(result.n_servers),
        # repr round-trips the float exactly (same convention as the
        # content hashes in checkpoint._canonical).
        "interval_s": repr(float(result.interval_s)),
        "records_kind": kind,
        "n_steps": len(records),
        "n_violations": len(violations),
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _decode_result(raw: bytes, key: RunKey) -> SimulationResult:
    """Rebuild a result from an entry payload.

    Raises :class:`CacheError` for a valid entry in a newer format,
    :class:`_EntryMismatch` for a valid entry under a different key,
    and anything else (``ValueError``, ``KeyError``, zip errors ...)
    for corruption — the caller maps those to discard-and-recompute.
    """
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        if meta.get("schema") != CACHE_SCHEMA:
            raise ValueError(
                f"unexpected cache entry schema {meta.get('schema')!r}")
        version = int(meta["version"])
        if version > CACHE_FORMAT_VERSION:
            raise CacheError(
                f"cache entry format v{version} is newer than this "
                f"build understands (v{CACHE_FORMAT_VERSION})")
        if meta["key"] != key.to_dict():
            raise _EntryMismatch(key.short)

        columns = {name: data[f"col_{name}"] for name in STEP_COLUMNS}
        if meta["records_kind"] == "columnar":
            records: Any = ColumnarSteps(columns)
        else:
            n_steps = int(meta["n_steps"])
            records = [
                StepRecord(
                    **{name: float(columns[name][i])
                       for name in STEP_FLOAT_COLUMNS},
                    **{name: int(columns[name][i])
                       for name in STEP_INT_COLUMNS})
                for i in range(n_steps)
            ]
        n_violations = int(meta["n_violations"])
        violations = [
            SafetyViolation(
                server_id=int(data["viol_server_id"][i]),
                step_index=int(data["viol_step_index"][i]),
                time_s=float(data["viol_time_s"][i]),
                temperature_c=float(data["viol_temperature_c"][i]))
            for i in range(n_violations)
        ]
        metrics = None
        if "pickle_metrics" in data.files:
            metrics = pickle.loads(data["pickle_metrics"].tobytes())
        telemetry = None
        if "pickle_telemetry" in data.files:
            telemetry = pickle.loads(data["pickle_telemetry"].tobytes())
    return SimulationResult(
        scheme=meta["scheme"],
        trace_name=meta["trace_name"],
        n_servers=int(meta["n_servers"]),
        interval_s=float(meta["interval_s"]),
        records=records,
        metrics=metrics,
        violations=violations,
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass
class ResultCacheStats:
    """Lifetime counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0


class ResultCache:
    """A content-addressed, crash-safe store of simulation results.

    Layout::

        <directory>/
            cache.json            # schema + format version
            results/<scheme>--<trace>--<short12>.npz
            warm/<w2-digest>.pkl  # warm-start decision snapshots

    Safe to share between processes: entries are written atomically and
    are immutable once named (the name embeds the content key), so
    concurrent readers/writers can at worst duplicate work, never
    corrupt each other.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(
                f"cache max_bytes must be positive, got {max_bytes}")
        self.directory = Path(os.fspath(directory))
        self.max_bytes = max_bytes
        self.stats = ResultCacheStats()
        self._results_dir = self.directory / RESULTS_DIR
        self._warm_dir = self.directory / WARM_DIR
        self._results_dir.mkdir(parents=True, exist_ok=True)
        self._warm_dir.mkdir(parents=True, exist_ok=True)
        self._check_manifest()
        for folder in (self.directory, self._results_dir,
                       self._warm_dir):
            _sweep_stale_temp_files(folder)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ResultCache({str(self.directory)!r}, "
                f"max_bytes={self.max_bytes})")

    # -- manifest ------------------------------------------------------

    def _check_manifest(self) -> None:
        path = self.directory / MANIFEST_NAME
        try:
            raw = path.read_text()
        except FileNotFoundError:
            _atomic_write(path, (json.dumps(
                {"schema": CACHE_SCHEMA,
                 "version": CACHE_FORMAT_VERSION},
                indent=2, sort_keys=True) + "\n").encode())
            return
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CacheError(
                f"cache manifest {str(path)!r} is not valid JSON: "
                f"{exc}") from exc
        if (not isinstance(manifest, dict)
                or manifest.get("schema") != CACHE_SCHEMA
                or not isinstance(manifest.get("version"), int)):
            raise CacheError(
                f"{str(path)!r} is not a result-cache manifest "
                f"(expected schema {CACHE_SCHEMA!r})")
        if manifest["version"] > CACHE_FORMAT_VERSION:
            raise CacheError(
                f"cache directory {str(self.directory)!r} uses format "
                f"v{manifest['version']}, newer than this build "
                f"understands (v{CACHE_FORMAT_VERSION})")

    # -- result entries ------------------------------------------------

    def path_for(self, key: RunKey) -> Path:
        name = "--".join((_fs_slug(key.scheme),
                          _fs_slug(key.trace_name), key.short))
        return self._results_dir / f"{name}.npz"

    def load(self, key: RunKey) -> SimulationResult | None:
        """The cached result under ``key``, or ``None``.

        A hit refreshes the entry's LRU timestamp and flags the
        returned metrics with ``result_cache_hit`` so batch layers can
        account for served jobs.  Corrupt or truncated entries are
        unlinked and reported as misses.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._miss(key)
            return None
        try:
            result = _decode_result(raw, key)
        except CacheError:
            raise
        except _EntryMismatch:
            # A different run hashed to the same label; astronomically
            # unlikely (96-bit digests) but must read as a miss, and
            # the other run's entry must survive.
            self._miss(key)
            return None
        except Exception:
            path.unlink(missing_ok=True)
            self.stats.corrupt += 1
            obs.add("engine.cache.corrupt", 1,
                    labels={"scheme": key.scheme,
                            "trace": key.trace_name})
            obs.emit("engine.cache.corrupt", scheme=key.scheme,
                     trace=key.trace_name, path=path.name)
            self._miss(key)
            return None
        self.stats.hits += 1
        obs.add("engine.cache.hit", 1,
                labels={"scheme": key.scheme, "trace": key.trace_name})
        obs.emit("engine.cache.hit", scheme=key.scheme,
                 trace=key.trace_name, key=key.short)
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted under us
            pass
        if result.metrics is not None:
            result.metrics.result_cache_hit = True
        return result

    def _miss(self, key: RunKey) -> None:
        self.stats.misses += 1
        obs.add("engine.cache.miss", 1,
                labels={"scheme": key.scheme, "trace": key.trace_name})
        obs.emit("engine.cache.miss", scheme=key.scheme,
                 trace=key.trace_name, key=key.short)

    def store(self, key: RunKey, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic), then evict LRU."""
        data = _encode_result(key, result)
        _atomic_write(self.path_for(key), data)
        self.stats.stores += 1
        obs.add("engine.cache.store", 1,
                labels={"scheme": key.scheme, "trace": key.trace_name})
        obs.emit("engine.cache.store", scheme=key.scheme,
                 trace=key.trace_name, key=key.short, bytes=len(data))
        self._evict()

    # -- warm-start snapshots ------------------------------------------

    def warm_path(self, w2: str) -> Path:
        return self._warm_dir / f"{w2}.pkl"

    def load_warm(self, w2: str) -> dict | None:
        """The warm snapshot under binding key ``w2``, or ``None``.

        Returns the raw payload dict (``w1``, ``entries``); corrupt
        files are unlinked, newer-format files are left alone and
        simply not used.
        """
        path = self.warm_path(w2)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            payload = pickle.loads(raw)
            if (not isinstance(payload, dict)
                    or payload.get("schema") != CACHE_SCHEMA
                    or not isinstance(payload.get("entries"), list)):
                raise ValueError("not a warm-start payload")
        except Exception:
            path.unlink(missing_ok=True)
            self.stats.corrupt += 1
            obs.add("engine.cache.corrupt", 1)
            obs.emit("engine.cache.corrupt", path=path.name,
                     entry_kind="warm")
            return None
        if int(payload.get("version", 0)) > CACHE_FORMAT_VERSION:
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - evicted under us
            pass
        obs.add("engine.cache.warm_hit", 1)
        return payload

    def store_warm(self, w1: str, w2: str, entries: list) -> None:
        """Persist one warm snapshot: the decision-cache entries of a
        completed run, first-occurrence order preserved."""
        payload = {"schema": CACHE_SCHEMA,
                   "version": CACHE_FORMAT_VERSION,
                   "kind": "warm", "w1": w1, "entries": list(entries)}
        _atomic_write(self.warm_path(w2),
                      pickle.dumps(payload,
                                   protocol=pickle.HIGHEST_PROTOCOL))
        obs.add("engine.cache.warm_store", 1)
        self._evict()

    # -- eviction ------------------------------------------------------

    def _evict(self) -> None:
        """Unlink least-recently-used entries until under the cap."""
        if self.max_bytes is None:
            return
        entries = []
        for folder in (self._results_dir, self._warm_dir):
            for path in folder.iterdir():
                if ".tmp-" in path.name:  # another writer, mid-flight
                    continue
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - raced unlink
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        entries.sort()
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced unlink
                continue
            total -= size
            self.stats.evictions += 1
            obs.add("engine.cache.evict", 1)
            obs.emit("engine.cache.evict", path=path.name, bytes=size)
