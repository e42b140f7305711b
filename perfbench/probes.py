"""Layer probes: timed wrappers around each layer's public entry points.

The traced run wraps the public functions and methods listed in
:func:`_probes` and records one span per call — name, start, end and the
recording process id — into a :class:`SpanSink`.  The sink appends to
one JSON-lines file per process, so calls made inside process-pool
workers are captured too: the engine forks its workers from the
benchmark process after :func:`install_probes` has run, and the forked
workers inherit the wrappers.  Span clocks are ``time.perf_counter``,
which is system-wide monotonic on Linux, so coordinator and worker
spans share one time axis.

Nothing here edits the program: the wrappers are installed on the
imported classes and modules and :func:`install_probes` returns a
function that puts the originals back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class SpanSink:
    """Append-only span store shared by the benchmark and its workers.

    Probes record only while :attr:`recording` is on.  The switch is a
    file in the sink's directory, so a change made by the benchmark
    process between operations reaches workers forked long before.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._switch = self.directory / "recording"
        self.recording = True

    @property
    def recording(self) -> bool:
        return self._switch.exists()

    @recording.setter
    def recording(self, on: bool) -> None:
        if on:
            self._switch.touch()
        else:
            self._switch.unlink(missing_ok=True)

    def record(self, name: str, t0: float, t1: float, **extra) -> None:
        """Append one span, reopening the file so forks share no buffer."""
        line = json.dumps({"name": name, "t0": t0, "t1": t1,
                           "pid": os.getpid(), **extra})
        with open(self.directory / f"{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(line + "\n")

    def read(self) -> list[dict]:
        """Every span recorded so far, by any process, in start order."""
        spans = []
        for path in sorted(self.directory.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle
                             if line.strip())
        spans.sort(key=lambda span: span["t0"])
        return spans


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


def _probes():
    """(owner, attribute, span name, extra-fields hook) for every probe.

    Imported lazily so this module loads before ``src`` is on the path.
    """
    from repro.control.lookup_space import LookupSpace
    from repro.core import engine, shard
    from repro.core.cache import ResultCache
    from repro.core.checkpoint import CheckpointStore

    return [
        (engine, "simulate", "engine.simulate", None),
        (LookupSpace, "__init__", "lookup_space.build", None),
        (ResultCache, "load", "cache.load",
         lambda args, out: {"hit": out is not None}),
        (ResultCache, "store", "cache.store",
         lambda args, out: {"bytes": _file_bytes(args[0].path_for(args[1]))}),
        # store_warm(self, w1, w2, entries) writes warm_path(w2).
        (ResultCache, "store_warm", "cache.store",
         lambda args, out: {"bytes": _file_bytes(args[0].warm_path(args[2]))}),
        (CheckpointStore, "__init__", "checkpoint.open", None),
        (CheckpointStore, "load_result", "checkpoint.open", None),
        (CheckpointStore, "save_result", "checkpoint.save", None),
        (CheckpointStore, "save_shard", "checkpoint.save", None),
        (shard, "primed_or_warm", "shard.prime", None),
        (shard, "run_shard", "shard.run", None),
        (shard.StreamingMerge, "add", "shard.merge", None),
        (shard.StreamingMerge, "result", "shard.merge_final", None),
    ]


def _timed(sink: SpanSink, name: str, fn, extra):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not sink.recording:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        sink.record(name, t0, t1, **(extra(args, out) if extra else {}))
        return out
    return wrapper


def install_probes(sink: SpanSink):
    """Wrap every probed entry point; returns a function restoring them."""
    saved = []
    for owner, attribute, name, extra in _probes():
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _timed(sink, name, original, extra))

    def restore() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
    return restore
