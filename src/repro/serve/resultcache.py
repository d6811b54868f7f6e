"""Content-addressed cache of served campaign results.

The dominant serving workload is *re-running the same configuration*:
anyone comparing origins re-requests the identical (config, seed, world)
triple, so a finished result is worth far more on disk than the CPU it
took to compute.  This module memoizes rendered reports the same way
:mod:`repro.io.worldcache` memoizes compiled worlds — content-addressed
by :func:`repro.sim.campaign.campaign_fingerprint` (the ``config_hash``
/ seed / world-fingerprint triple the telemetry manifest emits, plus the
grid shape and report surface) and stored as columnar *result
snapshots* (:func:`repro.io.columnar.save_result`): the exact report
bytes next to the campaign's arrays, per-segment CRC-checked, written
with temp-file + atomic rename.

Durability properties the fault-injection suite pins:

* a killed or cancelled writer never publishes partial bytes (atomic
  rename, collision-free temp names);
* a truncated or bit-flipped entry is *detected* (CRC), surfaces as
  :class:`CorruptEntry`, and is recomputed and repaired by the caller —
  wrong bytes are never served;
* the cache is an accelerator, not a dependency: write failures are
  swallowed, reads fall back to recompute.

Environment:

* ``REPRO_RESULT_CACHE_DIR`` — cache root (default: ``results/`` under
  the world-cache root, i.e. ``$XDG_CACHE_HOME/repro/results``).
* ``REPRO_RESULT_CACHE=0`` — disable the result cache entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Union

from repro.io.columnar import (ResultSnapshot, SnapshotError,
                               load_result, read_snapshot_manifest,
                               save_result)
from repro.telemetry.context import current as _telemetry

ENV_RESULT_CACHE_DIR = "REPRO_RESULT_CACHE_DIR"
ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"

_SUFFIX = ".result"

PathLike = Union[str, os.PathLike]


class CorruptEntry(Exception):
    """A result-cache entry exists but fails validation (CRC, format).

    Raised instead of returning wrong bytes; the serving layer counts it
    (``serve.cache_repair``), recomputes, and overwrites the entry.
    """


def cache_enabled() -> bool:
    """Whether the result cache is on (``REPRO_RESULT_CACHE`` != 0)."""
    return os.environ.get(ENV_RESULT_CACHE, "1") != "0"


def cache_dir(directory: Optional[PathLike] = None) -> Path:
    """Resolve the cache root: argument > env > world-cache root/results."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_RESULT_CACHE_DIR)
    if env:
        return Path(env)
    from repro.io.worldcache import cache_dir as world_cache_dir
    return world_cache_dir() / "results"


def entry_path(key: str, directory: Optional[PathLike] = None) -> Path:
    return cache_dir(directory) / f"{key}{_SUFFIX}"


def store(key: str, report: str, dataset, meta: Optional[Mapping] = None,
          directory: Optional[PathLike] = None) -> Optional[Path]:
    """Write a result entry atomically; None when the write failed.

    Failures never propagate: the freshly computed result is already in
    hand, and the cache must stay an accelerator, not a dependency.
    """
    tel = _telemetry()
    path = entry_path(key, directory)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tel.span("serve.result_save", key=key[:12]):
            save_result(path, report, dataset,
                        meta={**dict(meta or {}), "key": key})
    except (OSError, TypeError, ValueError):
        return None
    from repro.io import prune
    prune.maybe_prune()
    return path


def load(key: str,
         directory: Optional[PathLike] = None) -> Optional[ResultSnapshot]:
    """Load the entry for ``key``: None on miss, raises on corruption.

    A readable entry comes back as an mmap-backed
    :class:`~repro.io.columnar.ResultSnapshot` — the ~2 ms warm-hit path.
    An entry that exists but fails any check (truncation, flipped bits,
    stale format) raises :class:`CorruptEntry` so the caller recomputes
    and repairs rather than serving wrong bytes.
    """
    tel = _telemetry()
    path = entry_path(key, directory)
    if not path.exists():
        return None
    try:
        with tel.span("serve.result_load", key=key[:12]):
            return load_result(path)
    except (SnapshotError, OSError, ValueError, KeyError,
            UnicodeDecodeError) as error:
        raise CorruptEntry(f"{path}: {error}") from None


@dataclass(frozen=True)
class ResultEntry:
    """One cached result, as listed by :func:`list_entries`."""

    key: str
    path: Path
    nbytes: int
    meta: Optional[dict] = None
    valid: bool = True


def list_entries(directory: Optional[PathLike] = None) -> List[ResultEntry]:
    """Enumerate result entries (manifest-only reads; no array I/O)."""
    root = cache_dir(directory)
    entries: List[ResultEntry] = []
    if not root.is_dir():
        return entries
    for path in sorted(root.glob(f"*{_SUFFIX}")):
        nbytes = path.stat().st_size
        try:
            meta = read_snapshot_manifest(path)["meta"].get("result", {})
            entries.append(ResultEntry(key=path.stem, path=path,
                                       nbytes=nbytes, meta=meta))
        except SnapshotError:
            entries.append(ResultEntry(key=path.stem, path=path,
                                       nbytes=nbytes, valid=False))
    return entries


def clear(directory: Optional[PathLike] = None) -> int:
    """Delete every result entry; returns how many were removed."""
    removed = 0
    for entry in list_entries(directory):
        try:
            entry.path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
