"""Plane-granular result cache: the unit is one trial of one batch job.

The whole-campaign result cache (:mod:`repro.serve.resultcache`) turns
exact re-requests into mmap reads, but the dominant *variation*
workload — the same world with one more origin, a longer trial run, one
extra protocol — used to be a 100 % miss that recomputed every
(protocol, origin) batch.  This module caches the output of one
:class:`~repro.sim.executor.TrialBatchJob` trial instead: the
:class:`~repro.sim.batch.PlaneSlice` columns the plane-only kernel
already emits, stored bit-packed as CRC-checked columnar snapshots
(:func:`repro.io.columnar.write_snapshot`) next to the ``.result``
entries.  A campaign runner decomposes its grid into these units,
probes per unit, dispatches only the missing batches, and reassembles
hits + fresh planes through the ordinary streaming accumulators — so
"add origin G" computes 1/24 of a 6-origin × 4-protocol grid and
"extend 20→30 trials" computes only trials 20–29 (counter-addressed
RNG makes trials independent by construction).

Unit identity is a SHA-256 over the world/shard fingerprint, the
per-protocol scan-config hash plus base seed, the (protocol, origin,
trial) coordinate, the shard coordinate, and the **origin-name
universe**: shared burst outages are drawn against the full origin
list (:mod:`repro.conditions.outages`), so a plane is only reusable
between runs that agree on every participating origin name — which is
exactly why the serving layer observes origin *subsets* under the
scenario's full universe.

The same durability rules as every other cache here apply: atomic
temp-file + rename writes, per-segment CRCs, corrupt entries surfacing
as a recompute-and-overwrite (``serve.plane_repair``), write failures
swallowed.  Counters (``serve.plane_hit`` / ``serve.plane_miss`` /
``serve.plane_store`` / ``serve.plane_repair``) live in the ``serve.``
namespace, excluded from the cross-backend determinism contract —
cache warmth is process-local state.

Environment:

* ``REPRO_PLANE_CACHE_DIR`` — cache root (default: the result-cache
  root, so plane entries live next to ``.result`` entries).
* ``REPRO_PLANE_CACHE=0`` — disable the plane cache entirely (the
  non-incremental differential reference path).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.io.columnar import (FORMAT_VERSION, SnapshotError,
                               read_snapshot, read_snapshot_manifest,
                               write_snapshot)
from repro.telemetry.context import current as _telemetry

ENV_PLANE_CACHE_DIR = "REPRO_PLANE_CACHE_DIR"
ENV_PLANE_CACHE = "REPRO_PLANE_CACHE"

#: Bump when the unit layout or keying changes meaning: old entries
#: must never satisfy new probes.
PLANE_VERSION = 1

_SUFFIX = ".planes"

PathLike = Union[str, os.PathLike]


def cache_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the plane-cache toggle: explicit override > env > on."""
    if override is not None:
        return bool(override)
    return os.environ.get(ENV_PLANE_CACHE, "1") != "0"


def cache_dir(directory: Optional[PathLike] = None) -> Path:
    """Resolve the cache root: argument > env > result-cache root."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_PLANE_CACHE_DIR)
    if env:
        return Path(env)
    from repro.serve.resultcache import cache_dir as result_cache_dir
    return result_cache_dir()


def entry_path(key: str, directory: Optional[PathLike] = None) -> Path:
    return cache_dir(directory) / f"{key}{_SUFFIX}"


def world_digest(world_fingerprint: Mapping) -> str:
    """A short stable identity of a world fingerprint (16 hex chars)."""
    blob = json.dumps(dict(world_fingerprint), sort_keys=True,
                      default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PlaneCacheSession:
    """Probe/store context for one campaign run.

    Precomputes everything shared by every unit key — the world
    fingerprint, the config hash, the origin universe and the shard
    count — so a runner only supplies the (protocol, origin, trial, shard)
    coordinate.  Tracks its own hit/miss/store/repair tallies for run
    metadata alongside the global ``serve.plane_*`` counters.
    """

    world_fp: Mapping
    config_hash: str
    seed: int
    universe: Sequence[str]
    n_shards: int = 1
    directory: Optional[PathLike] = None
    hits: int = 0
    misses: int = 0
    stores: int = 0
    repairs: int = 0
    _world_digest: str = field(default="", init=False)

    def __post_init__(self) -> None:
        self._world_digest = world_digest(self.world_fp)

    def key_for(self, protocol: str, origin: str, trial: int,
                shard_index: int = 0) -> str:
        payload = {
            "plane_version": PLANE_VERSION,
            "snapshot_format": FORMAT_VERSION,
            "world": dict(self.world_fp),
            "config": self.config_hash,
            "seed": int(self.seed),
            "protocol": protocol,
            "origin": origin,
            "trial": int(trial),
            "universe": list(self.universe),
            "shard": [int(shard_index), int(self.n_shards)],
        }
        blob = json.dumps(payload, sort_keys=True,
                          default=str).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def probe(self, protocol: str, origin: str, trial: int,
              shard_index: int = 0):
        """The cached :class:`~repro.sim.batch.PlaneSlice` or ``None``.

        ``None`` means *dispatch this unit*: either a clean miss
        (``serve.plane_miss``) or a corrupt entry (``serve.plane_repair``
        — the recompute's store overwrites it).  Wrong bytes are never
        returned: every segment is CRC-checked and the stored coordinate
        is cross-checked against the probe's.
        """
        from repro.sim.batch import PlaneSlice

        tel = _telemetry()
        key = self.key_for(protocol, origin, trial, shard_index)
        path = entry_path(key, self.directory)
        if not path.exists():
            self.misses += 1
            tel.count("serve.plane_miss", 1)
            return None
        try:
            snapshot = read_snapshot(path)
            if snapshot.kind != "planes":
                raise SnapshotError(f"{path}: snapshot holds a "
                                    f"{snapshot.kind!r}, not planes")
            meta = snapshot.meta
            if (meta.get("protocol"), meta.get("origin"),
                    meta.get("trial")) != (protocol, origin, int(trial)):
                raise SnapshotError(f"{path}: unit coordinate mismatch")
            n_rows = int(meta["n_rows"])
            accessible = np.unpackbits(
                snapshot.arrays["accessible"],
                count=n_rows).astype(bool)
            plane = PlaneSlice(
                protocol=protocol, trial=int(trial), origin=origin,
                ip=np.asarray(snapshot.arrays["ip"], dtype=np.uint32),
                as_index=np.asarray(snapshot.arrays["as_index"],
                                    dtype=np.int64),
                accessible=accessible)
        except (SnapshotError, OSError, ValueError, KeyError):
            self.repairs += 1
            tel.count("serve.plane_repair", 1)
            return None
        self.hits += 1
        tel.count("serve.plane_hit", 1)
        return plane

    def store(self, protocol: str, origin: str, trial: int, plane,
              shard_index: int = 0) -> Optional[Path]:
        """Persist one freshly computed plane unit; ``None`` on failure.

        Write failures never propagate — the plane is already in hand,
        and the cache must stay an accelerator, not a dependency.
        """
        tel = _telemetry()
        key = self.key_for(protocol, origin, trial, shard_index)
        path = entry_path(key, self.directory)
        meta = {
            "key": key,
            "protocol": protocol,
            "origin": origin,
            "trial": int(trial),
            "shard": [int(shard_index), int(self.n_shards)],
            "n_rows": int(len(plane.ip)),
            "world": self._world_digest,
            "universe": list(self.universe),
        }
        arrays = {
            "ip": np.asarray(plane.ip, dtype=np.uint32),
            "as_index": np.asarray(plane.as_index, dtype=np.int64),
            "accessible": np.packbits(
                np.asarray(plane.accessible, dtype=bool)),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_snapshot(path, "planes", meta, arrays)
        except (OSError, TypeError, ValueError):
            return None
        self.stores += 1
        tel.count("serve.plane_store", 1)
        from repro.io import prune
        prune.maybe_prune()
        return path

    def stats(self) -> dict:
        """Run-metadata summary of this session's cache traffic."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "repairs": self.repairs}


def session_for(world, config, universe: Sequence[str],
                n_shards: int = 1,
                enabled: Optional[bool] = None,
                directory: Optional[PathLike] = None
                ) -> Optional[PlaneCacheSession]:
    """A session for one run, or ``None`` when the cache is off.

    ``world`` is a monolithic :class:`~repro.sim.world.World` or a
    :class:`~repro.sim.shard.ShardedWorld` (anything
    :func:`~repro.telemetry.manifest.world_fingerprint` accepts);
    ``config`` is the campaign's *base* scan config — per-trial
    reseeding is captured by the trial index in each unit key.
    """
    if not cache_enabled(enabled):
        return None
    from repro.telemetry.manifest import config_hash, world_fingerprint

    return PlaneCacheSession(
        world_fp=world_fingerprint(world),
        config_hash=config_hash(config),
        seed=int(config.seed),
        universe=tuple(universe),
        n_shards=int(n_shards),
        directory=directory)


# ----------------------------------------------------------------------
# Listing and maintenance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneEntry:
    """One cached plane unit, as listed by :func:`list_entries`."""

    key: str
    path: Path
    nbytes: int
    meta: Optional[dict] = None
    valid: bool = True


def list_entries(directory: Optional[PathLike] = None) -> List[PlaneEntry]:
    """Enumerate plane entries (manifest-only reads; no array I/O)."""
    root = cache_dir(directory)
    entries: List[PlaneEntry] = []
    if not root.is_dir():
        return entries
    for path in sorted(root.glob(f"*{_SUFFIX}")):
        nbytes = path.stat().st_size
        try:
            meta = read_snapshot_manifest(path)["meta"]
            entries.append(PlaneEntry(key=path.stem, path=path,
                                      nbytes=nbytes, meta=meta))
        except SnapshotError:
            entries.append(PlaneEntry(key=path.stem, path=path,
                                      nbytes=nbytes, valid=False))
    return entries


def by_world(entries: Sequence[PlaneEntry]) -> Dict[str, dict]:
    """Group plane entries by world digest → ``{count, nbytes}`` rows."""
    groups: Dict[str, dict] = {}
    for entry in entries:
        digest = (entry.meta or {}).get("world", "?")
        row = groups.setdefault(digest, {"count": 0, "nbytes": 0})
        row["count"] += 1
        row["nbytes"] += entry.nbytes
    return groups


def clear(directory: Optional[PathLike] = None) -> int:
    """Delete every plane entry; returns how many were removed."""
    removed = 0
    for entry in list_entries(directory):
        try:
            entry.path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
