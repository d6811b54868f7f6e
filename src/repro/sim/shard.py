"""Sharded, out-of-core worlds: stream big synthetic Internets.

A monolithic :class:`~repro.sim.world.World` is built, held, and
observed as one in-memory object, which caps world size at RAM.  This
module partitions the synthetic Internet into contiguous per-AS-group
*shards*, each generated independently and streamed through
observe/execute/analyze on a fixed memory budget:

* **Independent generation.**  Every per-AS draw in
  :func:`repro.hosts.population.populate` is keyed only on the AS
  index, and prefix allocation in :mod:`repro.topology.generator` is
  sequential in spec order — so shard K's host columns are buildable
  without shards 0..K-1, and per-shard tables concatenated in shard
  order equal the monolithic :class:`~repro.hosts.table.HostTable`
  byte for byte (each AS's address range is disjoint from and above
  its predecessors').
* **Columnar segments.**  Shard host tables persist as content-addressed
  ``hosts`` snapshots in the world cache
  (:func:`repro.io.worldcache.cached_build_shard`); a warm shard load
  is an mmap, and :meth:`ShardedWorld.shard_world` wraps one shard's
  columns in a full-topology ``World`` — every blocking/loss/churn
  draw is elementwise in (host, AS, trial, origin), so the shard
  world's observation equals the monolithic observation restricted to
  the shard's rows.
* **Streaming execution.**  :func:`run_sharded_campaign` runs the
  (protocol × trial × origin) grid one shard at a time through the
  ordinary executor backends and reduces each shard's tables into
  :mod:`repro.core.streaming` accumulators immediately, so resident
  state is one shard plus bit-plane accumulators.  A memory-budget
  model (``REPRO_MEMORY_BUDGET``, default 512 MB) rejects shard plans
  whose single-shard footprint cannot fit.

Differential guarantees are pinned by ``tests/test_shard_world.py``:
materialized shard tables equal the monolithic build, streamed packed
planes equal the monolithic engine's, and the streamed paper-grid
numbers equal the dataset-level analyses — at seed scale, across
executor backends.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.streaming import StreamingCampaignResult, StreamingTrial
from repro.hosts.population import populate
from repro.hosts.table import HostTable
from repro.origins import Origin
from repro.rng import CounterRNG
from repro.scanner.zmap import ZMapConfig
from repro.sim.world import Observation, World, WorldDefaults
from repro.telemetry.context import current as _telemetry
from repro.topology.asn import PROTOCOLS
from repro.topology.generator import Topology, build_topology
from repro.topology.geo import default_countries

#: Environment variable bounding resident memory during streaming runs
#: (bytes; suffix-free integer).  The default models a small container.
ENV_MEMORY_BUDGET = "REPRO_MEMORY_BUDGET"
DEFAULT_MEMORY_BUDGET = 512 * 2 ** 20

#: Default shard granularity: target host rows per shard.  Constant (not
#: budget-derived) so shard boundaries — and therefore per-shard cache
#: keys — are stable across machines and budget settings.
DEFAULT_SHARD_ROWS = 131_072

#: Footprint model constants (see docs/SCALING.md): bytes per resident
#: host-table row, and bytes per observed row per (trial, origin) job
#: held between observation and reduction.
_ROW_BYTES = 21
_OBS_ROW_BYTES = 34
#: Fixed overhead reserved for the interpreter, numpy, the topology and
#: the plane accumulators.
_BASE_OVERHEAD = 192 * 2 ** 20


class MemoryBudgetError(RuntimeError):
    """A shard plan cannot run within the configured memory budget."""


def memory_budget(budget: Optional[int] = None) -> int:
    """Resolve the streaming memory budget: argument > env > default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(ENV_MEMORY_BUDGET)
    if env:
        return int(env)
    return DEFAULT_MEMORY_BUDGET


@dataclass(frozen=True)
class ShardManifest:
    """The partition of one world into contiguous AS-index groups.

    ``boundaries`` has ``n_shards + 1`` entries; shard *i* covers dense
    AS indices ``[boundaries[i], boundaries[i+1])``.  ``n_hosts`` is the
    exact per-shard service-row count (populate places exactly the
    spec'd counts, so this is known without building).  ``base_key`` is
    the :func:`repro.io.worldcache.world_key` of the monolithic inputs;
    together with the boundaries it content-addresses every segment.
    """

    seed: int
    boundaries: Tuple[int, ...]
    n_hosts: Tuple[int, ...]
    base_key: str

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) - 1

    def as_range(self, index: int) -> Tuple[int, int]:
        return (self.boundaries[index], self.boundaries[index + 1])

    def digest(self) -> str:
        """A short stable identity of the partition (16 hex chars)."""
        payload = json.dumps(
            {"seed": self.seed, "boundaries": list(self.boundaries),
             "n_hosts": list(self.n_hosts), "base_key": self.base_key},
            sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_meta(self) -> dict:
        return {"seed": self.seed, "n_shards": self.n_shards,
                "boundaries": list(self.boundaries),
                "n_hosts": list(self.n_hosts),
                "digest": self.digest()}


def _per_as_rows(topology: Topology) -> np.ndarray:
    """Exact service-row counts per dense AS index (from the specs)."""
    systems = list(topology.ases)
    return np.array([sum(s.spec.hosts_for(p) for p in PROTOCOLS)
                     for s in systems], dtype=np.int64)


def plan_shards(topology: Topology,
                n_shards: Optional[int] = None,
                max_hosts: Optional[int] = None) -> Tuple[int, ...]:
    """Partition AS indices into contiguous groups of bounded size.

    Greedy first-fit in index order: a shard closes once it holds at
    least ``target`` rows (``max_hosts``, or total/``n_shards``), so
    every shard except possibly the last is non-empty and no AS is
    split.  Deterministic in the topology alone.
    """
    rows = _per_as_rows(topology)
    total = int(rows.sum())
    if n_shards is not None and max_hosts is not None:
        raise ValueError("pass n_shards or max_hosts, not both")
    if n_shards is not None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        target = max(1, -(-total // n_shards))
    else:
        target = max_hosts if max_hosts is not None else DEFAULT_SHARD_ROWS
        if target < 1:
            raise ValueError("max_hosts must be >= 1")
    boundaries = [0]
    acc = 0
    for index, count in enumerate(rows):
        acc += int(count)
        if acc >= target and index + 1 < len(rows):
            boundaries.append(index + 1)
            acc = 0
    boundaries.append(len(rows))
    # Greedy accumulation can overshoot the requested shard count by
    # one; merge the smallest tail shard back in that case.
    if n_shards is not None:
        while len(boundaries) - 1 > n_shards:
            boundaries.pop(-2)
    return tuple(boundaries)


class ShardedWorld:
    """A world partitioned into independently-generated host shards.

    Holds the (small) full topology and defaults plus one loader per
    shard; host columns materialize shard-at-a-time, normally as mmap'd
    views over content-addressed columnar segments.  Use
    :meth:`shard_world` for streaming observation and
    :meth:`materialize` for the monolithic equivalent (differential
    tests; small worlds only).
    """

    def __init__(self, topology: Topology, seed: int,
                 defaults: Optional[WorldDefaults],
                 manifest: ShardManifest,
                 loaders: Sequence[Callable[[], HostTable]]) -> None:
        if len(loaders) != manifest.n_shards:
            raise ValueError("one loader per shard, exactly")
        self.topology = topology
        self.seed = seed
        self.defaults = defaults if defaults is not None else WorldDefaults()
        self.manifest = manifest
        self._loaders = list(loaders)

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    def shard_hosts(self, index: int) -> HostTable:
        """One shard's host table (fresh load; nothing retained here)."""
        return self._loaders[index]()

    def shard_world(self, index: int) -> World:
        """A full-topology world holding only shard ``index``'s hosts.

        Identical seed and models to the monolithic world; every
        stochastic draw is elementwise in (host, AS, trial, origin), so
        observing this world yields exactly the monolithic observation
        rows whose IPs fall in the shard.
        """
        return World(self.topology, self.shard_hosts(index), self.seed,
                     defaults=self.defaults)

    def materialize(self) -> World:
        """Concatenate every shard into one monolithic world.

        Shard address ranges are disjoint and increasing, so adopting
        the concatenated columns via ``from_sorted_columns`` both
        avoids a re-sort and *asserts* the ordering invariant.
        """
        tables = [self.shard_hosts(i) for i in range(self.n_shards)]
        hosts = HostTable.from_sorted_columns(
            ip=np.concatenate([t.ip for t in tables]),
            protocol=np.concatenate([t.protocol for t in tables]),
            as_index=np.concatenate([t.as_index for t in tables]),
            country_index=np.concatenate([t.country_index for t in tables]))
        return World(self.topology, hosts, self.seed,
                     defaults=self.defaults)

    def counts_by_protocol(self) -> Dict[str, int]:
        """Total spec'd services per protocol (no shard materialized)."""
        totals: Dict[str, int] = {}
        for system in self.topology.ases:
            for protocol in PROTOCOLS:
                count = system.spec.hosts_for(protocol)
                if count:
                    totals[protocol] = totals.get(protocol, 0) + count
        return totals

    def fingerprint_payload(self) -> Dict[str, object]:
        """World identity for manifests and campaign fingerprints.

        Matches the monolithic ``world_fingerprint`` fields and adds the
        shard-manifest digest, so sharded and monolithic runs of the
        same world are distinguishable cache keys while two runs of the
        same partition collide (and share results).
        """
        return {
            "seed": self.seed,
            "n_ases": len(self.topology.ases),
            "services": self.counts_by_protocol(),
            "shards": {"n": self.n_shards,
                       "digest": self.manifest.digest()},
        }

    def shard_footprint(self, index: int, n_origins: int,
                        n_trials: int) -> int:
        """Modelled peak resident bytes while streaming shard ``index``.

        One shard's host columns plus every (protocol, trial, origin)
        observation of it held between execution and reduction — the
        model behind the budget check in :func:`run_sharded_campaign`
        (see docs/SCALING.md for the derivation).
        """
        rows = self.manifest.n_hosts[index]
        return rows * _ROW_BYTES \
            + rows * _OBS_ROW_BYTES * n_origins * n_trials


def build_sharded_world(specs: Sequence, seed: int,
                        defaults: Optional[WorldDefaults] = None,
                        n_shards: Optional[int] = None,
                        max_hosts: Optional[int] = None,
                        cache: Union[bool, str, None] = None
                        ) -> ShardedWorld:
    """Plan and wire a sharded world from an AS spec list.

    The topology (small: registries and prefix tries, no host columns)
    is built eagerly; host shards stay virtual until streamed.  With the
    cache enabled (the default, honoring ``REPRO_WORLD_CACHE``), each
    shard loader round-trips a content-addressed columnar segment —
    first touch populates and writes, later touches mmap.
    """
    from repro.io import worldcache

    countries = default_countries()
    topology = build_topology(list(specs), countries)
    boundaries = plan_shards(topology, n_shards=n_shards,
                             max_hosts=max_hosts)
    rows = _per_as_rows(topology)
    n_hosts = tuple(int(rows[start:stop].sum())
                    for start, stop in zip(boundaries, boundaries[1:]))
    base_key = worldcache.world_key(list(specs), seed, defaults,
                                    countries)
    manifest = ShardManifest(seed=seed, boundaries=boundaries,
                             n_hosts=n_hosts, base_key=base_key)

    directory = None
    if isinstance(cache, (str, os.PathLike)):
        directory, cache = cache, True
    use_cache = worldcache.cache_enabled() if cache is None else bool(cache)

    def make_loader(index: int) -> Callable[[], HostTable]:
        as_range = manifest.as_range(index)

        def build() -> HostTable:
            rng = CounterRNG(seed, "scenario").derive("population")
            return populate(topology, rng, as_range=as_range)

        if not use_cache:
            return build
        return lambda: worldcache.cached_build_shard(
            base_key, index, boundaries, build, directory=directory)

    loaders = [make_loader(i) for i in range(manifest.n_shards)]
    world_defaults = defaults if defaults is not None else WorldDefaults()
    return ShardedWorld(topology, seed, world_defaults, manifest, loaders)


# ----------------------------------------------------------------------
# Streaming campaign execution
# ----------------------------------------------------------------------

def _empty_observation(protocol: str, trial: int,
                       origin: str) -> Observation:
    """A zero-row observation for a shard with no hosts of a protocol."""
    return Observation(
        protocol=protocol, trial=trial, origin=origin,
        ip=np.zeros(0, dtype=np.uint32),
        as_index=np.zeros(0, dtype=np.int64),
        country_index=np.zeros(0, dtype=np.int64),
        geo_index=np.zeros(0, dtype=np.int64),
        probe_mask=np.zeros(0, dtype=np.uint8),
        l7=np.zeros(0, dtype=np.uint8),
        time=np.zeros(0, dtype=np.float32))


def run_sharded_campaign(sharded: ShardedWorld,
                         origins: Sequence[Origin],
                         zmap: ZMapConfig,
                         protocols: Sequence[str] = PROTOCOLS,
                         n_trials: int = 3,
                         executor=None,
                         workers: Optional[int] = None,
                         planned: bool = True,
                         budget: Optional[int] = None,
                         collect: bool = False,
                         origin_universe: Optional[Sequence[str]] = None,
                         plane_cache: Optional[bool] = None,
                         plane_extra=None,
                         plane_dir=None,
                         telemetry=None):
    """Stream the full campaign grid shard-by-shard under a memory budget.

    Schedules the (protocol × trial × origin) jobs of one shard at a
    time through an ordinary executor backend
    (:func:`repro.sim.executor.make_executor`) and reduces each shard's
    stacked trial tables into :class:`~repro.core.streaming` plane
    accumulators before the next shard loads, so peak memory is one
    shard's footprint plus the accumulators — independent of world
    size.  Shards whose modelled footprint exceeds ``budget``
    (default ``REPRO_MEMORY_BUDGET``) raise :class:`MemoryBudgetError`
    with a re-sharding hint *before* any memory is committed.

    Each shard schedules one trial-batch job per (protocol, origin)
    covering its whole trial axis (see :mod:`repro.sim.batch`).  Without
    ``collect`` the jobs run in *plane-only* mode — the kernel emits
    :class:`~repro.sim.batch.PlaneSlice` columns that stream straight
    into the packed bit-plane accumulators, skipping per-cell
    ``Observation``/``TrialData`` materialization entirely.  Accumulated
    planes and analyses are byte-identical either way.

    In plane-only mode every (protocol, origin, shard, trial) unit is
    probed against the plane cache (:mod:`repro.serve.planecache`)
    before dispatch, so a warm re-run with one new origin recomputes
    only that origin's batches; ``plane_cache=False`` (or
    ``REPRO_PLANE_CACHE=0``) forces the non-incremental reference
    path, and the unplanned oracle (``planned=False``) never touches
    the cache.  ``origin_universe`` pins the origin-name list that shared
    outage draws see, letting origin *subsets* reuse units computed
    under the full scenario universe.

    Returns a :class:`~repro.core.streaming.StreamingCampaignResult`;
    with ``collect=True`` returns ``(result, dataset)`` where
    ``dataset`` is the fully materialized
    :class:`~repro.core.dataset.CampaignDataset` — byte-identical to
    ``run_campaign`` on the monolithic world, and only sensible at
    small scale (it is exactly the memory the streaming path avoids).
    """
    from repro.core.dataset import CampaignDataset, TrialData
    from repro.sim.campaign import build_trial_batches, _by_cell, \
        _run_units, _stack, _universe_names
    from repro.sim.executor import make_executor

    tel = _telemetry()
    if tel.enabled and getattr(tel, "trace_id", None) is None:
        # Same mint-if-absent rule as run_campaign: a standalone sharded
        # run starts its own trace, a serve-set request trace is kept.
        from repro.telemetry.tracing import new_trace_id
        tel.trace_id = new_trace_id()
    limit = memory_budget(budget)
    n_origins = len(origins)
    for index in range(sharded.n_shards):
        footprint = sharded.shard_footprint(index, n_origins, n_trials)
        if footprint + _BASE_OVERHEAD > limit:
            raise MemoryBudgetError(
                f"shard {index} needs ~{footprint // 2 ** 20} MiB "
                f"(+{_BASE_OVERHEAD // 2 ** 20} MiB base) against a "
                f"{limit // 2 ** 20} MiB budget; rebuild with more "
                f"shards (smaller max_hosts) or raise "
                f"{ENV_MEMORY_BUDGET}")

    plane_only = not collect
    jobs = build_trial_batches(origins, zmap, protocols, n_trials,
                               planned=planned, plane_only=plane_only,
                               origin_universe=origin_universe)
    session = None
    if plane_only and planned:
        from repro.serve import planecache
        session = planecache.session_for(
            sharded, zmap, _universe_names(origins, origin_universe),
            n_shards=sharded.n_shards, enabled=plane_cache,
            directory=plane_dir, extra=plane_extra)
    backend = make_executor(executor, workers)
    n_ases = len(sharded.topology.ases)
    cells = [(protocol, trial) for protocol in protocols
             for trial in range(n_trials)]

    accumulators: Dict[Tuple[str, int], StreamingTrial] = {}
    collected: Dict[Tuple[str, int], List[TrialData]] = {}
    reports = []
    with tel.span("shard.run_campaign", n_shards=sharded.n_shards,
                  n_jobs=len(jobs) * sharded.n_shards,
                  budget_bytes=limit, plane_only=plane_only):
        for index in range(sharded.n_shards):
            with tel.span("shard.stream", shard=index,
                          rows=int(sharded.manifest.n_hosts[index])):
                world = sharded.shard_world(index)
                present = {p: len(world.hosts.for_protocol(p)) > 0
                           for p in protocols}
                live = [j for j in jobs if present[j.protocol]]
                outputs, report = _run_units(world, live, backend, session,
                                             shard_index=index)
                if report is not None:
                    reports.append(report)
                # A protocol this shard holds no hosts of contributes
                # ``None`` outputs, reduced as zero rows.
                by_cell = _by_cell(jobs, outputs)
                for protocol, trial in cells:
                    members = by_cell[(protocol, trial)]
                    names = [name for name, _ in members]
                    acc = accumulators.get((protocol, trial))
                    if acc is None:
                        acc = StreamingTrial(protocol=protocol,
                                             trial=trial, n_ases=n_ases)
                        accumulators[(protocol, trial)] = acc
                    if plane_only:
                        _reduce_planes(acc, names,
                                       [s for _, s in members])
                        continue
                    obs = [o if o is not None else
                           _empty_observation(protocol, trial, name)
                           for name, o in members]
                    table = _stack(protocol, trial, names, obs,
                                   zmap.n_probes)
                    acc.add_shard(table)
                    collected.setdefault((protocol, trial),
                                         []).append(table)
                tel.count("shard.shards_processed", 1)
                del world, outputs

    metadata = _merge_metadata(sharded, zmap, origins, n_trials, reports)
    if session is not None:
        metadata["plane_cache"] = session.stats()
    result = StreamingCampaignResult(accumulators, metadata=metadata)
    if not collect:
        return result
    tables = [_concat_tables(parts)
              for parts in collected.values()]
    dataset = CampaignDataset(tables, metadata=dict(metadata))
    return result, dataset


def _reduce_planes(acc: StreamingTrial, names: List[str],
                   slices: List) -> None:
    """Stream one cell's plane slices into an accumulator.

    ``slices`` holds one :class:`~repro.sim.batch.PlaneSlice` per origin
    (campaign order), or ``None`` entries when the shard has no hosts of
    the protocol (reduced as zero rows, mirroring the empty-observation
    fill of the materialized path).
    """
    reference = next((s for s in slices if s is not None), None)
    if reference is None:
        acc.add_shard_planes(names, np.zeros(0, dtype=np.int64),
                             np.zeros((len(names), 0), dtype=bool))
        return
    for plane_slice in slices:
        if not np.array_equal(plane_slice.ip, reference.ip):
            raise AssertionError(
                "origins disagree on the scanned service set — churn or "
                "blocklists are origin-dependent, which violates the "
                "synchronized-campaign invariant")
    acc.add_shard_planes(names, reference.as_index,
                         np.stack([s.accessible for s in slices]))


def _concat_tables(parts):
    """Column-wise concatenation of one trial's per-shard tables."""
    from repro.core.dataset import TrialData

    first = next(p for p in parts)
    return TrialData(
        protocol=first.protocol, trial=first.trial,
        origins=list(first.origins),
        ip=np.concatenate([p.ip for p in parts]),
        as_index=np.concatenate([p.as_index for p in parts]),
        country_index=np.concatenate([p.country_index for p in parts]),
        geo_index=np.concatenate([p.geo_index for p in parts]),
        probe_mask=np.concatenate([p.probe_mask for p in parts], axis=1),
        l7=np.concatenate([p.l7 for p in parts], axis=1),
        time=np.concatenate([p.time for p in parts], axis=1),
        n_probes=first.n_probes)


def _merge_metadata(sharded: ShardedWorld, zmap: ZMapConfig,
                    origins: Sequence[Origin], n_trials: int,
                    reports) -> dict:
    """Campaign-style metadata folding every per-shard execution report."""
    execution: Dict[str, object] = {}
    if reports:
        execution = {
            "backend": reports[0].backend,
            "workers": reports[0].workers,
            "n_jobs": sum(r.n_jobs for r in reports),
            "wall_s": round(sum(r.wall_s for r in reports), 6),
            "busy_s": round(sum(r.busy_s for r in reports), 6),
            "n_shards": len(reports),
        }
        peaks = [r.peak_rss_bytes for r in reports if r.peak_rss_bytes]
        if peaks:
            execution["peak_rss_bytes"] = max(peaks)
    return {
        "seed": zmap.seed,
        "n_probes": zmap.n_probes,
        "probe_spacing_s": zmap.probe_spacing_s,
        "pps": zmap.pps,
        "scan_duration_s": zmap.scan_duration_s,
        "origins": [o.name for o in origins],
        "n_trials": n_trials,
        "sharded": sharded.manifest.to_meta(),
        "execution": execution,
    }
