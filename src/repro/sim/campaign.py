"""Synchronized multi-origin campaign execution.

A campaign is the paper's experimental unit: N trials × M protocols, all
origins scanning the same addresses at approximately the same time with a
shared ZMap seed.  One loop runs it for a monolithic
:class:`~repro.sim.world.World` (a world with one shard) or a
:class:`~repro.sim.shard.ShardedWorld` alike; the entry point picks
the output: :func:`run_campaign` materializes a
:class:`~repro.core.dataset.CampaignDataset`, :func:`run_plane_campaign`
streams packed planes into a
:class:`~repro.core.streaming.StreamingCampaignResult`.

Execution is delegated to a pluggable backend (:mod:`repro.sim.executor`):
the (protocol, trial, origin) observation grid is flattened into
independent (protocol, origin) trial-batch jobs, fanned out serially or
across threads/processes, and reassembled in deterministic grid order.
Every job carries its own trial-reseeded configs and the origin's
``first_trial``, so the output is bit-identical regardless of backend or
scheduling.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.dataset import CampaignDataset, TrialData
from repro.core.streaming import StreamingCampaignResult, StreamingTrial
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig
from repro.sim.executor import ExecutionReport, Executor, ProgressCallback, \
    TrialBatchJob, make_executor
from repro.sim.world import Observation, World
from repro.telemetry.context import Telemetry, current as _telemetry, use
from repro.telemetry.manifest import build_manifest
from repro.telemetry.tracing import new_trace_id
from repro.topology.asn import PROTOCOLS

if TYPE_CHECKING:
    from repro.sim.shard import ShardedWorld


@dataclass
class Campaign:
    """A runnable campaign description.

    ``executor`` selects the execution backend (a name from
    :data:`repro.sim.executor.BACKENDS` or an :class:`Executor` instance);
    ``workers`` sizes the thread/process pool.  Both default to the
    ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` environment, then to serial.
    """

    world: World
    origins: Tuple[Origin, ...]
    zmap: ZMapConfig
    protocols: Tuple[str, ...] = PROTOCOLS
    n_trials: int = 3
    executor: Union[str, Executor, None] = None
    workers: Optional[int] = None
    #: Observe through the compiled kernel (:mod:`repro.sim.batch`).
    #: ``False`` forces the unplanned reference oracle — byte-identical
    #: output, used by the differential test suites.
    planned: bool = True
    #: Telemetry for the run: a journal path (a fresh collector is opened
    #: and closed around the run), an existing
    #: :class:`~repro.telemetry.context.Telemetry`, or ``None`` to use
    #: whatever context is ambient (usually none — zero overhead).
    telemetry: Union[str, os.PathLike, Telemetry, None] = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("a campaign needs at least one trial")
        names = [o.name for o in self.origins]
        if len(set(names)) != len(names):
            raise ValueError("origin names must be unique")

    def run(self) -> CampaignDataset:
        return run_campaign(self.world, self.origins, self.zmap,
                            self.protocols, self.n_trials,
                            executor=self.executor, workers=self.workers,
                            planned=self.planned, telemetry=self.telemetry)


def _universe_names(origins: Sequence[Origin],
                    origin_universe: Optional[Sequence[str]]
                    ) -> Tuple[str, ...]:
    """The origin-name universe jobs observe under.

    Shared burst outages are drawn against the *full* origin-name list
    (:mod:`repro.conditions.outages`), so observing a subset of origins
    under the full universe — what the serving layer's ``origins``
    filter does — must pass that universe explicitly; otherwise the
    universe is simply the origins being run.
    """
    if origin_universe is None:
        return tuple(o.name for o in origins)
    universe = tuple(origin_universe)
    missing = [o.name for o in origins if o.name not in universe]
    if missing:
        raise ValueError(
            f"origins {missing} are not part of the origin universe "
            f"{list(universe)}")
    return universe


def build_trial_batches(origins: Sequence[Origin], zmap: ZMapConfig,
                        protocols: Sequence[str], n_trials: int,
                        planned: bool = True,
                        plane_only: bool = False,
                        origin_universe: Optional[Sequence[str]] = None
                        ) -> List[TrialBatchJob]:
    """Flatten the campaign into independent (protocol, origin) batches.

    One job per (protocol, origin) carrying every trial the origin
    participates in, each with its trial-reseeded config
    (``seed + trial``), and the origin's precomputed ``first_trial`` —
    computed once here, not per worker, because a worker cannot recover
    it without the full origin participation schedule.
    """
    origin_names = _universe_names(origins, origin_universe)
    first_trials = {o.name: _first_trial(o, n_trials) for o in origins}

    jobs: List[TrialBatchJob] = []
    for protocol in protocols:
        for trial in range(n_trials):
            if not any(o.participates(trial) for o in origins):
                raise ValueError(
                    f"no origin scanned {protocol} trial {trial}")
        for origin in origins:
            trials = tuple(t for t in range(n_trials)
                           if origin.participates(t))
            configs = tuple(dataclasses.replace(zmap, seed=zmap.seed + t)
                            for t in trials)
            jobs.append(TrialBatchJob(
                index=len(jobs), protocol=protocol, origin=origin,
                trials=trials, configs=configs,
                first_trial=first_trials[origin.name],
                origin_names=origin_names, planned=planned,
                plane_only=plane_only))
    return jobs


def run_campaign(world: World | ShardedWorld, origins: Sequence[Origin],
                 zmap: ZMapConfig,
                 protocols: Sequence[str] = PROTOCOLS,
                 n_trials: int = 3,
                 executor: Union[str, Executor, None] = None,
                 workers: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None,
                 planned: bool = True,
                 telemetry: Union[str, os.PathLike, Telemetry, None] = None,
                 origin_universe: Optional[Sequence[str]] = None
                 ) -> CampaignDataset:
    """Execute every (protocol, trial, origin) scan and collect results.

    Each trial re-seeds the shared permutation (``seed + trial``), exactly
    as independent scan waves would; within a trial every origin uses the
    same seed, as §2 specifies.

    ``world`` is a monolithic :class:`~repro.sim.world.World` or a
    :class:`~repro.sim.shard.ShardedWorld`; a sharded world is observed
    shard by shard (under the memory-budget check) and its per-shard
    tables concatenate to exactly the monolithic dataset.

    ``executor`` picks the execution backend (``"serial"``, ``"thread"``,
    ``"process"``, or an :class:`Executor`); ``workers`` sizes its pool;
    ``progress`` is called as ``(jobs_done, jobs_total, job)`` after each
    (protocol, origin) trial batch completes (counted per shard).  Each
    job runs the compiled kernel
    (:func:`repro.sim.batch.observe_trial_batch`) over its whole trial
    axis.  Output is bit-identical across backends; the
    :class:`~repro.sim.executor.ExecutionReport` lands in
    ``metadata["execution"]`` (including per-stage observe timings when
    ``planned``).  ``planned=False`` routes every observation through the
    unplanned reference oracle — byte-identical results, no plan caching.

    ``telemetry`` turns on run instrumentation: pass a journal path (an
    NDJSON journal plus run manifest is written there), a live
    :class:`~repro.telemetry.context.Telemetry` (the caller keeps
    ownership; the manifest is still emitted), or ``None`` to inherit the
    ambient context — usually the disabled no-op, which costs nothing.
    """
    return _run(world, origins, zmap, protocols, n_trials,
                _DatasetSink(zmap.n_probes), executor=executor,
                workers=workers, progress=progress, planned=planned,
                telemetry=telemetry, origin_universe=origin_universe)


def run_plane_campaign(world: World | ShardedWorld,
                       origins: Sequence[Origin],
                       zmap: ZMapConfig,
                       protocols: Sequence[str] = PROTOCOLS,
                       n_trials: int = 3,
                       executor: Union[str, Executor, None] = None,
                       workers: Optional[int] = None,
                       planned: bool = True,
                       origin_universe: Optional[Sequence[str]] = None,
                       plane_cache: Optional[bool] = None,
                       plane_dir: Union[str, os.PathLike, None] = None,
                       telemetry: Union[str, os.PathLike, Telemetry,
                                        None] = None,
                       budget: Optional[int] = None
                       ) -> StreamingCampaignResult:
    """Run a campaign straight into streaming plane accumulators.

    The plane-granular counterpart of :func:`run_campaign`, for a
    monolithic or a sharded world: trial-batch jobs run in *plane-only*
    mode and their :class:`~repro.sim.batch.PlaneSlice` columns stream
    into :class:`~repro.core.streaming.StreamingTrial` accumulators — no
    per-cell ``Observation``/``TrialData`` ever materializes.  A sharded
    world streams one shard at a time, so peak memory is one shard's
    footprint plus the accumulators; shards whose modelled footprint
    exceeds ``budget`` (default ``REPRO_MEMORY_BUDGET``) raise
    :class:`~repro.sim.shard.MemoryBudgetError` before any work starts.

    The grid is decomposed into per-(protocol, origin, shard, trial)
    units probed against the plane cache (:mod:`repro.serve.planecache`)
    so only missing units are dispatched.  ``plane_cache`` is
    tri-state: ``None`` defers to ``REPRO_PLANE_CACHE`` (on by default),
    ``False`` forces the non-incremental differential reference.  The
    unplanned oracle (``planned=False``) never touches the cache.
    ``origin_universe`` pins the origin-name list that shared outage
    draws see, letting origin *subsets* reuse units computed under the
    full scenario universe.

    Returns a :class:`~repro.core.streaming.StreamingCampaignResult`
    whose planes and report are byte-identical to a cold full
    recompute on the monolithic world, regardless of which units were
    cached.
    """
    return _run(world, origins, zmap, protocols, n_trials,
                _PlaneSink(len(world.topology.ases)), executor=executor,
                workers=workers, planned=planned, telemetry=telemetry,
                origin_universe=origin_universe, budget=budget,
                plane_cache=plane_cache, plane_dir=plane_dir)


@contextlib.contextmanager
def _activated(telemetry: Union[str, os.PathLike, Telemetry, None]):
    """Yield the run's collector: ambient, borrowed, or owned."""
    owned: Optional[Telemetry] = None
    if telemetry is None:
        tel = _telemetry()
        activate = contextlib.nullcontext()
    elif isinstance(telemetry, Telemetry):
        tel = telemetry
        activate = use(tel)
    else:
        owned = tel = Telemetry(journal=telemetry)
        activate = use(tel)
    if tel.enabled and getattr(tel, "trace_id", None) is None:
        # Mint-if-absent: an offline campaign starts its own trace, but a
        # serve-set request trace on the collector is never overwritten.
        tel.trace_id = new_trace_id()
    try:
        with activate:
            yield tel
    finally:
        if owned is not None:
            owned.close()


def _run(world, origins: Sequence[Origin], zmap: ZMapConfig,
         protocols: Sequence[str], n_trials: int, sink, *,
         executor, workers, planned: bool, telemetry, origin_universe,
         progress: Optional[ProgressCallback] = None,
         budget: Optional[int] = None, plane_cache: Optional[bool] = None,
         plane_dir=None):
    """The one campaign loop behind every entry point.

    Builds the trial batches, opens a plane-cache session for planned
    plane runs, then per shard: runs the units, regroups them by cell
    and hands every cell to ``sink`` (in shard order, cells in
    protocol × ascending-trial order, so table order never depends on
    job order).  The metadata is built once at the end.
    """
    from repro.sim.shard import ShardedWorld

    # A monolithic world is a world with one shard.
    sharded = isinstance(world, ShardedWorld)
    if sharded:
        world.check_budget(len(origins), n_trials, budget)
    n_shards = world.n_shards if sharded else 1
    with _activated(telemetry) as tel:
        session = None
        if sink.plane_only and planned:
            from repro.serve import planecache
            session = planecache.session_for(
                world, zmap, _universe_names(origins, origin_universe),
                n_shards=n_shards, enabled=plane_cache,
                directory=plane_dir)
        with tel.span("campaign.run", seed=zmap.seed,
                      protocols=list(protocols), n_trials=n_trials,
                      origins=[o.name for o in origins], n_shards=n_shards,
                      plane_cache=session is not None):
            jobs = build_trial_batches(
                origins, zmap, protocols, n_trials, planned=planned,
                plane_only=sink.plane_only, origin_universe=origin_universe)
            backend = make_executor(executor, workers)
            reports: List[ExecutionReport] = []
            for index in range(n_shards):
                with tel.span("shard.stream", shard=index) as span:
                    shard = world.shard_world(index) if sharded else world
                    span.set(rows=len(shard.hosts))
                    # A protocol this shard holds no hosts of dispatches
                    # nothing; its cells reduce as zero rows.
                    live = [j for j in jobs
                            if len(shard.hosts.for_protocol(j.protocol))]
                    units, report = _run_units(shard, live, backend,
                                               session, index, progress)
                    if report is not None:
                        reports.append(report)
                    by_cell = _by_cell(jobs, units)
                    for protocol in protocols:
                        for trial in range(n_trials):
                            members = by_cell[(protocol, trial)]
                            sink.add(protocol, trial,
                                     [name for name, _ in members],
                                     [out for _, out in members])
                    tel.count("shard.shards_processed", 1)
                    del shard, units, by_cell

            report = ExecutionReport.combine(reports)
            metadata: Dict[str, object] = {
                "seed": zmap.seed,
                "n_probes": zmap.n_probes,
                "probe_spacing_s": zmap.probe_spacing_s,
                "pps": zmap.pps,
                "scan_duration_s": zmap.scan_duration_s,
                "origins": [o.name for o in origins],
                "n_trials": n_trials,
                "execution": report.to_metadata() if report is not None
                else {},
            }
            if sharded:
                metadata["sharded"] = world.manifest.to_meta()
            if session is not None:
                metadata["plane_cache"] = session.stats()
            if tel.enabled and report is not None:
                manifest = build_manifest(world, zmap, origins, protocols,
                                          n_trials, report, tel)
                tel.emit({"t": "manifest", **manifest})
                metadata["telemetry"] = {"journal": tel.journal_path,
                                         "manifest": manifest}
    return sink.finish(metadata)


class _DatasetSink:
    """Materializes every cell: one stacked table per (cell, shard),
    concatenated in shard order into a :class:`CampaignDataset`."""

    plane_only = False

    def __init__(self, n_probes: int) -> None:
        self.n_probes = n_probes
        self.parts: Dict[Tuple[str, int], List[TrialData]] = {}

    def add(self, protocol: str, trial: int, names: List[str],
            outputs: List[Optional[Observation]]) -> None:
        observations = [obs if obs is not None
                        else _empty_observation(protocol, trial, name)
                        for name, obs in zip(names, outputs)]
        self.parts.setdefault((protocol, trial), []).append(
            _stack(protocol, trial, names, observations, self.n_probes))

    def finish(self, metadata: Dict[str, object]) -> CampaignDataset:
        return CampaignDataset([_concat_tables(parts)
                                for parts in self.parts.values()],
                               metadata=metadata)


class _PlaneSink:
    """Streams every cell's plane slices into per-cell accumulators."""

    plane_only = True

    def __init__(self, n_ases: int) -> None:
        self.n_ases = n_ases
        self.trials: Dict[Tuple[str, int], StreamingTrial] = {}

    def add(self, protocol: str, trial: int, names: List[str],
            slices: List) -> None:
        acc = self.trials.get((protocol, trial))
        if acc is None:
            acc = self.trials[(protocol, trial)] = StreamingTrial(
                protocol=protocol, trial=trial, n_ases=self.n_ases)
        reference = next((s for s in slices if s is not None), None)
        if reference is None:
            acc.add_shard_planes(names, np.zeros(0, dtype=np.int64),
                                 np.zeros((len(names), 0), dtype=bool))
            return
        _check_aligned(s.ip for s in slices)
        acc.add_shard_planes(names, reference.as_index,
                             np.stack([s.accessible for s in slices]))

    def finish(self, metadata: Dict[str, object]
               ) -> StreamingCampaignResult:
        return StreamingCampaignResult(self.trials, metadata=metadata)


def _run_units(world: World, jobs: Sequence[TrialBatchJob], backend,
               session, shard_index: int,
               progress: Optional[ProgressCallback]):
    """Run ``jobs`` on ``world``, serving what it can from the plane cache.

    Returns ``(units, report)``: ``units`` maps ``(job.index, trial)`` to
    that unit's output — a cache hit, or a fresh output stored on the
    way through — and ``report`` is the execution report, or ``None``
    when nothing had to be dispatched.  ``session=None`` dispatches every
    job.  A partly cached job is re-issued with only its missing trials
    (and their reseeded configs) but keeps its ``index`` (executors map
    results by index) and its origin's *true* ``first_trial`` (the
    world's IDS/persistence state depends on it, not on which trials
    this dispatch happens to run); a fully cached job disappears.
    """
    units: Dict[Tuple[int, int], object] = {}
    live = list(jobs)
    if session is not None:
        live = []
        for job in jobs:
            for trial in job.trials:
                plane = session.probe(job.protocol, job.origin.name, trial,
                                      shard_index=shard_index)
                if plane is not None:
                    units[(job.index, trial)] = plane
            keep = [k for k, trial in enumerate(job.trials)
                    if (job.index, trial) not in units]
            if keep:
                live.append(dataclasses.replace(
                    job, trials=tuple(job.trials[k] for k in keep),
                    configs=tuple(job.configs[k] for k in keep)))
    report = None
    if live:
        results, report = backend.run_grid(world, live, progress=progress)
        for job, outputs in zip(live, results):
            for trial, output in zip(job.trials, outputs):
                units[(job.index, trial)] = output
                if session is not None:
                    session.store(job.protocol, job.origin.name, trial,
                                  output, shard_index=shard_index)
    return units, report


def _by_cell(jobs: Sequence[TrialBatchJob],
             units: Mapping[Tuple[int, int], object]
             ) -> Dict[Tuple[str, int], List]:
    """(protocol, trial) → ``[(origin name, output), ...]``.

    Jobs iterate origins in campaign order per protocol, so each cell
    lists its participating origins in campaign order.  A unit absent
    from ``units`` (its job was not dispatched) contributes ``None``.
    """
    by_cell: Dict[Tuple[str, int], List] = {}
    for job in jobs:
        for trial in job.trials:
            by_cell.setdefault((job.protocol, trial), []).append(
                (job.origin.name, units.get((job.index, trial))))
    return by_cell


def campaign_fingerprint(world: World, zmap: ZMapConfig,
                         origins: Sequence[Origin],
                         protocols: Sequence[str] = PROTOCOLS,
                         n_trials: int = 3,
                         extra: Optional[Mapping] = None) -> str:
    """The content address of a campaign run (64 hex chars).

    Two :func:`run_campaign` invocations with equal fingerprints produce
    byte-identical datasets: the simulator is a pure function of the
    world, the scanner configuration, and the grid shape, and every
    component here pins one of those inputs — the ``config_hash`` /
    ``world_fingerprint`` pair the telemetry manifest already emits, the
    world's own seed, the origin set, and the (protocols × trials) grid.
    The serving layer keys its content-addressed result cache and its
    in-flight request deduplication on this value; ``extra`` folds in
    serving-side parameters (e.g. the report surface) that change the
    rendered output without changing the dataset.
    """
    from repro.telemetry.manifest import config_hash, world_fingerprint

    payload = {
        "config": config_hash(zmap),
        "seed": int(zmap.seed),
        "world": world_fingerprint(world),
        "world_seed": int(world.seed),
        "origins": [o.name for o in origins],
        "protocols": list(protocols),
        "n_trials": int(n_trials),
    }
    if extra:
        payload["extra"] = dict(extra)
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class SingleFlight:
    """Keyed single-flight execution: identical concurrent work runs once.

    ``begin(key)`` returns ``(future, leader)``: exactly one concurrent
    caller per key is the leader (``leader=True``) and must eventually
    call ``finish(key, ...)``; everyone else shares the same future and
    simply waits.  The synchronous :meth:`run` wraps the whole protocol
    for blocking callers; async callers (the serving layer) drive
    ``begin``/``finish`` themselves and await the future however suits
    their event loop.

    Thread-safe; keys are whatever hashable identity makes two requests
    "the same work" — the serving layer uses the canonical request spec,
    whose executions converge on :func:`campaign_fingerprint`-keyed
    cache entries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, concurrent.futures.Future] = {}

    def begin(self, key) -> Tuple[concurrent.futures.Future, bool]:
        """Join or open the flight for ``key``; True means "you lead"."""
        with self._lock:
            future = self._flights.get(key)
            if future is not None:
                return future, False
            future = concurrent.futures.Future()
            self._flights[key] = future
            return future, True

    def finish(self, key, result=None,
               error: Optional[BaseException] = None) -> None:
        """Resolve ``key``'s flight, waking every joined waiter."""
        with self._lock:
            future = self._flights.pop(key)
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def run(self, key, fn) -> Tuple[object, bool]:
        """Blocking convenience: ``(fn(), False)`` for the leader, or
        ``(shared result, True)`` after joining an in-flight call."""
        future, leader = self.begin(key)
        if not leader:
            return future.result(), True
        try:
            value = fn()
        except BaseException as exc:
            self.finish(key, error=exc)
            raise
        self.finish(key, result=value)
        return value, False

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)


def _first_trial(origin: Origin, n_trials: int) -> int:
    """The first trial this origin participates in."""
    for trial in range(n_trials):
        if origin.participates(trial):
            return trial
    raise ValueError(f"origin {origin.name} participates in no trial")


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


def _check_aligned(ips) -> None:
    """Every origin of one cell must have scanned the same services."""
    ips = iter(ips)
    reference = next(ips)
    for ip in ips:
        if not np.array_equal(ip, reference):
            raise AssertionError(
                "origins disagree on the scanned service set — churn or "
                "blocklists are origin-dependent, which violates the "
                "synchronized-campaign invariant")


def _stack(protocol: str, trial: int, origins: List[str],
           observations: List[Observation], n_probes: int) -> TrialData:
    """Combine aligned per-origin observations into one TrialData."""
    if not observations:
        raise ValueError(f"no origin scanned {protocol} trial {trial}")
    _check_aligned(obs.ip for obs in observations)
    reference = observations[0]
    return TrialData(
        protocol=protocol,
        trial=trial,
        origins=origins,
        ip=reference.ip.copy(),
        as_index=reference.as_index.copy(),
        country_index=reference.country_index.copy(),
        geo_index=reference.geo_index.copy(),
        probe_mask=np.stack([o.probe_mask for o in observations]),
        l7=np.stack([o.l7 for o in observations]),
        time=np.stack([o.time for o in observations]),
        n_probes=n_probes)


def _concat_tables(parts: List[TrialData]) -> TrialData:
    """Column-wise concatenation of one cell's per-shard tables."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
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
