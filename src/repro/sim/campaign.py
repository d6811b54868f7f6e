"""Synchronized multi-origin campaign execution.

A campaign is the paper's experimental unit: N trials × M protocols, all
origins scanning the same addresses at approximately the same time with a
shared ZMap seed.  The runner turns a :class:`~repro.sim.world.World` and a
set of origins into a :class:`~repro.core.dataset.CampaignDataset` ready
for the analysis pipeline.

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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import CampaignDataset, TrialData
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig
from repro.sim.executor import Executor, ProgressCallback, TrialBatchJob, \
    make_executor
from repro.sim.world import Observation, World
from repro.telemetry.context import Telemetry, current as _telemetry, use
from repro.telemetry.manifest import build_manifest
from repro.telemetry.tracing import new_trace_id
from repro.topology.asn import PROTOCOLS


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


def run_campaign(world: World, origins: Sequence[Origin],
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

    ``executor`` picks the execution backend (``"serial"``, ``"thread"``,
    ``"process"``, or an :class:`Executor`); ``workers`` sizes its pool;
    ``progress`` is called as ``(jobs_done, jobs_total, job)`` after each
    (protocol, origin) trial batch completes.  Each job runs the compiled
    kernel (:func:`repro.sim.batch.observe_trial_batch`) over its whole
    trial axis.  Output is bit-identical across backends; the
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
            return _run_campaign(world, origins, zmap, protocols, n_trials,
                                 executor, workers, progress, planned,
                                 tel, origin_universe)
    finally:
        if owned is not None:
            owned.close()


def _run_campaign(world: World, origins: Sequence[Origin],
                  zmap: ZMapConfig, protocols: Sequence[str],
                  n_trials: int, executor, workers, progress, planned, tel,
                  origin_universe: Optional[Sequence[str]] = None
                  ) -> CampaignDataset:
    with tel.span("campaign.run", seed=zmap.seed,
                  protocols=list(protocols), n_trials=n_trials,
                  origins=[o.name for o in origins]):
        jobs = build_trial_batches(origins, zmap, protocols, n_trials,
                                   planned=planned,
                                   origin_universe=origin_universe)
        backend = make_executor(executor, workers)
        observations, report = backend.run_grid(world, jobs,
                                                progress=progress)
        by_cell = _by_cell(jobs, dict(zip((j.index for j in jobs),
                                          observations)))

        # Cell order is fixed (protocol × ascending trial), so table
        # order never depends on job order.
        cells = [(protocol, trial) for protocol in protocols
                 for trial in range(n_trials)]
        with tel.span("campaign.assemble", n_tables=len(cells)):
            tables: List[TrialData] = []
            for protocol, trial in cells:
                members = by_cell[(protocol, trial)]
                tables.append(_stack(
                    protocol, trial,
                    [name for name, _ in members],
                    [obs for _, obs in members],
                    zmap.n_probes))

        metadata: Dict[str, object] = {
            "seed": zmap.seed,
            "n_probes": zmap.n_probes,
            "probe_spacing_s": zmap.probe_spacing_s,
            "pps": zmap.pps,
            "scan_duration_s": zmap.scan_duration_s,
            "origins": [o.name for o in origins],
            "n_trials": n_trials,
            "execution": report.to_metadata(),
        }
        if tel.enabled:
            manifest = build_manifest(world, zmap, origins, protocols,
                                      n_trials, report, tel)
            tel.emit({"t": "manifest", **manifest})
            metadata["telemetry"] = {"journal": tel.journal_path,
                                     "manifest": manifest}
    return CampaignDataset(tables, metadata=metadata)


def _probe_plane_units(jobs: Sequence[TrialBatchJob], probe):
    """Split batch jobs into cached units and a reduced live dispatch.

    ``probe(job, trial)`` returns the cached
    :class:`~repro.sim.batch.PlaneSlice` for one unit or ``None``.
    Returns ``(live, cached)``: ``live`` holds the jobs still worth
    dispatching — a job whose trials all hit disappears entirely, a
    partial hit is re-issued via :func:`dataclasses.replace` with only
    its missing trials (and their matching reseeded configs) while
    keeping its ``index`` (executors map results by index) and its
    origin's *true* ``first_trial`` (the scanned world's IDS/persistence
    state depends on it, not on which trials this dispatch happens to
    run).  ``cached`` maps ``job.index`` → ``{trial: PlaneSlice}``.
    """
    live: List[TrialBatchJob] = []
    cached: Dict[int, Dict[int, object]] = {}
    for job in jobs:
        hits: Dict[int, object] = {}
        for trial in job.trials:
            plane = probe(job, trial)
            if plane is not None:
                hits[trial] = plane
        cached[job.index] = hits
        if not hits:
            live.append(job)
            continue
        keep = [k for k, trial in enumerate(job.trials)
                if trial not in hits]
        if not keep:
            continue  # full hit: nothing to dispatch
        live.append(dataclasses.replace(
            job,
            trials=tuple(job.trials[k] for k in keep),
            configs=tuple(job.configs[k] for k in keep)))
    return live, cached


def _merge_plane_outputs(jobs: Sequence[TrialBatchJob],
                         by_index: Mapping[int, Sequence],
                         cached: Mapping[int, Dict[int, object]],
                         store) -> Dict[int, List]:
    """Reassemble cached hits + fresh planes per original job.

    Returns ``job.index`` → per-trial outputs in ``job.trials`` order —
    exactly the shape an un-cached dispatch produces — and hands every
    *fresh* unit to ``store(job, trial, plane)`` on the way through.
    """
    merged: Dict[int, List] = {}
    for job in jobs:
        hits = cached.get(job.index, {})
        fresh = by_index.get(job.index)
        fresh_by_trial: Dict[int, object] = {}
        if fresh is not None:
            missing = [t for t in job.trials if t not in hits]
            fresh_by_trial = dict(zip(missing, fresh))
        outputs: List = []
        for trial in job.trials:
            if trial in hits:
                outputs.append(hits[trial])
                continue
            plane = fresh_by_trial.get(trial)
            outputs.append(plane)
            if plane is not None:
                store(job, trial, plane)
        merged[job.index] = outputs
    return merged


def _run_units(world: World, jobs: Sequence[TrialBatchJob], backend,
               session, shard_index: int = 0):
    """Run ``jobs`` on ``world``, serving what it can from the plane cache.

    Returns ``(outputs, report)``: ``outputs`` maps ``job.index`` to its
    per-trial outputs in ``job.trials`` order (cache hits and fresh
    planes merged; fresh units are stored on the way through), and
    ``report`` is the execution report, or ``None`` when nothing had to
    be dispatched.  ``session=None`` dispatches every job.
    """
    if session is not None:
        live, cached = _probe_plane_units(
            jobs, lambda job, trial: session.probe(
                job.protocol, job.origin.name, trial,
                shard_index=shard_index))
    else:
        live, cached = list(jobs), {}
    outputs: Dict[int, Sequence] = {}
    report = None
    if live:
        results, report = backend.run_grid(world, live)
        outputs = dict(zip((j.index for j in live), results))
    if session is not None:
        outputs = _merge_plane_outputs(
            jobs, outputs, cached,
            store=lambda job, trial, plane: session.store(
                job.protocol, job.origin.name, trial, plane,
                shard_index=shard_index))
    return outputs, report


def _by_cell(jobs: Sequence[TrialBatchJob],
             outputs: Mapping[int, Sequence]) -> Dict[Tuple[str, int], List]:
    """(protocol, trial) → ``[(origin name, output), ...]``.

    Jobs iterate origins in campaign order per protocol, so each cell
    lists its participating origins in campaign order.  A job absent
    from ``outputs`` contributes ``None`` for each of its trials.
    """
    by_cell: Dict[Tuple[str, int], List] = {}
    for job in jobs:
        per_trial = outputs.get(job.index)
        for k, trial in enumerate(job.trials):
            by_cell.setdefault((job.protocol, trial), []).append(
                (job.origin.name,
                 None if per_trial is None else per_trial[k]))
    return by_cell


def run_plane_campaign(world: World, origins: Sequence[Origin],
                       zmap: ZMapConfig,
                       protocols: Sequence[str] = PROTOCOLS,
                       n_trials: int = 3,
                       executor: Union[str, Executor, None] = None,
                       workers: Optional[int] = None,
                       planned: bool = True,
                       origin_universe: Optional[Sequence[str]] = None,
                       plane_cache: Optional[bool] = None,
                       plane_extra: Optional[Mapping] = None,
                       plane_dir: Union[str, os.PathLike, None] = None,
                       telemetry: Union[str, os.PathLike, Telemetry,
                                        None] = None):
    """Run a monolithic campaign straight into streaming accumulators.

    The plane-granular counterpart of :func:`run_campaign`: trial-batch
    jobs run in *plane-only* mode and their
    :class:`~repro.sim.batch.PlaneSlice` columns stream into
    :class:`~repro.core.streaming.StreamingTrial` accumulators — no
    per-cell ``Observation``/``TrialData`` ever materializes — and the
    grid is decomposed into per-(protocol, origin, trial) units probed
    against the plane cache (:mod:`repro.serve.planecache`) so only
    missing units are dispatched.  ``plane_cache`` is tri-state:
    ``None`` defers to ``REPRO_PLANE_CACHE`` (on by default),
    ``False`` forces the non-incremental differential reference.  The
    unplanned oracle (``planned=False``) never touches the cache.

    Returns a :class:`~repro.core.streaming.StreamingCampaignResult`
    whose planes and report are byte-identical to a cold full
    recompute, regardless of which units were cached.
    """
    from repro.core.streaming import StreamingCampaignResult, StreamingTrial
    from repro.sim.shard import _reduce_planes

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
        tel.trace_id = new_trace_id()
    try:
        with activate:
            session = None
            if planned:
                from repro.serve import planecache
                session = planecache.session_for(
                    world, zmap,
                    _universe_names(origins, origin_universe),
                    enabled=plane_cache, directory=plane_dir,
                    extra=plane_extra)
            with tel.span("campaign.run_planes", seed=zmap.seed,
                          protocols=list(protocols), n_trials=n_trials,
                          origins=[o.name for o in origins],
                          plane_cache=session is not None):
                jobs = build_trial_batches(
                    origins, zmap, protocols, n_trials, planned=planned,
                    plane_only=True, origin_universe=origin_universe)
                outputs, report = _run_units(
                    world, jobs, make_executor(executor, workers), session)
                by_cell = _by_cell(jobs, outputs)

                n_ases = len(world.topology.ases)
                accumulators: Dict[Tuple[str, int], StreamingTrial] = {}
                for protocol in protocols:
                    for trial in range(n_trials):
                        members = by_cell[(protocol, trial)]
                        acc = StreamingTrial(protocol=protocol,
                                             trial=trial, n_ases=n_ases)
                        accumulators[(protocol, trial)] = acc
                        _reduce_planes(acc, [name for name, _ in members],
                                       [p for _, p in members])

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
                if session is not None:
                    metadata["plane_cache"] = session.stats()
            return StreamingCampaignResult(accumulators, metadata=metadata)
    finally:
        if owned is not None:
            owned.close()


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
    serving-side parameters (e.g. the analysis engine) that change the
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


def _stack(protocol: str, trial: int, origins: List[str],
           observations: List[Observation], n_probes: int) -> TrialData:
    """Combine aligned per-origin observations into one TrialData."""
    if not observations:
        raise ValueError(f"no origin scanned {protocol} trial {trial}")
    reference = observations[0]
    for obs in observations[1:]:
        if not np.array_equal(obs.ip, reference.ip):
            raise AssertionError(
                "origins disagree on the scanned service set — churn or "
                "blocklists are origin-dependent, which violates the "
                "synchronized-campaign invariant")
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
