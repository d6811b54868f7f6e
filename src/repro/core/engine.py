"""The bit-packed analysis engine: shared context and packed bitsets.

The paper's headline analyses — Table 1 exclusivity, Table 4 coverage,
the k-origin coverage curve, bootstrap error bars — are all set algebra
over (trial × origin × host) presence cubes.  This module gives that
layer the same treatment :mod:`repro.sim.plan` gave the simulator:

* An :class:`AnalysisContext` is built once per (dataset, protocol) and
  memoized on the dataset fingerprint (:func:`dataset_fingerprint`,
  which folds in the run manifest emitted by
  :mod:`repro.telemetry.manifest` when the dataset carries one).  It
  holds the aligned :class:`~repro.core.ground_truth.PresenceMatrix`
  and the per-trial :class:`PackedTrial` bit planes.
* Coverage, multi-origin and bootstrap analyses are written once, over
  :class:`PackedTrial` s (:func:`packed_trials`), for datasets and
  streamed campaigns alike; the boolean originals are the differential
  oracle in :mod:`repro.core.oracle`.

Telemetry mirrors the plan cache: ``cache.context_hit`` /
``cache.context_miss`` counters around :func:`get_context`, a
``cache.context_build`` span around construction, and
``cache.presence_hit`` / ``cache.presence_miss`` around the context's
presence memo.  Actual alignment passes show up as
``analysis.presence_build`` (counted inside
:func:`~repro.core.ground_truth.build_presence`), which is how the
one-build-per-report guarantee is asserted.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import pack_bits, popcount_packed
from repro.core.dataset import CampaignDataset, TrialData
from repro.core.ground_truth import PresenceMatrix, build_presence
from repro.telemetry.context import current as _telemetry

#: Maximum number of memoized contexts (FIFO eviction beyond this).
CONTEXT_CACHE_SIZE = 8


def dataset_fingerprint(dataset: CampaignDataset) -> str:
    """A stable content identity for a campaign dataset.

    Folds the run manifest (seed, config hash, world fingerprint — the
    reproducibility header :mod:`repro.telemetry.manifest` stamps into
    ``metadata["telemetry"]``) together with a structural digest of every
    trial's analysis-relevant columns, so datasets with equal bytes share
    cached contexts while any divergence — different seed, mutated
    matrix, extra trial — misses.
    """
    digest = hashlib.sha256()
    manifest = (dataset.metadata or {}).get("telemetry", {}).get("manifest")
    if manifest:
        pinned = {key: manifest.get(key)
                  for key in ("seed", "config_hash", "world", "origins",
                              "protocols", "n_trials")}
        digest.update(repr(sorted(pinned.items())).encode())
    for table in dataset:
        digest.update(f"{table.protocol}:{table.trial}:"
                      f"{','.join(table.origins)}:{table.n_probes}"
                      .encode())
        for column in (table.ip, table.as_index, table.country_index,
                       table.geo_index, table.probe_mask, table.l7):
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


@dataclass(eq=False)
class PackedTrial:
    """Bit-packed ground truth and per-origin accessibility of one trial.

    ``truth`` is the trial's ground-truth mask and ``packed[o]`` origin
    *o*'s accessible mask (a subset of the truth), each packed 8 hosts
    per byte (:func:`~repro.core.bits.pack_bits`); ``total`` is the
    ground-truth popcount.  OR-ing rows and popcounting the result
    reproduces the union coverage of any origin subset without
    materializing boolean arrays.  A dataset's trials are packed by
    :meth:`from_trial`; the streaming reducer
    (:mod:`repro.core.streaming`) assembles the same planes shard by
    shard.
    """

    protocol: str
    trial: int
    origins: List[str]
    packed: np.ndarray
    truth: np.ndarray
    n_hosts: int
    single_probe: bool = False

    def __post_init__(self) -> None:
        self.trial = int(self.trial)
        self.origins = list(self.origins)
        self.total = int(popcount_packed(self.truth))
        self._rows = {origin: oi for oi, origin in enumerate(self.origins)}

    @classmethod
    def from_trial(cls, trial_data: TrialData,
                   single_probe: bool = False) -> "PackedTrial":
        """Pack one trial table.

        Ground truth is the OR of every origin's accessible row, so each
        row already lies inside it.
        """
        masks = trial_data.accessible_matrix(single_probe=single_probe)
        truth = np.logical_or.reduce(masks, axis=0)
        return cls(trial_data.protocol, trial_data.trial,
                   trial_data.origins, pack_bits(masks), pack_bits(truth),
                   len(truth), single_probe)

    def present(self, origins: Sequence[str]) -> List[str]:
        """``origins`` that scanned this trial, in the given order."""
        return [o for o in origins if o in self._rows]

    def rows_for(self, origins: Sequence[str]) -> np.ndarray:
        """Packed-row indices of ``origins`` (KeyError when absent)."""
        return np.array([self._rows[o] for o in origins], dtype=np.intp)

    def union_counts(self, subsets: np.ndarray) -> np.ndarray:
        """Popcount of the OR over each row subset.

        ``subsets`` is an (m, k) matrix of packed-row indices; the return
        is the (m,) int64 vector of union cardinalities — one fused
        gather/OR/popcount for all m subsets.
        """
        unions = np.bitwise_or.reduce(self.packed[subsets], axis=1)
        return np.asarray(popcount_packed(unions), dtype=np.int64)


def packed_trials(dataset: CampaignDataset, protocol: str,
                  single_probe: bool = False,
                  context: Optional[AnalysisContext] = None
                  ) -> List[PackedTrial]:
    """Every trial of ``protocol`` as a :class:`PackedTrial`, in trial
    order: memoized on ``context`` when one is passed, else packed
    straight from the trial tables (no fingerprinting)."""
    if context is not None:
        return [context.packed_trial(trial, single_probe=single_probe)
                for trial in dataset.trials_for(protocol)]
    return [PackedTrial.from_trial(dataset.trial_data(protocol, trial),
                                   single_probe=single_probe)
            for trial in dataset.trials_for(protocol)]


class AnalysisContext:
    """Shared, memoized state for every analysis of one (dataset, protocol).

    Constructed (cheaply — members build lazily) once per dataset
    fingerprint via :func:`get_context` and threaded through
    classification, exclusivity, per-AS, transient, burst, SSH and
    report code so a full report performs exactly one alignment pass.
    """

    def __init__(self, dataset: CampaignDataset, protocol: str,
                 fingerprint: Optional[str] = None) -> None:
        self.dataset = dataset
        self.protocol = protocol
        self.fingerprint = fingerprint if fingerprint is not None \
            else dataset_fingerprint(dataset)
        self._presence: Dict[Tuple[Tuple[str, ...], bool],
                             PresenceMatrix] = {}
        self._packed: Dict[Tuple[int, bool], PackedTrial] = {}
        self._classifications: Dict[Tuple[Tuple[str, ...], bool],
                                    Dict[str, object]] = {}

    # ------------------------------------------------------------------
    # Presence
    # ------------------------------------------------------------------

    def _presence_key(self, origins: Optional[Sequence[str]],
                      single_probe: bool) -> Tuple[Tuple[str, ...], bool]:
        chosen = tuple(origins) if origins is not None \
            else tuple(self.dataset.origins_for(self.protocol))
        return (chosen, bool(single_probe))

    def presence(self, origins: Optional[Sequence[str]] = None,
                 single_probe: bool = False) -> PresenceMatrix:
        """The aligned presence cube, built at most once per variant.

        ``origins=None`` normalizes to the paper's aggregate origin set
        (``origins_for``), so explicit-default and defaulted requests
        share one matrix.
        """
        key = self._presence_key(origins, single_probe)
        cached = self._presence.get(key)
        tel = _telemetry()
        if cached is not None:
            if tel.enabled:
                tel.count("cache.presence_hit", 1, protocol=self.protocol)
            return cached
        if tel.enabled:
            tel.count("cache.presence_miss", 1, protocol=self.protocol)
        built = build_presence(self.dataset, self.protocol,
                               origins=list(key[0]),
                               single_probe=key[1])
        self._presence[key] = built
        return built

    # ------------------------------------------------------------------
    # Packed trials
    # ------------------------------------------------------------------

    def packed_trial(self, trial: int,
                     single_probe: bool = False) -> PackedTrial:
        """The packed accessibility bitsets of one trial (memoized)."""
        key = (int(trial), bool(single_probe))
        cached = self._packed.get(key)
        if cached is not None:
            return cached
        built = PackedTrial.from_trial(
            self.dataset.trial_data(self.protocol, trial),
            single_probe=single_probe)
        self._packed[key] = built
        return built

    # ------------------------------------------------------------------
    # Classifications
    # ------------------------------------------------------------------

    def classifications(self, origins: Optional[Sequence[str]] = None,
                        single_probe: bool = False) -> Dict[str, object]:
        """Per-origin §3 classifications over the shared presence cube.

        Memoized like :meth:`presence`; the half-dozen report sections
        that each called ``breakdown_by_origin`` now classify each
        origin once.  Returns ``{origin: Classification}``.
        """
        from repro.core.classification import classify_misses

        key = self._presence_key(origins, single_probe)
        cached = self._classifications.get(key)
        if cached is not None:
            return dict(cached)
        presence = self.presence(origins=key[0], single_probe=key[1])
        built = {origin: classify_misses(self.dataset, self.protocol,
                                         origin, presence=presence)
                 for origin in presence.origins}
        self._classifications[key] = built
        return dict(built)


#: The process-wide context memo, keyed by (fingerprint, protocol).
_CONTEXTS: "OrderedDict[Tuple[str, str], AnalysisContext]" = OrderedDict()


def get_context(dataset: CampaignDataset,
                protocol: str) -> AnalysisContext:
    """The memoized :class:`AnalysisContext` for one (dataset, protocol).

    Keyed on :func:`dataset_fingerprint`, so re-running an analysis —
    in the same process, on a reloaded copy of the same campaign —
    reuses the aligned presence cube instead of rebuilding it.  Cache
    traffic is reported like the plan cache (``cache.context_hit`` /
    ``cache.context_miss``).
    """
    tel = _telemetry()
    key = (dataset_fingerprint(dataset), protocol)
    context = _CONTEXTS.get(key)
    if context is not None:
        if tel.enabled:
            tel.count("cache.context_hit", 1, protocol=protocol)
        _CONTEXTS.move_to_end(key)
        return context
    if tel.enabled:
        tel.count("cache.context_miss", 1, protocol=protocol)
    with tel.span("cache.context_build", protocol=protocol):
        context = AnalysisContext(dataset, protocol, fingerprint=key[0])
    _CONTEXTS[key] = context
    while len(_CONTEXTS) > CONTEXT_CACHE_SIZE:
        _CONTEXTS.popitem(last=False)
    return context


def clear_context_cache() -> None:
    """Drop every memoized context (tests and long-lived processes)."""
    _CONTEXTS.clear()


def presence_for(dataset: CampaignDataset, protocol: str,
                 origins: Optional[Sequence[str]] = None,
                 single_probe: bool = False,
                 presence: Optional[PresenceMatrix] = None,
                 context: Optional[AnalysisContext] = None
                 ) -> PresenceMatrix:
    """Resolve the presence cube an analysis should run over.

    Precedence: an explicit ``presence``, then the shared ``context``
    (memoized), then a direct build — the one code path every
    context-threading analysis shares, so none of them silently rebuilds.
    """
    if presence is not None:
        return presence
    if context is not None:
        return context.presence(origins=origins, single_probe=single_probe)
    return build_presence(dataset, protocol, origins=origins,
                          single_probe=single_probe)


def classifications_for(dataset: CampaignDataset, protocol: str,
                        origins: Optional[Sequence[str]] = None,
                        single_probe: bool = False,
                        presence: Optional[PresenceMatrix] = None,
                        context: Optional[AnalysisContext] = None
                        ) -> Dict[str, object]:
    """Resolve per-origin classifications, preferring the shared context."""
    from repro.core.classification import classify_misses

    if presence is None and context is not None:
        return context.classifications(origins=origins,
                                       single_probe=single_probe)
    resolved = presence_for(dataset, protocol, origins=origins,
                            single_probe=single_probe, presence=presence,
                            context=context)
    return {origin: classify_misses(dataset, protocol, origin,
                                    presence=resolved)
            for origin in resolved.origins}
