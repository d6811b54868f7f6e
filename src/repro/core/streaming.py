"""Streaming (out-of-core) accumulation of per-shard packed planes.

Every statistic the paper grid needs is OR/AND/popcount algebra over
bit planes (:mod:`repro.core.engine`), and bitwise algebra is
associative across any host partition, so a sharded campaign
(:mod:`repro.sim.shard`) never materializes a
:class:`~repro.core.dataset.CampaignDataset`: each shard's success
planes are reduced into this module's accumulators as they are
observed.  Resident state is one shard plus the planes — bits per host.

:class:`BitPlaneWriter` carries the sub-byte remainder across shard
boundaries, so a finished :class:`StreamingTrial` is the very
:class:`~repro.core.engine.PackedTrial` the materialized dataset packs,
and :class:`StreamingCampaignResult`'s analyses call the same packed
functions the dataset analyses do.  Analyses needing raw per-host
columns (miss taxonomy, bursts, SSH retries) still need a dataset —
see ``docs/SCALING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bootstrap import Interval, packed_coverage_interval
from repro.core.coverage import CoverageTable, packed_coverage_table
from repro.core.dataset import common_origins
from repro.core.engine import PackedTrial
from repro.core.multi_origin import (KOriginSummary, best_of,
                                     packed_k_origin_summary,
                                     packed_multi_origin_table)
from repro import telemetry


class BitPlaneWriter:
    """Incrementally pack boolean masks into one uint8 bit plane.

    Appending masks ``m1, m2, ...`` and finishing yields exactly
    ``np.packbits(concatenate([m1, m2, ...]))``: the sub-byte remainder
    of each append is carried into the next, so shard lengths need not
    be multiples of eight for the final plane to match a monolithic
    ``pack_bits`` byte for byte.
    """

    __slots__ = ("_chunks", "_rem", "n_bits")

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []
        self._rem = np.zeros(0, dtype=bool)
        self.n_bits = 0

    def append(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        self.n_bits += len(mask)
        data = np.concatenate([self._rem, mask]) if len(self._rem) \
            else mask
        n_full = (len(data) // 8) * 8
        if n_full:
            self._chunks.append(np.packbits(data[:n_full]))
        self._rem = data[n_full:]

    def finish(self) -> np.ndarray:
        """The packed plane (callable once; trailing pad bits are zero)."""
        chunks = list(self._chunks)
        if len(self._rem):
            chunks.append(np.packbits(self._rem))
        if not chunks:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(chunks)


@dataclass
class StreamingTrial:
    """Accumulated planes and per-AS counts for one (protocol, trial).

    Shards must be fed in shard order (:meth:`add_shard_planes`),
    mirroring how their host ranges concatenate to the monolithic table;
    ``finish()`` freezes the accumulation into a :class:`PackedTrial`.
    """

    protocol: str
    trial: int
    n_ases: int
    origins: List[str] = field(default_factory=list)
    _truth_writer: BitPlaneWriter = field(default_factory=BitPlaneWriter)
    _origin_writers: List[BitPlaneWriter] = field(default_factory=list)
    n_hosts: int = 0
    truth_by_as: Optional[np.ndarray] = None
    seen_by_as: Optional[np.ndarray] = None
    _packed: Optional[PackedTrial] = None

    def add_shard_planes(self, origins: Sequence[str],
                         as_index: np.ndarray,
                         accessible: np.ndarray) -> None:
        """Reduce one shard's pre-sliced success planes.

        ``accessible`` is an ``(n_origins, n_rows)`` boolean matrix (row
        order matching ``origins``) of per-origin L7 success — exactly
        what :class:`repro.sim.batch.PlaneSlice` carries — so a
        plane-only trial batch streams into the accumulators without
        ever materializing ``Observation`` rows or a ``TrialData``.
        Truth is the OR of the rows, the same reduction
        :meth:`~repro.core.dataset.TrialData.ground_truth` performs, so
        the finished planes and per-AS counts are byte-identical to the
        packed engine's over the materialized dataset.
        """
        if self._packed is not None:
            raise RuntimeError("accumulation already finished")
        origins = list(origins)
        accessible = np.asarray(accessible, dtype=bool)
        as_index = np.asarray(as_index, dtype=np.int64)
        if not self.origins:
            self.origins = origins
            self._origin_writers = [BitPlaneWriter() for _ in self.origins]
            self.truth_by_as = np.zeros(self.n_ases, dtype=np.int64)
            self.seen_by_as = np.zeros((len(self.origins), self.n_ases),
                                       dtype=np.int64)
        elif origins != self.origins:
            raise ValueError(
                f"shard origins {origins} disagree with "
                f"{self.origins} — shards of one campaign share a grid")
        truth = np.zeros(accessible.shape[1], dtype=bool)
        for row in accessible:
            truth |= row
        self._truth_writer.append(truth)
        self.n_hosts += len(truth)
        self.truth_by_as += np.bincount(as_index[truth],
                                        minlength=self.n_ases)
        for oi in range(len(self.origins)):
            seen = accessible[oi] & truth
            self._origin_writers[oi].append(seen)
            self.seen_by_as[oi] += np.bincount(as_index[seen],
                                               minlength=self.n_ases)
        telemetry.count("streaming.rows_reduced", len(truth),
                        protocol=self.protocol)

    def finish(self) -> PackedTrial:
        """Freeze into a :class:`PackedTrial` (idempotent)."""
        if self._packed is None:
            if not self.origins:
                raise RuntimeError("no shards were accumulated")
            planes = np.stack([w.finish() for w in self._origin_writers])
            self._packed = PackedTrial(
                self.protocol, self.trial, self.origins, planes,
                self._truth_writer.finish(), self.n_hosts)
        return self._packed

    @property
    def truth_plane(self) -> np.ndarray:
        """The packed ground-truth plane (finishes the accumulation)."""
        return self.finish().truth


class StreamingCampaignResult:
    """The reduced output of a sharded campaign run.

    Holds one :class:`StreamingTrial` per (protocol, trial) plus run
    metadata; exposes the paper-grid analyses computed purely from the
    accumulated planes.  Total size is a few bits per (host, origin,
    trial) — megabytes at 10× scale, never the raw dataset.
    """

    def __init__(self, trials: Dict[Tuple[str, int], StreamingTrial],
                 metadata: Optional[dict] = None) -> None:
        self.trials = trials
        self.metadata = metadata or {}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def protocols(self) -> List[str]:
        seen: List[str] = []
        for protocol, _ in self.trials:
            if protocol not in seen:
                seen.append(protocol)
        return seen

    def trials_for(self, protocol: str) -> List[int]:
        return sorted(t for p, t in self.trials if p == protocol)

    def packed_trial(self, protocol: str, trial: int) -> PackedTrial:
        return self.trials[(protocol, trial)].finish()

    def origins_for(self, protocol: str) -> List[str]:
        """Origins present in every trial, in first-trial order (the
        paper's aggregate-statistics rule — drops late joiners)."""
        return common_origins([self.trials[(protocol, trial)]
                               for trial in self.trials_for(protocol)])

    def _packed_trials(self, protocol: str) -> List[PackedTrial]:
        return [self.packed_trial(protocol, trial)
                for trial in self.trials_for(protocol)]

    # ------------------------------------------------------------------
    # The paper-grid analyses: the dataset analyses' packed functions
    # ------------------------------------------------------------------

    def coverage_table(self, protocol: str,
                       origins: Optional[Sequence[str]] = None
                       ) -> CoverageTable:
        """The Table 4 analog (:func:`repro.core.coverage.coverage_table`
        on the materialized dataset, to the byte)."""
        return packed_coverage_table(protocol,
                                     self._packed_trials(protocol), origins)

    def k_origin_summary(self, protocol: str, k: int,
                         origins: Optional[Sequence[str]] = None
                         ) -> KOriginSummary:
        return packed_k_origin_summary(self._packed_trials(protocol), k,
                                       origins)

    def multi_origin_table(self, protocol: str,
                           origins: Optional[Sequence[str]] = None,
                           max_k: Optional[int] = None
                           ) -> Dict[int, KOriginSummary]:
        return packed_multi_origin_table(self._packed_trials(protocol),
                                         origins, max_k=max_k)

    def best_combination(self, protocol: str, k: int,
                         origins: Optional[Sequence[str]] = None
                         ) -> Tuple[Tuple[str, ...], float]:
        return best_of(self.k_origin_summary(protocol, k, origins=origins))

    def coverage_interval(self, protocol: str, trial: int, origin: str,
                          replicates: int = 500, confidence: float = 0.95,
                          seed: int = 0) -> Interval:
        return packed_coverage_interval(
            self.packed_trial(protocol, trial), origin,
            replicates=replicates, confidence=confidence, seed=seed)

    # ------------------------------------------------------------------
    # Per-AS rates (the scale-invariance observable)
    # ------------------------------------------------------------------

    def per_as_coverage(self, protocol: str, origin: str
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """``(truth, seen)`` int64 vectors over dense AS indices, summed
        across trials: per-AS coverage rate is ``seen / truth`` where
        truth > 0."""
        trials = self.trials_for(protocol)
        first = self.trials[(protocol, trials[0])]
        truth = np.zeros(first.n_ases, dtype=np.int64)
        seen = np.zeros(first.n_ases, dtype=np.int64)
        for trial in trials:
            streaming = self.trials[(protocol, trial)]
            truth += streaming.truth_by_as
            if origin in streaming.origins:
                seen += streaming.seen_by_as[
                    streaming.origins.index(origin)]
        return truth, seen

    # ------------------------------------------------------------------
    # The paper grid, in one call
    # ------------------------------------------------------------------

    def report(self, max_k: Optional[int] = None,
               replicates: int = 200, seed: int = 0) -> dict:
        """The full streamed paper grid as one JSON-able dict.

        Per protocol: the coverage table rows (Table 4), the k-origin
        summaries (Figures 15/17), the best 2- and 3-origin
        combinations, and per-(origin, trial) bootstrap intervals.
        """
        out: Dict[str, object] = {}
        for protocol in self.protocols():
            origins = self.origins_for(protocol)
            table = self.coverage_table(protocol)
            multi = self.multi_origin_table(protocol, max_k=max_k)
            intervals = {
                origin: {
                    trial: self.coverage_interval(
                        protocol, trial, origin, replicates=replicates,
                        seed=seed).__dict__
                    for trial in self.trials_for(protocol)}
                for origin in origins}
            best = {}
            for k in (2, 3):
                if k <= len(origins):
                    combo, mean = self.best_combination(protocol, k)
                    best[k] = {"combo": list(combo), "coverage": mean}
            out[protocol] = {
                "origins": origins,
                "coverage_rows": table.rows(),
                "mean_intersection": table.mean_intersection(),
                "multi_origin": {
                    k: {"median": s.median, "q1": s.q1, "q3": s.q3,
                        "min": s.minimum, "max": s.maximum, "std": s.std}
                    for k, s in multi.items()},
                "best_combination": best,
                "bootstrap": intervals,
            }
        return out
