"""Streaming (out-of-core) analysis over per-shard packed planes.

The packed engine (:mod:`repro.core.engine`) represents presence as bit
planes, and every statistic the paper grid needs — per-origin coverage,
the all-origin intersection, k-subset union coverage, bootstrap CIs —
is OR/AND/popcount algebra over those planes.  Bitwise algebra is
associative across any host partition, so a sharded campaign
(:mod:`repro.sim.shard`) never has to materialize a full
:class:`~repro.core.dataset.CampaignDataset`: each shard's trial table
is reduced into this module's accumulators the moment it is observed,
and the raw observation arrays are dropped.  Resident state is one
shard's tables plus the accumulated planes — bits per host, not bytes.

The numbers are *byte-identical* to the monolithic path: packing a
concatenation equals concatenating packings (the
:class:`BitPlaneWriter` carries the sub-byte remainder across shard
boundaries), popcounts of equal planes are equal, and every derived
statistic below performs the same reductions in the same order as its
dataset-level counterpart (``tests/test_shard_world.py`` pins this).

What streams: per-origin/intersection coverage tables
(:class:`~repro.core.coverage.CoverageTable`), multi-origin k-subset
tables, best combinations, per-origin bootstrap intervals, and per-AS
coverage rates.  What does not: analyses needing raw per-host columns
(miss taxonomy, burst reconstruction, SSH retries) still require a
materialized dataset — see ``docs/SCALING.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bootstrap import (Interval, _percentile_interval,
                                  _replicate_stats)
from repro.core.coverage import CoverageTable
from repro.core.engine import PackedTrial, resolve_engine
from repro.core.multi_origin import ComboCoverage, KOriginSummary
from repro.rng import CounterRNG
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
    total: int = 0
    n_hosts: int = 0
    truth_by_as: Optional[np.ndarray] = None
    seen_by_as: Optional[np.ndarray] = None
    _packed: Optional[PackedTrial] = None
    _truth_plane: Optional[np.ndarray] = None

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
        self.total += int(truth.sum())
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
            self._truth_plane = self._truth_writer.finish()
            self._packed = PackedTrial.from_parts(
                self.protocol, self.trial, self.origins, planes,
                self.total, self.n_hosts)
        return self._packed

    @property
    def truth_plane(self) -> np.ndarray:
        """The packed ground-truth plane (after :meth:`finish`)."""
        self.finish()
        return self._truth_plane


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

    def streaming_trial(self, protocol: str, trial: int) -> StreamingTrial:
        return self.trials[(protocol, trial)]

    def packed_trial(self, protocol: str, trial: int) -> PackedTrial:
        return self.trials[(protocol, trial)].finish()

    def origins_for(self, protocol: str) -> List[str]:
        """Origins present in every trial, in first-trial order (the
        paper's aggregate-statistics rule — drops late joiners)."""
        trials = self.trials_for(protocol)
        if not trials:
            return []
        first = self.trials[(protocol, trials[0])].origins
        everywhere = set(first)
        for trial in trials[1:]:
            everywhere &= set(self.trials[(protocol, trial)].origins)
        return [o for o in first if o in everywhere]

    # ------------------------------------------------------------------
    # Coverage (Table 4)
    # ------------------------------------------------------------------

    def coverage_table(self, protocol: str,
                       origins: Optional[Sequence[str]] = None
                       ) -> CoverageTable:
        """The Table 4 analog, byte-identical to
        :func:`repro.core.coverage.coverage_table` on the materialized
        dataset (same popcounts, same division order)."""
        from repro.core.bits import popcount_packed

        trials = self.trials_for(protocol)
        chosen = list(origins) if origins is not None \
            else self.origins_for(protocol)
        coverage: Dict[int, Dict[str, float]] = {}
        intersection: Dict[int, float] = {}
        union_size: Dict[int, int] = {}
        for trial in trials:
            streaming = self.trials[(protocol, trial)]
            packed = streaming.finish()
            total = packed.total
            union_size[trial] = total
            per_origin: Dict[str, float] = {}
            present = [o for o in chosen if o in packed._rows]
            for origin in present:
                count = int(popcount_packed(
                    packed.packed[packed._rows[origin]]))
                per_origin[origin] = float(count / total) if total else 0.0
            coverage[trial] = per_origin
            # Fold from the truth plane so an empty origin list yields
            # the reference path's truth/truth = 1.0, not 0.0.
            everyone = streaming.truth_plane.copy()
            for origin in present:
                everyone &= packed.packed[packed._rows[origin]]
            intersection[trial] = float(
                int(popcount_packed(everyone)) / total) if total else 0.0
        return CoverageTable(protocol=protocol, origins=chosen,
                             trials=list(trials), coverage=coverage,
                             intersection=intersection,
                             union_size=union_size)

    # ------------------------------------------------------------------
    # Multi-origin (Figures 15/17)
    # ------------------------------------------------------------------

    def _combo_samples(self, protocol: str, trial: int, k: int,
                       origins: Sequence[str]) -> List[ComboCoverage]:
        packed = self.packed_trial(protocol, trial)
        chosen = [o for o in origins if o in packed._rows]
        if k < 1 or k > len(chosen):
            raise ValueError(f"k must be in [1, {len(chosen)}]")
        rows = packed.rows_for(chosen)
        combos = list(itertools.combinations(range(len(chosen)), k))
        subsets = rows[np.array(combos, dtype=np.intp)]
        counts = packed.union_counts(subsets)
        total = packed.total
        coverages = counts / total if total else np.zeros(len(combos))
        return [ComboCoverage(combo=tuple(chosen[i] for i in combo),
                              trial=trial, coverage=float(coverage))
                for combo, coverage in zip(combos, coverages)]

    def k_origin_summary(self, protocol: str, k: int,
                         origins: Optional[Sequence[str]] = None
                         ) -> KOriginSummary:
        """Packed-engine k-subset distribution over the planes —
        identical floats to :func:`repro.core.multi_origin.k_origin_summary`
        with ``engine="packed"``."""
        chosen = list(origins) if origins is not None \
            else self.origins_for(protocol)
        samples: List[ComboCoverage] = []
        for trial in self.trials_for(protocol):
            samples.extend(self._combo_samples(protocol, trial, k, chosen))
        values = np.array([s.coverage for s in samples])
        return KOriginSummary(
            k=k, median=float(np.median(values)),
            q1=float(np.percentile(values, 25)),
            q3=float(np.percentile(values, 75)),
            minimum=float(values.min()), maximum=float(values.max()),
            std=float(values.std()), samples=samples)

    def multi_origin_table(self, protocol: str,
                           origins: Optional[Sequence[str]] = None,
                           max_k: Optional[int] = None
                           ) -> Dict[int, KOriginSummary]:
        chosen = list(origins) if origins is not None \
            else self.origins_for(protocol)
        limit = max_k if max_k is not None else len(chosen)
        return {k: self.k_origin_summary(protocol, k, origins=chosen)
                for k in range(1, limit + 1)}

    def best_combination(self, protocol: str, k: int,
                         origins: Optional[Sequence[str]] = None
                         ) -> Tuple[Tuple[str, ...], float]:
        summary = self.k_origin_summary(protocol, k, origins=origins)
        by_combo: Dict[Tuple[str, ...], List[float]] = {}
        for sample in summary.samples:
            by_combo.setdefault(sample.combo, []).append(sample.coverage)
        means = {combo: float(np.mean(vals))
                 for combo, vals in by_combo.items()}
        best = max(means, key=means.get)
        return best, means[best]

    # ------------------------------------------------------------------
    # Bootstrap CIs
    # ------------------------------------------------------------------

    def coverage_interval(self, protocol: str, trial: int, origin: str,
                          replicates: int = 500, confidence: float = 0.95,
                          seed: int = 0,
                          engine: Optional[str] = None) -> Interval:
        """Bootstrap CI from the planes: same draws, same reduction, so
        the interval equals
        :func:`repro.core.bootstrap.coverage_interval` on the
        materialized trial exactly."""
        if replicates < 10:
            raise ValueError("need at least 10 replicates")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        engine = resolve_engine(engine)
        streaming = self.trials[(protocol, trial)]
        packed = streaming.finish()
        truth = np.unpackbits(
            streaming.truth_plane,
            count=packed.n_hosts).astype(bool)
        accessible = np.unpackbits(
            packed.packed[packed._rows[origin]],
            count=packed.n_hosts).astype(bool)
        seen = accessible[truth]
        n = packed.total
        if n == 0:
            return Interval(float("nan"), float("nan"), float("nan"),
                            confidence)
        point = float(seen.mean())
        rng = CounterRNG(seed, "bootstrap-coverage", origin, protocol,
                         int(trial))
        stats = _replicate_stats(rng, seen, n, replicates, engine)
        return _percentile_interval(point, stats, confidence)

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
