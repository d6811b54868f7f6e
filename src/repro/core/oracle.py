"""The boolean differential oracle for the packed analyses.

Table 4 coverage, the k-origin multi-origin tables and the bootstrap
intervals are computed once, over bit-packed trials
(:mod:`repro.core.coverage`, :mod:`repro.core.multi_origin`,
:mod:`repro.core.bootstrap`).  This module keeps their original,
obviously-correct forms — per-origin boolean masks, one boolean union
per origin subset, one fresh index draw per bootstrap replicate — so the
packed code always has something independent to be compared against.
The two must agree exactly, float for float.

``full_report(dataset, engine="reference")`` runs its coverage and
multi-origin sections through here; the differential suites call these
functions directly.  Nothing else should: they are slow on purpose.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bootstrap import Interval, _percentile_interval
from repro.core.coverage import CoverageTable
from repro.core.dataset import CampaignDataset, TrialData
from repro.core.multi_origin import (ComboCoverage, KOriginSummary, best_of,
                                     summarize)
from repro.rng import CounterRNG


def coverage_table(dataset: CampaignDataset, protocol: str,
                   origins: Optional[Sequence[str]] = None,
                   single_probe: bool = False) -> CoverageTable:
    """Table 4 from boolean masks, one trial at a time."""
    trials = dataset.trials_for(protocol)
    chosen = list(origins) if origins is not None \
        else dataset.origins_for(protocol)
    coverage: Dict[int, Dict[str, float]] = {}
    intersection: Dict[int, float] = {}
    union_size: Dict[int, int] = {}
    for trial in trials:
        table = dataset.trial_data(protocol, trial)
        truth = table.ground_truth(single_probe=single_probe)
        total = int(truth.sum())
        coverage[trial] = {
            origin: float((table.accessible(origin, single_probe=single_probe)
                           & truth).sum() / total) if total else 0.0
            for origin in chosen if table.has_origin(origin)}
        union_size[trial] = total
        seen_by_all = truth.copy()
        for origin in chosen:
            if table.has_origin(origin):
                seen_by_all &= table.accessible(
                    origin, single_probe=single_probe)
        intersection[trial] = float(seen_by_all.sum() / total) \
            if total else 0.0
    return CoverageTable(protocol=protocol, origins=chosen,
                         trials=list(trials), coverage=coverage,
                         intersection=intersection, union_size=union_size)


def combo_coverages(trial_data: TrialData, k: int,
                    origins: Optional[Sequence[str]] = None,
                    single_probe: bool = False) -> List[ComboCoverage]:
    """Union coverage of every k-subset: one boolean union per subset."""
    chosen = [o for o in (origins or trial_data.origins)
              if trial_data.has_origin(o)]
    if k < 1 or k > len(chosen):
        raise ValueError(f"k must be in [1, {len(chosen)}]")
    truth = trial_data.ground_truth(single_probe=single_probe)
    total = int(truth.sum())
    masks = {o: trial_data.accessible(o, single_probe=single_probe) & truth
             for o in chosen}
    out: List[ComboCoverage] = []
    for combo in itertools.combinations(chosen, k):
        union = np.zeros(len(truth), dtype=bool)
        for origin in combo:
            union |= masks[origin]
        coverage = float(union.sum() / total) if total else 0.0
        out.append(ComboCoverage(combo=combo, trial=trial_data.trial,
                                 coverage=coverage))
    return out


def k_origin_summary(dataset: CampaignDataset, protocol: str, k: int,
                     origins: Optional[Sequence[str]] = None,
                     single_probe: bool = False) -> KOriginSummary:
    chosen = list(origins) if origins is not None \
        else dataset.origins_for(protocol)
    samples: List[ComboCoverage] = []
    for trial in dataset.trials_for(protocol):
        samples.extend(combo_coverages(dataset.trial_data(protocol, trial),
                                       k, origins=chosen,
                                       single_probe=single_probe))
    return summarize(k, samples)


def multi_origin_table(dataset: CampaignDataset, protocol: str,
                       origins: Optional[Sequence[str]] = None,
                       single_probe: bool = False,
                       max_k: Optional[int] = None
                       ) -> Dict[int, KOriginSummary]:
    chosen = list(origins) if origins is not None \
        else dataset.origins_for(protocol)
    limit = max_k if max_k is not None else len(chosen)
    return {k: k_origin_summary(dataset, protocol, k, origins=chosen,
                                single_probe=single_probe)
            for k in range(1, limit + 1)}


def best_combination(dataset: CampaignDataset, protocol: str, k: int,
                     origins: Optional[Sequence[str]] = None,
                     single_probe: bool = False
                     ) -> Tuple[Tuple[str, ...], float]:
    return best_of(k_origin_summary(dataset, protocol, k, origins=origins,
                                    single_probe=single_probe))


def combo_mean_coverage(dataset: CampaignDataset, protocol: str,
                        combo: Sequence[str],
                        single_probe: bool = False) -> float:
    values = []
    for trial in dataset.trials_for(protocol):
        table = dataset.trial_data(protocol, trial)
        truth = table.ground_truth(single_probe=single_probe)
        total = int(truth.sum())
        union = np.zeros(len(truth), dtype=bool)
        for origin in combo:
            if table.has_origin(origin):
                union |= table.accessible(origin,
                                          single_probe=single_probe)
        values.append(float((union & truth).sum() / total) if total else 0.0)
    return float(np.mean(values)) if values else float("nan")


def replicate_stats(rng: CounterRNG, values: np.ndarray, n: int,
                    replicates: int) -> np.ndarray:
    """Per-replicate resampled means: a fresh index vector per replicate
    (sample n with replacement), then ``mean()``."""
    stats = np.empty(replicates)
    counters = np.arange(n, dtype=np.uint64)
    for r in range(replicates):
        draws = rng.bits_array(counters, r)
        stats[r] = values[(draws % np.uint64(n)).astype(np.int64)].mean()
    return stats


def coverage_interval(trial_data: TrialData, origin: str,
                      replicates: int = 500, confidence: float = 0.95,
                      seed: int = 0,
                      single_probe: bool = False) -> Interval:
    """The coverage bootstrap CI from boolean masks and
    :func:`replicate_stats`."""
    truth = trial_data.ground_truth(single_probe=single_probe)
    seen = trial_data.accessible(origin, single_probe=single_probe)[truth]
    n = int(truth.sum())
    if n == 0:
        return Interval(float("nan"), float("nan"), float("nan"),
                        confidence)
    rng = CounterRNG(seed, "bootstrap-coverage", origin,
                     trial_data.protocol, trial_data.trial)
    return _percentile_interval(
        float(seen.mean()), replicate_stats(rng, seen, n, replicates),
        confidence)
