"""Multi-origin and multi-probe coverage (§7, Figures 15, 17, 18).

For every k-subset of origins, the union coverage of each trial's ground
truth — the paper's headline remedy: two diverse origins lift median
single-probe HTTP coverage from 95.5 % to 98.3 %, three to 99.1 % with
σ = 0.08 %.

Subsets are enumerated by OR-ing bit-packed accessibility rows and
popcounting (:class:`repro.core.engine.PackedTrial`) — one fused
gather/OR/popcount per subset size.  The ``packed_*`` functions are the
one implementation, shared by datasets and streamed campaigns
(:mod:`repro.core.streaming`); the boolean-union original is the
differential oracle in :mod:`repro.core.oracle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import CampaignDataset, TrialData, common_origins
from repro.core.engine import AnalysisContext, PackedTrial, packed_trials


@dataclass
class ComboCoverage:
    """Coverage of one origin subset in one trial."""

    combo: Tuple[str, ...]
    trial: int
    coverage: float


@dataclass
class KOriginSummary:
    """Distribution of coverage over all k-subsets and trials."""

    k: int
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float
    std: float
    samples: List[ComboCoverage]


def summarize(k: int, samples: List[ComboCoverage]) -> KOriginSummary:
    """Pool per-(subset, trial) coverages into one k-subset summary."""
    values = np.array([s.coverage for s in samples])
    return KOriginSummary(
        k=k,
        median=float(np.median(values)),
        q1=float(np.percentile(values, 25)),
        q3=float(np.percentile(values, 75)),
        minimum=float(values.min()),
        maximum=float(values.max()),
        std=float(values.std()),
        samples=samples)


def best_of(summary: KOriginSummary) -> Tuple[Tuple[str, ...], float]:
    """The subset of ``summary`` with the highest mean coverage."""
    by_combo: Dict[Tuple[str, ...], List[float]] = {}
    for sample in summary.samples:
        by_combo.setdefault(sample.combo, []).append(sample.coverage)
    means = {combo: float(np.mean(vals))
             for combo, vals in by_combo.items()}
    best = max(means, key=means.get)
    return best, means[best]


def packed_combo_coverages(packed: PackedTrial, k: int,
                           origins: Optional[Sequence[str]] = None
                           ) -> List[ComboCoverage]:
    """Union coverage of every k-subset of ``origins`` (default: all of
    the trial's) present in one packed trial: OR rows, popcount, divide."""
    chosen = packed.present(origins or packed.origins)
    if k < 1 or k > len(chosen):
        raise ValueError(f"k must be in [1, {len(chosen)}]")
    rows = packed.rows_for(chosen)
    combos = list(itertools.combinations(range(len(chosen)), k))
    counts = packed.union_counts(rows[np.array(combos, dtype=np.intp)])
    total = packed.total
    coverages = counts / total if total else np.zeros(len(combos))
    return [ComboCoverage(combo=tuple(chosen[i] for i in combo),
                          trial=packed.trial, coverage=float(coverage))
            for combo, coverage in zip(combos, coverages)]


def packed_k_origin_summary(trials: Sequence[PackedTrial], k: int,
                            origins: Optional[Sequence[str]] = None
                            ) -> KOriginSummary:
    """Coverage distribution over all k-subsets of ``origins`` (default:
    those in every trial), pooled across trials."""
    if origins is None:
        origins = common_origins(trials)
    samples: List[ComboCoverage] = []
    for packed in trials:
        samples.extend(packed_combo_coverages(packed, k, origins))
    return summarize(k, samples)


def packed_multi_origin_table(trials: Sequence[PackedTrial],
                              origins: Optional[Sequence[str]] = None,
                              max_k: Optional[int] = None
                              ) -> Dict[int, KOriginSummary]:
    """One summary per subset size 1..``max_k`` (default: all)."""
    if origins is None:
        origins = common_origins(trials)
    limit = max_k if max_k is not None else len(origins)
    return {k: packed_k_origin_summary(trials, k, origins)
            for k in range(1, limit + 1)}


def combo_coverages(trial_data: TrialData, k: int,
                    origins: Optional[Sequence[str]] = None,
                    single_probe: bool = False,
                    context: Optional[AnalysisContext] = None
                    ) -> List[ComboCoverage]:
    """Union coverage of every k-subset of origins for one trial."""
    packed = context.packed_trial(trial_data.trial,
                                  single_probe=single_probe) \
        if context is not None \
        else PackedTrial.from_trial(trial_data, single_probe=single_probe)
    return packed_combo_coverages(packed, k, origins)


def k_origin_summary(dataset: CampaignDataset, protocol: str, k: int,
                     origins: Optional[Sequence[str]] = None,
                     single_probe: bool = False,
                     context: Optional[AnalysisContext] = None
                     ) -> KOriginSummary:
    """Coverage distribution over all k-subsets, pooled across trials."""
    return packed_k_origin_summary(
        packed_trials(dataset, protocol, single_probe, context), k, origins)


def multi_origin_table(dataset: CampaignDataset, protocol: str,
                       origins: Optional[Sequence[str]] = None,
                       single_probe: bool = False,
                       max_k: Optional[int] = None,
                       context: Optional[AnalysisContext] = None
                       ) -> Dict[int, KOriginSummary]:
    """Figure 15/17's data: one summary per subset size."""
    return packed_multi_origin_table(
        packed_trials(dataset, protocol, single_probe, context), origins,
        max_k=max_k)


def best_combination(dataset: CampaignDataset, protocol: str, k: int,
                     origins: Optional[Sequence[str]] = None,
                     single_probe: bool = False,
                     context: Optional[AnalysisContext] = None
                     ) -> Tuple[Tuple[str, ...], float]:
    """The k-subset with the highest mean coverage across trials."""
    return best_of(k_origin_summary(dataset, protocol, k, origins=origins,
                                    single_probe=single_probe,
                                    context=context))


def combo_mean_coverage(dataset: CampaignDataset, protocol: str,
                        combo: Sequence[str],
                        single_probe: bool = False,
                        context: Optional[AnalysisContext] = None
                        ) -> float:
    """Mean coverage across trials for one specific origin subset."""
    values = []
    for packed in packed_trials(dataset, protocol, single_probe, context):
        present = packed.present(combo)
        if present and packed.total:
            rows = packed.rows_for(present)
            count = int(packed.union_counts(rows[None, :])[0])
            values.append(count / packed.total)
        else:
            values.append(0.0)
    return float(np.mean(values)) if values else float("nan")


def probe_origin_tradeoff(dataset: CampaignDataset, protocol: str,
                          origins: Optional[Sequence[str]] = None,
                          context: Optional[AnalysisContext] = None
                          ) -> Dict[str, float]:
    """§7's bandwidth trade-off: probes vs origins.

    Returns the median coverages of: 1 probe × 1 origin, 2 probes × 1
    origin, 1 probe × 2 origins, 2 probes × 2 origins, 1 probe × 3
    origins.  The paper finds one probe from two origins beats two probes
    from one, and one probe from three origins beats two probes from two
    while costing less bandwidth.
    """
    trials = {single_probe: packed_trials(dataset, protocol, single_probe,
                                          context)
              for single_probe in (True, False)}

    def median(k: int, single_probe: bool) -> float:
        return packed_k_origin_summary(trials[single_probe], k,
                                       origins).median

    return {
        "1probe_1origin": median(1, True),
        "2probe_1origin": median(1, False),
        "1probe_2origin": median(2, True),
        "2probe_2origin": median(2, False),
        "1probe_3origin": median(3, True),
    }
