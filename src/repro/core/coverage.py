"""Per-origin ground-truth coverage (Figure 1, Table 4).

Coverage of an origin in a trial is the fraction of that trial's ground
truth the origin completed an L7 handshake with.  The module also computes
the all-origin intersection and union (Table 4's ∩ / ∪ columns) and the
cross-trial means.  The table is computed once, over packed trials
(:func:`packed_coverage_table`), for datasets and streamed campaigns
alike; the boolean original is :func:`repro.core.oracle.coverage_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.bits import popcount_packed
from repro.core.dataset import CampaignDataset, TrialData, common_origins
from repro.core.engine import PackedTrial, packed_trials


def coverage_by_origin(trial_data: TrialData,
                       origins: Optional[Sequence[str]] = None,
                       single_probe: bool = False) -> Dict[str, float]:
    """Origin → fraction of this trial's ground truth it saw."""
    packed = PackedTrial.from_trial(trial_data, single_probe=single_probe)
    return packed_coverage_table(trial_data.protocol, [packed],
                                 origins).coverage[packed.trial]


@dataclass
class CoverageTable:
    """The shape of the paper's Table 4: per-trial coverage plus ∩ / ∪."""

    protocol: str
    origins: List[str]
    trials: List[int]
    #: coverage[trial][origin] → fraction.
    coverage: Dict[int, Dict[str, float]]
    #: Fraction of ground truth seen by *every* origin, per trial.
    intersection: Dict[int, float]
    #: Ground-truth size per trial.
    union_size: Dict[int, int]

    def mean_coverage(self, origin: str) -> float:
        values = [cov[origin] for cov in self.coverage.values()
                  if origin in cov]
        return float(np.mean(values)) if values else float("nan")

    def mean_intersection(self) -> float:
        return float(np.mean(list(self.intersection.values())))

    def rows(self) -> List[List[str]]:
        """Render-ready rows (one per trial plus a mean row)."""
        out = []
        for trial in self.trials:
            row = [str(trial + 1)]
            row += [f"{self.coverage[trial].get(o, float('nan')):.1%}"
                    for o in self.origins]
            row += [f"{self.intersection[trial]:.1%}",
                    f"{self.union_size[trial]:,}"]
            out.append(row)
        mean_row = ["mean"]
        mean_row += [f"{self.mean_coverage(o):.1%}" for o in self.origins]
        mean_row += [f"{self.mean_intersection():.1%}",
                     f"{np.mean(list(self.union_size.values())):,.0f}"]
        out.append(mean_row)
        return out


def packed_coverage_table(protocol: str, trials: Sequence[PackedTrial],
                          origins: Optional[Sequence[str]] = None
                          ) -> CoverageTable:
    """The Table 4 analog over packed trials (one per trial, in order).

    ``origins`` defaults to those in every trial; one absent from a
    trial is skipped there.  The intersection folds from the truth
    plane, so an empty origin list yields 1.0.
    """
    if origins is None:
        origins = common_origins(trials)
    coverage: Dict[int, Dict[str, float]] = {}
    intersection: Dict[int, float] = {}
    union_size: Dict[int, int] = {}
    for packed in trials:
        total = packed.total
        present = packed.present(origins)
        rows = packed.packed[packed.rows_for(present)]
        coverage[packed.trial] = {
            origin: float(int(count) / total) if total else 0.0
            for origin, count in zip(present, popcount_packed(rows))}
        everyone = np.bitwise_and.reduce(rows, axis=0,
                                         initial=0xFF) & packed.truth
        intersection[packed.trial] = float(
            int(popcount_packed(everyone)) / total) if total else 0.0
        union_size[packed.trial] = total
    return CoverageTable(protocol=protocol, origins=list(origins),
                         trials=[packed.trial for packed in trials],
                         coverage=coverage, intersection=intersection,
                         union_size=union_size)


def coverage_table(dataset: CampaignDataset, protocol: str,
                   origins: Optional[Sequence[str]] = None,
                   single_probe: bool = False) -> CoverageTable:
    """Compute the Table 4 analog for one protocol."""
    return packed_coverage_table(
        protocol, packed_trials(dataset, protocol, single_probe), origins)


def median_single_origin_coverage(dataset: CampaignDataset, protocol: str,
                                  single_probe: bool = False) -> float:
    """Median per-(origin, trial) coverage — the paper's headline number.

    §7 reports 96.3 % (1 probe) and 97.6 % (2 probes) for the median origin.
    """
    table = coverage_table(dataset, protocol, single_probe=single_probe)
    values = [v for cov in table.coverage.values() for v in cov.values()]
    return float(np.median(values)) if values else float("nan")
