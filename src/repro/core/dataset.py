"""The campaign dataset: everything every origin observed.

A :class:`CampaignDataset` is the neutral interchange format between data
sources (the simulator, or real ZMap/ZGrab output loaded via
:mod:`repro.io`) and the analyses.  It holds one :class:`TrialData` per
(protocol, trial): aligned columns over the services observed in that
trial, with per-origin observation matrices.

Alignment rules:

* Within a trial, all origins share the same IP rows (sorted ascending).
* Across trials, IP sets differ (churn); analyses align them with
  :func:`align_ips`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import popcount_u8
from repro.core.records import L7Status


@dataclass
class TrialData:
    """Observations of one (protocol, trial) from every participating origin.

    ``probe_mask``, ``l7`` and ``time`` are (n_origins, n_services)
    matrices, row-aligned with ``origins`` and column-aligned with ``ip``.
    """

    protocol: str
    trial: int
    origins: List[str]
    ip: np.ndarray             # uint32, sorted ascending
    as_index: np.ndarray       # int64
    country_index: np.ndarray  # int64 (true location)
    geo_index: np.ndarray      # int64 (observed GeoIP location)
    probe_mask: np.ndarray     # uint8 (o, n)
    l7: np.ndarray             # uint8 (o, n)
    time: np.ndarray           # float32 (o, n)
    n_probes: int = 2

    def __post_init__(self) -> None:
        n = len(self.ip)
        o = len(self.origins)
        for name in ("probe_mask", "l7", "time"):
            mat = getattr(self, name)
            if mat.shape != (o, n):
                raise ValueError(
                    f"{name} must be shaped ({o}, {n}), got {mat.shape}")
        if (len(self.as_index) != n or len(self.country_index) != n
                or len(self.geo_index) != n):
            raise ValueError("attribution columns must match ip length")
        if n > 1 and np.any(self.ip[1:] <= self.ip[:-1]):
            raise ValueError("ip column must be sorted strictly ascending")

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------

    def origin_row(self, origin: str) -> int:
        try:
            return self.origins.index(origin)
        except ValueError:
            raise KeyError(
                f"origin {origin!r} not present in trial {self.trial} "
                f"({self.protocol})") from None

    def has_origin(self, origin: str) -> bool:
        return origin in self.origins

    # ------------------------------------------------------------------
    # Accessibility predicates
    # ------------------------------------------------------------------

    def accessible(self, origin: str,
                   single_probe: bool = False) -> np.ndarray:
        """Services whose L7 handshake completed for ``origin``.

        With ``single_probe=True``, additionally require the *first* probe
        to have been answered — the paper's single-probe-scan simulation
        (§5): a 1-probe scanner would only have reached hosts whose first
        SYN got through.
        """
        return self._success(self.origin_row(origin), single_probe)

    def accessible_matrix(self, single_probe: bool = False) -> np.ndarray:
        """:meth:`accessible` for every origin: an (n_origins, n) matrix
        row-aligned with ``origins``."""
        return self._success(slice(None), single_probe)

    def _success(self, rows, single_probe: bool) -> np.ndarray:
        ok = self.l7[rows] == int(L7Status.SUCCESS)
        if single_probe:
            ok = ok & ((self.probe_mask[rows] & 1) == 1)
        return ok

    def l4_responsive(self, origin: str) -> np.ndarray:
        """Services that completed the TCP handshake for ``origin``."""
        row = self.origin_row(origin)
        return self.l7[row] != int(L7Status.NO_L4)

    def response_counts(self, origin: str) -> np.ndarray:
        """SYN-ACKs received per service (0..n_probes)."""
        row = self.origin_row(origin)
        return popcount_u8(self.probe_mask[row])

    def ground_truth(self, origins: Optional[Sequence[str]] = None,
                     single_probe: bool = False) -> np.ndarray:
        """Mask of services accessible from at least one origin."""
        chosen = list(origins) if origins is not None else self.origins
        truth = np.zeros(len(self.ip), dtype=bool)
        for origin in chosen:
            if self.has_origin(origin):
                truth |= self.accessible(origin, single_probe=single_probe)
        return truth


class CampaignDataset:
    """All trials of a campaign, addressable by (protocol, trial)."""

    def __init__(self, trials: Iterable[TrialData],
                 metadata: Optional[Mapping] = None) -> None:
        self._data: Dict[Tuple[str, int], TrialData] = {}
        for trial_data in trials:
            key = (trial_data.protocol, trial_data.trial)
            if key in self._data:
                raise ValueError(f"duplicate trial data for {key}")
            self._data[key] = trial_data
        if not self._data:
            raise ValueError("a campaign needs at least one trial")
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def protocols(self) -> List[str]:
        seen: List[str] = []
        for protocol, _ in self._data:
            if protocol not in seen:
                seen.append(protocol)
        return seen

    def trials_for(self, protocol: str) -> List[int]:
        return sorted(t for p, t in self._data if p == protocol)

    def trial_data(self, protocol: str, trial: int) -> TrialData:
        return self._data[(protocol, trial)]

    def __iter__(self):
        return iter(self._data.values())

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Origin bookkeeping
    # ------------------------------------------------------------------

    def origins_for(self, protocol: str) -> List[str]:
        """Origins present in *every* trial of ``protocol``.

        The paper excludes Carinet (which only scanned trial 1) from
        aggregate statistics; this is the same rule.
        """
        return common_origins([self.trial_data(protocol, trial)
                               for trial in self.trials_for(protocol)])

    def all_origins(self, protocol: str) -> List[str]:
        """Origins present in *any* trial of ``protocol``."""
        seen: List[str] = []
        for trial in self.trials_for(protocol):
            for origin in self.trial_data(protocol, trial).origins:
                if origin not in seen:
                    seen.append(origin)
        return seen


def common_origins(trials: Sequence) -> List[str]:
    """Origins present in every one of ``trials`` (anything with an
    ``origins`` list), in first-trial order."""
    if not trials:
        return []
    return [o for o in trials[0].origins
            if all(o in trial.origins for trial in trials[1:])]


def align_ips(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Positions of ``reference`` IPs inside sorted ``other`` (-1 if absent).

    Both arrays must be sorted ascending uint32, as TrialData guarantees.
    """
    reference = np.asarray(reference, dtype=np.uint32)
    other = np.asarray(other, dtype=np.uint32)
    pos = np.searchsorted(other, reference)
    pos_clipped = np.clip(pos, 0, max(len(other) - 1, 0))
    if len(other) == 0:
        return np.full(reference.shape, -1, dtype=np.int64)
    found = other[pos_clipped] == reference
    return np.where(found, pos_clipped, -1).astype(np.int64)


def union_ip_universe(tables: Sequence[TrialData]) -> np.ndarray:
    """Sorted union of the IP columns of several trials."""
    if not tables:
        return np.array([], dtype=np.uint32)
    return np.unique(np.concatenate([t.ip for t in tables]))
