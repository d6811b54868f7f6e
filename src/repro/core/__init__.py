"""The paper's analysis pipeline (simulation-agnostic).

Everything in this package operates on :class:`repro.core.dataset.
CampaignDataset` — per (protocol, trial, origin) observations of which IPs
responded at L4/L7, how many probe responses arrived, the observed close
type, and when.  Datasets can come from the simulator
(:mod:`repro.sim`) or from real ZMap/ZGrab output (:mod:`repro.io`).
"""

from repro.core.records import L7Status, ACCESSIBLE_STATUSES
from repro.core.bits import count_true, pack_bits, popcount_packed, popcount_u8
from repro.core.dataset import CampaignDataset, TrialData, align_ips
from repro.core.engine import (
    AnalysisContext,
    PackedTrial,
    clear_context_cache,
    dataset_fingerprint,
    get_context,
)
from repro.core.ground_truth import (
    PresenceMatrix,
    build_presence,
    ground_truth_ips,
    union_ground_truth,
)
from repro.core.coverage import (
    CoverageTable,
    coverage_by_origin,
    coverage_table,
    median_single_origin_coverage,
)
from repro.core.classification import (
    Classification,
    MissCategory,
    breakdown_by_origin,
    classify_misses,
    figure2_rows,
    longterm_l4_breakdown,
)
from repro.core.exclusivity import (
    ExclusivityReport,
    exclusivity_report,
    single_origin_longterm_share,
)
from repro.core.by_as import (
    ASConcentration,
    LostASCounts,
    exclusive_accessible_by_as,
    longterm_as_concentration,
    lost_as_counts,
)
from repro.core.countries import (
    CountryInaccessibility,
    country_inaccessibility,
    country_size_correlation,
    exclusive_accessible_by_country,
)
from repro.core.transient import (
    TransientRates,
    largest_range_ases,
    loss_spread_cdf,
    transient_overlap_histogram,
    transient_rates,
)
from repro.core.packet_loss import (
    DropSummary,
    both_probe_loss_fraction,
    drop_summary,
    drop_vs_transient_correlation,
    estimate_drop_rate,
    origin_drop_rate,
    per_as_drop_rates,
)
from repro.core.bursts import BurstReport, burst_report, detect_burst_bins
from repro.core.best_worst import StabilityReport, stability_report
from repro.core.multi_origin import (
    KOriginSummary,
    best_combination,
    combo_mean_coverage,
    k_origin_summary,
    multi_origin_table,
    probe_origin_tradeoff,
)
from repro.core.ssh import (
    SSHBreakdown,
    close_style_shares,
    probabilistic_blocking_ips,
    probabilistic_longterm_fraction,
    ssh_breakdown,
    temporal_blocking_ases,
    temporal_blocking_timeseries,
)
from repro.core.slash24 import (
    Slash24Rates,
    mean_agreement,
    pairwise_agreement,
    slash24_rates,
)
from repro.core.timing import (
    AsynchronyReport,
    DiurnalProfile,
    asynchrony_report,
    diurnal_profile,
)
from repro.core.report import full_report
from repro.core.bootstrap import (
    Interval,
    coverage_difference_interval,
    coverage_interval,
    coverage_intervals,
)
from repro.core.churn_analysis import churn_report, unknown_budget
from repro.core.compare import (
    CoverageDelta,
    VisibilityDelta,
    compare_coverage,
    compare_visibility,
)
from repro.core.planning import (
    Plan,
    diminishing_returns_k,
    recommend_origins,
)
from repro.core.stats import (
    McNemarResult,
    all_pairs_significant,
    bonferroni,
    mcnemar,
    pairwise_origin_tests,
    spearman,
)

__all__ = [
    "L7Status", "ACCESSIBLE_STATUSES",
    "count_true", "pack_bits", "popcount_packed", "popcount_u8",
    "CampaignDataset", "TrialData", "align_ips",
    "AnalysisContext", "PackedTrial", "clear_context_cache",
    "dataset_fingerprint", "get_context",
    "PresenceMatrix", "build_presence", "ground_truth_ips",
    "union_ground_truth",
    "CoverageTable", "coverage_by_origin", "coverage_table",
    "median_single_origin_coverage",
    "Classification", "MissCategory", "breakdown_by_origin",
    "classify_misses", "figure2_rows",
    "ExclusivityReport", "exclusivity_report",
    "single_origin_longterm_share",
    "ASConcentration", "LostASCounts", "exclusive_accessible_by_as",
    "longterm_as_concentration", "lost_as_counts",
    "CountryInaccessibility", "country_inaccessibility",
    "country_size_correlation", "exclusive_accessible_by_country",
    "TransientRates", "largest_range_ases", "loss_spread_cdf",
    "transient_overlap_histogram", "transient_rates",
    "DropSummary", "both_probe_loss_fraction", "drop_summary",
    "drop_vs_transient_correlation", "estimate_drop_rate",
    "origin_drop_rate", "per_as_drop_rates",
    "BurstReport", "burst_report", "detect_burst_bins",
    "StabilityReport", "stability_report",
    "KOriginSummary", "best_combination", "combo_mean_coverage",
    "k_origin_summary", "multi_origin_table", "probe_origin_tradeoff",
    "SSHBreakdown", "close_style_shares", "probabilistic_blocking_ips",
    "probabilistic_longterm_fraction", "ssh_breakdown",
    "temporal_blocking_ases", "temporal_blocking_timeseries",
    "McNemarResult", "all_pairs_significant", "bonferroni", "mcnemar",
    "pairwise_origin_tests", "spearman",
    "Slash24Rates", "mean_agreement", "pairwise_agreement",
    "slash24_rates",
    "AsynchronyReport", "DiurnalProfile", "asynchrony_report",
    "diurnal_profile",
    "full_report", "longterm_l4_breakdown",
    "Interval", "coverage_difference_interval", "coverage_interval",
    "coverage_intervals",
    "churn_report", "unknown_budget",
    "CoverageDelta", "VisibilityDelta", "compare_coverage",
    "compare_visibility",
    "Plan", "diminishing_returns_k", "recommend_origins",
]
