"""One-shot campaign report: every §3–§7 analysis as readable text.

``full_report`` runs the whole analysis pipeline over a campaign dataset
and renders the results in the order the paper presents them.  It is the
backing of ``python -m repro report`` and a convenient smoke test that a
dataset (simulated or loaded from disk) is analyzable end-to-end.

Under an active telemetry collector the whole report is one ``report``
span with one ``report.<section>`` child per section (:data:`SECTIONS`),
so a slow report names its slow section without a profiler.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import oracle
from repro.core.bursts import burst_report
from repro.core.classification import figure2_rows, longterm_l4_breakdown
from repro.core.coverage import coverage_table
from repro.core.dataset import CampaignDataset
from repro.core.engine import AnalysisContext, get_context
from repro.core.exclusivity import (
    exclusivity_report,
    single_origin_longterm_share,
)
from repro.core.multi_origin import multi_origin_table
from repro.core.packet_loss import drop_summary
from repro.core.slash24 import mean_agreement
from repro.core.ssh import ssh_breakdown
from repro.core.stats import bonferroni, pairwise_origin_tests
from repro.core.timing import asynchrony_report, diurnal_profile
from repro.core.transient import transient_overlap_histogram
from repro.reporting.figures import render_bars, render_grouped_bars
from repro.reporting.tables import render_table
from repro.telemetry.context import current as _telemetry

#: The report's sections in render order, one ``report.<section>`` span
#: each; ``context`` builds the per-protocol analysis contexts.
SECTIONS = ("context", "coverage", "figure2", "exclusivity", "longterm_l4",
            "transient", "drop", "bursts", "ssh", "multi_origin", "stats",
            "slash24", "timing")


def full_report(dataset: CampaignDataset, engine: str = "packed") -> str:
    """Render the complete analysis suite for ``dataset`` as text.

    ``engine="reference"`` computes the coverage and multi-origin
    sections with the boolean oracle (:mod:`repro.core.oracle`) instead
    of the packed analyses; the text must not change.  One shared
    :class:`~repro.core.engine.AnalysisContext` per protocol backs every
    section, so the whole report performs exactly one presence-alignment
    pass per protocol (observable via the ``analysis.presence_build``
    telemetry counter).
    """
    engines = {"packed": (coverage_table, multi_origin_table),
               "reference": (oracle.coverage_table,
                             oracle.multi_origin_table)}
    if engine not in engines:
        raise ValueError(f"unknown analysis engine {engine!r}; "
                         f"choose from {sorted(engines)}")
    tel = _telemetry()
    with tel.span("report", engine=engine,
                  protocols=list(dataset.protocols)):
        return _render(dataset, *engines[engine], tel)


def _render(dataset: CampaignDataset, table_of, multi_of, tel) -> str:
    def section(name: str):
        return tel.span("report." + name)

    sections: List[str] = []
    protocols = dataset.protocols
    with section("context"):
        contexts: Dict[str, AnalysisContext] = {
            protocol: get_context(dataset, protocol)
            for protocol in protocols}

    with section("coverage"):  # Figure 1 / Table 4
        for protocol in protocols:
            table = table_of(dataset, protocol)
            sections.append(render_table(
                ["trial"] + table.origins + ["∩", "∪"], table.rows(),
                title=f"[coverage] {protocol}"))

    with section("figure2"):  # missing hosts, Figure 2
        for protocol in protocols:
            rows = figure2_rows(dataset, protocol, context=contexts[protocol])
            groups = {}
            for row in rows:
                key = row["origin"]
                bucket = groups.setdefault(
                    key, {"transient": 0, "long_term": 0, "unknown": 0})
                bucket["transient"] += row["transient_host"] \
                    + row["transient_network"]
                bucket["long_term"] += row["long_term_host"] \
                    + row["long_term_network"]
                bucket["unknown"] += row["unknown"]
            sections.append(render_grouped_bars(
                groups, title=f"[missing hosts, all trials] {protocol}"))

    with section("exclusivity"):  # Figure 3 / Table 1
        for protocol in protocols:
            report = exclusivity_report(dataset, protocol,
                                        context=contexts[protocol])
            table1 = report.table1()
            rows = [[o, f"{v['accessible']:.1%}", f"{v['inaccessible']:.1%}"]
                    for o, v in table1.items()]
            share = single_origin_longterm_share(report, exclude=())
            sections.append(render_table(
                ["origin", "excl. accessible", "excl. inaccessible"], rows,
                title=f"[exclusivity] {protocol} "
                      f"(single-origin long-term share {share:.0%})"))

    with section("longterm_l4"):  # long-term misses on the wire, §4
        for protocol in protocols:
            breakdown = longterm_l4_breakdown(dataset, protocol,
                                              context=contexts[protocol])
            rows = [[o, f"{v['no_l4']:.0%}", f"{v['l4_responsive']:.0%}"]
                    for o, v in breakdown.items()]
            sections.append(render_table(
                ["origin", "silent at L4", "L4-responsive"], rows,
                title=f"[long-term misses on the wire] {protocol}"))

    with section("transient"):  # Figure 8
        for protocol in protocols:
            histogram = transient_overlap_histogram(
                dataset, protocol, context=contexts[protocol])
            sections.append(render_bars(
                {f"{k} origin(s)": v for k, v in histogram.items()},
                fmt="{:,.0f}",
                title=f"[transient overlap] {protocol}"))

    with section("drop"):  # packet loss, §5.2
        for protocol in protocols:
            summary = drop_summary(dataset, protocol)
            lo, hi = summary.range_global()
            sections.append(
                f"[drop estimates] {protocol}: {lo:.2%}–{hi:.2%}, worst "
                f"origin {summary.worst_origin()}")

    with section("bursts"):  # §5.3
        for protocol in protocols:
            report = burst_report(dataset, protocol,
                                  context=contexts[protocol])
            fractions = report.coincident_fraction()
            affected = report.transient_total > 0
            mean_fraction = float(fractions[affected].mean()) \
                if affected.any() else 0.0
            sections.append(
                f"[bursts] {protocol}: {mean_fraction:.0%} of transient loss "
                f"coincides with detected bursts "
                f"({report.ases_with_burst}/{report.ases_with_transient} "
                f"affected ASes show one)")

    with section("ssh"):  # §6
        if "ssh" in protocols:
            breakdown = ssh_breakdown(dataset, context=contexts["ssh"])
            totals = {o: breakdown.totals(o) for o in breakdown.origins}
            sections.append(render_grouped_bars(
                totals, title="[ssh mechanisms, all trials]"))

    with section("multi_origin"):  # §7 / Figure 15
        for protocol in protocols:
            table = multi_of(dataset, protocol, single_probe=True,
                             max_k=min(3, len(dataset.origins_for(protocol))))
            rows = [[k, f"{s.median:.2%}", f"{s.std:.3%}"]
                    for k, s in table.items()]
            sections.append(render_table(
                ["#origins", "median (1 probe)", "σ"], rows,
                title=f"[multi-origin coverage] {protocol}"))

    with section("stats"):  # McNemar, §3
        for protocol in protocols:
            results = []
            for trial in dataset.trials_for(protocol):
                results.extend(pairwise_origin_tests(
                    dataset.trial_data(protocol, trial),
                    origins=dataset.origins_for(protocol)))
            corrected = bonferroni([r.p_value for r in results])
            significant = sum(p < 0.001 for p in corrected)
            sections.append(
                f"[mcnemar] {protocol}: {significant}/{len(results)} origin "
                f"pairs differ (p<0.001, Bonferroni)")

    with section("slash24"):  # §8, the Heidemann comparison
        for protocol in protocols:
            agreement = mean_agreement(dataset, protocol)
            sections.append(
                f"[/24 agreement] {protocol}: {agreement:.0%} of blocks "
                f"within 5% response rate across origin pairs "
                f"(2008 same-country baseline: 96%; paper: 87%)")

    with section("timing"):  # §2 asynchrony, §5.3 diurnal
        for protocol in protocols:
            trial = dataset.trials_for(protocol)[0]
            asynchrony = asynchrony_report(dataset.trial_data(protocol,
                                                              trial))
            laggards = asynchrony.laggards()
            sections.append(
                f"[asynchrony] {protocol} trial {trial + 1}: max lag "
                f"{asynchrony.overall_max() / 3600:.2f} h"
                + (f" (laggards: {', '.join(laggards)})" if laggards else ""))
        for protocol in protocols:
            profile = diurnal_profile(dataset, protocol)
            spans = {o: profile.peak_to_trough(o) for o in profile.origins}
            worst = max(spans, key=spans.get)
            sections.append(
                f"[diurnal] {protocol}: largest local-hour miss-rate span "
                f"{spans[worst]:.1%} ({worst}) — no origin shows a strong "
                f"time-of-day pattern" if spans[worst] < 0.1 else
                f"[diurnal] {protocol}: {worst} varies {spans[worst]:.1%} "
                f"by local hour")

    return "\n\n".join(sections)
