"""Differential suite: the packed analyses are byte-identical to the oracle.

Every packed coverage, multi-origin and bootstrap analysis is compared
with its boolean original in :mod:`repro.core.oracle` — over simulated
campaigns at several seeds, over hand-built edge-case datasets, through
``full_report`` and through the CLI — for *exact* equality (not
approximate): the packed rewrites are algebraically identical
computations, so any difference at all is a bug.

Also covers the shared :class:`~repro.core.engine.AnalysisContext`:
context-threaded calls must match context-less ones, and a full report
must perform exactly one presence-alignment pass per protocol
(asserted via the ``analysis.presence_build`` telemetry counter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core import bootstrap, oracle
from repro.core.bootstrap import (
    coverage_difference_interval,
    coverage_interval,
    coverage_intervals,
)
from repro.core.coverage import coverage_table
from repro.core.classification import breakdown_by_origin, classify_misses
from repro.core.dataset import align_ips
from repro.core.engine import (
    AnalysisContext,
    PackedTrial,
    clear_context_cache,
    dataset_fingerprint,
    get_context,
)
from repro.core.exclusivity import exclusivity_report
from repro.core.ground_truth import build_presence
from repro.core.multi_origin import (
    best_combination,
    combo_coverages,
    combo_mean_coverage,
    multi_origin_table,
    probe_origin_tradeoff,
)
from repro.core.report import full_report
from repro.io import load_any_campaign
from repro.sim.campaign import run_campaign
from repro.sim.scenario import small_scenario
from repro.telemetry.context import Telemetry, use
from tests.conftest import make_campaign, make_trial

SEEDS = (3, 17, 29)


@pytest.fixture(scope="module", params=SEEDS)
def seeded_campaign(request):
    world, origins, config = small_scenario(seed=request.param)
    return run_campaign(world, origins, config, n_trials=3)


def summaries_as_tuples(table):
    return {k: (s.median, s.q1, s.q3, s.minimum, s.maximum, s.std,
                [(c.combo, c.trial, c.coverage) for c in s.samples])
            for k, s in table.items()}


def table_as_tuple(table):
    return (table.protocol, table.origins, table.trials, table.coverage,
            table.intersection, table.union_size)


# ----------------------------------------------------------------------
# Coverage (Table 4)
# ----------------------------------------------------------------------

class TestCoverageEquivalence:
    def test_coverage_table(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            for single_probe in (False, True):
                assert table_as_tuple(coverage_table(
                    ds, protocol, single_probe=single_probe)) == \
                    table_as_tuple(oracle.coverage_table(
                        ds, protocol, single_probe=single_probe))

    def test_coverage_table_origin_subsets(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        origins = ds.origins_for(protocol)
        for chosen in (origins[:1], origins[1:3], [], origins + ["nowhere"]):
            assert table_as_tuple(coverage_table(
                ds, protocol, origins=chosen)) == \
                table_as_tuple(oracle.coverage_table(ds, protocol,
                                                     origins=chosen))


# ----------------------------------------------------------------------
# Multi-origin enumeration
# ----------------------------------------------------------------------

class TestMultiOriginEquivalence:
    def test_combo_coverages_all_k(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            table = ds.trial_data(protocol, 0)
            for single_probe in (False, True):
                for k in range(1, len(table.origins) + 1):
                    packed = combo_coverages(table, k,
                                             single_probe=single_probe)
                    ref = oracle.combo_coverages(table, k,
                                                 single_probe=single_probe)
                    assert [(c.combo, c.trial, c.coverage)
                            for c in packed] == \
                           [(c.combo, c.trial, c.coverage) for c in ref]

    def test_multi_origin_table(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            packed = multi_origin_table(ds, protocol)
            ref = oracle.multi_origin_table(ds, protocol)
            assert summaries_as_tuples(packed) == summaries_as_tuples(ref)

    def test_best_combination(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            assert best_combination(ds, protocol, 2) == \
                oracle.best_combination(ds, protocol, 2)

    def test_combo_mean_coverage(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        combo = ds.origins_for(protocol)[:2]
        assert combo_mean_coverage(ds, protocol, combo) \
            == oracle.combo_mean_coverage(ds, protocol, combo)

    def test_probe_origin_tradeoff(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        def median(k, single_probe):
            return oracle.k_origin_summary(
                ds, protocol, k, single_probe=single_probe).median

        assert probe_origin_tradeoff(ds, protocol) == {
            "1probe_1origin": median(1, True),
            "2probe_1origin": median(1, False),
            "1probe_2origin": median(2, True),
            "2probe_2origin": median(2, False),
            "1probe_3origin": median(3, True),
        }


# ----------------------------------------------------------------------
# Bootstrap intervals
# ----------------------------------------------------------------------

class TestBootstrapEquivalence:
    def test_coverage_interval(self, seeded_campaign):
        ds = seeded_campaign
        for protocol in ds.protocols:
            table = ds.trial_data(protocol, 0)
            for origin in table.origins:
                packed = coverage_interval(table, origin, replicates=80)
                ref = oracle.coverage_interval(table, origin, replicates=80)
                assert packed == ref

    def test_coverage_difference_interval(self, seeded_campaign,
                                          monkeypatch):
        # The float (paired-difference) case of the buffered replicate
        # loop, against the oracle's per-replicate loop swapped in.
        ds = seeded_campaign
        protocol = ds.protocols[0]
        table = ds.trial_data(protocol, 0)
        a, b = table.origins[:2]
        packed = coverage_difference_interval(table, a, b, replicates=80)
        monkeypatch.setattr(bootstrap, "_replicate_stats",
                            oracle.replicate_stats)
        ref = coverage_difference_interval(table, a, b, replicates=80)
        assert packed == ref

    def test_coverage_intervals(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[-1]
        table = ds.trial_data(protocol, 1)
        assert coverage_intervals(table, replicates=50) == {
            origin: oracle.coverage_interval(table, origin, replicates=50)
            for origin in table.origins}

    def test_single_probe_interval(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        table = ds.trial_data(protocol, 0)
        origin = table.origins[0]
        assert coverage_interval(table, origin, replicates=50,
                                 single_probe=True) == \
            oracle.coverage_interval(table, origin, replicates=50,
                                     single_probe=True)


# ----------------------------------------------------------------------
# Full report and CLI
# ----------------------------------------------------------------------

class TestReportEquivalence:
    def test_full_report_identical(self, seeded_campaign):
        assert full_report(seeded_campaign) == \
            full_report(seeded_campaign, engine="packed") == \
            full_report(seeded_campaign, engine="reference")

    def test_reference_report_runs_the_oracle(self, seeded_campaign,
                                              monkeypatch):
        # engine="reference" is a real selector, never accepted and
        # ignored: its coverage and multi-origin sections call the oracle.
        calls = []
        for name in ("coverage_table", "multi_origin_table"):
            original = getattr(oracle, name)
            monkeypatch.setattr(oracle, name,
                                lambda *a, _f=original, _n=name, **kw:
                                calls.append(_n) or _f(*a, **kw))
        full_report(seeded_campaign)
        assert calls == []
        full_report(seeded_campaign, engine="reference")
        n = len(seeded_campaign.protocols)
        assert sorted(calls) == ["coverage_table"] * n \
            + ["multi_origin_table"] * n

    def test_full_report_rejects_unknown_engine(self):
        ds = make_campaign([make_trial("http", 0, ["A"], [10], l7={
            "A": ["ok"]})])
        with pytest.raises(ValueError, match="unknown analysis engine"):
            full_report(ds, engine="quantum")


class TestCLIEquivalence:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        target = tmp_path_factory.mktemp("engine-cli")
        assert main(["simulate", str(target), "--scale", "0.04",
                     "--trials", "2", "--protocols", "http", "ssh",
                     "--seed", "23"]) == 0
        return target

    def test_report_matches_oracle(self, dataset_dir, capsys):
        assert main(["report", str(dataset_dir)]) == 0
        printed = capsys.readouterr().out
        assert printed.strip()
        reference = full_report(load_any_campaign(str(dataset_dir)),
                                engine="reference")
        assert printed == reference + "\n"


# ----------------------------------------------------------------------
# Shared context
# ----------------------------------------------------------------------

class TestContextSharing:
    def test_classifications_match_without_context(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        context = AnalysisContext(ds, protocol)
        with_ctx = breakdown_by_origin(ds, protocol, context=context)
        without = breakdown_by_origin(ds, protocol)
        assert set(with_ctx) == set(without)
        for origin in with_ctx:
            a, b = with_ctx[origin], without[origin]
            assert a.trials == b.trials
            assert np.array_equal(a.category, b.category)
            assert np.array_equal(a.present, b.present)

    def test_classify_misses_with_context(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        origin = ds.origins_for(protocol)[0]
        context = AnalysisContext(ds, protocol)
        a = classify_misses(ds, protocol, origin, context=context)
        b = classify_misses(ds, protocol, origin)
        assert np.array_equal(a.category, b.category)

    def test_exclusivity_with_context(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        context = AnalysisContext(ds, protocol)
        a = exclusivity_report(ds, protocol, context=context)
        b = exclusivity_report(ds, protocol)
        assert a.table1() == b.table1()
        assert np.array_equal(a.long_term, b.long_term)
        assert np.array_equal(a.ever_accessible, b.ever_accessible)

    def test_context_memoizes_presence(self, seeded_campaign):
        ds = seeded_campaign
        protocol = ds.protocols[0]
        context = AnalysisContext(ds, protocol)
        first = context.presence()
        # Explicitly naming the default origin set hits the same entry.
        again = context.presence(origins=ds.origins_for(protocol))
        assert first is again

    def test_get_context_memoizes_on_fingerprint(self, seeded_campaign):
        clear_context_cache()
        try:
            ds = seeded_campaign
            protocol = ds.protocols[0]
            a = get_context(ds, protocol)
            b = get_context(ds, protocol)
            assert a is b
            assert a.fingerprint == dataset_fingerprint(ds)
        finally:
            clear_context_cache()

    def test_full_report_builds_presence_once_per_protocol(
            self, seeded_campaign):
        clear_context_cache()
        try:
            tel = Telemetry()
            with use(tel):
                full_report(seeded_campaign)
            builds = {}
            for record in tel.metric_records():
                if record["name"] == "analysis.presence_build":
                    builds[record["attrs"]["protocol"]] = record["value"]
            assert builds == {protocol: 1
                              for protocol in seeded_campaign.protocols}
        finally:
            clear_context_cache()

    def test_fingerprint_changes_with_data(self, seeded_campaign):
        base = dataset_fingerprint(seeded_campaign)
        tables = [t for t in seeded_campaign]
        mutated = make_campaign(tables[:-1],
                                metadata=seeded_campaign.metadata)
        assert dataset_fingerprint(mutated) != base


# ----------------------------------------------------------------------
# Edge cases (hand-built datasets), packed and oracle agreeing
# ----------------------------------------------------------------------

class TestEdgeCases:
    def test_single_trial_dataset(self):
        ds = make_campaign([
            make_trial("http", 0, ["A", "B"], [10, 20, 30], l7={
                "A": ["ok", "none", "ok"],
                "B": ["none", "ok", "ok"]}),
        ])
        presence = build_presence(ds, "http")
        assert presence.present.shape == (1, 3)
        for k in (1, 2):
            packed = combo_coverages(ds.trial_data("http", 0), k)
            ref = oracle.combo_coverages(ds.trial_data("http", 0), k)
            assert [(c.combo, c.coverage) for c in packed] == \
                [(c.combo, c.coverage) for c in ref]
        assert summaries_as_tuples(multi_origin_table(ds, "http")) == \
            summaries_as_tuples(oracle.multi_origin_table(ds, "http"))
        assert table_as_tuple(coverage_table(ds, "http")) == \
            table_as_tuple(oracle.coverage_table(ds, "http"))

    def test_disjoint_trial_universes(self):
        ds = make_campaign([
            make_trial("http", 0, ["A", "B"], [10, 20], l7={
                "A": ["ok", "ok"], "B": ["ok", "none"]}),
            make_trial("http", 1, ["A", "B"], [30, 40], l7={
                "A": ["none", "ok"], "B": ["ok", "ok"]}),
        ])
        presence = build_presence(ds, "http")
        assert presence.n_hosts() == 4
        # Each trial only "presents" its own half of the universe.
        assert int(presence.present[0].sum()) == 2
        assert int(presence.present[1].sum()) == 2
        assert summaries_as_tuples(multi_origin_table(ds, "http")) == \
            summaries_as_tuples(oracle.multi_origin_table(ds, "http"))
        assert table_as_tuple(coverage_table(ds, "http")) == \
            table_as_tuple(oracle.coverage_table(ds, "http"))

    def test_origin_missing_from_one_trial(self):
        # The Carinet rule: an origin absent from a trial is dropped from
        # the aggregate origin set, but per-trial analyses still see it.
        ds = make_campaign([
            make_trial("http", 0, ["A", "B", "C"], [10, 20], l7={
                "A": ["ok", "ok"], "B": ["ok", "none"],
                "C": ["none", "ok"]}),
            make_trial("http", 1, ["A", "B"], [10, 20], l7={
                "A": ["ok", "none"], "B": ["ok", "ok"]}),
        ])
        assert ds.origins_for("http") == ["A", "B"]
        presence = build_presence(ds, "http")
        assert presence.origins == ["A", "B"]
        # combo including the partial origin: packed == oracle.
        assert combo_mean_coverage(ds, "http", ["A", "C"]) == \
            oracle.combo_mean_coverage(ds, "http", ["A", "C"])
        assert summaries_as_tuples(multi_origin_table(ds, "http")) == \
            summaries_as_tuples(oracle.multi_origin_table(ds, "http"))
        # Per-trial tables still see C where it scanned.
        every = ["A", "B", "C"]
        assert table_as_tuple(coverage_table(ds, "http", origins=every)) \
            == table_as_tuple(oracle.coverage_table(ds, "http",
                                                    origins=every))

    def test_packed_trial_matches_boolean_algebra(self):
        ds = make_campaign([
            make_trial("http", 0, ["A", "B"], [10, 20, 30, 40, 50], l7={
                "A": ["ok", "none", "ok", "none", "ok"],
                "B": ["none", "ok", "ok", "none", "none"]}),
        ])
        table = ds.trial_data("http", 0)
        packed = PackedTrial.from_trial(table)
        truth = table.ground_truth()
        assert packed.total == int(truth.sum())
        assert np.array_equal(np.unpackbits(packed.truth, count=5),
                              truth.astype(np.uint8))
        rows = packed.rows_for(["A", "B"])
        count = int(packed.union_counts(rows[None, :])[0])
        union = (table.accessible("A") | table.accessible("B")) & truth
        assert count == int(union.sum())

    def test_align_ips_edges(self):
        universe = np.array([10, 20, 30], dtype=np.uint32)
        # Empty query / empty universe.
        assert align_ips(np.array([], dtype=np.uint32), universe).size == 0
        empty = align_ips(universe, np.array([], dtype=np.uint32))
        assert np.array_equal(empty, np.array([-1, -1, -1]))
        # Disjoint sets: no position resolves.
        pos = align_ips(universe, np.array([40, 50], dtype=np.uint32))
        assert np.array_equal(pos, np.array([-1, -1, -1]))
        # Partial overlap keeps order.
        pos = align_ips(universe, np.array([20, 40], dtype=np.uint32))
        assert np.array_equal(pos, np.array([-1, 0, -1]))
