"""Differential planned-vs-unplanned observation equivalence tests.

The compiled observation plan (:mod:`repro.sim.plan`) is pure
acceleration: ``World.observe(...)`` (the default: the compiled kernel
over a one-trial batch) must be *byte-identical* to
``World.observe(..., plan=False)`` (the unplanned oracle) in every
:class:`~repro.sim.world.Observation` field.  These tests pin that
guarantee differentially across seeds, origins, trial positions
(including late-join ``first_trial``), sharded configs, ``targets=``
subsets, and the campaign/executor layers (including plans crossing the
process-pool pickle boundary).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.blocking.ids import RateIDSSpec
from repro.origins import Origin
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.campaign import build_trial_batches, run_campaign
from repro.sim.plan import ObservationPlan, ObserveProfile, STAGES
from repro.sim.scenario import build_world_from_specs, paper_scenario
from repro.sim.world import Observation, WorldDefaults
from repro.telemetry import Telemetry
from repro.topology.asn import ASKind, ASSpec


def signature(dataset):
    """The byte-exact content of every trial table, in a comparable form."""
    return [
        (t.protocol, t.trial, tuple(t.origins),
         t.ip.tobytes(), t.as_index.tobytes(), t.country_index.tobytes(),
         t.geo_index.tobytes(), t.probe_mask.tobytes(), t.l7.tobytes(),
         t.time.tobytes())
        for t in sorted(dataset, key=lambda t: (t.protocol, t.trial))
    ]


#: Small but fully featured world: every named behaviour is present.
SCALE = 0.02

SEEDS = (3, 17, 29)

FIELDS = ("ip", "as_index", "country_index", "geo_index", "probe_mask",
          "l7", "time")


def obs_signature(obs: Observation):
    """Byte-exact content of one observation."""
    return tuple(getattr(obs, f).tobytes() for f in FIELDS)


def assert_identical(a: Observation, b: Observation):
    for field in FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert np.array_equal(x, y), (
            f"planned/unplanned mismatch in {field} "
            f"({a.protocol}, trial {a.trial}, {a.origin})")


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def scenario(request):
    return paper_scenario(seed=request.param, scale=SCALE)


class TestObserveEquivalence:
    def test_full_grid_byte_identical(self, scenario):
        """Every (protocol, trial, origin) cell, planned vs unplanned."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        for protocol in ("http", "https", "ssh"):
            for trial in range(3):
                trial_config = dataclasses.replace(
                    config, seed=config.seed + trial)
                scanner = ZMapScanner(trial_config)
                for origin in origins:
                    if not origin.participates(trial):
                        continue
                    unplanned = world.observe(
                        protocol, trial, origin, scanner, names,
                        plan=False)
                    planned = world.observe(
                        protocol, trial, origin, scanner, names)
                    assert_identical(unplanned, planned)

    def test_targets_subset_byte_identical(self, scenario):
        """The §6 targeted-rescan path through the plan."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        view = world.hosts.for_protocol("http")
        rng = np.random.default_rng(7)
        for size in (0, 1, 100, len(view.ip) // 3):
            targets = rng.choice(view.ip, size=size, replace=False) \
                if size else np.array([], dtype=np.uint32)
            # Salt with addresses that are not in the view at all.
            targets = np.concatenate(
                [targets.astype(np.uint32),
                 np.array([1, 2 ** 32 - 2], dtype=np.uint32)])
            for origin in origins[:2]:
                unplanned = world.observe(
                    "http", 0, origin, scanner, names,
                    targets=targets, plan=False)
                planned = world.observe(
                    "http", 0, origin, scanner, names, targets=targets)
                assert_identical(unplanned, planned)

    def test_sharded_config_byte_identical(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        for n_shards, shard in ((2, 1), (4, 0)):
            sharded = ZMapScanner(dataclasses.replace(
                config, n_shards=n_shards, shard=shard))
            unplanned = world.observe("https", 1, origins[0], sharded,
                                      names, plan=False)
            planned = world.observe("https", 1, origins[0], sharded, names)
            assert_identical(unplanned, planned)

    def test_late_join_first_trial_byte_identical(self):
        """first_trial routing through compiled IDS entries.

        The IDS world distinguishes first_trial values byte-visibly
        (see test_executor_equivalence), so this would catch a plan that
        compiled away the trial-position logic.
        """
        specs = [
            ASSpec("IDS Net", "US", ASKind.HOSTING, hosts={"http": 60},
                   rate_ids=RateIDSSpec(per_ip_rate_threshold=1e-9,
                                        detection_delay_mean_s=200_000.0)),
            ASSpec("Plain Net", "DE", ASKind.ISP, hosts={"http": 60}),
        ]
        world = build_world_from_specs(specs, seed=5,
                                       defaults=WorldDefaults())
        origins = (Origin("BASE", "US", "NA"),
                   Origin("LATE", "US", "NA", trials=(1, 2)))
        names = tuple(o.name for o in origins)
        config = ZMapConfig(seed=5, pps=100_000.0, n_probes=2)
        for trial in range(3):
            scanner = ZMapScanner(dataclasses.replace(
                config, seed=config.seed + trial))
            for origin in origins:
                if not origin.participates(trial):
                    continue
                first = 1 if origin.name == "LATE" else 0
                unplanned = world.observe("http", trial, origin, scanner,
                                          names, first_trial=first,
                                          plan=False)
                planned = world.observe("http", trial, origin, scanner,
                                        names, first_trial=first)
                assert_identical(unplanned, planned)


class TestPlanCaching:
    def test_plan_is_cached_per_config(self, scenario):
        world, origins, config = scenario
        scanner = ZMapScanner(config)
        assert world.plan("http", scanner) is world.plan("http", scanner)
        # An equal config built independently hits the same cache entry.
        twin = ZMapScanner(dataclasses.replace(config))
        assert world.plan("http", twin) is world.plan("http", scanner)
        # A different seed is a different schedule → different plan.
        other = ZMapScanner(dataclasses.replace(config,
                                                seed=config.seed + 1))
        assert world.plan("http", other) is not world.plan("http", scanner)

    def test_plan_pickle_round_trip(self, scenario):
        """Plans are plain data; a pickled copy observes identically."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        plan = world.plan("http", scanner)
        copy = pickle.loads(pickle.dumps(plan))
        assert isinstance(copy, ObservationPlan)
        a = world.observe("http", 0, origins[0], scanner, names)
        key = ("http", scanner.config)
        world._plans[key] = copy
        try:
            assert world.plan("http", scanner) is copy
            b = world.observe("http", 0, origins[0], scanner, names)
        finally:
            world._plans[key] = plan
        assert_identical(a, b)

    def test_world_pickle_drops_and_rebuilds_plans(self, scenario):
        """The process-executor payload carries no plans; workers rebuild
        them identically (every draw is counter-addressed)."""
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        world.plan("http", scanner)   # populate the cache
        clone = pickle.loads(pickle.dumps(world))
        assert clone._plans == {}
        a = world.observe("http", 1, origins[1], scanner, names)
        b = clone.observe("http", 1, origins[1], scanner, names)
        assert_identical(a, b)


class TestCampaignEquivalence:
    def test_campaign_planned_matches_unplanned(self, scenario):
        world, origins, config = scenario
        planned = run_campaign(world, origins, config, executor="serial")
        unplanned = run_campaign(world, origins, config,
                                 executor="serial", planned=False)
        assert signature(planned) == signature(unplanned)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_campaign_planned_across_backends(self, scenario, backend):
        """Plans cross (or are rebuilt behind) the worker boundary without
        perturbing a single byte."""
        world, origins, config = scenario
        serial_unplanned = run_campaign(world, origins, config,
                                        protocols=("http", "ssh"),
                                        executor="serial", planned=False)
        parallel_planned = run_campaign(world, origins, config,
                                        protocols=("http", "ssh"),
                                        executor=backend, workers=2)
        assert signature(serial_unplanned) == signature(parallel_planned)

    def test_grid_carries_planned_flag(self, scenario):
        world, origins, config = scenario
        default = build_trial_batches(origins, config, ("http",), 2)
        assert all(job.planned for job in default)


class TestTelemetryEquivalence:
    """Telemetry is pure observation: instrumented and uninstrumented
    runs are byte-identical, planned or not, and the telemetry the two
    paths emit agrees on everything the determinism contract covers."""

    def test_telemetry_does_not_perturb_observation(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        for plan_arg in (True, False):
            bare = world.observe("http", 0, origins[0], scanner, names,
                                 plan=plan_arg)
            with Telemetry():
                instrumented = world.observe("http", 0, origins[0],
                                             scanner, names,
                                             plan=plan_arg)
            assert_identical(bare, instrumented)

    def test_campaign_telemetry_does_not_perturb_dataset(self, scenario):
        world, origins, config = scenario
        bare = run_campaign(world, origins, config, protocols=("http",),
                            n_trials=2)
        with Telemetry() as tel:
            instrumented = run_campaign(world, origins, config,
                                        protocols=("http",), n_trials=2,
                                        telemetry=tel)
        assert signature(bare) == signature(instrumented)

    def test_planned_and_unplanned_agree_on_observe_counters(
            self, scenario):
        """Only the kernel carries interior instrumentation (stage spans,
        per-cause blocked-host counts), but the observation-level
        counters both paths emit must agree exactly — they describe the
        byte-identical output, not the implementation."""
        world, origins, config = scenario
        shared = ("observe.calls", "observe.services",
                  "observe.probes_sent")

        def counters(planned):
            with Telemetry() as tel:
                run_campaign(world, origins, config, protocols=("http",),
                             n_trials=2, planned=planned, telemetry=tel)
            return {key: value
                    for key, value in tel.counters.totals().items()
                    if key[0] in shared}

        planned = counters(True)
        assert {name for name, _ in planned} == set(shared)
        assert planned == counters(False)

    def test_stage_spans_only_on_planned_path(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)

        def stage_spans(plan_arg):
            with Telemetry() as tel:
                world.observe("http", 0, origins[0], scanner, names,
                              plan=plan_arg)
            return [r["name"] for r in tel.records
                    if r["t"] == "span"
                    and r["name"].startswith("observe.")]

        assert set(stage_spans(True)) == {
            f"observe.batched.{s}" for s in STAGES}
        assert stage_spans(False) == []
        reference = build_trial_batches(origins, config, ("http",), 2,
                                        planned=False)
        assert not any(job.planned for job in reference)


class TestProfileMetadata:
    def test_execution_metadata_records_stages(self, scenario):
        world, origins, config = scenario
        dataset = run_campaign(world, origins, config,
                               protocols=("http",), n_trials=2)
        stages = dataset.metadata["execution"]["stages"]
        assert set(stages) == set(STAGES)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_unplanned_campaign_has_no_stages(self, scenario):
        world, origins, config = scenario
        dataset = run_campaign(world, origins, config,
                               protocols=("http",), n_trials=1,
                               planned=False)
        assert dataset.metadata["execution"]["stages"] == {}

    def test_observe_fills_caller_profile(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        scanner = ZMapScanner(config)
        profile = ObserveProfile()
        world.observe("http", 0, origins[0], scanner, names,
                      profile=profile)
        assert profile.n_observations == 1
        assert set(profile.stage_s) == set(STAGES)
        assert profile.total_s > 0.0
        rendered = profile.render()
        for stage in STAGES:
            assert stage in rendered

    def test_caller_profile_accumulates(self, scenario):
        world, origins, config = scenario
        names = tuple(o.name for o in origins)
        profile = ObserveProfile()
        world.observe("https", 0, origins[0], ZMapScanner(config), names,
                      profile=profile)
        world.observe("https", 1, origins[0], ZMapScanner(
            dataclasses.replace(config, seed=config.seed + 1)), names,
            profile=profile)
        assert profile.n_observations == 2
        assert profile.stage_calls["filter"] == 2
