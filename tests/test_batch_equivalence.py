"""Differential suite for the trial-batch kernel.

:mod:`repro.sim.batch` re-derives every per-cell draw as a lattice over
the trial axis, so its one non-negotiable contract is *byte identity*
with the unplanned oracle (``World.observe(..., plan=False)``) — same
``Observation`` columns, same campaign signatures across backends, same
streamed planes.  This suite pins that contract three ways:

* hypothesis property tests on the array-of-trials RNG helpers (the
  identity everything else rests on);
* cell-by-cell kernel differentials against the oracle — full and
  one-trial batches, late joiners, targets subsets, ZMap shard configs,
  and plane-only mode;
* end-to-end campaign/sharded differentials against ``planned=False``
  plus the job-granularity surface.
"""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.rng import (CounterRNG, keyed_bits_lattice, keyed_uniform_array,
                       keyed_uniform_lattice, stream_keys)
from repro.scanner.zmap import ZMapScanner
from repro.sim.batch import PlaneSlice, observe_trial_batch
from repro.sim.campaign import (build_trial_batches, run_campaign,
                                run_plane_campaign)
from repro.sim.scenario import paper_scenario, paper_sharded_scenario
from repro.sim.shard import run_sharded_campaign

SCALE = 0.02


def observation_bytes(obs):
    return (obs.protocol, obs.trial, obs.origin,
            obs.ip.tobytes(), obs.as_index.tobytes(),
            obs.country_index.tobytes(), obs.geo_index.tobytes(),
            obs.probe_mask.tobytes(), obs.l7.tobytes(), obs.time.tobytes())


def dataset_signature(dataset):
    return [
        (t.protocol, t.trial, tuple(t.origins),
         t.ip.tobytes(), t.as_index.tobytes(), t.country_index.tobytes(),
         t.geo_index.tobytes(), t.probe_mask.tobytes(), t.l7.tobytes(),
         t.time.tobytes())
        for t in sorted(dataset, key=lambda t: (t.protocol, t.trial))
    ]


def streaming_signature(result):
    """Planes + per-AS tallies of every streamed (protocol, trial)."""
    rows = []
    for (protocol, trial), streaming in sorted(result.trials.items()):
        packed = streaming.finish()
        rows.append((protocol, trial, tuple(packed.origins),
                     packed.packed.tobytes(),
                     streaming.truth_plane.tobytes(),
                     packed.total, packed.n_hosts,
                     streaming.truth_by_as.tobytes(),
                     streaming.seen_by_as.tobytes()))
    return rows


# ----------------------------------------------------------------------
# The RNG identity the whole kernel rests on
# ----------------------------------------------------------------------

suffix_lists = st.lists(
    st.tuples(st.text(min_size=0, max_size=6),
              st.integers(min_value=0, max_value=2 ** 31)),
    min_size=1, max_size=5)

counter_arrays = st.lists(
    st.integers(min_value=0, max_value=2 ** 40),
    min_size=0, max_size=40).map(lambda v: np.array(v, dtype=np.uint64))


class TestLatticeHelpers:
    @given(st.integers(min_value=0, max_value=2 ** 32), suffix_lists,
           counter_arrays)
    @settings(max_examples=100, deadline=None)
    def test_uniform_lattice_rows_match_derived_streams(
            self, seed, suffixes, counters):
        """Row *i* of the lattice is exactly the derived stream's array:
        ``rng.derive(*extra).uniform_array(counters)``, the per-cell
        spelling."""
        rng = CounterRNG(seed)
        keys = stream_keys(rng, suffixes)
        lattice = keyed_uniform_lattice(keys, counters)
        assert lattice.shape == (len(suffixes), len(counters))
        for i, extra in enumerate(suffixes):
            expected = rng.derive(*extra).uniform_array(counters)
            np.testing.assert_array_equal(lattice[i], expected)

    @given(st.integers(min_value=0, max_value=2 ** 32), suffix_lists,
           counter_arrays)
    @settings(max_examples=100, deadline=None)
    def test_bits_lattice_rows_match_derived_streams(
            self, seed, suffixes, counters):
        rng = CounterRNG(seed)
        keys = stream_keys(rng, suffixes)
        lattice = keyed_bits_lattice(keys, counters)
        for i, extra in enumerate(suffixes):
            expected = rng.derive(*extra).bits_array(counters)
            np.testing.assert_array_equal(lattice[i], expected)

    @given(st.integers(min_value=0, max_value=2 ** 32), counter_arrays)
    @settings(max_examples=50, deadline=None)
    def test_single_key_lattice_matches_keyed_array(self, seed, counters):
        rng = CounterRNG(seed)
        keys = stream_keys(rng, [("x", 7)])
        full = np.full(len(counters), keys[0], dtype=np.uint64)
        np.testing.assert_array_equal(
            keyed_uniform_lattice(keys, counters)[0],
            keyed_uniform_array(full, counters))


# ----------------------------------------------------------------------
# Kernel-level byte identity against the oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=(3, 17), ids=lambda s: f"seed{s}")
def small_world(request):
    return paper_scenario(seed=request.param, scale=SCALE)


def assert_matches_oracle(world, protocol, origin, trials, scanners,
                          names, first_trial=0, targets=None):
    """The full batch, and every one-trial batch, equal the oracle."""
    batched = observe_trial_batch(world, protocol, origin, trials,
                                  scanners, names, first_trial=first_trial,
                                  targets=targets)
    for trial, scanner, obs in zip(trials, scanners, batched):
        reference = observation_bytes(world.observe(
            protocol, trial, origin, scanner, names,
            first_trial=first_trial, targets=targets, plan=False))
        assert observation_bytes(obs) == reference
        single = observe_trial_batch(world, protocol, origin, (trial,),
                                     (scanner,), names,
                                     first_trial=first_trial,
                                     targets=targets)
        assert observation_bytes(single[0]) == reference


def trial_scanners(config, trials):
    return [ZMapScanner(dataclasses.replace(config, seed=config.seed + t))
            for t in trials]


class TestKernelEquivalence:
    def test_every_cell_byte_identical(self, small_world):
        """The headline guarantee: output element *i* of a batch — and of
        a one-trial batch — equals the oracle observation of
        ``trials[i]``, byte for byte, for every (protocol, origin) of the
        paper grid plus a late joiner (``first_trial=1``)."""
        world, origins, config = small_world
        late = dataclasses.replace(origins[0], name="LATE", trials=(1, 2))
        origins = tuple(origins) + (late,)
        names = tuple(o.name for o in origins)
        n_trials = 3
        jobs = build_trial_batches(origins, config,
                                   ("http", "https", "ssh"), n_trials)
        assert {j.first_trial for j in jobs if j.origin is late} == {1}
        for job in jobs:
            assert_matches_oracle(
                world, job.protocol, job.origin, job.trials,
                [ZMapScanner(c) for c in job.configs], names,
                first_trial=job.first_trial)

    def test_targets_subset_matches_per_cell(self, small_world):
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        view = world.hosts.for_protocol("http")
        targets = view.ip[::3].copy()
        trials = (0, 1, 2)
        assert_matches_oracle(world, "http", origins[0], trials,
                              trial_scanners(config, trials), names,
                              targets=targets)

    def test_zmap_shard_config_matches_per_cell(self, small_world):
        """ZMap-style sharded configs (n_shards/shard) flow through the
        shared eligibility mask unchanged."""
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        sharded = dataclasses.replace(config, n_shards=4, shard=1)
        trials = (0, 1)
        assert_matches_oracle(world, "https", origins[1], trials,
                              trial_scanners(sharded, trials), names)

    def test_plane_only_matches_observation_success(self, small_world):
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        from repro.core.records import L7Status
        origin = origins[0]
        trials = (0, 1, 2)
        scanners = [ZMapScanner(dataclasses.replace(config,
                                                    seed=config.seed + t))
                    for t in trials]
        planes = observe_trial_batch(world, "ssh", origin, trials,
                                     scanners, names, plane_only=True)
        full = observe_trial_batch(world, "ssh", origin, trials,
                                   scanners, names)
        for plane, obs in zip(planes, full):
            assert isinstance(plane, PlaneSlice)
            np.testing.assert_array_equal(plane.ip, obs.ip)
            np.testing.assert_array_equal(plane.as_index, obs.as_index)
            np.testing.assert_array_equal(
                plane.accessible, obs.l7 == L7Status.SUCCESS.value)

    def test_mismatched_configs_rejected(self, small_world):
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        scanners = [ZMapScanner(config),
                    ZMapScanner(dataclasses.replace(config, n_probes=1))]
        with pytest.raises(ValueError, match="differ only in their seed"):
            observe_trial_batch(world, "http", origins[0], (0, 1),
                                scanners, names)

    def test_scanner_count_mismatch_rejected(self, small_world):
        world, origins, config = small_world
        with pytest.raises(ValueError, match="one scanner per trial"):
            observe_trial_batch(world, "http", origins[0], (0, 1),
                                [ZMapScanner(config)],
                                tuple(o.name for o in origins))


# ----------------------------------------------------------------------
# Campaign-level equivalence and the metadata surface
# ----------------------------------------------------------------------

class TestCampaignEquivalence:
    def test_batched_matches_per_cell_across_backends(self, small_world):
        world, origins, config = small_world
        reference = run_campaign(world, origins, config, planned=False)
        assert "batch" not in reference.metadata
        for backend, workers in (("serial", None), ("thread", 4),
                                 ("process", 2)):
            batched = run_campaign(world, origins, config,
                                   executor=backend, workers=workers)
            assert dataset_signature(batched) == dataset_signature(reference)

    def test_batch_job_granularity(self, small_world):
        """One job per (protocol, origin), covering every grid cell."""
        world, origins, config = small_world
        protocols = ("http", "https", "ssh")
        batches = build_trial_batches(origins, config, protocols, 3)
        cells = sum(o.participates(t) for o in origins for t in range(3))
        assert len(batches) == len(protocols) * len(origins)
        assert sum(len(job.trials) for job in batches) \
            == len(protocols) * cells
        batched = run_campaign(world, origins, config)
        assert batched.metadata["execution"]["n_jobs"] == len(batches)

    def test_unplanned_campaign_is_never_batched(self, small_world):
        """``planned=False`` loops the oracle over each job's trials: no
        kernel stage runs, and the dataset equals the kernel's."""
        world, origins, config = small_world
        dataset = run_campaign(world, origins, config,
                               protocols=("http",), n_trials=1,
                               planned=False)
        assert dataset.metadata["execution"]["stages"] == {}
        kernel = run_campaign(world, origins, config,
                              protocols=("http",), n_trials=1)
        assert dataset_signature(dataset) == dataset_signature(kernel)


class TestShardedBatchEquivalence:
    @pytest.fixture(scope="class")
    def sharded_scenario(self):
        return paper_sharded_scenario(seed=5, scale=SCALE, n_shards=3)

    def test_streamed_planes_identical(self, sharded_scenario):
        """Plane-only kernel streaming reduces to the same packed planes
        and per-AS tallies as oracle streaming."""
        sharded, origins, config = sharded_scenario
        batched = run_sharded_campaign(sharded, origins, config,
                                       n_trials=2)
        reference = run_sharded_campaign(sharded, origins, config,
                                         n_trials=2, planned=False)
        assert "plane_cache" not in reference.metadata
        assert streaming_signature(batched) == streaming_signature(reference)

    def test_collected_dataset_matches_monolithic(self, sharded_scenario):
        sharded, origins, config = sharded_scenario
        collected = run_campaign(sharded, origins, config, n_trials=2)
        world, morigins, mconfig = paper_scenario(seed=5, scale=SCALE)
        mono = run_campaign(world, morigins, mconfig, n_trials=2,
                            planned=False)
        assert dataset_signature(collected) == dataset_signature(mono)

    def test_mono_and_sharded_planes_identical(self, sharded_scenario):
        """A monolithic world is a one-shard world: the plane campaign
        streams the same planes from it as from its sharded build."""
        sharded, origins, config = sharded_scenario
        streamed = run_plane_campaign(sharded, origins, config,
                                      n_trials=2, plane_cache=False)
        world, morigins, mconfig = paper_scenario(seed=5, scale=SCALE)
        mono = run_plane_campaign(world, morigins, mconfig, n_trials=2,
                                  plane_cache=False)
        assert "sharded" not in mono.metadata
        assert streaming_signature(mono) == streaming_signature(streamed)
