"""``full_report`` runs, and equals its oracle, on seeds 0–15.

The paper-shape benchmarks pin one seed; a report that crashes or drifts
from the boolean oracle (:mod:`repro.core.oracle`) on some other seed
would go unnoticed there.  Each seed simulates a small paper campaign
(all protocols, two trials) and renders the report twice: with the
packed analyses and with ``engine="reference"``.
"""

import pytest

from repro.core.engine import clear_context_cache
from repro.core.report import full_report
from repro.sim.campaign import run_campaign
from repro.sim.scenario import paper_scenario

SCALE = 0.02


@pytest.mark.parametrize("seed", range(16))
def test_full_report_equals_oracle(seed):
    world, origins, config = paper_scenario(seed=seed, scale=SCALE)
    dataset = run_campaign(world, origins, config, n_trials=2)
    try:
        packed = full_report(dataset)
        assert packed.strip()
        assert packed == full_report(dataset, engine="reference")
    finally:
        clear_context_cache()
