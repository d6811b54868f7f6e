"""The layer table: which program entry points make up which layer.

Each :class:`~ledger.Target` names one public function or method of a
``repro`` module by import path; :func:`per_layer` turns the ledger's
totals over a window into the per-layer metrics listed in
``BENCHMARK.json``.  The end-to-end metric each layer should move is
documented in README.md.

One private function is wrapped: ``repro.core.bootstrap._replicate_stats``,
because the streaming grid calls it directly, so no public bootstrap
function sits on that path.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List

from ledger import Ledger, Snapshot, Target


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------

def _per_object(ledger: Ledger, slot: str, obj, factory):
    """State attached to a live program object, dropped when it dies.

    Keyed by ``id`` with a weak reference, since program objects (plans,
    worlds, outage models) need not be hashable; the check on the stored
    reference stops a recycled ``id`` from inheriting a dead object's
    state.
    """
    table = ledger.state.setdefault(slot, {})
    key = id(obj)
    entry = table.get(key)
    if entry is None or entry[0]() is not obj:
        def drop(ref, key=key, table=table):
            if table.get(key, (None,))[0] is ref:
                del table[key]
        entry = (weakref.ref(obj, drop), factory(obj))
        table[key] = entry
    return entry[1]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _plan_compiled(ledger, args, kwargs, plan, start, end):
    # World.plan returns a memoized plan on a hit; a plan object seen
    # for the first time was compiled by this call.
    flag = _per_object(ledger, "plans", plan, lambda _p: [])
    if not flag:
        flag.append(True)
        ledger.add("plan.compile_n")


def _jobs(ledger, args, kwargs, result, start, end):
    ledger.add("executor.jobs_n", len(_arg(args, kwargs, 2, "jobs")))


def _set_world(ledger, args, kwargs):
    ledger._local.world = _arg(args, kwargs, 0, "world")


def _hosted_ases(world) -> frozenset:
    import numpy as np
    return frozenset(np.unique(world.hosts.as_index).tolist())


def _windows(ledger, args, kwargs, result, start, end):
    model = args[0]
    as_index = int(_arg(args, kwargs, 1, "as_index"))
    trial = int(_arg(args, kwargs, 3, "trial"))
    seen = _per_object(ledger, "windows", model, lambda _m: set())
    if (as_index, trial) in seen:
        return
    seen.add((as_index, trial))
    ledger.add("outages.windows_n")
    world = getattr(ledger._local, "world", None)
    if world is not None and as_index in _per_object(
            ledger, "hosted", world, _hosted_ases):
        ledger.add("outages.windows_useful")


def _replicates(ledger, args, kwargs, result, start, end):
    ledger.add("bootstrap.replicates_n",
               int(_arg(args, kwargs, 3, "replicates")))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _result_load(ledger, args, kwargs, entry, start, end):
    from repro.serve import resultcache
    ledger.add("resultcache.loads")
    if entry is not None:
        ledger.add("resultcache.hits")
        directory = args[1] if len(args) > 1 else kwargs.get("directory")
        ledger.add("resultcache.load_bytes", _size(
            resultcache.entry_path(args[0], directory)))


def _result_store(ledger, args, kwargs, path, start, end):
    ledger.add("resultcache.store_bytes", _size(path))


def _plane_probe(ledger, args, kwargs, plane, start, end):
    if plane is None:
        return
    from repro.serve import planecache
    session = args[0]
    ledger.add("planecache.hits")
    ledger.add("planecache.load_bytes", _size(planecache.entry_path(
        session.key_for(*args[1:], **kwargs), session.directory)))


def _plane_store(ledger, args, kwargs, path, start, end):
    ledger.add("planecache.store_bytes", _size(path))


def _request(ledger, args, kwargs, payload, start, end):
    # Kept per call so the load generator can subtract each request's
    # server-side compute from the latency its client saw.
    request = _arg(args, kwargs, 0, "request")
    ledger.state.setdefault("requests", []).append({
        "seed": request.seed, "report": request.report,
        "origins": list(request.origins) if request.origins else None,
        "start": start, "end": end,
        "source": getattr(payload, "source", None)})


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

def _t(module: str, attr: str, layer: str, **kw) -> Target:
    return Target("repro." + module, attr, layer, **kw)


_SECTIONS = {
    "coverage": [("core.coverage", "coverage_table")],
    "figure2": [("core.classification", "figure2_rows"),
                ("core.classification", "longterm_l4_breakdown")],
    "exclusivity": [("core.exclusivity", "exclusivity_report"),
                    ("core.exclusivity", "single_origin_longterm_share")],
    "transient": [("core.transient", "transient_overlap_histogram")],
    "drop": [("core.packet_loss", "drop_summary")],
    "bursts": [("core.bursts", "burst_report")],
    "ssh": [("core.ssh", "ssh_breakdown")],
    "multi_origin": [("core.multi_origin", "multi_origin_table")],
    "stats": [("core.stats", "pairwise_origin_tests"),
              ("core.stats", "bonferroni")],
    "slash24": [("core.slash24", "mean_agreement")],
    "timing": [("core.timing", "asynchrony_report"),
               ("core.timing", "diurnal_profile")],
}

TARGETS: List[Target] = [
    # Simulation
    _t("sim.scenario", "build_world_from_specs", "world.load",
       count="world.load_n"),
    _t("sim.shard", "build_sharded_world", "world.load",
       count="world.load_n"),
    _t("sim.world", "World.plan", "plan.compile", hook=_plan_compiled),
    _t("sim.world", "World.host_caches", "plan.compile"),
    _t("sim.executor", "Executor.run_grid", "executor.run_grid",
       hook=_jobs),
    _t("sim.batch", "observe_trial_batch", "observe.trial_batch",
       count="observe.trial_batch_n", enter=_set_world),
    _t("conditions.outages", "BurstOutageModel.windows", "outages.windows",
       hook=_windows),
    _t("conditions.outages", "BurstOutageModel.active_windows",
       "outages.active_windows"),
    _t("conditions.loss", "PathLossModel.delivered_lattice",
       "loss.delivered_lattice", count="loss.delivered_lattice_n"),
    _t("sim.shard", "ShardedWorld.shard_world", "shard.load",
       count="shard.load_n"),
    _t("sim.shard", "ShardedWorld.shard_hosts", "shard.load"),
    # Streaming reduction and the streamed grid analyses
    _t("core.streaming", "StreamingTrial.add_shard_planes",
       "streaming.add_planes", count="streaming.add_planes_n"),
    _t("core.streaming", "StreamingTrial.add_shard",
       "streaming.add_planes", count="streaming.add_planes_n"),
    _t("core.streaming", "StreamingCampaignResult.coverage_interval",
       "grid.coverage_interval"),
    _t("core.streaming", "StreamingCampaignResult.multi_origin_table",
       "grid.multi_origin"),
    _t("core.streaming", "StreamingCampaignResult.best_combination",
       "grid.best_combination"),
    _t("core.bootstrap", "_replicate_stats", "bootstrap.replicates",
       hook=_replicates),
    # Analysis
    _t("core.engine", "get_context", "analysis.context",
       count="analysis.context_n"),
    _t("core.engine", "AnalysisContext.presence", "analysis.context"),
    _t("core.engine", "AnalysisContext.classifications",
       "analysis.context"),
    _t("core.engine", "AnalysisContext.packed_trial", "analysis.context"),
    _t("core.classification", "Classification.network_split",
       "analysis.figure2", count="classification.network_split_n"),
    *[_t(module, attr, "analysis." + section)
      for section, entries in _SECTIONS.items()
      for module, attr in entries],
    _t("reporting.tables", "render_table", "render"),
    _t("reporting.figures", "render_bars", "render"),
    _t("reporting.figures", "render_grouped_bars", "render"),
    # Serving
    _t("serve.handlers", "run_request", "serve.run_request",
       hook=_request),
    _t("serve.handlers", "ServeState.world_for", "serve.world_for"),
    _t("serve.handlers", "ServeState.result_key", "serve.result_key"),
    _t("serve.resultcache", "load", "resultcache.load",
       hook=_result_load),
    _t("serve.resultcache", "store", "resultcache.store",
       hook=_result_store),
    _t("serve.planecache", "PlaneCacheSession.probe", "planecache.probe",
       count="planecache.probe_n", hook=_plane_probe),
    _t("serve.planecache", "PlaneCacheSession.store", "planecache.store",
       hook=_plane_store),
]

#: Layers reported as ``<layer>_s`` self time.
TIMED = sorted({t.layer for t in TARGETS})

#: Counters reported as they are.
COUNTED = [
    "world.load_n", "plan.compile_n", "executor.jobs_n",
    "observe.trial_batch_n", "outages.windows_n",
    "loss.delivered_lattice_n", "shard.load_n", "streaming.add_planes_n",
    "bootstrap.replicates_n", "analysis.context_n",
    "classification.network_split_n", "planecache.probe_n",
    "resultcache.load_bytes", "resultcache.store_bytes",
    "planecache.load_bytes", "planecache.store_bytes",
]

#: Ratios: name -> (numerator counter, denominator counter).
RATIOS = {
    "outages.useful_ratio": ("outages.windows_useful", "outages.windows_n"),
    "resultcache.hit_ratio": ("resultcache.hits", "resultcache.loads"),
    "planecache.hit_ratio": ("planecache.hits", "planecache.probe_n"),
}

#: Counts that must repeat exactly from one cold iteration to the next:
#: a difference means some in-process memo warmed the later iteration.
COLD_COUNTS = ["outages.windows_n", "plan.compile_n",
               "classification.network_split_n"]

#: Workload-level entries of the ledger, filled in by the runner.
EXTRA_TIMES = ["unattributed", "trace_overhead", "serve.overhead",
               "serve.overhead_hit", "serve.overhead_miss"]


def metric_names() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {f"{layer}_s": "s" for layer in TIMED + EXTRA_TIMES}
    names.update({name: "bytes" if name.endswith("_bytes") else "count"
                  for name in COUNTED})
    names.update({name: "ratio" for name in RATIOS})
    return names


def per_layer(window: Snapshot, divisor: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of one window, divided by ``divisor`` (the
    number of iterations it spans).  Layers that did not run read 0."""
    out: Dict[str, float] = {}
    for layer in TIMED:
        out[f"{layer}_s"] = window.self_s.get(layer, 0.0) / divisor
    for name in COUNTED:
        out[name] = window.counts.get(name, 0) / divisor
    for name, (num, den) in RATIOS.items():
        total = window.counts.get(den, 0)
        out[name] = window.counts.get(num, 0) / total if total else 0.0
    return out
