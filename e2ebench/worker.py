"""The measuring process of the ``pipeline`` and ``sharded-grid`` workloads.

Launched by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports the
program, builds the workload's world from the warm on-disk cache, prints
``READY <json>`` and waits for one line on stdin: ``exit`` ends a set-up
launch, ``go`` starts the measurement.  The measurement prints
``RESULT <json>`` with the phase intervals and output checks; ``run.py``
turns those into host-normalised metrics with the probe's samples.

``--mode warm`` is the discarded launch: it fills the world and shard
caches for the seed and exits without waiting.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

N_TRIALS = 3
N_SHARDS = 8
#: Traced runs time one untraced iteration, then this many traced ones.
TRACED_ITERATIONS = 2
#: Repeat queries after the iterations: enough that the 95th percentile
#: has 15 samples beyond it.
REPEATS = 300


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plane_digest(result) -> str:
    """SHA-256 over every accumulated plane and per-AS count."""
    h = hashlib.sha256()
    for key in sorted(result.trials):
        acc = result.trials[key]
        packed = acc.finish()
        h.update(repr((key, packed.origins, packed.total,
                       packed.n_hosts)).encode())
        for array in (packed.packed, acc.truth_plane, acc.truth_by_as,
                      acc.seen_by_as):
            h.update(array.tobytes())
    return h.hexdigest()


def grid_summary(result) -> list:
    """Table 4 and the best 2-origin pair of every protocol of a streamed
    result.  (Table 4 alone takes under 1 ms here, too short to time
    against the probe's 1 ms samples.)"""
    return [[p, result.coverage_table(p).rows(),
             list(result.best_combination(p, 2))]
            for p in result.protocols()]


class Pipeline:
    """World load → cold ``run_campaign`` → ``full_report``; the repeat
    query is the Table 4 coverage of the finished campaign."""

    def __init__(self, seed: int, work: str) -> None:
        from repro.core import coverage, engine, report
        from repro.sim import campaign, scenario
        self.seed = seed
        self.coverage, self.engine, self.report = coverage, engine, report
        self.campaign, self.scenario = campaign, scenario
        self.last = None

    def setup(self, warm: bool) -> None:
        self.scenario.paper_scenario(seed=self.seed)

    def warm_up(self) -> None:
        # The first campaign in a process ran 10-15 % slower than the
        # next in 9 of 9 runs on a 2-vCPU host; one untimed campaign on
        # its own World puts both timed iterations in the same state.  No
        # memo carries over: each iteration loads a fresh World.
        self.first()

    def prepare(self) -> None:
        self.engine.clear_context_cache()
        self.last = None
        gc.collect()

    def first(self):
        world, origins, config = self.scenario.paper_scenario(seed=self.seed)
        return self.campaign.run_campaign(
            world, origins, config, n_trials=N_TRIALS, executor="serial")

    def second(self, dataset):
        self.engine.clear_context_cache()
        return self.report.full_report(dataset)

    def output(self, dataset, text):
        self.last = dataset
        return _sha(text)

    def query(self) -> list:
        return [[p, self.coverage.coverage_table(self.last, p).rows()]
                for p in self.last.protocols]

    def check(self, outputs, queries) -> list:
        """Every report equals the reference engine's report of the last
        dataset; every repeat query equals the first."""
        self.engine.clear_context_cache()
        reference = _sha(self.report.full_report(self.last,
                                                 engine="reference"))
        failures = [f"iteration {i}: report sha {out[:12]} != reference "
                    f"{reference[:12]}"
                    for i, out in enumerate(outputs) if out != reference]
        if any(q != queries[0] for q in queries):
            failures.append("repeat queries disagree")
        return failures


class ShardedGrid:
    """Sharded scenario → streamed plane-only grid → streamed report; the
    repeat query is :func:`grid_summary`."""

    def __init__(self, seed: int, work: str) -> None:
        from repro.core import engine
        from repro.sim import campaign, scenario, shard
        self.seed, self.work = seed, work
        self.engine, self.campaign = engine, campaign
        self.scenario, self.shard = scenario, shard
        self.n = 0
        self.last = None

    def setup(self, warm: bool) -> None:
        sharded, _, _ = self.scenario.paper_sharded_scenario(
            seed=self.seed, n_shards=N_SHARDS)
        if warm:
            for index in range(sharded.n_shards):
                sharded.shard_hosts(index)
            self.scenario.paper_scenario(seed=self.seed)

    def warm_up(self) -> None:
        """Nothing: the stream showed no first-iteration slowdown, and an
        untimed stream would cost a third of the run."""

    def prepare(self) -> None:
        self.engine.clear_context_cache()
        self.last = None
        gc.collect()
        self.plane_dir = os.path.join(self.work, f"planes-{self.n}")
        self.n += 1

    def first(self):
        sharded, origins, config = self.scenario.paper_sharded_scenario(
            seed=self.seed, n_shards=N_SHARDS)
        return self.shard.run_sharded_campaign(
            sharded, origins, config, n_trials=N_TRIALS, executor="serial",
            plane_cache=True, plane_dir=self.plane_dir)

    def second(self, result):
        self.engine.clear_context_cache()
        return result.report()

    def output(self, result, grid):
        shutil.rmtree(self.plane_dir, ignore_errors=True)
        self.last = result
        return (plane_digest(result),
                _sha(json.dumps(grid, sort_keys=True, default=str)))

    def query(self) -> list:
        return grid_summary(self.last)

    def check(self, outputs, queries) -> list:
        """Every plane digest and repeat query equals the monolithic
        campaign's with the plane cache off; every grid report equals
        the first."""
        world, origins, config = self.scenario.paper_scenario(seed=self.seed)
        mono = self.campaign.run_plane_campaign(
            world, origins, config, n_trials=N_TRIALS, executor="serial",
            plane_cache=False)
        digest = plane_digest(mono)
        expected = grid_summary(mono)
        failures = []
        for i, (out, report_sha) in enumerate(outputs):
            if out != digest:
                failures.append(f"iteration {i}: plane digest {out[:12]} "
                                f"!= monolithic {digest[:12]}")
            if report_sha != outputs[0][1]:
                failures.append(f"iteration {i}: grid report differs "
                                "from iteration 0")
        if any(q != expected for q in queries):
            failures.append("repeat queries differ from the monolithic "
                            "campaign's")
        return failures


WORKLOADS = {"pipeline": Pipeline, "sharded-grid": ShardedGrid}


def _another(args, attempted: int, phases: list, start: float) -> bool:
    """Whether to run one more iteration: two at least, then while the
    next (as long as the last) still ends within ``--seconds``; a traced
    run makes one untraced and :data:`TRACED_ITERATIONS` traced ones."""
    if args.trace:
        return attempted < 1 + TRACED_ITERATIONS
    if attempted < 2:
        return True
    if not phases:
        return False
    last = phases[-1][1][1] - phases[-1][0][0]
    return time.perf_counter() - start + last <= args.seconds


def measure(runner, args) -> dict:
    """Timed iterations of two phases each, the repeat queries, then the
    output checks.

    An exception the program raises fails that iteration: it is recorded
    and counted, and the run goes on with the next iteration."""
    phases, outputs, windows, failures = [], [], [], []
    ledger = None
    attempted = 0
    try:
        runner.warm_up()
    except Exception as error:  # noqa: BLE001 - the program failed
        failures.append(f"warm-up: {type(error).__name__}: {error}")
    start = time.perf_counter()
    while _another(args, attempted, phases, start):
        if args.trace and attempted == 1:
            ledger = _install_ledger()
        runner.prepare()
        before = ledger.snapshot() if ledger else None
        attempted += 1
        try:
            a = time.perf_counter()
            state = runner.first()
            mid = time.perf_counter()
            result = runner.second(state)
            b = time.perf_counter()
        except Exception as error:  # noqa: BLE001 - the program failed
            failures.append(f"iteration {attempted - 1}: "
                            f"{type(error).__name__}: {error}")
            continue
        if ledger:
            windows.append({"window": ledger.snapshot().minus(before),
                            "region": [(a, mid), (mid, b)],
                            "top": ledger.top_within(a, b)})
        outputs.append(runner.output(state, result))
        phases.append([(a, mid), (mid, b)])
        del state, result
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    queries, answers = [], []
    if outputs:
        try:
            for _ in range(REPEATS):
                q0 = time.perf_counter()
                answers.append(runner.query())
                queries.append((q0, time.perf_counter()))
            failures += runner.check(outputs, answers)
        except Exception as error:  # noqa: BLE001 - the program failed
            failures.append(f"{type(error).__name__}: {error}")
    record = {"attempted": attempted + len(queries), "phases": phases,
              "queries": queries, "peak_rss_kib": peak_rss_kib,
              "failures": failures}
    if len(windows) == TRACED_ITERATIONS:
        record["ledger"] = _ledger_record(ledger, windows)
    return record


def _install_ledger():
    import layers
    from ledger import Ledger
    ledger = Ledger()
    ledger.install(layers.TARGETS, package="repro")
    return ledger


def _ledger_record(ledger, windows) -> dict:
    """Per-iteration means over the traced iterations, plus the counts
    the cold-state check compares."""
    import layers
    from ledger import unattributed
    per_iteration = [layers.per_layer(w["window"]) for w in windows]
    metrics = layers.per_layer(
        functools.reduce(lambda x, y: x.plus(y),
                         (w["window"] for w in windows)),
        divisor=len(windows))
    metrics["unattributed_s"] = statistics.mean(
        unattributed(w["region"], w["top"]) for w in windows)
    return {"metrics": metrics,
            "cold_counts": {name: [it[name] for it in per_iteration]
                            for name in layers.COLD_COUNTS},
            "installed": ledger.installed, "absent": ledger.absent,
            "hook_errors": ledger.counts.get("ledger.hook_errors", 0)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("warm", "measure"),
                        default="measure")
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    runner = WORKLOADS[args.workload](args.seed, args.work)
    t_import = time.perf_counter()
    runner.setup(warm=args.mode == "warm")
    t_world = time.perf_counter()
    if args.mode == "warm":
        return 0
    print("READY " + json.dumps({"import_s": t_import - _T0,
                                 "world_s": t_world - t_import}),
          flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    print("RESULT " + json.dumps(measure(runner, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
