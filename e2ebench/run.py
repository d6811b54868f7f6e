"""End-to-end benchmark of the simulate, shard and serve paths.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload pipeline --seed 1 --seconds 20 \\
        --trace 0 --k-ref 0.0012

Workloads: ``pipeline``, ``sharded-grid``, ``serve-mix`` (README.md says
why each exists and what it exercises).  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` prints the per-layer ledger.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (raw walls, probe summary, set-up split, check failures).

Every time is reported in host-normalised seconds: raw wall ×
``k_ref / k``, where ``k`` is the probe kernels' time on the same CPU
while the interval ran (probe.py).

All state lives under the checkout: ``.bench_cache`` (the warm world and
shard caches, kept between runs) and ``.bench_work`` (per run, removed at
exit).  Exits 2 without a result where there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import probe  # noqa: E402
import serve_mix  # noqa: E402
from ledger import Snapshot, unattributed  # noqa: E402

WORKLOADS = ("pipeline", "sharded-grid", "serve-mix")
#: Timed set-up launches per untraced run; the median is reported.
SETUP_LAUNCHES = 3
#: Every run must end within this many seconds of starting.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mib": "MiB", "cold_s": "s",
    "stage1_s": "s", "stage2_s": "s",
    "repeat_p50_ms": "ms", "repeat_p95_ms": "ms", "repeat_rps": "1/s",
}
#: Every workload reports every end-to-end metric, so each maps its own
#: operations onto the shared names: (stage1_s, stage2_s, cold_s, the
#: prefix of the repeat_* metrics).  The run record keeps the values
#: under these workload names too.
ROLES = {
    "pipeline": ("campaign_s", "report_s", "iteration_s", "coverage"),
    "sharded-grid": ("shard_stream_s", "grid_report_s", "iteration_s",
                     "summary"),
    "serve-mix": ("grid_miss_p50_s", "add_origin_p50_s", "miss_p50_s",
                  "hit"),
}

Interval = Tuple[float, float]


class BenchError(RuntimeError):
    pass


class Run:
    """One invocation: environment, deadline, probe and child processes."""

    def __init__(self, args) -> None:
        self.args = args
        self.root = os.getcwd()
        self.started = time.perf_counter()
        cache = os.path.join(self.root, ".bench_cache")
        os.makedirs(os.path.join(self.root, ".bench_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(
            dir=os.path.join(self.root, ".bench_work"))
        src = os.path.join(self.root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.pathsep.join(
                [src, HERE] + ([path] if path else [])),
            "REPRO_CACHE_DIR": os.path.join(cache, "worlds"),
            "REPRO_RESULT_CACHE_DIR": os.path.join(self.work, "results"),
            "REPRO_PLANE_CACHE_DIR": os.path.join(self.work, "planes"),
            "XDG_CACHE_HOME": os.path.join(cache, "xdg"),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        for name in ("REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_BATCH",
                     "REPRO_PLANE_CACHE", "REPRO_RESULT_CACHE",
                     "REPRO_WORLD_CACHE", "REPRO_ANALYSIS_ENGINE",
                     "REPRO_CACHE_MAX_BYTES", "REPRO_MEMORY_BUDGET"):
            self.env.pop(name, None)
        self.children: List[subprocess.Popen] = []
        # Everything this run starts inherits the pin, so the probe and
        # the measured processes share one CPU and see the same host.
        self.cpu = min(os.sched_getaffinity(0))
        probe.pin(self.cpu)
        self.probe_out = os.path.join(self.work, "probe.txt")
        self.timeline: Optional[probe.Timeline] = None
        try:
            self.probe = self.spawn([os.path.join(HERE, "probe.py"),
                                     "--out", self.probe_out,
                                     "--cpu", str(self.cpu)])
            _read_tagged(self.probe, "READY")
        except BaseException:
            self.close()
            raise

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("run exceeded its deadline")
        return left

    def spawn(self, argv: List[str], **env: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=self.root,
            env={**self.env, **env},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.children.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen) -> None:
        proc.wait(timeout=self.remaining())
        self.children.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"{proc.args[1]} exited {proc.returncode}")

    def stop(self, proc: subprocess.Popen) -> None:
        proc.send_signal(signal.SIGTERM)
        self.wait(proc)

    def stop_probe(self) -> None:
        self.stop(self.probe)
        self.timeline = probe.Timeline.load(self.probe_out)

    def close(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.children.clear()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- host normalisation ---------------------------------------------

    def factor(self) -> float:
        """``k_ref / k_run`` over the whole run (for ledger totals)."""
        return self.args.k_ref / self.timeline.median()

    def normalised(self, start: float, end: float) -> float:
        """An interval's wall time in host-normalised seconds."""
        return (end - start) * self.args.k_ref \
            / self.timeline.during(start, end)

    def normalised_median(self, intervals: Sequence[Interval]) -> float:
        return statistics.median(self.normalised(a, b)
                                 for a, b in intervals)


def _read_tagged(proc: subprocess.Popen, tag: str) -> str:
    """The rest of the first stdout line whose first word is ``tag``."""
    for line in proc.stdout:
        head, _, rest = line.rstrip("\n").partition(" ")
        if head == tag:
            return rest
    raise BenchError(f"{proc.args[1]} ended before printing {tag}")


# ----------------------------------------------------------------------
# pipeline and sharded-grid: the measuring process is a worker.py
# ----------------------------------------------------------------------

def run_worker(run: Run) -> dict:
    args = run.args
    base = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", run.work]
    # Discarded launch: compiles bytecode, fills the page cache and the
    # seed's world/shard caches, so set-up is timed warm on every commit.
    run.wait(run.spawn(base + ["--mode", "warm"]))

    setups, splits = [], []
    launches = 1 if args.trace else SETUP_LAUNCHES
    for i in range(launches):
        t0 = time.perf_counter()
        proc = run.spawn(base)
        splits.append(json.loads(_read_tagged(proc, "READY")))
        setups.append((t0, time.perf_counter()))
        last = i == launches - 1
        proc.stdin.write("go\n" if last else "exit\n")
        proc.stdin.flush()
        if not last:
            run.wait(proc)
    result = json.loads(_read_tagged(proc, "RESULT"))
    run.wait(proc)
    run.stop_probe()

    phases = result["phases"]
    record = {"setup_raw_s": [b - a for a, b in setups],
              "setup_split": splits,
              "phase_raw_s": [[b - a for a, b in p] for p in phases],
              "phase_norm_s": [[run.normalised(a, b) for a, b in p]
                               for p in phases],
              "failures": result["failures"]}
    out = {"attempted": result["attempted"], "record": record}
    if "ledger" in result:
        ledger = result["ledger"]
        out["metrics"] = _normalise_ledger(run, ledger["metrics"])
        # Iteration 0 ran before the ledger was installed.
        walls = [sum(row) for row in record["phase_norm_s"]]
        out["metrics"]["trace_overhead_s"] = \
            statistics.median(walls[1:]) - walls[0]
        cold = ledger["cold_counts"]
        record.update({"cold_counts": cold, "absent": ledger["absent"],
                       "hook_errors": ledger["hook_errors"]})
        for name, values in cold.items():
            if len(set(values)) != 1:
                record["failures"].append(
                    f"cold-state check: {name} differs between "
                    f"iterations: {values}")
    elif not args.trace and phases:
        stage1, stage2, cold, repeat = ROLES[args.workload]
        own = {stage1: run.normalised_median([p[0] for p in phases]),
               stage2: run.normalised_median([p[1] for p in phases]),
               cold: run.normalised_median([(p[0][0], p[1][1])
                                            for p in phases])}
        queries = result["queries"]
        if queries:
            own.update(_repeat_stats(run, repeat, queries))
        record["workload_metrics"] = own
        out["metrics"] = _shared_names(run, own, setups,
                                       result["peak_rss_kib"])
    else:
        out["metrics"] = {}
    out["failed"] = min(out["attempted"], len(record["failures"]))
    return out


def _repeat_stats(run: Run, prefix: str, intervals: Sequence[Interval]
                  ) -> Dict[str, float]:
    """Median, 95th percentile and rate of a closed-loop run of repeat
    operations."""
    ms = [1e3 * run.normalised(a, b) for a, b in intervals]
    span = run.normalised(min(a for a, _ in intervals),
                          max(b for _, b in intervals))
    return {f"{prefix}_p50_ms": statistics.median(ms),
            f"{prefix}_p95_ms": statistics.quantiles(ms, n=20)[18],
            f"{prefix}_rps": len(ms) / span}


def _shared_names(run: Run, own: Dict[str, float], setups, rss_kib: int
                  ) -> Dict[str, float]:
    """The end-to-end metrics under their shared names, from ``own``
    (the workload's names)."""
    stage1, stage2, cold, repeat = ROLES[run.args.workload]
    shared = {"setup_s": run.normalised_median(setups),
              "peak_rss_mib": rss_kib / 1024,
              "stage1_s": own.get(stage1), "stage2_s": own.get(stage2),
              "cold_s": own.get(cold)}
    for stat in ("p50_ms", "p95_ms", "rps"):
        shared[f"repeat_{stat}"] = own.get(f"{repeat}_{stat}")
    return {k: v for k, v in shared.items() if v is not None}


def _normalise_ledger(run: Run, metrics: Dict[str, float]
                      ) -> Dict[str, float]:
    """Every per-layer metric (0 for layers that did not run), times
    scaled by the whole run's factor."""
    f = run.factor()
    full = {name: 0.0 for name in layers.metric_names()}
    full.update(metrics)
    return {k: v * f if k.endswith("_s") else v for k, v in full.items()}


# ----------------------------------------------------------------------
# serve-mix: this process is the load generator
# ----------------------------------------------------------------------

def _start_server(run: Run, trace: bool, out_path: str):
    # Every cache tier of the server, worlds included, starts empty in
    # every run, so a miss is a miss on every run of every seed.
    cache = os.path.join(run.work, "serve-cache")
    t0 = time.perf_counter()
    proc = run.spawn([os.path.join(HERE, "serve_main.py"),
                      "--cache-dir", cache, "--out", out_path,
                      "--trace", str(int(trace))],
                     REPRO_CACHE_DIR=os.path.join(cache, "worlds"))
    port_text, split = _read_tagged(proc, "PORT").split(" ", 1)
    # Keep reading: a server that logs to stdout must never block on a
    # full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    client = serve_mix.Client(int(port_text))
    while True:
        try:
            if json.loads(client.get("/healthz")).get("status") == "ok":
                break
        except (OSError, RuntimeError, ValueError):
            pass
        run.remaining()
        time.sleep(0.005)
    return proc, int(port_text), (t0, time.perf_counter()), json.loads(split)


def run_serve(run: Run) -> dict:
    args = run.args
    out_path = os.path.join(run.work, "server.json")
    proc, _, _, _ = _start_server(run, False, out_path)  # discarded
    run.stop(proc)

    setups, splits = [], []
    launches = 1 if args.trace else SETUP_LAUNCHES
    for i in range(launches):
        last = i == launches - 1
        proc, port, ready, split = _start_server(
            run, bool(args.trace) and last, out_path)
        setups.append(ready)
        splits.append(split)
        if not last:
            run.stop(proc)

    result = serve_mix.run(port, args.seed)
    run.stop(proc)
    run.stop_probe()
    with open(out_path) as handle:
        server = json.load(handle)

    calls = result["calls"]
    bad_calls = sum(c.status != 200 for c in calls)
    record = {"setup_raw_s": [b - a for a, b in setups],
              "setup_split": splits, "failures": result["failures"],
              "miss_raw_s": {kind: [c.latency for c in calls
                                    if c.kind == kind]
                             for kind in ("full", "grid", "add")}}
    out = {"attempted": len(calls),
           "failed": min(len(calls),
                         max(bad_calls, len(result["failures"]))),
           "record": record}
    if args.trace:
        ledger = server["ledger"]
        metrics = layers.per_layer(Snapshot(ledger["self_s"],
                                            ledger["counts"]))
        metrics.update(serve_mix.overheads(calls, ledger["requests"]))
        metrics["unattributed_s"] = unattributed(
            [(c.start, c.end) for c in calls],
            [tuple(t) for t in ledger["top"]])
        # A run whose misses are cold by construction has no untraced
        # twin to subtract, so the overhead is wrapped calls × their cost.
        metrics["trace_overhead_s"] = ledger["calls"] * ledger["per_call_s"]
        out["metrics"] = _normalise_ledger(run, metrics)
        record.update({"absent": ledger["absent"],
                       "calls_wrapped": ledger["calls"]})
    else:
        own = serve_mix.metrics(result, run.normalised)
        own.update(_repeat_stats(run, "hit", [(c.start, c.end)
                                               for c in calls
                                               if c.kind == "hit"]))
        record["workload_metrics"] = own
        out["metrics"] = _shared_names(run, own, setups,
                                       server["peak_rss_kib"])
    return out


# ----------------------------------------------------------------------

def _report(run: Run, out: dict) -> dict:
    args = run.args
    record = out["record"]
    record.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "cpu": run.cpu,
                   "k_ref": args.k_ref, "k_run": run.timeline.median(),
                   "probe_samples": len(run.timeline),
                   "wall_s": time.perf_counter() - run.started})
    units = layers.metric_names() if args.trace else E2E_UNITS
    if args.trace:
        print(_ledger_table(out["metrics"], units))
    print("RECORD " + json.dumps(record))
    failed = out["failed"]
    return {"correct": failed == 0 and not record["failures"],
            "attempted": out["attempted"], "failed": failed,
            "metrics": {name: {"value": out["metrics"][name],
                               "unit": units[name]}
                        for name in sorted(units)
                        if name in out["metrics"]}}


def _ledger_table(metrics: Dict[str, float], units: Dict[str, str]) -> str:
    lines = ["per-layer ledger (host-normalised; per iteration, or per "
             "run for serve-mix)"]
    for name in sorted(units):
        lines.append(f"  {name:<34} {metrics.get(name, 0.0):>14.6f} "
                     f"{units[name]}")
    return "\n".join(lines)


def parse(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--k-ref", type=float, required=True,
                        help="reference probe-kernel time (s)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("e2ebench: no program here (src/repro is missing); run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    try:
        run = Run(args)
    except (BenchError, OSError) as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    try:
        if args.workload == "serve-mix":
            out = run_serve(run)
        else:
            out = run_worker(run)
        result = _report(run, out)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
