"""The ``serve-mix`` load: two closed-loop clients against one server.

The script is generated from the seed at scale 0.2, in phases:

1. ``full``: full-surface reports for fresh world seeds (result-cache
   misses).
2. ``grid`` / ``add``: the 7-origin grid (no ``CEN``) for a fresh seed,
   then the same grid with ``CEN`` added.  The add request reads 57 of
   its 66 plane units from the plane cache and computes 9.
3. ``hit``: each client repeats its own earlier specs; every one is a
   result-cache hit.

In the miss phases the clients take turns, one request in flight at a
time, so a miss latency is the program's own compute.  Two misses in
flight at once interleave on the interpreter lock and each takes 2-3x
its solo time, by an amount that depends on how the two overlap; that
collision is outside this benchmark (README.md).  In the hit phase both
clients run at once.  Each client opens one connection per request and
waits for the reply before sending the next (closed loop).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SCALE = 0.2
ORIGINS = ["AU", "BR", "DE", "JP", "US1", "US64", "CEN", "CARINET"]
BASE_ORIGINS = [o for o in ORIGINS if o != "CEN"]
CLIENTS = 2
#: Miss requests, taken by the clients in turn.
FULL_MISSES = 3
GRID_PAIRS = 3
HITS_PER_CLIENT = 150
#: Plane units an add-CEN grid request must read and compute:
#: 3 protocols × (6 origins × 3 trials + CARINET's one trial) cached,
#: 3 protocols × 3 CEN trials computed.
ADD_PLANE_HITS, ADD_PLANE_MISSES = 57, 9


@dataclass
class Call:
    kind: str
    spec: dict
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    source: str = ""
    sha: str = ""

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Script:
    """The miss specs in the order they are sent; request ``i`` belongs
    to client ``i % CLIENTS``."""

    full: List[dict] = field(default_factory=list)
    grids: List[Tuple[dict, dict]] = field(default_factory=list)

    @classmethod
    def generate(cls, seed: int) -> "Script":
        rng = random.Random(seed)
        seeds = iter(rng.sample(range(1, 2 ** 31), FULL_MISSES + GRID_PAIRS))
        script = cls()
        for _ in range(FULL_MISSES):
            script.full.append({"seed": next(seeds), "scale": SCALE})
        for _ in range(GRID_PAIRS):
            world = next(seeds)
            script.grids.append((
                {"seed": world, "scale": SCALE, "report": "grid",
                 "origins": BASE_ORIGINS},
                {"seed": world, "scale": SCALE, "report": "grid",
                 "origins": ORIGINS}))
        return script

    def client_specs(self, client: int) -> List[dict]:
        specs = self.full[client::CLIENTS]
        for grid, add in self.grids[client::CLIENTS]:
            specs += [grid, add]
        return specs


class Client:
    def __init__(self, port: int, timeout: float = 170.0) -> None:
        self.port = port
        self.timeout = timeout

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: {response.status}")
            return body
        finally:
            conn.close()

    def report(self, call: Call) -> Call:
        body = json.dumps(call.spec, sort_keys=True).encode()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=self.timeout)
        call.start = time.perf_counter()
        try:
            conn.request("POST", "/report", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            call.end = time.perf_counter()
            call.status = response.status
            call.source = response.getheader("X-Repro-Source", "")
            call.sha = hashlib.sha256(payload).hexdigest()
        except (OSError, http.client.HTTPException):
            call.end = time.perf_counter()
            call.status = -1
        finally:
            conn.close()
        return call

    def plane_counters(self) -> Dict[str, float]:
        counters = json.loads(self.get("/metrics?format=json"))["counters"]
        return {k: counters.get(k, 0)
                for k in ("serve.plane_hit", "serve.plane_miss")}


def _parallel(jobs) -> None:
    """Run one closure per client thread and wait for all of them."""
    threads = [threading.Thread(target=job) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def run(port: int, seed: int) -> dict:
    """Drive the script.  Returns the calls and the output-check
    failures."""
    client = Client(port)
    script = Script.generate(seed)
    calls: List[Call] = []
    failures: List[str] = []

    def send(kind: str, spec: dict) -> Call:
        call = client.report(Call(kind, spec))
        calls.append(call)
        return call

    for spec in script.full:
        send("full", spec)
    for grid, add in script.grids:
        send("grid", grid)
        before = client.plane_counters()
        call = send("add", add)
        after = client.plane_counters()
        hits = after["serve.plane_hit"] - before["serve.plane_hit"]
        misses = after["serve.plane_miss"] - before["serve.plane_miss"]
        if (hits, misses) != (ADD_PLANE_HITS, ADD_PLANE_MISSES):
            failures.append(f"add {add}: plane hits/misses {hits}/"
                            f"{misses}, expected {ADD_PLANE_HITS}/"
                            f"{ADD_PLANE_MISSES}")
            call.status = -2

    miss_sha = {json.dumps(c.spec, sort_keys=True): c.sha for c in calls}
    hit_calls: List[List[Call]] = [[] for _ in range(CLIENTS)]

    def hit_loop(index: int) -> None:
        specs = script.client_specs(index)
        for i in range(HITS_PER_CLIENT):
            call = Call("hit", specs[i % len(specs)])
            hit_calls[index].append(client.report(call))

    _parallel([lambda i=i: hit_loop(i) for i in range(CLIENTS)])
    for batch in hit_calls:
        calls.extend(batch)

    for call in calls:
        expected = "hit" if call.kind == "hit" else "miss"
        if call.status == -2:
            continue
        if call.status != 200:
            failures.append(f"{call.kind} {call.spec}: status "
                            f"{call.status}")
        elif call.source != expected:
            failures.append(f"{call.kind} {call.spec}: served as "
                            f"{call.source!r}, expected {expected!r}")
        elif call.kind == "hit" and \
                call.sha != miss_sha[json.dumps(call.spec, sort_keys=True)]:
            failures.append(f"hit {call.spec}: bytes differ from the "
                            "miss")
    return {"calls": calls, "failures": failures}


def metrics(result: dict, normalised) -> Dict[str, float]:
    """The miss latencies of one run in host-normalised seconds, by
    their names in the service's terms; ``normalised(start, end)`` turns
    an interval into host-normalised seconds."""
    by_kind: Dict[str, List[float]] = {}
    for call in result["calls"]:
        by_kind.setdefault(call.kind, []).append(
            normalised(call.start, call.end))
    return {"miss_p50_s": statistics.median(by_kind["full"]),
            "grid_miss_p50_s": statistics.median(by_kind["grid"]),
            "add_origin_p50_s": statistics.median(by_kind["add"])}


def overheads(calls: List[Call], requests: List[dict]
              ) -> Dict[str, Optional[float]]:
    """Client latency minus the server's ``run_request`` time, matched
    by spec and by the server call lying inside the client's interval
    (both processes read the same monotonic clock)."""
    per_kind: Dict[str, List[float]] = {"hit": [], "miss": []}
    for call in calls:
        origins = call.spec.get("origins")
        if origins == ORIGINS:
            origins = None
        for req in requests:
            if req["seed"] == call.spec["seed"] \
                    and req["report"] == call.spec.get("report", "full") \
                    and req["origins"] == origins \
                    and call.start <= req["start"] \
                    and req["end"] <= call.end:
                kind = "hit" if call.kind == "hit" else "miss"
                per_kind[kind].append(call.latency
                                      - (req["end"] - req["start"]))
                break
    every = per_kind["hit"] + per_kind["miss"]
    return {
        "serve.overhead_s": statistics.mean(every) if every else 0.0,
        "serve.overhead_hit_s": statistics.mean(per_kind["hit"])
        if per_kind["hit"] else 0.0,
        "serve.overhead_miss_s": statistics.mean(per_kind["miss"])
        if per_kind["miss"] else 0.0,
    }
