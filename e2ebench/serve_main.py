"""The ``serve-mix`` server process: the public ``serve_async`` on loopback.

Launched by ``run.py`` with ``src`` on ``PYTHONPATH``.  Binds an
ephemeral port, prints ``PORT <port> <json>`` once the server is
listening, and serves until SIGTERM.  On the way out it writes ``--out``:
its peak RSS, the set-up split and, with ``--trace 1``, the ledger of
every wrapped layer the requests went through.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from repro.serve.server import ServeConfig, serve_async
    t_import = time.perf_counter()
    ledger = None
    per_call_s = 0.0
    if args.trace:
        import layers
        from ledger import Ledger, per_call_cost
        per_call_s = per_call_cost()
        ledger = Ledger()
        ledger.install(layers.TARGETS, package="repro")
    t_ledger = time.perf_counter()

    def ready(server) -> None:
        split = {"import_s": t_import - _T0,
                 "server_s": time.perf_counter() - t_ledger}
        print(f"PORT {server.port} {json.dumps(split)}", flush=True)

    # Serial campaigns: the numbers measure the program, not a scheduler.
    config = ServeConfig(port=0, executor="serial",
                         cache_dir=args.cache_dir)
    asyncio.run(serve_async(config, ready=ready))

    out = {"peak_rss_kib":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if ledger is not None:
        out["ledger"] = {
            "self_s": ledger.self_s, "counts": ledger.counts,
            "top": ledger.top, "calls": ledger.calls,
            "per_call_s": per_call_s,
            "requests": ledger.state.get("requests", []),
            "installed": ledger.installed, "absent": ledger.absent}
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
