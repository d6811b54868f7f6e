"""The campaign service: end-to-end serving, caching, and deduplication.

The contract under test is the serving layer's core promise: a served
report is *the same bytes* the offline pipeline produces — on the cold
(miss) path, the warm (hit) path, and after deduplicated concurrent
requests — and every request is accounted for in the ``serve.*``
counters.  Fault-injection coverage (corruption, timeouts, backpressure,
drain) lives in ``tests/test_serve_faults.py``.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

import pytest

from repro.core.engine import clear_context_cache
from repro.core.report import full_report
from repro.serve import resultcache
from repro.serve.client import ServeClient, ServeError
from repro.serve.handlers import (BadRequest, CampaignRequest, ServeState,
                                  parse_request, run_request)
from repro.serve.server import ServeConfig, ThreadedServer
from repro.sim.campaign import (SingleFlight, campaign_fingerprint,
                                run_campaign)
from repro.sim.scenario import paper_scenario
from repro.topology.asn import PROTOCOLS

SCALE = 0.02
SPEC = {"seed": 3, "scale": SCALE}


def make_server(tmp_path, runner=run_request, **overrides) -> ThreadedServer:
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "results"),
                         queue_depth=overrides.pop("queue_depth", 16),
                         request_timeout=overrides.pop("request_timeout",
                                                       120.0),
                         **overrides)
    return ThreadedServer(config=config, runner=runner)


def offline_report(seed: int, scale: float = SCALE,
                   protocols=PROTOCOLS, n_trials: int = 3) -> str:
    world, origins, config = paper_scenario(seed=seed, scale=scale)
    dataset = run_campaign(world, origins, config, protocols=protocols,
                           n_trials=n_trials)
    return full_report(dataset)


def wait_until(predicate, timeout: float = 30.0,
               interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# End-to-end: miss, hit, byte-identity with the offline pipeline
# ----------------------------------------------------------------------

def test_miss_then_hit_byte_identical(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        first = client.report(**SPEC)
        second = client.report(**SPEC)
        entries = client.cache()
        counters = client.metrics()["counters"]
    assert first.source == "miss"
    assert second.source == "hit"
    assert second.key == first.key
    assert second.text == first.text
    assert [e["valid"] for e in entries] == [True]
    assert entries[0]["key"] == first.key
    assert counters["serve.cache_miss"] == 1
    assert counters["serve.cache_hit"] == 1
    assert counters["serve.request"] >= 2


def test_served_report_matches_offline(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        served = client.report(**SPEC)
    assert served.text == offline_report(**SPEC)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 5, 7])
def test_differential_hit_and_miss_across_seeds(tmp_path, seed):
    """Acceptance: served == offline on both paths, per seed."""
    expected = offline_report(seed)
    with make_server(tmp_path / str(seed)) as ts:
        client = ServeClient(port=ts.port)
        miss = client.report(seed=seed, scale=SCALE)
        hit = client.report(seed=seed, scale=SCALE)
    assert miss.source == "miss" and hit.source == "hit"
    assert miss.text == expected
    assert hit.text == expected


def test_campaign_route_returns_summary_not_report(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        summary = client.campaign(**SPEC)
        report = client.report(**SPEC)
    assert summary["key"] == report.key
    assert summary["source"] == "miss"
    assert summary["meta"]["request"]["seed"] == SPEC["seed"]
    assert summary["meta"]["protocols"] == list(PROTOCOLS)
    assert "coverage" not in summary  # the report text stays on /report


def test_healthz_metrics_and_unknown_routes(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 16
        client.report(**SPEC)
        text = client.metrics_text()
        assert "# TYPE repro_serve_cache_miss_total counter" in text
        assert "repro_serve_request_total" in text
        with pytest.raises(ServeError) as missing:
            client._request("GET", "/nope")
        assert missing.value.status == 404
        with pytest.raises(ServeError) as wrong_method:
            client._request("GET", "/report")
        assert wrong_method.value.status == 405


def test_invalid_specs_are_rejected_with_400(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        for bad in ({"seed": -1}, {"scenario": "nope"}, {"scale": 99.0},
                    {"protocols": ["smtp"]}, {"n_trials": 0},
                    {"engine": "packed"}, {"bogus": 1}):
            with pytest.raises(ServeError) as err:
                client.campaign(**bad)
            assert err.value.status == 400, bad
        # the server is still healthy after a pile of bad requests
        assert client.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Concurrency determinism: dedup and cache-key isolation
# ----------------------------------------------------------------------

def test_identical_concurrent_requests_run_once(tmp_path):
    """N identical in-flight requests → one execution, N-1 joiners."""
    n = 5
    release = threading.Event()
    # The presence-build assertion below counts this test's execution;
    # start from a cold process-wide context memo so an earlier test's
    # identical dataset (same seed/scale → same fingerprint) cannot
    # satisfy the build.
    clear_context_cache()

    def gated(request, state):
        # Hold the leader's compute until every rival has joined the
        # flight, making the dedup count exact rather than timing-lucky.
        assert release.wait(timeout=60)
        return run_request(request, state)

    with make_server(tmp_path, runner=gated) as ts:
        client = ServeClient(port=ts.port)
        with concurrent.futures.ThreadPoolExecutor(n) as pool:
            futures = [pool.submit(client.report, **SPEC)
                       for _ in range(n)]
            assert wait_until(
                lambda: client.metrics()["counters"].get(
                    "serve.dedup_joined", 0) == n - 1)
            release.set()
            results = [f.result() for f in futures]
        counters = client.metrics()["counters"]
    assert len({r.text for r in results}) == 1
    assert len({r.key for r in results}) == 1
    assert counters["serve.cache_miss"] == 1
    assert counters.get("serve.cache_hit", 0) == 0
    assert counters["serve.dedup_joined"] == n - 1
    # Exactly one execution: one presence-context build per protocol.
    totals = ts.server.telemetry.counters.totals()
    for protocol in PROTOCOLS:
        key = ("analysis.presence_build", (("protocol", protocol),))
        assert totals.get(key) == 1, (protocol, totals)


def test_distinct_concurrent_requests_never_share_entries(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            futures = {seed: pool.submit(client.report, seed=seed,
                                         scale=SCALE)
                       for seed in (3, 5)}
            first = {seed: f.result() for seed, f in futures.items()}
        again = {seed: client.report(seed=seed, scale=SCALE)
                 for seed in (3, 5)}
        entries = client.cache()
    assert first[3].key != first[5].key
    assert first[3].text != first[5].text
    for seed in (3, 5):
        assert again[seed].source == "hit"
        assert again[seed].key == first[seed].key
        assert again[seed].text == first[seed].text
    assert sorted(e["key"] for e in entries) \
        == sorted(r.key for r in first.values())


# ----------------------------------------------------------------------
# Units: request parsing, fingerprints, single-flight, result cache
# ----------------------------------------------------------------------

def test_parse_request_normalizes_protocol_order():
    a = parse_request({"protocols": ["ssh", "http"]})
    b = parse_request({"protocols": ["http", "ssh"]})
    assert a == b
    assert a.canonical() == b.canonical()
    assert a.protocols == tuple(p for p in PROTOCOLS
                                if p in ("http", "ssh"))


def test_parse_request_defaults_and_bounds():
    request = parse_request({})
    assert request == CampaignRequest()
    with pytest.raises(BadRequest):
        parse_request(["not", "a", "dict"])
    with pytest.raises(BadRequest):
        parse_request({"seed": True})  # bools are not seeds
    with pytest.raises(BadRequest):
        parse_request({"protocols": ["http", "http"]})


def test_campaign_fingerprint_sensitivity():
    world, origins, config = paper_scenario(seed=3, scale=SCALE)
    base = campaign_fingerprint(world, config, origins)
    assert base == campaign_fingerprint(world, config, origins)
    assert base != campaign_fingerprint(world, config, origins[:-1])
    assert base != campaign_fingerprint(world, config, origins,
                                        protocols=("http",))
    assert base != campaign_fingerprint(world, config, origins, n_trials=2)
    assert base != campaign_fingerprint(world, config, origins,
                                        extra={"surface": "grid"})
    other_world, _, other_config = paper_scenario(seed=4, scale=SCALE)
    assert base != campaign_fingerprint(other_world, other_config, origins)


def test_single_flight_leader_and_joiners():
    flight = SingleFlight()
    future, leader = flight.begin("k")
    assert leader
    joined, second = flight.begin("k")
    assert not second and joined is future
    assert flight.in_flight() == 1
    flight.finish("k", result=41)
    assert future.result(timeout=1) == 41
    assert flight.in_flight() == 0
    # after finish, the key starts a fresh flight
    _, leader = flight.begin("k")
    assert leader
    flight.finish("k", error=RuntimeError("boom"))


def test_single_flight_run_shares_results_across_threads():
    flight = SingleFlight()
    calls = []
    gate = threading.Event()

    def work():
        calls.append(1)
        assert gate.wait(timeout=30)
        return "value"

    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        futures = [pool.submit(flight.run, "key", work) for _ in range(4)]
        assert wait_until(lambda: len(calls) == 1 and
                          flight.in_flight() == 1)
        gate.set()
        outcomes = [f.result() for f in futures]
    assert len(calls) == 1
    assert {value for value, _ in outcomes} == {"value"}
    assert sorted(joined for _, joined in outcomes) \
        == [False, True, True, True]


def test_resultcache_round_trip_and_corruption(tmp_path, small_campaign):
    report = full_report(small_campaign)
    path = resultcache.store("deadbeef" * 8, report, small_campaign,
                             meta={"note": "unit"}, directory=tmp_path)
    assert path is not None
    entry = resultcache.load("deadbeef" * 8, directory=tmp_path)
    assert entry.report == report
    assert entry.meta["note"] == "unit"
    assert resultcache.load("0" * 64, directory=tmp_path) is None

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(resultcache.CorruptEntry):
        resultcache.load("deadbeef" * 8, directory=tmp_path)


def test_resultcache_env_opt_out(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    assert not resultcache.cache_enabled()
    state = ServeState(cache_dir=str(tmp_path))
    payload = run_request(parse_request(dict(SPEC)), state)
    assert payload.source == "miss"
    assert resultcache.list_entries(tmp_path) == []


def test_serve_state_rejects_unknown_backend():
    with pytest.raises(ValueError):
        ServeState(executor="quantum")


def test_cli_parser_accepts_serve():
    from repro.cli import _build_parser
    args = _build_parser().parse_args(
        ["serve", "--port", "0", "--queue-depth", "2",
         "--timeout", "5", "--executor", "serial"])
    assert args.command == "serve"
    assert args.queue_depth == 2
    assert args.timeout == 5.0
