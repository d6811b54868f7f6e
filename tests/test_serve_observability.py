"""Serving-layer observability: traces, history, exposition, logs.

The acceptance test for the tracing tentpole lives here: one served
request for a 10×-sharded campaign produces a journal whose request
span, single-flight span, every executor job, and all ten per-shard
streaming spans carry the request's trace ID — reassembled into one
correlated tree by the Chrome trace-event exporter.  Alongside: the
``X-Repro-Trace`` header contract, ``/metrics/history``, the Prometheus
text-format grammar smoke test, NDJSON access logs, and size rotation
wired through ``ServeConfig``.
"""

from __future__ import annotations

import http.client
import json
import re
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ThreadedServer
from repro.telemetry import read_journal
from repro.telemetry.tracing import (chrome_trace, new_trace_id, trace_ids,
                                     valid_trace_id)

SPEC = {"seed": 3, "scale": 0.02, "protocols": ["http"], "n_trials": 1}


def make_server(tmp_path, **overrides) -> ThreadedServer:
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "results"),
                         queue_depth=16, request_timeout=120.0,
                         **overrides)
    return ThreadedServer(config=config)


def request_with_header(port, header_value):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        body = json.dumps(SPEC, sort_keys=True).encode()
        conn.request("POST", "/report", body=body,
                     headers={"Content-Type": "application/json",
                              "X-Repro-Trace": header_value})
        response = conn.getresponse()
        response.read()
        return {k.lower(): v for k, v in response.getheaders()}
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The tentpole acceptance test: one request, one trace, every layer
# ----------------------------------------------------------------------

def test_sharded_request_yields_one_correlated_trace(tmp_path):
    journal_path = tmp_path / "serve.ndjson"
    with make_server(tmp_path, journal=str(journal_path)) as ts:
        client = ServeClient(port=ts.port)
        result = client.report(shards=10, **SPEC)
    assert result.source == "miss"
    assert valid_trace_id(result.trace)

    journal = read_journal(journal_path)
    spans = [s for s in journal.spans if s.get("trace") == result.trace]
    names = {s["name"] for s in spans}
    # Every layer of the request is on the trace: the HTTP request span,
    # the single-flight span, the sharded campaign, each shard's
    # streaming span, the executor grid, and every executor job.
    assert {"serve.request", "serve.flight", "serve.compute",
            "campaign.run", "shard.stream",
            "executor.run_grid", "executor.job"} <= names
    streams = sorted(s["attrs"]["shard"] for s in spans
                     if s["name"] == "shard.stream")
    assert streams == list(range(10))
    jobs = [s for s in journal.spans if s["name"] == "executor.job"]
    assert jobs and all(s["trace"] == result.trace for s in jobs)
    # The request's trace is the journal's dominant trace (metrics/cache
    # probes would each mint their own — none were made here).
    assert max(trace_ids(journal).items(),
               key=lambda kv: kv[1])[0] == result.trace

    # The Chrome export reassembles the same tree: every complete event
    # of this trace is there, and shard lanes appear in the metadata.
    trace = chrome_trace(journal)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"
              and e["args"].get("trace") == result.trace]
    assert {e["name"] for e in events} == names
    assert json.dumps(trace)


# ----------------------------------------------------------------------
# X-Repro-Trace header contract
# ----------------------------------------------------------------------

def test_upstream_trace_header_is_honored(tmp_path):
    preset = new_trace_id()
    with make_server(tmp_path) as ts:
        headers = request_with_header(ts.port, preset)
    assert headers["x-repro-trace"] == preset


def test_malformed_trace_header_is_replaced(tmp_path):
    with make_server(tmp_path) as ts:
        headers = request_with_header(ts.port, "not-a-trace")
    minted = headers["x-repro-trace"]
    assert valid_trace_id(minted)
    assert minted != "not-a-trace"


def test_trace_minted_when_absent(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        first = client.report(**SPEC)
        second = client.report(**SPEC)
    assert valid_trace_id(first.trace)
    assert valid_trace_id(second.trace)
    assert first.trace != second.trace  # per-request, even on cache hits


# ----------------------------------------------------------------------
# /metrics/history and the sampling loop
# ----------------------------------------------------------------------

def test_metrics_history_endpoint(tmp_path):
    with make_server(tmp_path, history_interval=0.05) as ts:
        client = ServeClient(port=ts.port)
        client.report(**SPEC)
        def sampled(history):
            samples = history["samples"]
            return samples and samples[-1]["counters"].get("serve.request")

        # Wait for a tick that post-dates the request's counters.
        deadline = time.monotonic() + 10.0
        history = client.metrics_history()
        while not sampled(history) and time.monotonic() < deadline:
            time.sleep(0.05)
            history = client.metrics_history()
        limited = client.metrics_history(last=1)
    assert history["schema"] == "repro-metrics-history-v1"
    assert history["interval_s"] == pytest.approx(0.05)
    assert history["n_samples"] >= 1
    sample = history["samples"][-1]
    assert sample["counters"].get("serve.request", 0) >= 1
    assert {"active", "flights", "queue_depth"} <= set(sample["gauges"])
    assert sample["rss_bytes"] > 0
    assert len(limited["samples"]) == 1
    assert limited["n_samples"] == history["n_samples"] \
        or limited["n_samples"] >= history["n_samples"]


def test_metrics_history_bad_last_is_400(tmp_path):
    from repro.serve.client import ServeError
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/metrics/history?last=nope")
    assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# /metrics: JSON quantiles and the text-format grammar (tier-1 smoke)
# ----------------------------------------------------------------------

def test_metrics_json_reports_quantiles(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        client.report(**SPEC)
        payload = client.metrics()
    wall = payload["histograms"]["serve.request_wall"]
    assert {"count", "sum", "min", "max", "p50", "p95", "p99"} <= set(wall)
    assert wall["min"] <= wall["p50"] <= wall["p95"] <= wall["p99"] \
        <= wall["max"]


#: Prometheus text-format grammar (one line): comments/metadata, or a
#: sample `name{labels} value [timestamp]`.
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                      r"(counter|gauge|summary|histogram|untyped)$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                      # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" [-+]?(\d+(\.\d+)?([eE][-+]?\d+)?|Inf|NaN)"      # value
    r"( \d+)?$")                                       # optional timestamp


def test_exposition_text_parses_line_by_line(tmp_path):
    with make_server(tmp_path) as ts:
        client = ServeClient(port=ts.port)
        client.report(**SPEC)
        client.report(**SPEC)
        text = client.metrics_text()
    lines = text.splitlines()
    assert lines, "exposition must not be empty after requests"
    declared = {}
    for line in lines:
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# TYPE"):
            assert _TYPE_RE.fullmatch(line), line
            declared[line.split()[2]] = line.split()[3]
        elif line.startswith("# HELP"):
            assert _HELP_RE.fullmatch(line), line
        else:
            assert _SAMPLE_RE.fullmatch(line), line
    # Summaries carry quantile samples plus _sum/_count; the request
    # wall-time series must be among them.
    summaries = [name for name, kind in declared.items()
                 if kind == "summary"]
    assert "repro_serve_request_wall" in summaries
    for name in summaries:
        assert any(line.startswith(name + "{")
                   and 'quantile="0.5"' in line for line in lines), name
        assert any(line.startswith(name + "_sum") for line in lines)
        assert any(line.startswith(name + "_count") for line in lines)
    # Counters keep the _total convention.
    assert any(name.endswith("_total") and kind == "counter"
               for name, kind in declared.items())


# ----------------------------------------------------------------------
# Access log and ServeConfig-driven rotation
# ----------------------------------------------------------------------

def test_access_log_records_requests(tmp_path):
    log_path = tmp_path / "access.ndjson"
    with make_server(tmp_path, access_log=str(log_path)) as ts:
        client = ServeClient(port=ts.port)
        result = client.report(**SPEC)
        client.healthz()
    records = [json.loads(line)
               for line in log_path.read_text().splitlines()]
    assert len(records) >= 2
    for record in records:
        assert {"ts", "trace", "route", "method", "status",
                "wall_s", "active"} <= set(record)
        assert valid_trace_id(record["trace"])
    (report_rec,) = [r for r in records if r["route"] == "/report"]
    assert report_rec["trace"] == result.trace
    assert report_rec["status"] == 200
    assert report_rec["source"] == "miss"
    assert report_rec["key"] == result.key


def test_access_log_rotates_under_byte_budget(tmp_path):
    log_path = tmp_path / "access.ndjson"
    with make_server(tmp_path, access_log=str(log_path),
                     journal_max_bytes=512) as ts:
        client = ServeClient(port=ts.port)
        for _ in range(30):
            client.healthz()
    assert (tmp_path / "access.ndjson.1").exists()
    assert log_path.stat().st_size <= 512 + 256  # one record of slack
    # Every segment is intact NDJSON.
    for name in ("access.ndjson", "access.ndjson.1"):
        for line in (tmp_path / name).read_text().splitlines():
            json.loads(line)


def test_serve_journal_rotates_under_byte_budget(tmp_path):
    journal_path = tmp_path / "serve.ndjson"
    with make_server(tmp_path, journal=str(journal_path),
                     journal_max_bytes=4096) as ts:
        client = ServeClient(port=ts.port)
        for _ in range(40):
            client.healthz()
    assert (tmp_path / "serve.ndjson.1").exists()
    live = read_journal(journal_path)
    assert live.skipped == 0
    assert live.header["rotated"] >= 1
