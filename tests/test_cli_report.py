"""Tests for the CLI and the full-report generator."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import clear_context_cache
from repro.core.report import SECTIONS, full_report
from repro.io.ndjson import load_campaign
from repro.telemetry.context import Telemetry, use


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("cli-campaign")
    code = main(["simulate", str(target), "--scale", "0.04",
                 "--trials", "2", "--protocols", "http", "ssh",
                 "--seed", "9"])
    assert code == 0
    return target


class TestSimulate:
    def test_writes_loadable_dataset(self, dataset_dir):
        ds = load_campaign(str(dataset_dir))
        assert set(ds.protocols) == {"http", "ssh"}
        assert ds.trials_for("http") == [0, 1]

    def test_followup_scenario(self, tmp_path):
        code = main(["simulate", str(tmp_path / "f"), "--scale", "0.04",
                     "--trials", "1", "--protocols", "http",
                     "--scenario", "followup"])
        assert code == 0
        ds = load_campaign(str(tmp_path / "f"))
        assert "HE" in ds.trial_data("http", 0).origins

    def test_metadata_records_execution_report(self, dataset_dir):
        ds = load_campaign(str(dataset_dir))
        execution = ds.metadata["execution"]
        # The CLI default defers to REPRO_EXECUTOR (as make test-parallel
        # sets), falling back to serial.
        expected = os.environ.get("REPRO_EXECUTOR", "serial")
        assert execution["backend"] == expected
        assert execution["n_jobs"] > 0

    def test_parallel_backend_writes_identical_dataset(self, dataset_dir,
                                                       tmp_path):
        """`--executor thread --workers 2` must be invisible on disk."""
        target = tmp_path / "parallel"
        code = main(["simulate", str(target), "--scale", "0.04",
                     "--trials", "2", "--protocols", "http", "ssh",
                     "--seed", "9", "--executor", "thread",
                     "--workers", "2"])
        assert code == 0
        serial = load_campaign(str(dataset_dir))
        parallel = load_campaign(str(target))
        assert parallel.metadata["execution"]["backend"] == "thread"
        assert parallel.metadata["execution"]["workers"] == 2
        for table in serial:
            other = parallel.trial_data(table.protocol, table.trial)
            assert np.array_equal(table.ip, other.ip)
            assert np.array_equal(table.probe_mask, other.probe_mask)
            assert np.array_equal(table.l7, other.l7)
            assert np.array_equal(table.time, other.time)


class TestReportCommand:
    def test_report_runs(self, dataset_dir, capsys):
        assert main(["report", str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "[coverage] http" in out
        assert "[ssh mechanisms" in out
        assert "[mcnemar]" in out
        assert "[/24 agreement]" in out

    def test_coverage_command_with_csv(self, dataset_dir, tmp_path,
                                       capsys):
        csv_path = tmp_path / "cov.csv"
        assert main(["coverage", str(dataset_dir),
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "coverage — http" in out
        assert csv_path.exists()


class TestPlanCommand:
    def test_plan_runs(self, dataset_dir, capsys):
        assert main(["plan", str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "greedy origin plan" in out
        assert "diminishing returns" in out

    def test_plan_single_probe(self, dataset_dir, capsys):
        assert main(["plan", str(dataset_dir), "--protocol", "ssh",
                     "--single-probe"]) == 0
        assert "ssh" in capsys.readouterr().out


class TestValidateCommand:
    def test_validate_passes_on_default_world(self, capsys):
        code = main(["validate", "--scale", "0.04", "--sample", "0.5"])
        out = capsys.readouterr().out
        assert "rate validation" in out
        assert code == 0


class TestFullReport:
    def test_contains_every_section(self, small_campaign):
        text = full_report(small_campaign)
        for marker in ("[coverage]", "[missing hosts", "[exclusivity]",
                       "[long-term misses on the wire]",
                       "[transient overlap]", "[drop estimates]",
                       "[bursts]", "[ssh mechanisms",
                       "[multi-origin coverage]", "[mcnemar]",
                       "[/24 agreement]", "[asynchrony]", "[diurnal]"):
            assert marker in text, marker

    def test_report_is_deterministic(self, small_campaign):
        assert full_report(small_campaign) == full_report(small_campaign)

    def test_every_section_is_a_span_under_the_report(self, small_campaign):
        clear_context_cache()
        tel = Telemetry()
        with use(tel):
            full_report(small_campaign)
        spans = [r for r in tel.records if r.get("t") == "span"]
        [report] = [r for r in spans if r["name"] == "report"]
        children = [r["name"] for r in spans
                    if r.get("parent") == report["id"]]
        assert children == [f"report.{name}" for name in SECTIONS]
