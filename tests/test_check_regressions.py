"""The perf-regression guard must fail loudly on bad inputs."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "check_regressions.py"
)
_spec = importlib.util.spec_from_file_location("check_regressions", _SCRIPT)
check_regressions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regressions)


def _results(medians: dict, smoke: bool = False) -> dict:
    return {"smoke": smoke, "suites": {"suite": {"medians": medians}}}


def _write(tmp_path, name: str, payload) -> str:
    path = tmp_path / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text)
    return str(path)


class TestBadInputs:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ("{truncated", "not valid JSON"),
            ("", "is empty"),
            ("   \n", "is empty"),
            ("[1, 2]", "expected a JSON object"),
            ("{}", "'suites' mapping"),
            ('{"suites": "oops"}', "'suites' mapping"),
            ('{"suites": {"a": []}}', "malformed"),
            ('{"suites": {"a": {"medians": 7}}}', "malformed"),
        ],
    )
    def test_malformed_baseline_fails_clearly(
        self, tmp_path, payload, message
    ):
        baseline = _write(tmp_path, "base.json", payload)
        current = _write(tmp_path, "cur.json", _results({"x": 1.0}))
        with pytest.raises(SystemExit, match=message) as excinfo:
            check_regressions.main(
                ["--baseline", baseline, "--current", current]
            )
        assert "base.json" in str(excinfo.value)

    def test_malformed_current_names_the_current_file(self, tmp_path):
        baseline = _write(tmp_path, "base.json", _results({"x": 1.0}))
        current = _write(tmp_path, "cur.json", "{bad")
        with pytest.raises(SystemExit, match="cur.json"):
            check_regressions.main(
                ["--baseline", baseline, "--current", current]
            )

    def test_missing_file_fails_clearly(self, tmp_path):
        current = _write(tmp_path, "cur.json", _results({"x": 1.0}))
        with pytest.raises(SystemExit, match="cannot read"):
            check_regressions.main(
                ["--baseline", str(tmp_path / "nope.json"),
                 "--current", current]
            )


class TestCompare:
    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        baseline = _write(tmp_path, "base.json", _results({"x": 0.5}))
        current = _write(tmp_path, "cur.json", _results({"x": 1.0}))
        code = check_regressions.main(
            ["--baseline", baseline, "--current", current]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_current_only_benchmark_is_an_informational_note(
        self, tmp_path, capsys
    ):
        baseline = _write(tmp_path, "base.json", _results({"x": 0.5}))
        current = _write(
            tmp_path, "cur.json", _results({"x": 0.5, "y": 9.0})
        )
        code = check_regressions.main(
            ["--baseline", baseline, "--current", current]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "suite::y: new benchmark (no baseline)" in out

    def test_baseline_only_benchmark_is_a_note_not_a_failure(
        self, tmp_path, capsys
    ):
        baseline = _write(
            tmp_path, "base.json", _results({"x": 0.5, "gone": 0.5})
        )
        current = _write(tmp_path, "cur.json", _results({"x": 0.5}))
        code = check_regressions.main(
            ["--baseline", baseline, "--current", current]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "suite::gone: not in current run" in out

    def test_missing_suite_fails(self, tmp_path, capsys):
        baseline = _write(tmp_path, "base.json", _results({"x": 0.5}))
        current = _write(
            tmp_path, "cur.json", {"suites": {"other": {"medians": {}}}}
        )
        code = check_regressions.main(
            ["--baseline", baseline, "--current", current]
        )
        assert code == 1
        assert "suite missing" in capsys.readouterr().out

    def test_suite_missing_from_smoke_run_is_a_note(self, tmp_path, capsys):
        """CI's smoke run selects a few suites of the full baseline."""
        baseline = _write(tmp_path, "base.json", {
            "smoke": True,
            "suites": {
                "selected": {"medians": {"x": 0.5}},
                "unselected": {"medians": {"y": 0.5}},
            },
        })
        current = _write(tmp_path, "cur.json", {
            "smoke": True,
            "suites": {"selected": {"medians": {"x": 0.5}}},
        })
        code = check_regressions.main(
            ["--baseline", baseline, "--current", current]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unselected: not selected by this smoke run" in out
        assert "REGRESSION" not in out

    def test_smoke_runs_check_coverage_only(self, tmp_path, capsys):
        baseline = _write(tmp_path, "base.json", _results({"x": 0.5}))
        current = _write(
            tmp_path, "cur.json", _results({"x": 50.0}, smoke=True)
        )
        code = check_regressions.main(
            ["--baseline", baseline, "--current", current]
        )
        assert code == 0
        assert "not enforced" in capsys.readouterr().out
