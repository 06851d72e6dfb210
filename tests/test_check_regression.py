"""The benchmark/identity gate CLI (`benchmarks/check_regression.py`).

Exercises the ``--require-identical`` mode the CI smoke steps use: green
on an all-identical payload, red on mismatches, errored jobs, and —
crucially — on payloads with nothing to check (an empty sweep must not
read as a guarantee).  Also the baseline ``--floor`` comparison the
``service_smoke`` job runs on its ``speedup`` rows.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _payload_file(tmp_path, payload) -> Path:
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_identity_gate_green_on_identical_payload(tmp_path):
    path = _payload_file(
        tmp_path,
        {
            "identical_counters": True,
            "results": [
                {"scenario": "a", "identical_counters": True, "mismatches": [], "errors": []}
            ],
        },
    )
    assert check_regression.main(["--require-identical", str(path)]) == 0


def test_identity_gate_red_on_mismatch(tmp_path):
    path = _payload_file(
        tmp_path,
        {
            "identical_counters": False,
            "results": [
                {
                    "scenario": "a",
                    "identical_counters": False,
                    "mismatches": ["core0.cycles: 1 != 2"],
                    "errors": [],
                }
            ],
        },
    )
    assert check_regression.main(["--require-identical", str(path)]) == 1


def test_identity_gate_red_on_empty_or_flagless_payloads(tmp_path):
    """No rows (or rows without identity flags) must fail, not pass."""
    assert check_regression.main(
        ["--require-identical", str(_payload_file(tmp_path, {}))]
    ) == 1
    path = _payload_file(tmp_path, {"results": [{"scenario": "a"}]})
    assert check_regression.main(["--require-identical", str(path)]) == 1


def test_identity_gate_red_on_errored_jobs(tmp_path):
    path = _payload_file(
        tmp_path,
        {
            "identical_counters": True,
            "results": [
                {
                    "scenario": "a",
                    "identical_counters": True,
                    "mismatches": [],
                    "errors": ["KeyError: 'boom'"],
                }
            ],
        },
    )
    assert check_regression.main(["--require-identical", str(path)]) == 1


def test_cli_argument_validation(capsys):
    with pytest.raises(SystemExit):
        check_regression.main([])  # nothing to check
    with pytest.raises(SystemExit):
        check_regression.main(["only_baseline.json"])  # current missing


def _service_payload(speedup, identical=True):
    """The shape ``benchmarks/service_smoke.py`` writes: one speedup per row."""
    return {
        "identical_counters": identical,
        "speedup": speedup,
        "results": [
            {
                "scenario": "vecadd_base",
                "identical_counters": identical,
                "speedup": speedup,
                "errors": [],
            }
        ],
    }


@pytest.mark.parametrize(
    "current_speedup, identical, status",
    [(500.0, True, 0), (30.0, True, 0), (20.0, True, 1), (500.0, False, 1)],
)
def test_floor_gate_on_service_payload(tmp_path, current_speedup, identical, status):
    """Baseline 500x with --floor 0.05 requires 25x and identical rows."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_service_payload(500.0)), encoding="utf-8")
    current = tmp_path / "current.json"
    current.write_text(
        json.dumps(_service_payload(current_speedup, identical)), encoding="utf-8"
    )
    argv = [str(baseline), str(current), "--floor", "0.05"]
    assert check_regression.main(argv) == status


def test_floor_gate_red_on_missing_scenario(tmp_path):
    baseline = _payload_file(tmp_path, _service_payload(500.0))
    current = tmp_path / "current.json"
    current.write_text(json.dumps({"results": []}), encoding="utf-8")
    assert check_regression.main([str(baseline), str(current), "--floor", "0.05"]) == 1
