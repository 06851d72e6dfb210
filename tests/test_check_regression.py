"""The benchmark/identity gate CLI (`benchmarks/check_regression.py`).

Exercises the ``--require-identical`` mode the CI smoke steps use: green
on an all-identical payload, red on mismatches, errored jobs, and —
crucially — on payloads with nothing to check (an empty sweep must not
read as a guarantee).
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
