"""Smoke test of the sampling profiler (``benchmarks/sample_profile.py``).

Proves plumbing only: the sampler arms and disarms, sees the simulator's
frames, and every sample lands in exactly one function and one line.
"""

from __future__ import annotations

import importlib.util
import signal
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "sample_profile",
    Path(__file__).resolve().parent.parent / "benchmarks" / "sample_profile.py",
)
sample_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sample_profile)


def test_smoke_profile_shares_sum_to_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the scratch directory is made in the cwd
    monkeypatch.setattr(sys, "path", list(sys.path))
    sampler = sample_profile.profile("simx_multicore", smoke=True, repetitions=4)
    assert sampler.samples > 0
    functions, lines = sampler.functions(), sampler.lines()
    assert sum(share for _, share, _ in functions) == pytest.approx(1.0)
    assert sum(share for _, share in lines) == pytest.approx(1.0)
    assert all(self_share <= inclusive <= 1.0 for _, self_share, inclusive in functions)
    assert any(name.startswith("src/repro/") for name, _, _ in functions)
    assert signal.getsignal(signal.SIGPROF) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert list(tmp_path.iterdir()) == []

    assert sample_profile.main(["--workload", "simx_compute", "--smoke", "--lines", "3"]) == 0
    out = capsys.readouterr().out
    assert "simx_compute:" in out and "function" in out and "line" in out
