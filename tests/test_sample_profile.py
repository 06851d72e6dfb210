"""Tests of the host-cost tools in ``benchmarks/sample_profile.py``.

The sampler's smoke test proves plumbing only: it arms and disarms, sees the
simulator's frames, and every sample lands in exactly one function and one
line.  The call counter is also a budget: the Python calls into ``src/repro``
per cycle of three fixed SIMX launches may not grow, on any runner however
noisy.
"""

from __future__ import annotations

import importlib.util
import signal
import sys
from pathlib import Path

import pytest
from test_golden_counters import _retry_wall

from repro.common.config import VortexConfig
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice

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


def test_call_count_per_cycle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    counter, cycles = sample_profile.count_calls("simx_compute", smoke=True)
    assert cycles > 0 and counter.total == sum(calls for _, calls in counter.functions())
    assert all(name.startswith("src/repro/") for name, _ in counter.functions())
    assert "src/repro/core/timing.py:TimingCore.tick" in dict(counter.functions())
    again, _ = sample_profile.count_calls("simx_compute", smoke=True)
    assert again.total == counter.total  # a count, not a time: it repeats
    assert sys.getprofile() is None
    assert list(tmp_path.iterdir()) == []

    assert sample_profile.main(["--workload", "simx_compute", "--smoke", "--calls"]) == 0
    assert "per cycle" in capsys.readouterr().out


# -- the control-path call budget -----------------------------------------------------------

#: Python calls into ``src/repro`` per cycle of one SIMX launch, as measured on
#: CPython 3.11 (3.12 inlines comprehensions and counts fewer).  Before a cycle
#: cost only what happens in it (no tick of a quiet cache level, no idle probe
#: after a plain issue, one issue record per PC) the first three made 25.72,
#: 24.56 and 48.25.  The retry-wall saxpy made 5.48 before the fast-forward
#: replayed drain-repeat windows and store passes stopped where DRAM blocks.
CALL_BUDGETS = {
    "vecadd-128-4w4t": ("vecadd", 128, VortexConfig().with_warps_threads(4, 4), 16.96),
    "sgemm-16x16-4w32t-8ports": (
        "sgemm",
        16 * 16,
        VortexConfig().with_warps_threads(4, 32).with_dcache_ports(8),
        17.13,
    ),
    "sgemm-8x8-2cores-l2": (
        "sgemm",
        8 * 8,
        VortexConfig(num_cores=2).with_cache_hierarchy(enable_l2=True),
        32.31,
    ),
    "saxpy-512-retry-wall": ("saxpy", 512, _retry_wall(), 3.56),
}


@pytest.mark.parametrize("name", sorted(CALL_BUDGETS))
def test_control_path_call_budget(name):
    kernel, size, config, measured = CALL_BUDGETS[name]
    instance = KERNELS[kernel]()
    device = VortexDevice(config, driver="simx")
    program = instance.build_program()
    device.upload_program(program)
    context = instance.setup(device, size)
    counter = sample_profile.CallCounter()
    report = counter.run(lambda: device.launch(program.entry))
    assert instance.verify(device, context)
    per_cycle = counter.total / report.cycles
    assert per_cycle <= 1.05 * measured, counter.functions()[:15]
