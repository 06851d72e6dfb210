"""The wavefront-scheduler policy axis (`CoreConfig.scheduler_policy`).

Three invariants:

* ``"round-robin"`` (the default) is **counter-identical to the pre-axis
  baseline** — the cycle counts below were recorded on the repository state
  before the policy knob existed, so any drift in the default schedule
  fails these tests;
* the alternative policies are *distinct* from round-robin on stall-heavy
  workloads (otherwise the axis sweeps nothing);
* every policy is *deterministic* — the same job twice yields bit-identical
  reports, and the per-thread oracle (``simxref``) agrees under each.
"""

from __future__ import annotations

import pytest

from repro.common.config import SCHEDULER_POLICIES, CacheConfig, CoreConfig, MemoryConfig, VortexConfig
from repro.core.scheduler import WavefrontScheduler
from repro.runtime.jobs import diff_execution_reports
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice

#: Cycle counts recorded before the scheduler-policy axis existed (the
#: hierarchical two-level round-robin schedule).  Key: (kernel, size, ports).
PRE_AXIS_BASELINE_CYCLES = {
    ("sgemm", 64, 1): 3166,
    ("sfilter", 64, 2): 6175,
    ("vecadd", 128, 1): 2665,
    ("bfs", 64, 1): 1632,
}


#: The policy sweep on its stall-heavy scenario (sgemm 24x24, 8W-4T, one D$
#: port, 100-cycle memory — the ``benchmarks/scheduler_forensics.py`` shape).
#: Deterministic cycle counts, so correctness data rather than a speed ratio.
POLICY_SWEEP_CYCLES = {
    "round-robin": 32_621,
    "greedy-then-oldest": 63_286,
    "loose-round-robin": 32_514,
    "cache-locality": 52_067,
}


def _config(ports: int = 1, policy: str = "round-robin") -> VortexConfig:
    return VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=ports),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_scheduler_policy(policy)


def _run(kernel: str, size: int, config: VortexConfig, driver: str = "simx"):
    device = VortexDevice(config, driver=driver)
    run = KERNELS[kernel]().run(device, size=size)
    assert run.passed
    return run.report


# -- config plumbing ----------------------------------------------------------------------


def test_core_config_rejects_unknown_policy():
    with pytest.raises(ValueError, match=r"unknown scheduler policy 'fifo'"):
        CoreConfig(scheduler_policy="fifo")
    with pytest.raises(ValueError, match="unknown scheduler policy"):
        VortexConfig().with_scheduler_policy("fifo")


def test_scheduler_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown scheduler policy"):
        WavefrontScheduler(4, policy="fifo")


def test_policy_reaches_the_timing_core():
    for policy in SCHEDULER_POLICIES:
        device = VortexDevice(_config(policy=policy), driver="simx")
        assert device.driver.processor.cores[0].scheduler.policy == policy


# -- round-robin is the pre-axis schedule -------------------------------------------------


@pytest.mark.parametrize("kernel,size,ports", sorted(PRE_AXIS_BASELINE_CYCLES))
def test_round_robin_matches_pre_axis_baseline(kernel, size, ports):
    report = _run(kernel, size, _config(ports=ports))
    assert report.cycles == PRE_AXIS_BASELINE_CYCLES[(kernel, size, ports)]


def test_explicit_round_robin_equals_default():
    default = _run("sgemm", 64, _config())
    explicit = _run("sgemm", 64, _config(policy="round-robin"))
    assert diff_execution_reports(default, explicit) == []


# -- the alternatives are distinct but deterministic --------------------------------------


@pytest.mark.parametrize(
    "policy", ["greedy-then-oldest", "loose-round-robin", "cache-locality"]
)
def test_alternative_policies_are_deterministic(policy):
    first = _run("sgemm", 64, _config(policy=policy))
    second = _run("sgemm", 64, _config(policy=policy))
    assert diff_execution_reports(first, second) == []


def test_policies_produce_distinct_schedules():
    cycles = {
        policy: _run("sgemm", 64, _config(policy=policy)).cycles
        for policy in SCHEDULER_POLICIES
    }
    assert len(set(cycles.values())) == len(cycles), cycles


@pytest.mark.parametrize(
    "policy", ["greedy-then-oldest", "loose-round-robin", "cache-locality"]
)
def test_alternative_policies_identical_across_engines(policy):
    """The per-thread oracle and the vector engine agree bit-for-bit under
    every policy."""
    config = _config(ports=2, policy=policy)
    reference = _run("sfilter", 64, config, driver="simxref")
    assert diff_execution_reports(reference, _run("sfilter", 64, config)) == []


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_policy_sweep_cycles_are_pinned(policy):
    assert len(set(POLICY_SWEEP_CYCLES.values())) == len(SCHEDULER_POLICIES)
    config = _config(policy=policy).with_warps_threads(8, 4)
    assert _run("sgemm", 24 * 24, config).cycles == POLICY_SWEEP_CYCLES[policy]


# -- scheduler-unit behaviour -------------------------------------------------------------


def test_greedy_then_oldest_sticks_with_ready_warp():
    scheduler = WavefrontScheduler(4, policy="greedy-then-oldest")
    scheduler.set_masks(0b1111, 0, 0)
    assert scheduler.select() == 0  # cold start: lowest id is oldest
    assert scheduler.select() == 0  # greedy: stays while ready
    scheduler.set_stalled(0, True)
    assert scheduler.select() == 1  # oldest ready warp
    scheduler.set_stalled(0, False)
    assert scheduler.select() == 1  # still greedy on warp 1
    scheduler.set_stalled(1, True)
    # Warps 2 and 3 never issued (stamp 0); warp 0 issued at stamp 1.
    assert scheduler.select() == 2
    # Three non-greedy picks: the cold start and the two stall-forced moves.
    assert scheduler.perf.get("switches") == 3


def test_cache_locality_prefers_affine_warps_and_avoids_hazards():
    scheduler = WavefrontScheduler(4, policy="cache-locality")
    scheduler.set_masks(0b1111, 0, 0)
    assert scheduler.select() == 0  # cold start: no line history, lowest id
    # Warps 0 and 2 last touched line 7, which is also the current line.
    scheduler.note_memory_issue(0, 7)
    scheduler.note_memory_issue(2, 7)
    assert scheduler.select() == 2  # affine pool {0, 2}: 2 is least recent
    scheduler.note_hazard(0)
    scheduler.note_hazard(2)
    assert scheduler.select() == 1  # hazard hints exclude 0 and 2
    scheduler.note_issued(0)
    assert scheduler.select() == 0  # hazard cleared: line affinity wins again
    assert scheduler.perf.get("switches") == 4


def test_cache_locality_falls_back_when_all_ready_warps_have_hazards():
    scheduler = WavefrontScheduler(2, policy="cache-locality")
    scheduler.set_masks(0b11, 0, 0)
    scheduler.note_hazard(0)
    scheduler.note_hazard(1)
    # Skipping every ready warp would deadlock; the pool falls back to ready.
    assert scheduler.select() == 0


def test_loose_round_robin_skips_unready_warps():
    scheduler = WavefrontScheduler(4, policy="loose-round-robin")
    scheduler.set_masks(0b1111, 0b0010, 0)
    assert scheduler.select() == 0
    assert scheduler.select() == 2  # warp 1 stalled: skipped, not waited for
    assert scheduler.select() == 3
    assert scheduler.select() == 0
    scheduler.set_masks(0, 0, 0)
    assert scheduler.select() is None
    assert scheduler.perf.get("idle_cycles") == 1
