"""Tests for the SIMT core building blocks: warps, IPDOM stack, barriers,
wavefront scheduler and scoreboard."""

import pytest
from hypothesis import given, strategies as st

from repro.core.barrier import BarrierTable, GLOBAL_BARRIER_FLAG, is_global_barrier, local_barrier_index
from repro.core.ipdom import IpdomOverflow, IpdomStack, IpdomUnderflow
from repro.core.scheduler import WavefrontScheduler
from repro.core.scoreboard import Scoreboard
from repro.core.warp import RegisterFile, Warp


# -- register file / warp -------------------------------------------------------------------


def test_x0_is_hardwired_to_zero():
    regs = RegisterFile(num_threads=2)
    regs.write_int(0, 0, 1234)
    assert regs.read_int(0, 0) == 0


def test_registers_are_per_thread():
    regs = RegisterFile(num_threads=4)
    for thread in range(4):
        regs.write_int(thread, 5, thread * 10)
        regs.write_float(thread, 3, thread + 100)
    assert [regs.read_int(t, 5) for t in range(4)] == [0, 10, 20, 30]
    assert [regs.read_float(t, 3) for t in range(4)] == [100, 101, 102, 103]


def test_register_values_truncate_to_32_bits():
    regs = RegisterFile(num_threads=1)
    regs.write_int(0, 1, 2**32 + 5)
    assert regs.read_int(0, 1) == 5


def test_broadcast_int():
    regs = RegisterFile(num_threads=4)
    regs.broadcast_int(7, 42)
    assert all(regs.read_int(t, 7) == 42 for t in range(4))


def test_warp_tmc_controls_thread_mask_and_activity():
    warp = Warp(warp_id=0, num_threads=4)
    warp.spawn(0x80000000)
    assert warp.tmask == 0b1111
    warp.set_thread_count(2)
    assert warp.tmask == 0b0011
    assert warp.active_threads() == [0, 1]
    warp.set_thread_count(0)
    assert not warp.active
    assert not warp.schedulable


def test_warp_spawn_with_partial_mask():
    warp = Warp(warp_id=1, num_threads=8)
    warp.spawn(0x100, tmask=0b1)
    assert warp.num_active_threads() == 1
    assert warp.pc == 0x100
    assert warp.schedulable


def test_warp_barrier_blocks_scheduling():
    warp = Warp(warp_id=0, num_threads=4)
    warp.spawn(0)
    warp.at_barrier = True
    assert not warp.schedulable


# -- IPDOM stack -----------------------------------------------------------------------------


def test_ipdom_push_pop_lifo():
    stack = IpdomStack(depth=4)
    stack.push(0b1111, pc=None)
    stack.push(0b0011, pc=0x20)
    entry = stack.pop()
    assert entry.tmask == 0b0011 and entry.pc == 0x20 and not entry.is_fallthrough
    entry = stack.pop()
    assert entry.is_fallthrough and entry.tmask == 0b1111
    assert stack.empty


def test_ipdom_overflow_and_underflow():
    stack = IpdomStack(depth=2)
    stack.push(1)
    stack.push(2)
    with pytest.raises(IpdomOverflow):
        stack.push(3)
    stack.pop()
    stack.pop()
    with pytest.raises(IpdomUnderflow):
        stack.pop()


def test_ipdom_tracks_max_occupancy():
    stack = IpdomStack(depth=8)
    for _ in range(3):
        stack.push(1)
    stack.pop()
    assert stack.max_occupancy == 3


# -- barriers ---------------------------------------------------------------------------------


def test_barrier_releases_when_count_reached():
    table = BarrierTable(num_barriers=4)
    assert table.arrive(0, expected=3, participant="w0") == []
    assert table.arrive(0, expected=3, participant="w1") == []
    released = table.arrive(0, expected=3, participant="w2")
    assert set(released) == {"w0", "w1", "w2"}
    assert not table.any_waiting


def test_barrier_with_count_one_releases_immediately():
    table = BarrierTable()
    assert table.arrive(2, expected=1, participant="solo") == ["solo"]


def test_barriers_are_independent_per_id():
    table = BarrierTable(num_barriers=8)
    table.arrive(0, 2, "a")
    table.arrive(1, 2, "b")
    assert table.pending_barriers() == [0, 1]
    assert set(table.arrive(0, 2, "c")) == {"a", "c"}
    assert table.waiting_on(1) == ["b"]


def test_barrier_first_arrival_count_is_authoritative_smaller_latecomer():
    """Regression: a latecomer expecting *fewer* arrivals used to clobber the
    count and early-release the barrier."""
    import pytest

    from repro.core.barrier import BarrierCountMismatch

    table = BarrierTable(num_barriers=4)
    assert table.arrive(0, expected=3, participant="w0") == []
    with pytest.raises(BarrierCountMismatch):
        table.arrive(0, expected=2, participant="w1")
    assert table.mismatches == 1
    # The original barrier keeps filling toward the first arrival's count.
    assert table.arrive(0, expected=3, participant="w2") == []
    assert set(table.arrive(0, expected=3, participant="w3")) == {"w0", "w2", "w3"}


def test_barrier_first_arrival_count_is_authoritative_larger_latecomer():
    """Regression: a latecomer expecting *more* arrivals used to raise the
    count and strand the earlier waiters."""
    import pytest

    from repro.core.barrier import BarrierCountMismatch

    table = BarrierTable(num_barriers=4)
    assert table.arrive(1, expected=2, participant="w0") == []
    with pytest.raises(BarrierCountMismatch):
        table.arrive(1, expected=4, participant="w1")
    # A count-1 latecomer on a filling barrier is also a mismatch, not an
    # immediate self-release.
    with pytest.raises(BarrierCountMismatch):
        table.arrive(1, expected=1, participant="w2")
    assert set(table.arrive(1, expected=2, participant="w3")) == {"w0", "w3"}
    # Once released, the id can be reused with a fresh count.
    assert table.arrive(1, expected=1, participant="solo") == ["solo"]


def test_global_barrier_flag_helpers():
    assert is_global_barrier(GLOBAL_BARRIER_FLAG | 3)
    assert not is_global_barrier(3)
    assert local_barrier_index(GLOBAL_BARRIER_FLAG | 3) == 3


# -- wavefront scheduler -------------------------------------------------------------------------


def test_scheduler_round_robins_over_active_warps():
    scheduler = WavefrontScheduler(num_warps=4)
    for warp_id in range(4):
        scheduler.set_active(warp_id, True)
    picks = [scheduler.select() for _ in range(8)]
    assert sorted(picks[:4]) == [0, 1, 2, 3]
    assert sorted(picks[4:]) == [0, 1, 2, 3]


def test_scheduler_skips_stalled_and_barrier_warps():
    scheduler = WavefrontScheduler(num_warps=4)
    for warp_id in range(4):
        scheduler.set_active(warp_id, True)
    scheduler.set_stalled(1, True)
    scheduler.set_at_barrier(2, True)
    picks = {scheduler.select() for _ in range(4)}
    assert picks <= {0, 3}
    scheduler.set_stalled(1, False)
    scheduler.set_at_barrier(2, False)
    picks = [scheduler.select() for _ in range(4)]
    assert set(picks) == {0, 1, 2, 3}


def test_scheduler_returns_none_when_nothing_ready():
    scheduler = WavefrontScheduler(num_warps=2)
    assert scheduler.select() is None
    scheduler.set_active(0, True)
    scheduler.set_stalled(0, True)
    assert scheduler.select() is None
    assert scheduler.all_stalled


def test_scheduler_two_level_refill_counted():
    scheduler = WavefrontScheduler(num_warps=2)
    scheduler.set_active(0, True)
    scheduler.set_active(1, True)
    for _ in range(6):
        scheduler.select()
    assert scheduler.perf.get("refills") >= 3


# -- scoreboard -----------------------------------------------------------------------------------


def test_scoreboard_reserve_release():
    scoreboard = Scoreboard(num_warps=2)
    scoreboard.reserve(0, 5)
    assert scoreboard.is_busy(0, 5)
    assert not scoreboard.is_busy(1, 5)
    assert scoreboard.any_busy(0, Scoreboard.mask_of([(5, False), (6, False)]))
    scoreboard.release(0, 5)
    assert not scoreboard.is_busy(0, 5)


def test_scoreboard_separates_register_files():
    scoreboard = Scoreboard(num_warps=1)
    scoreboard.reserve(0, 3, floating=True)
    assert scoreboard.is_busy(0, 3, floating=True)
    assert not scoreboard.is_busy(0, 3, floating=False)


def test_scoreboard_ignores_x0():
    scoreboard = Scoreboard(num_warps=1)
    scoreboard.reserve(0, 0)
    assert not scoreboard.is_busy(0, 0)
    assert scoreboard.busy_count(0) == 0


@given(st.lists(st.integers(min_value=1, max_value=31), min_size=1, max_size=20))
def test_scoreboard_clear_empties_everything(registers):
    scoreboard = Scoreboard(num_warps=1)
    for register in registers:
        scoreboard.reserve(0, register)
    scoreboard.clear()
    assert scoreboard.busy_count(0) == 0


_REGISTERS = st.tuples(st.integers(min_value=0, max_value=31), st.booleans())


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["reserve", "release"]), st.integers(0, 1), _REGISTERS),
        max_size=40,
    ),
    probe=st.lists(_REGISTERS, max_size=4),
)
def test_mask_scoreboard_agrees_with_a_set_model(ops, probe):
    """The per-warp bitmask against the set of ``(kind, register)`` keys it
    replaced — double reserve, release of a free register, x0 and f0 included —
    on every query and on the snapshot wire (``sorted`` over those keys)."""
    scoreboard = Scoreboard(num_warps=2)
    model = {0: set(), 1: set()}
    reservations = 0
    for op, warp, (register, floating) in ops:
        key = ("f" if floating else "x", register)
        if op == "release":
            scoreboard.release(warp, register, floating)
            model[warp].discard(key)
        else:
            scoreboard.reserve(warp, register, floating)
            if key != ("x", 0):
                model[warp].add(key)
                reservations += 1
    for warp in (0, 1):
        busy = {("f" if fl else "x", reg) in model[warp] for reg, fl in probe}
        assert scoreboard.any_busy(warp, Scoreboard.mask_of(probe)) == (True in busy)
        assert scoreboard.busy_count(warp) == len(model[warp])
        for register in range(32):
            for floating in (False, True):
                key = ("f" if floating else "x", register)
                assert scoreboard.is_busy(warp, register, floating) == (key in model[warp])
    snapshot = scoreboard.snapshot()
    assert snapshot["busy"] == {warp: sorted(keys) for warp, keys in model.items()}
    assert snapshot["perf"].get("reservations", 0) == reservations
    restored = Scoreboard(num_warps=2)
    restored.restore(snapshot)
    assert restored.snapshot() == snapshot
