"""Tests of the benchmark itself (collected by the tier-1 command).

The workload pass runs at ``--smoke`` scale: it proves the plumbing — every
named metric present with its unit, spans closing the wall, checks wired —
and says nothing about speed.
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from bench import check, spans
from bench.run import END_TO_END_UNITS, MANIFEST, measure, per_layer_names, unit_of
from bench.workloads import BY_NAME, WORKLOADS, repeat, seeded_kernel, sweep_jobs

NAMES = [workload.name for workload in WORKLOADS]


@functools.cache
def smoke(name: str, trace: bool) -> dict:
    return measure(name, seed=3, seconds=0.0, trace=trace, smoke=True)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# -- the seven workloads at smoke scale ---------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_present_with_units(name, in_tmp):
    record = smoke(name, False)
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert {m: cell["unit"] for m, cell in record["metrics"].items()} == END_TO_END_UNITS
    assert all(cell["value"] > 0 for cell in record["metrics"].values())
    assert os.listdir(in_tmp) == []  # scratch files are gone


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_close_the_wall(name, in_tmp):
    metrics = smoke(name, True)["metrics"]
    assert list(metrics) == per_layer_names()
    assert all(cell["unit"] == unit_of(metric) for metric, cell in metrics.items())
    assert metrics["bench.span_coverage"]["value"] >= 0.95
    assert metrics["bench.trace_overhead_ratio"]["value"] > 0
    # The traced repetitions reproduced the untraced digest (wrappers perturb nothing).
    assert smoke(name, True)["failed"] == 0

    def calls(prefix: str) -> int:
        return sum(
            cell["value"]
            for metric, cell in metrics.items()
            if metric.startswith(prefix) and metric.endswith(".calls")
        )

    assert (calls("trace.") > 0) == (name == "simx_traced")
    assert (metrics["trace.bytes"]["value"] > 0) == (name == "simx_traced")
    assert (calls("service.") > 0) == (name == "service_sweep")
    assert (calls("engine.processor.run") > 0) == (name == "funcsim_large")
    assert (calls("cache.dcache.send_batch") > 0) == name.startswith("simx_")
    assert (calls("cache.l2.") > 0) == (name == "simx_multicore")


def test_manifest_matches_the_code():
    manifest = json.loads(MANIFEST.read_text())
    assert [w["name"] for w in manifest["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END_UNITS
    assert [m["name"] for m in manifest["per_layer"]] == per_layer_names()
    assert all(m["unit"] == unit_of(m["name"]) for m in manifest["per_layer"])
    assert manifest["paths"] == ["bench"]


# -- seeded inputs --------------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs(in_tmp):
    workload = BY_NAME["simx_traced"]
    one, again, other = (
        repeat(workload, seed, True, None, str(in_tmp)) for seed in (5, 5, 6)
    )
    assert one.outcome.input_digest == again.outcome.input_digest != other.outcome.input_digest
    assert one.digest == again.digest
    assert seeded_kernel("saxpy", 5).rng().random() == seeded_kernel("saxpy", 5).rng().random()


def test_sweep_seed_changes_cache_keys_not_shards():
    def keys(seed: int) -> list[str]:
        return sorted(key for _, key in sweep_jobs(seed, smoke=True))

    assert keys(1) == keys(1)
    assert not set(keys(1)) & set(keys(2))
    assert [key for _, key in sweep_jobs(1, True)] != keys(1)  # shuffled
    assert all(job.cache_key() == key for job, key in sweep_jobs(1, True))
    for seed in (1, 2):
        split = sum(int(key[:8], 16) % 2 for key in keys(seed))
        assert split == 12


# -- span arithmetic ---------------------------------------------------------------------------


@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter_ns`` the test advances by hand."""
    now = [0]
    monkeypatch.setattr(spans, "perf_counter_ns", lambda: now[0])

    def advance(ns: int) -> None:
        now[0] += ns

    return advance


def test_self_time_is_duration_minus_children(clock):
    rec = spans.SpanRecorder()
    leaf = rec.wrap("mem.dram.tick", lambda: clock(5))

    def middle_body():
        clock(10)
        leaf()
        leaf()
        clock(1)

    middle = rec.wrap("cache.hierarchy.tick", middle_body)

    def root_body():
        clock(100)
        middle()
        clock(3)

    rec.wrap("core.processor.tick", root_body)()
    assert rec.totals() == {
        "core.processor.tick": (103e-9, 1),
        "cache.hierarchy.tick": (11e-9, 1),
        "mem.dram.tick": (10e-9, 2),
    }
    assert rec.thread_self_seconds() == pytest.approx(124e-9)


def test_recursion_and_exceptions_keep_the_stack_balanced(clock):
    rec = spans.SpanRecorder()

    def body(depth: int) -> None:
        clock(7)
        if depth:
            recurse(depth - 1)
        else:
            raise RuntimeError("leaf failed")

    recurse = rec.wrap("core.timing.tick", body)
    with pytest.raises(RuntimeError):
        recurse(2)
    assert rec.totals() == {"core.timing.tick": (21e-9, 3)}
    # The stack unwound: a later span is a root again, not a child of a dead one.
    rec.wrap("mem.dram.send", lambda: clock(4))()
    assert rec.totals()["mem.dram.send"] == (4e-9, 1)
    assert rec.thread_self_seconds() == pytest.approx(25e-9)


def test_missing_target_fails_loudly():
    rec = spans.SpanRecorder()

    class Device:
        def launch(self):
            return "ran"

    device = Device()
    rec.instrument(device, "launch", "runtime.device.launch")
    assert device.launch() == "ran" and rec.totals()["runtime.device.launch"][1] == 1
    with pytest.raises(spans.MissingTarget, match="upload_program"):
        rec.instrument(device, "upload_program", "runtime.device.upload_program")
    with pytest.raises(ValueError, match="catalogue"):
        rec.instrument(device, "launch", "runtime.device.relaunch")


# -- bench.check -------------------------------------------------------------------------------


def result(wall: list[float], ipc: float = 2.0, failed: int = 0, digest: str = "d") -> dict:
    median = sorted(wall)[len(wall) // 2]
    return {
        "workloads": {
            "w": {
                "end_to_end": {
                    "wall_s": {"value": median, "unit": "s"},
                    "sim_ipc": {"value": ipc, "unit": "instr/cycle"},
                },
                "samples": {"wall_s": wall},
                "attempted": 10,
                "failed": failed,
                "digest": digest,
            }
        }
    }


CHECKED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "sim_ipc", "unit": "instr/cycle", "better": "higher", "bound": 0.0},
]


@pytest.mark.parametrize(
    ("new", "expected", "regressions"),
    [
        (result([2.0, 2.01, 2.02]), ["within-bound", "within-bound"], 0),
        (result([2.3, 2.31, 2.32]), ["worse", "within-bound"], 1),
        (result([1.5, 1.51, 1.52]), ["better", "within-bound"], 0),
        (result([1.0, 2.0, 3.0]), ["unresolved", "within-bound"], 0),
        (result([2.0, 2.01, 2.02], ipc=1.999), ["within-bound", "worse"], 1),
        (result([2.0, 2.01, 2.02], ipc=2.5), ["within-bound", "better"], 0),
        (result([2.0, 2.01, 2.02], failed=1), ["within-bound", "within-bound", "worse"], 1),
    ],
)
def test_check_verdicts(new, expected, regressions, capsys):
    base = result([2.0, 2.01, 2.02])
    assert check.compare(base, new, CHECKED) == regressions
    assert [line.split()[-1] for line in capsys.readouterr().out.splitlines()] == expected


def test_check_reports_digest_change_and_prints_bases(capsys):
    check.compare(result([2.0, 2.0, 2.0]), result([2.0, 2.0, 2.0], digest="e"), CHECKED)
    out = capsys.readouterr().out
    assert "2 / 2" in out and "report digest differs" in out
