"""Tests for the vxlint rules (``lint_rules``) and the lint gate over ``src``.

Every rule gets a bad fixture (must fire) and a good fixture (must stay
quiet).  The defects the rest of tier-1 passes with, planted into real
modules, are fixtures too (``test_seeded_defect_in_real_source_fails``):
lint is the only check that keeps them out, and they run through the
gate's own rule list, so a rule missing from ``RULES`` fails its seeds.
``TestRepoIsClean`` runs that list over ``src``.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

import pytest
from lint_rules import (
    RULES,
    DeterminismRule,
    DtypeDisciplineRule,
    Finding,
    ModuleInfo,
    SnapshotCoverageRule,
    load_modules,
    module_name_for,
    run_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_module(source: str, module: str = "repro.cache.fixture") -> ModuleInfo:
    path = "src/" + module.replace(".", "/") + ".py"
    return ModuleInfo(path, module, source)


def run_one(rule, source: str, module: str = "repro.cache.fixture") -> list[Finding]:
    return run_rules([make_module(source, module)], rules=[rule])


# ---------------------------------------------------------------------------
# VX001 determinism


class TestDeterminismRule:
    def test_seeded_defect_random_in_scheduler(self):
        # Seeded defect #3: randomness in a scheduler decision.
        source = (
            "import random\n"
            "class WavefrontScheduler:\n"
            "    def select(self):\n"
            "        return random.random()\n"
        )
        findings = run_one(DeterminismRule(), source, "repro.core.scheduler_fixture")
        details = {f.detail for f in findings}
        assert "import:random" in details
        assert "call:random.random" in details

    def test_wall_clock_flagged(self):
        source = "import time\n\ndef tick():\n    return time.perf_counter()\n"
        findings = run_one(DeterminismRule(), source, "repro.core.clock_fixture")
        assert any(f.detail == "call:time.perf_counter" for f in findings)

    def test_id_keying_flagged(self):
        source = "def key(obj):\n    return id(obj)\n"
        findings = run_one(DeterminismRule(), source)
        assert any(f.detail == "call:id" for f in findings)

    def test_set_iteration_flagged(self):
        # Named sets, and sets built in place (`list(set(x))`, `for _ in set(x)`).
        source = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def drain(self, items):\n"
            "        out = list(self.pending)\n"
            "        for item in self.pending:\n"
            "            out.append(item)\n"
            "        out.extend(tuple(set(items)))\n"
            "        for item in set(items):\n"
            "            out.append(item)\n"
            "        return out + [item for item in {items[0], items[1]}]\n"
        )
        findings = run_one(DeterminismRule(), source)
        assert [f.detail for f in findings] == [
            "set-order:self.pending",
            "set-order:self.pending",
            "set-order:set(items)",
            "set-order:set(items)",
            "set-order:{items[0], items[1]}",
        ]

    def test_sorted_set_is_clean(self):
        source = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def drain(self):\n"
            "        return sorted(self.pending)\n"
        )
        assert run_one(DeterminismRule(), source) == []

    def test_out_of_scope_module_untouched(self):
        # Kernel generators may seed RNGs deliberately; the rule is scoped.
        source = "import random\nx = random.random()\n"
        assert run_one(DeterminismRule(), source, "repro.kernels.noise") == []

    def test_membership_check_is_clean(self):
        source = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.warm = set()\n"
            "    def hot(self, line):\n"
            "        return line in self.warm\n"
        )
        assert run_one(DeterminismRule(), source) == []


# ---------------------------------------------------------------------------
# VX005 dtype discipline


class TestDtypeDisciplineRule:
    def test_bare_int_into_lane_vector_flagged(self):
        source = (
            "import numpy as np\n"
            "def shift(lanes: np.ndarray):\n"
            "    return lanes + 5\n"
        )
        findings = run_one(DtypeDisciplineRule(), source, "repro.arch.fixture")
        assert any(f.detail.startswith("bare-int:lanes:Add:5") for f in findings)

    def test_wrapped_int_clean(self):
        source = (
            "import numpy as np\n"
            "def shift(lanes: np.ndarray):\n"
            "    return lanes + np.uint32(5)\n"
        )
        assert run_one(DtypeDisciplineRule(), source, "repro.arch.fixture") == []

    def test_constructor_without_dtype_flagged(self):
        source = "import numpy as np\nTABLE = np.zeros(32)\n"
        findings = run_one(DtypeDisciplineRule(), source, "repro.core.vector_emulator")
        assert any(f.detail == "implicit-dtype:np.zeros" for f in findings)

    def test_constructor_with_dtype_clean(self):
        source = "import numpy as np\nTABLE = np.zeros(32, dtype=np.uint32)\n"
        assert run_one(DtypeDisciplineRule(), source, "repro.core.vector_emulator") == []

    def test_out_of_scope_cache_module_untouched(self):
        source = "import numpy as np\nTABLE = np.zeros(32)\n"
        assert run_one(DtypeDisciplineRule(), source, "repro.cache.fixture") == []


# ---------------------------------------------------------------------------
# VX007 state declaration


STATEFUL_SOURCE = (
    "class Widget:\n"
    "    def __init__(self):\n"
    "        self.count = 0\n"
    "        self.items = []\n"
    "    def bump(self):\n"
    "        self.count += 1\n"
)


class TestSnapshotCoverageRule:
    def test_covered_attributes_clean(self):
        source = (
            "class Widget(Stateful):\n"
            "    STATE = {'count': VALUE, 'items': COPY}\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.items = []\n"
        )
        assert run_one(SnapshotCoverageRule(), source) == []

    def test_uncovered_attribute_flagged(self):
        # Assigned but not declared: `pending` is mutable state the derived
        # snapshot silently drops — exactly the divergence class VX007 exists for.
        source = (
            "class Widget(Stateful):\n"
            "    STATE = {'count': VALUE}\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.pending, self.limit = [], 4\n"
        )
        findings = run_one(SnapshotCoverageRule(), source)
        assert [f.detail for f in findings] == [
            "uncovered:repro.cache.fixture.Widget.pending",
            "uncovered:repro.cache.fixture.Widget.limit",
        ]

    def test_stale_state_key_flagged(self):
        source = (
            "class Widget(Stateful):\n"
            "    STATE = {'count': VALUE, '_ghost': VALUE}\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
        )
        findings = run_one(SnapshotCoverageRule(), source)
        assert [f.detail for f in findings] == ["stale:repro.cache.fixture.Widget._ghost"]

    def test_excluded_attribute_clean(self):
        source = (
            "class Widget(Stateful):\n"
            "    STATE = {'count': VALUE}\n"
            "    SNAPSHOT_EXCLUDED = frozenset({'config'})\n"
            "    def __init__(self, config):\n"
            "        self.config = config\n"
            "        self.count = 0\n"
        )
        assert run_one(SnapshotCoverageRule(), source) == []

    def test_stateful_class_without_serializer_flagged(self):
        findings = run_one(SnapshotCoverageRule(), STATEFUL_SOURCE)
        assert [f.detail for f in findings] == ["no-state:repro.cache.fixture.Widget"]

    def test_exempt_class_without_state_clean(self):
        findings = run_one(
            SnapshotCoverageRule(),
            STATEFUL_SOURCE.replace("Widget", "WordCursor"),
            module="repro.mem.memory",
        )
        assert findings == []

    def test_hand_written_serializer_earns_no_credit(self):
        # Mentioning an attribute in a snapshot()/restore() pair no longer
        # counts: the derived methods only ever see STATE.
        source = STATEFUL_SOURCE + (
            "    def snapshot(self):\n"
            "        return {'count': self.count, 'items': list(self.items)}\n"
        )
        findings = run_one(SnapshotCoverageRule(), source)
        assert [f.detail for f in findings] == ["no-state:repro.cache.fixture.Widget"]

    def test_out_of_scope_module_untouched(self):
        findings = run_one(
            SnapshotCoverageRule(), STATEFUL_SOURCE, module="repro.kernels.fixture"
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Seeded defects in real modules

#: ``(rule, module file, original text, seeded text, expected finding)``.
#: The set release, the two default dtypes and the two dropped ``STATE``
#: keys are defects the rest of tier-1 passes with in place: hash order and
#: numpy defaults only differ across processes and platforms, and a dropped
#: key only matters where a restored run reads it.  The set-typed
#: ``waiting`` is the original form of the barrier release-order bug.
REAL_SOURCE_SEEDS = [
    pytest.param(
        DeterminismRule,
        "core/barrier.py",
        "released = list(entry.waiting)",
        "released = list(set(entry.waiting))",
        "set-order:set(entry.waiting)",
        id="VX001-barrier-released-through-set",
    ),
    pytest.param(
        DeterminismRule,
        "core/barrier.py",
        "waiting: dict[Any, None] = field(default_factory=dict)",
        "waiting: set[Any] = field(default_factory=set)",
        "set-order:entry.waiting",
        id="VX001-barrier-waiting-typed-as-set",
    ),
    pytest.param(
        DtypeDisciplineRule,
        "mem/memory.py",
        "many pages).\n        out = np.empty(len(addresses), dtype=np.uint32)",
        "many pages).\n        out = np.empty(len(addresses))",
        "implicit-dtype:np.empty",
        id="VX005-gather-words-default-dtype",
    ),
    pytest.param(
        DtypeDisciplineRule,
        "core/vector_emulator.py",
        "        const = np.uint32(value)",
        "        const = np.array(value)",
        "implicit-dtype:np.array",
        id="VX005-broadcast-default-dtype",
    ),
    pytest.param(
        SnapshotCoverageRule,
        "core/scheduler.py",
        "        self._hazard_mask = 0\n",
        "        self._hazard_mask = 0\n        self._extra = 0\n",
        "uncovered:repro.core.scheduler.WavefrontScheduler._extra",
        id="VX007-scheduler-undeclared-attribute",
    ),
    pytest.param(
        SnapshotCoverageRule,
        "cache/cache.py",
        "        self._counters = self.perf._counters\n",
        "        self._counters = self.perf._counters\n        self._extra = 0\n",
        "uncovered:repro.cache.cache.NonBlockingCache._extra",
        id="VX007-dcache-undeclared-attribute",
    ),
    pytest.param(
        SnapshotCoverageRule,
        "cache/bank.py",
        '"_use_counter": VALUE, ',
        "",
        "uncovered:repro.cache.bank.CacheBank._use_counter",
        id="VX007-bank-use-counter-dropped",
    ),
    pytest.param(
        SnapshotCoverageRule,
        "cache/mshr.py",
        '        "peak_occupancy": VALUE,\n',
        "",
        "uncovered:repro.cache.mshr.Mshr.peak_occupancy",
        id="VX007-mshr-peak-occupancy-dropped",
    ),
]


@pytest.mark.parametrize("rule,relative,old,new,detail", REAL_SOURCE_SEEDS)
def test_seeded_defect_in_real_source_fails(rule, relative, old, new, detail):
    """Planting the defect in the real module fails the gate's rule list
    with the expected finding (the unmodified tree is clean:
    TestRepoIsClean)."""
    path = REPO_ROOT / "src" / "repro" / relative
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    info = ModuleInfo(str(path), module_name_for(path), source.replace(old, new))
    assert (rule.id, detail) in {(f.rule, f.detail) for f in run_rules([info])}


# ---------------------------------------------------------------------------
# Repo gate: the committed tree is clean


@pytest.fixture(scope="module")
def repo_modules():
    return load_modules([REPO_ROOT / "src"])


def unmatched_scopes(rules, modules) -> list[tuple[str, str]]:
    """``(rule id, prefix)`` of every scope prefix no module falls under."""
    return [
        (rule.id, prefix)
        for rule in rules
        for prefix in rule.scope
        if not any(module.in_scope((prefix,)) for module in modules)
    ]


class TestRepoIsClean:
    def test_vxlint_clean(self, repo_modules):
        assert run_rules(repo_modules) == []

    def test_every_scope_prefix_matches_a_module(self, repo_modules):
        """A prefix that matches nothing (misspelt, or naming a module that
        moved) silently stops its rule from checking that code."""
        assert unmatched_scopes(RULES, repo_modules) == []
        misspelt = DtypeDisciplineRule()
        misspelt.scope = ("repro.arch", "repro.core.vector_emulater")
        assert unmatched_scopes([misspelt], repo_modules) == [
            ("VX005", "repro.core.vector_emulater")
        ]

    def test_mypy_overrides_name_modules_under_src(self):
        """mypy runs only in CI, so nothing local notices an override that
        names a module which moved or was deleted (it then types nothing)."""
        config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        src = REPO_ROOT / "src"
        stale = []
        for override in config["tool"]["mypy"]["overrides"]:
            for module in override["module"]:
                path = src / module.removesuffix(".*").replace(".", "/")
                found = (path / "__init__.py").is_file()
                if not module.endswith(".*"):
                    found = found or path.with_suffix(".py").is_file()
                if not found:
                    stale.append(module)
        assert stale == []

    def test_module_name_for_src_anchor(self):
        assert module_name_for(Path("src/repro/cache/cache.py")) == "repro.cache.cache"
        assert module_name_for(Path("src/repro/cache/__init__.py")) == "repro.cache"
