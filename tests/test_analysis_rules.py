"""Tests for the vxlint static-analysis suite (``repro.analysis``).

Every rule gets a bad fixture (must fire) and a good fixture (must stay
quiet); the three seeded-defect fixtures from the issue — state mutation
inside ``can_accept``, a misspelled counter key, ``random.random()`` in a
scheduler — prove the rules catch exactly the regressions the repo's
bit-identity story fears.  A final gate test runs the real analysis over
``src`` against the committed baseline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.framework import (
    Baseline,
    Finding,
    ModuleInfo,
    load_modules,
    module_name_for,
    run_rules,
)
from repro.analysis.rules import (
    CounterDisciplineRule,
    DeterminismRule,
    DtypeDisciplineRule,
    HotPathAllocationRule,
    PredicatePurityRule,
    SnapshotCoverageRule,
    TraceEmissionGuardRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_module(source: str, module: str = "repro.cache.fixture") -> ModuleInfo:
    path = "src/" + module.replace(".", "/") + ".py"
    return ModuleInfo(path, module, source)


def run_one(rule, source: str, module: str = "repro.cache.fixture") -> list[Finding]:
    info = make_module(source, module)
    result = run_rules([info], rules=[rule])
    return result.findings


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
        source = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def drain(self):\n"
            "        out = list(self.pending)\n"
            "        for item in self.pending:\n"
            "            out.append(item)\n"
            "        return out\n"
        )
        findings = run_one(DeterminismRule(), source)
        assert sum(f.detail.startswith("set-order:") for f in findings) == 2

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
# VX002 predicate purity


class TestPredicatePurityRule:
    def test_seeded_defect_mutation_in_can_accept(self):
        # Seeded defect #1: state mutation inside can_accept.
        source = (
            "class Cache:\n"
            "    def can_accept(self, request):\n"
            "        self.attempts = self.attempts + 1\n"
            "        return True\n"
        )
        findings = run_one(PredicatePurityRule(), source)
        assert any(f.detail == "store:self.attempts" for f in findings)

    def test_mutating_method_call_flagged(self):
        source = (
            "class Cache:\n"
            "    def can_accept_batch(self, addresses):\n"
            "        self.queue.append(addresses)\n"
            "        return []\n"
        )
        findings = run_one(PredicatePurityRule(), source)
        assert any(f.detail == "mutating-call:self.queue.append" for f in findings)

    def test_counter_increment_flagged(self):
        source = (
            "class Dram:\n"
            "    def next_event_cycle(self):\n"
            "        self.perf.incr('probes')\n"
            "        return None\n"
        )
        findings = run_one(PredicatePurityRule(), source)
        assert any("incr" in f.detail for f in findings)

    def test_local_result_list_is_clean(self):
        # The real can_accept_batch builds a fresh local list — allowed.
        source = (
            "class Cache:\n"
            "    def can_accept_batch(self, addresses):\n"
            "        results = []\n"
            "        for address in addresses:\n"
            "            results.append(address % 2 == 0)\n"
            "        return results\n"
        )
        assert run_one(PredicatePurityRule(), source) == []

    def test_aliased_self_state_still_flagged(self):
        # A local alias of self state must not launder the mutation.
        source = (
            "class Cache:\n"
            "    def can_accept(self, request):\n"
            "        bank = self.banks[0]\n"
            "        bank.touch(request)\n"
            "        return True\n"
        )
        findings = run_one(PredicatePurityRule(), source)
        assert any(f.detail == "mutating-call:bank.touch" for f in findings)

    def test_non_predicate_mutation_ignored(self):
        source = (
            "class Cache:\n"
            "    def send(self, request):\n"
            "        self.accepted += 1\n"
            "        return True\n"
        )
        assert run_one(PredicatePurityRule(), source) == []


# ---------------------------------------------------------------------------
# VX003 counter discipline


COUNTER_SCHEMA_PREFIX = (
    "class Comp:\n"
    "    COUNTERS = frozenset({'hits', 'misses'})\n"
)


class TestCounterDisciplineRule:
    def test_seeded_defect_misspelled_counter_key(self):
        # Seeded defect #2: a typo'd counter key not in any schema.
        source = COUNTER_SCHEMA_PREFIX + (
            "    def charge(self):\n"
            "        self.perf.incr('hist')\n"
        )
        findings = run_one(CounterDisciplineRule(), source)
        assert [f.detail for f in findings] == ["undeclared:hist"]

    def test_declared_keys_clean(self):
        source = COUNTER_SCHEMA_PREFIX + (
            "    def charge(self):\n"
            "        self.perf.incr('hits')\n"
            "        counters = self.perf._counters\n"
            "        counters['misses'] += 1\n"
        )
        assert run_one(CounterDisciplineRule(), source) == []

    def test_ifexp_key_resolves_both_arms(self):
        source = COUNTER_SCHEMA_PREFIX + (
            "    def charge(self, hit):\n"
            "        counters = self.perf._counters\n"
            "        counters['hits' if hit else 'misses'] += 1\n"
            "        counters['hits' if hit else 'wrong'] += 1\n"
        )
        findings = run_one(CounterDisciplineRule(), source)
        assert [f.detail for f in findings] == ["undeclared:wrong"]

    def test_variable_key_flagged(self):
        source = COUNTER_SCHEMA_PREFIX + (
            "    def charge(self, key):\n"
            "        counters = self.perf._counters\n"
            "        counters[key] += 1\n"
        )
        findings = run_one(CounterDisciplineRule(), source)
        assert [f.detail for f in findings] == ["non-literal:key"]

    def test_plain_assignment_flagged(self):
        source = COUNTER_SCHEMA_PREFIX + (
            "    def clobber(self):\n"
            "        counters = self.perf._counters\n"
            "        counters['hits'] = 0\n"
        )
        findings = run_one(CounterDisciplineRule(), source)
        assert findings and findings[0].detail.startswith("assign:")

    def test_schema_collected_across_modules(self):
        # Charging a sibling component's declared counter is legitimate.
        schema_mod = make_module(
            "class Dcache:\n    COUNTERS = frozenset({'attempts'})\n",
            "repro.cache.schema_fixture",
        )
        user_mod = make_module(
            "class Core:\n"
            "    def replay(self):\n"
            "        self.dcache.perf.incr('attempts')\n",
            "repro.core.user_fixture",
        )
        result = run_rules([schema_mod, user_mod], rules=[CounterDisciplineRule()])
        assert result.findings == []


# ---------------------------------------------------------------------------
# VX004 hot-path allocation


class TestHotPathAllocationRule:
    def test_comprehension_lambda_fstring_nparray_flagged(self):
        source = (
            "import numpy as np\n"
            "from repro.common.perf import hot_path\n"
            "class Core:\n"
            "    @hot_path\n"
            "    def drain(self, xs):\n"
            "        ys = [x for x in xs]\n"
            "        f = lambda q: q\n"
            "        label = f'{xs}'\n"
            "        buf = np.zeros(4, dtype=np.uint32)\n"
            "        return ys, f, label, buf\n"
        )
        findings = run_one(HotPathAllocationRule(), source)
        kinds = {f.detail.split(":")[0] for f in findings}
        assert kinds == {"comp", "lambda", "fstring", "nparray"}

    def test_untagged_function_unconstrained(self):
        source = (
            "class Core:\n"
            "    def precompute(self, xs):\n"
            "        return [x for x in xs]\n"
        )
        assert run_one(HotPathAllocationRule(), source) == []

    def test_tagged_allocation_free_function_clean(self):
        source = (
            "from repro.common.perf import hot_path\n"
            "class Core:\n"
            "    @hot_path\n"
            "    def probe(self, line):\n"
            "        return line in self.warm\n"
        )
        assert run_one(HotPathAllocationRule(), source) == []


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
        findings = run_one(DtypeDisciplineRule(), source, "repro.engine.fixture")
        assert any(f.detail == "implicit-dtype:np.zeros" for f in findings)

    def test_constructor_with_dtype_clean(self):
        source = "import numpy as np\nTABLE = np.zeros(32, dtype=np.uint32)\n"
        assert run_one(DtypeDisciplineRule(), source, "repro.engine.fixture") == []

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

    @pytest.mark.parametrize(
        "relative,anchor",
        [
            ("core/scheduler.py", "        self._hazard_mask = 0\n"),
            ("cache/cache.py", "        self._counters = self.perf._counters\n"),
        ],
    )
    def test_undeclared_attribute_in_real_component_fails(self, relative, anchor):
        """Adding a stateful attribute to a real component without declaring
        it fails lint (the unmodified tree is clean: TestRepoIsClean)."""
        path = REPO_ROOT / "src" / "repro" / relative
        source = path.read_text(encoding="utf-8")
        assert anchor in source
        mutated = source.replace(anchor, anchor + "        self._extra = 0\n")
        info = ModuleInfo(str(path), "repro." + relative[:-3].replace("/", "."), mutated)
        findings = run_rules([info], rules=[SnapshotCoverageRule()]).findings
        assert [f.detail.rsplit(".", 1)[-1] for f in findings] == ["_extra"]


# ---------------------------------------------------------------------------
# VX008 trace-emission guard


HOT_PREFIX = "from repro.common.perf import hot_path\n"


class TestTraceEmissionGuardRule:
    def test_unguarded_hot_path_emit_flagged(self):
        source = HOT_PREFIX + (
            "class Cache:\n"
            "    @hot_path\n"
            "    def send(self, request):\n"
            "        self.trace.emit(self.cycle, 0, 0, 'dcache', 'hit', None)\n"
            "        return True\n"
        )
        findings = run_one(TraceEmissionGuardRule(), source)
        assert [f.detail for f in findings] == ["unguarded:self.trace:1"]

    def test_guarded_local_idiom_clean(self):
        # The canonical hoist-and-guard idiom the instrumented paths use.
        source = HOT_PREFIX + (
            "class Cache:\n"
            "    @hot_path\n"
            "    def send(self, request):\n"
            "        trace = self.trace\n"
            "        if trace is not None:\n"
            "            trace.emit(self.cycle, 0, 0, 'dcache', 'hit', None)\n"
            "        return True\n"
        )
        assert run_one(TraceEmissionGuardRule(), source) == []

    def test_guarded_attribute_receiver_clean(self):
        source = HOT_PREFIX + (
            "class Cache:\n"
            "    @hot_path\n"
            "    def send(self, request):\n"
            "        if self.trace is not None:\n"
            "            self.trace.emit(self.cycle, 0, 0, 'dcache', 'hit', None)\n"
            "        return True\n"
        )
        assert run_one(TraceEmissionGuardRule(), source) == []

    def test_guard_on_other_name_does_not_count(self):
        # An if that tests something unrelated must not launder the emit.
        source = HOT_PREFIX + (
            "class Cache:\n"
            "    @hot_path\n"
            "    def send(self, request, hit):\n"
            "        if hit:\n"
            "            self.trace.emit(self.cycle, 0, 0, 'dcache', 'hit', None)\n"
            "        return True\n"
        )
        findings = run_one(TraceEmissionGuardRule(), source)
        assert [f.detail for f in findings] == ["unguarded:self.trace:2"]

    def test_cold_function_unconstrained(self):
        # Off the hot path, an unconditional emit is fine (setup/teardown).
        source = (
            "class Cache:\n"
            "    def flush(self):\n"
            "        self.trace.emit(self.cycle, 0, 0, 'dcache', 'flush', None)\n"
        )
        assert run_one(TraceEmissionGuardRule(), source) == []

    def test_non_trace_emit_ignored(self):
        # `.emit()` on a non-trace receiver (e.g. an event queue) is not ours.
        source = HOT_PREFIX + (
            "class Core:\n"
            "    @hot_path\n"
            "    def tick(self):\n"
            "        self.events.emit('tick')\n"
        )
        assert run_one(TraceEmissionGuardRule(), source) == []

    def test_elif_guard_credits_its_own_branch(self):
        source = HOT_PREFIX + (
            "class Cache:\n"
            "    @hot_path\n"
            "    def send(self, request, trace):\n"
            "        if request is None:\n"
            "            return False\n"
            "        elif trace is not None:\n"
            "            trace.emit(self.cycle, 0, 0, 'dcache', 'hit', None)\n"
            "        return True\n"
        )
        assert run_one(TraceEmissionGuardRule(), source) == []


# ---------------------------------------------------------------------------
# Framework behaviour: suppressions, baselines, fingerprints


class TestSuppressionAndBaseline:
    def test_inline_suppression_silences_one_line(self):
        source = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def drain(self):\n"
            "        a = list(self.pending)  # vxlint: disable=VX001\n"
            "        b = list(self.pending)\n"
            "        return a, b\n"
        )
        info = make_module(source)
        result = run_rules([info], rules=[DeterminismRule()])
        assert result.suppressed_count == 1
        assert len(result.findings) == 1

    def test_suppression_is_rule_specific(self):
        source = (
            "class T:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def drain(self):\n"
            "        return list(self.pending)  # vxlint: disable=VX002\n"
        )
        info = make_module(source)
        result = run_rules([info], rules=[DeterminismRule()])
        assert len(result.findings) == 1

    def test_baseline_matches_by_fingerprint_not_line(self, tmp_path):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        info = make_module(source, "repro.core.baselined_fixture")
        first = run_rules([info], rules=[DeterminismRule()])
        baseline_path = tmp_path / "baseline.json"
        Baseline.dump(first.findings, baseline_path)
        baseline = Baseline.load(baseline_path)

        # Shift every line down: the baseline must still match.
        shifted = make_module("# pad\n" + source, "repro.core.baselined_fixture")
        second = run_rules([shifted], rules=[DeterminismRule()], baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == len(first.findings)

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "does_not_exist.json")
        assert baseline.entries == {}

    def test_module_name_for_src_anchor(self):
        assert module_name_for(Path("src/repro/cache/cache.py")) == "repro.cache.cache"
        assert module_name_for(Path("src/repro/analysis/__init__.py")) == "repro.analysis"


# ---------------------------------------------------------------------------
# Repo gate: the committed tree is clean


@pytest.fixture(scope="module")
def repo_modules():
    return load_modules([REPO_ROOT / "src"])


class TestRepoIsClean:
    def test_vxlint_clean_against_committed_baseline(self, repo_modules):
        baseline = Baseline.load(REPO_ROOT / "vxlint_baseline.json")
        result = run_rules(repo_modules, baseline=baseline)
        assert result.findings == [], "\n" + "\n".join(
            f.render() for f in result.findings
        )

    def test_every_baseline_entry_is_justified_and_live(self, repo_modules):
        baseline = Baseline.load(REPO_ROOT / "vxlint_baseline.json")
        assert baseline.entries, "baseline exists and carries entries"
        for fingerprint, justification in baseline.entries.items():
            assert justification and "TODO" not in justification, fingerprint
        # No dead entries: every baselined fingerprint still occurs.
        result = run_rules(repo_modules, baseline=Baseline())
        live = {f.fingerprint for f in result.findings}
        dead = set(baseline.entries) - live
        assert not dead, f"baseline entries no longer needed: {sorted(dead)}"

    def test_hot_path_marker_is_zero_overhead(self):
        from repro.common.perf import hot_path

        def sample(x):
            return x + 1

        tagged = hot_path(sample)
        assert tagged is sample
        assert tagged.__hot_path__ is True
