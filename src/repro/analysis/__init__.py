"""vxlint — simulator-invariant static analysis for the repro codebase.

Run as ``python -m repro.analysis src`` (see :mod:`repro.analysis.__main__`).
"""

from __future__ import annotations

from repro.analysis.framework import (
    Baseline,
    Finding,
    ModuleInfo,
    Rule,
    RunResult,
    load_modules,
    module_name_for,
    register_rule,
    registered_rules,
    run_rules,
)
from repro.analysis.rules import (
    CounterDisciplineRule,
    DeterminismRule,
    DtypeDisciplineRule,
    HotPathAllocationRule,
    PredicatePurityRule,
)

__all__ = [
    "Baseline",
    "Finding",
    "ModuleInfo",
    "Rule",
    "RunResult",
    "load_modules",
    "module_name_for",
    "register_rule",
    "registered_rules",
    "run_rules",
    "CounterDisciplineRule",
    "DeterminismRule",
    "DtypeDisciplineRule",
    "HotPathAllocationRule",
    "PredicatePurityRule",
]
