"""vxlint — simulator-invariant static analysis for the repro codebase.

Run as ``python -m repro.analysis src`` (see :mod:`repro.analysis.__main__`).
"""

from __future__ import annotations

from repro.analysis.framework import (
    Finding,
    ModuleInfo,
    Rule,
    load_modules,
    module_name_for,
    register_rule,
    registered_rules,
    run_rules,
)
from repro.analysis.rules import (
    DeterminismRule,
    DtypeDisciplineRule,
    SnapshotCoverageRule,
)

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "load_modules",
    "module_name_for",
    "register_rule",
    "registered_rules",
    "run_rules",
    "DeterminismRule",
    "DtypeDisciplineRule",
    "SnapshotCoverageRule",
]
