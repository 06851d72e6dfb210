"""vxlint: rule framework for the simulator-invariant static analyses.

Some of the repo's invariants are invisible to its tests because a test
run agrees with itself: determinism across processes, dtypes across numpy
majors, state a checkpoint drops but no restart test reads.  This module
provides the machinery the rules (:mod:`repro.analysis.rules`) share:

* :class:`Rule` — one invariant; rules register themselves via
  :func:`register_rule` and are scoped to module prefixes so e.g. the
  determinism rule never fires on the kernel generators (which seed RNGs
  deliberately).
* :class:`ModuleInfo` — one parsed source file: AST and module name.
* :class:`Finding` — one violation at one source location.
* :func:`run_rules` — checks every in-scope module against every rule.

There is no suppression comment and no baseline: a finding is fixed, or
the rule's scope says why the module is not simulator code.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "register_rule",
    "registered_rules",
    "load_modules",
    "module_name_for",
    "run_rules",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the enclosing ``Class.function`` qualname and ``detail``
    a rule-chosen discriminator (e.g. the offending import).
    """

    rule: str
    path: str
    line: int
    symbol: str
    detail: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


class ModuleInfo:
    """One parsed python module presented to the rules."""

    def __init__(self, path: str, module: str, source: str):
        self.path = path
        self.module = module
        self.tree = ast.parse(source, filename=path)

    def in_scope(self, prefixes: Sequence[str]) -> bool:
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule:
    """Base class for one invariant check over the modules under ``scope``
    (module prefixes)."""

    id: str = ""
    title: str = ""
    scope: tuple[str, ...] = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        symbol: str,
        detail: str,
        message: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 0),
            symbol=symbol,
            detail=detail,
            message=message,
        )


_RULE_FACTORIES: list[Callable[[], Rule]] = []


def register_rule(factory: Callable[[], Rule]) -> Callable[[], Rule]:
    """Class decorator registering a rule with the default registry."""
    _RULE_FACTORIES.append(factory)
    return factory


def registered_rules() -> list[Rule]:
    """An instance of every registered rule."""
    return [factory() for factory in _RULE_FACTORIES]


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path`` (``.../src/repro/cache/cache.py`` →
    ``repro.cache.cache``), falling back to the stem when no package root
    is recognizable."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("src",):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1 :]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def load_modules(paths: Iterable[Path]) -> list[ModuleInfo]:
    """Parse every ``.py`` file under ``paths`` into :class:`ModuleInfo`."""
    modules: list[ModuleInfo] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            if "__pycache__" in file.parts:
                continue
            source = file.read_text(encoding="utf-8")
            modules.append(ModuleInfo(str(file), module_name_for(file), source))
    return modules


def run_rules(
    modules: Sequence[ModuleInfo], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Run ``rules`` (default: the full registry) over ``modules``; the
    findings come back sorted by location."""
    findings = [
        finding
        for rule in (registered_rules() if rules is None else rules)
        for module in modules
        if module.in_scope(rule.scope)
        for finding in rule.check(module)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
