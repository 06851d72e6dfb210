"""vxlint: rule framework for the simulator-invariant static analyses.

The repo's correctness story rests on a handful of invariants that normal
linters cannot see — side-effect-free arbitration predicates, counter
updates drawn from a fixed schema, allocation-light hot paths, strictly
deterministic scheduling.  This module provides the machinery shared by all
rules (:mod:`repro.analysis.rules`):

* :class:`Rule` — one invariant; rules register themselves via
  :func:`register_rule` and are scoped to module prefixes so e.g. the
  determinism rule never fires on the kernel generators (which seed RNGs
  deliberately).
* :class:`ModuleInfo` — one parsed source file: AST, module name, and the
  per-line ``# vxlint: disable=VXnnn`` suppressions.
* :class:`Finding` — one violation, carrying a *stable fingerprint*
  (rule : module : symbol : detail, no line numbers) so committed baselines
  survive unrelated edits.
* :func:`run_rules` — two-phase driver: every rule first *collects*
  project-wide facts (the declared ``COUNTERS`` schemas), then checks each
  module.

Fixing a finding is always preferred; a deliberate exception is either
suppressed inline (``# vxlint: disable=VX003`` with a nearby comment
explaining why) or entered into the committed baseline with a one-line
justification (see ``vxlint_baseline.json`` at the repo root).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "Baseline",
    "register_rule",
    "registered_rules",
    "load_modules",
    "module_name_for",
    "run_rules",
]

_SUPPRESS_RE = re.compile(r"#\s*vxlint:\s*disable=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    module: str
    path: str
    line: int
    symbol: str
    detail: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Location-independent identity used for baseline matching.

        Deliberately excludes the line number: baselined exceptions must
        survive unrelated edits above them.  ``symbol`` is the enclosing
        ``Class.function`` qualname and ``detail`` a rule-chosen
        discriminator (e.g. the offending counter key).
        """
        return f"{self.rule}:{self.module}:{self.symbol}:{self.detail}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


class ModuleInfo:
    """One parsed python module presented to the rules."""

    def __init__(self, path: str, module: str, source: str):
        self.path = path
        self.module = module
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line number -> set of rule ids disabled on that line.
        self.suppressions: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {item.strip() for item in match.group(1).split(",") if item.strip()}
                self.suppressions[lineno] = rules

    def suppressed(self, rule: str, line: int) -> bool:
        disabled = self.suppressions.get(line)
        return disabled is not None and rule in disabled

    def in_scope(self, prefixes: Sequence[str]) -> bool:
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule:
    """Base class for one invariant check.

    ``scope`` lists the module prefixes the rule applies to.  ``collect``
    runs over *every* loaded module (regardless of scope) before any
    ``check`` call, letting rules gather project-wide declarations — the
    VX003 counter schemas need to see modules other than the one being
    checked.
    """

    id: str = ""
    title: str = ""
    scope: tuple[str, ...] = ()

    def collect(self, module: ModuleInfo) -> None:  # pragma: no cover - default no-op
        return None

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
            module=module.module,
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
    """Fresh instances of every registered rule (rules carry collect state)."""
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


@dataclass
class Baseline:
    """The committed set of deliberate, justified exceptions."""

    entries: dict[str, str] = field(default_factory=dict)  # fingerprint -> justification

    @classmethod
    def load(cls, path: Path) -> Baseline:
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        entries: dict[str, str] = {}
        for item in payload.get("exceptions", []):
            entries[item["fingerprint"]] = item.get("justification", "")
        return cls(entries=entries)

    def matches(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries

    @staticmethod
    def dump(findings: Sequence[Finding], path: Path) -> None:
        """Write a baseline skeleton for ``findings`` (justifications to fill in)."""
        seen: dict[str, dict[str, str]] = {}
        for finding in findings:
            seen.setdefault(
                finding.fingerprint,
                {
                    "fingerprint": finding.fingerprint,
                    "justification": "TODO: justify or fix",
                },
            )
        payload = {"exceptions": sorted(seen.values(), key=lambda e: e["fingerprint"])}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@dataclass
class RunResult:
    """Outcome of one analysis run."""

    findings: list[Finding]
    baselined: list[Finding]
    suppressed_count: int

    @property
    def clean(self) -> bool:
        return not self.findings


def run_rules(
    modules: Sequence[ModuleInfo],
    rules: Sequence[Rule] | None = None,
    baseline: Baseline | None = None,
) -> RunResult:
    """Run ``rules`` (default: the full registry) over ``modules``."""
    active = list(rules) if rules is not None else registered_rules()
    baseline = baseline or Baseline()
    for rule in active:
        for module in modules:
            rule.collect(module)
    findings: list[Finding] = []
    baselined: list[Finding] = []
    suppressed = 0
    for rule in active:
        for module in modules:
            if rule.scope and not module.in_scope(rule.scope):
                continue
            for finding in rule.check(module):
                if module.suppressed(rule.id, finding.line):
                    suppressed += 1
                elif baseline.matches(finding):
                    baselined.append(finding)
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return RunResult(findings=findings, baselined=baselined, suppressed_count=suppressed)
