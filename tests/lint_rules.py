"""vxlint: the simulator invariants the rest of tier-1 cannot see.

Three AST rules over ``src/``, run by ``tests/test_analysis_rules.py``
(``TestRepoIsClean`` is the gate).  A rule belongs here only while its
defect class passes the rest of the suite: plant the defect in real
modules and run the tests without ``test_analysis_rules.py``.  Defects the
tests already fail on (impure fast-forward probes, misspelled counter
keys, unguarded trace emission) get no rule, and neither does per-call
allocation on hot paths, which the benchmark measures.  What is left are
defects that are invisible inside one process on one numpy:

* **VX001 determinism** — the timing/functional simulators must be pure
  functions of (program, config): no wall-clock, no RNG, no ``id()``-keyed
  decisions, no iteration over unsorted sets (release order once leaked
  from ``set`` hashing into barrier release lists).  Hash seeds and
  allocation addresses only differ *across* processes, so a test run
  agrees with itself either way.
* **VX005 dtype discipline** — lane-vector arithmetic must not mix bare
  python ints into uint32 vectors without an explicit ``np.uint32`` cast
  (the NEP-50 promotion class of bug), and numpy array constructors must
  pass an explicit ``dtype`` (defaults differ across platforms and numpy
  majors).
* **VX007 state declaration** — a checkpointed class declares its state
  once, in a class-level ``STATE`` table from which ``snapshot()``/
  ``restore()`` are derived (:mod:`repro.common.state`): every ``self.x``
  it assigns must be a ``STATE`` key or listed in ``SNAPSHOT_EXCLUDED``,
  and every ``STATE`` key must be assigned.  State a checkpoint silently
  drops makes a restored run diverge only where a later step reads it,
  which a restart test at one pause point may never reach.

Each rule is scoped to module prefixes, so e.g. the determinism rule never
fires on the kernel generators (which seed RNGs deliberately).  There is
no suppression comment and no baseline: a finding is fixed, or the rule's
scope says why the module is not simulator code.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path


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


def finding(
    rule, module: ModuleInfo, node: ast.AST, symbol: str, detail: str, message: str
) -> Finding:
    """A :class:`Finding` of ``rule`` at ``node``'s line of ``module``."""
    return Finding(rule.id, module.path, getattr(node, "lineno", 0), symbol, detail, message)


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path`` (``.../src/repro/cache/cache.py`` →
    ``repro.cache.cache``), falling back to the stem when no package root
    is recognizable."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
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


def run_rules(modules: Sequence[ModuleInfo], rules: Sequence | None = None) -> list[Finding]:
    """Run ``rules`` (default: :data:`RULES`) over ``modules``; the findings
    come back sorted by location."""
    findings = [
        found
        for rule in (RULES if rules is None else rules)
        for module in modules
        if module.in_scope(rule.scope)
        for found in rule.check(module)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Shared AST helpers


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, function)`` for every function, including methods."""

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(tree, "")


def enclosing_symbol(module: ModuleInfo, target: ast.AST) -> str:
    """Qualname of the function/class lexically containing ``target``."""
    best = "<module>"
    best_span = None
    for qualname, func in iter_functions(module.tree):
        end = getattr(func, "end_lineno", func.lineno)
        line = getattr(target, "lineno", 0)
        if func.lineno <= line <= end:
            span = end - func.lineno
            if best_span is None or span <= best_span:
                best, best_span = qualname, span
    return best


_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet"}


def _annotation_is_set(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    return name is not None and name.rsplit(".", 1)[-1] in _SET_ANNOTATIONS


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


def _unsorted_set(node: ast.AST, set_symbols: set[str]) -> str | None:
    """Source text of ``node`` when it evaluates to an unsorted set: a name
    known to hold one, or a set built in place (``set(x)``, ``{a, b}``)."""
    if _is_set_expr(node):
        return ast.unparse(node)
    target = dotted_name(node)
    if target is not None and target.rsplit(".", 1)[-1] in set_symbols:
        return target
    return None


def _class_literal(node: ast.ClassDef, name: str) -> set[str] | None:
    """String entries of a class-level ``name = frozenset({...})`` (or set,
    tuple, list), or the string keys of ``name = {...: ...}``; ``None`` when
    the class body declares no ``name`` literal."""
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == name) or value is None:
            continue
        if isinstance(value, ast.Call) and dotted_name(value.func) == "frozenset" and value.args:
            value = value.args[0]
        if isinstance(value, ast.Dict):
            elements: list[ast.expr | None] = list(value.keys)
        elif isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            elements = list(value.elts)
        else:
            continue
        return {
            element.value
            for element in elements
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        }
    return None


# ---------------------------------------------------------------------------
# VX001 — determinism


_BANNED_MODULES = {"time", "random", "secrets", "uuid"}

#: The simulator proper (the job layer in ``repro.runtime.jobs`` reads the
#: host clock for job reports and stays outside).
SIMULATOR_SCOPE = ("repro.core", "repro.cache", "repro.mem")


class DeterminismRule:
    """VX001: no wall-clock, RNG, ``id()`` keying or unsorted-set iteration."""

    id = "VX001"
    scope = SIMULATOR_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        set_symbols = self._collect_set_symbols(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield finding(
                            self,
                            module,
                            node,
                            enclosing_symbol(module, node),
                            f"import:{alias.name}",
                            f"nondeterminism source: `import {alias.name}` inside the "
                            "simulator (wall-clock/RNG leaks into scheduling)",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES:
                    yield finding(
                        self,
                        module,
                        node,
                        enclosing_symbol(module, node),
                        f"import:{node.module}",
                        f"nondeterminism source: `from {node.module} import ...` inside "
                        "the simulator",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None:
                    root = name.split(".")[0]
                    if root in ("time", "random") and "." in name:
                        yield finding(
                            self,
                            module,
                            node,
                            enclosing_symbol(module, node),
                            f"call:{name}",
                            f"nondeterministic call `{name}()` in simulator code",
                        )
                    elif name == "id" and len(node.args) == 1:
                        yield finding(
                            self,
                            module,
                            node,
                            enclosing_symbol(module, node),
                            "call:id",
                            "`id()` values depend on allocation order; keying or "
                            "ordering on them is nondeterministic across processes",
                        )
                    elif name in ("list", "tuple") and len(node.args) == 1:
                        target = _unsorted_set(node.args[0], set_symbols)
                        if target is not None:
                            yield finding(
                                self,
                                module,
                                node,
                                enclosing_symbol(module, node),
                                f"set-order:{target}",
                                f"`{name}({target})` materializes an unsorted set: "
                                "element order follows hash seeds, not program order "
                                "(wrap in sorted() or use an insertion-ordered dict)",
                            )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                target = _unsorted_set(iter_expr, set_symbols)
                if target is not None:
                    yield finding(
                        self,
                        module,
                        iter_expr,
                        enclosing_symbol(module, iter_expr),
                        f"set-order:{target}",
                        f"iteration over unsorted set `{target}`: order follows hash "
                        "seeds, not program order (sort it or use an insertion-ordered "
                        "dict)",
                    )

    @staticmethod
    def _collect_set_symbols(module: ModuleInfo) -> set[str]:
        """Attribute/variable names statically known to hold a set."""
        symbols: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AnnAssign):
                name = dotted_name(node.target)
                if name is not None and _annotation_is_set(node.annotation):
                    symbols.add(name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    name = dotted_name(target)
                    if name is not None:
                        symbols.add(name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.arg) and _annotation_is_set(node.annotation):
                symbols.add(node.arg)
        return symbols


# ---------------------------------------------------------------------------
# VX005 — numpy dtype discipline


_ARITH_OPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.FloorDiv,
    ast.Mod,
    ast.LShift,
    ast.RShift,
    ast.BitAnd,
    ast.BitOr,
    ast.BitXor,
)

#: numpy constructors whose default dtype depends on platform and numpy major.
_NUMPY_CONSTRUCTORS = frozenset(
    {"array", "asarray", "asanyarray", "zeros", "ones", "empty", "full", "arange",
     "frombuffer", "fromiter"}
)

#: Positional index of ``dtype`` where a constructor takes it positionally.
_POSITIONAL_DTYPE = {"zeros": 1, "ones": 1, "empty": 1, "array": 1, "asarray": 1,
                     "asanyarray": 1, "full": 2, "fromiter": 1}


def _annotation_is_ndarray(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "ndarray" in node.value
    name = dotted_name(node)
    return name is not None and name.rsplit(".", 1)[-1] == "ndarray"


class DtypeDisciplineRule:
    """VX005: no bare-int arithmetic into lane vectors; explicit constructor dtypes."""

    id = "VX005"
    scope = ("repro.arch", "repro.core.vector_emulator", "repro.core.processor", "repro.mem")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_constructor(module, node)
        for qualname, func in iter_functions(module.tree):
            lane_names = self._lane_vector_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
                    yield from self._check_binop(module, qualname, node, lane_names)

    @staticmethod
    def _lane_vector_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names known to be ndarrays inside ``func`` (annotation-driven)."""
        names: set[str] = set()
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_ndarray(arg.annotation):
                names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.AnnAssign) and _annotation_is_ndarray(node.annotation):
                name = dotted_name(node.target)
                if name is not None:
                    names.add(name.rsplit(".", 1)[-1])
        return names

    def _check_constructor(self, module: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None or "." not in name:
            return
        root, _, leaf = name.rpartition(".")
        if root not in ("np", "numpy") or leaf not in _NUMPY_CONSTRUCTORS:
            return
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        # Positional dtype: np.zeros(shape, dtype) / np.full(shape, fill, dtype) ...
        positional_dtype_index = _POSITIONAL_DTYPE.get(leaf)
        if positional_dtype_index is not None and len(node.args) > positional_dtype_index:
            return
        yield finding(
            self,
            module,
            node,
            enclosing_symbol(module, node),
            f"implicit-dtype:{name}",
            f"`{name}(...)` without an explicit dtype: default dtypes differ across "
            "platforms and numpy majors (NEP 50), which forks bit-identity",
        )

    def _check_binop(
        self,
        module: ModuleInfo,
        qualname: str,
        node: ast.BinOp,
        lane_names: set[str],
    ) -> Iterator[Finding]:
        if not lane_names:
            return
        sides = [(node.left, node.right), (node.right, node.left)]
        for vector_side, scalar_side in sides:
            vec = dotted_name(vector_side)
            if isinstance(vector_side, ast.Subscript):
                vec = dotted_name(vector_side.value)
            if vec is None or vec.rsplit(".", 1)[-1] not in lane_names:
                continue
            if (
                isinstance(scalar_side, ast.Constant)
                and isinstance(scalar_side.value, int)
                and not isinstance(scalar_side.value, bool)
            ):
                op = type(node.op).__name__
                yield finding(
                    self,
                    module,
                    node,
                    qualname,
                    f"bare-int:{vec}:{op}:{scalar_side.value}",
                    f"bare python int {scalar_side.value} mixed into lane vector "
                    f"`{vec}` with {op}: wrap it in np.uint32(...) (or the intended "
                    "dtype) so NEP-50/value-based promotion cannot widen the result",
                )
                return


# ---------------------------------------------------------------------------
# VX007 — state declared once


#: The checkpointed components: every class here that assigns ``self.x``
#: declares its state in ``STATE``.
STATE_SCOPE = ("repro.core", "repro.cache", "repro.mem", "repro.arch.csr", "repro.common.perf")

#: Stateful classes in the scope legitimately outside the checkpoint.  Each
#: is either construction-time wiring rebuilt by ``__init__`` (the hierarchy
#: ports), a transient helper that never lives across a pause boundary (the
#: memory word cursor, the per-instruction warp emulator facade, the
#: per-instruction timing step a lane plan returns, a one-call request
#: group, a pass receipt — only a drain memo, which restore drops, keeps
#: one), or an exception type.
SNAPSHOT_EXEMPT = frozenset(
    {
        "repro.cache.cache.Receipt",
        "repro.cache.cache.RequestGroup",
        "repro.cache.hierarchy._CachePort",
        "repro.cache.hierarchy._DramPort",
        "repro.core.emulator.SimulationLimitExceeded",
        "repro.core.emulator.SimulationStalled",
        "repro.core.emulator.WarpEmulator",
        "repro.core.vector_emulator.TimingStep",
        "repro.mem.memory.WordCursor",
    }
)


def _self_assignments(node: ast.ClassDef) -> dict[str, ast.AST]:
    """First assignment statement of every ``self.x`` in the class body."""
    sites: dict[str, ast.AST] = {}
    for child in ast.walk(node):
        if not isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
            for item in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(item, ast.Attribute) and dotted_name(item.value) == "self":
                    sites.setdefault(item.attr, child)
    return sites


class SnapshotCoverageRule:
    """VX007: assigned state is declared in ``STATE`` or ``SNAPSHOT_EXCLUDED``."""

    id = "VX007"
    scope = STATE_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            component = f"{module.module}.{node.name}"
            assigned = _self_assignments(node)
            state = _class_literal(node, "STATE")
            if state is None:
                if assigned and component not in SNAPSHOT_EXEMPT:
                    yield finding(
                        self,
                        module,
                        node,
                        node.name,
                        f"no-state:{component}",
                        f"`{component}` owns mutable state but declares no STATE table "
                        "— derive its checkpoint from repro.common.state.Stateful or add "
                        "it to SNAPSHOT_EXEMPT with a justification",
                    )
                continue
            declared = state | (_class_literal(node, "SNAPSHOT_EXCLUDED") or set())
            for attr, site in assigned.items():
                if attr not in declared:
                    yield finding(
                        self,
                        module,
                        site,
                        f"{node.name}.{attr}",
                        f"uncovered:{component}.{attr}",
                        f"`self.{attr}` in `{component}` is neither a STATE key nor in "
                        "SNAPSHOT_EXCLUDED — a checkpoint would silently drop it and the "
                        "restored run would diverge",
                    )
            for attr in sorted(state - assigned.keys()):
                yield finding(
                    self,
                    module,
                    node,
                    f"{node.name}.{attr}",
                    f"stale:{component}.{attr}",
                    f"STATE of `{component}` lists `{attr}`, which the class never assigns",
                )


#: The rules the repo gate runs.
RULES = (DeterminismRule(), DtypeDisciplineRule(), SnapshotCoverageRule())
