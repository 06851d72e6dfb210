"""The eight vxlint rules encoding the repo's simulator invariants.

Each rule is the static generalization of a property the differential and
Hypothesis tests enforce dynamically on specific code paths:

* **VX001 determinism** — the timing/functional simulators must be pure
  functions of (program, config): no wall-clock, no RNG, no ``id()``-keyed
  decisions, no iteration over unsorted sets (release order once leaked
  from ``set`` hashing into barrier release lists).
* **VX002 predicate purity** — the probe predicates the fast paths share
  with the send paths (``can_accept*``, ``next_event_cycle``,
  ``refusal_horizon``, ...) must not mutate state: the batched request path
  and the event-driven fast-forward are only bit-identical because probing
  is free.
* **VX003 counter discipline** — performance counters may only be touched
  through ``+=``/``-=`` (or the ``incr``/``set`` API) with string-literal
  keys declared in a component's ``COUNTERS`` schema, so a typo'd key can
  never silently fork the scalar and batched paths' counter sets.
* **VX004 hot-path allocation** — functions marked ``@hot_path`` run at
  per-request-attempt rates (millions per simulated second) and must not
  build comprehensions, lambdas, f-strings or fresh numpy arrays.
* **VX005 dtype discipline** — lane-vector arithmetic must not mix bare
  python ints into uint32 vectors without an explicit ``np.uint32`` cast
  (the NEP-50 promotion class of bug), and numpy array constructors must
  pass an explicit ``dtype`` (defaults differ across platforms and numpy
  majors).
* **VX006 state inventory** — every ``self.x`` a simulator component
  mutates must be catalogued in the committed state inventory; the
  inventory is the groundwork for checkpoint/restore (you cannot snapshot
  state you have not catalogued).
* **VX007 snapshot coverage** — every inventory-catalogued attribute must
  be handled by its owning class's ``snapshot()``/``restore()`` methods or
  explicitly declared derived/rebuildable in a ``SNAPSHOT_EXCLUDED``
  class attribute.  New state that the serializers silently miss is the
  checkpoint/restore analogue of a typo'd counter key: a restored run
  diverges from the straight-through one without any error.
* **VX008 trace-emission guard** — ``TraceBus.emit`` calls inside
  ``@hot_path`` functions must sit lexically inside an ``if`` that tests
  the trace receiver, so the tracing-off hot path stays allocation-free
  (the ``trace = self.trace`` / ``if trace is not None:`` idiom).
"""

from __future__ import annotations

import ast
import fnmatch
import json
from pathlib import Path
from collections.abc import Iterator

from repro.analysis.framework import Finding, ModuleInfo, Rule, register_rule

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


def decorator_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    names = []
    for dec in func.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(node)
        if name is not None:
            names.append(name.rsplit(".", 1)[-1])
    return names


def _literal_str_keys(node: ast.AST) -> list[str] | None:
    """String value(s) of a key expression, resolving two-armed IfExps.

    ``"writes" if is_write else "reads"`` is a fixed two-key choice, not a
    typo risk, so both arms are validated against the schema.  Returns
    ``None`` when the key is not statically known.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        body = _literal_str_keys(node.body)
        orelse = _literal_str_keys(node.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


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


# ---------------------------------------------------------------------------
# VX001 — determinism


_BANNED_MODULES = {"time", "random", "secrets", "uuid"}

SIMULATOR_SCOPE = ("repro.core", "repro.cache", "repro.mem", "repro.engine")


@register_rule
class DeterminismRule(Rule):
    """VX001: no wall-clock, RNG, ``id()`` keying or unsorted-set iteration."""

    id = "VX001"
    title = "determinism"
    scope = SIMULATOR_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        set_symbols = self._collect_set_symbols(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield self.finding(
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
                    yield self.finding(
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
                        yield self.finding(
                            module,
                            node,
                            enclosing_symbol(module, node),
                            f"call:{name}",
                            f"nondeterministic call `{name}()` in simulator code",
                        )
                    elif name == "id" and len(node.args) == 1:
                        yield self.finding(
                            module,
                            node,
                            enclosing_symbol(module, node),
                            "call:id",
                            "`id()` values depend on allocation order; keying or "
                            "ordering on them is nondeterministic across processes",
                        )
                    elif name in ("list", "tuple") and len(node.args) == 1:
                        target = dotted_name(node.args[0])
                        if target is not None and target.rsplit(".", 1)[-1] in set_symbols:
                            yield self.finding(
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
                target = dotted_name(iter_expr)
                if target is not None and target.rsplit(".", 1)[-1] in set_symbols:
                    yield self.finding(
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
# VX002 — predicate purity


#: Names (fnmatch patterns) of the registered side-effect-free predicates.
PURE_PREDICATES = (
    "can_accept*",
    "next_event_cycle",
    "next_response_cycle",
    "refusal_horizon",
    "write_refusal_horizon",
    "_warp_would_stall",
    "_schedulable_mask",
    "probe",
    "busy",
    "done",
    "full",
    "schedulable",
    "deadlocked",
    "any_waiting",
    "any_active",
    "all_stalled",
    "contains",
)

#: Method names that mutate their receiver (containers + counter APIs +
#: the simulator send paths).  Calling one inside a pure predicate is a
#: violation no matter what the receiver is.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "add",
        "remove",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "incr",
        "reset",
        "merge",
        "update_from",
        "send",
        "send_batch",
        "request_fill",
        "request_write",
        "note_skipped_refusal",
        "allocate",
        "release",
        "fill",
        "install",
        "touch",
        "reserve",
        "tick",
        "skip_idle",
    }
)


def is_registered_predicate(name: str) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in PURE_PREDICATES)


@register_rule
class PredicatePurityRule(Rule):
    """VX002: registered probe predicates must be side-effect free."""

    id = "VX002"
    title = "predicate-purity"
    scope = SIMULATOR_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for qualname, func in iter_functions(module.tree):
            if not is_registered_predicate(func.name):
                continue
            tainted = self._tainted_names(func)
            for node in ast.walk(func):
                yield from self._check_node(module, qualname, node, tainted)

    @staticmethod
    def _tainted_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Local names aliasing externally visible state.

        Parameters (including ``self``) are tainted; a local assigned from
        an expression mentioning a tainted name inherits the taint
        (``bank = self.banks[i]``).  A local built from a fresh literal or
        comprehension (``results = []``) is *not* tainted: mutating it is
        invisible outside the predicate, which is exactly what the batch
        probes do to collect their answers.
        """
        args = func.args
        tainted = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        }
        if args.vararg:
            tainted.add(args.vararg.arg)
        if args.kwarg:
            tainted.add(args.kwarg.arg)
        # Statement-order pass; ast.walk is approximately source order, and
        # predicates are short enough that one pass converges in practice.
        for node in ast.walk(func):
            value: ast.AST | None = None
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.For, ast.comprehension)):
                value, targets = node.iter, [node.target]
            if value is None:
                continue
            value_names = {
                n.id for n in ast.walk(value) if isinstance(n, ast.Name)
            }
            if value_names & tainted:
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            tainted.add(n.id)
        return tainted

    def _check_node(
        self,
        module: ModuleInfo,
        qualname: str,
        node: ast.AST,
        tainted: set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = target
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id not in tainted:
                        continue
                    detail = dotted_name(target) or "<subscript>"
                    yield self.finding(
                        module,
                        node,
                        qualname,
                        f"store:{detail}",
                        f"predicate `{qualname}` stores to `{detail}`: probe "
                        "predicates must not mutate state (the batched/fast-forward "
                        "paths probe them freely)",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    detail = dotted_name(target) or "<subscript>"
                    yield self.finding(
                        module,
                        node,
                        qualname,
                        f"delete:{detail}",
                        f"predicate `{qualname}` deletes `{detail}`",
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in MUTATING_METHODS:
                receiver = node.func.value
                root = receiver
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                # Mutating an untainted local (a fresh result list the
                # probe is building) is invisible outside the predicate.
                if isinstance(root, ast.Name) and root.id not in tainted:
                    return
                name = dotted_name(receiver)
                target = f"{name}.{method}" if name else f"<expr>.{method}"
                yield self.finding(
                    module,
                    node,
                    qualname,
                    f"mutating-call:{target}",
                    f"predicate `{qualname}` calls mutating method `{target}()`",
                )


# ---------------------------------------------------------------------------
# VX003 — counter discipline


@register_rule
class CounterDisciplineRule(Rule):
    """VX003: counter mutations use literal keys declared in a COUNTERS schema."""

    id = "VX003"
    title = "counter-discipline"
    scope = SIMULATOR_SCOPE

    def __init__(self) -> None:
        #: union of every declared per-component schema ("Class.key" attribution
        #: is by declaration site; validation uses the union because charging a
        #: sibling component's counters — e.g. the timing core replaying a
        #: refusal storm into the dcache — is legitimate and still typo-prone).
        self.declared: set[str] = set()
        self.declaring_classes: dict[str, set[str]] = {}

    def collect(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    keys = self._schema_literal(stmt)
                    if keys is not None:
                        self.declared.update(keys)
                        self.declaring_classes.setdefault(node.name, set()).update(keys)

    @staticmethod
    def _schema_literal(stmt: ast.stmt) -> set[str] | None:
        """Keys of a class-level ``COUNTERS = frozenset({...})`` declaration."""
        if isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        else:
            return None
        if not (isinstance(target, ast.Name) and target.id == "COUNTERS") or value is None:
            return None
        if isinstance(value, ast.Call) and dotted_name(value.func) == "frozenset" and value.args:
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            keys = set()
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    keys.add(element.value)
            return keys
        return None

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method not in ("incr", "set"):
                    continue
                receiver = dotted_name(node.func.value) or ""
                if "perf" not in receiver.split("."):
                    continue
                symbol = enclosing_symbol(module, node)
                if not node.args:
                    continue
                yield from self._check_key(module, node, node.args[0], symbol, f".{method}()")
            elif isinstance(node, (ast.AugAssign, ast.Assign)):
                targets = [node.target] if isinstance(node, ast.AugAssign) else node.targets
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    container = dotted_name(target.value) or ""
                    leaf = container.rsplit(".", 1)[-1]
                    if not leaf.endswith("counters") and leaf != "counters":
                        continue
                    symbol = enclosing_symbol(module, node)
                    if isinstance(node, ast.Assign):
                        yield self.finding(
                            module,
                            node,
                            symbol,
                            f"assign:{container}",
                            f"plain assignment into counter dict `{container}` — "
                            "counters are monotonic; use `+=`/`-=` (or PerfCounters.set "
                            "for sanctioned absolute writes)",
                        )
                        continue
                    if not isinstance(node.op, (ast.Add, ast.Sub)):
                        yield self.finding(
                            module,
                            node,
                            symbol,
                            f"op:{container}",
                            f"counter dict `{container}` mutated with an operator other "
                            "than `+=`/`-=`",
                        )
                        continue
                    yield from self._check_key(
                        module, node, target.slice, symbol, f"`{container}[...]`"
                    )

    def _check_key(
        self,
        module: ModuleInfo,
        node: ast.AST,
        key: ast.AST,
        symbol: str,
        where: str,
    ) -> Iterator[Finding]:
        keys = _literal_str_keys(key)
        if keys is None:
            detail = dotted_name(key) or ast.dump(key)[:40]
            yield self.finding(
                module,
                node,
                symbol,
                f"non-literal:{detail}",
                f"counter key in {where} is not a string literal (`{detail}`): the "
                "schema check cannot protect against typos here",
            )
            return
        for value in keys:
            if value not in self.declared:
                yield self.finding(
                    module,
                    node,
                    symbol,
                    f"undeclared:{value}",
                    f"counter key {value!r} is not declared in any component COUNTERS "
                    "schema — a typo here would silently fork the scalar/batched "
                    "counter sets",
                )


# ---------------------------------------------------------------------------
# VX004 — hot-path allocation


_NUMPY_CONSTRUCTORS = {
    "array",
    "asarray",
    "asanyarray",
    "zeros",
    "ones",
    "empty",
    "full",
    "arange",
    "frombuffer",
    "fromiter",
    "concatenate",
    "stack",
}


@register_rule
class HotPathAllocationRule(Rule):
    """VX004: ``@hot_path`` functions stay allocation-light."""

    id = "VX004"
    title = "hot-path-allocation"
    scope = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for qualname, func in iter_functions(module.tree):
            if "hot_path" not in decorator_names(func):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    kind = type(node).__name__
                    yield self.finding(
                        module,
                        node,
                        qualname,
                        f"comp:{kind}:{node.lineno - func.lineno}",
                        f"{kind} inside @hot_path `{qualname}`: builds a fresh object "
                        "(and a frame, for comprehensions) on a per-attempt path",
                    )
                elif isinstance(node, ast.Lambda):
                    yield self.finding(
                        module,
                        node,
                        qualname,
                        f"lambda:{node.lineno - func.lineno}",
                        f"lambda inside @hot_path `{qualname}`: allocates a function "
                        "object per call",
                    )
                elif isinstance(node, ast.JoinedStr):
                    yield self.finding(
                        module,
                        node,
                        qualname,
                        f"fstring:{node.lineno - func.lineno}",
                        f"f-string inside @hot_path `{qualname}`: formats and allocates "
                        "on the hot path (move to the error/cold branch)",
                    )
                elif isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name is not None and "." in name:
                        root, _, leaf = name.rpartition(".")
                        if root in ("np", "numpy") and leaf in _NUMPY_CONSTRUCTORS:
                            yield self.finding(
                                module,
                                node,
                                qualname,
                                f"nparray:{name}",
                                f"fresh numpy array (`{name}`) inside @hot_path "
                                f"`{qualname}`: per-call array allocation dominates at "
                                "attempt rates — precompute or reuse a buffer",
                            )


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

_NP_DTYPE_WRAPPERS = {
    "uint32",
    "int32",
    "uint8",
    "int8",
    "uint16",
    "int16",
    "uint64",
    "int64",
    "intp",
    "float32",
    "float64",
}


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


@register_rule
class DtypeDisciplineRule(Rule):
    """VX005: no bare-int arithmetic into lane vectors; explicit constructor dtypes."""

    id = "VX005"
    title = "dtype-discipline"
    scope = ("repro.arch", "repro.engine", "repro.mem")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for qualname, func in iter_functions(module.tree):
            lane_names = self._lane_vector_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    yield from self._check_constructor(module, qualname, node)
                elif isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
                    yield from self._check_binop(module, qualname, node, lane_names)
        # Module-level constructor calls (outside any function).
        function_spans = [
            (f.lineno, getattr(f, "end_lineno", f.lineno)) for _, f in iter_functions(module.tree)
        ]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                line = node.lineno
                if not any(start <= line <= end for start, end in function_spans):
                    yield from self._check_constructor(module, "<module>", node)

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

    def _check_constructor(
        self, module: ModuleInfo, qualname: str, node: ast.Call
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None or "." not in name:
            return
        root, _, leaf = name.rpartition(".")
        if root not in ("np", "numpy") or leaf not in (
            "array",
            "asarray",
            "asanyarray",
            "zeros",
            "ones",
            "empty",
            "full",
            "arange",
            "frombuffer",
            "fromiter",
        ):
            return
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        # Positional dtype: np.zeros(shape, dtype) / np.full(shape, fill, dtype) ...
        positional_dtype_index = {"zeros": 1, "ones": 1, "empty": 1, "array": 1, "asarray": 1,
                                  "asanyarray": 1, "full": 2, "fromiter": 1}.get(leaf)
        if positional_dtype_index is not None and len(node.args) > positional_dtype_index:
            return
        yield self.finding(
            module,
            node,
            qualname,
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
                yield self.finding(
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
# VX006 — mutable-state inventory


#: Components whose state the inventory catalogues: the snapshot scope a
#: future checkpoint/restore must cover.
STATE_SCOPE = ("repro.core", "repro.cache", "repro.mem")

INVENTORY_PATH = Path(__file__).with_name("state_inventory.json")


def collect_state(modules: list[ModuleInfo]) -> dict[str, list[str]]:
    """``{"module.Class": [attr, ...]}`` for every class in the state scope."""
    inventory: dict[str, list[str]] = {}
    for module in modules:
        if not module.in_scope(STATE_SCOPE):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: set[str] = set()
            for child in ast.walk(node):
                target_nodes: list[ast.AST] = []
                if isinstance(child, ast.Assign):
                    target_nodes = list(child.targets)
                elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                    target_nodes = [child.target]
                for target in target_nodes:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
            if attrs:
                inventory[f"{module.module}.{node.name}"] = sorted(attrs)
    return dict(sorted(inventory.items()))


def load_inventory(path: Path = INVENTORY_PATH) -> dict[str, list[str]]:
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload.get("components", {})


def write_inventory(modules: list[ModuleInfo], path: Path = INVENTORY_PATH) -> dict[str, list[str]]:
    components = collect_state(modules)
    payload = {
        "_comment": (
            "Generated by `python -m repro.analysis --write-state-inventory`. "
            "Every instance attribute a simulator component assigns, per class; "
            "the checkpoint/restore snapshot scope. VX006 fails when code and "
            "inventory drift."
        ),
        "components": components,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return components


@register_rule
class StateInventoryRule(Rule):
    """VX006: component state must match the committed inventory."""

    id = "VX006"
    title = "state-inventory"
    scope = STATE_SCOPE

    def __init__(self, inventory: dict[str, list[str]] | None = None) -> None:
        self.inventory = load_inventory() if inventory is None else inventory

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        actual = collect_state([module])
        for component, attrs in actual.items():
            declared = set(self.inventory.get(component, []))
            if component not in self.inventory:
                yield self.finding(
                    module,
                    module.tree,
                    component.rsplit(".", 1)[-1],
                    f"unknown-component:{component}",
                    f"component `{component}` is missing from the state inventory "
                    "(run `python -m repro.analysis --write-state-inventory`)",
                )
                continue
            for attr in attrs:
                if attr not in declared:
                    node = self._attr_node(module, component.rsplit(".", 1)[-1], attr)
                    yield self.finding(
                        module,
                        node if node is not None else module.tree,
                        f"{component.rsplit('.', 1)[-1]}.{attr}",
                        f"undeclared:{component}.{attr}",
                        f"`self.{attr}` in `{component}` is not in the committed state "
                        "inventory — new mutable state must be catalogued (it is the "
                        "checkpoint/restore snapshot scope)",
                    )
            stale = declared - set(attrs)
            for attr in sorted(stale):
                yield self.finding(
                    module,
                    module.tree,
                    f"{component.rsplit('.', 1)[-1]}.{attr}",
                    f"stale:{component}.{attr}",
                    f"inventory lists `{component}.{attr}` but the code no longer "
                    "assigns it — regenerate the inventory",
                )

    @staticmethod
    def _attr_node(module: ModuleInfo, class_name: str, attr: str) -> ast.AST | None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for child in ast.walk(node):
                    if (
                        isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                        and any(
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            and t.attr == attr
                            for t in (
                                child.targets
                                if isinstance(child, ast.Assign)
                                else [child.target]
                            )
                        )
                    ):
                        return child
        return None


# ---------------------------------------------------------------------------
# VX007 — snapshot coverage


#: Inventory classes legitimately outside the Snapshotable protocol.  Each
#: is either construction-time wiring rebuilt by ``__init__`` (the hierarchy
#: ports), a transient helper that never lives across a pause boundary (the
#: memory word cursor, the per-instruction warp emulator facade), or an
#: exception type.  Anything else in the state scope must serialize.
SNAPSHOT_EXEMPT = frozenset(
    {
        "repro.cache.hierarchy._CachePort",
        "repro.cache.hierarchy._DramPort",
        "repro.core.emulator.SimulationLimitExceeded",
        "repro.core.emulator.SimulationStalled",
        "repro.core.emulator.WarpEmulator",
        "repro.mem.memory.WordCursor",
    }
)

#: Method-name prefixes counted as serializer code.  Helper pairs like
#: ``_snapshot_global_barriers``/``_restore_global_barriers`` count, so a
#: class may split its serializer without losing coverage credit.
_SNAPSHOT_METHOD_PREFIXES = ("snapshot", "restore")


def _is_snapshot_method(name: str) -> bool:
    return name.lstrip("_").startswith(_SNAPSHOT_METHOD_PREFIXES)


@register_rule
class SnapshotCoverageRule(Rule):
    """VX007: inventory attributes are serialized or explicitly excluded."""

    id = "VX007"
    title = "snapshot-coverage"
    scope = STATE_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        actual = collect_state([module])
        class_defs = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for component, attrs in actual.items():
            class_name = component.rsplit(".", 1)[-1]
            node = class_defs.get(class_name)
            if node is None:  # pragma: no cover - collect_state saw it, so we will
                continue
            methods = [
                child
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_snapshot_method(child.name)
            ]
            if not methods:
                if component in SNAPSHOT_EXEMPT:
                    continue
                yield self.finding(
                    module,
                    node,
                    class_name,
                    f"no-serializer:{component}",
                    f"`{component}` owns mutable state but defines no "
                    "snapshot()/restore() methods — implement the Snapshotable "
                    "protocol or add it to SNAPSHOT_EXEMPT with a justification",
                )
                continue
            covered = self._excluded_attrs(node)
            for method in methods:
                covered |= self._mentioned_attrs(method)
            for attr in attrs:
                if attr not in covered:
                    yield self.finding(
                        module,
                        self._attr_site(node, attr) or node,
                        f"{class_name}.{attr}",
                        f"uncovered:{component}.{attr}",
                        f"`self.{attr}` in `{component}` is not referenced by any "
                        "snapshot*/restore* method and not declared in "
                        "SNAPSHOT_EXCLUDED — a checkpoint would silently drop it "
                        "and the restored run would diverge",
                    )

    @staticmethod
    def _excluded_attrs(node: ast.ClassDef) -> set[str]:
        """String entries of a class-level ``SNAPSHOT_EXCLUDED`` literal."""
        excluded: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == "SNAPSHOT_EXCLUDED"):
                continue
            if value is None:
                continue
            if (
                isinstance(value, ast.Call)
                and dotted_name(value.func) == "frozenset"
                and value.args
            ):
                value = value.args[0]
            if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        excluded.add(element.value)
        return excluded

    @staticmethod
    def _mentioned_attrs(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Attributes a serializer method handles.

        Counts ``self.x`` accesses and bare string literals: payload keys
        conventionally match attribute names (modulo a leading underscore),
        so ``{"next": self._next}`` credits both spellings.
        """
        mentioned: set[str] = set()
        for child in ast.walk(method):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            ):
                mentioned.add(child.attr)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                mentioned.add(child.value)
                mentioned.add(f"_{child.value}")
        return mentioned

    @staticmethod
    def _attr_site(node: ast.ClassDef, attr: str) -> ast.AST | None:
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign) else [child.target]
                )
                if any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    and t.attr == attr
                    for t in targets
                ):
                    return child
        return None


# ---------------------------------------------------------------------------
# VX008 — guarded trace emission


@register_rule
class TraceEmissionGuardRule(Rule):
    """VX008: ``.emit()`` on a trace receiver inside ``@hot_path`` needs a guard.

    The observability contract is that a tracing-off simulation pays one
    prebound ``None`` comparison per emission site and nothing else.  That
    only holds when every hot-path emission is lexically inside an ``if``
    whose test mentions the receiver — ``trace = self.trace`` followed by
    ``if trace is not None: trace.emit(...)`` — because the emit call's
    argument tuple (and usually a payload dict) is otherwise built on every
    attempt even when no bus is attached.
    """

    id = "VX008"
    title = "trace-emission-guard"
    scope = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for qualname, func in iter_functions(module.tree):
            if "hot_path" not in decorator_names(func):
                continue
            for stmt in func.body:
                yield from self._scan(module, qualname, func, stmt, frozenset())

    def _scan(
        self,
        module: ModuleInfo,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        guarded: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs get their own scan if (and only if) they are hot.
            return
        if isinstance(node, ast.If):
            names = frozenset(
                name
                for sub in ast.walk(node.test)
                if isinstance(sub, (ast.Name, ast.Attribute))
                and (name := dotted_name(sub)) is not None
            )
            for child in ast.iter_child_nodes(node):
                if child is node.test:
                    yield from self._scan(module, qualname, func, child, guarded)
                else:
                    yield from self._scan(module, qualname, func, child, guarded | names)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            receiver = dotted_name(node.func.value)
            if (
                receiver is not None
                and "trace" in receiver.rsplit(".", 1)[-1]
                and receiver not in guarded
            ):
                yield self.finding(
                    module,
                    node,
                    qualname,
                    f"unguarded:{receiver}:{node.lineno - func.lineno}",
                    f"`{receiver}.emit(...)` inside @hot_path `{qualname}` is not "
                    f"lexically inside an `if` testing `{receiver}` — with tracing "
                    "off this builds the argument tuple (and payload) per attempt; "
                    "hoist the bus into a local and guard with `if <bus> is not "
                    "None:`",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._scan(module, qualname, func, child, guarded)
