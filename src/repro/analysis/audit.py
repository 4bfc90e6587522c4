"""rispp-audit: the AST-level source-contract analyzer (``repro audit``).

The platform's verification story — byte-identical seeded chaos
reports, trace-equivalent backends, replayable golden traces — rests on
implementation contracts that no runtime test can see from the outside:
model code must never consult the host clock or an unseeded entropy
source, every metric name must resolve against the declared catalogue,
every ``diag()`` must use a registered rule ID, and compute-backend
kernels must never mutate their inputs.  This module machine-checks
those contracts over the source tree itself, reusing the Diagnostic /
rule-catalogue machinery every other analyser shares.

Rule groups (family ``audit``, catalogued in ``docs/analysis.md``):

* **determinism sanitizer** (AUD001–AUD004) — unseeded randomness and
  entropy sources, wall-clock reads outside the
  :mod:`repro.obs.clock` seam, environment reads, and order-sensitive
  iteration over unordered ``set`` values;
* **obs contract** (AUD005–AUD006) — every instrumentation site
  (``registry.counter("name")``, ``.labels(...)``) must statically
  resolve against :data:`repro.obs.catalogue.METRICS` (name, metric
  type, label names, declared label values), and every declared metric
  must be instrumented somewhere (dead-catalogue-entry detection);
* **rules contract** (AUD007–AUD008) — every rule-ID literal (and every
  ``diag()`` first argument) must be registered in
  :mod:`repro.analysis.rules`, and every registered rule must be
  referenced by some checker;
* **backend purity** (AUD009–AUD010) — a lightweight attribute-store /
  alias pass over :class:`repro.core.backend.ComputeBackend` subclasses
  proving kernel methods never mutate their arguments or undeclared
  state (instance attributes assigned in ``__init__`` and module names
  listed in a module-level ``__audit_caches__`` frozenset are the
  declared caches).

Intentional exceptions live in a checked-in suppression baseline
(``audit_baseline.json`` at the repository root): entries match on
``(rule, path, symbol)`` so they survive line churn, every entry must
carry a reason, and stale entries are flagged (AUD011) so the baseline
can only shrink silently, never grow.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic, DiagnosticReport
from .rules import RULES, diag

__all__ = [
    "AuditResult",
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "Suppression",
    "audit_source",
    "package_root",
    "run_audit",
]

#: Name of the checked-in suppression baseline at the repository root.
DEFAULT_BASELINE_NAME = "audit_baseline.json"

#: Path suffixes (posix) allowed to read the host clock — the seam.
CLOCK_SEAM_SUFFIXES: tuple[str, ...] = ("obs/clock.py",)

def _family_prefixes() -> tuple[str, ...]:
    """Registered rule-ID prefixes (``TRC``, ``AUD``, ...), longest first."""
    prefixes: set[str] = set()
    for rid in RULES:
        match = re.match(r"[A-Z]+", rid)
        if match is not None:
            prefixes.add(match.group(0))
    return tuple(sorted(prefixes, key=lambda p: (-len(p), p)))


#: A string literal shaped ``<known-prefix>NNN`` must name a registered
#: rule (AUD007).
_RULE_SHAPE = re.compile(r"(?:" + "|".join(_family_prefixes()) + r")\d{3}")

#: ``random`` module attributes that are fine: seeded-instance
#: construction (the zero-argument call is caught separately).
_RANDOM_ALLOWED = frozenset({"Random"})
#: ``numpy.random`` attributes that are fine when called with a seed.
_NP_RANDOM_ALLOWED = frozenset({"default_rng"})
#: ``datetime`` attributes that read the wall clock.
_DATETIME_CLOCK_ATTRS = frozenset({"now", "utcnow", "today"})
#: Modules watched by the determinism sanitizer (canonical names).
_WATCHED_MODULES = frozenset(
    {"random", "secrets", "uuid", "time", "os", "datetime", "numpy"}
)

#: Callables whose consumption of an iterable is order-insensitive.
_ORDER_FREE_CALLS = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted"}
)
#: Callables that materialise their argument's iteration order.
_ORDER_CASTS = frozenset({"list", "tuple", "enumerate", "iter"})
#: Set methods returning another set (propagate set-ness).
_SET_PRODUCERS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "sort", "reverse", "fill",
        "intersection_update", "difference_update", "symmetric_difference_update",
    }
)
#: Instrument-factory method names of the obs registry.
_INSTRUMENT_KINDS = frozenset({"counter", "gauge", "histogram"})


# -- baseline -----------------------------------------------------------------


@dataclass(frozen=True)
class Suppression:
    """One intentional, documented exception in the baseline."""

    rule_id: str
    path: str
    symbol: str
    reason: str

    def matches(self, d: Diagnostic) -> bool:
        return (
            d.rule_id == self.rule_id
            and d.subject == self.path
            and str(d.context.get("symbol", "")) == self.symbol
        )

    def to_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "symbol": self.symbol,
            "reason": self.reason,
        }


@dataclass
class Baseline:
    """The checked-in suppression set (``audit_baseline.json``)."""

    entries: list[Suppression] = field(default_factory=list)
    path: str = ""

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        entries: list[Suppression] = []
        for raw in data.get("suppressions", ()):
            if not isinstance(raw, Mapping):
                raise ValueError(f"baseline entry is not an object: {raw!r}")
            missing = {"rule", "path", "symbol", "reason"} - set(raw)
            if missing:
                raise ValueError(
                    f"baseline entry {raw!r} lacks {sorted(missing)} "
                    "(every suppression must be documented)"
                )
            if not str(raw["reason"]).strip():
                raise ValueError(
                    f"baseline entry {raw!r} has an empty reason"
                )
            entries.append(
                Suppression(
                    rule_id=str(raw["rule"]),
                    path=str(raw["path"]),
                    symbol=str(raw["symbol"]),
                    reason=str(raw["reason"]),
                )
            )
        return cls(entries=entries, path=str(path))

    def apply(
        self, report: DiagnosticReport
    ) -> tuple[DiagnosticReport, int, list[Suppression]]:
        """(kept findings, suppressed count, stale entries)."""
        used: set[Suppression] = set()
        kept: list[Diagnostic] = []
        for d in report:
            hit = next((s for s in self.entries if s.matches(d)), None)
            if hit is None:
                kept.append(d)
            else:
                used.add(hit)
        stale = [s for s in self.entries if s not in used]
        return DiagnosticReport(kept), len(report) - len(kept), stale


# -- per-file facts for the cross-file checks ---------------------------------


@dataclass
class FileFacts:
    """What one module contributes to the whole-tree contracts."""

    path: str
    #: Metric names used at instrumentation sites.
    metric_uses: set[str] = field(default_factory=set)
    #: Rule-ID-shaped string literals appearing anywhere in the module.
    rule_literals: set[str] = field(default_factory=set)


# -- helpers ------------------------------------------------------------------


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _root_name(node: ast.expr) -> str | None:
    """The root ``Name`` of an attribute/subscript/call chain, if any."""
    while True:
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Starred):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def _literal_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _metric_catalogue() -> Mapping[str, object]:
    from ..obs.catalogue import METRICS

    return METRICS


class _Scope:
    """One lexical scope: name bindings with set-ness, and instruments.

    ``bindings`` maps every name assigned in the scope to whether its
    last-seen value was set-typed; tracking non-set bindings too lets
    the lexical lookup stop at shadowing locals instead of falling
    through to an outer set-typed constant (false-positive guard).
    """

    __slots__ = ("name", "bindings", "instruments")

    def __init__(self, name: str):
        self.name = name
        self.bindings: dict[str, bool] = {}
        self.instruments: dict[str, object] = {}


# -- the per-module analyzer --------------------------------------------------


class _ModuleAuditor(ast.NodeVisitor):
    """Single-pass visitor emitting AUD001–AUD005 and AUD007 findings."""

    def __init__(
        self,
        relpath: str,
        report: DiagnosticReport,
        facts: FileFacts,
    ):
        self.relpath = relpath
        self.report = report
        self.facts = facts
        self.clock_seam = any(
            relpath.endswith(suffix) for suffix in CLOCK_SEAM_SUFFIXES
        )
        #: Alias -> canonical module name for watched imports.
        self.modules: dict[str, str] = {}
        self.scopes: list[_Scope] = [_Scope("<module>")]
        #: Attribute nodes already judged as part of an outer chain.
        self._consumed: set[int] = set()
        #: Comprehension nodes consumed by an order-insensitive call.
        self._order_free: set[int] = set()

    # -- emission ---------------------------------------------------------

    def symbol(self) -> str:
        parts = [s.name for s in self.scopes[1:]]
        return ".".join(parts) if parts else "<module>"

    def emit(
        self, rule_id: str, message: str, node: ast.AST, **context: object
    ) -> None:
        line = getattr(node, "lineno", 0)
        self.report.append(
            diag(
                rule_id,
                message,
                subject=self.relpath,
                location=f"line {line}",
                line=line,
                symbol=self.symbol(),
                **context,
            )
        )

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root in _WATCHED_MODULES:
                self.modules[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0 and module in _WATCHED_MODULES:
            for alias in node.names:
                name, bound = alias.name, alias.asname or alias.name
                if module == "time" and not self.clock_seam:
                    self.emit(
                        "AUD002",
                        f"wall-clock primitive 'time.{name}' imported "
                        "directly; route host-time reads through "
                        "repro.obs.clock",
                        node,
                    )
                elif module == "random" or module == "secrets":
                    if not (module == "random" and name in _RANDOM_ALLOWED):
                        self.emit(
                            "AUD001",
                            f"entropy primitive '{module}.{name}' imported "
                            "directly; model paths must use seeded "
                            "random.Random instances",
                            node,
                        )
                elif module == "uuid" and name in ("uuid1", "uuid4"):
                    self.emit(
                        "AUD001",
                        f"'uuid.{name}' draws from the process entropy "
                        "pool; seeded model paths cannot use it",
                        node,
                    )
                elif module == "os" and name in ("environ", "getenv"):
                    self.emit(
                        "AUD003",
                        f"'os.{name}' imported directly; environment "
                        "reads need an allowlisted seam or a baseline "
                        "suppression",
                        node,
                    )
                elif module == "os" and name == "urandom":
                    self.emit(
                        "AUD001",
                        "'os.urandom' is an entropy source; seeded model "
                        "paths cannot use it",
                        node,
                    )
                elif module == "datetime":
                    # ``from datetime import datetime`` binds the class;
                    # track it so ``datetime.now()`` resolves (AUD002).
                    self.modules[bound] = "datetime"
        self.generic_visit(node)

    # -- scopes and assignments -------------------------------------------

    def _push(self, name: str) -> None:
        self.scopes.append(_Scope(name))

    def _pop(self) -> None:
        self.scopes.pop()

    def _bind(self, name: str, setish: bool) -> None:
        self.scopes[-1].bindings[name] = setish

    def _bind_target(self, target: ast.expr, setish: bool) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, setish)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, False)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, False)

    def _lookup_setish(self, name: str) -> bool:
        for scope in reversed(self.scopes):
            if name in scope.bindings:
                return scope.bindings[name]
        return False

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        self._push(node.name)
        args = node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self._bind(arg.arg, False)
        self.generic_visit(node)
        self._pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._push(node.name)
        self.generic_visit(node)
        self._pop()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name is not None:
            self._bind(node.name, False)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._bind_target(node.optional_vars, False)
        self.generic_visit(node)

    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._lookup_setish(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_setish(node.left) or self._is_setish(node.right)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_PRODUCERS
                and self._is_setish(node.func.value)
            ):
                return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        setish = self._is_setish(node.value)
        spec = self._instrument_spec(node.value)
        scope = self.scopes[-1]
        for target in node.targets:
            self._bind_target(target, setish)
            if isinstance(target, ast.Name):
                if spec is not None:
                    scope.instruments[target.id] = spec
                else:
                    scope.instruments.pop(target.id, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind_target(node.target, self._is_setish(node.value))

    # -- AUD004: order-sensitive set iteration ----------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_setish(node.iter):
            self.emit(
                "AUD004",
                "for-loop iterates an unordered set; iteration order is "
                "interpreter-dependent — sort first (sorted(...)) or use "
                "an ordered container",
                node,
            )
        self._bind_target(node.target, False)
        self.generic_visit(node)

    def _check_comprehension(
        self, node: "ast.ListComp | ast.GeneratorExp | ast.DictComp"
    ) -> None:
        for gen in node.generators:
            self._bind_target(gen.target, False)
        if id(node) in self._order_free:
            return
        for gen in node.generators:
            if self._is_setish(gen.iter):
                self.emit(
                    "AUD004",
                    "comprehension iterates an unordered set into an "
                    "order-preserving result; sort first (sorted(...))",
                    node,
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    # -- calls: determinism, obs contract, rules contract -----------------

    def _instrument_spec(self, node: ast.expr) -> object | None:
        """The MetricSpec produced by ``<x>.counter("name")``-style calls."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _INSTRUMENT_KINDS
        ):
            return None
        name = _literal_str(node.args[0] if node.args else None)
        if name is None:
            return None
        catalogue = _metric_catalogue()
        return catalogue.get(name)

    def _check_instrument_call(self, node: ast.Call, kind: str) -> None:
        name = _literal_str(node.args[0] if node.args else None)
        if name is None:
            return
        self.facts.metric_uses.add(name)
        catalogue = _metric_catalogue()
        spec = catalogue.get(name)
        if spec is None:
            self.emit(
                "AUD005",
                f"metric {name!r} is not declared in the repro.obs "
                "catalogue; instrumentation sites must resolve statically",
                node,
                metric=name,
            )
            return
        declared_type = getattr(spec, "type", kind)
        if declared_type != kind:
            self.emit(
                "AUD005",
                f"metric {name!r} is declared as a {declared_type}, but "
                f"this site creates a {kind}",
                node,
                metric=name,
            )

    def _check_labels_call(self, node: ast.Call) -> None:
        assert isinstance(node.func, ast.Attribute)
        receiver = node.func.value
        spec: object | None = None
        if isinstance(receiver, ast.Call):
            spec = self._instrument_spec(receiver)
        elif isinstance(receiver, ast.Name):
            for scope in reversed(self.scopes):
                if receiver.id in scope.instruments:
                    spec = scope.instruments[receiver.id]
                    break
        if spec is None:
            return
        if any(kw.arg is None for kw in node.keywords):
            return  # **splat: not statically resolvable
        declared = tuple(getattr(spec, "labels", ()))
        metric = str(getattr(spec, "name", "?"))
        given = tuple(sorted(kw.arg for kw in node.keywords if kw.arg))
        if given != tuple(sorted(declared)):
            self.emit(
                "AUD005",
                f"metric {metric!r} declares labels {declared}, but this "
                f"site binds {given}",
                node,
                metric=metric,
            )
            return
        label_values = getattr(spec, "label_values", {})
        for kw in node.keywords:
            value = _literal_str(kw.value)
            allowed = label_values.get(kw.arg, ()) if kw.arg else ()
            if value is not None and allowed and value not in allowed:
                self.emit(
                    "AUD005",
                    f"metric {metric!r} label {kw.arg!r} declares values "
                    f"{tuple(allowed)}, got {value!r}",
                    node,
                    metric=metric,
                )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Order-insensitive consumers exempt their comprehension argument.
        if isinstance(func, ast.Name) and func.id in _ORDER_FREE_CALLS:
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    self._order_free.add(id(arg))
        # Order-materialising casts over a set are AUD004 sinks.
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_CASTS
            and node.args
            and self._is_setish(node.args[0])
        ):
            self.emit(
                "AUD004",
                f"{func.id}() materialises the iteration order of an "
                "unordered set; sort first (sorted(...))",
                node,
            )
        if isinstance(func, ast.Attribute):
            if func.attr == "join" and node.args and self._is_setish(node.args[0]):
                self.emit(
                    "AUD004",
                    "str.join over an unordered set produces an "
                    "interpreter-dependent string; sort first",
                    node,
                )
            if func.attr in _INSTRUMENT_KINDS:
                self._check_instrument_call(node, func.attr)
            if func.attr == "labels":
                self._check_labels_call(node)
        # diag() with a literal rule ID must be registered.  IDs shaped
        # like a known family are handled by the literal check below
        # (exactly one finding per site); this catches foreign shapes.
        is_diag = (isinstance(func, ast.Name) and func.id == "diag") or (
            isinstance(func, ast.Attribute) and func.attr == "diag"
        )
        if is_diag:
            rid = _literal_str(node.args[0] if node.args else None)
            if rid is not None:
                self.facts.rule_literals.add(rid)
                if rid not in RULES and not _RULE_SHAPE.fullmatch(rid):
                    self.emit(
                        "AUD007",
                        f"diag() uses rule ID {rid!r}, which is not "
                        "registered in repro.analysis.rules",
                        node,
                        rule=rid,
                    )
        # Unseeded constructors: random.Random() / np.random.default_rng()
        chain = _attr_chain(func) if isinstance(func, ast.Attribute) else None
        if chain is not None and not node.args and not node.keywords:
            module = self.modules.get(chain[0])
            if (
                module == "random"
                and len(chain) == 2
                and chain[1] in _RANDOM_ALLOWED
            ) or (
                module == "numpy"
                and len(chain) == 3
                and chain[1] == "random"
                and chain[2] in _NP_RANDOM_ALLOWED
            ):
                self.emit(
                    "AUD001",
                    f"{'.'.join(chain)}() without a seed draws from the "
                    "process entropy pool; pass an explicit seed",
                    node,
                )
        self.generic_visit(node)

    # -- attribute chains: clock / entropy / environment ------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) in self._consumed:
            self.generic_visit(node)
            return
        chain = _attr_chain(node)
        if chain is not None:
            # Judge the chain once, at its outermost attribute.
            inner = node.value
            while isinstance(inner, ast.Attribute):
                self._consumed.add(id(inner))
                inner = inner.value
            self._check_chain(chain, node)
        self.generic_visit(node)

    def _check_chain(self, chain: list[str], node: ast.AST) -> None:
        module = self.modules.get(chain[0])
        if module is None or len(chain) < 2:
            return
        attr = chain[1]
        dotted = ".".join(chain)
        if module == "time":
            if not self.clock_seam:
                self.emit(
                    "AUD002",
                    f"direct wall-clock read {dotted!r}; route host-time "
                    "reads through the repro.obs.clock seam",
                    node,
                )
        elif module == "datetime":
            if chain[-1] in _DATETIME_CLOCK_ATTRS and not self.clock_seam:
                self.emit(
                    "AUD002",
                    f"direct wall-clock read {dotted!r}; route host-time "
                    "reads through the repro.obs.clock seam",
                    node,
                )
        elif module == "random":
            if attr not in _RANDOM_ALLOWED:
                self.emit(
                    "AUD001",
                    f"{dotted!r} uses the process-global (unseeded) RNG; "
                    "model paths must thread a seeded random.Random",
                    node,
                )
        elif module == "secrets":
            self.emit(
                "AUD001",
                f"{dotted!r} is an entropy source; seeded model paths "
                "cannot use it",
                node,
            )
        elif module == "uuid":
            if attr in ("uuid1", "uuid4"):
                self.emit(
                    "AUD001",
                    f"{dotted!r} draws from the process entropy pool; "
                    "seeded model paths cannot use it",
                    node,
                )
        elif module == "os":
            if attr == "urandom":
                self.emit(
                    "AUD001",
                    "'os.urandom' is an entropy source; seeded model "
                    "paths cannot use it",
                    node,
                )
            elif attr in ("environ", "getenv"):
                self.emit(
                    "AUD003",
                    f"environment read {dotted!r}; configuration must "
                    "flow through explicit arguments or a baselined seam",
                    node,
                )
        elif module == "numpy":
            if attr == "random" and (
                len(chain) == 2 or chain[2] not in _NP_RANDOM_ALLOWED
            ):
                self.emit(
                    "AUD001",
                    f"{dotted!r} uses numpy's process-global RNG; use "
                    "numpy.random.default_rng(seed)",
                    node,
                )

    # -- rule-ID-shaped literals ------------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _RULE_SHAPE.fullmatch(node.value):
            self.facts.rule_literals.add(node.value)
            if node.value not in RULES:
                self.emit(
                    "AUD007",
                    f"rule-ID literal {node.value!r} is not registered in "
                    "repro.analysis.rules",
                    node,
                    rule=node.value,
                )


# -- backend purity (AUD009 / AUD010) -----------------------------------------


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _declared_module_caches(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__audit_caches__`` declaration."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__audit_caches__"
                for t in stmt.targets
            )
        ):
            names: set[str] = set()
            for literal in ast.walk(stmt.value):
                if isinstance(literal, ast.Constant) and isinstance(
                    literal.value, str
                ):
                    names.add(literal.value)
            return names
    return set()


def _backend_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Classes deriving (transitively, within the module) from ComputeBackend."""
    classes = [s for s in tree.body if isinstance(s, ast.ClassDef)]
    known = {"ComputeBackend"}
    found: dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in found:
                continue
            bases = {b.id for b in cls.bases if isinstance(b, ast.Name)} | {
                b.attr for b in cls.bases if isinstance(b, ast.Attribute)
            }
            if bases & known:
                found[cls.name] = cls
                known.add(cls.name)
                changed = True
    return list(found.values())


def _init_declared_attrs(cls: ast.ClassDef) -> set[str]:
    attrs: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            self_name = stmt.args.args[0].arg if stmt.args.args else "self"
            for node in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        attrs.add(target.attr)
    return attrs


class _KernelPurity:
    """Alias-tracking walk of one backend kernel method."""

    def __init__(
        self,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        declared_attrs: set[str],
        module_names: set[str],
        module_caches: set[str],
        emit: "_Emitter",
    ):
        args = fn.args
        self.cls = cls
        self.fn = fn
        self.emit = emit
        self.declared_attrs = declared_attrs
        self.module_names = module_names
        self.module_caches = module_caches
        positional = [a.arg for a in args.posonlyargs + args.args]
        self.self_name = positional[0] if positional else "self"
        params = positional[1:] + [a.arg for a in args.kwonlyargs]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        #: Names aliasing an input argument (or an element of one).
        self.aliases: set[str] = set(params)
        #: Names aliasing internal (self-derived) state.
        self.self_derived: set[str] = set()
        #: Every locally bound name.
        self.locals: set[str] = set(params) | {self.self_name}

    # -- classification ---------------------------------------------------

    def _is_alias_expr(self, node: ast.expr) -> bool:
        """Does this expression alias an input argument (or element)?"""
        if isinstance(node, ast.Name):
            return node.id in self.aliases
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self._is_alias_expr(node.value)
        return False

    def _is_self_derived(self, node: ast.expr) -> bool:
        root = _root_name(node)
        if root == self.self_name:
            return True
        return root is not None and root in self.self_derived

    # -- emission ----------------------------------------------------------

    def _where(self) -> str:
        return f"{self.cls.name}.{self.fn.name}"

    def _flag_arg_mutation(self, node: ast.AST, what: str) -> None:
        self.emit(
            "AUD009",
            f"backend kernel {self._where()} mutates its input "
            f"({what}); kernels must treat arguments as immutable",
            node,
            symbol=self._where(),
        )

    def _flag_state_write(self, node: ast.AST, what: str) -> None:
        self.emit(
            "AUD010",
            f"backend kernel {self._where()} writes undeclared state "
            f"({what}); declare caches in __init__ or __audit_caches__",
            node,
            symbol=self._where(),
        )

    # -- store / call checks ----------------------------------------------

    def _check_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)
            return
        if isinstance(target, ast.Name):
            return  # plain rebinding never mutates a value
        root = _root_name(target)
        if root is None:
            return
        if root in self.aliases:
            self._flag_arg_mutation(target, f"store into {root!r}")
        elif root == self.self_name:
            attr = self._first_attr(target)
            if attr is not None and attr not in self.declared_attrs:
                self._flag_state_write(target, f"self.{attr}")
        elif root in self.self_derived or root in self.locals:
            return
        elif root in self.module_names and root not in self.module_caches:
            self._flag_state_write(target, f"module global {root!r}")

    def _first_attr(self, node: ast.expr) -> str | None:
        """The attribute closest to the root: ``self.X[...].y`` -> ``X``."""
        attr: str | None = None
        while True:
            if isinstance(node, ast.Attribute):
                attr = node.attr
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            else:
                return attr

    def _check_calls(self, node: ast.AST) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            for kw in call.keywords:
                if kw.arg == "out" and self._is_alias_expr(kw.value):
                    self._flag_arg_mutation(
                        call, f"out= into {_root_name(kw.value)!r}"
                    )
            func = call.func
            if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
                continue
            root = _root_name(func.value)
            if root is None:
                continue
            if root in self.aliases:
                self._flag_arg_mutation(call, f"{root}.{func.attr}()")
            elif root == self.self_name:
                attr = self._first_attr(func.value)
                if attr is not None and attr not in self.declared_attrs:
                    self._flag_state_write(call, f"self.{attr}.{func.attr}()")
            elif root in self.self_derived or root in self.locals:
                continue
            elif root in self.module_names and root not in self.module_caches:
                self._flag_state_write(call, f"{root}.{func.attr}()")

    # -- statement walk ----------------------------------------------------

    def run(self) -> None:
        self._walk(self.fn.body)

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                # Element binding from an alias container keeps aliasing.
                self._bind(element, value)
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        self.locals.add(name)
        self.aliases.discard(name)
        self.self_derived.discard(name)
        if self._is_alias_expr(value):
            self.aliases.add(name)
        elif self._is_self_derived(value):
            self.self_derived.add(name)

    def _walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._check_calls(stmt.value)
                for target in stmt.targets:
                    self._check_store(target)
                    self._bind(target, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._check_calls(stmt.value)
                    self._check_store(stmt.target)
                    self._bind(stmt.target, stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                self._check_calls(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    if stmt.target.id in self.aliases:
                        self._flag_arg_mutation(
                            stmt.target,
                            f"augmented assignment to {stmt.target.id!r}",
                        )
                else:
                    self._check_store(stmt.target)
            elif isinstance(stmt, ast.Global):
                for name in stmt.names:
                    self.locals.add(name)
                    if name not in self.module_caches:
                        self._flag_state_write(
                            stmt, f"global statement for {name!r}"
                        )
            elif isinstance(stmt, ast.For):
                self._check_calls(stmt.iter)
                self._bind(stmt.target, stmt.iter)
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._check_calls(stmt.test)
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.If):
                self._check_calls(stmt.test)
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._check_calls(item.context_expr)
                self._walk(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body)
                for handler in stmt.handlers:
                    self._walk(handler.body)
                self._walk(stmt.orelse)
                self._walk(stmt.finalbody)
            elif isinstance(stmt, ast.FunctionDef):
                # Nested closures may mutate enclosing names: analyse the
                # body in the same alias context.
                self.locals.add(stmt.name)
                self._walk(stmt.body)
            elif isinstance(stmt, (ast.Return, ast.Expr, ast.Assert, ast.Raise)):
                for value in ast.iter_child_nodes(stmt):
                    if isinstance(value, ast.expr):
                        self._check_calls(value)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    self._check_store(target)


class _Emitter:
    """diag() wrapper shared by the purity pass (callable protocol)."""

    def __init__(self, relpath: str, report: DiagnosticReport):
        self.relpath = relpath
        self.report = report

    def __call__(
        self, rule_id: str, message: str, node: ast.AST, *, symbol: str = ""
    ) -> None:
        line = getattr(node, "lineno", 0)
        self.report.append(
            diag(
                rule_id,
                message,
                subject=self.relpath,
                location=f"line {line}",
                line=line,
                symbol=symbol or "<module>",
            )
        )


def _audit_backend_purity(
    tree: ast.Module, relpath: str, report: DiagnosticReport
) -> None:
    classes = _backend_classes(tree)
    if not classes:
        return
    emit = _Emitter(relpath, report)
    module_names = _module_level_names(tree)
    module_caches = _declared_module_caches(tree)
    for cls in classes:
        declared = _init_declared_attrs(cls)
        for stmt in cls.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            if stmt.name.startswith("__"):
                continue  # __init__ and dunders set up declared state
            _KernelPurity(
                cls, stmt, declared, module_names, module_caches, emit
            ).run()


# -- whole-tree driver --------------------------------------------------------


def audit_source(
    source: str, relpath: str, report: DiagnosticReport
) -> FileFacts:
    """Audit one module's source text; findings land in ``report``."""
    tree = ast.parse(source, filename=relpath)
    facts = FileFacts(path=relpath)
    _ModuleAuditor(relpath, report, facts).visit(tree)
    _audit_backend_purity(tree, relpath, report)
    return facts


def _cross_file_checks(
    all_facts: Sequence[FileFacts], report: DiagnosticReport
) -> None:
    """Dead catalogue entries (AUD006) and dead rules (AUD008).

    These only run when the scanned tree contains the declaring module —
    a synthetic test tree declares nothing, so nothing can be dead.
    """
    catalogue_path = next(
        (f.path for f in all_facts if f.path.endswith("obs/catalogue.py")), None
    )
    if catalogue_path is not None:
        used: set[str] = set()
        for facts in all_facts:
            used |= facts.metric_uses
        for name in _metric_catalogue():
            if name not in used:
                report.append(
                    diag(
                        "AUD006",
                        f"metric {name!r} is declared in the catalogue but "
                        "never instrumented anywhere in the tree",
                        subject=catalogue_path,
                        location=f"metric {name}",
                        line=0,
                        symbol=name,
                        metric=name,
                    )
                )
    rules_path = next(
        (f.path for f in all_facts if f.path.endswith("analysis/rules.py")), None
    )
    if rules_path is not None:
        referenced: set[str] = set()
        for facts in all_facts:
            if facts.path == rules_path:
                continue
            referenced |= facts.rule_literals
        for rid in RULES:
            if rid not in referenced:
                report.append(
                    diag(
                        "AUD008",
                        f"rule {rid!r} is registered but never referenced "
                        "by any checker in the tree",
                        subject=rules_path,
                        location=f"rule {rid}",
                        line=0,
                        symbol=rid,
                        rule=rid,
                    )
                )


@dataclass
class AuditResult:
    """Outcome of one rispp-audit run."""

    report: DiagnosticReport
    files_scanned: int
    suppressed: int
    stale_suppressions: list[Suppression]
    root: str
    baseline_path: str | None

    def exit_code(self) -> int:
        return self.report.exit_code()

    def summary(self) -> str:
        tail = ""
        if self.suppressed:
            tail = f", {self.suppressed} baseline-suppressed"
        return (
            f"rispp-audit: scanned {self.files_scanned} file(s) "
            f"under {self.root}{tail}"
        )


def package_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def _iter_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def run_audit(
    root: "str | Path | None" = None,
    *,
    baseline: "Baseline | str | Path | None" = "auto",
) -> AuditResult:
    """Audit a source tree (default: the ``repro`` package itself).

    ``baseline="auto"`` loads ``audit_baseline.json`` from the display
    root (the repository root for default runs) when present; pass
    ``None`` to force a baseline-free run or a path/:class:`Baseline`
    to use a specific one.
    """
    pkg = package_root()
    scan_root = Path(root).resolve() if root is not None else pkg
    if not scan_root.exists():
        raise FileNotFoundError(f"audit root does not exist: {scan_root}")
    if scan_root == pkg and pkg.parent.name == "src":
        display_base = pkg.parent.parent  # repository root: "src/repro/..."
    elif scan_root.is_file():
        display_base = scan_root.parent
    else:
        display_base = scan_root
    report = DiagnosticReport()
    all_facts: list[FileFacts] = []
    files = _iter_files(scan_root)
    for path in files:
        try:
            relpath = path.relative_to(display_base).as_posix()
        except ValueError:  # pragma: no cover - display base always above
            relpath = path.as_posix()
        all_facts.append(
            audit_source(path.read_text(encoding="utf-8"), relpath, report)
        )
    _cross_file_checks(all_facts, report)

    resolved: Baseline | None
    if baseline == "auto":
        default = display_base / DEFAULT_BASELINE_NAME
        resolved = Baseline.load(default) if default.exists() else None
    elif baseline is None:
        resolved = None
    elif isinstance(baseline, Baseline):
        resolved = baseline
    else:
        resolved = Baseline.load(baseline)

    suppressed = 0
    stale: list[Suppression] = []
    if resolved is not None:
        report, suppressed, stale = resolved.apply(report)
        for entry in stale:
            report.append(
                diag(
                    "AUD011",
                    f"baseline suppression ({entry.rule_id}, "
                    f"{entry.path}, {entry.symbol}) matches no finding; "
                    "remove it",
                    subject=resolved.path or DEFAULT_BASELINE_NAME,
                    location=f"{entry.rule_id} {entry.path}",
                    line=0,
                    symbol=entry.symbol,
                )
            )
    return AuditResult(
        report=report,
        files_scanned=len(files),
        suppressed=suppressed,
        stale_suppressions=stale,
        root=str(scan_root),
        baseline_path=resolved.path if resolved is not None else None,
    )
