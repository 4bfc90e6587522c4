"""rispp-audit: the AST-level source-contract analyzer (``repro audit``).

The platform's verification story — byte-identical seeded chaos
reports, replayable golden traces — rests on implementation contracts
that no runtime test can see from the outside: model code must never
consult the host clock or an unseeded entropy source, and the metric
and rule catalogues must not carry entries nothing uses.  This module
machine-checks those contracts over the source tree itself, reusing the
Diagnostic / rule-catalogue machinery every other analyser shares.
Contracts the runtime already refuses (an undeclared metric name, type
or label value; an unregistered ``diag()`` rule ID) or the tests already
observe (backend kernels never mutate their inputs) are not re-checked
here.

Rule groups (family ``audit``, catalogued in ``docs/analysis.md``):

* **determinism sanitizer** (AUD001–AUD004) — unseeded randomness and
  entropy sources, wall-clock reads outside the
  :mod:`repro.obs.clock` seam, environment reads, and order-sensitive
  iteration over unordered ``set`` values;
* **dead catalogue entries** (AUD006, AUD008) — every metric declared
  in :data:`repro.obs.catalogue.METRICS` must be instrumented somewhere
  (a literal name at a ``counter``/``gauge``/``histogram`` call), and
  every rule registered in :mod:`repro.analysis.rules` must appear as a
  literal outside the registry.

Intentional exceptions live in a checked-in suppression baseline
(``audit_baseline.json`` at the repository root): entries match on
``(rule, path, symbol)`` so they survive line churn, every entry must
carry a reason, and stale entries are flagged (AUD011) so the baseline
can only shrink silently, never grow.
"""

from __future__ import annotations

import ast
import json
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
    #: Registered rule IDs appearing as string literals in the module.
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


def _literal_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _metric_catalogue() -> Mapping[str, object]:
    from ..obs.catalogue import METRICS

    return METRICS


class _Scope:
    """One lexical scope: name bindings with their set-ness.

    ``bindings`` maps every name assigned in the scope to whether its
    last-seen value was set-typed; tracking non-set bindings too lets
    the lexical lookup stop at shadowing locals instead of falling
    through to an outer set-typed constant (false-positive guard).
    """

    __slots__ = ("name", "bindings")

    def __init__(self, name: str):
        self.name = name
        self.bindings: dict[str, bool] = {}


# -- the per-module analyzer --------------------------------------------------


class _ModuleAuditor(ast.NodeVisitor):
    """Single-pass visitor emitting AUD001–AUD004 and collecting facts."""

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
        for target in node.targets:
            self._bind_target(target, setish)

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

    # -- calls: determinism, instrumented metric names -------------------

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
                name = _literal_str(node.args[0] if node.args else None)
                if name is not None:
                    self.facts.metric_uses.add(name)
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

    # -- rule-ID literals --------------------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value in RULES:
            self.facts.rule_literals.add(node.value)


# -- whole-tree driver --------------------------------------------------------


def audit_source(
    source: str, relpath: str, report: DiagnosticReport
) -> FileFacts:
    """Audit one module's source text; findings land in ``report``."""
    tree = ast.parse(source, filename=relpath)
    facts = FileFacts(path=relpath)
    _ModuleAuditor(relpath, report, facts).visit(tree)
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
