"""Lint engine: parse the tree once, build cross-file facts, run rules.

The engine is what makes the rules *codebase-aware*: before any rule
runs it extracts, from the tree being linted,

- the protocol message classes declared in ``core/messages.py`` and the
  classes actually dispatched on (``isinstance``) anywhere in ``core/``,
- the ``CostModel`` dataclass fields and methods from ``config.py``,
- (when linting the live package) the set of fields actually covered by
  the bench cache's cost-model fingerprint, imported dynamically — so
  the "every referenced CostModel attribute is fingerprinted" rule
  checks the real cache, not a parallel reimplementation.

Each parsed file is walked exactly once, here, into an index on its
:class:`FileInfo` (every node in ``ast.walk`` order).  Rules and the
flow engine read module-wide node sets, by type, and parent links from
that index instead of re-walking the tree; only walks over a function
or class subtree remain in the rules.

Rules receive one :class:`LintContext` and return findings; the engine
fills in default stable keys (the stripped source line) and applies the
baseline.  A file that does not parse is itself a finding (rule
``syntax``), never a silently clean file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Type,
                    TypeVar, cast)

from repro.lint.baseline import apply_baseline, load_baseline
from repro.lint.findings import Finding, LintReport, source_line
from repro.lint.registry import all_rules

# Package subtrees whose code runs *inside* the simulation: the
# determinism rules (wall-clock, RNG, iteration order, environment)
# apply here.  bench/ and analysis/ run outside the sim clock and may
# legitimately read wall time (they time the harness itself).  chaos/
# qualifies because its schedules, oracles, and shrinker must be
# byte-deterministic for repros to replay.  obs/ runs inside the sim
# (the recorder is fed from instrumented substrates), so the same
# determinism rules apply there.
SIM_SCOPED_DIRS = ("sim", "core", "net", "mach", "log", "servers", "chaos",
                   "obs")
SIM_SCOPED_FILES = ("system.py", "config.py")


N = TypeVar("N", bound=ast.AST)

# Rule id of the engine's own finding for a file that does not parse.
SYNTAX_RULE = "syntax"


@dataclass
class FileInfo:
    """One parsed source file, its AST index, and the paths rules need.

    The index is read-only and derived from the one walk of ``tree``:

    - ``nodes``: every node in ``ast.walk`` order (the shared
      ``Load``/``Store``/operator singletons recur, as they do there);
    - ``nodes_of(*types)``: the nodes of exactly those types, in that
      same order;
    - ``parents``: child -> parent (for a shared singleton, its last
      parent in walk order).

    Type buckets and the parent map are built on first use, once per
    file, and only reference nodes; nothing is kept per subtree,
    because a whole-tree lint holds every file's index at once.
    A file that does not parse has ``tree is None``, ``syntax_error``
    set, and an empty index.
    """

    path: Path            # absolute
    rel: str              # display path (repo-relative when possible)
    sub: str              # path relative to the lint root (scoping key)
    lines: List[str] = field(default_factory=list)
    tree: Optional[ast.Module] = None
    syntax_error: Optional[SyntaxError] = None
    nodes: List[ast.AST] = field(default_factory=list, init=False,
                                 repr=False)
    _by_type: Dict[type, List[ast.AST]] = field(default_factory=dict,
                                                init=False, repr=False)

    @property
    def sim_scoped(self) -> bool:
        first = self.sub.split("/", 1)[0]
        return first in SIM_SCOPED_DIRS or self.sub in SIM_SCOPED_FILES

    def index(self, tree: ast.Module) -> None:
        """Adopt ``tree`` and walk it once, breadth first: the list grows
        while it is iterated, which is exactly ``ast.walk``'s order."""
        self.tree = tree
        nodes: List[ast.AST] = [tree]
        for node in nodes:
            nodes.extend(ast.iter_child_nodes(node))
        self.nodes = nodes

    @cached_property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent over ``nodes`` (no second tree walk)."""
        parents: Dict[ast.AST, ast.AST] = {}
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    def nodes_of(self, *types: Type[N]) -> List[N]:
        """Nodes whose type is exactly one of ``types``, in walk order.

        Pass concrete node classes (``ast.Call``), not abstract bases
        (``ast.stmt``).  A single type is answered from its bucket; a
        mix, asked once or twice per file, is one filter of ``nodes``.
        Do not mutate the returned list.
        """
        if len(types) != 1:
            wanted = set(types)
            return cast(List[N], [n for n in self.nodes
                                  if type(n) in wanted])
        bucket = self._by_type.get(types[0])
        if bucket is None:
            only = types[0]
            bucket = [n for n in self.nodes if type(n) is only]
            self._by_type[only] = bucket
        return cast(List[N], bucket)


@dataclass
class LintContext:
    """Everything a rule may consult."""

    root: Path
    files: List[FileInfo] = field(default_factory=list)
    # ---- cross-file facts -------------------------------------------
    message_classes: Dict[str, int] = field(default_factory=dict)
    any_message_names: Set[str] = field(default_factory=set)
    handled_classes: Set[str] = field(default_factory=set)
    costmodel_fields: Set[str] = field(default_factory=set)
    costmodel_methods: Set[str] = field(default_factory=set)
    fingerprint_covered: Optional[Set[str]] = None
    # Why the live fingerprint could not be read (reported by the
    # costmodel-attrs rule, so a broken cache never disables its check).
    fingerprint_error: Optional[str] = None
    # Cached whole-program model (built on demand by the flow rules via
    # :func:`repro.lint.flow.flow_program`; typed loosely to keep the
    # engine import-independent of the flow package).
    flow: Optional[object] = None

    def sim_files(self) -> Iterable[FileInfo]:
        return (f for f in self.files if f.sim_scoped)

    def file(self, sub: str) -> Optional[FileInfo]:
        for f in self.files:
            if f.sub == sub:
                return f
        return None

    def finding(self, info: FileInfo, node: ast.AST, rule_id: str,
                message: str, key: str = "") -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule_id, file=info.rel, line=lineno,
                       message=message, key=key, column=col)


def _display_rel(path: Path, sub: str) -> str:
    """Repo-relative display path: trim everything above ``src/``."""
    parts = path.resolve().parts
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        return "/".join(parts[idx:])
    return sub


def collect_files(root: Path) -> List[FileInfo]:
    infos: List[FileInfo] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        sub = path.relative_to(root).as_posix()
        info = FileInfo(path=path, rel=_display_rel(path, sub), sub=sub)
        try:
            source = path.read_text()
        except OSError:
            infos.append(info)
            continue
        info.lines = source.splitlines()
        try:
            info.index(ast.parse(source, filename=str(path)))
        except SyntaxError as exc:
            info.syntax_error = exc
        infos.append(info)
    return infos


# ------------------------------------------------------ cross-file facts


def _message_facts(ctx: LintContext) -> None:
    """Declared message classes, the ANY_MESSAGE roster, and every class
    name dispatched on via ``isinstance`` anywhere under ``core/``."""
    info = ctx.file("core/messages.py")
    if info is not None and info.tree is not None:
        declared: Set[str] = {"ProtocolMessage"}
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if bases & declared:
                declared.add(node.name)
                ctx.message_classes[node.name] = node.lineno
        for node in info.tree.body:
            if (isinstance(node, ast.Assign) and node.targets
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "ANY_MESSAGE"
                    and isinstance(node.value, ast.Tuple)):
                ctx.any_message_names = {
                    e.id for e in node.value.elts if isinstance(e, ast.Name)}
    for f in ctx.files:
        if not f.sub.startswith("core/"):
            continue
        for node in f.nodes_of(ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                target = node.args[1]
                names = ([target] if isinstance(target, ast.Name)
                         else list(target.elts)
                         if isinstance(target, ast.Tuple) else [])
                for n in names:
                    if isinstance(n, ast.Name):
                        ctx.handled_classes.add(n.id)


def _costmodel_facts(ctx: LintContext) -> None:
    info = ctx.file("config.py")
    if info is None or info.tree is None:
        return
    for node in info.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "CostModel":
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    ctx.costmodel_fields.add(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    ctx.costmodel_methods.add(stmt.name)


def _fingerprint_facts(ctx: LintContext) -> None:
    """When linting the installed package, ask the *real* bench cache
    which fields its fingerprint covers (no parallel reimplementation).

    Any failure of that cache code is recorded, not swallowed: the
    costmodel-attrs rule turns it into a finding."""
    import repro
    live_root = Path(repro.__file__).resolve().parent
    if ctx.root.resolve() != live_root:
        return
    try:
        from repro.bench.cache import _canonical
        from repro.config import PROFILES
        covered: Set[str] = set()
        for factory in PROFILES.values():
            blob = _canonical(factory())
            covered |= set(blob.get("fields", {}).keys())
    except Exception as exc:  # any cache bug must surface as a finding
        ctx.fingerprint_error = f"{type(exc).__name__}: {exc}"
        return
    ctx.fingerprint_covered = covered


def build_context(root: Path) -> LintContext:
    ctx = LintContext(root=root, files=collect_files(root))
    _message_facts(ctx)
    _costmodel_facts(ctx)
    _fingerprint_facts(ctx)
    return ctx


# ---------------------------------------------------------------- runner


def run_lint(root: Optional[Path] = None,
             rule_ids: Optional[Sequence[str]] = None,
             baseline_path: Optional[Path] = None,
             extra_findings: Optional[Iterable[Finding]] = None
             ) -> LintReport:
    """Lint ``root`` (default: the installed ``repro`` package).

    ``extra_findings`` lets dynamic passes (the race detector) feed the
    same report/baseline pipeline as the AST rules.
    """
    if root is None:
        import repro
        root = Path(repro.__file__).resolve().parent
    ctx = build_context(Path(root))
    rules = all_rules()
    if rule_ids is not None:
        unknown = set(rule_ids) - set(rules)
        if unknown:
            raise ValueError(f"unknown lint rule(s): {sorted(unknown)}")
        rules = {rid: rules[rid] for rid in rule_ids}

    # A file that does not parse is reported whatever rules were asked
    # for: none of them could check it.
    findings: List[Finding] = []
    for unparsed in ctx.files:
        err = unparsed.syntax_error
        if err is not None:
            findings.append(Finding(
                rule=SYNTAX_RULE, file=unparsed.rel, line=err.lineno or 1,
                column=max((err.offset or 1) - 1, 0),
                message=f"file does not parse ({err.msg}); no rule can "
                        f"check it"))
    for rid in sorted(rules):
        findings.extend(rules[rid](ctx))
    if extra_findings:
        findings.extend(extra_findings)

    # Default stable keys: the stripped source line at the finding.
    keyed: List[Finding] = []
    by_rel = {f.rel: f for f in ctx.files}
    for f in findings:
        if not f.key:
            info = by_rel.get(f.file)
            line = source_line(info.lines, f.line) if info else None
            f = replace(f, key=line or f.message)
        keyed.append(f)

    baseline = load_baseline(baseline_path)
    new, suppressed = apply_baseline(keyed, baseline)
    return LintReport(findings=new, baselined=suppressed,
                      checked_files=len(ctx.files),
                      rules_run=sorted([*rules, SYNTAX_RULE]))
