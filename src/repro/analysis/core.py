"""Lint engine core: findings, the rule registry, the whole-program driver.

Design
------
Every rule is a class decorated with :func:`register`, declaring

* ``code`` / ``name`` / ``rationale`` — identity and the determinism or
  purity guarantee the rule protects (surfaced by ``--list-rules`` and
  ``docs/STATIC_ANALYSIS.md``);
* ``node_types`` — the AST node classes it wants to see.  The driver
  parses each file **once**, annotates parent links, and walks the tree
  **once**, dispatching each node to every interested rule — adding a
  rule never adds a traversal;
* optional per-file hooks (``start_file`` / ``end_file``) and a
  project-wide ``finalize`` hook for whole-program rules: the views over
  the dataflow engine (REP002, REP003, REP010–REP012) which consume the
  per-function summaries and import edges the driver collects.

Incrementality: per-file work (parse, per-file rule findings, dataflow
facts, import candidates, suppression directives) is cached keyed on the
file's content sha256 (:mod:`repro.analysis.cache`), so a warm hit
neither parses nor tokenizes the file; whole-program judgments
are *never* cached — they are recomputed each run from the per-file
facts, which is what makes invalidation transitively sound by
construction: change one file and every cross-file conclusion downstream
of it is rebuilt.  Cold and warm runs produce byte-identical reports.

Findings carry a *fingerprint* — a hash of ``(rule, path, stripped
source line, occurrence)`` where ``occurrence`` disambiguates repeated
identical lines in one file (without it, grandfathering one violation
silently grandfathered its twin) — which is what the baseline
(:mod:`repro.analysis.baseline`) matches on.  Suppression comments
(``# repro-lint: disable=REP001``) are honored on the finding's line or
the line directly above it; every directive's usage is tracked so stale
suppressions can be reported.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.analysis.suppressions import Suppressions

if TYPE_CHECKING:
    from repro.analysis.dataflow import WholeProgram
    from repro.analysis.summaries import FileFacts

#: Pseudo-rule code attached to files that fail to parse.
PARSE_ERROR_CODE = "REP000"

#: Modules whose first segment marks test/bench/example scaffolding —
#: library-contract rules (REP001, REP009) do not apply there.
_SCAFFOLD_SEGMENTS = frozenset({"tests", "benchmarks", "examples"})
_SCAFFOLD_PREFIXES = ("test_", "bench_", "conftest")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""
    #: Index among findings sharing (rule, path, stripped line) — keeps
    #: fingerprints of twin violations on identical lines distinct.
    occurrence: int = 0

    @property
    def fingerprint(self) -> str:
        body = f"{self.rule}\x00{self.path}\x00{self.source_line.strip()}"
        if self.occurrence:
            # Occurrence 0 omits the suffix so fingerprints written by
            # format-1 baselines keep matching the first occurrence.
            body += f"\x00{self.occurrence}"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return f"{self.rule}:{digest[:16]}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def cache_dict(self) -> Dict[str, Any]:
        """Lossless serialization for the incremental cache (unlike
        :meth:`as_dict`, keeps the raw source line; occurrence is
        reassigned globally on every run and deliberately excluded)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source_line": self.source_line,
        }

    @classmethod
    def from_cache_dict(cls, payload: Dict[str, Any]) -> "Finding":
        return cls(
            rule=payload["rule"],
            path=payload["path"],
            line=payload["line"],
            col=payload["col"],
            message=payload["message"],
            source_line=payload["source_line"],
        )


class ModuleView:
    """The context-free face of one linted file: what whole-program
    rules may rely on whether the file was parsed this run or replayed
    from the incremental cache."""

    def __init__(
        self,
        rel_path: str,
        module: str,
        source: str,
        suppressions: Optional[Suppressions] = None,
    ):
        self.rel_path = rel_path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.segments: Tuple[str, ...] = tuple(module.split("."))
        self.suppressions = (
            Suppressions.scan(source) if suppressions is None else suppressions
        )

    @property
    def is_scaffolding(self) -> bool:
        """Test / benchmark / example code (vs. library code)."""
        stem = self.rel_path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        first_dir = self.rel_path.split("/", 1)[0]
        return (
            self.segments[0] in _SCAFFOLD_SEGMENTS
            or first_dir in _SCAFFOLD_SEGMENTS
            or any(stem.startswith(prefix) for prefix in _SCAFFOLD_PREFIXES)
        )

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class FileContext(ModuleView):
    """Everything the rules may need about one *parsed* file."""

    def __init__(self, path: Path, rel_path: str, source: str, tree: ast.Module):
        super().__init__(rel_path, _module_name(path), source)
        self.path = path
        self.tree = tree
        #: local name -> fully qualified imported module/object name.
        self.aliases = _collect_aliases(tree)

    # -- classification -----------------------------------------------------
    @property
    def is_scaffolding(self) -> bool:
        stem = self.path.stem
        first_dir = self.rel_path.split("/", 1)[0]
        return (
            self.segments[0] in _SCAFFOLD_SEGMENTS
            or first_dir in _SCAFFOLD_SEGMENTS
            or any(stem.startswith(prefix) for prefix in _SCAFFOLD_PREFIXES)
        )

    # -- helpers ------------------------------------------------------------
    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=line,
            col=col + 1,
            message=message,
            source_line=self.source_line(line),
        )

    def resolve_qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an attribute/name chain with import aliases
        resolved, e.g. ``np.random.rand`` -> ``numpy.random.rand``;
        ``None`` for non-name expressions (calls, subscripts, ...)."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Project:
    """The full set of linted files — parsed contexts and cache-replayed
    views side by side — plus the per-file dataflow facts the
    whole-program (finalize) rules consume."""

    def __init__(
        self,
        views: Sequence[ModuleView],
        facts: Optional[Dict[str, "FileFacts"]] = None,
    ):
        self.views = list(views)
        self.by_path: Dict[str, ModuleView] = {view.rel_path: view for view in self.views}
        #: module -> FileFacts (cached or freshly extracted).
        self.facts: Dict[str, "FileFacts"] = facts or {}
        self._whole_program: Optional["WholeProgram"] = None

    @property
    def whole_program(self) -> "WholeProgram":
        """The interprocedural engine (call graph + propagated
        summaries), built lazily once per run and shared by every
        summary-consuming rule."""
        if self._whole_program is None:
            from repro.analysis.dataflow import WholeProgram

            self._whole_program = WholeProgram(self.facts)
        return self._whole_program

    def finding(
        self, rule: str, path: str, line: int, message: str, col: int = 1
    ) -> Finding:
        """A whole-program finding at ``path:line``, carrying that line's
        source so its fingerprint matches a per-file one."""
        view = self.by_path.get(path)
        return Finding(
            rule=rule,
            path=path,
            line=line,
            col=col,
            message=message,
            source_line=view.source_line(line) if view is not None else "",
        )


class Rule:
    """Base class for lint rules; subclasses register via :func:`register`."""

    code: str = ""
    name: str = ""
    rationale: str = ""
    #: AST node classes routed to :meth:`visit` by the single-pass driver.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def start_file(self, ctx: FileContext) -> None:
        """Reset any per-file state."""

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def end_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


#: code -> rule class.  Instantiated fresh for every run so per-file /
#: per-project rule state can never leak between runs.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (plugin style)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} declares no code")
    existing = RULE_REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    _load_builtin_rules()
    return [RULE_REGISTRY[code] for code in sorted(RULE_REGISTRY)]


def _load_builtin_rules() -> None:
    # Import for the registration side effect; idempotent.
    from repro.analysis import rules as _rules  # noqa: F401


# ------------------------------------------------------------------- helpers
def _module_name(path: Path) -> str:
    """Dotted module path, found by walking up through package dirs
    (directories containing ``__init__.py``); a file outside any package
    is just its stem."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        next_parent = parent.parent
        if next_parent == parent:
            break
        parent = next_parent
    return ".".join(reversed(parts)) or path.stem


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def annotate_parents(tree: ast.Module) -> None:
    """Attach ``.parent`` to every node (root's parent is ``None``)."""
    tree.parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def parent_chain(node: ast.AST) -> Iterator[ast.AST]:
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


# -------------------------------------------------------------------- driver
@dataclass
class UnusedSuppression:
    """A suppression directive that silenced nothing this run."""

    path: str
    line: int  # 0 for whole-file directives
    code: str

    def as_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "code": self.code}

    def render(self) -> str:
        where = "disable-file" if self.line == 0 else f"line {self.line}"
        return f"{self.path}:{max(self.line, 1)}: unused suppression of {self.code} ({where})"


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    baselined: int = 0
    unused_suppressions: List[UnusedSuppression] = field(default_factory=list)
    #: Incremental-cache accounting (never part of rendered reports, so
    #: cold and warm runs stay byte-identical).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    seen = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _assign_occurrences(findings: List[Finding]) -> List[Finding]:
    """Index findings sharing (rule, path, stripped line) so identical
    twin violations get distinct fingerprints.  Input must be sorted."""
    counters: Dict[Tuple[str, str, str], int] = {}
    out: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.source_line.strip())
        seen = counters.get(key, 0)
        counters[key] = seen + 1
        out.append(replace(finding, occurrence=seen) if seen else finding)
    return out


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    disable: Sequence[str] = (),
    baseline: Optional[Dict[str, int]] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) and return the findings.

    ``select`` restricts to the given rule codes; ``disable`` removes
    codes; ``baseline`` (fingerprint -> count) grandfathers old findings.
    ``root`` anchors the relative paths used in reports, fingerprints,
    and suppression bookkeeping (default: the current directory).
    ``use_cache`` / ``cache_dir`` control the incremental per-file cache
    (default: the ``REPRO_LINT_CACHE`` / ``REPRO_LINT_CACHE_DIR`` knobs);
    cached and uncached runs produce identical results.
    """
    from repro.analysis.cache import LintCache
    from repro.analysis.summaries import FileFacts, build_file_facts

    root = (root or Path.cwd()).resolve()
    rule_classes = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rule_classes = [cls for cls in rule_classes if cls.code in wanted]
    rule_classes = [cls for cls in rule_classes if cls.code not in set(disable)]
    rules = [cls() for cls in rule_classes]
    active_codes = tuple(cls.code for cls in rule_classes)

    cache = LintCache.open(active_codes, enabled=use_cache, directory=cache_dir, root=root)

    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)

    result = LintResult()
    raw_findings: List[Finding] = []
    views: List[ModuleView] = []
    facts: Dict[str, FileFacts] = {}
    for file_path in iter_python_files([Path(p) for p in paths]):
        resolved = file_path.resolve()
        try:
            rel = str(resolved.relative_to(root).as_posix())
        except ValueError:
            rel = str(resolved.as_posix())
        try:
            raw_bytes = file_path.read_bytes()
        except OSError as error:
            raw_findings.append(
                Finding(
                    rule=PARSE_ERROR_CODE,
                    path=rel,
                    line=1,
                    col=1,
                    message=f"file cannot be parsed: {error}",
                )
            )
            result.files_scanned += 1
            continue
        result.files_scanned += 1

        cached = cache.lookup(rel, raw_bytes) if cache is not None else None
        if cached is not None:
            result.cache_hits += 1
            raw_findings.extend(cached.findings)
            view = ModuleView(rel, cached.facts.module, cached.source, cached.suppressions)
            views.append(view)
            facts[cached.facts.module] = cached.facts
            continue
        if cache is not None:
            result.cache_misses += 1

        try:
            source = raw_bytes.decode("utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (SyntaxError, ValueError, UnicodeDecodeError) as error:
            line = getattr(error, "lineno", 1) or 1
            finding = Finding(
                rule=PARSE_ERROR_CODE,
                path=rel,
                line=line,
                col=1,
                message=f"file cannot be parsed: {error}",
            )
            raw_findings.append(finding)
            if cache is not None:
                cache.store(
                    rel,
                    raw_bytes,
                    [finding],
                    FileFacts(module=Path(rel).stem, rel_path=rel, is_scaffolding=False),
                    source="",
                    suppressions=Suppressions({}, frozenset()),
                )
            continue
        annotate_parents(tree)
        ctx = FileContext(resolved, rel, source, tree)
        views.append(ctx)

        file_findings: List[Finding] = []
        active = [rule for rule in rules if rule.applies_to(ctx)]
        if active:
            for rule in active:
                rule.start_file(ctx)
            active_types = tuple(
                {t for rule in active for t in rule.node_types}
            )
            for node in ast.walk(tree):
                if not isinstance(node, active_types or (ast.Module,)):
                    continue
                for rule in dispatch.get(type(node), ()):  # exact-type dispatch
                    if rule in active:
                        file_findings.extend(rule.visit(node, ctx))
            for rule in active:
                file_findings.extend(rule.end_file(ctx))
        raw_findings.extend(file_findings)

        file_facts = build_file_facts(ctx)
        facts[ctx.module] = file_facts
        if cache is not None:
            cache.store(
                rel, raw_bytes, file_findings, file_facts, source, ctx.suppressions
            )

    project = Project(views, facts)
    for rule in rules:
        raw_findings.extend(rule.finalize(project))

    # Suppression comments (with per-directive usage tracking), then the
    # occurrence indexes, then the baseline.
    suppression_index = {view.rel_path: view.suppressions for view in views}
    used_directives: Dict[str, set] = {}
    kept: List[Finding] = []
    for finding in raw_findings:
        suppressions = suppression_index.get(finding.path)
        if suppressions is not None:
            directive_line = suppressions.match(finding.rule, finding.line)
            if directive_line is not None:
                used_directives.setdefault(finding.path, set()).add(
                    (directive_line, finding.rule)
                )
                result.suppressed += 1
                continue
        kept.append(finding)

    active_code_set = set(active_codes)
    for view in sorted(views, key=lambda v: v.rel_path):
        used = used_directives.get(view.rel_path, set())
        for line, code in view.suppressions.directive_keys():
            if code in active_code_set and (line, code) not in used:
                result.unused_suppressions.append(
                    UnusedSuppression(path=view.rel_path, line=line, code=code)
                )

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    kept = _assign_occurrences(kept)
    if baseline:
        remaining = dict(baseline)
        unbaselined = []
        for finding in kept:
            if remaining.get(finding.fingerprint, 0) > 0:
                remaining[finding.fingerprint] -= 1
                result.baselined += 1
            else:
                unbaselined.append(finding)
        kept = unbaselined
    result.findings = kept
    return result
