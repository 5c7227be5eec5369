"""Per-function dataflow facts: the cacheable half of the analyzer.

For every function in a file this module extracts a *local*
:class:`FunctionRecord` — which taints the function generates, how its
return value and call arguments depend on parameters and callee returns,
which serialization sinks it feeds, which fork hazards it carries.  The
records are pure data (JSON round-trip via :meth:`FileFacts.as_dict`),
deliberately independent of every *other* file, so the incremental cache
(:mod:`repro.analysis.cache`) can key them on the file's content hash
alone.  Everything cross-file — call resolution, fixed-point taint
propagation, reachability — happens later in
:mod:`repro.analysis.dataflow`, recomputed on every run from these
facts, which is what makes cache invalidation trivially sound: a changed
file re-derives its facts, and every whole-program judgment downstream
of it is rebuilt from scratch.

Dependency facts ("deps") are small tagged tuples:

=============================  ============================================
``("taint", kind, line, d)``   value carries nondeterminism ``kind`` born
                               at ``line`` (description ``d``)
``("unordered", line, d)``     value is an unordered container; taints on
                               iteration / materialization
``("call", key, line)``        value derives from the return of project
                               function ``key`` (resolved candidates)
``("ecall", key, line)``       value is an ordered sequence whose
                               *elements* derive from that return: its
                               taints, but not its container-ness
``("eunordered", line, d)``    value is an ordered sequence of unordered
                               containers; iterating it yields them
``("icall", key, line)``       value is an element yielded by iterating the
                               return of ``key``: an unordered container
                               when that return is a sequence of them
``("imcall", key, line)``      value iterates/materializes such an
                               element: order taint at ``line`` then
``("param", name)``            value derives from this function's param
``("fref", key, line)``        value *is* a reference to project function
                               ``key`` (fork-root discovery)
=============================  ============================================

The variable environment is a single forward pass with union semantics
at joins — flow-sensitive enough for lint, cheap enough to run on every
file on every commit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis import contracts
from repro.analysis.core import FileContext

Dep = Tuple[Any, ...]
DepSet = FrozenSet[Dep]

_EMPTY: DepSet = frozenset()

#: Recursion guard for dep evaluation in the propagation engine.
MAX_EVAL_DEPTH = 50

#: env accessor functions whose first literal argument is a knob read.
_ENV_ACCESSORS = frozenset(
    {
        "repro.utils.env.get_bool",
        "repro.utils.env.get_int",
        "repro.utils.env.get_float",
        "repro.utils.env.get_str",
        "repro.utils.env.get_raw",
    }
)

#: Receiver method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Constructor calls producing mutable module-level globals.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"})


@dataclass
class CallFact:
    """One call site inside a function, with per-argument dep sets."""

    candidates: Tuple[str, ...]  # resolved callee qualname candidates
    line: int
    offset: int  # 1 for self/cls method calls (arg i -> param i+offset)
    args: Tuple[DepSet, ...]
    kwargs: Dict[str, DepSet]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "candidates": list(self.candidates),
            "line": self.line,
            "offset": self.offset,
            "args": [sorted(map(list, deps)) for deps in self.args],
            "kwargs": {k: sorted(map(list, v)) for k, v in sorted(self.kwargs.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CallFact":
        return cls(
            candidates=tuple(payload["candidates"]),
            line=payload["line"],
            offset=payload["offset"],
            args=tuple(_depset_from_json(deps) for deps in payload["args"]),
            kwargs={k: _depset_from_json(v) for k, v in payload["kwargs"].items()},
        )


@dataclass
class SinkFact:
    """A call feeding a serialization/persistence sink."""

    sink: str  # display name, e.g. "repro.lcl.codec.encode_problem"
    line: int
    deps: DepSet

    def as_dict(self) -> Dict[str, Any]:
        return {"sink": self.sink, "line": self.line, "deps": sorted(map(list, self.deps))}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SinkFact":
        return cls(payload["sink"], payload["line"], _depset_from_json(payload["deps"]))


@dataclass
class FunctionRecord:
    """Everything the whole-program engine needs about one function."""

    key: str  # qualname: module[.Class][.outer].name
    module: str
    rel_path: str
    line: int
    name: str
    params: Tuple[str, ...]
    decorators: Tuple[str, ...] = ()
    return_deps: DepSet = _EMPTY
    calls: List[CallFact] = field(default_factory=list)
    sinks: List[SinkFact] = field(default_factory=list)
    env_reads: List[Tuple[str, int]] = field(default_factory=list)
    global_mutations: List[Tuple[str, int]] = field(default_factory=list)
    global_reads: List[Tuple[str, int]] = field(default_factory=list)
    #: ``(line, col, reason)`` of each iteration over an unordered value
    #: whose order no order-insensitive builtin launders (REP002).
    order_sites: List[Tuple[int, int, str]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "module": self.module,
            "rel_path": self.rel_path,
            "line": self.line,
            "name": self.name,
            "params": list(self.params),
            "decorators": list(self.decorators),
            "return_deps": sorted(map(list, self.return_deps)),
            "calls": [c.as_dict() for c in self.calls],
            "sinks": [s.as_dict() for s in self.sinks],
            "env_reads": [list(item) for item in self.env_reads],
            "global_mutations": [list(item) for item in self.global_mutations],
            "global_reads": [list(item) for item in self.global_reads],
            "order_sites": [list(item) for item in self.order_sites],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FunctionRecord":
        return cls(
            key=payload["key"],
            module=payload["module"],
            rel_path=payload["rel_path"],
            line=payload["line"],
            name=payload["name"],
            params=tuple(payload["params"]),
            decorators=tuple(payload["decorators"]),
            return_deps=_depset_from_json(payload["return_deps"]),
            calls=[CallFact.from_dict(c) for c in payload["calls"]],
            sinks=[SinkFact.from_dict(s) for s in payload["sinks"]],
            env_reads=[tuple(item) for item in payload["env_reads"]],
            global_mutations=[tuple(item) for item in payload["global_mutations"]],
            global_reads=[tuple(item) for item in payload["global_reads"]],
            order_sites=[tuple(item) for item in payload["order_sites"]],
        )


@dataclass
class FileFacts:
    """The per-file bundle: function records + module-scope facts."""

    module: str
    rel_path: str
    is_scaffolding: bool
    functions: Dict[str, FunctionRecord] = field(default_factory=dict)
    import_edges: List[Tuple[str, int]] = field(default_factory=list)
    mutable_globals: FrozenSet[str] = frozenset()
    unpicklable_globals: FrozenSet[str] = frozenset()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "rel_path": self.rel_path,
            "is_scaffolding": self.is_scaffolding,
            "functions": {k: rec.as_dict() for k, rec in sorted(self.functions.items())},
            "import_edges": [list(edge) for edge in self.import_edges],
            "mutable_globals": sorted(self.mutable_globals),
            "unpicklable_globals": sorted(self.unpicklable_globals),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FileFacts":
        return cls(
            module=payload["module"],
            rel_path=payload["rel_path"],
            is_scaffolding=payload["is_scaffolding"],
            functions={
                k: FunctionRecord.from_dict(rec)
                for k, rec in payload["functions"].items()
            },
            import_edges=[(edge[0], edge[1]) for edge in payload["import_edges"]],
            mutable_globals=frozenset(payload["mutable_globals"]),
            unpicklable_globals=frozenset(payload["unpicklable_globals"]),
        )


def _depset_from_json(items: Sequence[Sequence[Any]]) -> DepSet:
    return frozenset(tuple(item) for item in items)


# --------------------------------------------------------------------------
# Extraction.
# --------------------------------------------------------------------------


def build_file_facts(ctx: FileContext) -> FileFacts:
    """Extract the local dataflow facts for one parsed file."""
    from repro.analysis.imports import extract_import_edges

    module_functions: Dict[str, str] = {}  # simple name -> key (module level)
    records: Dict[str, FunctionRecord] = {}

    mutable_globals, unpicklable_globals = _module_globals(ctx.tree, ctx)

    # First pass: discover every function (so bare-name calls resolve to
    # same-module functions even when defined later in the file).
    defs: List[Tuple[ast.AST, str, Optional[str]]] = []

    def collect(body: Sequence[ast.stmt], prefix: str, class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{prefix}.{node.name}"
                defs.append((node, key, class_name))
                if prefix == ctx.module and class_name is None:
                    module_functions[node.name] = key
                collect(node.body, key, None)
            elif isinstance(node, ast.ClassDef):
                collect(node.body, f"{prefix}.{node.name}", node.name)

    collect(ctx.tree.body, ctx.module, None)

    for node, key, class_name in defs:
        analyzer = _FunctionAnalyzer(
            ctx, node, key, class_name, module_functions, mutable_globals, unpicklable_globals
        )
        records[key] = analyzer.run()

    return FileFacts(
        module=ctx.module,
        rel_path=ctx.rel_path,
        is_scaffolding=ctx.is_scaffolding,
        functions=records,
        import_edges=extract_import_edges(ctx),
        mutable_globals=mutable_globals,
        unpicklable_globals=unpicklable_globals,
    )


def _module_globals(tree: ast.Module, ctx: FileContext) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Names bound at module scope to mutable containers / unpicklable
    objects (fork-safety raw material)."""
    mutable: Set[str] = set()
    unpicklable: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            continue
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            mutable.update(names)
        elif isinstance(value, ast.Call):
            qualname = ctx.resolve_qualname(value.func) or ""
            simple = qualname.rsplit(".", 1)[-1]
            if simple in _MUTABLE_CONSTRUCTORS:
                mutable.update(names)
            elif qualname in contracts.UNPICKLABLE_GLOBAL_CALLS:
                unpicklable.update(names)
    return frozenset(mutable), frozenset(unpicklable)


def _dotted_parts(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """The dotted name parts of an attribute chain, or None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return tuple(reversed(parts))


class _FunctionAnalyzer:
    """One forward pass over a function body, building its record."""

    def __init__(
        self,
        ctx: FileContext,
        node: ast.AST,
        key: str,
        class_name: Optional[str],
        module_functions: Dict[str, str],
        mutable_globals: FrozenSet[str],
        unpicklable_globals: FrozenSet[str],
    ):
        self.ctx = ctx
        self.node = node
        self.key = key
        self.class_name = class_name
        self.module_functions = module_functions
        self.mutable_globals = mutable_globals
        self.unpicklable_globals = unpicklable_globals
        args = node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        self.params: Tuple[str, ...] = tuple(
            names
            + [a.arg for a in args.kwonlyargs]
            + ([args.vararg.arg] if args.vararg else [])
            + ([args.kwarg.arg] if args.kwarg else [])
        )
        self.env: Dict[str, DepSet] = {}
        self.return_deps: Set[Dep] = set()
        self.calls: List[CallFact] = []
        self.sinks: List[SinkFact] = []
        self.env_reads: List[Tuple[str, int]] = []
        self.global_mutations: List[Tuple[str, int]] = []
        self.global_reads: List[Tuple[str, int]] = []
        self._seen_global_reads: Set[str] = set()
        #: id(For / comprehension owner) -> its unlaundered order sites.
        self._order_sites: Dict[int, List[Tuple[int, int, str]]] = {}

    # -- entry --------------------------------------------------------------
    def run(self) -> FunctionRecord:
        self._block(self.node.body)
        decorators = []
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            parts = _dotted_parts(target)
            if parts:
                decorators.append(parts[-1])
        return FunctionRecord(
            key=self.key,
            module=self.ctx.module,
            rel_path=self.ctx.rel_path,
            line=self.node.lineno,
            name=self.node.name,
            params=self.params,
            decorators=tuple(decorators),
            return_deps=frozenset(self.return_deps),
            calls=self.calls,
            sinks=self.sinks,
            env_reads=self.env_reads,
            global_mutations=self.global_mutations,
            global_reads=self.global_reads,
            order_sites=sorted(
                {site for sites in self._order_sites.values() for site in sites}
            ),
        )

    # -- statements ---------------------------------------------------------
    def _block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are analyzed as their own records
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_deps |= self._deps(stmt.value)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            deps = self._deps(value) if value is not None else _EMPTY
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                self._assign(target, deps, augmented=isinstance(stmt, ast.AugAssign))
            return
        if isinstance(stmt, ast.For):
            iter_deps = self._deps(stmt.iter)
            target_deps = set(_iterated(iter_deps))
            unordered = _first_unordered(iter_deps)
            if unordered is not None:
                target_deps.add(_iteration_taint(stmt.iter))
                self._order_site(stmt, stmt.iter, stmt.col_offset, unordered)
            self._assign(stmt.target, frozenset(target_deps), augmented=False)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._deps(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._deps(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                deps = self._deps(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, deps, augmented=False)
            self._block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, ast.Expr):
            self._deps(stmt.value)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._deps(child)
            return
        # Everything else (pass, import, global, delete, ...) carries no flow.

    def _assign(self, target: ast.expr, deps: DepSet, augmented: bool) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.mutable_globals and (augmented or name not in self.env):
                # Rebinding / augmenting a module-level mutable global
                # from inside a function is a mutation for fork purposes.
                if augmented:
                    self.global_mutations.append((name, target.lineno))
            if augmented:
                self.env[name] = self.env.get(name, _EMPTY) | deps
            else:
                self.env[name] = deps
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, deps, augmented)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                if base.id in self.mutable_globals and base.id not in self.env:
                    self.global_mutations.append((base.id, target.lineno))
                elif base.id in self.env:
                    self.env[base.id] = self.env[base.id] | deps
            if isinstance(target, ast.Subscript):
                self._deps(target.slice)

    # -- expressions --------------------------------------------------------
    def _deps(self, node: ast.expr) -> DepSet:
        if isinstance(node, ast.Name):
            return self._name_deps(node)
        if isinstance(node, ast.Call):
            return self._call_deps(node)
        if isinstance(node, ast.Attribute):
            return self._deps(node.value)
        if isinstance(node, ast.Set):
            inner = self._union(node.elts)
            return inner | {("unordered", node.lineno, "a set literal")}
        if isinstance(node, ast.SetComp):
            inner = self._comprehension_deps(node, [node.elt])
            self._order_sites.pop(id(node), None)  # a set has no order to leak
            return _drop_order(inner) | {("unordered", node.lineno, "a set comprehension")}
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # A sequence's order comes from its generators: elements that
            # are unordered containers (``[frozenset(c) for c in ...]``)
            # leave the sequence itself ordered.
            return self._comprehension_deps(node, [node.elt], sequence=True)
        if isinstance(node, ast.DictComp):
            return self._comprehension_deps(node, [node.key, node.value])
        if isinstance(node, ast.Lambda):
            return _EMPTY
        if isinstance(node, ast.Constant):
            return _EMPTY
        # Generic fallback: union over child expressions (BinOp, BoolOp,
        # Compare, Subscript, JoinedStr, IfExp, Starred, Tuple, List, ...).
        deps: Set[Dep] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                deps |= self._deps(child)
        return frozenset(deps)

    def _union(self, nodes: Sequence[ast.expr]) -> DepSet:
        deps: Set[Dep] = set()
        for child in nodes:
            deps |= self._deps(child)
        return frozenset(deps)

    def _name_deps(self, node: ast.Name) -> DepSet:
        name = node.id
        if name in self.env:
            return self.env[name]
        if name in self.params:
            return frozenset({("param", name)})
        if name in self.mutable_globals or name in self.unpicklable_globals:
            if name not in self._seen_global_reads:
                self._seen_global_reads.add(name)
                self.global_reads.append((name, node.lineno))
            return _EMPTY
        candidates = self._reference_candidates(name)
        if candidates:
            return frozenset({("fref", candidates[0], node.lineno)})
        return _EMPTY

    def _reference_candidates(self, name: str) -> List[str]:
        """Project-function qualname candidates for a bare name."""
        candidates = []
        alias = self.ctx.aliases.get(name)
        if alias and alias != name:
            candidates.append(alias)
        if name in self.module_functions:
            candidates.append(self.module_functions[name])
        return candidates

    def _comprehension_deps(
        self, node: ast.expr, elements: Sequence[ast.expr], sequence: bool = False
    ) -> DepSet:
        deps: Set[Dep] = set()
        for gen in node.generators:
            iter_deps = self._deps(gen.iter)
            target_deps = set(_iterated(iter_deps))
            unordered = _first_unordered(iter_deps)
            if unordered is not None:
                taint = _iteration_taint(gen.iter)
                target_deps.add(taint)
                deps.add(taint)
                self._order_site(node, gen.iter, gen.iter.col_offset, unordered)
            self._assign(gen.target, frozenset(target_deps), augmented=False)
            deps |= iter_deps
            for cond in gen.ifs:
                deps |= self._deps(cond)
        for element in elements:
            element_deps = self._deps(element)
            deps |= _sequence_of(element_deps) if sequence else element_deps
        return frozenset(deps)

    # -- calls --------------------------------------------------------------
    def _call_deps(self, node: ast.Call) -> DepSet:
        func = node.func
        line = node.lineno
        arg_deps = tuple(self._deps(a) for a in node.args)
        kwarg_deps = {kw.arg: self._deps(kw.value) for kw in node.keywords if kw.arg}
        all_args: Set[Dep] = set()
        for deps in arg_deps:
            all_args |= deps
        for deps in kwarg_deps.values():
            all_args |= deps

        # --- order-insensitive builtins launder order taint.
        if isinstance(func, ast.Name) and func.id in contracts.ORDER_INSENSITIVE_SINKS:
            for arg in node.args:  # e.g. sorted(x for x in s): order laundered
                self._order_sites.pop(id(arg), None)
            laundered = _drop_order(frozenset(all_args))
            if func.id in ("set", "frozenset"):
                return laundered | {("unordered", line, f"a {func.id}()")}
            return laundered

        # --- materializing constructors surface order taint.
        if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
            unordered = _first_unordered(frozenset(all_args))
            result = set(_mark_materialized(frozenset(all_args)))
            if unordered is not None:
                result.discard(unordered)
                result.add(
                    ("taint", contracts.TAINT_ORDER, line, "materializing an unordered iterable")
                )
            return frozenset(result)

        qualname = self.ctx.resolve_qualname(func)

        # --- dict views.
        if isinstance(func, ast.Attribute) and func.attr in contracts.UNORDERED_VIEW_METHODS:
            receiver = self._deps(func.value)
            return receiver | {("unordered", line, f"a .{func.attr}() dict view")}

        # --- ''.join(...) materializes iteration order into a string.
        if isinstance(func, ast.Attribute) and func.attr == "join":
            unordered = _first_unordered(frozenset(all_args))
            result = set(_mark_materialized(frozenset(all_args))) | self._deps(func.value)
            if unordered is not None:
                result.discard(unordered)
                result.add(
                    ("taint", contracts.TAINT_ORDER, line, "joining an unordered iterable")
                )
            return frozenset(result)

        # --- nondeterminism sources.
        source = self._source_taint(node, qualname)
        if source is not None:
            return frozenset(all_args) | {source}

        # --- env accessor reads (REP011 raw material, not REP010 taint:
        # declared knobs are audited configuration, not ambient state).
        if qualname in _ENV_ACCESSORS or (
            isinstance(func, ast.Attribute)
            and func.attr in {"get_bool", "get_int", "get_float", "get_str", "get_raw"}
            and (self.ctx.resolve_qualname(func.value) or "").endswith("env")
        ):
            knob = ""
            if node.args and isinstance(node.args[0], ast.Constant):
                if isinstance(node.args[0].value, str):
                    knob = node.args[0].value
            if knob:
                self.env_reads.append((knob, line))
            return _EMPTY

        # --- receiver-mutation on module-level globals.
        receiver_parts = _dotted_parts(func) or ()
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and len(receiver_parts) >= 2
            and receiver_parts[0] in self.mutable_globals
            and receiver_parts[0] not in self.env
        ):
            self.global_mutations.append((receiver_parts[0], line))

        # --- resolution to project functions.
        candidates, offset = self._callee_candidates(func, qualname)
        if candidates:
            self.calls.append(
                CallFact(
                    candidates=tuple(candidates),
                    line=line,
                    offset=offset,
                    args=arg_deps,
                    kwargs=kwarg_deps,
                )
            )

        # --- sink classification.
        sink = self._sink_display(func, qualname, candidates, receiver_parts)
        if sink is not None and (arg_deps or kwarg_deps):
            self.sinks.append(SinkFact(sink=sink, line=line, deps=frozenset(all_args)))

        result: Set[Dep] = set(all_args)
        if candidates:
            # A project callee's summary describes its own return; an
            # element of another callee's return passed in as an argument
            # does not make that return such an element.
            result = {dep for dep in result if dep[0] != "icall"}
            result.add(("call", candidates[0], line))
        if isinstance(func, ast.Attribute):
            result |= self._deps(func.value)
        return frozenset(result)

    def _order_site(self, owner: ast.AST, iterable: ast.expr, col: int, unordered: Dep) -> None:
        """Record a REP002 site: ``owner`` (a ``for`` or a comprehension)
        iterates ``iterable``, whose value is the ``unordered`` dep."""
        _, line, reason = unordered
        if line != iterable.lineno:
            reason = f"{reason} (built at line {line})"
        self._order_sites.setdefault(id(owner), []).append(
            (iterable.lineno, col + 1, reason)
        )

    def _source_taint(self, node: ast.Call, qualname: Optional[str]) -> Optional[Dep]:
        line = node.lineno
        if qualname is None:
            return None
        parts = qualname.split(".")
        if parts[0] == "random" and len(parts) == 2:
            attr = parts[1]
            if attr == "Random" and not node.args and not node.keywords:
                return ("taint", contracts.TAINT_RNG, line, "random.Random() without a seed")
            if attr == "SystemRandom":
                return ("taint", contracts.TAINT_RNG, line, "random.SystemRandom()")
            if attr in contracts.GLOBAL_RANDOM_FUNCTIONS:
                return ("taint", contracts.TAINT_RNG, line, f"random.{attr}()")
        if parts[:2] == ["numpy", "random"] and len(parts) >= 3:
            if not (parts[2] == "default_rng" and (node.args or node.keywords)):
                return ("taint", contracts.TAINT_RNG, line, f"{qualname}()")
        if qualname in contracts.WALL_CLOCK_CALLS:
            return ("taint", contracts.TAINT_CLOCK, line, f"{qualname}()")
        if qualname in contracts.ENVIRON_CALLS:
            return ("taint", contracts.TAINT_ENV, line, f"{qualname}()")
        return None

    def _callee_candidates(
        self, func: ast.expr, qualname: Optional[str]
    ) -> Tuple[List[str], int]:
        if isinstance(func, ast.Name):
            return self._reference_candidates(func.id), 0
        if isinstance(func, ast.Attribute):
            parts = _dotted_parts(func)
            if parts is None:
                return [], 0
            if parts[0] in ("self", "cls") and len(parts) == 2 and self.class_name:
                return [f"{self.ctx.module}.{self.class_name}.{parts[1]}"], 1
            if qualname is not None and "." in qualname:
                return [qualname], 0
        return [], 0

    def _sink_display(
        self,
        func: ast.expr,
        qualname: Optional[str],
        candidates: Sequence[str],
        receiver_parts: Sequence[str],
    ) -> Optional[str]:
        for candidate in list(candidates) + ([qualname] if qualname else []):
            if contracts.is_sink_function(candidate):
                return candidate
        if isinstance(func, ast.Attribute) and len(receiver_parts) >= 2:
            return contracts.sink_method_receiver(receiver_parts[:-1], func.attr)
        return None


#: Description of the order taint an iteration creates; the engine keys
#: REP002 sites on it to leave their same-file flows out of REP010.
ITERATION_TAINT = "iterating an unordered value"


def _iteration_taint(iterable: ast.expr) -> Dep:
    return ("taint", contracts.TAINT_ORDER, iterable.lineno, ITERATION_TAINT)


def _first_unordered(deps: DepSet) -> Optional[Dep]:
    for dep in sorted(deps, key=repr):
        if dep[0] == "unordered":
            return dep
    return None


def _drop_order(deps: DepSet) -> DepSet:
    """Launder order nondeterminism: strip direct order facts and mark
    call deps laundered (``lcall``) so the propagation engine also
    discards the *callee's* order taint — ``sorted(f(x))`` is clean even
    when ``f`` returns a set."""
    kept: Set[Dep] = set()
    for dep in deps:
        if dep[0] in ("unordered", "icall", "imcall"):
            continue
        if dep[0] == "taint" and dep[1] == contracts.TAINT_ORDER:
            continue
        if dep[0] == "call":
            kept.add(("lcall",) + dep[1:])
        else:
            kept.add(dep)
    return frozenset(kept)


#: Element facts: a sequence's elements are unordered containers (or a
#: callee's possibly unordered return); the sequence itself is not.
_AS_ELEMENT = {"unordered": "eunordered", "call": "ecall"}
_OF_ELEMENT = {element: tag for tag, element in _AS_ELEMENT.items()}


def _sequence_of(deps: DepSet) -> DepSet:
    """The deps of an ordered sequence of values with ``deps``: their
    taints, with their container-ness kept as element facts — a list of
    frozensets is not itself unordered.  An element of a callee's return
    (``icall``) has no element form and is dropped: the sequence keeps
    that element's taints through its ``mcall``."""
    return frozenset(
        (_AS_ELEMENT.get(dep[0], dep[0]),) + dep[1:] for dep in deps if dep[0] != "icall"
    )


def _iterated(deps: DepSet) -> DepSet:
    """The deps of the values an iteration over ``deps`` yields: call
    deps materialized, plus an ``icall`` for the callee's elements (which
    may be unordered containers themselves); a sequence's element facts
    become the container-ness of what the iteration yields."""
    iterated = {(_OF_ELEMENT.get(dep[0], dep[0]),) + dep[1:] for dep in _mark_materialized(deps)}
    iterated.update(("icall",) + dep[1:] for dep in deps if dep[0] == "call")
    return frozenset(iterated)


#: Materialized forms: iterating/listing/joining a callee's return, or
#: one element of it.
_MATERIALIZED = {"call": "mcall", "icall": "imcall"}


def _mark_materialized(deps: DepSet) -> DepSet:
    """Mark call deps materialized (``mcall`` / ``imcall``): if the callee
    turns out to return an unordered container — or, for an element, a
    sequence of them — iterating/listing/joining it here becomes order
    taint at *this* line (resolved by the engine, since the callee's
    summary is unknown during local extraction)."""
    return frozenset((_MATERIALIZED.get(dep[0], dep[0]),) + dep[1:] for dep in deps)
