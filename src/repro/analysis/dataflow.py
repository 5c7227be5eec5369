"""Whole-program propagation over the per-function summaries.

This is the *uncached* half of the interprocedural analyzer: it takes
the per-file :class:`~repro.analysis.summaries.FileFacts` (freshly
extracted or replayed from the incremental cache — indistinguishable by
construction) and computes every cross-file judgment from scratch on
each run:

* a **function index** with re-export-tolerant call resolution
  (``repro.lcl.encode_problem`` resolves to the unique
  ``repro.lcl.codec.encode_problem`` when the package ``__init__``
  re-exports it);
* **fixed-point summaries** per function — which nondeterminism kinds
  its return value carries (with the full witness chain), whether it
  returns an unordered container or a sequence of them (the element
  fact), and which of its parameters flow into
  serialization sinks (transitively, through further calls);
* one **reach graph** — module-level import edges between modules and
  call edges between functions — walked by a single BFS
  (:meth:`WholeProgram._reach`);
* the whole-program queries the rules consume:
  :meth:`WholeProgram.order_sites` (REP002, the zero-hop case of
  REP010), :meth:`WholeProgram.taint_hits` (REP010),
  :meth:`WholeProgram.fork_hazards` (REP011), and
  :meth:`WholeProgram.engine_reach` (REP003 for import-only chains,
  REP012 for call chains).

Termination: the summary lattice is finite and the transfer function is
monotone — taint kinds and param-sink records are only ever *added*, and
the witness chain attached to a kind is frozen the first time the kind
appears (a later, different chain for an already-known kind never
re-triggers propagation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.analysis import contracts
from repro.analysis.summaries import (
    Dep,
    DepSet,
    FileFacts,
    FunctionRecord,
    ITERATION_TAINT,
    MAX_EVAL_DEPTH,
)

#: One step of a human-readable witness chain: ``path:line: what``.
Chain = Tuple[str, ...]


def _step(rel_path: str, line: int, text: str) -> str:
    return f"{rel_path}:{line}: {text}"


@dataclass
class ParamSink:
    """A (transitive) flow from one function parameter into a sink."""

    sink: str
    sink_path: str
    sink_line: int
    #: Hops from the parameter to the sink (call sites, then the sink).
    hops: Chain

    def key(self) -> Tuple[str, str, int]:
        return (self.sink, self.sink_path, self.sink_line)


@dataclass
class Summary:
    """Propagated facts about one function's return value and params."""

    ret_taints: Dict[str, Chain] = field(default_factory=dict)
    ret_unordered: bool = False
    #: The return is an ordered sequence of unordered containers
    #: (``[frozenset(...) for ...]``): iterating it yields unordered values.
    ret_elements_unordered: bool = False
    param_sinks: Dict[str, List[ParamSink]] = field(default_factory=dict)


@dataclass(frozen=True)
class OrderSite:
    """REP002: an unlaundered iteration over an unordered value inside an
    ordered-output module."""

    path: str
    line: int
    col: int
    reason: str


@dataclass(frozen=True)
class TaintHit:
    """REP010: a nondeterministic value reaching a serialization sink."""

    kind: str
    sink: str
    path: str  # file containing the sink call (finding anchor)
    line: int  # sink call line (so sink-line suppressions work)
    chain: Chain


@dataclass(frozen=True)
class ForkHazard:
    """REP011: fork-reachable code carrying unsafe state."""

    hazard: str
    path: str
    line: int
    root: str  # the fork entrypoint this is reachable from
    chain: Chain


@dataclass(frozen=True)
class EngineReach:
    """REP003 / REP012: a checker root whose reach chain enters the
    engine; ``calls`` tells a call chain (REP012) from an import-only
    one (REP003)."""

    calls: bool
    root: str
    target: str
    path: str
    line: int
    chain: Chain


#: A reach-graph node: ``("module", name)`` or ``("function", key)``.
Node = Tuple[str, str]


@dataclass(frozen=True)
class Edge:
    """One reach-graph step: a module-level import (module to module)
    or a call or function reference (function to function)."""

    kind: str  # "import" or "call"
    target: Node
    path: str
    line: int

    def render(self) -> str:
        verb = "imports" if self.kind == "import" else "calls"
        return _step(self.path, self.line, f"{verb} {self.target[1]}")


class WholeProgram:
    """Call graph + fixed-point summaries over a project's FileFacts."""

    def __init__(self, facts: Dict[str, FileFacts]):
        self.facts = facts
        #: qualname -> record, across every file.
        self.functions: Dict[str, FunctionRecord] = {}
        #: simple function name -> sorted keys (for suffix resolution).
        self._by_name: Dict[str, List[str]] = {}
        for module in sorted(facts):
            for key, record in facts[module].functions.items():
                self.functions[key] = record
                self._by_name.setdefault(record.name, []).append(key)
        for keys in self._by_name.values():
            keys.sort()
        self._resolve_cache: Dict[str, Tuple[str, ...]] = {}
        self.summaries: Dict[str, Summary] = {
            key: Summary() for key in self.functions
        }
        self._callers: Dict[str, Set[str]] = {}
        self._build_reverse_edges()
        self._propagate()
        self._edge_cache: Dict[Node, List[Edge]] = {}
        for module in sorted(facts):
            rel_path = facts[module].rel_path
            # A submodule's import executes its package __init__ first.
            package = module.rsplit(".", 1)[0] if "." in module else ""
            targets = [(package, 1)] + list(facts[module].import_edges)
            self._edge_cache[("module", module)] = [
                Edge("import", ("module", target), rel_path, line)
                for target, line in targets
                if target in facts and target != module
            ]

    # -- resolution ---------------------------------------------------------
    def resolve(self, candidate: str) -> Tuple[str, ...]:
        """Project function keys a callee candidate may denote.

        Exact qualname match first; otherwise the re-export fallback: a
        candidate ``pkg.name`` (where ``pkg`` is a project package whose
        ``__init__`` re-exports ``name``) resolves to the *unique* key
        ``pkg.<submodule...>.name``.  Ambiguous fallbacks resolve to
        nothing — a lint must not guess."""
        cached = self._resolve_cache.get(candidate)
        if cached is not None:
            return cached
        result: Tuple[str, ...]
        if candidate in self.functions:
            result = (candidate,)
        elif "." in candidate:
            prefix, name = candidate.rsplit(".", 1)
            matches = [
                key
                for key in self._by_name.get(name, ())
                if key.startswith(prefix + ".") and key != candidate
            ]
            result = (matches[0],) if len(matches) == 1 else ()
        else:
            result = ()
        self._resolve_cache[candidate] = result
        return result

    def _resolve_all(self, candidates: Sequence[str]) -> Tuple[str, ...]:
        seen: List[str] = []
        for candidate in candidates:
            for key in self.resolve(candidate):
                if key not in seen:
                    seen.append(key)
        return tuple(seen)

    def _build_reverse_edges(self) -> None:
        for key, record in self.functions.items():
            for call in record.calls:
                for target in self._resolve_all(call.candidates):
                    self._callers.setdefault(target, set()).add(key)

    # -- dep evaluation -----------------------------------------------------
    def evaluate(self, deps: DepSet, rel_path: str) -> Tuple[Dict[str, Chain], bool]:
        """Resolve a dep set against the current summaries: the taint
        kinds it carries (with witness chains) and whether it holds an
        unordered container."""
        taints: Dict[str, Chain] = {}
        unordered = False
        for dep in sorted(deps, key=repr):
            tag = dep[0]
            if tag == "taint":
                _, kind, line, desc = dep
                taints.setdefault(kind, (_step(rel_path, line, desc),))
            elif tag == "unordered":
                unordered = True
            elif tag in ("call", "lcall", "mcall", "ecall"):
                _, candidate, line = dep
                for target in self.resolve(candidate):
                    summary = self.summaries[target]
                    for kind, chain in summary.ret_taints.items():
                        if tag == "lcall" and kind == contracts.TAINT_ORDER:
                            continue  # sorted()/min()/... launders order
                        taints.setdefault(
                            kind,
                            chain + (_step(rel_path, line, f"returned by {target}"),),
                        )
                    if summary.ret_unordered:
                        if tag == "call":
                            unordered = True
                        elif tag == "mcall":
                            origin = (
                                _step(
                                    self.functions[target].rel_path,
                                    self.functions[target].line,
                                    f"{target} returns an unordered container",
                                ),
                            )
                            taints.setdefault(
                                contracts.TAINT_ORDER,
                                origin
                                + (
                                    _step(
                                        rel_path,
                                        line,
                                        "iterating/materializing its unordered return",
                                    ),
                                ),
                            )
            elif tag in ("icall", "imcall"):
                _, candidate, line = dep
                for target in self.resolve(candidate):
                    if not self.summaries[target].ret_elements_unordered:
                        continue
                    if tag == "icall":
                        unordered = True
                        continue
                    origin = (
                        _step(
                            self.functions[target].rel_path,
                            self.functions[target].line,
                            f"{target} returns a sequence of unordered containers",
                        ),
                    )
                    taints.setdefault(
                        contracts.TAINT_ORDER,
                        origin
                        + (_step(rel_path, line, "iterating/materializing one of its elements"),),
                    )
            # ("param", name), ("fref", ...) and ("eunordered", ...)
            # carry no taint here.
        return taints, unordered

    def elements_unordered(self, deps: DepSet) -> bool:
        """Whether ``deps`` describe a sequence of unordered containers:
        a local one, a sequence of calls returning unordered containers,
        or a callee's return that is such a sequence."""
        for dep in deps:
            tag = dep[0]
            if tag == "eunordered":
                return True
            if tag in ("ecall", "call"):
                for target in self.resolve(dep[1]):
                    summary = self.summaries[target]
                    if tag == "ecall" and summary.ret_unordered:
                        return True
                    if tag == "call" and summary.ret_elements_unordered:
                        return True
        return False

    # -- fixed point --------------------------------------------------------
    def _transfer(self, key: str) -> bool:
        """Recompute one function's summary; True if it grew."""
        record = self.functions[key]
        summary = self.summaries[key]
        changed = False
        self._linked_changed = False

        taints, unordered = self.evaluate(record.return_deps, record.rel_path)
        for kind, chain in taints.items():
            if kind not in summary.ret_taints:
                summary.ret_taints[kind] = chain
                changed = True
        if unordered and not summary.ret_unordered:
            summary.ret_unordered = True
            changed = True
        if not summary.ret_elements_unordered and self.elements_unordered(record.return_deps):
            summary.ret_elements_unordered = True
            changed = True
        # A function returning a raw unordered dep also propagates the
        # container-ness through plain `call` deps (handled in evaluate).

        # Direct param -> local sink flows.
        for sink in record.sinks:
            params = {dep[1] for dep in sink.deps if dep[0] == "param"}
            for param in params:
                ps = ParamSink(
                    sink=sink.sink,
                    sink_path=record.rel_path,
                    sink_line=sink.line,
                    hops=(_step(record.rel_path, sink.line, f"into sink {sink.sink}"),),
                )
                if self._add_param_sink(summary, param, ps):
                    changed = True

        # Transitive param -> callee-param -> ... -> sink flows.
        for call in record.calls:
            for target in self._resolve_all(call.candidates):
                target_record = self.functions[target]
                target_summary = self.summaries[target]
                if not target_summary.param_sinks:
                    continue
                for position, deps in enumerate(call.args):
                    index = position + call.offset
                    if index >= len(target_record.params):
                        continue
                    self._link_param_sinks(
                        summary, record, call.line, target,
                        target_record.params[index], target_summary, deps,
                    )
                for kwname, deps in call.kwargs.items():
                    if kwname in target_record.params:
                        self._link_param_sinks(
                            summary, record, call.line, target,
                            kwname, target_summary, deps,
                        )
                changed |= self._linked_changed
        return changed

    _linked_changed = False

    def _link_param_sinks(
        self,
        summary: Summary,
        record: FunctionRecord,
        line: int,
        target: str,
        target_param: str,
        target_summary: Summary,
        deps: DepSet,
    ) -> None:
        for ps in target_summary.param_sinks.get(target_param, ()):  # noqa: B020
            hop = _step(record.rel_path, line, f"passed to {target}({target_param}=...)")
            extended = ParamSink(
                sink=ps.sink,
                sink_path=ps.sink_path,
                sink_line=ps.sink_line,
                hops=(hop,) + ps.hops,
            )
            for dep in deps:
                if dep[0] == "param":
                    if self._add_param_sink(summary, dep[1], extended):
                        self._linked_changed = True

    def _add_param_sink(self, summary: Summary, param: str, ps: ParamSink) -> bool:
        existing = summary.param_sinks.setdefault(param, [])
        if any(other.key() == ps.key() for other in existing):
            return False
        if len(existing) >= MAX_EVAL_DEPTH:
            return False  # pathological fan-in guard
        existing.append(ps)
        return True

    def _propagate(self) -> None:
        pending: List[str] = sorted(self.functions)
        queued: Set[str] = set(pending)
        rounds = 0
        limit = max(64, len(self.functions) * 16)
        while pending and rounds < limit:
            key = pending.pop(0)
            queued.discard(key)
            self._linked_changed = False
            if self._transfer(key):
                for caller in sorted(self._callers.get(key, ())):
                    if caller not in queued:
                        queued.add(caller)
                        pending.append(caller)
            rounds += 1

    # -- queries ------------------------------------------------------------
    def _is_scaffold(self, module: str) -> bool:
        facts = self.facts.get(module)
        return bool(facts and facts.is_scaffolding)

    def taint_hits(self) -> List[TaintHit]:
        """REP010 raw material: every nondeterministic-value-to-sink
        flow, anchored at the sink call line, with the full witness
        chain.  A set-order flow born at a REP002 site and sunk in the
        same file is the zero-hop case REP002 already reports at the
        iteration itself."""
        hits: List[TaintHit] = []
        seen: Set[Tuple[str, str, str, int]] = set()
        zero_hop = {
            (site.path, _step(site.path, site.line, ITERATION_TAINT))
            for site in self.order_sites()
        }

        def emit(kind: str, sink: str, path: str, line: int, chain: Chain) -> None:
            dedup = (kind, sink, path, line)
            if dedup in seen or (path, chain[0]) in zero_hop:
                return
            seen.add(dedup)
            hits.append(TaintHit(kind=kind, sink=sink, path=path, line=line, chain=chain))

        for key in sorted(self.functions):
            record = self.functions[key]
            if self._is_scaffold(record.module):
                continue
            # Direct + return-propagated flows into sinks called here.
            for sink in record.sinks:
                taints, _ = self.evaluate(sink.deps, record.rel_path)
                for kind, chain in sorted(taints.items()):
                    emit(
                        kind,
                        sink.sink,
                        record.rel_path,
                        sink.line,
                        chain + (_step(record.rel_path, sink.line, f"into sink {sink.sink}"),),
                    )
            # Argument flows: a tainted value passed into a callee whose
            # parameter (transitively) reaches a sink.
            for call in record.calls:
                for target in self._resolve_all(call.candidates):
                    target_record = self.functions[target]
                    target_summary = self.summaries[target]
                    # A call that *resolves* to a sink function is a sink
                    # even when the spelled name hid the defining module
                    # (package re-exports) from local extraction.
                    if contracts.is_sink_function(target):
                        union: Set[Dep] = set()
                        for deps in call.args:
                            union |= deps
                        for deps in call.kwargs.values():
                            union |= deps
                        taints, _ = self.evaluate(frozenset(union), record.rel_path)
                        for kind, chain in sorted(taints.items()):
                            emit(
                                kind,
                                target,
                                record.rel_path,
                                call.line,
                                chain
                                + (_step(record.rel_path, call.line, f"into sink {target}"),),
                            )
                    if not target_summary.param_sinks:
                        continue
                    pairs: List[Tuple[str, DepSet]] = []
                    for position, deps in enumerate(call.args):
                        index = position + call.offset
                        if index < len(target_record.params):
                            pairs.append((target_record.params[index], deps))
                    for kwname, deps in call.kwargs.items():
                        if kwname in target_record.params:
                            pairs.append((kwname, deps))
                    for param, deps in pairs:
                        sinks = target_summary.param_sinks.get(param)
                        if not sinks:
                            continue
                        taints, _ = self.evaluate(deps, record.rel_path)
                        for kind, chain in sorted(taints.items()):
                            hop = _step(
                                record.rel_path,
                                call.line,
                                f"passed to {target}({param}=...)",
                            )
                            for ps in sinks:
                                emit(
                                    kind,
                                    ps.sink,
                                    ps.sink_path,
                                    ps.sink_line,
                                    chain + (hop,) + ps.hops,
                                )
        return hits

    def order_sites(self) -> List[OrderSite]:
        """REP002 raw material: every iteration over an unordered value,
        not laundered by an order-insensitive builtin, in a function of
        an ordered-output module."""
        sites: List[OrderSite] = []
        for key in sorted(self.functions):
            record = self.functions[key]
            stem = PurePosixPath(record.rel_path).stem
            if contracts.is_ordered_output_module(stem, record.module.split(".")):
                sites.extend(
                    OrderSite(record.rel_path, line, col, reason)
                    for line, col, reason in record.order_sites
                )
        return sites

    # -- fork safety (REP011) ------------------------------------------------
    def fork_roots(self) -> Dict[str, str]:
        """Function key -> how it became a fork root."""
        roots: Dict[str, str] = {}

        def add(key: str, why: str) -> None:
            roots.setdefault(key, why)

        for key in sorted(self.functions):
            record = self.functions[key]
            if key.endswith(contracts.FORK_ENTRYPOINT_SUFFIXES):
                add(key, "fork-child entrypoint")
            for decorator in record.decorators:
                if decorator in contracts.FORK_RUNNER_DECORATORS:
                    add(key, f"@{decorator} cell runner")
        return roots

    def _edges(self, node: Node) -> List[Edge]:
        """Out-edges of a reach-graph node (function edges built on first
        use; module edges are built with the engine)."""
        edges = self._edge_cache.get(node)
        if edges is None:
            record = self.functions[node[1]]
            targets: List[Tuple[str, int]] = [
                (target, call.line)
                for call in record.calls
                for target in self._resolve_all(call.candidates)
            ]
            for dep in sorted(record.return_deps, key=repr):
                if dep[0] == "fref":
                    targets.extend((target, dep[2]) for target in self.resolve(dep[1]))
            edges = [
                Edge("call", ("function", target), record.rel_path, line)
                for target, line in targets
            ]
            self._edge_cache[node] = edges
        return edges

    def _reach(
        self, root: Node, stop: FrozenSet[Node] = frozenset()
    ) -> Dict[Node, Tuple[Edge, ...]]:
        """The one reachability walk: BFS over the reach graph from
        ``root``, never entering ``stop``; reached node -> edge chain."""
        chains: Dict[Node, Tuple[Edge, ...]] = {root: ()}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for edge in self._edges(node):
                if edge.target not in chains and edge.target not in stop:
                    chains[edge.target] = chains[node] + (edge,)
                    queue.append(edge.target)
        return chains

    def fork_hazards(self, parent_scoped_knobs: FrozenSet[str] = frozenset()) -> List[ForkHazard]:
        """REP011 raw material: hazards in functions reachable from fork
        roots — mutating module-level mutable globals, touching
        unpicklable module-level state, or re-reading parent-scoped
        REPRO_* knobs in the child."""
        hazards: List[ForkHazard] = []
        seen: Set[Tuple[str, int, str]] = set()
        roots = self.fork_roots()
        for root in sorted(roots):
            why = roots[root]
            for (_, key), edges in sorted(self._reach(("function", root)).items()):
                chain = tuple(edge.render() for edge in edges)
                record = self.functions[key]
                if self._is_scaffold(record.module):
                    continue
                facts = self.facts.get(record.module)
                prefix = (
                    _step(record.rel_path, record.line, f"{key} (root: {why})"),
                ) if key == root else (
                    _step(
                        self.functions[root].rel_path,
                        self.functions[root].line,
                        f"{root} (root: {why})",
                    ),
                ) + chain

                def emit(line: int, text: str) -> None:
                    dedup = (record.rel_path, line, text)
                    if dedup in seen:
                        return
                    seen.add(dedup)
                    hazards.append(
                        ForkHazard(
                            hazard=text,
                            path=record.rel_path,
                            line=line,
                            root=root,
                            chain=prefix,
                        )
                    )

                for name, line in record.global_mutations:
                    emit(
                        line,
                        f"mutates module-level mutable global '{name}' in fork-reachable code",
                    )
                if facts is not None:
                    for name, line in record.global_reads:
                        if name in facts.unpicklable_globals:
                            emit(
                                line,
                                f"touches unpicklable module-level object '{name}' in fork-reachable code",
                            )
                for knob, line in record.env_reads:
                    if knob in parent_scoped_knobs:
                        emit(
                            line,
                            f"re-reads parent-scoped knob {knob} in fork-reachable code",
                        )
        return hazards

    # -- engine freedom (REP003 / REP012) -------------------------------------
    def engine_reach(self) -> List[EngineReach]:
        """REP003 and REP012 raw material, from one reach walk per checker
        root.  A checker module's walk follows module-level imports
        only: each first edge into an engine module is an import-only
        crossing (REP003).  A checker function's walk follows calls: its
        shallowest engine function is a call crossing (REP012), anchored
        at the function's first call edge.  Producer functions
        (``certify``) are the sanctioned boundary — walks do not enter
        them."""
        producers = frozenset(
            ("function", key)
            for key, record in self.functions.items()
            if contracts.is_producer_module(record.module)
        )
        roots: List[Node] = [
            ("module", module) for module in sorted(self.facts)
        ] + [("function", key) for key in sorted(self.functions)]
        out: List[EngineReach] = []
        anchors: Set[Tuple[bool, str, int]] = set()
        for root in roots:
            module = self._module_of(root)
            if not contracts.is_checker_module(module) or self._is_scaffold(module):
                continue
            crossings = [
                (node, edges)
                for node, edges in self._reach(root, stop=producers).items()
                if edges and contracts.is_engine_module(self._module_of(node))
            ]
            calls = root[0] == "function"
            if calls and crossings:
                crossings = [min(crossings, key=lambda crossing: len(crossing[1]))]
            for node, edges in sorted(crossings):
                anchor = edges[0] if calls else next(
                    edge
                    for edge in edges
                    if contracts.is_engine_module(self._module_of(edge.target))
                )
                if (calls, anchor.path, anchor.line) in anchors:
                    continue
                anchors.add((calls, anchor.path, anchor.line))
                out.append(
                    EngineReach(
                        calls=calls,
                        root=root[1],
                        target=node[1],
                        path=anchor.path,
                        line=anchor.line,
                        chain=(root[1],) + tuple(edge.render() for edge in edges),
                    )
                )
        return out

    def _module_of(self, node: Node) -> str:
        return node[1] if node[0] == "module" else self.functions[node[1]].module
