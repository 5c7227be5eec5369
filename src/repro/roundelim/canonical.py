"""Canonical forms and stable content hashes for node-edge-checkable LCLs.

Round elimination meets the *same* problem under many different label
spellings: ``R̄(R(Π))`` names its outputs as frozensets-of-frozensets,
hygiene renames survivors, and isomorphic fixed points recur with fresh
labels every iteration.  Caching operator results (and detecting fixed
points) therefore needs a notion of identity that is blind to output
label names but exact about structure.

This module computes, for any :class:`NodeEdgeCheckableLCL`:

* a **canonical order** of ``Σ_out`` — a deterministic ordering such that
  relabeling the outputs of a problem does not change the induced
  index structure (for every problem the search below finds it; see the
  completeness caveat);
* a **canonical encoding** — the node/edge/``g`` constraints rewritten
  over output indices in canonical order, as a nested tuple of plain
  ints and input-label keys;
* a **canonical hash** — a SHA-256 digest of that encoding.  The digest
  is independent of ``PYTHONHASHSEED`` and of the interpreter process:
  it only ever hashes ``repr`` of ints, strings, and tuples.

Identity semantics
------------------
Input labels are part of the *instance*, not of the solution, so they are
encoded verbatim (two problems with renamed inputs are **not**
identified — matching :meth:`NodeEdgeCheckableLCL.is_isomorphic`).  The
problem ``name`` never enters the encoding.

Equal canonical encodings always imply isomorphism: each problem admits
an output ordering mapping it onto the same indexed structure, and the
composition of those orderings is an output bijection.  The converse
(isomorphic problems always hash equal) holds whenever the refinement
classes are small enough for the permutation search below to be
exhaustive; beyond :data:`PERMUTATION_BUDGET` candidate orders the
search degrades to a deterministic but name-sensitive tie-break, which
can only cause cache misses, never wrong hits.
:func:`canonically_equal` compensates by falling back to the exact
backtracking isomorphism test in that (pathological) regime.

Search and budget
-----------------
Color refinement (one counting pass per round over the configurations)
splits ``Σ_out`` into classes; the candidate orders permute labels
within classes, and the first order whose encoding is smallest wins.
The argmin over the orders is compiled:
:func:`repro.roundelim.bitset.canonical_argmin` compares every order's
encoding at once, reached through the ``REPRO_BITSET`` switch.  The
per-order Python loop (:func:`_oracle_argmin`) is its oracle; it answers
when the backend is off, numpy is missing, or the configurations are
too wide to pack into an int64.  Either way the winning encoding is
built once by :func:`_encode_with_order`, so the digest bytes do not
depend on the backend.  The search polls the ambient budget once per
refinement round and before each kernel chunk or oracle order, but
charges nothing: configuration counts stay those of the
operators.  A trip raises through the memo, so no failure is cached.

The module also provides the serialization used by the operator cache
(:mod:`repro.utils.cache`): results of ``R`` / ``R̄`` / ``simplify`` are
stored *relative to the canonical order of their input problem*
(:func:`encode_result`), so a cached entry computed for one spelling of
a problem can be decoded against any isomorphic spelling
(:func:`decode_result`) and yields the correctly relabeled result.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from repro.exceptions import ProblemDefinitionError, ReproError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils import budget as budget_scope
from repro.utils.multiset import Multiset, label_sort_key

#: Maximum number of candidate output orderings examined by the
#: canonical search.  Refinement almost always splits the alphabet into
#: singleton classes (or genuinely interchangeable orbits, for which any
#: order yields the same encoding), so the budget is only reached on
#: adversarially symmetric problems.
PERMUTATION_BUDGET = 720


class UnencodableLabelError(ReproError):
    """A label cannot be serialized for the operator cache."""


# ------------------------------------------------------------------ refinement
def _initial_colors(
    problem: NodeEdgeCheckableLCL, sigma_in_order: Sequence[Any]
) -> Dict[Any, int]:
    """Isomorphism-invariant starting partition of the output labels.

    One counting pass over the configurations: per constraint (each node
    degree, then the edge constraint), how many configurations contain
    each label and how many times it occurs in them.
    """
    degrees = sorted(problem.node_constraints)
    constraints = [problem.node_constraints[d] for d in degrees]
    constraints.append(problem.edge_constraint)
    containing = []
    occurring = []
    for configurations in constraints:
        contain = dict.fromkeys(problem.sigma_out, 0)
        occur = dict.fromkeys(problem.sigma_out, 0)
        for c in configurations:
            for x in c.items:
                occur[x] += 1
            for x in dict.fromkeys(c.items):
                contain[x] += 1
        containing.append(contain)
        occurring.append(occur)
    signatures = {}
    for a in problem.sigma_out:
        g_pattern = tuple(a in problem.g[i] for i in sigma_in_order)
        node_pattern = tuple(
            (degree, containing[k][a], occurring[k][a])
            for k, degree in enumerate(degrees)
        )
        edge_pattern = (containing[-1][a], occurring[-1][a])
        signatures[a] = (g_pattern, node_pattern, edge_pattern)
    return _colors_from_signatures(signatures)


def _colors_from_signatures(signatures: Dict[Any, Any]) -> Dict[Any, int]:
    ordered = sorted(set(signatures.values()))
    index = {signature: i for i, signature in enumerate(ordered)}
    return {a: index[signatures[a]] for a in signatures}


def _refine(problem: NodeEdgeCheckableLCL, sigma_in_order: Sequence[Any]) -> Dict[Any, int]:
    """Color refinement: iterate role signatures to a stable partition.

    A label's signature is its color plus the sorted colorings of the
    edge and node configurations that contain it.  Each round colors
    every configuration once and hands the result to the labels in it.
    The budget is polled once per round.
    """
    colors = _initial_colors(problem, sigma_in_order)
    edge = [(c.items, tuple(dict.fromkeys(c.items))) for c in problem.edge_constraint]
    node = [
        (degree, c.items, tuple(dict.fromkeys(c.items)))
        for degree in sorted(problem.node_constraints)
        for c in problem.node_constraints[degree]
    ]
    while True:
        budget_scope.check()
        color_of = colors.__getitem__
        edge_views: Dict[Any, List[tuple]] = {a: [] for a in problem.sigma_out}
        for items, support in edge:
            view = tuple(sorted(map(color_of, items)))
            for a in support:
                edge_views[a].append(view)
        node_views: Dict[Any, List[tuple]] = {a: [] for a in problem.sigma_out}
        for degree, items, support in node:
            view = (degree, tuple(sorted(map(color_of, items))))
            for a in support:
                node_views[a].append(view)
        signatures = {
            a: (colors[a], tuple(sorted(edge_views[a])), tuple(sorted(node_views[a])))
            for a in problem.sigma_out
        }
        refined = _colors_from_signatures(signatures)
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


# ------------------------------------------------------------------- encoding
def _encode_with_order(
    problem: NodeEdgeCheckableLCL,
    order: Sequence[Any],
    sigma_in_order: Sequence[Any],
) -> tuple:
    index = {a: i for i, a in enumerate(order)}
    node = tuple(
        (
            degree,
            tuple(
                sorted(
                    tuple(sorted(index[x] for x in c.items))
                    for c in configurations
                )
            ),
        )
        for degree, configurations in sorted(problem.node_constraints.items())
    )
    edge = tuple(
        sorted(
            tuple(sorted(index[x] for x in c.items))
            for c in problem.edge_constraint
        )
    )
    g = tuple(
        tuple(sorted(index[x] for x in problem.g[i])) for i in sigma_in_order
    )
    inputs = tuple(label_sort_key(i) for i in sigma_in_order)
    return (len(order), inputs, node, edge, g)


def _candidate_orders(
    classes: List[List[Any]], budget: int
) -> Tuple[List[Tuple[Any, ...]], bool]:
    """All class-respecting orders, or a deterministic fallback.

    Returns ``(orders, complete)`` where ``complete`` is False iff some
    class was frozen to its ``label_sort_key`` order to stay within
    ``budget`` (making the search non-exhaustive).
    """
    permute = [True] * len(classes)
    def total() -> int:
        return math.prod(
            math.factorial(len(c)) if p else 1 for c, p in zip(classes, permute)
        )
    complete = True
    while total() > budget:
        # Freeze the largest still-permuted class (the biggest factorial win).
        candidates = [i for i, p in enumerate(permute) if p and len(classes[i]) > 1]
        if not candidates:
            break
        largest = max(candidates, key=lambda i: len(classes[i]))
        permute[largest] = False
        complete = False
    per_class = [
        list(itertools.permutations(c)) if p else [tuple(c)]
        for c, p in zip(classes, permute)
    ]
    orders = [
        tuple(itertools.chain.from_iterable(parts))
        for parts in itertools.product(*per_class)
    ]
    return orders, complete


def _oracle_argmin(
    problem: NodeEdgeCheckableLCL,
    orders: Sequence[Tuple[Any, ...]],
    sigma_in_order: Sequence[Any],
) -> Tuple[Any, ...]:
    """The first order whose encoding is smallest, one encoding per order.

    The pure-Python reference for the compiled search
    (:func:`repro.roundelim.bitset.canonical_argmin`); it answers when
    the backend is off, numpy is missing, or the shape cannot be packed.
    """
    best_order = orders[0]
    best_encoding = None
    for order in orders:
        budget_scope.check()
        encoding = _encode_with_order(problem, order, sigma_in_order)
        if best_encoding is None or encoding < best_encoding:
            best_encoding = encoding
            best_order = order
    return best_order


def _best_order(
    problem: NodeEdgeCheckableLCL,
    orders: Sequence[Tuple[Any, ...]],
    sigma_in_order: Sequence[Any],
) -> Tuple[Any, ...]:
    """The argmin of the order search: compiled kernel, else the oracle."""
    if len(orders) == 1:
        return orders[0]
    from repro.roundelim.ops import _bitset_backend

    backend = _bitset_backend()
    if backend is not None:
        try:
            return orders[backend.canonical_argmin(problem, orders, sigma_in_order)]
        except backend.BitsetUnsupported:
            pass
    return _oracle_argmin(problem, orders, sigma_in_order)


@lru_cache(maxsize=512)
def _canonical_state(problem: NodeEdgeCheckableLCL) -> Tuple[Tuple[Any, ...], tuple, str, bool]:
    """``(order, encoding, hash, complete)`` for a problem, memoized.

    The memo key uses the problem's structural ``__eq__`` / ``__hash__``,
    so repeated operator calls on the same object (or equal copies) pay
    the canonicalization once.  A budget trip raises out of the memo, so
    no failure is ever cached.
    """
    sigma_in_order = tuple(sorted(problem.sigma_in, key=label_sort_key))
    colors = _refine(problem, sigma_in_order)
    classes: Dict[int, List[Any]] = {}
    for label in sorted(problem.sigma_out, key=label_sort_key):
        classes.setdefault(colors[label], []).append(label)
    ordered_classes = [classes[color] for color in sorted(classes)]
    orders, complete = _candidate_orders(ordered_classes, PERMUTATION_BUDGET)
    best_order = _best_order(problem, orders, sigma_in_order)
    best_encoding = _encode_with_order(problem, best_order, sigma_in_order)
    digest = hashlib.sha256(repr(best_encoding).encode("utf-8")).hexdigest()
    return best_order, best_encoding, digest, complete


def canonical_order(problem: NodeEdgeCheckableLCL) -> Tuple[Any, ...]:
    """The output labels in canonical order (the argmin of the search)."""
    return _canonical_state(problem)[0]


def canonical_encoding(problem: NodeEdgeCheckableLCL) -> tuple:
    """The canonical index-structure encoding (nested tuple of ints)."""
    return _canonical_state(problem)[1]


def canonical_hash(problem: NodeEdgeCheckableLCL) -> str:
    """SHA-256 of the canonical encoding: stable across processes and
    independent of output label names and of the problem ``name``."""
    return _canonical_state(problem)[2]


def is_search_exhaustive(problem: NodeEdgeCheckableLCL) -> bool:
    """Did the canonical search stay within :data:`PERMUTATION_BUDGET`?

    When True (the overwhelmingly common case), canonical-hash equality
    is *equivalent* to isomorphism for this problem.
    """
    return _canonical_state(problem)[3]


def canonically_equal(
    first: NodeEdgeCheckableLCL, second: NodeEdgeCheckableLCL
) -> bool:
    """Isomorphism up to output relabeling, decided via canonical hashes.

    Hash equality always implies isomorphism.  If the hashes differ and
    either search was non-exhaustive, falls back to the exact
    backtracking test so the answer stays complete.
    """
    if canonical_hash(first) == canonical_hash(second):
        return True
    if is_search_exhaustive(first) and is_search_exhaustive(second):
        return False
    return first.is_isomorphic(second)


def canonical_form(problem: NodeEdgeCheckableLCL) -> NodeEdgeCheckableLCL:
    """The problem with outputs renamed to ``"0", "1", …`` in canonical
    order — two isomorphic problems have equal (``==``) canonical forms
    whenever their searches were exhaustive."""
    order = canonical_order(problem)
    mapping = {label: str(i) for i, label in enumerate(order)}
    return problem.rename_outputs(mapping)


def clear_canonical_memo() -> None:
    """Drop the canonicalization memo (mostly for tests)."""
    _canonical_state.cache_clear()


# ----------------------------------------------------- cache (de)serialization
def _encode_label(label: Any, base_index: Dict[Any, int]) -> Any:
    """JSON-able encoding of a result label relative to the base alphabet.

    Base labels are referenced by canonical index (``["b", i]``) so the
    encoding is spelling-independent; operator results only ever contain
    base labels (``simplify``) or frozensets over them (``R`` / ``R̄``),
    but plain strings/ints are supported for robustness.
    """
    if label in base_index:
        return ["b", base_index[label]]
    if isinstance(label, frozenset):
        return [
            "f",
            [_encode_label(x, base_index) for x in sorted(label, key=label_sort_key)],
        ]
    if isinstance(label, bool):
        return ["B", bool(label)]
    if isinstance(label, str):
        return ["s", label]
    if isinstance(label, int):
        return ["i", int(label)]
    raise UnencodableLabelError(
        f"label {label!r} of type {type(label).__qualname__} cannot be cached"
    )


def _decode_label(encoded: Any, base_order: Sequence[Any]) -> Any:
    tag, value = encoded
    if tag == "b":
        return base_order[value]
    if tag == "f":
        return frozenset(_decode_label(x, base_order) for x in value)
    if tag == "B":
        return bool(value)
    if tag == "s":
        return str(value)
    if tag == "i":
        return int(value)
    raise ProblemDefinitionError(f"unknown cache label tag {tag!r}")


def encode_result(
    base: NodeEdgeCheckableLCL, result: NodeEdgeCheckableLCL
) -> dict:
    """Serialize an operator result relative to ``base``'s canonical order.

    The payload contains only ints, strings, and lists (JSON-able), no
    label spellings of ``base`` — decoding against any isomorphic
    spelling of ``base`` yields the correctly translated result.  The
    result ``name`` is deliberately excluded (recomputed on decode).
    Raises :class:`UnencodableLabelError` for exotic label types.
    """
    if result.sigma_in != base.sigma_in:
        raise UnencodableLabelError(
            "operator result must preserve sigma_in to be cacheable"
        )
    base_index = {label: i for i, label in enumerate(canonical_order(base))}
    out_sorted = sorted(result.sigma_out, key=label_sort_key)
    out_index = {label: i for i, label in enumerate(out_sorted)}
    sigma_in_order = sorted(base.sigma_in, key=label_sort_key)
    return {
        "v": 1,
        "labels": [_encode_label(label, base_index) for label in out_sorted],
        "node": [
            [
                degree,
                sorted(
                    sorted(out_index[x] for x in c.items) for c in configurations
                ),
            ]
            for degree, configurations in sorted(result.node_constraints.items())
        ],
        "edge": sorted(
            sorted(out_index[x] for x in c.items) for c in result.edge_constraint
        ),
        "g": [
            sorted(out_index[x] for x in result.g[input_label])
            for input_label in sigma_in_order
        ],
    }


def decode_result(
    base: NodeEdgeCheckableLCL, payload: dict, name: str
) -> NodeEdgeCheckableLCL:
    """Rebuild a cached operator result against ``base``'s labels.

    Inverse of :func:`encode_result` modulo the relabeling of ``base``.
    Raises (``KeyError`` / ``IndexError`` /
    :class:`~repro.exceptions.ProblemDefinitionError`) on structurally
    corrupt payloads — callers treat any failure as a cache miss.
    """
    if payload.get("v") != 1:
        raise ProblemDefinitionError(f"unsupported cache payload version: {payload.get('v')!r}")
    base_order = canonical_order(base)
    labels = [_decode_label(encoded, base_order) for encoded in payload["labels"]]
    node_constraints = {
        int(degree): [Multiset(labels[i] for i in c) for c in configurations]
        for degree, configurations in payload["node"]
    }
    edge_constraint = [Multiset(labels[i] for i in c) for c in payload["edge"]]
    sigma_in_order = sorted(base.sigma_in, key=label_sort_key)
    if len(payload["g"]) != len(sigma_in_order):
        raise ProblemDefinitionError("cache payload g-table has wrong arity")
    g = {
        input_label: frozenset(labels[i] for i in indices)
        for input_label, indices in zip(sigma_in_order, payload["g"])
    }
    return NodeEdgeCheckableLCL(
        sigma_in=base.sigma_in,
        sigma_out=labels,
        node_constraints=node_constraints,
        edge_constraint=edge_constraint,
        g=g,
        name=name,
    )
