"""Bitset-compiled kernels for the power-set operators and label hygiene.

The quantifier loops of :func:`repro.roundelim.ops._power_problem` test
every candidate configuration with per-element backtracking over Python
objects; profiling shows >90% of a step's wall clock goes into
``label_sort_key`` recursion inside :class:`~repro.utils.multiset.Multiset`
construction (round-elimination labels are deeply nested frozensets).  This
module compiles the same semantics into packed integer bitmasks over numpy
arrays:

* every *base* output label of ``Π`` gets one bit (:class:`BitsetUniverse`,
  the codec), so a set label of ``R(Π)`` / ``R̄(Π)`` is a single ``uint64``;
* every constraint of the power problem, the edge constraint and each node
  degree alike, is one walk of :func:`_selections` over a completion table
  that maps each sorted ``(d-1)``-tuple of base labels to the mask of the
  labels completing it: the table is folded over the selections of each
  combination prefix (OR for ``∃``, AND for ``∀``) and the last set is
  tested against the folded mask;
* label domination (:func:`domination_matrix`) packs configurations into
  base-``n`` integers and answers every ``(strong, weak)`` pair with sorted
  ``np.isin`` membership — exact, no hashing;
* the canonical order search of :mod:`repro.roundelim.canonical`
  (:func:`canonical_argmin`) ranks every candidate order at once, packs
  each configuration's sorted ranks into one integer and takes one
  lexicographic argmin over the orders' concatenated rows.

Fidelity contract
-----------------
The compiled path is *representation-blind*: it receives the same label
universe the oracle would use, emits configurations as ordinary
:class:`Multiset`/:class:`frozenset` objects over the same labels, and
mirrors the oracle's budget charges (``note_alphabet`` / ``charge``) at the
same points — so results, canonical hashes, cache entries, certificates,
and budget verdicts are bit-identical to the pure-Python oracle.  The
differential harness (``tests/test_bitset_differential.py``) enforces this
across the catalog and fuzzed problems.

More than 64 base labels (and, for :func:`domination_matrix` and
:func:`canonical_argmin`, configurations too wide to pack into one
integer) raises
:exc:`BitsetUnsupported` *before* any budget or stats mutation, so
:mod:`repro.roundelim.ops` can fall back to the
oracle cleanly (counted per-operator as ``bitset_fallbacks``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.roundelim.universe import _completion, _index_tuples, _indices
from repro.utils import budget as budget_scope
from repro.utils import cache as operator_cache
from repro.utils.multiset import Multiset, label_sort_key

#: Machine-word width: a base alphabet with more labels cannot be packed.
WORD_BITS = 64


class BitsetUnsupported(Exception):
    """The problem shape exceeds what the compiled kernels can pack."""


class BitsetUniverse:
    """Codec between label sets and packed machine-word bitmasks.

    Bit assignment is *canonical*: the base alphabet is sorted by
    :func:`label_sort_key`, and bit ``i`` belongs to the ``i``-th label in
    that order — so two structurally-renamed problems assign corresponding
    bits to corresponding labels regardless of construction order, and
    ``decode(encode(S)) == S`` holds for every subset ``S`` of the base
    alphabet (losslessness; property-tested in ``tests/test_bitset_codec.py``).
    """

    __slots__ = ("base", "index", "full_mask")

    def __init__(self, base_labels: Iterable[Any]):
        self.base: Tuple[Any, ...] = tuple(sorted(set(base_labels), key=label_sort_key))
        if len(self.base) > WORD_BITS:
            raise BitsetUnsupported(
                f"base alphabet has {len(self.base)} labels (> {WORD_BITS}-bit word)"
            )
        if not self.base:
            raise BitsetUnsupported("empty base alphabet")
        self.index: Dict[Any, int] = {label: i for i, label in enumerate(self.base)}
        self.full_mask: int = (1 << len(self.base)) - 1

    def __len__(self) -> int:
        return len(self.base)

    def encode(self, labels: Iterable[Any]) -> int:
        """The bitmask of a label set (labels must all be in the base)."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index[label]
        return mask

    def decode(self, mask: int) -> FrozenSet[Any]:
        """The label set of a bitmask (inverse of :meth:`encode`)."""
        if mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#x} has bits outside the {len(self.base)}-label base")
        return frozenset(
            label for i, label in enumerate(self.base) if (mask >> i) & 1
        )

    def encode_array(self, sets: Sequence[Iterable[Any]]) -> np.ndarray:
        """One ``uint64`` mask per set, in the given order."""
        return np.array([self.encode(s) for s in sets], dtype=np.uint64)


def _canonical_ranks(universe: Sequence[Any]) -> List[int]:
    """``rank[i]`` = position of ``universe[i]`` under ``label_sort_key``.

    Computed once per operator application (``m`` key derivations instead
    of one per emitted configuration); the stable sort reproduces exactly
    the tie behavior of ``sorted(..., key=label_sort_key)``.
    """
    order = sorted(range(len(universe)), key=lambda i: label_sort_key(universe[i]))
    ranks = [0] * len(universe)
    for position, i in enumerate(order):
        ranks[i] = position
    return ranks


def _selections(
    universe: Sequence[FrozenSet[Any]],
    ranks: List[int],
    masks: np.ndarray,
    completion: Dict[Tuple[int, ...], int],
    degree: int,
    exists: bool,
) -> List[Multiset]:
    """The ``degree``-combinations of ``universe`` whose selections pass.

    ``exists``: some choice of one base label per set completes an allowed
    configuration; otherwise every choice does.  Combinations
    ``i_1 <= ... <= i_d`` of universe indices are walked in the oracle's
    ``combinations_with_replacement`` order.  At each prefix
    ``i_1 .. i_{d-1}`` the completion table is folded over every selection
    from the prefix sets (OR for ∃, AND for ∀), and every last index
    ``j >= i_{d-1}`` is tested against the folded mask in one compare.

    The budget is ticked once per first index with the number of
    combinations that start there, which sums to the oracle's total.
    """
    m = len(universe)
    members = [tuple(_indices(mask)) for mask in masks.tolist()]
    configurations: List[Multiset] = []

    def test_last(prefix: Tuple[int, ...], selections: Set[Tuple[int, ...]]) -> None:
        start = prefix[-1] if prefix else 0
        if not prefix:
            # Degree 1: the empty prefix is the only one and covers all m.
            budget_scope.tick(m)
        if exists:
            folded = 0
            for selection in selections:
                folded |= completion.get(selection, 0)
            if not folded:
                return
            passes = np.flatnonzero(masks[start:] & np.uint64(folded))
        else:
            folded = (1 << WORD_BITS) - 1
            for selection in selections:
                folded &= completion.get(selection, 0)
                if not folded:
                    return
            passes = np.flatnonzero((masks[start:] & ~np.uint64(folded)) == 0)
        for j in passes.tolist():
            ordered = sorted(prefix + (start + j,), key=ranks.__getitem__)
            configurations.append(
                Multiset._from_sorted(tuple(universe[i] for i in ordered))
            )

    def walk(prefix: Tuple[int, ...], selections: Set[Tuple[int, ...]]) -> None:
        if len(prefix) == degree - 1:
            test_last(prefix, selections)
            return
        for i in range(prefix[-1] if prefix else 0, m):
            if not prefix:
                budget_scope.tick(math.comb(m - i + degree - 2, degree - 1))
            walk(
                prefix + (i,),
                {tuple(sorted(s + (b,))) for s in selections for b in members[i]},
            )

    walk((), {()})
    return configurations


def power_problem(
    problem: NodeEdgeCheckableLCL,
    universe: Sequence[FrozenSet[Any]],
    node_forall: bool,
    name_prefix: str,
) -> NodeEdgeCheckableLCL:
    """Compiled equivalent of the oracle ``_power_problem`` body.

    Receives the *already computed* label universe (shared with the oracle
    path, so both backends quantify over identical alphabets) and returns
    the same :class:`NodeEdgeCheckableLCL` the oracle would: identical
    configuration sets, identical ``g``, identical name.  Budget charges
    (``note_alphabet``, per-constraint ``charge``) mirror the oracle's
    order exactly, so budget-exceeded verdicts agree between backends.
    The edge constraint is the degree-2 case of the node kernel with the
    quantifier flipped: ``R`` is ∀ at edges and ∃ at nodes, ``R̄`` the
    reverse.
    """
    codec = BitsetUniverse(problem.sigma_out)
    m = len(universe)
    budget_scope.note_alphabet(m)
    budget_scope.check()
    masks = codec.encode_array(universe)
    ranks = _canonical_ranks(universe)

    configurations_tested = 0

    def constraint(
        configurations: Iterable[Multiset], degree: int, exists: bool
    ) -> List[Multiset]:
        nonlocal configurations_tested
        count = math.comb(m + degree - 1, degree)
        configurations_tested += count
        budget_scope.charge(count)
        completion = _completion(_index_tuples(configurations, codec.index))
        return _selections(universe, ranks, masks, completion, degree, exists)

    edge_configurations = constraint(problem.edge_constraint, 2, exists=node_forall)
    node_constraints: Dict[int, List[Multiset]] = {}
    for degree in problem.node_constraints:
        allowed = problem.node_constraints[degree]
        node_constraints[degree] = (
            constraint(allowed, degree, exists=not node_forall) if allowed else []
        )
    operator_cache.record(
        name_prefix, configurations_tested=configurations_tested, bitset_steps=1
    )

    g = {}
    for input_label in sorted(problem.sigma_in, key=label_sort_key):
        image_mask = np.uint64(codec.encode(problem.allowed_outputs(input_label)))
        inside = (masks & ~image_mask) == 0
        g[input_label] = frozenset(
            universe[i] for i in np.nonzero(inside)[0].tolist()
        )
    return NodeEdgeCheckableLCL(
        sigma_in=problem.sigma_in,
        sigma_out=universe,
        node_constraints=node_constraints,
        edge_constraint=edge_configurations,
        g=g,
        name=f"{name_prefix}({problem.name})",
    )


# ------------------------------------------------------------- label hygiene
def domination_matrix(
    problem: NodeEdgeCheckableLCL, labels: Sequence[Any]
) -> np.ndarray:
    """``D[s, w] = True`` iff ``labels[s]`` dominates ``labels[w]``.

    Exact all-pairs equivalent of the oracle's ``_dominates`` scan: for
    every configuration containing ``w``, replacing one occurrence of
    ``w`` by ``s`` must land on an allowed configuration (and ``g`` images
    containing ``w`` must contain ``s``).  Configurations are packed as
    sorted base-``n`` index digits, so membership is an exact integer
    ``np.isin`` — no hashing, no collisions.
    """
    n = len(labels)
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    index = {label: i for i, label in enumerate(labels)}
    _check_packable(problem, n)
    budget_scope.tick(n * n)
    violations = np.zeros((n, n), dtype=bool)
    membership = np.empty(n, dtype=bool)
    for input_label in sorted(problem.sigma_in, key=label_sort_key):
        image = problem.g[input_label]
        for i in range(n):
            membership[i] = labels[i] in image
        # s cannot replace w where w is allowed but s is not.
        violations |= ~membership[:, None] & membership[None, :]
    _accumulate_violations(problem.edge_constraint, index, n, violations)
    for degree in sorted(problem.node_constraints):
        _accumulate_violations(
            problem.node_constraints[degree], index, n, violations
        )
    return ~violations


def _check_packable(problem: NodeEdgeCheckableLCL, n: int) -> None:
    """Every constraint's configs must pack into a signed 64-bit integer."""
    base = max(n, 2)
    degrees = [2] + [
        degree
        for degree in sorted(problem.node_constraints)
        if problem.node_constraints[degree]
    ]
    for degree in degrees:
        if base**degree >= 2**63:
            raise BitsetUnsupported(
                f"degree-{degree} configurations over {n} labels overflow the packing word"
            )


def _sorted_membership(packed_allowed: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Exact membership of ``packed`` values in the sorted ``packed_allowed``."""
    if packed_allowed.shape[0] == 0:
        return np.zeros(packed.shape, dtype=bool)
    positions = np.searchsorted(packed_allowed, packed)
    positions[positions == packed_allowed.shape[0]] = packed_allowed.shape[0] - 1
    return packed_allowed[positions] == packed


#: Element budget for one vectorized replacement block (memory guard).
_VIOLATION_BLOCK_ELEMS = 16_000_000


def _accumulate_violations(
    configurations: FrozenSet[Multiset],
    index: Dict[Any, int],
    n: int,
    violations: np.ndarray,
) -> None:
    if not configurations:
        return
    # Accumulation below only ever ORs into `violations`, so the iteration
    # order over the configuration frozenset cannot affect the result.
    indexed = np.array(
        [[index[x] for x in configuration.items] for configuration in configurations],
        dtype=np.int64,
    )
    count, degree = indexed.shape
    base = np.int64(max(n, 2))
    powers = base ** np.arange(degree, dtype=np.int64)
    packed_allowed = np.sort(np.sort(indexed, axis=1) @ powers)
    candidates = np.arange(n, dtype=np.int64)
    # `violations` is indexed [strong, weak]; the transposed view lets
    # ufunc.at scatter one weak-label row per configuration.
    violations_by_weak = violations.T
    chunk = max(1, _VIOLATION_BLOCK_ELEMS // max(1, n * degree))
    for start in range(0, count, chunk):
        rows = indexed[start : start + chunk]
        # One replacement test per occurrence position (replacing one
        # occurrence), exactly like the oracle's
        # `remove_one(weak).add(strong)`; repeated labels just repeat rows.
        for position in range(degree):
            rest = np.delete(rows, position, axis=1)
            block = np.empty((rows.shape[0], n, degree), dtype=np.int64)
            block[:, :, : degree - 1] = rest[:, None, :]
            block[:, :, degree - 1] = candidates[None, :]
            block.sort(axis=2)
            packed = block.reshape(-1, degree) @ powers
            not_allowed = ~_sorted_membership(packed_allowed, packed)
            np.logical_or.at(
                violations_by_weak,
                rows[:, position],
                not_allowed.reshape(rows.shape[0], n),
            )


def equivalent_drop(matrix: np.ndarray, labels: Sequence[Any]) -> Optional[Any]:
    """First label to drop for ``merge_equivalent_labels``, or ``None``.

    Scans keep/other pairs in canonical order exactly like the oracle loop:
    the first mutually-dominating pair (row-major over the strict upper
    triangle) drops the *larger-keyed* label.
    """
    mutual = matrix & matrix.T
    pairs = np.argwhere(np.triu(mutual, k=1))
    if pairs.shape[0] == 0:
        return None
    return labels[int(pairs[0, 1])]


def dominated_drop(matrix: np.ndarray, labels: Sequence[Any]) -> Optional[Any]:
    """First label to drop for ``remove_dominated_labels``, or ``None``.

    Mirrors the oracle scan: weakest-keyed-last labels first, dropped when
    some ``strong`` dominates it — except when domination is mutual and
    ``strong`` has the larger key (then the canonical smaller label wins
    and ``weak`` survives that particular pair).
    """
    n = len(labels)
    positions = np.arange(n)
    for weak in range(n - 1, -1, -1):
        candidates = matrix[:, weak].copy()
        candidates[weak] = False
        # Mutual domination keeps the smaller-keyed label: a strong with a
        # larger key than weak cannot justify dropping weak if weak also
        # dominates it.
        candidates &= ~(matrix[weak, :] & (positions > weak))
        if bool(candidates.any()):
            return labels[weak]
    return None


#: Elements gathered per chunk of candidate orders in
#: :func:`canonical_argmin` (a memory guard; the budget is polled between
#: chunks).
_ORDER_CHUNK_ELEMS = 1 << 17


def canonical_argmin(
    problem: NodeEdgeCheckableLCL,
    orders: Sequence[Sequence[Any]],
    sigma_in_order: Sequence[Any],
) -> int:
    """Index of the first of ``orders`` whose canonical encoding is smallest.

    Exact equivalent of the oracle loop in :mod:`repro.roundelim.canonical`,
    which builds ``_encode_with_order`` for every order and keeps the
    strict-``<`` minimum.  Within one problem each block of that encoding
    (every node degree, the edge constraint, every ``g`` image) has the
    same shape under every order, so comparing two encodings is comparing
    their flattened rows lexicographically.  Per order, each configuration
    becomes its sorted ranks packed into one base-``n`` integer, most
    significant digit first (order-preserving), and each block's packed
    rows are sorted; each ``g`` image becomes its sorted ranks.  The
    concatenated key of each order is written big-endian, so ``bytes``
    comparison is the lexicographic one and ``min`` keeps the first index
    on ties.  Orders go through in chunks of ``_ORDER_CHUNK_ELEMS``
    gathered ranks, with a budget poll before each chunk.
    """
    n = len(orders[0])
    _check_packable(problem, n)
    index = {label: i for i, label in enumerate(orders[0])}
    rank_dtype = np.min_scalar_type(n - 1)
    permutations = np.array(
        [[index[label] for label in order] for order in orders], dtype=np.intp
    )
    # ranks[k, i]: position of label i (indexed as in orders[0]) in orders[k].
    ranks = np.argsort(permutations, axis=1).astype(rank_dtype)
    blocks = []
    for configurations in [
        problem.node_constraints[degree] for degree in sorted(problem.node_constraints)
    ] + [problem.edge_constraint]:
        rows = [[index[x] for x in c.items] for c in configurations]
        if rows and rows[0]:
            blocks.append(np.array(rows, dtype=np.intp))
    images = [
        np.array([index[x] for x in problem.g[i]], dtype=np.intp) for i in sigma_in_order
    ]
    images = [image for image in images if image.size]
    if not blocks and not images:
        return 0
    width = max([rows.shape[1] for rows in blocks] + [1])
    key_dtype = np.min_scalar_type(n**width - 1)
    per_order = sum(rows.size for rows in blocks) + sum(image.size for image in images)
    chunk = max(1, _ORDER_CHUNK_ELEMS // per_order)
    best, best_key = 0, b""
    for start in range(0, len(orders), chunk):
        budget_scope.check()
        part = ranks[start : start + chunk]
        columns = []
        for rows in blocks:
            gathered = part[:, rows]
            gathered.sort(axis=2)
            packed = gathered[:, :, 0].astype(key_dtype)
            for j in range(1, rows.shape[1]):
                packed *= n
                packed += gathered[:, :, j]
            packed.sort(axis=1)
            columns.append(packed)
        for image in images:
            columns.append(np.sort(part[:, image], axis=1).astype(key_dtype))
        keys = np.concatenate(columns, axis=1).astype(key_dtype.newbyteorder(">"))
        encoded = [row.tobytes() for row in keys]
        local = min(range(len(encoded)), key=encoded.__getitem__)
        if start == 0 or encoded[local] < best_key:
            best, best_key = start + local, encoded[local]
    return best
