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
* the edge constraint becomes one broadcast compare over the partner-mask
  summaries (``∃``: ``summary & mask != 0``; ``∀``: ``mask & ~summary == 0``);
* node constraints of degree ≤ 3 become the analogous folds over
  per-label neighbor tables (degree 2) and pair tables (degree 3);
* label domination (:func:`domination_matrix`) packs configurations into
  base-``n`` integers and answers every ``(strong, weak)`` pair with sorted
  ``np.isin`` membership — exact, no hashing;
* the maximal-box enumeration behind the ``R̄`` universe
  (:func:`box_components`) runs over Python-int masks at any node degree,
  one memoized completion-table fold per box side.

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

Every unsupported shape — more than 64 base labels, node degrees above 3
(power problem only), oversized universes — raises :exc:`BitsetUnsupported` *before* any budget
or stats mutation, so :mod:`repro.roundelim.ops` can fall back to the
oracle cleanly (counted per-operator as ``bitset_fallbacks``).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils import budget as budget_scope
from repro.utils import cache as operator_cache
from repro.utils.multiset import Multiset, label_sort_key

#: Machine-word width: a base alphabet with more labels cannot be packed.
WORD_BITS = 64
#: Upper bound on the universe size for the pairwise (m x m) kernels.
MAX_PAIR_UNIVERSE = 8192
#: Upper bound on the universe size for the degree-3 (m^3) sweep.
MAX_TRIPLE_UNIVERSE = 1024
#: Node degrees the compiled kernels cover; higher degrees fall back.
MAX_NODE_DEGREE = 3


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


def _fold_masks(
    masks: np.ndarray, table: np.ndarray, use_or: bool, full_mask: int
) -> np.ndarray:
    """Per-universe-set fold of ``table`` over the set's member bits.

    ``use_or``: ``out[i] = OR  {table[b] : bit b set in masks[i]}``;
    otherwise  ``out[i] = AND {table[b] : bit b set in masks[i]}``
    (initialized to the full mask; universe sets are non-empty).
    """
    if use_or:
        out = np.zeros(masks.shape[0], dtype=np.uint64)
    else:
        out = np.full(masks.shape[0], np.uint64(full_mask))
    for b in range(table.shape[0]):
        member = (masks >> np.uint64(b)) & np.uint64(1) != 0
        if use_or:
            out[member] |= table[b]
        else:
            out[member] &= table[b]
    return out


def _pair_table(
    configurations: Iterable[Multiset], codec: BitsetUniverse
) -> np.ndarray:
    """``table[x] = mask of y with {x, y} allowed`` (symmetric)."""
    table = [0] * len(codec)
    for configuration in configurations:
        a, b = configuration.items
        ia, ib = codec.index[a], codec.index[b]
        table[ia] |= 1 << ib
        table[ib] |= 1 << ia
    return np.array(table, dtype=np.uint64)


def _triple_table(
    configurations: Iterable[Multiset], codec: BitsetUniverse
) -> np.ndarray:
    """``table[x, y] = mask of z with {x, y, z} allowed`` (symmetric)."""
    size = len(codec)
    table = np.zeros((size, size), dtype=np.uint64)
    for configuration in configurations:
        a, b, c = (codec.index[x] for x in configuration.items)
        bit_a, bit_b, bit_c = (
            np.uint64(1 << a),
            np.uint64(1 << b),
            np.uint64(1 << c),
        )
        table[a, b] |= bit_c
        table[b, a] |= bit_c
        table[a, c] |= bit_b
        table[c, a] |= bit_b
        table[b, c] |= bit_a
        table[c, b] |= bit_a
    return table


def _emit_pair(
    universe: Sequence[FrozenSet[Any]], ranks: List[int], i: int, j: int
) -> Multiset:
    if ranks[i] <= ranks[j]:
        return Multiset._from_sorted((universe[i], universe[j]))
    return Multiset._from_sorted((universe[j], universe[i]))


def _emit_triple(
    universe: Sequence[FrozenSet[Any]], ranks: List[int], i: int, j: int, k: int
) -> Multiset:
    ordered = sorted((i, j, k), key=lambda idx: ranks[idx])
    return Multiset._from_sorted(tuple(universe[idx] for idx in ordered))


def _check_supported(
    problem: NodeEdgeCheckableLCL, universe: Sequence[FrozenSet[Any]]
) -> None:
    """Raise :exc:`BitsetUnsupported` for shapes the kernels cannot pack.

    Must stay free of budget/stats side effects: the caller falls back to
    the oracle path, which performs its own accounting from scratch.
    """
    if len(problem.sigma_out) > WORD_BITS:
        raise BitsetUnsupported(
            f"{len(problem.sigma_out)} base labels exceed the {WORD_BITS}-bit word"
        )
    if len(universe) > MAX_PAIR_UNIVERSE:
        raise BitsetUnsupported(
            f"universe of {len(universe)} labels exceeds the pairwise kernel bound"
        )
    for degree in sorted(problem.node_constraints):
        if not problem.node_constraints[degree]:
            continue
        if degree > MAX_NODE_DEGREE:
            raise BitsetUnsupported(f"node degree {degree} exceeds the compiled kernels")
        if degree == 3 and len(universe) > MAX_TRIPLE_UNIVERSE:
            raise BitsetUnsupported(
                f"degree-3 sweep over {len(universe)} labels exceeds the kernel bound"
            )


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
    """
    from repro.roundelim.universe import edge_partners

    _check_supported(problem, universe)
    codec = BitsetUniverse(problem.sigma_out)
    m = len(universe)
    budget_scope.note_alphabet(m)
    budget_scope.check()
    configurations_tested = 0

    masks = codec.encode_array(universe)
    ranks = _canonical_ranks(universe)

    # --- edge constraint: one broadcast over partner-mask summaries -------
    partners = edge_partners(problem)
    partner_table = np.array(
        # The taint chain here ends in a bitmask OR-fold: encode() maps a
        # frozenset to bits order-insensitively, so the partner dict's
        # iteration order cannot reach the canonical bytes.
        # repro-lint: disable=REP010 -- order-insensitive bitmask fold
        [codec.encode(partners[label]) for label in codec.base], dtype=np.uint64
    )
    # R̄ (exists-at-edges) folds with OR; R (forall-at-edges) with AND —
    # the same summary algebra as the oracle's frozenset union/intersection.
    summaries = _fold_masks(masks, partner_table, use_or=node_forall, full_mask=codec.full_mask)
    pair_count = m * (m + 1) // 2
    configurations_tested += pair_count
    budget_scope.charge(pair_count)
    budget_scope.tick(pair_count)
    if node_forall:
        allowed_pairs = (summaries[:, None] & masks[None, :]) != 0
    else:
        allowed_pairs = (masks[None, :] & ~summaries[:, None]) == 0
    rows, cols = np.nonzero(np.triu(allowed_pairs))
    edge_configurations = [
        _emit_pair(universe, ranks, i, j)
        for i, j in zip(rows.tolist(), cols.tolist())
    ]

    # --- node constraints --------------------------------------------------
    node_constraints: Dict[int, List[Multiset]] = {}
    for degree in problem.node_constraints:
        allowed = problem.node_constraints[degree]
        configurations: List[Multiset] = []
        if allowed:
            combo_count = _combinations_with_replacement_count(m, degree)
            configurations_tested += combo_count
            budget_scope.charge(combo_count)
            budget_scope.tick(combo_count)
            if degree == 1:
                configurations = _node_degree_one(
                    universe, ranks, masks, allowed, codec, node_forall
                )
            elif degree == 2:
                configurations = _node_degree_two(
                    universe, ranks, masks, allowed, codec, node_forall
                )
            else:
                configurations = _node_degree_three(
                    universe, ranks, masks, allowed, codec, node_forall
                )
        node_constraints[degree] = configurations
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


def _combinations_with_replacement_count(m: int, degree: int) -> int:
    return math.comb(m + degree - 1, degree)


def _node_degree_one(
    universe: Sequence[FrozenSet[Any]],
    ranks: List[int],
    masks: np.ndarray,
    allowed: FrozenSet[Multiset],
    codec: BitsetUniverse,
    node_forall: bool,
) -> List[Multiset]:
    allowed_mask = 0
    for configuration in allowed:
        allowed_mask |= 1 << codec.index[configuration.items[0]]
    allowed_scalar = np.uint64(allowed_mask)
    if node_forall:
        keep = (masks & ~allowed_scalar) == 0
    else:
        keep = (masks & allowed_scalar) != 0
    return [
        Multiset._from_sorted((universe[i],)) for i in np.nonzero(keep)[0].tolist()
    ]


def _node_degree_two(
    universe: Sequence[FrozenSet[Any]],
    ranks: List[int],
    masks: np.ndarray,
    allowed: FrozenSet[Multiset],
    codec: BitsetUniverse,
    node_forall: bool,
) -> List[Multiset]:
    table = _pair_table(allowed, codec)
    # summary[i] folds the neighbor masks of the members of universe[i]:
    # ∃-at-nodes needs the union (some member pairs with some member of the
    # other side), ∀-at-nodes the intersection (every member pairs with
    # every member).  The relation is symmetric, so the upper triangle of
    # the broadcast compare enumerates exactly the oracle's i <= j combos.
    summaries = _fold_masks(masks, table, use_or=not node_forall, full_mask=codec.full_mask)
    if node_forall:
        matrix = (masks[None, :] & ~summaries[:, None]) == 0
    else:
        matrix = (summaries[:, None] & masks[None, :]) != 0
    rows, cols = np.nonzero(np.triu(matrix))
    return [
        _emit_pair(universe, ranks, i, j)
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def _node_degree_three(
    universe: Sequence[FrozenSet[Any]],
    ranks: List[int],
    masks: np.ndarray,
    allowed: FrozenSet[Multiset],
    codec: BitsetUniverse,
    node_forall: bool,
) -> List[Multiset]:
    table = _triple_table(allowed, codec)
    m = masks.shape[0]
    size = len(codec)
    # middle[x] : per-universe-j fold of table[x, y] over y ∈ universe[j].
    middle = np.empty((size, m), dtype=np.uint64)
    for x in range(size):
        middle[x] = _fold_masks(
            masks, table[x], use_or=not node_forall, full_mask=codec.full_mask
        )
    configurations: List[Multiset] = []
    for i in range(m):
        # row[j] folds middle[x][j] over x ∈ universe[i]; then combo
        # (i, j, k) is allowed iff universe[k]'s mask passes the usual
        # ∃ / ∀ compare against row[j].
        if node_forall:
            row = np.full(m, np.uint64(codec.full_mask))
        else:
            row = np.zeros(m, dtype=np.uint64)
        mask_i = int(masks[i])
        for x in range(size):
            if (mask_i >> x) & 1:
                if node_forall:
                    row &= middle[x]
                else:
                    row |= middle[x]
        if node_forall:
            matrix = (masks[None, :] & ~row[:, None]) == 0
        else:
            matrix = (row[:, None] & masks[None, :]) != 0
        region = np.triu(matrix)
        if i:
            region[:i, :] = False
        js, ks = np.nonzero(region)
        configurations.extend(
            _emit_triple(universe, ranks, i, j, k)
            for j, k in zip(js.tolist(), ks.tolist())
        )
    return configurations


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


# ------------------------------------------------------- universe generation
def box_components(
    problem: NodeEdgeCheckableLCL, degree: int, max_boxes: int
) -> Set[FrozenSet[Any]]:
    """Components of the maximal boxes of ``N^degree``, in mask space.

    Compiled equivalent of the oracle
    :func:`repro.roundelim.universe._box_components_general`: the same BFS
    from the singleton boxes of the allowed configurations, one label
    added to one side per step, with the same ``max_boxes`` cap and error
    message.  A box is a sorted tuple of Python-int label masks (the
    dedup key only; just the decoded component set leaves this function,
    so the key order never reaches a result).

    Instead of one probe per candidate, a *completion table* maps each
    sorted ``(degree-1)``-tuple of label indices to the mask of labels
    completing it to an allowed configuration, and the labels that extend
    side ``p`` of a box are one AND of ``completion[s]`` over ``s`` in the
    product of the other sides — memoized per ``others`` tuple, since
    boxes sharing all but one side recur constantly.

    Budget ticks mirror the oracle's per-candidate amounts (the full
    selection count of every candidate not already seen), summed into one
    tick per popped box; totals agree on every completed enumeration.
    Raises :exc:`BitsetUnsupported` (before any tick) past 64 labels.
    """
    codec = BitsetUniverse(problem.sigma_out)
    allowed = problem.node_constraints.get(degree, frozenset())
    completion: Dict[Tuple[int, ...], int] = {}
    seeds: Set[Tuple[int, ...]] = set()
    for configuration in allowed:
        indices = sorted(codec.index[x] for x in configuration.items)
        seeds.add(tuple(1 << i for i in indices))
        for position in range(degree):
            rest = tuple(indices[:position] + indices[position + 1 :])
            completion[rest] = completion.get(rest, 0) | (1 << indices[position])

    members: Dict[int, Tuple[int, ...]] = {}

    def bits(mask: int) -> Tuple[int, ...]:
        indices = members.get(mask)
        if indices is None:
            indices = members[mask] = tuple(
                i for i in range(len(codec)) if (mask >> i) & 1
            )
        return indices

    extensions: Dict[Tuple[int, ...], int] = {}

    def extension(others: Tuple[int, ...]) -> int:
        """Labels ``x`` with every ``s + (x,)``, ``s ∈ product(others)``, allowed."""
        mask = extensions.get(others)
        if mask is None:
            mask = codec.full_mask
            for selection in itertools.product(*(bits(side) for side in others)):
                mask &= completion.get(tuple(sorted(selection)), 0)
                if not mask:
                    break
            extensions[others] = mask
        return mask

    seen = set(seeds)
    frontier = sorted(seeds)
    maximal: Set[int] = set()
    labels = len(codec)
    while frontier:
        box = frontier.pop()
        sizes = [len(bits(side)) for side in box]
        selections = math.prod(sizes)
        ticks = 0
        extended = False
        for position, side in enumerate(box):
            others = box[:position] + box[position + 1 :]
            grown = extension(others) & ~side
            candidate_size = selections + selections // sizes[position]
            # A label outside `grown` yields a non-box, which is never in
            # `seen`, so the oracle probes (and ticks) it every time.
            ticks += (labels - sizes[position] - bin(grown).count("1")) * candidate_size
            if grown:
                extended = True
            while grown:
                bit = grown & -grown
                grown ^= bit
                candidate = tuple(sorted(others + (side | bit,)))
                if candidate in seen:
                    continue
                ticks += candidate_size
                if len(seen) >= max_boxes:
                    budget_scope.tick(ticks)
                    raise ProblemDefinitionError(
                        f"box enumeration for {problem.name} (degree {degree}) "
                        f"exceeds {max_boxes} boxes"
                    )
                seen.add(candidate)
                frontier.append(candidate)
        budget_scope.tick(ticks)
        if not extended:
            maximal.update(box)
    return {codec.decode(mask) for mask in maximal}


def pair_neighbor_sets(problem: NodeEdgeCheckableLCL) -> Dict[Any, FrozenSet[Any]]:
    """``{x: {y : {x, y} allowed at degree 2}}`` via the packed pair table.

    Replaces the oracle's ``n²`` ``Multiset`` membership probes when
    building the degree-2 concept lattice; the resulting sets are
    identical by construction.
    """
    codec = BitsetUniverse(problem.sigma_out)
    table = _pair_table(problem.node_constraints.get(2, frozenset()), codec)
    return {
        label: codec.decode(int(table[codec.index[label]])) for label in codec.base
    }


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
