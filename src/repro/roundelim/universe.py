"""Reduced label universes for the power-set operators.

The literal Definitions 3.1 / 3.2 take the full power set of ``Σ_out`` as
the new alphabet, which is what makes iterating ``f = R̄∘R`` doubly
exponential.  The classical round-eliminator insight — extended here to
problems *with inputs* — is that most power-set labels are **dominated**
(replaceable in any solution) by a canonical representative, so the
operators can be computed over a much smaller, solvability-equivalent
universe:

``R`` (exists-at-nodes / forall-at-edges)
    A set label ``B`` behaves at edges only through
    ``I(B) = ∩_{b∈B} partners_E(b)`` (a pair ``{B, X}`` is allowed iff
    ``X ⊆ I(B)``), grows monotonically better at nodes, and is bounded by
    ``G(B) = ∩ {g(ℓ) : B ⊆ g(ℓ)}`` at inputs.  Hence ``B`` is dominated by
    its *closure* ``cl(B) = {a ∈ G(B) : partners_E(a) ⊇ I(B)}`` (iterated
    to a fixed point), and the closed sets — a lattice usually far smaller
    than the power set — suffice.

``R̄`` (forall-at-nodes / exists-at-edges)
    Dually, a label ``B`` used in a solution sits inside a side of some
    maximal box of ``N^d`` (every selection of one label per side is an
    allowed node configuration), and can be replaced by that side cut
    down to its ``g``-bound; see :func:`reduced_universe`.

Both lattices come from one closure-system enumerator over Python-int
label masks (:func:`_closed_sets`): every closed set is reached from a
singleton closure by adding one label at a time and closing again, so
the work is one closure per (closed set, label) pair.  The maximal boxes
at every degree come from the same enumerator by recursion on the degree
(:func:`box_components`).

Every function here returns *genuine* labels of the full power-set
alphabet, so solutions over the reduced universe are verbatim solutions of
the paper's problems; and every full label is dominated by a member of the
reduced universe, so solvability (and 0-round solvability) transfers in
the other direction too.  See the proofs-in-comments inline.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils import budget as budget_scope
from repro.utils.multiset import Multiset, label_sort_key


def _bits(mask: int) -> Iterator[int]:
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


class _LabelMasks:
    """Python-int masks over ``Σ_out``: bit ``i`` is the ``i``-th label in
    ``label_sort_key`` order (any alphabet size)."""

    def __init__(self, problem: NodeEdgeCheckableLCL):
        self.labels = sorted(problem.sigma_out, key=label_sort_key)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.full = (1 << len(self.labels)) - 1

    def encode(self, members: Iterable[Any]) -> int:
        mask = 0
        for label in members:
            mask |= 1 << self.index[label]
        return mask

    def decode(self, mask: int) -> FrozenSet[Any]:
        return frozenset(self.labels[i] for i in _indices(mask))


def _index_tuples(
    configurations: Iterable[Multiset], index: Dict[Any, int]
) -> FrozenSet[Tuple[int, ...]]:
    """Each configuration as the sorted tuple of its labels' indices."""
    return frozenset(
        tuple(sorted(index[x] for x in configuration.items))
        for configuration in configurations
    )


def _completion(relation: Iterable[Tuple[int, ...]]) -> Dict[Tuple[int, ...], int]:
    """``table[rest]`` = mask of the labels that complete ``rest``.

    ``relation`` holds sorted tuples of label indices; ``rest`` is such a
    tuple minus one entry, and a label completes it when ``rest`` plus
    that label is in ``relation``.  A missing key means no label does.
    """
    table: Dict[Tuple[int, ...], int] = {}
    for indices in relation:
        for position in range(len(indices)):
            rest = indices[:position] + indices[position + 1 :]
            table[rest] = table.get(rest, 0) | (1 << indices[position])
    return table


def _closed_sets(
    extend: Callable[[int, int], Optional[int]], atoms: int, cap: int, too_many: str
) -> List[int]:
    """Every closed set reached from the singletons of ``atoms`` by atom
    extension: pop a closed set ``C`` and close ``C ∪ {x}`` for atoms
    ``x ∉ C``.

    ``extend(C, x)`` is the closure of ``C ∪ {x}`` for a closed set ``C``
    (``0`` for the singletons) and a one-bit mask ``x``, or ``None`` for
    a set none of whose supersets is wanted either.  A closed set ``X`` is
    reached along ``cl({x₁}) ⊆ cl(cl({x₁}) ∪ {x₂}) ⊆ … = X`` where each
    ``xᵢ`` is the lowest atom of ``X`` not yet in the chain: a closure is
    monotone and ``X`` is closed, so every set on the chain lies below
    ``X`` (and is wanted).  That chain is the only one kept, as in Close-
    by-One (Kuznetsov 1993): a set extends only by atoms above the one
    that made it, and a closure that adds an atom below ``x`` is a repeat.
    So each closed set is closed into once, with no set of found sets to
    probe, and more than ``cap`` of them raise
    :exc:`ProblemDefinitionError` with ``too_many``: a trip happens
    exactly when the lattice is larger than the cap.  The budget is
    ticked once per popped set with its extension count.
    """
    found: List[int] = []
    # (closed set, mask of the atoms it may no longer add); popping the
    # empty set first closes the singletons.
    frontier = [(0, 0)]
    while frontier:
        current, settled = frontier.pop()
        outside = atoms & ~(current | settled)
        budget_scope.tick(outside.bit_count())
        for bit in _bits(outside):
            closed = extend(current, bit)
            if closed is None or (closed ^ current) & (bit - 1):
                continue
            if len(found) >= cap:
                raise ProblemDefinitionError(too_many)
            found.append(closed)
            frontier.append((closed, (bit << 1) - 1))
    return found


def edge_partners(problem: NodeEdgeCheckableLCL) -> Dict[Any, FrozenSet[Any]]:
    """``partners(a) = {b : {a, b} ∈ E_Π}`` for every output label."""
    partners: Dict[Any, Set[Any]] = {a: set() for a in problem.sigma_out}
    for configuration in problem.edge_constraint:
        a, b = configuration.items
        partners[a].add(b)
        partners[b].add(a)
    return {a: frozenset(s) for a, s in partners.items()}


def _g_images(problem: NodeEdgeCheckableLCL) -> List[FrozenSet[Any]]:
    return [problem.g[input_label] for input_label in problem.sigma_in]


def _is_usable(candidate: FrozenSet[Any], g_images: List[FrozenSet[Any]]) -> bool:
    """Can this set label sit on a half-edge with *some* input label?"""
    return any(candidate <= image for image in g_images)


def _g_meet(mask: int, images: List[int]) -> Optional[int]:
    """``G(B) = ∩ {g(ℓ) : B ⊆ g(ℓ)}`` over masks; ``None`` when ``B`` is
    below no ``g``-image (unusable)."""
    meet = None
    for image in images:
        if not mask & ~image:
            meet = image if meet is None else meet & image
    return meet


def closed_universe(
    problem: NodeEdgeCheckableLCL, max_universe: int
) -> List[FrozenSet[Any]]:
    """All usable closed set labels for ``R(problem)``.

    Enumerated by atom extension (:func:`_closed_sets`) from the usable
    singletons.  ``cl`` is a closure on usable sets: one step maps ``B``
    to ``G(B) ∩ N(N(B))`` with ``N(S) = ∩_{s∈S} partners(s)`` (``N(∅)`` is
    every label; ``{a : partners(a) ⊇ S} = N(S)`` because the partner
    relation is symmetric), which is monotone, extensive on usable sets
    and stays below ``G(B)``, so its iteration reaches the least usable
    fixed point above ``B``.  More than ``max_universe`` closed sets raise
    :exc:`ProblemDefinitionError`.
    """
    masks = _LabelMasks(problem)
    partners = [0] * len(masks.labels)
    for configuration in problem.edge_constraint:
        a, b = (masks.index[x] for x in configuration.items)
        partners[a] |= 1 << b
        partners[b] |= 1 << a
    images = [masks.encode(image) for image in _g_images(problem)]

    def common(mask: int) -> int:
        result = masks.full
        for i in _indices(mask):
            result &= partners[i]
        return result

    def closure(closed: int, bit: int) -> Optional[int]:
        mask = closed | bit
        while True:
            usable = _g_meet(mask, images)
            if usable is None:
                return None
            grown = usable & common(common(mask))
            if grown == mask:
                return mask
            mask = grown

    closed = _closed_sets(
        closure,
        masks.full,
        max_universe,
        f"closed universe of {problem.name} exceeds max_universe={max_universe}",
    )
    return sorted((masks.decode(mask) for mask in closed), key=label_sort_key)


def _g_intersections(problem: NodeEdgeCheckableLCL) -> List[FrozenSet[Any]]:
    """All non-empty intersections of non-empty families of ``g``-images.

    These are the possible values of ``G(B) = ∩ {g(ℓ) : B ⊆ g(ℓ)}`` for
    usable ``B ≠ ∅`` (an intersection ``X ≠ ∅`` is ``G(X)``), so they are
    the closed sets of ``G``; for a problem without inputs this is just
    ``[Σ_out]``.  At most ``2^|Σ_in| - 1`` of them exist, so the cap
    never trips.
    """
    masks = _LabelMasks(problem)
    images = [masks.encode(image) for image in _g_images(problem)]
    closed = _closed_sets(
        lambda closed, bit: _g_meet(closed | bit, images),
        masks.full,
        1 << len(images),
        f"g-image intersections of {problem.name}",
    )
    return sorted((masks.decode(mask) for mask in closed), key=label_sort_key)


def _box_components_general(
    problem: NodeEdgeCheckableLCL, degree: int, max_boxes: int
) -> Set[FrozenSet[Any]]:
    """Components of maximal boxes via a BFS over every box.

    The pure-Python oracle for :func:`box_components`, called only by the
    tests: exact (all boxes are visited, one label added to one side per
    step, from the singleton boxes of the allowed configurations) but
    exponential in the worst case, and its ``max_boxes`` cap counts search
    states rather than maximal boxes.
    """
    allowed = problem.node_constraints.get(degree, frozenset())
    labels = sorted(problem.sigma_out, key=label_sort_key)

    def is_box(sets: Tuple[FrozenSet[Any], ...]) -> bool:
        size = 1
        for component in sets:
            size *= len(component)
        budget_scope.tick(size)
        return all(Multiset(sel) in allowed for sel in itertools.product(*sets))

    def canonical(sets) -> Tuple[FrozenSet[Any], ...]:
        return tuple(sorted(sets, key=label_sort_key))

    seen: Set[Tuple[FrozenSet[Any], ...]] = set()
    frontier: List[Tuple[FrozenSet[Any], ...]] = []
    for configuration in allowed:
        box = canonical(frozenset({x}) for x in configuration.items)
        if box not in seen:
            seen.add(box)
            frontier.append(box)
    components: Set[FrozenSet[Any]] = set()
    while frontier:
        box = frontier.pop()
        extended = False
        for position in range(degree):
            for label in labels:
                if label in box[position]:
                    continue
                candidate = list(box)
                candidate[position] = box[position] | {label}
                candidate = canonical(candidate)
                if candidate in seen:
                    extended = True
                    continue
                if is_box(candidate):
                    extended = True
                    if len(seen) >= max_boxes:
                        raise ProblemDefinitionError(
                            f"box enumeration for {problem.name} (degree {degree}) "
                            f"exceeds {max_boxes} boxes"
                        )
                    seen.add(candidate)
                    frontier.append(candidate)
        if not extended:
            components.update(box)
    return components


def box_components(
    problem: NodeEdgeCheckableLCL, degree: int, max_boxes: int
) -> Set[FrozenSet[Any]]:
    """Components (sides) of the maximal boxes of ``N^degree``.

    A box is a tuple ``(A_1, …, A_d)`` of label sets whose every selection
    is an allowed node configuration; boxes are exactly the allowed node
    configurations of ``R̄`` (Definition 3.2), and every allowed
    configuration is componentwise contained in a maximal box.  See
    :func:`maximal_boxes` for the enumeration and its cap.
    """
    return {side for box in maximal_boxes(problem, degree, max_boxes) for side in box}


def maximal_boxes(
    problem: NodeEdgeCheckableLCL, degree: int, max_boxes: int
) -> List[Tuple[FrozenSet[Any], ...]]:
    """Every maximal box of ``N^degree``, once each.

    Enumerated by recursion on the degree, as in TRIAS (Jäschke et al.,
    ICDM 2006).  For a first side ``A`` let ``I(A)`` be the sorted
    ``(d-1)``-tuples that every label of ``A`` completes to an allowed
    configuration, and for tuples ``T`` let ``ext(T)`` be the labels
    completing all of them.  In a maximal box ``(A, B₂…B_d)``,
    ``A = ext(B₂ × … × B_d)`` is an extent (a closed set of ``ext∘I``,
    enumerated by :func:`_closed_sets`) and ``(B₂…B_d)`` is a maximal box
    of the ``(d-1)``-ary relation ``I(A)``; conversely such a pair is a
    maximal box exactly when ``ext(B₂ × … × B_d) = A``.  Degree 1 is the
    base case, and degree 2 is the concept lattice; an ``I(A)`` that is a
    box (always at degree 2) needs no recursion.  Sides are kept in
    descending mask order, so each box is found once: the boxes of
    ``I(A)`` are searched only below ``A``, which also prunes their
    enumeration (adding a label never makes a mask smaller).

    ``max_boxes`` bounds the closed sets of every enumeration and the
    maximal boxes found; a trip's message names which it counted.
    """
    masks = _LabelMasks(problem)
    allowed = problem.node_constraints.get(degree, frozenset())
    too_many = f"box enumeration for {problem.name} (degree {degree}) exceeds {max_boxes}"

    def maximal(
        completion: Dict[Tuple[int, ...], int], arity: int, ceiling: int
    ) -> List[Tuple[int, ...]]:
        """Maximal boxes, sides descending and ``<= ceiling``, of the
        ``arity``-ary relation whose completion table is ``completion``."""
        if arity == 1:
            side = completion.get((), 0)
            return [(side,)] if side and side <= ceiling else []
        # columns[x]: the tuples that label bit x completes, as a mask over
        # tuple numbers.  At arity 2 the tuple (y,) gets number y, so a
        # column is a neighbor mask and an intent is the co-side itself.
        columns: Dict[int, int] = {}
        if arity == 2:
            for (y,), mates in completion.items():
                columns[1 << y] = mates
        else:
            for j, rest in enumerate(completion):
                for x in _bits(completion[rest]):
                    columns[x] = columns.get(x, 0) | (1 << j)
        labels = sum(columns)
        intents = {0: -1}  # extent -> its intent, as a mask over tuple numbers

        def closure(closed: int, bit: int) -> Optional[int]:
            tuples = intents[closed] & columns[bit]
            # A closure contains its argument: above the ceiling stays above.
            if not tuples or closed | bit > ceiling:
                return None
            grown = closed | bit
            # Ascending, so a new label below `bit` (a repeat the enumerator
            # would reject) ends the scan first.
            for x in _bits(labels & ~grown):
                if not tuples & ~columns[x]:
                    grown |= x
                    if x < bit or grown > ceiling:
                        return None
            intents[grown] = tuples
            return grown

        # Labels above the ceiling's top label cannot be added.
        atoms = labels & ((1 << ceiling.bit_length()) - 1)
        extents = _closed_sets(closure, atoms, max_boxes, f"{too_many} closed sets")
        # slices[x][u] = completion[u + (x,)]: I(A) is read off them below.
        slices: Dict[int, Dict[Tuple[int, ...], int]] = {}
        for rest, mask in completion.items() if arity > 2 else ():
            for position, x in enumerate(rest):
                slices.setdefault(x, {})[rest[:position] + rest[position + 1 :]] = mask
        numbered = list(completion)
        boxes: List[Tuple[int, ...]] = []
        for side in sorted(extents):
            intent = intents[side]
            # An I(side) that is itself a box (the co-side at arity 2, one
            # tuple's singletons otherwise) is its own only maximal box, and
            # maximal with side: its product is I(side), whose ext is the
            # closed side.  Recursing there instead costs 1.5-2.4x on small
            # and degree-2 lattices.
            if arity == 2:
                rests = [(intent,)] if intent <= side else []
            elif not intent & (intent - 1):
                rest = tuple(1 << i for i in reversed(numbered[intent.bit_length() - 1]))
                rests = [rest] if rest[0] <= side else []
            else:
                # The completion table of I(side): u completes with the
                # labels y that complete u + (x,) for every x in side.
                first, *others = sorted((slices[x] for x in _indices(side)), key=len)
                sub = {}
                for u, mask in first.items():
                    for other in others:
                        mask &= other.get(u, 0)
                    if mask:
                        sub[u] = mask
                rests = [
                    rest
                    for rest in maximal(sub, arity - 1, side)
                    if _is_maximal(side, rest, completion, labels)
                ]
            for rest in rests:
                if arity == degree and len(boxes) >= max_boxes:
                    raise ProblemDefinitionError(f"{too_many} maximal boxes")
                boxes.append((side,) + rest)
        return boxes

    top = _completion(_index_tuples(allowed, masks.index))
    boxes = maximal(top, degree, masks.full)
    decoded = {side: masks.decode(side) for box in boxes for side in box}
    return [tuple(decoded[side] for side in box) for box in boxes]


def _is_maximal(
    side: int, rest: Tuple[int, ...], completion: Dict[Tuple[int, ...], int], labels: int
) -> bool:
    """Does no label outside ``side`` complete every selection of ``rest``?

    ``x`` completes them all iff, for every selection ``s`` of the sides
    but the last, the last side lies inside ``completion[s + (x,)]``.
    """
    *heads, last = rest
    heads_indices = [tuple(_indices(mask)) for mask in heads]
    checked = 0
    for x in _indices(labels & ~side):
        for selection in itertools.product(*heads_indices):
            checked += 1
            if last & ~completion.get(tuple(sorted(selection + (x,))), 0):
                break
        else:
            budget_scope.tick(checked)
            return False
    budget_scope.tick(checked)
    return True


def reduced_universe(
    problem: NodeEdgeCheckableLCL, max_universe: int
) -> List[FrozenSet[Any]]:
    """A sufficient label universe for ``R̄(problem)``.

    A label ``B`` of ``R̄(Π̃)`` used in a solution sits, at its node, in an
    allowed configuration — i.e. inside some maximal box ``(A_1, …, A_d)``
    with ``B ⊆ A_i``.  Replacing ``B`` by ``A_i ∩ G(B)`` preserves
    correctness everywhere (node: still inside the box; edge: the
    existential constraint only gets easier as the partner union grows;
    ``g``: by definition of ``G``), so the sets

        ``{A ∩ I : A a maximal-box component, I an intersection of
        g-images}``

    dominate every label of the full power-set alphabet.
    """
    g_images = _g_images(problem)
    intersections = _g_intersections(problem)
    components: Set[FrozenSet[Any]] = set()
    for degree in problem.node_constraints:
        components |= box_components(problem, degree, max_boxes=max_universe)
    universe: Set[FrozenSet[Any]] = set()
    for component in components:
        for bound in intersections:
            budget_scope.tick()
            candidate = component & bound
            if candidate and _is_usable(candidate, g_images):
                universe.add(candidate)
                if len(universe) > max_universe:
                    raise ProblemDefinitionError(
                        f"reduced universe of {problem.name} exceeds "
                        f"max_universe={max_universe}"
                    )
    return sorted(universe, key=label_sort_key)
