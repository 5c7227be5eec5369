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
    to a fixed point), and the closed sets — generated from singleton
    closures by union-and-close, a lattice usually far smaller than the
    power set — suffice.

``R̄`` (forall-at-nodes / exists-at-edges)
    Dually, ``B`` behaves at edges only through
    ``U(B) = ∪_{b∈B} partners_E(b)``, shrinks monotonically better at
    nodes, so ``B`` is dominated by its *reduction*
    ``red(B) = {b ∈ B : no b' ∈ B with partners(b) ⊊ partners(b')}``
    (``U`` is preserved because dropped elements contribute nothing new).
    The reduced sets are the "antichain-with-ties" subsets of the partner
    poset, generated by a DFS over labels.

In both cases a set label can only ever be used on a half-edge whose
input ``ℓ`` satisfies ``B ⊆ g(ℓ)``, so sets not below any ``g``-image are
dropped outright.

Every function here returns *genuine* labels of the full power-set
alphabet, so solutions over the reduced universe are verbatim solutions of
the paper's problems; and every full label is dominated by a member of the
reduced universe, so solvability (and 0-round solvability) transfers in
the other direction too.  See the proofs-in-comments inline.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set, Tuple

from repro.exceptions import ProblemDefinitionError
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils import budget as budget_scope
from repro.utils.multiset import label_sort_key


def _bitset_backend():
    """The compiled backend (see :mod:`repro.roundelim.bitset`), or ``None``.

    Universe generation is shared by both engine backends, but its box
    enumeration and neighbor tables are *pure* functions of the problem —
    accelerating them cannot change which universe is produced — so they
    may borrow the compiled kernels whenever ``REPRO_BITSET`` allows.  With
    the knob off this module stays entirely pure-Python.
    """
    from repro.roundelim.ops import _bitset_backend as resolve

    return resolve()


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


def _closure(
    candidate: FrozenSet[Any],
    partners: Dict[Any, FrozenSet[Any]],
    g_images: List[FrozenSet[Any]],
    all_labels: FrozenSet[Any],
) -> FrozenSet[Any]:
    """Iterated ``cl``: the canonical dominating superset for ``R``."""
    current = candidate
    while True:
        budget_scope.tick()
        bounding = [image for image in g_images if current <= image]
        bound = frozenset.intersection(*bounding) if bounding else frozenset()
        intersection = (
            frozenset.intersection(*(partners[b] for b in current))
            if current
            else all_labels
        )
        grown = frozenset(
            a for a in bound if partners[a] >= intersection
        )
        # cl always contains its argument: every b in `current` satisfies
        # partners(b) >= I(current) by definition of the intersection.
        if grown == current:
            return current
        current = grown


def closed_universe(
    problem: NodeEdgeCheckableLCL, max_universe: int
) -> List[FrozenSet[Any]]:
    """All closed set labels for ``R(problem)``.

    Generated from singleton closures by union-and-close; complete because
    for any ``B`` the closure satisfies
    ``cl(B) = cl(cl({b₁}) ∪ … ∪ cl({b_m}))`` (sandwich argument: any ``X``
    with ``B ⊆ X ⊆ cl(B)`` has ``cl(X) = cl(B)``).
    """
    partners = edge_partners(problem)
    g_images = _g_images(problem)
    all_labels = problem.sigma_out
    found: Set[FrozenSet[Any]] = set()
    frontier: List[FrozenSet[Any]] = []
    for label in sorted(problem.sigma_out, key=label_sort_key):
        singleton = frozenset({label})
        if not _is_usable(singleton, g_images):
            continue
        closed = _closure(singleton, partners, g_images, all_labels)
        if closed not in found:
            found.add(closed)
            frontier.append(closed)
    while frontier:
        current = frontier.pop()
        for other in list(found):
            budget_scope.tick()
            union = current | other
            if union in found or not _is_usable(union, g_images):
                continue
            closed = _closure(union, partners, g_images, all_labels)
            if closed not in found:
                if len(found) >= max_universe:
                    raise ProblemDefinitionError(
                        f"closed universe of {problem.name} exceeds "
                        f"max_universe={max_universe}"
                    )
                found.add(closed)
                frontier.append(closed)
    return sorted(found, key=label_sort_key)


def _g_intersections(problem: NodeEdgeCheckableLCL) -> List[FrozenSet[Any]]:
    """All intersections of non-empty families of ``g``-images.

    These are the possible values of ``G(B) = ∩ {g(ℓ) : B ⊆ g(ℓ)}``; for a
    problem without inputs this is just ``[Σ_out]``.
    """
    images = {frozenset(image) for image in _g_images(problem)}
    closed: Set[FrozenSet[Any]] = set(images)
    frontier = list(images)
    while frontier:
        current = frontier.pop()
        for other in list(closed):
            meet = current & other
            if meet not in closed:
                closed.add(meet)
                frontier.append(meet)
    return sorted(closed, key=label_sort_key)


def _box_components_degree_two(
    problem: NodeEdgeCheckableLCL, max_boxes: int
) -> Set[FrozenSet[Any]]:
    """Components of maximal boxes of ``N²`` via the concept lattice.

    For the symmetric relation ``R(x, y) ⟺ {x, y} ∈ N²`` define the Galois
    map ``N(X) = ∩_{x∈X} {y : R(x, y)}``.  Maximal boxes are exactly the
    pairs ``(C, N(C))`` with ``C`` closed under ``cl = N∘N``, and every box
    ``(B₁, B₂)`` is dominated by ``(cl(B₁), N(cl(B₁)))`` because
    ``N∘N∘N = N``.  The closed sets are generated from singleton closures
    by union-and-close (``cl(A ∪ B) = cl(cl(A) ∪ cl(B))`` holds for every
    closure operator).
    """
    allowed = problem.node_constraints.get(2, frozenset())
    from repro.utils.multiset import Multiset

    neighbors: Dict[Any, FrozenSet[Any]] = {}
    backend = _bitset_backend()
    if backend is not None:
        try:
            neighbors = backend.pair_neighbor_sets(problem)
        except backend.BitsetUnsupported:
            neighbors = {}
    if not neighbors:
        for x in problem.sigma_out:
            neighbors[x] = frozenset(
                y for y in problem.sigma_out if Multiset((x, y)) in allowed
            )

    def galois(subset: FrozenSet[Any]) -> FrozenSet[Any]:
        if not subset:
            return frozenset(problem.sigma_out)
        return frozenset.intersection(*(neighbors[x] for x in subset))

    def closure(subset: FrozenSet[Any]) -> FrozenSet[Any]:
        return galois(galois(subset))

    closed: Set[FrozenSet[Any]] = set()
    frontier: List[FrozenSet[Any]] = []
    for label in problem.sigma_out:
        candidate = closure(frozenset({label}))
        if candidate and candidate not in closed:
            closed.add(candidate)
            frontier.append(candidate)
    while frontier:
        current = frontier.pop()
        for other in list(closed):
            budget_scope.tick()
            union = closure(current | other)
            if union and union not in closed:
                if len(closed) >= max_boxes:
                    raise ProblemDefinitionError(
                        f"degree-2 concept lattice of {problem.name} exceeds "
                        f"{max_boxes} closed sets"
                    )
                closed.add(union)
                frontier.append(union)
    components: Set[FrozenSet[Any]] = set()
    for c in closed:
        mate = galois(c)
        if not mate:
            # A set with an empty Galois image cannot sit in any allowed
            # degree-2 configuration of R̄ (its co-side would have to be
            # empty), so it is dead weight in the universe.
            continue
        components.add(c)
        components.add(mate)
    return components


def _box_components_general(
    problem: NodeEdgeCheckableLCL, degree: int, max_boxes: int
) -> Set[FrozenSet[Any]]:
    """Components of maximal boxes for ``degree >= 3`` via bounded BFS.

    The pure-Python oracle for :func:`repro.roundelim.bitset.box_components`,
    which answers instead whenever the compiled backend is on (the
    differential harness holds the two equal).  Exact (all maximal boxes
    are visited) but exponential in the worst case; guarded by
    ``max_boxes``.  The tree problems exercised at ``Δ >= 3`` have small
    alphabets, for which this is fast.
    """
    allowed = problem.node_constraints.get(degree, frozenset())
    labels = sorted(problem.sigma_out, key=label_sort_key)

    from repro.utils.multiset import Multiset
    import itertools as it

    def is_box(sets: Tuple[FrozenSet[Any], ...]) -> bool:
        size = 1
        for component in sets:
            size *= len(component)
        budget_scope.tick(size)
        return all(Multiset(sel) in allowed for sel in it.product(*sets))

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
    """Components of the maximal boxes of ``N^degree``.

    A box is a tuple ``(A_1, …, A_d)`` of label sets whose every selection
    is an allowed node configuration; boxes are exactly the allowed node
    configurations of ``R̄`` (Definition 3.2), and every allowed
    configuration is componentwise contained in a maximal box.  Degrees
    ``>= 3`` run the compiled mask-space BFS when the backend is on, and
    the pure-Python oracle otherwise (or past 64 labels).
    """
    if degree == 1:
        singles = frozenset(
            x
            for x in problem.sigma_out
            if problem.allows_node([x])
        )
        return {singles} if singles else set()
    if degree == 2:
        return _box_components_degree_two(problem, max_boxes)
    backend = _bitset_backend()
    if backend is not None:
        try:
            return backend.box_components(problem, degree, max_boxes)
        except backend.BitsetUnsupported:
            pass
    return _box_components_general(problem, degree, max_boxes)


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
