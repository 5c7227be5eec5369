"""Fuzzing the reduced-universe machinery against brute-force ground truth.

The reduced universes are the engine's main performance lever; these
tests verify their defining properties on random problems:

* ``closed_universe``: closure is idempotent and extensive; every member
  really is closed; every usable subset closes into the universe; the
  universe equals the union-and-close enumeration it replaced (kept
  below as a reference), and its cap counts every closed set;
* ``box_components`` (the maximal-box recursion, at degrees 2 to 4,
  with and without inputs): every component is a side of a genuine
  maximal box, and every allowed configuration embeds into some maximal
  box — the completeness property the R̄ reduction rests on.
"""

import itertools
from typing import Any, Dict, FrozenSet, List, Set

import pytest

from repro.exceptions import ProblemDefinitionError
from repro.lcl import random_lcl
from repro.lcl.catalog import standard_catalog
from repro.lcl.nec import NodeEdgeCheckableLCL, all_multisets
from repro.roundelim.ops import R, simplify
from repro.roundelim.universe import (
    _g_images,
    _is_usable,
    box_components,
    closed_universe,
    edge_partners,
    reduced_universe,
)
from repro.utils import budget as budget_scope
from repro.utils.multiset import Multiset, label_sort_key

SEEDS = list(range(15))


# ------------------------------------------------------------ the reference
# The frozenset closure and union-and-close enumeration that
# ``closed_universe`` used before the atom-extension enumerator, verbatim
# but for their names: each new closed set is unioned with every set found
# so far.  (Its singleton closures skip the cap check, which the
# regression test below pins.)


def reference_closure(
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


def reference_closed_universe(
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
        closed = reference_closure(singleton, partners, g_images, all_labels)
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
            closed = reference_closure(union, partners, g_images, all_labels)
            if closed not in found:
                if len(found) >= max_universe:
                    raise ProblemDefinitionError(
                        f"closed universe of {problem.name} exceeds "
                        f"max_universe={max_universe}"
                    )
                found.add(closed)
                frontier.append(closed)
    return sorted(found, key=label_sort_key)


def closure_map(problem):
    """Re-derive the closure operator behind ``closed_universe``."""
    partners = edge_partners(problem)
    g_images = _g_images(problem)

    def close(subset):
        return reference_closure(frozenset(subset), partners, g_images, problem.sigma_out)

    return close


def _universe_outcome(enumerate_universe, problem, cap=4096):
    try:
        return enumerate_universe(problem, cap)
    except ProblemDefinitionError as error:
        return str(error)


@pytest.mark.parametrize("seed", SEEDS)
class TestClosedUniverse:
    def _problem(self, seed):
        return random_lcl(seed, num_labels=4, max_degree=2, num_inputs=2)

    def test_members_are_closed(self, seed):
        problem = self._problem(seed)
        close = closure_map(problem)
        for member in closed_universe(problem, max_universe=4096):
            assert close(member) == member

    def test_closure_is_extensive_and_idempotent(self, seed):
        # Extensivity/idempotence hold on *usable* subsets (those below
        # some g-image); unusable subsets close to the empty set, which
        # the universe generator filters out up front.
        problem = self._problem(seed)
        close = closure_map(problem)
        g_images = list(problem.g.values())
        labels = sorted(problem.sigma_out, key=str)
        for size in (1, 2):
            for subset in itertools.combinations(labels, size):
                subset = frozenset(subset)
                if not any(subset <= image for image in g_images):
                    assert close(subset) == frozenset()
                    continue
                closed = close(subset)
                assert subset <= closed
                assert close(closed) == closed

    def test_every_usable_subset_closes_into_universe(self, seed):
        problem = self._problem(seed)
        close = closure_map(problem)
        universe = set(closed_universe(problem, max_universe=4096))
        g_images = list(problem.g.values())
        labels = sorted(problem.sigma_out, key=str)
        for size in range(1, len(labels) + 1):
            for subset in itertools.combinations(labels, size):
                subset = frozenset(subset)
                if not any(subset <= image for image in g_images):
                    continue
                assert close(subset) in universe

    def test_matches_the_union_and_close_reference(self, seed):
        problem = random_lcl(seed + 300, num_labels=5, max_degree=3, num_inputs=3)
        assert closed_universe(problem, 4096) == reference_closed_universe(problem, 4096)


def _catalog_universe_cases():
    """``p``, ``R(p)`` and ``simplify(R(p))`` of ``standard_catalog(3|4)``."""
    return [
        pytest.param(max_degree, name, stage, id=f"cat{max_degree}-{stage}-{name}")
        for max_degree in (3, 4)
        for name in sorted(p.name for p in standard_catalog(max_degree=max_degree))
        for stage in ("p", "R", "sR")
    ]


_stages = {}


def _stage(max_degree, name, stage):
    key = (max_degree, name, stage)
    if key not in _stages:
        if stage == "p":
            _stages[key] = {p.name: p for p in standard_catalog(max_degree=max_degree)}[name]
        elif stage == "R":
            _stages[key] = R(_stage(max_degree, name, "p"), use_cache=False)
        else:
            _stages[key] = simplify(_stage(max_degree, name, "R"), domination=True, use_cache=False)
    return _stages[key]


class TestClosedUniverseMatchesReference:
    """The atom-extension ``closed_universe`` equals the union-and-close
    reference on the catalog, cap trips included."""

    @pytest.mark.parametrize(("max_degree", "name", "stage"), _catalog_universe_cases())
    def test_catalog(self, max_degree, name, stage):
        problem = _stage(max_degree, name, stage)
        assert _universe_outcome(closed_universe, problem) == _universe_outcome(
            reference_closed_universe, problem
        )

    def test_cap_counts_the_singleton_closures(self):
        # Three inputs, each allowing one label: the closed sets are the
        # three singletons and no union is usable, so the reference never
        # reaches its cap check and returned three sets under a cap of 2.
        labels = ["a", "b", "c"]
        problem = NodeEdgeCheckableLCL(
            sigma_in=["i0", "i1", "i2"],
            sigma_out=labels,
            node_constraints={1: all_multisets(labels, 1), 2: all_multisets(labels, 2)},
            edge_constraint=all_multisets(labels, 2),
            g={f"i{k}": frozenset({label}) for k, label in enumerate(labels)},
            name="three-pinned-inputs",
        )
        assert len(reference_closed_universe(problem, max_universe=2)) == 3
        with pytest.raises(ProblemDefinitionError, match="exceeds max_universe=2"):
            closed_universe(problem, max_universe=2)
        assert len(closed_universe(problem, max_universe=3)) == 3


def is_box(problem, sides):
    """Is every selection of one label per side an allowed configuration?"""
    return all(
        problem.allows_node(Multiset(selection))
        for selection in itertools.product(*sides)
    )


def is_maximal_box(problem, sides):
    """A box to which no label can be added on any side."""
    return is_box(problem, sides) and not any(
        is_box(problem, sides[:position] + (side | {label},) + sides[position + 1 :])
        for position, side in enumerate(sides)
        for label in problem.sigma_out - side
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestBoxComponents:
    """Degree-2 boxes (the concept lattice); the subclasses below rerun
    every check at degrees 3 and 4 and with inputs.  Test names keep
    their original degree-2 wording."""

    degree = 2
    num_inputs = 1

    def _problem(self, seed):
        return random_lcl(
            seed + 900, num_labels=4, max_degree=self.degree, num_inputs=self.num_inputs
        )

    def test_components_pair_into_boxes(self, seed):
        problem = self._problem(seed)
        components = box_components(problem, degree=self.degree, max_boxes=4096)
        for component in components:
            # Every component is a side of some maximal box, whose other
            # sides are components too: at least one choice of co-sides
            # must make a genuine maximal box.
            mates = [
                others
                for others in itertools.combinations_with_replacement(
                    sorted(components, key=label_sort_key), self.degree - 1
                )
                if is_maximal_box(problem, (component,) + others)
            ]
            assert mates, sorted(component)

    def test_every_allowed_pair_lies_in_a_box(self, seed):
        problem = self._problem(seed)
        components = box_components(problem, degree=self.degree, max_boxes=4096)
        for configuration in problem.node_constraints.get(self.degree, ()):
            candidates = [
                [component for component in components if label in component]
                for label in configuration.items
            ]
            assert any(
                is_maximal_box(problem, tuple(sides))
                for sides in itertools.product(*candidates)
            ), configuration.items

    def test_degree_one_component(self, seed):
        problem = self._problem(seed)
        components = box_components(problem, degree=1, max_boxes=4096)
        if components:
            (component,) = components
            for label in component:
                assert problem.allows_node([label])


class TestBoxComponentsDegreeThree(TestBoxComponents):
    degree = 3


class TestBoxComponentsDegreeFour(TestBoxComponents):
    degree = 4


class TestBoxComponentsWithInputs(TestBoxComponents):
    degree = 3
    num_inputs = 3


class TestReducedUniverseGeneral:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reduced_universe_members_usable(self, seed):
        problem = random_lcl(seed, num_labels=4, max_degree=2, num_inputs=2)
        g_images = list(problem.g.values())
        for member in reduced_universe(problem, max_universe=4096):
            assert any(member <= image for image in g_images)
