"""Fuzzing the reduced-universe machinery against brute-force ground truth.

The reduced universes are the engine's main performance lever; these
tests verify their defining properties on random problems:

* ``closed_universe``: closure is idempotent and extensive; every member
  really is closed; the universe is union-closed (up to closure);
* ``box_components`` (degree 2 via the concept lattice, degree 3 via the
  maximal-box BFS): every component extends into a genuine box, and
  every allowed configuration embeds into some maximal box — the
  completeness property the R̄ reduction rests on.
"""

import itertools

import pytest

from repro.lcl import random_lcl
from repro.roundelim.universe import (
    box_components,
    closed_universe,
    edge_partners,
    reduced_universe,
)
from repro.utils.multiset import Multiset

SEEDS = list(range(15))


def closure_map(problem):
    """Re-derive the closure operator used by ``closed_universe``."""
    from repro.roundelim.universe import _closure, _g_images

    partners = edge_partners(problem)
    g_images = _g_images(problem)

    def close(subset):
        return _closure(frozenset(subset), partners, g_images, problem.sigma_out)

    return close


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


def is_box(problem, sides):
    """Is every selection of one label per side an allowed configuration?"""
    return all(
        problem.allows_node(Multiset(selection))
        for selection in itertools.product(*sides)
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestBoxComponents:
    """Degree-2 boxes (concept lattice); the subclass below reruns every
    check at degree 3 (the BFS behind ``box_components``).  Test names
    keep their original degree-2 wording."""

    degree = 2

    def _problem(self, seed):
        return random_lcl(seed + 900, num_labels=4, max_degree=self.degree, num_inputs=1)

    def test_components_pair_into_boxes(self, seed):
        problem = self._problem(seed)
        components = box_components(problem, degree=self.degree, max_boxes=4096)
        for component in components:
            # Every component is a side of some maximal box, whose other
            # sides are components too: at least one choice of co-sides
            # must make an all-allowed box.
            mates = [
                others
                for others in itertools.combinations_with_replacement(
                    components, self.degree - 1
                )
                if is_box(problem, (component,) + others)
            ]
            assert mates or all(
                not problem.allows_node(Multiset((x,) + rest))
                for x in component
                for rest in itertools.combinations_with_replacement(
                    problem.sigma_out, self.degree - 1
                )
            )

    def test_every_allowed_pair_lies_in_a_box(self, seed):
        problem = self._problem(seed)
        components = box_components(problem, degree=self.degree, max_boxes=4096)
        for configuration in problem.node_constraints.get(self.degree, ()):
            candidates = [
                [component for component in components if label in component]
                for label in configuration.items
            ]
            assert any(
                is_box(problem, sides) for sides in itertools.product(*candidates)
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


class TestReducedUniverseGeneral:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reduced_universe_members_usable(self, seed):
        problem = random_lcl(seed, num_labels=4, max_degree=2, num_inputs=2)
        g_images = list(problem.g.values())
        for member in reduced_universe(problem, max_universe=4096):
            assert any(member <= image for image in g_images)
