"""Tests for the VOLUME / LCA models (Definitions 2.8–2.10, §2.2, §4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlgorithmError, ProbeError, SimulationError
from repro.graphs import HalfEdgeLabeling, cycle, path, random_ids, star
from repro.lcl import catalog, is_valid_solution
from repro.local.algorithms.cole_vishkin import orient_path_inputs
from repro.utils.numbers import iterated_log
from repro.volume import (
    ChainColeVishkin,
    ComponentCount,
    FunctionalVolumeAlgorithm,
    NeighborhoodAggregate,
    VolumeQuery,
    check_volume_order_invariance,
    far_probe_free_equivalent,
    fooled_constant_volume,
    run_volume_algorithm,
)
from repro.volume.lca import LCAOracle, run_lca_algorithm
from repro.volume.model import ProbeOracle

NO = catalog.NO_INPUT


class TestProbeOracle:
    def test_tuple_contents(self):
        g = star(3)
        inputs = HalfEdgeLabeling(g, {h: f"x{h[1]}" for h in g.half_edges()})
        oracle = ProbeOracle(g, inputs, ids=[9, 5, 6, 7])
        t = oracle.tuple_of(0)
        assert t.identifier == 9
        assert t.degree == 3
        assert t.inputs == ("x0", "x1", "x2")

    def test_probe_counting(self):
        g = path(4)
        oracle = ProbeOracle(g, None, ids=[1, 2, 3, 4])
        oracle.probe(0, 0)
        oracle.probe(1, 1)
        assert oracle.probe_count == 2

    def test_invalid_port_raises(self):
        g = path(3)
        oracle = ProbeOracle(g, None, ids=[1, 2, 3])
        with pytest.raises(ProbeError):
            oracle.probe(0, 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError):
            ProbeOracle(path(3), None, ids=[1, 1, 2])


class TestVolumeQueryBudget:
    def test_budget_enforced(self):
        g = path(5)
        oracle = ProbeOracle(g, None, ids=[1, 2, 3, 4, 5])
        query = VolumeQuery(oracle, 0, budget=2, declared_n=5)
        query.probe(0, 0)
        query.probe(1, 1)
        with pytest.raises(ProbeError):
            query.probe(2, 1)

    def test_unknown_node_index_rejected(self):
        g = path(3)
        oracle = ProbeOracle(g, None, ids=[1, 2, 3])
        query = VolumeQuery(oracle, 0, budget=5, declared_n=3)
        with pytest.raises(ProbeError):
            query.probe(3, 0)

    def test_probes_reveal_tuples_in_order(self):
        g = path(3)
        oracle = ProbeOracle(g, None, ids=[10, 20, 30])
        query = VolumeQuery(oracle, 0, budget=5, declared_n=3)
        revealed = query.probe(0, 0)
        assert revealed.identifier == 20
        assert query.known_count == 2


class TestVolumeAlgorithms:
    def test_neighborhood_aggregate_constant_probes(self):
        g = star(4)
        result = run_volume_algorithm(g, NeighborhoodAggregate(max_degree=4))
        assert result.outputs[(1, 0)] == 4
        assert result.max_probes_used <= 4

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_chain_cv_colors_paths(self, n):
        g = path(n)
        inputs = orient_path_inputs(g)
        result = run_volume_algorithm(
            g, ChainColeVishkin(), inputs=inputs, ids=random_ids(g, seed=1)
        )
        problem = catalog.coloring(3, max_degree=2)
        assert is_valid_solution(
            problem, g, HalfEdgeLabeling.constant(g, NO), result.outputs
        )

    @pytest.mark.parametrize("n", [3, 12, 33])
    def test_chain_cv_colors_cycles(self, n):
        g = cycle(n)
        inputs = orient_path_inputs(g)
        result = run_volume_algorithm(
            g, ChainColeVishkin(), inputs=inputs, ids=random_ids(g, seed=2)
        )
        problem = catalog.coloring(3, max_degree=2)
        assert is_valid_solution(
            problem, g, HalfEdgeLabeling.constant(g, NO), result.outputs
        )

    def test_chain_cv_probe_complexity_is_log_star(self):
        g = cycle(50)
        inputs = orient_path_inputs(g)
        result = run_volume_algorithm(
            g, ChainColeVishkin(), inputs=inputs, ids=random_ids(g, seed=3)
        )
        assert result.max_probes_used <= 3 * iterated_log(50**3) + 12
        assert result.within_declared_budget

    def test_component_count_probes_linear(self):
        g = path(20)
        result = run_volume_algorithm(g, ComponentCount())
        for h in g.half_edges():
            assert result.outputs[h] == 20
        assert result.max_probes_used >= 19

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=30), st.integers(min_value=0, max_value=50))
    def test_property_chain_cv_any_ids(self, n, seed):
        g = cycle(n)
        inputs = orient_path_inputs(g)
        result = run_volume_algorithm(
            g, ChainColeVishkin(), inputs=inputs, ids=random_ids(g, seed=seed)
        )
        problem = catalog.coloring(3, max_degree=2)
        assert is_valid_solution(
            problem, g, HalfEdgeLabeling.constant(g, NO), result.outputs
        )


class TestOrderInvariance:
    def test_aggregate_is_order_invariant(self):
        g = star(3)
        assert check_volume_order_invariance(
            NeighborhoodAggregate(3), g, ids=[4, 8, 15, 16]
        )

    def test_chain_cv_is_not_order_invariant(self):
        # CV extracts bits of raw identifiers, so its output changes under
        # order-preserving reassignment: the Ramsey step of Theorem 4.1 is
        # about *existence* of an invariant twin, not about CV itself.
        g = cycle(12)
        inputs = orient_path_inputs(g)
        assert not check_volume_order_invariance(
            ChainColeVishkin(), g, ids=random_ids(g, seed=5), inputs=inputs, trials=8
        )

    def test_fooled_constant_volume_budget(self):
        inner = NeighborhoodAggregate(3)
        fooled = fooled_constant_volume(inner, n0=64)
        assert fooled.probes(10**9) == inner.probes(64)

    def test_fooled_algorithm_still_correct_for_order_invariant_inner(self):
        g = star(3)
        fooled = fooled_constant_volume(NeighborhoodAggregate(3), n0=16)
        result = run_volume_algorithm(g, fooled)
        assert result.outputs[(1, 0)] == 3

    def test_smallest_volume_n0(self):
        from repro.volume import smallest_volume_n0

        n0 = smallest_volume_n0(lambda n: 3, max_degree=3, checking_radius=1)
        assert 3 ** 2 * 4 <= n0 / 3 + 1  # the defining inequality holds at n0


class TestLCA:
    def test_lca_requires_canonical_ids(self):
        with pytest.raises(SimulationError):
            LCAOracle(path(3), None, ids=[2, 3, 4])

    def test_far_probe_counts(self):
        g = path(4)
        oracle = LCAOracle(g, None, ids=[1, 2, 3, 4])
        node = oracle.far_probe(3)
        assert node == 2
        assert oracle.far_probe_count == 1
        with pytest.raises(ProbeError):
            oracle.far_probe(99)

    def test_run_lca_with_volume_algorithm(self):
        g = path(10)
        inputs = orient_path_inputs(g)
        result = run_lca_algorithm(g, ChainColeVishkin(), inputs=inputs)
        problem = catalog.coloring(3, max_degree=2)
        assert is_valid_solution(
            problem, g, HalfEdgeLabeling.constant(g, NO), result.outputs
        )
        assert result.far_probes_used == 0

    def test_partial_labeling_rejected_like_volume(self):
        # Labeling only port 0 of a degree-2 node must fail in the LCA
        # runner exactly as it does in the VOLUME runner.
        partial = FunctionalVolumeAlgorithm(
            lambda n: 0, lambda n, i, tuples: None, lambda n, tuples: {0: "x"},
            name="port-zero-only",
        )
        g = cycle(4)
        with pytest.raises(AlgorithmError, match="must label exactly the ports of node 0"):
            run_volume_algorithm(g, partial)
        with pytest.raises(AlgorithmError, match="must label exactly the ports of node 0"):
            run_lca_algorithm(g, partial)

    def test_range_padding_increases_budget(self):
        inner = ChainColeVishkin()
        padded = far_probe_free_equivalent(inner, id_exponent=3)
        assert padded.probes(100) == inner.probes(100**3)

    def test_range_padded_algorithm_handles_polynomial_ids(self):
        g = cycle(9)
        inputs = orient_path_inputs(g)
        padded = far_probe_free_equivalent(ChainColeVishkin(id_exponent=1))
        result = run_volume_algorithm(
            g, padded, inputs=inputs, ids=random_ids(g, seed=7, exponent=3)
        )
        problem = catalog.coloring(3, max_degree=2)
        assert is_valid_solution(
            problem, g, HalfEdgeLabeling.constant(g, NO), result.outputs
        )
