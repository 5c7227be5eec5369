"""Property tests for the canonical problem hash (roundelim.canonical).

The operator cache is only sound if the hash is (a) invariant under
output relabeling, (b) discriminating on genuinely different problems,
and (c) stable across interpreter processes (no ``PYTHONHASHSEED``
dependence).  Each property is exercised here on catalog and random
problems.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

from repro.exceptions import BudgetExceededError, ProblemDefinitionError
from repro.lcl import catalog
from repro.lcl.catalog import standard_catalog
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.lcl.random_problems import random_lcl, solvable_random_lcl
from repro.roundelim import bitset
from repro.roundelim.canonical import (
    _colors_from_signatures,
    _refine,
    canonical_encoding,
    canonical_form,
    canonical_hash,
    canonical_order,
    canonically_equal,
    clear_canonical_memo,
    decode_result,
    encode_result,
    is_search_exhaustive,
)
from repro.roundelim.ops import R, R_bar, configure_bitset, simplify
from repro.utils.budget import Budget
from repro.utils.multiset import Multiset, label_sort_key

CATALOG = [
    ("trivial", lambda: catalog.trivial(3)),
    ("consensus", lambda: catalog.consensus(3)),
    ("3-coloring", lambda: catalog.coloring(3, 2)),
    ("mis", lambda: catalog.mis(3)),
    ("matching", lambda: catalog.maximal_matching(3)),
    ("sinkless", lambda: catalog.sinkless_orientation(3)),
    ("echo", lambda: catalog.echo(2)),
    ("echo2", lambda: catalog.echo2()),
    ("input-copy", lambda: catalog.input_copy(3)),
]


def permuted(problem: NodeEdgeCheckableLCL, seed: int) -> NodeEdgeCheckableLCL:
    """A relabeling of the outputs by a seeded random bijection."""
    labels = sorted(problem.sigma_out, key=repr)
    renamed = [f"p{seed}_{i}" for i in range(len(labels))]
    random.Random(seed).shuffle(renamed)
    return problem.rename_outputs(dict(zip(labels, renamed)))


class TestRelabelingInvariance:
    @pytest.mark.parametrize("name, build", CATALOG)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_catalog_permutations_hash_equal(self, name, build, seed):
        problem = build()
        twin = permuted(problem, seed)
        assert canonical_hash(twin) == canonical_hash(problem)
        assert canonically_equal(problem, twin)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_problem_permutations_hash_equal(self, seed):
        problem = random_lcl(seed, num_labels=4, max_degree=3, num_inputs=2)
        twin = permuted(problem, seed + 100)
        assert canonical_hash(twin) == canonical_hash(problem)

    def test_name_does_not_affect_hash(self):
        a = catalog.mis(3)
        b = NodeEdgeCheckableLCL(
            sigma_in=a.sigma_in,
            sigma_out=a.sigma_out,
            node_constraints=a.node_constraints,
            edge_constraint=a.edge_constraint,
            g=a.g,
            name="something-else",
        )
        assert canonical_hash(a) == canonical_hash(b)

    def test_operator_output_relabelings(self):
        # Frozenset-valued labels (the post-R world) canonicalize too.
        base = catalog.sinkless_orientation(3)
        r = simplify(R(base), domination=True)
        twin = permuted(r, 7)
        assert canonical_hash(twin) == canonical_hash(r)


class TestDiscrimination:
    def test_mutated_node_configuration_changes_hash(self):
        problem = catalog.coloring(3, 2)
        degree = 2
        configurations = list(problem.node_constraints[degree])
        mutated = NodeEdgeCheckableLCL(
            sigma_in=problem.sigma_in,
            sigma_out=problem.sigma_out,
            node_constraints={
                **problem.node_constraints,
                degree: configurations[:-1],
            },
            edge_constraint=problem.edge_constraint,
            g=problem.g,
            name=problem.name,
        )
        assert canonical_hash(mutated) != canonical_hash(problem)
        assert not canonically_equal(mutated, problem)

    def test_mutated_edge_constraint_changes_hash(self):
        problem = catalog.mis(2)
        label = sorted(problem.sigma_out, key=repr)[0]
        extended = NodeEdgeCheckableLCL(
            sigma_in=problem.sigma_in,
            sigma_out=problem.sigma_out,
            node_constraints=problem.node_constraints,
            edge_constraint=list(problem.edge_constraint) + [Multiset((label, label))],
            g=problem.g,
            name=problem.name,
        )
        if Multiset((label, label)) in problem.edge_constraint:
            pytest.skip("mutation was a no-op for this problem")
        assert canonical_hash(extended) != canonical_hash(problem)

    def test_mutated_g_changes_hash(self):
        problem = catalog.echo(2)
        some_input = sorted(problem.sigma_in, key=repr)[0]
        shrunk_g = dict(problem.g)
        allowed = sorted(shrunk_g[some_input], key=repr)
        assert len(allowed) > 1
        shrunk_g[some_input] = frozenset(allowed[:-1])
        mutated = NodeEdgeCheckableLCL(
            sigma_in=problem.sigma_in,
            sigma_out=problem.sigma_out,
            node_constraints=problem.node_constraints,
            edge_constraint=problem.edge_constraint,
            g=shrunk_g,
            name=problem.name,
        )
        assert canonical_hash(mutated) != canonical_hash(problem)

    def test_different_input_labels_distinguished(self):
        # Inputs are part of the instance: renaming them must NOT be
        # identified (mirrors is_isomorphic's contract).
        problem = catalog.echo(2)
        renamed_inputs = {label: f"in_{label}" for label in problem.sigma_in}
        twin = NodeEdgeCheckableLCL(
            sigma_in=renamed_inputs.values(),
            sigma_out=problem.sigma_out,
            node_constraints=problem.node_constraints,
            edge_constraint=problem.edge_constraint,
            g={renamed_inputs[k]: v for k, v in problem.g.items()},
            name=problem.name,
        )
        assert canonical_hash(twin) != canonical_hash(problem)

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_with_backtracking_isomorphism(self, seed):
        left = random_lcl(seed, num_labels=3, max_degree=2)
        right = random_lcl(seed + 1000, num_labels=3, max_degree=2)
        assert canonically_equal(left, right) == left.is_isomorphic(right)


class TestCrossProcessStability:
    def _subprocess_hash(self, extra_env: dict) -> str:
        code = (
            "from repro.lcl import catalog\n"
            "from repro.roundelim.canonical import canonical_hash\n"
            "from repro.roundelim.ops import R, simplify\n"
            "p = simplify(R(catalog.mis(3)), domination=True, use_cache=False)\n"
            "print(canonical_hash(p))\n"
        )
        env = {**os.environ, **extra_env}
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE"] = "0"
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return output.stdout.strip()

    def test_hash_stable_across_hash_seeds(self):
        here = simplify(R(catalog.mis(3)), domination=True, use_cache=False)
        expected = canonical_hash(here)
        for seed in ("0", "1", "424242"):
            assert self._subprocess_hash({"PYTHONHASHSEED": seed}) == expected


class TestCanonicalForm:
    @pytest.mark.parametrize("name, build", CATALOG)
    def test_canonical_forms_of_relabelings_coincide(self, name, build):
        problem = build()
        twin = permuted(problem, 5)
        assert canonical_form(problem) == canonical_form(twin)

    def test_canonical_form_is_isomorphic_to_original(self):
        problem = catalog.maximal_matching(3)
        form = canonical_form(problem)
        assert form.is_isomorphic(problem)
        assert canonical_hash(form) == canonical_hash(problem)

    def test_order_is_a_permutation_of_sigma_out(self):
        problem = catalog.mis(3)
        order = canonical_order(problem)
        assert frozenset(order) == problem.sigma_out
        assert len(order) == len(problem.sigma_out)

    def test_encoding_is_pure_structure(self):
        # The encoding must contain no output label spellings at all.
        problem = catalog.coloring(3, 2)
        flattened = repr(canonical_encoding(problem))
        for label in problem.sigma_out:
            assert repr(label) not in flattened

    @pytest.mark.parametrize("name, build", CATALOG)
    def test_search_exhaustive_on_catalog(self, name, build):
        assert is_search_exhaustive(build())


class TestResultCodec:
    @pytest.mark.parametrize(
        "operator", [lambda p: R(p, use_cache=False), lambda p: R_bar(p, use_cache=False)]
    )
    def test_roundtrip_same_spelling(self, operator):
        base = catalog.mis(2)
        result = operator(base)
        payload = encode_result(base, result)
        assert decode_result(base, payload, name=result.name) == result

    def test_decode_against_relabeled_base(self):
        base = catalog.sinkless_orientation(3)
        twin = permuted(base, 11)
        payload = encode_result(base, R(base, use_cache=False))
        direct = R(twin, use_cache=False)
        decoded = decode_result(twin, payload, name=direct.name)
        assert decoded == direct

    def test_payload_is_json_roundtrippable(self):
        import json

        base = catalog.echo(2)
        result = simplify(R(base, use_cache=False), domination=True, use_cache=False)
        payload = encode_result(base, result)
        assert (
            decode_result(base, json.loads(json.dumps(payload)), name=result.name)
            == result
        )


# ------------------------------------------------------ kernel vs. oracle
def reference_refine(problem, sigma_in_order):
    """The per-label refinement the one-pass ``_refine`` replaced: every
    label scans every configuration.  Kept as the reference for colors."""
    degrees = sorted(problem.node_constraints)
    signatures = {}
    for a in problem.sigma_out:
        signatures[a] = (
            tuple(a in problem.g[i] for i in sigma_in_order),
            tuple(
                (
                    degree,
                    sum(1 for c in problem.node_constraints[degree] if a in c),
                    sum(c.count(a) for c in problem.node_constraints[degree]),
                )
                for degree in degrees
            ),
            (
                sum(1 for c in problem.edge_constraint if a in c),
                sum(c.count(a) for c in problem.edge_constraint),
            ),
        )
    colors = _colors_from_signatures(signatures)
    while True:
        signatures = {}
        for a in problem.sigma_out:
            edge_view = tuple(
                sorted(
                    tuple(sorted(colors[x] for x in c.items))
                    for c in problem.edge_constraint
                    if a in c
                )
            )
            node_view = tuple(
                sorted(
                    (degree, tuple(sorted(colors[x] for x in c.items)))
                    for degree, configurations in problem.node_constraints.items()
                    for c in configurations
                    if a in c
                )
            )
            signatures[a] = (colors[a], edge_view, node_view)
        refined = _colors_from_signatures(signatures)
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


@pytest.fixture
def restore_backend():
    """Hand the backend back to the environment knob, memo cleared."""
    yield
    configure_bitset(enabled=None)
    clear_canonical_memo()


@pytest.fixture
def kernel_calls(monkeypatch, restore_backend):
    """Count calls of the compiled order search and the shapes it declined."""
    calls = {"orders": [], "declined": 0}
    original = bitset.canonical_argmin

    def spy(problem, orders, sigma_in_order):
        calls["orders"].append(len(orders))
        try:
            return original(problem, orders, sigma_in_order)
        except bitset.BitsetUnsupported:
            calls["declined"] += 1
            raise

    monkeypatch.setattr(bitset, "canonical_argmin", spy)
    return calls


def search(problem, enabled):
    """``(canonical_order, canonical_hash)`` from one backend, memo cleared
    first so the other backend's answer cannot be served from it."""
    configure_bitset(enabled=enabled)
    clear_canonical_memo()
    return canonical_order(problem), canonical_hash(problem)


def assert_backends_agree(problem):
    """Kernel and oracle pick the same order; colors match the reference."""
    sigma_in_order = tuple(sorted(problem.sigma_in, key=label_sort_key))
    assert _refine(problem, sigma_in_order) == reference_refine(problem, sigma_in_order)
    assert search(problem, enabled=True) == search(problem, enabled=False)


def stages(problem, count=3):
    """The first ``count`` of ``p``, ``R(p)``, ``simplify(R(p))``; a
    universe blow-up ends the list early."""
    found = [problem]
    if count > 1:
        try:
            found.append(R(problem, max_universe=512))
        except ProblemDefinitionError:
            return found
    if count > 2:
        found.append(simplify(found[1], domination=True))
    return found


def label_cycle(length):
    """Labels ``0 .. length-1`` on one directed cycle.

    Allowed edges join cyclic neighbors and each node configuration is
    ``{a, a, a, a+1, a+2}``.  Refinement cannot split a vertex-transitive
    structure, so every label lands in one class, yet orders encode
    differently: a real argmin.  At six labels the packed node rows
    exceed one byte and the argmin turns on their high bytes, so the
    kernel's big-endian keys are exercised.
    """
    labels = [str(i) for i in range(length)]
    successor = {a: labels[(i + 1) % length] for i, a in enumerate(labels)}
    return NodeEdgeCheckableLCL(
        sigma_in=["x"],
        sigma_out=labels,
        node_constraints={
            5: [Multiset([a, a, a, successor[a], successor[successor[a]]]) for a in labels]
        },
        edge_constraint=[Multiset([a, successor[a]]) for a in labels],
        g={"x": frozenset(labels)},
        name=f"{length}-cycle",
    )


def two_orbits():
    """A 7-label and a 3-label clique: the 7-class is frozen (7! > 720),
    the 3-class is permuted, and all 6 candidate orders tie."""
    sevens = [f"s{i}" for i in range(7)]
    threes = [f"t{i}" for i in range(3)]
    return NodeEdgeCheckableLCL(
        sigma_in=["x", "y"],
        sigma_out=sevens + threes,
        node_constraints={
            2: [Multiset(pair) for group in (sevens, threes) for pair in itertools.combinations(group, 2)]
        },
        edge_constraint=[Multiset([a, a]) for a in sevens + threes],
        g={"x": frozenset(sevens), "y": frozenset(sevens + threes)},
        name="two-orbits",
    )


#: ``5-coloring@4``'s ``R`` has 31 labels and 18k configurations; the
#: oracle search takes several seconds on each of its two stages.
SLOW_STAGES = {("5-coloring", 4, 1), ("5-coloring", 4, 2)}

STAGE_CASES = [
    pytest.param(
        degree,
        problem.name,
        stage,
        id=f"d{degree}-{problem.name}-{('p', 'R', 'simplifyR')[stage]}",
        marks=[pytest.mark.fuzz] if (problem.name, degree, stage) in SLOW_STAGES else [],
    )
    for degree in (3, 4)
    for problem in standard_catalog(max_degree=degree)
    for stage in range(3)
]


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("degree, name, stage", STAGE_CASES)
    def test_catalog_stages(self, degree, name, stage, kernel_calls):
        problem = {p.name: p for p in standard_catalog(max_degree=degree)}[name]
        found = stages(problem, stage + 1)
        if stage >= len(found):
            pytest.skip("R blows up the universe cap")
        assert_backends_agree(found[stage])
        assert kernel_calls["declined"] == 0

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    @pytest.mark.parametrize("generator", [random_lcl, solvable_random_lcl])
    def test_random_problems_with_inputs(self, degree, generator, restore_backend):
        for seed in range(6):
            problem = generator(seed, num_labels=4, max_degree=degree, num_inputs=2)
            for stage in stages(problem):
                assert_backends_agree(stage)

    def test_refinement_matches_the_per_label_scans(self):
        # Colors alone are cheap, so sweep more seeds: the rare problems
        # where containment and multiplicity counts order labels
        # differently only show up in a wider draw.
        for seed in range(240):
            for degree in (2, 3):
                problem = random_lcl(seed, num_labels=4, max_degree=degree, num_inputs=2)
                sigma_in_order = tuple(sorted(problem.sigma_in, key=label_sort_key))
                assert _refine(problem, sigma_in_order) == reference_refine(
                    problem, sigma_in_order
                ), f"seed {seed}, degree {degree}"

    def test_kernel_decides_a_real_argmin(self, kernel_calls):
        problem = label_cycle(6)
        assert_backends_agree(problem)
        # One class of six labels: all 720 orders searched, and the cycle's
        # 6 rotations leave 120 distinct encodings to choose among.
        assert kernel_calls["orders"] == [720]
        assert is_search_exhaustive(problem)
        assert canonical_hash(problem) == canonical_hash(permuted(problem, 3))

    @pytest.mark.parametrize("chunk_elems", [1, 500])
    def test_chunking_keeps_the_first_minimum(self, chunk_elems, monkeypatch, kernel_calls):
        # One order per chunk, then a few: a tie or a minimum that spans
        # chunks must still resolve to the first order, as in the oracle.
        monkeypatch.setattr(bitset, "_ORDER_CHUNK_ELEMS", chunk_elems)
        for problem in (label_cycle(6), catalog.coloring(6, 2), catalog.coloring(3, 3)):
            assert_backends_agree(problem)
        assert kernel_calls["orders"] == [720, 720, 6]

    def test_all_orders_tie_first_wins(self, kernel_calls):
        problem = catalog.coloring(6, 2)
        assert_backends_agree(problem)
        assert kernel_calls["orders"] == [720]
        first = tuple(sorted(problem.sigma_out, key=label_sort_key))
        assert search(problem, enabled=True)[0] == first

    def test_symmetric_seven_labels_search_is_not_exhaustive(self, kernel_calls):
        for problem in (catalog.coloring(7, 3), two_orbits()):
            assert_backends_agree(problem)
            assert not is_search_exhaustive(problem)
        # 7-coloring freezes its only class (one order, nothing to search);
        # two-orbits searches the six orders of its 3-class.
        assert kernel_calls["orders"] == [6]

    def test_overflowing_shape_falls_back_to_the_oracle(self, kernel_calls):
        # 3 ** 40 > 2 ** 63: degree-40 configurations cannot be packed.
        problem = catalog.coloring(3, 40)
        assert_backends_agree(problem)
        assert kernel_calls["declined"] == 1
        assert kernel_calls["orders"] == [6]


class TestBudgetPolling:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_expired_budget_trips_and_caches_no_failure(self, enabled, restore_backend):
        problem = label_cycle(6)
        expected = search(problem, enabled=enabled)[1]
        clear_canonical_memo()
        with Budget(deadline=-1.0):
            with pytest.raises(BudgetExceededError):
                canonical_hash(problem)
        assert canonical_hash(problem) == expected
