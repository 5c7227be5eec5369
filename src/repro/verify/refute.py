"""Independent 0-round (non-)solvability evidence: build and check.

Theorem 3.10's base decision — "does ``Π`` admit a deterministic 0-round
algorithm?" — has a finite characterization (see
:mod:`repro.roundelim.zero_round`): the labels a 0-round algorithm ever
outputs form a *self-looped clique* of the edge-compatibility graph, and
that clique must *cover* every input tuple (choose, per tuple, outputs
inside ``g`` whose multiset is a node configuration).  Both sides of the
decision therefore admit small, self-contained evidence:

* **positive** — the ``A_det`` table itself.  :func:`check_zero_round_table`
  re-verifies the clique condition and the cover condition directly
  against the problem, by brute force, without consulting the engine
  that produced the table;
* **negative** — a :func:`build_refutation` witness: the complete list
  of maximal self-looped cliques, and for each of them one input tuple
  the clique cannot cover.  :func:`check_refutation` *recomputes* the
  maximal cliques with its own enumeration (so a certificate cannot
  hide a clique) and re-exhausts each recorded tuple by backtracking
  over every output choice — a brute-force exhaustion witness.  Since
  any 0-round algorithm's label set is contained in some maximal clique,
  and shrinking a clique only makes covering harder, defeating every
  maximal clique defeats every algorithm.

Everything here imports only the LCL formalism at module level — it is
shared by the certificate producer (:mod:`repro.verify.certify`) and the
independent checker (:mod:`repro.verify.check`).  The builder and the
checker share no state: :func:`check_refutation` recomputes the maximal
cliques and re-exhausts each recorded witness by brute force, whatever
built the payload.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lcl.codec import decode_label, encode_label
from repro.lcl.nec import NodeEdgeCheckableLCL
from repro.utils.multiset import Multiset, label_sort_key


def self_looped_cliques(problem: NodeEdgeCheckableLCL) -> List[FrozenSet[Any]]:
    """All maximal cliques of the edge-compatibility graph restricted to
    self-looped labels, in a deterministic order.

    Independent of the engine's search (this module imports no engine
    code): pivoted Bron–Kerbosch over bit masks of the labels' positions
    in :func:`label_sort_key` order, so it lists only maximal cliques, then
    the cliques sorted by their tuples of positions.
    """
    vertices = [
        label
        for label in sorted(problem.sigma_out, key=label_sort_key)
        if problem.allows_edge(label, label)
    ]
    neighbors = [
        sum(
            1 << j
            for j, u in enumerate(vertices)
            if j != i and problem.allows_edge(u, v)
        )
        for i, v in enumerate(vertices)
    ]
    found: List[Tuple[int, ...]] = []

    def expand(clique: Tuple[int, ...], p: int, x: int) -> None:
        if not p | x:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(_bits(p | x), key=lambda u: (neighbors[u] & p).bit_count())
        for v in _bits(p & ~neighbors[pivot]):
            expand(clique + (v,), p & neighbors[v], x & neighbors[v])
            p &= ~(1 << v)
            x |= 1 << v

    if vertices:
        expand((), (1 << len(vertices)) - 1, 0)
    return [frozenset(vertices[i] for i in clique) for clique in sorted(found)]


def _bits(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, ascending."""
    positions: List[int] = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


#: Observable accounting for the candidate hoist in
#: :func:`uncoverable_tuple`: ``candidate_lists`` counts how many
#: ``g(input) ∩ clique`` lists were materialized.  After the hoist that
#: is one per input label per call; before it, one per *port of every
#: enumerated tuple* — combinatorially more.  A regression test pins the
#: post-hoist count.
_candidate_stats: Dict[str, int] = {"candidate_lists": 0}


def _sorted_candidates(
    problem: NodeEdgeCheckableLCL, clique: FrozenSet[Any], input_label: Any
) -> Tuple[Any, ...]:
    """``g(input) ∩ clique`` in deterministic order (counted for tests)."""
    _candidate_stats["candidate_lists"] += 1
    return tuple(
        sorted(problem.allowed_outputs(input_label) & clique, key=label_sort_key)
    )


def uncoverable_tuple(
    problem: NodeEdgeCheckableLCL,
    clique: FrozenSet[Any],
    degrees: Optional[Sequence[int]] = None,
) -> Optional[Tuple[int, Tuple[Any, ...]]]:
    """An input tuple ``clique`` cannot cover, or ``None`` if it covers all.

    Returns ``(degree, input_tuple)`` for the first (in deterministic
    order) tuple for which no per-port output choice from
    ``g(input) ∩ clique`` forms a node configuration.
    """
    chosen_degrees = tuple(sorted(degrees)) if degrees is not None else problem.degrees()
    inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
    # ``g(i) ∩ clique`` depends only on the input label, never on the
    # tuple it sits in, so the candidate lists are hoisted out of the
    # tuple enumeration: |sigma_in| computations per call instead of one
    # per port per tuple.
    candidates_by_input = {
        input_label: _sorted_candidates(problem, clique, input_label)
        for input_label in inputs_sorted
    }
    for degree in chosen_degrees:
        allowed = problem.node_constraints.get(degree, frozenset())
        for input_tuple in itertools.combinations_with_replacement(inputs_sorted, degree):
            ports = [candidates_by_input[i] for i in input_tuple]
            if not _covers_candidates(allowed, ports):
                return degree, input_tuple
    return None


def _covers(
    problem: NodeEdgeCheckableLCL, clique: FrozenSet[Any], input_tuple: Tuple[Any, ...]
) -> bool:
    """Exhaustive search: can ``clique`` label this input tuple?

    The standalone per-tuple entry point used by :func:`check_refutation`
    — it recomputes its candidate lists from scratch so checking one
    witness shares no state with the builder.
    """
    allowed = problem.node_constraints.get(len(input_tuple), frozenset())
    candidates = [
        tuple(sorted(problem.allowed_outputs(i) & clique, key=label_sort_key))
        for i in input_tuple
    ]
    return _covers_candidates(allowed, candidates)


def _covers_candidates(
    allowed: FrozenSet[Multiset], candidates: Sequence[Tuple[Any, ...]]
) -> bool:
    """Backtracking over precomputed per-port candidate lists."""
    if not allowed:
        return False
    chosen: List[Any] = []

    def recurse(index: int) -> bool:
        if index == len(candidates):
            return Multiset(chosen) in allowed
        for label in candidates[index]:
            chosen.append(label)
            if recurse(index + 1):
                return True
            chosen.pop()
        return False

    return recurse(0)


# --------------------------------------------------------------- refutations
def build_refutation(problem: NodeEdgeCheckableLCL) -> Optional[Dict[str, Any]]:
    """A serializable witness that ``Π`` is *not* 0-round solvable.

    Returns ``None`` when no refutation exists (i.e. some maximal clique
    covers everything — the problem *is* 0-round solvable).  Otherwise
    records, per clique of :func:`self_looped_cliques` (in that order),
    the first input tuple :func:`uncoverable_tuple` finds it cannot cover.
    """
    witnesses = []
    for clique in self_looped_cliques(problem):
        witness = uncoverable_tuple(problem, clique)
        if witness is None:
            return None
        degree, input_tuple = witness
        witnesses.append(
            {
                "clique": [
                    encode_label(x) for x in sorted(clique, key=label_sort_key)
                ],
                "degree": degree,
                "inputs": [encode_label(x) for x in input_tuple],
            }
        )
    return {"witnesses": witnesses}


def check_refutation(
    problem: NodeEdgeCheckableLCL, refutation: Dict[str, Any]
) -> List[str]:
    """Independently verify a :func:`build_refutation` witness.

    Returns a list of discrepancies (empty means the refutation stands):

    * the recorded clique list must equal the *recomputed* set of maximal
      self-looped cliques — a witness cannot omit a clique;
    * for every clique, the recorded input tuple must be well-formed and
      provably uncoverable, re-established by exhaustive search here.
    """
    errors: List[str] = []
    try:
        witnesses = list(refutation["witnesses"])
    except (KeyError, TypeError):
        return ["refutation payload is malformed"]

    try:
        recorded = [
            frozenset(decode_label(x) for x in witness["clique"])
            for witness in witnesses
        ]
    except Exception as error:  # decode errors on hostile payloads
        return [f"refutation cliques cannot be decoded: {error}"]
    expected = self_looped_cliques(problem)
    if sorted(recorded, key=lambda c: sorted(map(label_sort_key, c))) != sorted(
        expected, key=lambda c: sorted(map(label_sort_key, c))
    ):
        errors.append(
            f"recorded clique list ({len(recorded)}) does not match the "
            f"recomputed maximal self-looped cliques ({len(expected)})"
        )

    declared = set(problem.degrees())
    sigma_in = problem.sigma_in
    for index, witness in enumerate(witnesses):
        try:
            clique = frozenset(decode_label(x) for x in witness["clique"])
            degree = int(witness["degree"])
            input_tuple = tuple(decode_label(x) for x in witness["inputs"])
        except Exception as error:
            errors.append(f"witness #{index} is malformed: {error}")
            continue
        if degree not in declared:
            errors.append(f"witness #{index} names undeclared degree {degree}")
            continue
        if len(input_tuple) != degree:
            errors.append(f"witness #{index} input tuple has wrong arity")
            continue
        if any(i not in sigma_in for i in input_tuple):
            errors.append(f"witness #{index} uses labels outside sigma_in")
            continue
        if not clique <= problem.sigma_out:
            errors.append(f"witness #{index} clique leaves sigma_out")
            continue
        if _covers(problem, clique, input_tuple):
            errors.append(
                f"witness #{index}: clique "
                f"{sorted(clique, key=label_sort_key)!r} DOES cover input "
                f"tuple {input_tuple!r} — exhaustion claim is false"
            )
    return errors


# ------------------------------------------------------- positive-side check
def check_zero_round_table(
    problem: NodeEdgeCheckableLCL,
    clique: Sequence[Any],
    table: Dict[Tuple[Any, ...], Tuple[Any, ...]],
) -> List[str]:
    """Independently verify a recorded ``A_det`` table solves ``Π`` in
    0 rounds (the two conditions of the Theorem 3.10 base case).

    Returns discrepancies; empty means the table is a valid deterministic
    0-round algorithm for the problem's declared degrees.
    """
    errors: List[str] = []
    used = set()
    # Populating a membership set: no order reaches any serialized byte
    # (consumers below iterate `used` via sorted(..., key=label_sort_key)).
    for outputs in table.values():  # repro-lint: disable=REP002
        used.update(outputs)
    clique_set = frozenset(clique)
    if not used <= clique_set:
        errors.append("table outputs labels outside its declared clique")
    if not clique_set <= problem.sigma_out:
        errors.append("declared clique leaves sigma_out")
    # Condition 2: every pair of ever-output labels is edge-compatible
    # (including self-pairs) — the adversary can place any two tuples on
    # adjacent nodes.
    for a in sorted(used, key=label_sort_key):
        for b in sorted(used, key=label_sort_key):
            if not problem.allows_edge(a, b):
                errors.append(
                    f"output labels {a!r}, {b!r} are not edge-compatible"
                )
    # Condition 1: the table covers every input tuple of every declared
    # degree, with outputs inside g and a multiset in N.
    inputs_sorted = sorted(problem.sigma_in, key=label_sort_key)
    for degree in problem.degrees():
        for input_tuple in itertools.combinations_with_replacement(inputs_sorted, degree):
            outputs = table.get(tuple(input_tuple))
            if outputs is None:
                errors.append(f"no rule for input tuple {input_tuple!r}")
                continue
            if len(outputs) != degree:
                errors.append(f"rule for {input_tuple!r} has wrong arity")
                continue
            for input_label, output in zip(input_tuple, outputs):
                if output not in problem.allowed_outputs(input_label):
                    errors.append(
                        f"rule for {input_tuple!r}: g({input_label!r}) "
                        f"rejects {output!r}"
                    )
            if not problem.allows_node(Multiset(outputs)):
                errors.append(
                    f"rule for {input_tuple!r}: outputs {outputs!r} are not "
                    f"a node configuration"
                )
    return errors
