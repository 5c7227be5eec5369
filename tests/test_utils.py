"""Unit and property tests for repro.utils."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    GFPolynomial,
    Multiset,
    SplittableRNG,
    derive_seed,
    is_prime,
    iterated_log,
    next_prime,
    tower,
)
import repro
from repro.utils.multiset import label_sort_key

#: Pickles a set of multisets to stdout.
PICKLE_SCRIPT = """
import pickle, sys
from repro.utils import Multiset
members = {Multiset(["a", "b"]), Multiset([frozenset({"x", "y"}), "z", "z"])}
sys.stdout.buffer.write(pickle.dumps(members))
"""

#: Loads that pickle from stdin and looks its members up by fresh copies.
UNPICKLE_SCRIPT = """
import pickle, sys
from repro.utils import Multiset
members = pickle.loads(sys.stdin.buffer.read())
assert Multiset(["b", "a"]) in members, members
assert Multiset(["z", frozenset({"y", "x"}), "z"]) in members, members
print("ok")
"""


def run_with_hash_seed(script, seed, stdin=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script], input=stdin, env=env, capture_output=True, check=True
    ).stdout


# ----------------------------------------------------------------- Multiset
class TestMultiset:
    def test_equality_ignores_order(self):
        assert Multiset(["A", "B", "A"]) == Multiset(["B", "A", "A"])

    def test_inequality_on_multiplicity(self):
        assert Multiset(["A", "B"]) != Multiset(["A", "A", "B"])

    def test_hash_consistency(self):
        assert hash(Multiset([1, 2, 2])) == hash(Multiset([2, 1, 2]))

    def test_len_and_count(self):
        m = Multiset("aabc")
        assert len(m) == 4
        assert m.count("a") == 2
        assert m.count("z") == 0

    def test_support(self):
        assert Multiset("aabc").support() == frozenset("abc")

    def test_add_and_remove(self):
        m = Multiset(["x"])
        assert m.add("y") == Multiset(["x", "y"])
        assert m.add("x").remove_one("x") == m

    def test_remove_missing_raises(self):
        with pytest.raises(ValueError):
            Multiset(["x"]).remove_one("y")

    def test_inclusion(self):
        assert Multiset("ab") <= Multiset("aabb")
        assert not (Multiset("aab") <= Multiset("ab"))

    def test_map(self):
        assert Multiset([1, 2]).map(lambda x: x * 2) == Multiset([2, 4])

    def test_usable_as_dict_key(self):
        d = {Multiset("ab"): 1}
        assert d[Multiset("ba")] == 1

    def test_frozenset_labels_sort_deterministically(self):
        a = frozenset({"x", "y"})
        b = frozenset({"z"})
        assert Multiset([a, b]).items == Multiset([b, a]).items

    def test_nested_frozenset_sort_key_total(self):
        key_a = label_sort_key(frozenset({frozenset({"a"}), frozenset({"b"})}))
        key_b = label_sort_key(frozenset({frozenset({"b"})}))
        assert key_a != key_b
        assert sorted([key_a, key_b]) == sorted([key_b, key_a])

    def test_pickle_round_trip(self):
        m = Multiset([frozenset({"x"}), "a", "a"])
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and hash(copy) == hash(m) and copy.items == m.items

    def test_pickle_crosses_string_hash_seeds(self):
        # The cached hash is seeded per process; a pickle must not carry it.
        payload = run_with_hash_seed(PICKLE_SCRIPT, 1)
        assert run_with_hash_seed(UNPICKLE_SCRIPT, 2, stdin=payload) == b"ok\n"

    @given(st.lists(st.sampled_from("abcde"), max_size=8))
    def test_property_canonical_under_permutation(self, items):
        assert Multiset(items) == Multiset(list(reversed(items)))

    @given(
        st.lists(st.sampled_from("abc"), max_size=6),
        st.sampled_from("abc"),
    )
    def test_property_add_then_remove_roundtrip(self, items, extra):
        m = Multiset(items)
        assert m.add(extra).remove_one(extra) == m

    @given(st.lists(st.sampled_from("abc"), max_size=6))
    def test_property_counter_total(self, items):
        m = Multiset(items)
        assert sum(m.counter().values()) == len(m)


# ------------------------------------------------------------------ numbers
class TestNumbers:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, 0), (2, 1), (4, 2), (16, 3), (65536, 4), (2**65536 if False else 65537, 5)],
    )
    def test_iterated_log_values(self, n, expected):
        assert iterated_log(n) == expected

    def test_iterated_log_below_one(self):
        assert iterated_log(0.5) == 0

    def test_tower_small(self):
        assert tower(0, top=3.0) == 3.0
        assert tower(1, top=3.0) == 8.0
        assert tower(2, top=2.0) == 16.0

    def test_tower_overflow_is_inf(self):
        assert tower(10) == math.inf

    def test_tower_negative_height_raises(self):
        with pytest.raises(ValueError):
            tower(-1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 997])
    def test_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("c", [0, 1, 4, 9, 100, 999])
    def test_composites(self, c):
        assert not is_prime(c)

    def test_next_prime(self):
        assert next_prime(8) == 11
        assert next_prime(11) == 11
        assert next_prime(0) == 2

    def test_memoized_primality_agrees_with_trial_division(self):
        def trial_division(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        primes = [n for n in range(5001) if trial_division(n)]
        # Twice: the second pass reads is_prime's memo.
        for _ in range(2):
            assert [n for n in range(5001) if is_prime(n)] == primes
            for n in range(0, 4994):
                assert next_prime(n) == min(p for p in primes if p >= max(2, n))
        assert is_prime.cache_info().maxsize is not None

    @given(st.integers(min_value=2, max_value=5000))
    def test_property_iterated_log_monotone_step(self, n):
        assert iterated_log(n) == 1 + iterated_log(math.log2(n))


class TestGFPolynomial:
    def test_requires_prime(self):
        with pytest.raises(ValueError):
            GFPolynomial(4, [1])

    @pytest.mark.parametrize("q", [0, 1, 4, 9, 15])
    def test_from_integer_requires_prime(self, q):
        for _ in range(2):  # the second call reads is_prime's memo
            with pytest.raises(ValueError):
                GFPolynomial.from_integer(q, 0, 1)
            with pytest.raises(ValueError):
                GFPolynomial(q, [0, 1])

    @pytest.mark.parametrize("q, degree", [(2, 3), (5, 2), (17, 5)])
    def test_from_integer_equals_constructor_on_digits(self, q, degree):
        for value in range(0, q ** (degree + 1), max(1, q ** (degree + 1) // 97)):
            digits = [(value // q**i) % q for i in range(degree + 1)]
            encoded = GFPolynomial.from_integer(q, value, degree)
            assert encoded == GFPolynomial(q, digits)
            assert type(encoded.coefficients) is tuple
            assert [encoded(x) for x in range(q)] == [
                GFPolynomial(q, digits)(x) for x in range(q)
            ]

    def test_horner_evaluation(self):
        p = GFPolynomial(7, [1, 2, 3])  # 1 + 2x + 3x^2
        assert p(0) == 1
        assert p(1) == 6
        assert p(2) == (1 + 4 + 12) % 7

    def test_from_integer_injective(self):
        q, degree = 5, 2
        seen = {}
        for value in range(q ** (degree + 1)):
            poly = GFPolynomial.from_integer(q, value, degree)
            assert poly.coefficients not in seen
            seen[poly.coefficients] = value

    def test_from_integer_out_of_range(self):
        with pytest.raises(ValueError):
            GFPolynomial.from_integer(3, 27, 2)

    @given(st.integers(min_value=0, max_value=124), st.integers(min_value=0, max_value=4))
    def test_property_distinct_polynomials_agree_rarely(self, value, x):
        # Two distinct degree-2 polynomials over GF(5) agree on <= 2 points.
        q, degree = 5, 2
        p1 = GFPolynomial.from_integer(q, value, degree)
        p2 = GFPolynomial.from_integer(q, (value + 1) % (q ** (degree + 1)), degree)
        agreements = sum(1 for t in range(q) if p1(t) == p2(t))
        assert agreements <= degree


# ---------------------------------------------------------------------- rng
class TestRNG:
    def test_derive_seed_deterministic(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_derive_seed_sensitive_to_parts(self):
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("ab") != derive_seed("a", "b")

    def test_child_streams_independent_of_creation_order(self):
        root = SplittableRNG(42)
        first = root.child("node", 7).bits(32)
        root2 = SplittableRNG(42)
        root2.child("node", 3).bits(32)  # interleave another child
        second = root2.child("node", 7).bits(32)
        assert first == second

    def test_bits_length_and_alphabet(self):
        bits = SplittableRNG(0).bits(100)
        assert len(bits) == 100
        assert set(bits) <= {"0", "1"}

    def test_integer_bounds(self):
        rng = SplittableRNG(5)
        values = [rng.integer(3, 9) for _ in range(100)]
        assert all(3 <= v <= 9 for v in values)
